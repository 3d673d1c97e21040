"""Command-line front end.

Reads a plain ``key = value`` parameter file in UTF-8, applies flag
overrides, and dispatches to the analysis modules.  Human-readable reports
go to stdout; machine-readable output is CSV with LF line endings and full
double precision, so identical inputs produce byte-identical files.

Exit codes: 0 success, 2 invalid configuration or parameters (a config file
that cannot be read or decoded and an output path that cannot be written
included), 3 numerical failure.  A command's report is buffered and reaches
stdout only on exit 0, so a refusal or a failure leaves stdout empty.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import sys
from typing import Optional, Sequence

from . import ddesim, hopf, linstab, model
from .errors import ConfigError, InconclusiveError, NumericsError, ParameterError

__all__ = ["parse_config", "main"]

_ALLOWED_KEYS = ("beta0", "n", "delta", "gamma", "k", "r")
_REQUIRED_KEYS = ("beta0", "n", "delta")
# argparse reads a token such as "-1e-3" as an option unless it matches
# this pattern; its default admits only plain decimals like "-0.001".
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
#: Largest --r-grid COUNT accepted; a stability chart this size on the
#: README configuration, where x2 exists, takes about 7 s on a 2-vCPU Xeon.
MAX_GRID_POINTS = 100_000
#: Largest total step count of one `sweep`, summed over its rows before the
#: first integration; about 5 s of integration at 0.23 us per step with the
#: compiled loop, 25-35 s at 1.2-1.8 us per step with the Python loop, on a
#: 2-vCPU Xeon.
MAX_SWEEP_STEPS = 20_000_000


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines into a parameter dictionary.

    ``#`` starts a comment; keys are beta0, n, delta, gamma, k, r.
    Raises :class:`ConfigError` with the offending line number for
    unknown keys, duplicates, unparsable values, a gamma/k conflict,
    or missing required keys.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        try:
            values[key] = float(val)
        except ValueError:
            raise ConfigError(f"cannot parse value {val!r} for {key!r}", line=lineno)
        if "gamma" in values and "k" in values:
            raise ConfigError("both gamma and k given; supply exactly one", line=lineno)
    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if "gamma" not in values and "k" not in values:
        missing.append("gamma or k")
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return values


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _fmt_c(z: complex) -> str:
    return f"{z.real:.12g} {z.imag:+.12g}i"


def _csv_cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, header: str, rows, out) -> None:
    """Write `rows` under `header` to the CSV at `path`, each cell by `_csv_cell`."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    print(f"wrote {len(rows)} rows to {path}", file=out)


def _build_params(cfg: argparse.Namespace) -> model.ModelParameters:
    if cfg.gamma is not None:
        return model.ModelParameters.from_gamma(cfg.beta0, cfg.n, cfg.delta, cfg.gamma, cfg.r)
    return model.ModelParameters.from_k(cfg.beta0, cfg.n, cfg.delta, cfg.k, cfg.r)


def _cmd_equilibria(cfg: argparse.Namespace, out) -> None:
    params = _build_params(cfg)
    report = model.equilibria(params)
    print(f"parameters: beta0={_fmt(params.beta0)} n={_fmt(params.n)} "
          f"delta={_fmt(params.delta)} gamma={_fmt(params.gamma)} "
          f"r={_fmt(params.r)} k={_fmt(params.k)}", file=out)
    print(f"A      = {_fmt(report.A)}", file=out)
    print(f"x1     = {_fmt(report.x1)}   B1(x1) = {_fmt(report.B1_at_x1)}", file=out)
    if report.x2 is not None:
        print(f"x2     = {_fmt(report.x2)}   B1(x2) = {_fmt(report.B1_at_x2)}",
              file=out)
        beta_x2 = params.beta0 / (1.0 + report.x2**params.n)
        resid = (params.k - 1.0) * beta_x2 - params.delta
        print(f"stationarity residual = {resid:.3e}", file=out)
    else:
        print("x2     absent (A <= 1)", file=out)
    print(f"r_max  = {_fmt(report.r_max)}   r_n = {_fmt(report.r_n)}", file=out)


def _print_verdict(v: linstab.StabilityVerdict, out) -> None:
    parts = [f"{v.target}: case {v.case_label}, {v.status}"]
    if v.omega0 is not None:
        parts.append(f"omega0={_fmt(v.omega0)}")
    if v.stable_window is not None:
        lo, hi = v.stable_window
        parts.append(f"window=({_fmt(lo)}, {_fmt(hi)})")
    print("  ".join(parts), file=out)
    if v.notes:
        print(f"    {v.notes}", file=out)


def _cmd_stability(cfg: argparse.Namespace, out) -> None:
    params = _build_params(cfg)
    _print_verdict(linstab.classify_x1(params), out)
    if params.x2_exists:
        _print_verdict(linstab.classify_x2(params), out)
    else:
        print("x2: absent (A <= 1)", file=out)
    if cfg.r_grid is not None:
        rows = []
        for r in cfg.r_grid:
            local = params.with_r(r)
            if local.x2_exists:
                verdict = linstab.classify_x2(local)
                case, status = verdict.case_label, verdict.status
                try:
                    g_val = linstab.g_of_r(r, local)
                except ParameterError:
                    g_val = math.nan
                triple = linstab.characteristic_triple(local)
                try:
                    re_right = linstab.rightmost_root(triple).real
                except NumericsError:
                    re_right = math.nan
            else:
                case, status, g_val, re_right = "none", "none", math.nan, math.nan
            rows.append((r, case, status, g_val, re_right))
        _write_csv(cfg.output, "r,case,status,g_of_r,re_rightmost", rows, out)


def _locate_hopf(cfg: argparse.Namespace) -> hopf.HopfPoint:
    """The Hopf point anchored to the config's own parameterization.

    A k config fixes k and uses the closed frontier relations; on a gamma
    config, at fixed gamma, `hopf.find_hopf_r` locates the crossing inside
    --bracket, or the first one without it.
    """
    if cfg.k is not None:
        return hopf.hopf_from_pqk(cfg.n, cfg.beta0, cfg.delta, cfg.k)
    # any delay gives the same fixed-gamma family; the stored r is unused
    params = model.ModelParameters.from_gamma(cfg.beta0, cfg.n, cfg.delta, cfg.gamma, 0.0)
    return hopf.find_hopf_r(params, cfg.bracket)


def _cmd_hopf(cfg: argparse.Namespace, out) -> None:
    hp = _locate_hopf(cfg)
    resid = abs(linstab.char_value(1j * hp.omega_star, hp.triple))
    # checks sharing no formula with the locators: g, through T_inv, and the principal
    # Lambert-W root, rightmost since r* is the first crossing of (p*, q*) (Hayes 1950)
    g_res = abs(linstab.g_of_r(hp.r_star, hp.params))
    lam0 = linstab.rightmost_root(hp.triple)
    print(f"{'strategy' if cfg.k is not None else 'boundary-root'} route:", file=out)
    print(f"  r*     = {_fmt(hp.r_star)}", file=out)
    print(f"  omega* = {_fmt(hp.omega_star)}", file=out)
    print(f"  gamma* = {_fmt(hp.params.gamma)}", file=out)
    print(f"  p* = {_fmt(hp.p_star)}   q* = {_fmt(hp.q_star)}   "
          f"x2* = {_fmt(hp.x2_star)}", file=out)
    print(f"  characteristic residual = {resid:.3e}", file=out)
    print("independent checks at r*:", file=out)
    print(f"  g residual = {g_res:.3e}", file=out)
    print(f"  Lambert W0 root lam0 = {_fmt_c(lam0)}", file=out)
    print(f"  |lam0 - i omega*| / omega* = "
          f"{abs(lam0 - 1j * hp.omega_star) / hp.omega_star:.3e}", file=out)


def _cmd_normal_form(cfg: argparse.Namespace, out) -> None:
    hp = _locate_hopf(cfg)
    nf = hopf.criticality_report(hp)
    print(f"hopf point: r* = {_fmt(hp.r_star)}  omega* = {_fmt(hp.omega_star)}  "
          f"gamma* = {_fmt(hp.params.gamma)}", file=out)
    print(f"psi1(0) = {_fmt_c(nf.psi1_zero)}", file=out)
    for name in ("f20", "f11", "f02", "f21", "g20", "g11", "g02", "g21"):
        print(f"{name} = {_fmt_c(getattr(nf, name))}", file=out)
    for label, value, closed in (
        ("w20(0) ", nf.w20_at_0, nf.w20_closed_at_0),
        ("w20(-r)", nf.w20_at_minus_r, nf.w20_closed_at_minus_r),
        ("w11(0) ", nf.w11_at_0, nf.w11_closed_at_0),
        ("w11(-r)", nf.w11_at_minus_r, nf.w11_closed_at_minus_r),
    ):
        print(f"{label} = {_fmt_c(value)}   closed form {_fmt_c(closed)}   "
              f"|diff| = {abs(value - closed):.3e}", file=out)
    print(f"c  = {_fmt_c(nf.c)}", file=out)
    print(f"c1 = {_fmt(nf.c1)}", file=out)
    print(f"l1 = {_fmt(nf.l1)}   s = {nf.s:+d}", file=out)
    print(f"mu' = {_fmt(nf.mu_prime)}   omega' = {_fmt(nf.omega_prime)}", file=out)
    print(f"polar radial coefficient near the crossing: "
          f"{_fmt(nf.mu_prime / hp.omega_star)} * (r - r*)", file=out)
    side = ">" if nf.mu_prime > 0 else "<"
    print(f"criticality: {nf.criticality}", file=out)
    if nf.criticality == hopf.SUPERCRITICAL:
        print(f"  stable periodic solution for r {side} r*", file=out)


def _orbit_metrics(traj: ddesim.Trajectory, transient_fraction: float) -> ddesim.OrbitMetrics:
    # a decaying tail may be slow decay onto a nearby cycle: where x2 is linearly
    # unstable, it is no decay onto x2 for generic data, and the run decides nothing
    metrics = ddesim.orbit_metrics(traj, transient_fraction)
    if metrics.kind == ddesim.KIND_EQUILIBRIUM and traj.params.x2_exists and (
            linstab.classify_x2(traj.params).status == linstab.UNSTABLE):
        return metrics._replace(kind=ddesim.KIND_UNDETERMINED)
    return metrics


def _cmd_simulate(cfg: argparse.Namespace, out) -> None:
    params = _build_params(cfg)
    traj = ddesim.integrate(params, ddesim.default_history(params.r), cfg.t_end,
                            cfg.steps_per_delay)
    rows = ddesim.write_trajectory_csv(traj, cfg.output, stride=cfg.stride)
    metrics = _orbit_metrics(traj, cfg.transient_fraction)
    print(f"wrote {rows} rows to {cfg.output}", file=out)
    print(f"kind = {metrics.kind}   amplitude = {_fmt(metrics.amplitude)}   "
          f"period = {_fmt(metrics.period) if metrics.period else 'n/a'}   "
          f"distance to x2 = {metrics.distance_to_x2:.3e}", file=out)


def _cmd_sweep(cfg: argparse.Namespace, out) -> None:
    steps = sum(ddesim.step_count(r, cfg.t_end, cfg.steps_per_delay) for r in cfg.r_grid)
    if steps > MAX_SWEEP_STEPS:
        raise ParameterError(f"sweep needs {steps} steps in total, more than "
                             f"MAX_SWEEP_STEPS = {MAX_SWEEP_STEPS}")
    rows = []
    for r in cfg.r_grid:
        params = model.ModelParameters.from_gamma(cfg.beta0, cfg.n, cfg.delta, cfg.gamma, r)
        traj = ddesim.integrate(params, ddesim.default_history(r), cfg.t_end,
                                cfg.steps_per_delay)
        metrics = _orbit_metrics(traj, cfg.transient_fraction)
        rows.append((r, metrics.kind, metrics.amplitude, metrics.period))
    _write_csv(cfg.output, "r,kind,amplitude,period", rows, out)


def _cmd_scaling(cfg: argparse.Namespace, out) -> None:
    hp = _locate_hopf(cfg)
    nf = hopf.criticality_report(hp)
    if nf.criticality != hopf.SUPERCRITICAL:
        raise InconclusiveError(
            f"the Hopf point is {nf.criticality} (l1 = {_fmt(nf.l1)}): no stable "
            "cycle grows like sqrt(r - r*), so the amplitude ratio has no prediction"
        )
    ratio = ddesim.amplitude_scaling(hp.params, hp.r_star, cfg.delta_r, t_end=cfg.t_end,
                                     steps_per_delay=cfg.steps_per_delay,
                                     transient_fraction=cfg.transient_fraction)
    print(f"amplitude({_fmt(hp.r_star + 4 * cfg.delta_r)}) / "
          f"amplitude({_fmt(hp.r_star + cfg.delta_r)}) = {_fmt(ratio)}", file=out)
    print("square-root growth predicts 2 inside the asymptotic regime", file=out)


_DISPATCH = {
    "equilibria": _cmd_equilibria,
    "stability": _cmd_stability,
    "hopf": _cmd_hopf,
    "normal-form": _cmd_normal_form,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "scaling": _cmd_scaling,
}
COMMANDS = tuple(_DISPATCH)


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemohopf",
        usage="%(prog)s command config [options]",
        description="Stability and Hopf bifurcation analysis of the delayed "
        "blood-cell production model",
    )
    parser.add_argument("command", choices=COMMANDS, help="the analysis to run")
    parser.add_argument("config", help="parameter file (key = value lines)")
    for key in _ALLOWED_KEYS:
        parser.add_argument(f"--{key}", type=float, default=None,
                            help=f"override {key} from the config file")
    parser.add_argument("--output", "-o", default=None, help="output CSV path")
    parser.add_argument("--t-end", type=float, default=None,
                        help=f"simulated time (default {ddesim.T_END:g}; "
                        f"{ddesim.SCALING_T_END:g} for scaling)")
    parser.add_argument("--steps-per-delay", type=int, default=ddesim.STEPS_PER_DELAY,
                        help="RK4 steps per delay interval (default %(default)s)")
    parser.add_argument("--stride", type=int, default=1,
                        help="write every STRIDE-th trajectory row (default 1)")
    parser.add_argument("--transient-fraction", type=float,
                        default=ddesim.TRANSIENT_FRACTION, help="leading share of a "
                        "run the orbit diagnostics skip (default %(default)s)")
    parser.add_argument("--bracket", type=float, nargs=2, default=None,
                        metavar=("LO", "HI"), help="delay bracket that selects the "
                        "Hopf crossing of a gamma config (checked, unused on a k config)")
    parser.add_argument("--delta-r", type=float, default=2e-3,
                        help="scaling offset above r* (default 2e-3)")
    parser.add_argument("--r-grid", type=float, nargs=3, default=None,
                        metavar=("START", "STOP", "COUNT"),
                        help="COUNT evenly spaced delays from START to STOP")
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _read_config(path: str) -> str:
    """Text of the config file; a byte that is not UTF-8 is refused with
    the file and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; number its line as parse_config does
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(f"cannot decode byte 0x{data[exc.start]:02x} as UTF-8 "
                          f"({exc.reason})", line=line, path=path) from None


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """Fold the config file into the parsed flags, check them and resolve them.

    Every flag value, and every flag a command requires (the delay of
    `equilibria`, `stability` and `simulate`, the output of `simulate`, named
    first, and of a `stability` grid, a `sweep`'s grid and output), is checked
    here for every command, before any model evaluation.  beta0, n, delta,
    gamma, k and r take the flag over the file value; `--r` alone, on a file
    that gives k and r, moves the delay at the gamma of the file's own (k, r),
    and a `sweep` at the gamma of the config's (k, r).  `bracket` becomes a
    tuple, `r_grid` the list of its delays, and a missing `t_end` the default
    of the command (`ddesim.SCALING_T_END` for `scaling`, else `T_END`).
    """
    values = parse_config(_read_config(args.config))
    if args.gamma is not None and args.k is not None:
        raise ConfigError("flags give both gamma and k; supply exactly one")
    if args.bracket is not None:
        args.bracket = tuple(args.bracket)
        hopf._check_bracket(args.bracket)
    if not 0.0 < args.transient_fraction < 1.0:
        raise ConfigError(
            f"--transient-fraction must be in (0, 1), got {args.transient_fraction}"
        )
    if args.stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {args.stride}")
    if args.t_end is None:
        args.t_end = ddesim.SCALING_T_END if args.command == "scaling" else ddesim.T_END
    elif not (math.isfinite(args.t_end) and args.t_end > 0.0):
        raise ConfigError(f"--t-end must be finite and > 0, got {args.t_end}")
    if not 1 <= args.steps_per_delay <= ddesim.MAX_STEPS_PER_DELAY:
        raise ConfigError(f"--steps-per-delay must be in [1, MAX_STEPS_PER_DELAY = "
                          f"{ddesim.MAX_STEPS_PER_DELAY}], got {args.steps_per_delay}")
    if not (math.isfinite(args.delta_r) and args.delta_r != 0.0):
        raise ConfigError(f"--delta-r must be finite and nonzero, got {args.delta_r}")
    if args.r_grid is not None:
        start, stop, count = args.r_grid
        if not (count.is_integer() and count >= 1):
            raise ConfigError(f"--r-grid COUNT must be a positive integer, got {count}")
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"--r-grid COUNT {count:.6g} exceeds "
                              f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        count = int(count)
        # every delay of the grid must be a valid r > 0
        if not (math.isfinite(stop) and 0.0 < start <= stop):
            raise ConfigError(f"bad r grid {(start, stop, count)}")
        step = (stop - start) / (count - 1) if count > 1 else 0.0
        args.r_grid = [start + i * step for i in range(count)]
    if args.gamma is None and args.k is None:
        args.gamma, args.k = values.get("gamma"), values.get("k")
        if args.r is not None and args.k is not None and "r" in values:
            args.gamma, args.k = model.gamma_from_k(args.k, values["r"]), None
    if args.r is None:
        args.r = values.get("r")
    if args.command == "sweep":
        if args.r_grid is None:
            raise ConfigError("sweep requires --r-grid START STOP COUNT")
        if args.output is None:
            raise ConfigError("sweep requires --output for the metrics CSV")
        if args.gamma is None:
            # a sweep moves the delay at the gamma of the config's (k, r)
            if args.r is None:
                raise ConfigError("command 'sweep' needs gamma, either directly or "
                                  "derivable from k together with r")
            args.gamma, args.k = model.gamma_from_k(args.k, args.r), None
    if args.command == "simulate" and args.output is None:
        raise ConfigError("simulate requires --output for the trajectory CSV")
    if args.command in ("equilibria", "stability", "simulate") and args.r is None:
        raise ConfigError(f"command '{args.command}' requires the delay r")
    if args.command == "stability" and args.r_grid is not None and args.output is None:
        raise ConfigError("stability with an r grid requires --output")
    for key in _REQUIRED_KEYS:
        if getattr(args, key) is None:
            setattr(args, key, values[key])
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code: 0, 2 or 3.

    Every refusal and failure is caught here.  The report is buffered, so
    stdout is written only when the command succeeds.
    """
    args = _build_argparser().parse_args(argv)
    out = io.StringIO()
    try:
        _DISPATCH[args.command](_merge(args), out)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
