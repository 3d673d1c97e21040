"""Command-line front end.

Reads a plain ``key = value`` parameter file, applies flag overrides, and
dispatches to the analysis modules.  Human-readable reports go to stdout;
machine-readable output is CSV with LF line endings and full double
precision, so identical inputs produce byte-identical files.

Exit codes: 0 success, 2 invalid configuration or parameters, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from . import ddesim, hopf, linstab, model
from .errors import BracketError, ConfigError, NumericsError, ParameterError

__all__ = ["RunConfig", "parse_config", "run", "main"]

COMMANDS = (
    "equilibria",
    "stability",
    "hopf",
    "normal-form",
    "simulate",
    "sweep",
    "scaling",
)

_ALLOWED_KEYS = ("beta0", "n", "delta", "gamma", "k", "r")
_REQUIRED_KEYS = ("beta0", "n", "delta")
# argparse reads a token such as "-1e-3" as an option unless it matches
# this pattern; its default admits only plain decimals like "-0.001".
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
#: Largest --r-grid COUNT accepted; a stability chart this size takes about
#: 5 s on a 2-vCPU Xeon.
MAX_GRID_POINTS = 100_000
#: Largest total step count of one `sweep`, summed over its rows before the
#: first integration; about 45 s of integration at 2.1 us per step on a
#: 2-vCPU Xeon.
MAX_SWEEP_STEPS = 20_000_000


@dataclass
class RunConfig:
    """Merged configuration of one CLI invocation."""

    command: str
    beta0: float
    n: float
    delta: float
    gamma: Optional[float] = None
    k: Optional[float] = None
    r: Optional[float] = None
    output_path: Optional[str] = None
    t_end: Optional[float] = None
    steps_per_delay: int = ddesim.STEPS_PER_DELAY
    stride: int = 1
    transient_fraction: float = 0.5
    bracket: Optional[Tuple[float, float]] = None
    delta_r: float = 2e-3
    r_grid: Optional[Tuple[float, float, int]] = None


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


def _build_params(cfg: RunConfig) -> model.ModelParameters:
    if cfg.r is None:
        raise ConfigError(f"command '{cfg.command}' requires the delay r")
    if cfg.gamma is not None:
        return model.ModelParameters.from_gamma(
            cfg.beta0, cfg.n, cfg.delta, cfg.gamma, cfg.r
        )
    return model.ModelParameters.from_k(cfg.beta0, cfg.n, cfg.delta, cfg.k, cfg.r)


def _resolve_gamma(cfg: RunConfig) -> float:
    """The fixed loss rate for r-sweeps, derived from (k, r) if needed."""
    if cfg.gamma is not None:
        return cfg.gamma
    if cfg.k is not None and cfg.r is not None:
        return model.gamma_from_k(cfg.k, cfg.r)
    raise ConfigError(
        f"command '{cfg.command}' needs gamma, either directly or derivable "
        "from k together with r"
    )


def _resolve_k(cfg: RunConfig) -> float:
    if cfg.k is not None:
        return cfg.k
    if cfg.gamma is not None and cfg.r is not None:
        return model.derive_k(cfg.gamma, cfg.r)
    raise ConfigError(
        f"command '{cfg.command}' needs k, either directly or derivable "
        "from gamma together with r"
    )


def _grid_values(grid: Tuple[float, float, int]):
    start, stop, count = grid
    # every delay of the grid must be a valid r > 0
    if count < 1 or not (math.isfinite(stop) and 0.0 < start <= stop):
        raise ConfigError(f"bad r grid {grid}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _print_report(params: model.ModelParameters, out) -> None:
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


def _cmd_equilibria(cfg: RunConfig, out) -> int:
    _print_report(_build_params(cfg), out)
    return 0


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


def _cmd_stability(cfg: RunConfig, out) -> int:
    params = _build_params(cfg)
    # The grid request is checked before anything is printed, so a refused
    # grid leaves no half report on stdout.
    grid = None
    if cfg.r_grid is not None:
        if cfg.output_path is None:
            raise ConfigError("stability with an r grid requires --output")
        grid = _grid_values(cfg.r_grid)
    _print_verdict(linstab.classify_x1(params), out)
    if params.x2_exists:
        _print_verdict(linstab.classify_x2(params), out)
    else:
        print("x2: absent (A <= 1)", file=out)
    if grid is not None:
        rows = []
        for r in grid:
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
        rows.sort(key=lambda row: row[0])
        with open(cfg.output_path, "w", newline="\n") as fh:
            fh.write("r,case,status,g_of_r,re_rightmost\n")
            for r, case, status, g_val, re_right in rows:
                fh.write(f"{r:.17g},{case},{status},"
                         f"{_csv_cell(g_val)},{_csv_cell(re_right)}\n")
        print(f"wrote {len(rows)} rows to {cfg.output_path}", file=out)
    return 0


def _bracket_by_scan(params: model.ModelParameters):
    """First sign change of g(r) on (0, r_max), skipping domain gaps."""
    r_max = model.equilibria(params).r_max
    prev = None
    for i in range(1, 400):
        r = r_max * i / 400.0
        try:
            g = linstab.g_of_r(r, params)
        except ParameterError:
            prev = None
            continue
        if prev is not None and (g < 0.0) != (prev[1] < 0.0):
            return prev[0], r
        prev = (r, g)
    raise BracketError(
        "no sign change of the boundary function on (0, r_max); "
        "supply --bracket explicitly"
    )


def _locate_hopf(cfg: RunConfig) -> hopf.HopfPoint:
    """The Hopf point anchored to the config's own parameterization.

    A k-parameterized config fixes k and uses the closed frontier
    relations; a gamma-parameterized config holds gamma fixed and locates
    the root of the boundary function (bracket from --bracket or a scan).
    """
    if cfg.k is not None:
        return hopf.hopf_from_pqk(cfg.n, cfg.beta0, cfg.delta, _resolve_k(cfg))
    gamma = _resolve_gamma(cfg)
    # any delay gives the same fixed-gamma family; the stored r is unused
    params = model.ModelParameters.from_gamma(cfg.beta0, cfg.n, cfg.delta, gamma, 0.0)
    bracket = cfg.bracket if cfg.bracket is not None else _bracket_by_scan(params)
    return hopf.find_hopf_r(params, bracket)


def _cmd_hopf(cfg: RunConfig, out) -> int:
    # Both routes run before anything is printed, so a failing cross-check
    # leaves no half report on stdout.
    hp = _locate_hopf(cfg)
    resid = abs(linstab.char_value(1j * hp.omega_star, hp.triple))
    if cfg.k is not None:
        # cross-check with the boundary-root route at the recovered gamma
        route = "strategy"
        bracket = cfg.bracket
        if bracket is None:
            r_max = model.equilibria(hp.params).r_max
            bracket = (0.9 * hp.r_star, min(1.1 * hp.r_star, 0.999 * r_max))
        hp2 = hopf.find_hopf_r(hp.params, bracket)
        g_res = abs(linstab.g_of_r(hp2.r_star, hp2.params))
        route2 = f"boundary-root route (bracket {bracket[0]:.6g}..{bracket[1]:.6g}):"
    else:
        # cross-check with the strategy route at the located point's k
        route = "boundary-root"
        hp2 = hopf.hopf_from_pqk(cfg.n, cfg.beta0, cfg.delta, hp.params.k)
        g_res = abs(linstab.g_of_r(hp2.r_star, hp.params))
        route2 = "strategy route (at the located k):"

    print(f"{route} route:", file=out)
    print(f"  r*     = {_fmt(hp.r_star)}", file=out)
    print(f"  omega* = {_fmt(hp.omega_star)}", file=out)
    print(f"  gamma* = {_fmt(hp.params.gamma)}", file=out)
    print(f"  p* = {_fmt(hp.p_star)}   q* = {_fmt(hp.q_star)}   "
          f"x2* = {_fmt(hp.x2_star)}", file=out)
    print(f"  characteristic residual = {resid:.3e}", file=out)
    print(route2, file=out)
    print(f"  r*     = {_fmt(hp2.r_star)}", file=out)
    print(f"  omega* = {_fmt(hp2.omega_star)}", file=out)
    print(f"  g residual = {g_res:.3e}", file=out)
    print(f"route agreement |dr| = {abs(hp.r_star - hp2.r_star):.3e}", file=out)
    return 0


def _cmd_normal_form(cfg: RunConfig, out) -> int:
    hp = _locate_hopf(cfg)
    nf = hopf.criticality_report(hp)
    print(f"hopf point: r* = {_fmt(hp.r_star)}  omega* = {_fmt(hp.omega_star)}  "
          f"gamma* = {_fmt(hp.params.gamma)}", file=out)
    print(f"psi1(0) = {_fmt_c(nf.psi1_zero)}", file=out)
    for name in ("f20", "f11", "f02", "f21", "g20", "g11", "g02", "g21"):
        print(f"{name} = {_fmt_c(getattr(nf, name))}", file=out)
    w20_cf = hopf.w20_closed_form(nf.g20, nf.g02, nf.f20, hp)
    w11_cf = hopf.w11_closed_form(nf.g11, nf.f11, hp)
    print(f"w20(0)  = {_fmt_c(nf.w20_at_0)}   closed form {_fmt_c(w20_cf[0])}   "
          f"|diff| = {abs(nf.w20_at_0 - w20_cf[0]):.3e}", file=out)
    print(f"w20(-r) = {_fmt_c(nf.w20_at_minus_r)}   closed form {_fmt_c(w20_cf[1])}   "
          f"|diff| = {abs(nf.w20_at_minus_r - w20_cf[1]):.3e}", file=out)
    print(f"w11(0)  = {_fmt_c(nf.w11_at_0)}   closed form {_fmt_c(w11_cf[0])}   "
          f"|diff| = {abs(nf.w11_at_0 - w11_cf[0]):.3e}", file=out)
    print(f"w11(-r) = {_fmt_c(nf.w11_at_minus_r)}   closed form {_fmt_c(w11_cf[1])}   "
          f"|diff| = {abs(nf.w11_at_minus_r - w11_cf[1]):.3e}", file=out)
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
    return 0


def _check_orbit_flags(cfg: RunConfig) -> None:
    """Refuse a bad --transient-fraction or --stride before any integration;
    `orbit_metrics` and `write_trajectory_csv` would only refuse after it."""
    if not 0.0 < cfg.transient_fraction < 1.0:
        raise ConfigError(
            f"--transient-fraction must be in (0, 1), got {cfg.transient_fraction}"
        )
    if cfg.stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {cfg.stride}")


def _cmd_simulate(cfg: RunConfig, out) -> int:
    if cfg.output_path is None:
        raise ConfigError("simulate requires --output for the trajectory CSV")
    _check_orbit_flags(cfg)
    params = _build_params(cfg)
    t_end = cfg.t_end if cfg.t_end is not None else 200.0
    traj = ddesim.integrate(
        params, ddesim.default_history(params.r), t_end, cfg.steps_per_delay
    )
    ddesim.write_trajectory_csv(traj, cfg.output_path, stride=cfg.stride)
    metrics = ddesim.orbit_metrics(traj, cfg.transient_fraction)
    print(f"wrote {len(traj.t)} rows to {cfg.output_path}", file=out)
    print(f"kind = {metrics.kind}   amplitude = {_fmt(metrics.amplitude)}   "
          f"period = {_fmt(metrics.period) if metrics.period else 'n/a'}   "
          f"distance to x2 = {metrics.distance_to_x2:.3e}", file=out)
    return 0


def _cmd_sweep(cfg: RunConfig, out) -> int:
    if cfg.r_grid is None:
        raise ConfigError("sweep requires --r-grid START STOP COUNT")
    if cfg.output_path is None:
        raise ConfigError("sweep requires --output for the metrics CSV")
    _check_orbit_flags(cfg)
    gamma = _resolve_gamma(cfg)
    t_end = cfg.t_end if cfg.t_end is not None else 200.0
    grid = _grid_values(cfg.r_grid)
    steps = sum(ddesim.step_count(r, t_end, cfg.steps_per_delay) for r in grid)
    if steps > MAX_SWEEP_STEPS:
        raise ParameterError(f"sweep needs {steps} steps in total, more than "
                             f"MAX_SWEEP_STEPS = {MAX_SWEEP_STEPS}")
    rows = []
    for r in grid:
        params = model.ModelParameters.from_gamma(cfg.beta0, cfg.n, cfg.delta, gamma, r)
        traj = ddesim.integrate(
            params, ddesim.default_history(r), t_end, cfg.steps_per_delay
        )
        metrics = ddesim.orbit_metrics(traj, cfg.transient_fraction)
        rows.append((r, metrics.kind, metrics.amplitude, metrics.period))
    rows.sort(key=lambda row: row[0])
    with open(cfg.output_path, "w", newline="\n") as fh:
        fh.write("r,kind,amplitude,period\n")
        for r, kind, amplitude, period in rows:
            fh.write(f"{r:.17g},{kind},{_csv_cell(amplitude)},{_csv_cell(period)}\n")
    print(f"wrote {len(rows)} rows to {cfg.output_path}", file=out)
    return 0


def _cmd_scaling(cfg: RunConfig, out) -> int:
    _check_orbit_flags(cfg)
    hp = _locate_hopf(cfg)
    t_end = cfg.t_end if cfg.t_end is not None else 400.0
    ratio = ddesim.amplitude_scaling(
        hp.params, hp, cfg.delta_r, t_end=t_end,
        steps_per_delay=cfg.steps_per_delay,
        transient_fraction=cfg.transient_fraction,
    )
    print(f"amplitude({_fmt(hp.r_star + 4 * cfg.delta_r)}) / "
          f"amplitude({_fmt(hp.r_star + cfg.delta_r)}) = {_fmt(ratio)}", file=out)
    print("square-root growth predicts 2 inside the asymptotic regime", file=out)
    return 0


_DISPATCH = {
    "equilibria": _cmd_equilibria,
    "stability": _cmd_stability,
    "hopf": _cmd_hopf,
    "normal-form": _cmd_normal_form,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "scaling": _cmd_scaling,
}


def run(cfg: RunConfig, out=None) -> int:
    """Execute one configured command; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        return _DISPATCH[cfg.command](cfg, out)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemohopf",
        description="Stability and Hopf bifurcation analysis of the delayed "
        "blood-cell production model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="parameter file (key = value lines)")
        for key in _ALLOWED_KEYS:
            p.add_argument(f"--{key}", type=float, default=None,
                           help=f"override {key} from the config file")
        p.add_argument("--output", "-o", default=None, help="output CSV path")
        p.add_argument("--t-end", type=float, default=None)
        p.add_argument("--steps-per-delay", type=int, default=ddesim.STEPS_PER_DELAY)
        p.add_argument("--stride", type=int, default=1)
        p.add_argument("--transient-fraction", type=float, default=0.5)
        p.add_argument("--bracket", type=float, nargs=2, default=None,
                       metavar=("LO", "HI"))
        p.add_argument("--delta-r", type=float, default=2e-3)
        p.add_argument("--r-grid", type=float, nargs=3, default=None,
                       metavar=("START", "STOP", "COUNT"))
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _merge(args) -> RunConfig:
    with open(args.config) as fh:
        values = parse_config(fh.read())
    gamma = values.get("gamma")
    k = values.get("k")
    r = values.get("r")
    if args.gamma is not None and args.k is not None:
        raise ConfigError("flags give both gamma and k; supply exactly one")
    if args.gamma is not None:
        gamma, k = args.gamma, None
    elif args.k is not None:
        gamma, k = None, args.k
    if args.r is not None:
        # Delay overrides sweep r at fixed gamma; anchor gamma at the file's
        # (k, r) pair when the file parameterized through k.
        if gamma is None and k is not None and r is not None:
            gamma, k = model.gamma_from_k(k, r), None
        r = args.r
    beta0 = args.beta0 if args.beta0 is not None else values["beta0"]
    n = args.n if args.n is not None else values["n"]
    delta = args.delta if args.delta is not None else values["delta"]
    r_grid = None
    if args.r_grid is not None:
        start, stop, count = args.r_grid
        if not (count.is_integer() and count >= 1):
            raise ConfigError(f"--r-grid COUNT must be a positive integer, got {count}")
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"--r-grid COUNT {count:.6g} exceeds "
                              f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        r_grid = (start, stop, int(count))
    return RunConfig(
        command=args.command,
        beta0=beta0,
        n=n,
        delta=delta,
        gamma=gamma,
        k=k,
        r=r,
        output_path=args.output,
        t_end=args.t_end,
        steps_per_delay=args.steps_per_delay,
        stride=args.stride,
        transient_fraction=args.transient_fraction,
        bracket=tuple(args.bracket) if args.bracket is not None else None,
        delta_r=args.delta_r,
        r_grid=r_grid,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        cfg = _merge(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
