"""The benchmark's workloads: seeded inputs, one operation each, checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has ended.  An operation returns an `Outcome`; a
failed check or a refusal by the program becomes ``Outcome.failure``
(a class name) and never stops the run.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

# Frontier draw box and the grid size of one stability operation.
N_RANGE = (2.0, 20.0)
BETA0_RANGE = (0.5, 3.0)
DELTA_RANGE = (0.01, 0.3)
K_RANGE = (1.0, 2.0)
GRID_ROWS = 100
# Stability configs come in blocks of STRATA: a pool of STRATA * POOL_PER_STRATUM
# configs, sorted by r_max, gives one config from each equal slice.  An
# operation costs more the larger its delays (about 0.65 s at r_max < 1, up
# to 1.6 s at r_max of several hundred), so without this the cost mix of a
# run would change from seed to seed.
STRATA = 14
POOL_PER_STRATUM = 20

# Relative agreement required between the two Hopf routes; the g root is
# polished to |g| < 1e-11, which puts r* within about 1e-12 of the frontier.
ROUTE_RTOL = 1e-8
# Relative offset from r* at which classify_x2 must give opposite verdicts.
FLIP_OFFSET = 1e-3
# A CLI operation that takes longer than this is killed and counted failed.
CLI_TIMEOUT_S = 120.0

SIM_R_DECAY = "0.35"
SIM_R_CYCLE = "0.36"
SCALING_DELTA_R = "2e-3"


@dataclass
class Outcome:
    seconds: float
    failure: Optional[str] = None
    unexpected: bool = False  # a crash outside the program's documented errors
    stdout: str = ""
    values: dict = field(default_factory=dict)  # numbers parsed from the output
    import_s: Optional[float] = None
    spans: Optional[list] = None


class CheckFailed(Exception):
    """An output did not pass the benchmark's check; the message is its class."""


def quoted_tolerance(value: float) -> float:
    """Half a unit in the last decimal place of a quoted reference value."""
    text = repr(value)
    decimals = len(text.split(".")[1]) if "." in text else 0
    return 0.5 * 10.0 ** (-decimals)


# --------------------------------------------------------------------- inputs

def _hopf_pq(n, beta0, delta, k):
    """(p, q) at x2 from the model formulas, or None outside A > 1, B1 < 0, |q| > |p|."""
    a = beta0 * (k - 1.0) / delta
    if not 1.0 < k < 2.0 or a <= 1.0:
        return None
    b1 = beta0 * (n - (n - 1.0) * a) / (a * a)
    p, q = delta + b1, k * b1
    return (p, q) if b1 < 0.0 and abs(q) > abs(p) else None


def frontier_draws(seed: int):
    """(n, beta0, delta, k) in the Hopf regime A > 1, B1 < 0, |q| > |p|.

    The regime test is computed here from the model formulas, not by the
    program; no draw is dropped for any other reason.
    """
    rng = random.Random(seed)
    while True:
        draw = (rng.uniform(*N_RANGE), rng.uniform(*BETA0_RANGE),
                rng.uniform(*DELTA_RANGE), rng.uniform(*K_RANGE))
        if _hopf_pq(*draw) is not None:
            yield draw


def stability_configs(seed: int):
    """The frontier draws of `seed` as gamma-parameterized stability charts,
    stratified by r_max (see STRATA)."""
    configs = map(_stability_config, frontier_draws(seed))
    rng = random.Random(f"strata:{seed}")
    while True:
        pool = sorted((next(configs) for _ in range(STRATA * POOL_PER_STRATUM)),
                      key=lambda config: config["grid"][1])
        block = [rng.choice(pool[i * POOL_PER_STRATUM:(i + 1) * POOL_PER_STRATUM])
                 for i in range(STRATA)]
        rng.shuffle(block)
        yield from block


def _stability_config(draw):
    """A draw (n, beta0, delta, k) has its Hopf delay r* = arccos(p/q)/omega*
    with omega* = sqrt(q^2 - p^2); gamma = -ln(k/2)/r* makes k the
    amplification at r*, so the grid of GRID_ROWS delays in (0, r_max)
    passes through the draw's Hopf point."""
    n, beta0, delta, k = draw
    p, q = _hopf_pq(n, beta0, delta, k)
    r_star = math.acos(p / q) / math.sqrt(q * q - p * p)
    gamma = -math.log(k / 2.0) / r_star
    r_max = -math.log(0.5 * (1.0 + delta / beta0)) / gamma
    step = r_max / (GRID_ROWS + 1)
    return {
        "params": {"beta0": beta0, "n": n, "delta": delta, "gamma": gamma, "r": r_star},
        "grid": (step, GRID_ROWS * step, GRID_ROWS),
    }


def simulate_commands(seed: int):
    """Passes over the three reference commands, each pass in a seeded order."""
    rng = random.Random(seed)
    while True:
        cmds = ["decay", "cycle", "scaling"]
        rng.shuffle(cmds)
        yield from cmds


# ------------------------------------------------------------------ frontier

def frontier_values(hemohopf, draw):
    """One frontier operation on `draw`; returns (HopfPoint, NormalFormData).

    Raises the program's own errors, or CheckFailed when the two Hopf
    routes disagree or the x2 verdict does not flip across r*.
    """
    hopf, linstab, model = hemohopf.hopf, hemohopf.linstab, hemohopf.model
    hp = hopf.hopf_from_pqk(*draw)
    nf = hopf.criticality_report(hp)
    r_max = model.equilibria(hp.params).r_max
    bracket = (0.9 * hp.r_star, min(1.1 * hp.r_star, 0.999 * r_max))
    hp2 = hopf.find_hopf_r(hp.params, bracket)
    if not abs(hp2.r_star - hp.r_star) <= ROUTE_RTOL * hp.r_star:
        raise CheckFailed("route_disagreement")
    below = linstab.classify_x2(hp.params.with_r(hp.r_star * (1.0 - FLIP_OFFSET)))
    above = linstab.classify_x2(hp.params.with_r(hp.r_star * (1.0 + FLIP_OFFSET)))
    if {below.status, above.status} != {linstab.STABLE, linstab.UNSTABLE}:
        raise CheckFailed("no_verdict_flip")
    return hp, nf


def run_frontier(ctx, draw, traced=False) -> Outcome:
    start = time.perf_counter()
    failure, unexpected = None, False
    try:
        frontier_values(ctx.hemohopf, draw)
    except CheckFailed as exc:
        failure = str(exc)
    except (ctx.errors.ParameterError, ctx.errors.NumericsError) as exc:
        failure = type(exc).__name__
    except Exception as exc:  # counted, never raised: the run must go on
        failure, unexpected = f"unexpected:{type(exc).__name__}", True
    seconds = time.perf_counter() - start
    return Outcome(seconds, failure, unexpected,
                   spans=ctx.tracer.drain() if traced else None)


# ----------------------------------------------------------------------- CLI

def run_cli(ctx, argv, traced=False) -> Outcome:
    """Run ``hemohopf.cli`` on `argv` in a fresh interpreter and wait for it.

    The child's wall time is measured around spawn and reap.
    """
    spans_path = ctx.tmp_path("spans.json") if traced else None
    if traced:
        cmd = [ctx.python, str(ctx.bench_dir / "cli_traced.py"), spans_path, "--", *argv]
    else:
        cmd = [ctx.python, "-m", "hemohopf.cli", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=ctx.env, cwd=ctx.tmp,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(time.perf_counter() - start, "unexpected:timeout", True)
    outcome = Outcome(time.perf_counter() - start, stdout=proc.stdout)
    code = proc.returncode
    if "Traceback" in proc.stderr:  # classed by the exception on its last line
        error = proc.stderr.strip().splitlines()[-1].split(":")[0]
        outcome.failure, outcome.unexpected = f"unexpected:{error}", True
    elif code in (2, 3):
        outcome.failure = f"exit_{code}"
    elif code != 0:
        outcome.failure, outcome.unexpected = f"unexpected:exit_{code}", True
    if traced and os.path.exists(spans_path):
        with open(spans_path) as fh:
            data = json.load(fh)
        outcome.import_s = data["import_s"]
        outcome.spans = data["spans"]
    return outcome


def _check(outcome: Outcome, check, *args) -> Outcome:
    if outcome.failure is None:
        try:
            check(*args)
        except CheckFailed as exc:
            outcome.failure = str(exc)
        except (ValueError, IndexError, OSError) as exc:
            outcome.failure = f"unreadable_output:{type(exc).__name__}"
    return outcome


def run_stability(ctx, config, traced=False) -> Outcome:
    cfg_path = ctx.write_config(config["params"])
    csv_path = ctx.tmp_path("stability.csv")
    lo, hi, count = config["grid"]
    argv = ["stability", cfg_path, "--r-grid", repr(lo), repr(hi), str(count), "-o", csv_path]
    outcome = run_cli(ctx, argv, traced)
    return _check(outcome, _check_stability_csv, outcome, csv_path, count)


def _check_stability_csv(outcome, path, count):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "r,case,status,g_of_r,re_rightmost":
        raise CheckFailed("stability_schema")
    if len(lines) != count + 1:
        raise CheckFailed("stability_row_count")
    rows = outcome.values["rows"] = Counter()
    for line in lines[1:]:
        r, case, status, g_val, re_right = line.split(",")
        rows[f"{case}/{status}"] += 1
        if status not in ("stable", "unstable"):
            continue
        re_right = float(re_right)
        if math.isnan(re_right):
            raise CheckFailed("root_oracle_nan")
        if (status == "stable") != (re_right < 0.0):
            raise CheckFailed("status_vs_rightmost_root")


def run_simulate(ctx, command, traced=False) -> Outcome:
    """One of the three reference commands on the gamma-parameterized config."""
    cfg_path = ctx.write_config(ctx.reference_config)
    if command == "scaling":
        outcome = run_cli(ctx, ["scaling", cfg_path, "--delta-r", SCALING_DELTA_R], traced)
        return _check(outcome, _check_scaling, ctx, outcome)
    r = SIM_R_DECAY if command == "decay" else SIM_R_CYCLE
    csv_path = ctx.tmp_path("trajectory.csv")
    outcome = run_cli(ctx, ["simulate", cfg_path, "--r", r, "-o", csv_path], traced)
    return _check(outcome, _check_simulate, ctx, outcome, command, csv_path)


_WROTE = re.compile(r"wrote (\d+) rows")
_KIND = re.compile(r"kind = (\w+)\s+amplitude = (\S+)\s+period = (\S+)")
_RATIO = re.compile(r"\) = (\S+)\n")


def _check_simulate(ctx, outcome, command, csv_path):
    stdout = outcome.stdout
    wrote, kind = _WROTE.search(stdout), _KIND.search(stdout)
    if wrote is None or kind is None:
        raise CheckFailed("simulate_report")
    with open(csv_path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    if lines[0] != b"t,x" or lines[-1] != b"" or len(lines) - 2 != int(wrote.group(1)):
        raise CheckFailed("trajectory_schema")
    t_last, x_last = (float(v) for v in lines[-2].split(b","))
    if not (math.isfinite(t_last) and math.isfinite(x_last)):
        raise CheckFailed("trajectory_schema")
    expected = "equilibrium" if command == "decay" else "cycle"
    if kind.group(1) != expected:
        raise CheckFailed(f"kind_not_{expected}")
    if command == "cycle":
        period = float(kind.group(3))
        outcome.values["period_036"] = period
        ref = ctx.refvals.PERIOD_036
        if not abs(period - ref) <= quoted_tolerance(ref):
            raise CheckFailed("period_036")


def _check_scaling(ctx, outcome):
    match = _RATIO.search(outcome.stdout)
    if match is None:
        raise CheckFailed("scaling_report")
    ratio = float(match.group(1))
    outcome.values["ratio_2e3_8e3"] = ratio
    ref = ctx.refvals.RATIO_2E3_8E3
    if not abs(ratio - ref) <= quoted_tolerance(ref):
        raise CheckFailed("ratio_2e3_8e3")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str           # module a user's interpreter imports first
    inputs: Callable     # seed -> infinite iterator of operation inputs
    run: Callable        # (ctx, item, traced) -> Outcome
    block: int           # a timed run is a whole number of these operations
    block_s: float       # nominal seconds of one block, which sizes a timed run
    trace_ops: int       # operations in one pass of the traced run
    in_process: bool

    def op_count(self, seconds: float) -> int:
        """Operations in a timed run of about `seconds`: fixed for a given
        `seconds`, so every run has the same operation mix and its tail
        percentile is the same one, however fast the host is."""
        return self.block * max(1, round(seconds / self.block_s))


# block_s is the measured cost of a block on a 2-vCPU host: a frontier block
# is one draw (0.55-0.85 ms), a stability block STRATA configs (about 0.9 s
# each), a simulate block one pass over its three commands in a seeded order
# (3.6-3.9 s).  At 35 s that is 43750 frontier, 42 stability-grid and 27
# simulate operations.
WORKLOADS = {
    "frontier": Workload("frontier", "hemohopf", frontier_draws, run_frontier,
                         1, 0.8e-3, 300, True),
    "stability-grid": Workload("stability-grid", "hemohopf.cli", stability_configs,
                               run_stability, STRATA, 12.6, 2, False),
    "simulate": Workload("simulate", "hemohopf.cli", simulate_commands, run_simulate,
                         3, 3.9, 3, False),
}


def inputs(workload: str, seed: int, count: int) -> list:
    """The first `count` operation inputs of `workload` for `seed`."""
    it = WORKLOADS[workload].inputs(seed)
    return [next(it) for _ in range(count)]
