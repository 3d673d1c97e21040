"""hemohopf benchmark.

    python3 perfbench/run.py --workload {frontier,stability-grid,simulate}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/hemohopf`` and
``tests/refvals.py`` must be present).  Load comes from this one process:
a closed loop with one client, single-threaded.  A timed run is a fixed
number of operations, sized from S so that it takes about S seconds (see
`Workload.op_count`); every operation's output is checked, and failures are
counted by class, never raised.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate run that
wraps the library's public functions (see spans.py) over a fixed,
seed-determined trace set.  A detailed result file (provenance, failure
classes, tail percentile, digits against refvals, spans of the first traced
pass) is written under ``.perfbench_out/``.

Every operation that does not give a checked result counts in ``failed``,
by class: a refusal (exit 2/3, a typed error), a failed output check, or a
crash outside the program's documented errors (a traceback, another exit
code; also kept as ``unexpected``).  ``correct`` is false when the reference
values fall short of the precision refvals quotes (timed run), or when
tracing changed an operation's outcome (traced run).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_PARENT = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 11
FRONTIER_WARMUP_OPS = 20
# op_tail_ms: the highest percentile with this many samples beyond it, capped
# so that a long run reports p99 rather than its few slowest outliers.
TAIL_MIN_BEYOND = 10
TAIL_CAP = 99.0
# Refvals' analytic chain is validated to 1e-9 relative in the module tests.
ANALYTIC_MIN_DIGITS = 9.0
# A digits metric is capped at the precision its reference is known to:
# the module tests hold x2, r* and omega* to 1e-12 and l1, mu' to 1e-9;
# refvals' two integrators agree to 7 digits on the simulation values.
# Digits beyond that measure closeness to a rounded number, not accuracy.
# (metric, refvals constant, supported digits, getter on (HopfPoint, NormalFormData))
ANALYTIC_DIGITS = (
    ("digits.x2", "X2_REF", 12.0, lambda hp, nf: hp.x2_star),
    ("digits.r_star", "R_REF", 12.0, lambda hp, nf: hp.r_star),
    ("digits.omega_star", "OMEGA_REF", 12.0, lambda hp, nf: hp.omega_star),
    ("digits.l1", "L1_REF", 9.0, lambda hp, nf: nf.l1),
    ("digits.mu_prime", "MU_PRIME_REF", 9.0, lambda hp, nf: nf.mu_prime),
)
SIM_SUPPORTED_DIGITS = 7.0
SIM_DIGITS = (
    ("digits.period_036", "PERIOD_036", "period_036", "cycle"),
    ("digits.ratio_2e3_8e3", "RATIO_2E3_8E3", "ratio_2e3_8e3", "scaling"),
)


class Context:
    """Paths, child environment, the imported program and a scratch directory."""

    def __init__(self):
        self.python = sys.executable
        self.bench_dir = BENCH_DIR
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # an installed package imports from cached bytecode; so do the children
        # (the first spawn writes src/hemohopf/__pycache__ in the checkout)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        sys.path.insert(0, src)
        self.hemohopf = importlib.import_module("hemohopf")
        self.errors = importlib.import_module("hemohopf.errors")
        spec = importlib.util.spec_from_file_location("refvals", ROOT / "tests" / "refvals.py")
        self.refvals = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.refvals)
        rv = self.refvals
        # gamma-parameterized at the exact chain; a k-file at the quoted
        # r = R_PRINT derives a slightly different gamma and misses PERIOD_036
        self.reference_config = {"beta0": rv.BETA0, "n": rv.N, "delta": rv.DELTA,
                                 "gamma": rv.GAMMA_REF, "r": rv.R_REF}
        TMP_PARENT.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=TMP_PARENT)
        self.tracer = None

    def tmp_path(self, name):
        """A path in the scratch directory, with any earlier file there removed."""
        path = os.path.join(self.tmp, name)
        if os.path.exists(path):
            os.remove(path)
        return path

    def write_config(self, params):
        path = self.tmp_path("params.cfg")
        with open(path, "w") as fh:
            for key in ("beta0", "n", "delta", "gamma", "r"):
                fh.write(f"{key} = {params[key]!r}\n")
        return path

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass


def _spawn_seconds(ctx, code):
    start = time.perf_counter()
    subprocess.run([ctx.python, "-c", code], env=ctx.env, cwd=ctx.tmp, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_spawn(ctx, code, repeats=SETUP_REPEATS):
    """Median wall time of a fresh interpreter running `code`, after one warm-up."""
    _spawn_seconds(ctx, code)
    return statistics.median(_spawn_seconds(ctx, code) for _ in range(repeats))


def tail(latencies):
    """(percentile, value) of the highest percentile, up to p99, that has at
    least TAIL_MIN_BEYOND samples beyond it; the maximum when there are too
    few samples for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return 100.0, ordered[-1]
    idx = min(n - 1 - TAIL_MIN_BEYOND, math.ceil(TAIL_CAP / 100.0 * n) - 1)
    return 100.0 * (idx + 1) / n, ordered[idx]


def digits(value, ref):
    """Correct significant digits, -log10 of the relative error (capped at double precision)."""
    rel = abs(value - ref) / abs(ref)
    return -math.log10(max(rel, 2.0 ** -53))


class Tally:
    """Outcomes of one run's operations."""

    def __init__(self):
        self.latencies = []
        self.failures = Counter()
        self.unexpected = 0
        self.values = {}
        self.stability_rows = Counter()  # rows per case/status over the run

    def add(self, outcome):
        self.latencies.append(outcome.seconds)
        if outcome.failure is not None:
            self.failures[outcome.failure] += 1
        self.unexpected += outcome.unexpected
        self.stability_rows.update(outcome.values.pop("rows", {}))
        for key, value in outcome.values.items():
            self.values.setdefault(key, value)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())


def timed_run(ctx, wl, seed, seconds):
    """The untraced run: end-to-end metrics."""
    setup_s = measure_spawn(ctx, f"import {wl.entry}")
    if wl.in_process:
        for draw in workloads.inputs(wl.name, seed, FRONTIER_WARMUP_OPS):
            wl.run(ctx, draw)
    tally = Tally()
    start = time.perf_counter()
    # inputs are made as they are used, so they add nothing to peak_rss_mb
    for item in itertools.islice(wl.inputs(seed), wl.op_count(seconds)):
        tally.add(wl.run(ctx, item))
    elapsed = time.perf_counter() - start
    # the largest reaped child is an operation: set-up children only import
    rss_kb = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                                else resource.RUSAGE_CHILDREN).ru_maxrss

    tail_pct, tail_s = tail(tally.latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": tally.attempted / elapsed,
        "op_p50_ms": 1e3 * statistics.median(tally.latencies),
        "op_tail_ms": 1e3 * tail_s,
        "solved_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    reference, ref_ok = reference_digits(ctx, tally)
    metrics.update({name: entry["digits"] for name, entry in reference.items()})
    detail = {
        "elapsed_s": elapsed,
        "op_tail": {"percentile": tail_pct, "samples": tally.attempted},
        "fail_ratio": tally.failed / tally.attempted,
        "failure_classes": dict(tally.failures),
        "reference": reference,
    }
    if tally.stability_rows:
        detail["stability_rows"] = dict(sorted(tally.stability_rows.items()))
    return tally, metrics, ref_ok, detail


def _digits_entry(value, ref, required, supported):
    got = 0.0 if value is None else digits(value, ref)  # no value: no correct digit
    return {"value": value, "ref": ref, "digits": min(got, supported), "measured": got,
            "required": required, "supported": supported}


def reference_digits(ctx, tally):
    """Digits against refvals, and whether each reaches its required precision.

    The analytic chain comes from the frontier operation on the reference
    draw; the simulation values from the simulate commands (this run's own
    operations on `simulate`, one extra untimed pass elsewhere).
    """
    rv = ctx.refvals
    out = {}
    try:
        hp, nf = workloads.frontier_values(ctx.hemohopf, (rv.N, rv.BETA0, rv.DELTA, rv.K))
    except (workloads.CheckFailed, ctx.errors.ParameterError, ctx.errors.NumericsError):
        hp = nf = None
    for name, const, supported, get in ANALYTIC_DIGITS:
        value = None if hp is None else get(hp, nf)
        out[name] = _digits_entry(value, getattr(rv, const), ANALYTIC_MIN_DIGITS, supported)
    for name, const, key, command in SIM_DIGITS:
        value = tally.values.get(key)
        if value is None:
            value = workloads.run_simulate(ctx, command).values.get(key)
        ref = getattr(rv, const)
        required = digits(ref + workloads.quoted_tolerance(ref), ref)
        out[name] = _digits_entry(value, ref, required, SIM_SUPPORTED_DIGITS)
    ok = all(entry["digits"] >= entry["required"] for entry in out.values())
    return out, ok


def _pass(ctx, wl, items, traced):
    """Run `items` once; returns (seconds, outcomes).  In-process tracing is
    installed for the pass only."""
    undo = []
    if traced and wl.in_process:
        ctx.tracer = spans.Tracer()
        undo = spans.install(ctx.tracer)
    try:
        start = time.perf_counter()
        outcomes = [wl.run(ctx, item, traced=traced) for item in items]
        return time.perf_counter() - start, outcomes
    finally:
        spans.uninstall(undo)
        ctx.tracer = None


def traced_run(ctx, wl, seed, seconds):
    """The traced run: per-layer metrics over repeated passes of a fixed trace
    set.  Untraced and traced passes alternate; their time ratio is the
    tracing overhead."""
    items = workloads.inputs(wl.name, seed, wl.trace_ops)
    agg = spans.Aggregate()
    tally = Tally()
    first_pass_spans, import_times = [], []
    passes, traced_s, untraced_s, changed = 0, 0.0, 0.0, 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        pass_s, plain = _pass(ctx, wl, items, traced=False)
        untraced_s += pass_s
        pass_s, outcomes = _pass(ctx, wl, items, traced=True)
        traced_s += pass_s
        changed += sum(a.failure != b.failure for a, b in zip(plain, outcomes))
        for i, outcome in enumerate(outcomes):
            tally.add(outcome)
            if outcome.spans is not None:
                agg.add(outcome.spans)
                if passes == 0:
                    first_pass_spans.append({"op": i, "spans": outcome.spans})
            if outcome.import_s is not None:
                import_times.append(outcome.import_s)
        passes += 1

    metrics = agg.metrics(passes)
    metrics["cli.interp_start_s"] = 0.0 if wl.in_process else measure_spawn(ctx, "pass")
    metrics["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    detail = {
        "passes": passes,
        "ops_per_pass": len(items),
        "untraced_pass_s": untraced_s / passes,
        "traced_pass_s": traced_s / passes,
        "failure_classes": dict(tally.failures),
        "outcomes_changed_by_tracing": changed,
    }
    return tally, metrics, first_pass_spans, detail


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args):
    numpy = importlib.import_module("numpy")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_revision": _git_revision(),
        "load": "closed loop, one client, single-threaded",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in ("BENCHMARK.json", "src/hemohopf/__init__.py", "tests/refvals.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a hemohopf source checkout, missing {missing}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    wl = workloads.WORKLOADS[args.workload]
    ctx = Context()
    try:
        if args.trace:
            tally, metrics, first_pass_spans, detail = traced_run(ctx, wl, args.seed, args.seconds)
            correct = detail["outcomes_changed_by_tracing"] == 0
        else:
            tally, metrics, correct, detail = timed_run(ctx, wl, args.seed, args.seconds)
            first_pass_spans = None
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
        record = {
            "provenance": provenance(args),
            "attempted": tally.attempted, "failed": tally.failed,
            "unexpected": tally.unexpected, "correct": correct,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            "detail": detail,
        }
    finally:
        ctx.close()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if first_pass_spans is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as fh:
            json.dump(first_pass_spans, fh)

    for name, entry in record["metrics"].items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"attempted {tally.attempted}  failed {tally.failed} "
          f"{dict(tally.failures)}  correct {correct}  detail {OUT_DIR / stem}.json")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
