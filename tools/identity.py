"""Record what the program computes and prints, and compare two records.

usage: python tools/identity.py --src DIR > record.jsonl
       python tools/identity.py --compare A.jsonl B.jsonl

``--src`` imports hemohopf from DIR, the ``src`` directory of a tree (for
example a ``git archive`` of another revision), and writes one JSON line
``{"group", "case", "value"}`` per case:

- frontier: the first 2,000 seed-1 draws of perfbench/workloads.py, with the
  repr of `hopf_from_pqk`, `criticality_report` and `find_hopf_r` on the
  benchmark's +-10% bracket, or the error class and message;
- stability: the first 500 seed-1 stability configs of perfbench/workloads.py
  through `find_hopf_r` without a bracket, with the repr of
  `criticality_report` on each point it locates;
- output-compiled and output-python: the SHA-256 of the exit code, stdout,
  stderr and output file of every run that tests/test_cli_golden.py pins, and
  of the reference `simulate --r 0.35` and `--r 0.36`, `sweep` and
  `scaling --delta-r 2e-3`, once on the loops `ddesim` loads and once with
  ``ddesim._active = ddesim._PYTHON_KERNEL``.

``--compare`` prints the count of identical cases per group and every case
that differs or is missing from one record, and exits 1 if there is one.
The inputs come from perfbench/workloads.py and the tests' reference values
and goldens, which are imported and not changed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRONTIER_CASES = 2000
STABILITY_CASES = 500


def _attempt(fn, *args):
    # (result, its repr), or (None, "ErrorClass: message") where fn raises
    try:
        result = fn(*args)
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return result, repr(result)


def frontier_bracket(hemohopf, hp, low=0.9):
    """(low r*, min(1.1 r*, 0.999 r_max)); at low = 0.9 the bracket of
    workloads.frontier_values, which gives it no name of its own."""
    r_max = hemohopf.model.equilibria(hp.params).r_max
    return low * hp.r_star, min(1.1 * hp.r_star, 0.999 * r_max)


def frontier_cases(hemohopf, draws):
    hopf = hemohopf.hopf
    for i, draw in enumerate(draws):
        hp, value = _attempt(hopf.hopf_from_pqk, *draw)
        values = [value]
        if hp is not None:
            values.append(_attempt(hopf.criticality_report, hp)[1])
            values.append(_attempt(hopf.find_hopf_r, hp.params,
                                   frontier_bracket(hemohopf, hp))[1])
        yield "frontier", i, values


def stability_params(hemohopf, config):
    """The gamma-parameterized ModelParameters of a workloads stability config."""
    p = config["params"]
    return hemohopf.model.ModelParameters.from_gamma(p["beta0"], p["n"], p["delta"],
                                                     p["gamma"], p["r"])


def stability_cases(hemohopf, configs):
    hopf = hemohopf.hopf
    for i, config in enumerate(configs):
        hp, value = _attempt(hopf.find_hopf_r, stability_params(hemohopf, config))
        values = [value]
        if hp is not None:
            values.append(_attempt(hopf.criticality_report, hp)[1])
        yield "stability", i, values


def cli_runs():
    """{name: (config text, argv after the config path)}; "out.csv" is the output."""
    import refvals as rv
    import test_cli_golden as golden

    configs = {"k": golden.K_CONFIG, "gamma": golden.GAMMA_CONFIG,
               "ref": "".join(f"{key} = {value!r}\n" for key, value in (
                   ("beta0", rv.BETA0), ("n", rv.N), ("delta", rv.DELTA),
                   ("gamma", rv.GAMMA_REF), ("r", rv.R_REF)))}
    runs = {f"{command}-{config}": (configs[config], [command])
            for command, config in sorted(golden.GOLDEN)}
    runs["stability-grid-gamma"] = (configs["gamma"], ["stability", "--r-grid",
                                                       *golden.GAMMA_GRID, "-o", "out.csv"])
    for command, config in sorted(golden.SIMULATION_GOLDEN):
        argv = ["out.csv" if arg == "OUT" else arg for arg in golden.SIMULATION_ARGV[command]]
        runs[f"{command}-{config}"] = (configs[config], [command, *argv])
    runs.update({
        "ref-simulate-0.35": (configs["ref"], ["simulate", "--r", "0.35", "-o", "out.csv"]),
        "ref-simulate-0.36": (configs["ref"], ["simulate", "--r", "0.36", "-o", "out.csv"]),
        "ref-sweep": (configs["ref"], ["sweep", "--r-grid", "0.34", "0.37", "7",
                                       "-o", "out.csv"]),
        "ref-scaling-2e-3": (configs["ref"], ["scaling", "--delta-r", "2e-3"]),
    })
    return runs


def output_cases(hemohopf, group):
    cli, cwd = hemohopf.cli, os.getcwd()
    for name, (config, argv) in cli_runs().items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                Path("params.cfg").write_text(config)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([argv[0], "params.cfg", *argv[1:]])
                data = Path("out.csv").read_bytes() if Path("out.csv").exists() else None
            finally:
                os.chdir(cwd)
        digest = hashlib.sha256(repr((code, out.getvalue(), err.getvalue(), data)).encode())
        yield group, name, digest.hexdigest()


def load(src):
    """(hemohopf, workloads), hemohopf imported with its CLI from the tree whose
    src is `src`, and the benchmark's workloads module from this tree."""
    src = Path(src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import hemohopf.cli
    import workloads

    if not Path(hemohopf.__file__).is_relative_to(src):
        raise SystemExit(f"hemohopf was imported from {hemohopf.__file__}, not {src}")
    return hemohopf, workloads


def inputs(workloads):
    """The first FRONTIER_CASES seed-1 frontier draws and STABILITY_CASES
    seed-1 stability configs, as lists."""
    return (list(islice(workloads.frontier_draws(1), FRONTIER_CASES)),
            list(islice(workloads.stability_configs(1), STABILITY_CASES)))


def record(src):
    hemohopf, workloads = load(src)
    ddesim = hemohopf.ddesim
    draws, configs = inputs(workloads)
    yield from frontier_cases(hemohopf, draws)
    yield from stability_cases(hemohopf, configs)
    yield "output-compiled", "kernel", "compiled" if ddesim._kernel().library else "python"
    yield from output_cases(hemohopf, "output-compiled")
    ddesim._active = ddesim._PYTHON_KERNEL
    yield from output_cases(hemohopf, "output-python")


def _load(path):
    with open(path) as fh:
        return {(case["group"], case["case"]): case["value"] for case in map(json.loads, fh)}


def compare(path_a, path_b):
    a, b = _load(path_a), _load(path_b)
    groups = {}
    for key in sorted(a.keys() | b.keys(), key=str):
        same = key in a and key in b and a[key] == b[key]
        counts = groups.setdefault(key[0], [0, 0])
        counts[0] += same
        counts[1] += 1
        if not same:
            print(f"differs: {key[0]} {key[1]}\n  A: {a.get(key, '(missing)')}\n"
                  f"  B: {b.get(key, '(missing)')}")
    for group, (same, total) in sorted(groups.items()):
        print(f"{group}: {same} of {total} identical")
    return 0 if all(same == total for same, total in groups.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--src", metavar="DIR", help="record the tree whose src is DIR")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for group, case, value in record(args.src):
        print(json.dumps({"group": group, "case": case, "value": value}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
