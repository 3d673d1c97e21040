"""Tests of the benchmark itself, kept out of the Tier-1 suite (pytest does
not collect this file by name).  Run from the repository root:

    python -m pytest -q perfbench/selftest.py
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = {
    "frontier": ("hopf.find_hopf_r.g_evals_per_call",),
    "stability-grid": ("linstab.rightmost_root_estimate.starts_per_call",
                       "linstab.char_root_newton.calls"),
    "simulate": ("ddesim.integrate.steps",),
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    first = workloads.inputs(workload, 1, 12)
    assert first == workloads.inputs(workload, 1, 12)
    assert first != workloads.inputs(workload, 2, 12)


def _function_attributes():
    sys.path.insert(0, str(ROOT / "src"))
    import hemohopf.cli  # noqa: F401  (loads every traced module)

    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "hemohopf" or name.startswith("hemohopf.")
            for attr, value in vars(mod).items() if inspect.isfunction(value)}


def test_install_rebinds_importers_and_uninstall_restores():
    before = _function_attributes()
    mods = {name: sys.modules[f"hemohopf.{name}"] for name in spans.TRACED_MODULES}
    undo = spans.install(spans.Tracer())
    try:
        for mod, attr in (("hopf", "g_of_r"), ("hopf", "omega0"), ("hopf", "bracketed_root"),
                          ("ddesim", "equilibria"), ("linstab", "equilibria"),
                          ("cli", "main"), ("linstab", "char_root_newton")):
            assert getattr(mods[mod], attr) is not before[(f"hemohopf.{mod}", attr)], (mod, attr)
        assert mods["hopf"].g_of_r is mods["linstab"].g_of_r
        assert sys.modules["hemohopf"].find_hopf_r is mods["hopf"].find_hopf_r
    finally:
        spans.uninstall(undo)
    assert _function_attributes() == before


def test_traced_run_restores_every_attribute(capsys):
    before = _function_attributes()
    assert run.main(["--workload", "frontier", "--seed", "3", "--seconds", "0.2", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["metrics"]["model.equilibria.calls"]["value"] > 0
    assert _function_attributes() == before


@pytest.mark.parametrize("workload", sorted(EXACT_COUNTS))
def test_trace_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", "5", "--seconds", "0.1", "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    for name in EXACT_COUNTS[workload]:
        assert runs[0][name]["value"] > 0, name
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", "frontier", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
