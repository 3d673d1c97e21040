"""hemohopf runs without numpy, and starts without dataclasses or inspect.

The analytic commands are scalar real and complex arithmetic, and the
simulation stores its trajectories in ``array('d')``, so importing the
package and running any command must not import numpy; numpy is a test
dependency only.  The records are named tuples, so neither may
``dataclasses`` and the ``inspect`` it pulls in: each CLI command is one
process, and their import is most of its start-up.  Only a simulation
loads the compiled step loop, so the analytic commands import neither
``ctypes`` nor ``subprocess``.  The import checks run
in a fresh interpreter, because the test modules import numpy themselves.
The simulation module depends on the model and the errors alone: a check
of its source keeps the Hopf and stability layers out of its imports.
The package namespace holds exactly the names the modules list in
``__all__``.
"""

import ast
import os
import subprocess
import sys
import types
from array import array

import hemohopf
import refvals as rv
from hemohopf import ddesim, hopf, linstab, model

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(hemohopf.__file__)))

_NUMPY_FREE = r"""
import sys

group, csv_path = sys.argv[1:3]
# the loader of the compiled step loop is imported by the first integration
forbidden = ("numpy", "dataclasses", "inspect") + (
    ("ctypes", "subprocess") if group == "analytic" else ())


def check(step):
    for name in forbidden:
        assert name not in sys.modules, f"{name} imported by {step}"


import hemohopf
check("import hemohopf")
from hemohopf import cli
check("import hemohopf.cli")
for cfg in sys.argv[3:]:
    commands = {
        "analytic": (
            ["equilibria", cfg],
            ["stability", cfg],
            ["stability", cfg, "--r-grid", "0.3", "0.4", "5", "-o", csv_path],
            ["hopf", cfg],
            ["normal-form", cfg],
        ),
        "simulation": (
            ["simulate", cfg, "--r", "0.36", "--t-end", "40", "-o", csv_path],
            ["sweep", cfg, "--r-grid", "0.35", "0.36", "2", "--t-end", "40", "-o", csv_path],
            ["scaling", cfg],
        ),
    }[group]
    for argv in commands:
        assert cli.main(argv) == 0, argv
        check(" ".join(argv))
print("numpy-free")
"""


def _write_config(path, **anchor):
    values = {"beta0": rv.BETA0, "n": rv.N, "delta": rv.DELTA, **anchor}
    path.write_text("".join(f"{key} = {val!r}\n" for key, val in values.items()))
    return str(path)


def _run_numpy_free(tmp_path, group):
    k_cfg = _write_config(tmp_path / "k.cfg", k=rv.K, r=rv.R_REF)
    gamma_cfg = _write_config(tmp_path / "gamma.cfg", gamma=rv.GAMMA_REF, r=rv.R_REF)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    argv = [group, str(tmp_path / "out.csv"), k_cfg, gamma_cfg]
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE, *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("numpy-free\n")


def test_analytic_commands_never_import_numpy(tmp_path):
    _run_numpy_free(tmp_path, "analytic")


def test_simulation_commands_never_import_numpy(tmp_path):
    _run_numpy_free(tmp_path, "simulation")


def test_simulation_keeps_numpy_arrays_and_csv_format(tmp_path):
    params = model.ModelParameters.from_gamma(
        rv.BETA0, rv.N, rv.DELTA, rv.GAMMA_REF, 0.36)
    traj = ddesim.integrate(params, ddesim.default_history(0.36), 20.0)
    for values in (traj.t, traj.x, traj.dx):
        assert isinstance(values, array) and values.typecode == "d"
    for stride in (1, 7):
        path = tmp_path / f"traj{stride}.csv"
        written = ddesim.write_trajectory_csv(traj, path, stride=stride)
        # reference: the row-by-row writer
        rows = range(0, len(traj.t), stride)
        assert written == len(rows)
        expected = "t,x\n" + "".join(f"{traj.t[i]:.17g},{traj.x[i]:.17g}\n" for i in rows)
        assert path.read_bytes() == expected.encode()


def test_ddesim_imports_only_model_and_errors_from_the_package():
    with open(ddesim.__file__) as fh:
        tree = ast.parse(fh.read())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "hemohopf"
                                                 or node.module.startswith("hemohopf.")):
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            package.update(alias.name for alias in node.names
                           if alias.name.split(".")[0] == "hemohopf")
    assert package == {".model", ".errors"}


def test_package_exports_match_the_modules_all():
    modules = (model, linstab, hopf, ddesim)
    listed = set()
    for module in modules:
        for name in module.__all__:
            assert getattr(hemohopf, name, None) is getattr(module, name), name
        listed.update(module.__all__)
    public = {name for name, value in vars(hemohopf).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= listed, public - listed
