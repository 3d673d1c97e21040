"""numpy stays off the analytic path.

Equilibria, stability, the Hopf point and the normal form are scalar real
and complex arithmetic, so importing the package and running those
commands must not import numpy; only simulation builds arrays.  The
import checks run in a fresh interpreter, because the test modules
import numpy themselves.
"""

import os
import subprocess
import sys

import numpy as np

import hemohopf
import refvals as rv
from hemohopf import ddesim, model

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(hemohopf.__file__)))

_NUMPY_FREE = r"""
import sys


def check(step):
    assert "numpy" not in sys.modules, f"numpy imported by {step}"


import hemohopf
check("import hemohopf")
from hemohopf import cli
check("import hemohopf.cli")
csv_path = sys.argv[1]
for cfg in sys.argv[2:]:
    for argv in (
        ["equilibria", cfg],
        ["stability", cfg],
        ["stability", cfg, "--r-grid", "0.3", "0.4", "5", "-o", csv_path],
        ["hopf", cfg],
        ["normal-form", cfg],
    ):
        assert cli.main(argv) == 0, argv
        check(" ".join(argv))
print("numpy-free")
"""


def _write_config(path, **anchor):
    values = {"beta0": rv.BETA0, "n": rv.N, "delta": rv.DELTA, **anchor}
    path.write_text("".join(f"{key} = {val!r}\n" for key, val in values.items()))
    return str(path)


def test_analytic_commands_never_import_numpy(tmp_path):
    k_cfg = _write_config(tmp_path / "k.cfg", k=rv.K, r=rv.R_REF)
    gamma_cfg = _write_config(tmp_path / "gamma.cfg", gamma=rv.GAMMA_REF, r=rv.R_REF)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    argv = [str(tmp_path / "stab.csv"), k_cfg, gamma_cfg]
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE, *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("numpy-free\n")


def test_simulation_keeps_numpy_arrays_and_csv_format(tmp_path):
    params = model.ModelParameters.from_gamma(
        rv.BETA0, rv.N, rv.DELTA, rv.GAMMA_REF, 0.36)
    traj = ddesim.integrate(params, ddesim.default_history(0.36), 20.0)
    for values in (traj.t, traj.x, traj.dx):
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
    for stride in (1, 7):
        path = tmp_path / f"traj{stride}.csv"
        ddesim.write_trajectory_csv(traj, path, stride=stride)
        # reference: the row-by-row writer over numpy scalars
        rows = range(0, len(traj.t), stride)
        expected = "t,x\n" + "".join(f"{traj.t[i]:.17g},{traj.x[i]:.17g}\n" for i in rows)
        assert path.read_bytes() == expected.encode()
