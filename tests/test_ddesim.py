import csv
import io
import math
import os
import random
import shutil
import struct
import subprocess
import sys
import threading
from array import array
from fractions import Fraction

import numpy as np
import pytest

import refvals as rv
from hemohopf import cli, ddesim, hopf, linstab, model
from hemohopf.errors import BlowUpError, InconclusiveError, ParameterError


# ------------------------------------------------------------------ integrate


def _both_loops(argnames, cases):
    """Parametrize over `cases` (each a pytest.param with an id) on the step
    loop `integrate` selects, under the case's id, and again with the Python
    loop forced, under the id suffixed "-python"."""
    return pytest.mark.parametrize(f"{argnames}, loop", [
        pytest.param(*case.values, loop, id=case.id + suffix)
        for case in cases for loop, suffix in (("selected", ""), ("python", "-python"))
    ])


def _use_loop(monkeypatch, loop):
    # the Python loops are forced through the loader, which integrate asks for its loop
    if loop == "python":
        monkeypatch.setattr(ddesim, "_kernel", lambda: ddesim._PYTHON_KERNEL)


def test_constant_history_is_fixed_point(ref_params):
    params = ref_params.with_r(0.35)
    x2 = model.equilibria(params).x2
    traj = ddesim.integrate(params, lambda s: x2, 100.0, 100)
    assert np.max(np.abs(np.asarray(traj.x) - x2)) < 1e-8


def _five_evaluation_rk4(params, history, t_end, m):
    """Reference integrator: the plain RK4 loop that calls the full
    right-hand side at every stage, with t from numpy.arange."""
    r = params.r
    n_steps = ddesim.step_count(r, t_end, m)
    beta0, n, delta, k = params.beta0, params.n, params.delta, params.k
    kb0 = k * beta0
    h = r / m
    phi = history

    def rhs(x, xd):
        xn = x**n if x > 0.0 else 0.0
        xdn = xd**n if xd > 0.0 else 0.0
        return -(beta0 / (1.0 + xn) + delta) * x + kb0 * xd / (1.0 + xdn)

    xs = [float(phi(0.0))]
    dxs = [rhs(xs[0], float(phi(-r)))]
    for i in range(n_steps):
        xi = xs[i]
        j = i - m
        d_start = xs[j] if j >= 0 else phi(j * h)
        if j >= 0:
            d_mid = 0.5 * (xs[j] + xs[j + 1]) + 0.125 * h * (dxs[j] - dxs[j + 1])
        else:
            d_mid = phi((j + 0.5) * h)
        d_end = xs[j + 1] if j + 1 >= 0 else phi((j + 1) * h)
        k1 = rhs(xi, d_start)
        k2 = rhs(xi + 0.5 * h * k1, d_mid)
        k3 = rhs(xi + 0.5 * h * k2, d_mid)
        k4 = rhs(xi + h * k3, d_end)
        x_new = xi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs.append(x_new)
        dxs.append(rhs(x_new, d_end))
    return (np.arange(n_steps + 1, dtype=float) * h).tolist(), xs, dxs


@_both_loops("r, m, t_end, history", [
    pytest.param(0.35, 50, 60.0, "default", id="0.35-50-60.0-default"),
    pytest.param(0.36, 7, 60.0, "default", id="0.36-7-60.0-default"),
    pytest.param(0.36, 200, 20.0, "default", id="0.36-200-20.0-default"),
    pytest.param(0.3579, 13, 40.0, "constant", id="0.3579-13-40.0-constant"),
    pytest.param(0.401, 50, 20.0, "jump", id="0.401-50-20.0-jump"),
])
def test_integrate_matches_the_five_evaluation_loop_bit_for_bit(ref_params, monkeypatch, r,
                                                                 m, t_end, history, loop):
    _use_loop(monkeypatch, loop)
    params = ref_params.with_r(r)
    if history == "default":
        hist = ddesim.default_history(r)
    elif history == "constant":
        hist = lambda s: 0.9
    else:
        # At r = 0.401, m = 50 the product m * (r / m) is not r: step 0 must
        # read its delayed state at -m h, the stored x'(0) reads it at -r.
        h = r / m
        assert -m * h != -r
        hist = lambda s: 1.0 if s == -r else 0.5
    traj = ddesim.integrate(params, hist, t_end, m)
    t, x, dx = _five_evaluation_rk4(params, hist, t_end, m)
    assert traj.t.tolist() == t
    assert traj.x.tolist() == x
    assert traj.dx.tolist() == dx


def test_grid_alignment_and_span(ref_params):
    params = ref_params.with_r(0.35)
    traj = ddesim.integrate(params, ddesim.default_history(0.35), 10.0, 50)
    assert traj.step == 0.35 / 50
    assert traj.t[0] == 0.0
    assert traj.t[-1] >= 10.0
    assert np.all(np.diff(traj.t) > 0)
    assert np.all(np.isfinite(traj.x))


def test_integrate_validates_inputs(ref_params):
    params = ref_params.with_r(0.35)
    hist = ddesim.default_history(0.35)
    with pytest.raises(ParameterError):
        ddesim.integrate(params.with_r(0.0), hist, 10.0)
    with pytest.raises(ParameterError):
        ddesim.integrate(params, hist, -1.0)
    with pytest.raises(ParameterError):
        ddesim.integrate(params, hist, 10.0, steps_per_delay=0)
    with pytest.raises(ParameterError):
        ddesim.integrate(params, hist, math.nan)


def test_integrate_refuses_runs_above_the_step_cap(ref_params, monkeypatch):
    params = ref_params.with_r(0.35)
    hist = ddesim.default_history(0.35)
    # refused before the first step, so these cost nothing
    for t_end, steps_per_delay in ((1e12, 200), (math.inf, 200), (200.0, 10**9)):
        with pytest.raises(ParameterError, match="MAX_STEPS"):
            ddesim.integrate(params, hist, t_end, steps_per_delay)
    # the cap is inclusive
    h = 0.35 / 50
    monkeypatch.setattr(ddesim, "MAX_STEPS", 10)
    assert len(ddesim.integrate(params, hist, 10 * h, 50).t) == 11
    with pytest.raises(ParameterError, match="MAX_STEPS"):
        ddesim.integrate(params, hist, 11 * h, 50)


@pytest.mark.parametrize("t_end", [1e-12, 1e-300])
def test_a_t_end_inside_the_first_step_takes_one_step(ref_params, t_end):
    # t_end / h lies below the slack that keeps ceil off a rounding error
    assert ddesim.step_count(0.36, t_end) == 1
    traj = ddesim.integrate(ref_params.with_r(0.36), ddesim.default_history(0.36), t_end)
    assert len(traj.t) == 2 and traj.t[-1] >= t_end


def test_non_finite_history_raises_blow_up(ref_params):
    params = ref_params.with_r(0.35)
    with pytest.raises(BlowUpError):
        ddesim.integrate(params, lambda s: float("nan"), 5.0)


# k = 0.564, r = 32.59: RK4 is unstable at h delta = 4.8 and x^18.29 overflows
# while |x| is still far below 1e100; likewise x^12 at two steps per delay.
# At n = 2 the state grows 5-fold a step, unstable at h delta = 3.5, and
# leaves [-1e100, 1e100] before x^2 overflows.
@_both_loops("params, history, steps_per_delay, t_fail", [
    pytest.param(model.ModelParameters.from_k(25.79, 18.29, 7.36, 0.564, 32.59),
                 ddesim.default_history(32.59), 50, 7 * 32.59 / 50, id="k"),
    pytest.param(model.ModelParameters.from_gamma(1.77, 12.0, 5.0, 0.1, 10.0),
                 ddesim.default_history(10.0), 2, 30.0, id="gamma"),
    pytest.param(model.ModelParameters.from_gamma(1.77, 12.0, 0.05, 1.0, 0.3),
                 lambda s: 1e200, 50, 0.0, id="history"),
    pytest.param(model.ModelParameters.from_gamma(1.77, 2.0, 5.0, 0.1, 1.4),
                 ddesim.default_history(1.4), 2, 139 * 1.4 / 2, id="state"),
])
def test_power_overflow_raises_blow_up_with_its_time(monkeypatch, params, history,
                                                     steps_per_delay, t_fail, loop):
    _use_loop(monkeypatch, loop)
    with pytest.raises(BlowUpError, match="state blew up at t = ") as err:
        ddesim.integrate(params, history, 200.0, steps_per_delay)
    assert err.value.time == pytest.approx(t_fail, rel=1e-12)


def test_compiled_and_python_loops_agree_bit_for_bit_on_frontier_draws(monkeypatch):
    # frontier-box draws at random delays, some far past RK4's stability
    # limit, from the reference history, a negative one or a large one
    compiled = ddesim._kernel()
    if compiled.library is None:
        pytest.skip("the compiled loop is not available: no cc, or its build failed")
    rng = random.Random(30)
    finished = blown_up = 0
    for _ in range(200):
        n, beta0 = rng.uniform(2.0, 20.0), rng.uniform(0.5, 3.0)
        delta, k = rng.uniform(0.01, 0.3), rng.uniform(1.0, 2.0)
        r = 10.0 ** rng.uniform(-2.0, 2.0)
        m = rng.choice((1, 3, 7, 50, 64))
        params = model.ModelParameters.from_k(beta0, n, delta, k, r)
        t_end = rng.randint(10, 2000) * (r / m)
        low, high = -rng.uniform(0.0, 2.0), 10.0 ** rng.uniform(0.0, 20.0)
        history = rng.choice((ddesim.default_history(r), lambda s: low, lambda s: high))
        results = []
        for kernel in (compiled, ddesim._PYTHON_KERNEL):
            monkeypatch.setattr(ddesim, "_kernel", lambda kernel=kernel: kernel)
            try:
                traj = ddesim.integrate(params, history, t_end, m)
            except BlowUpError as exc:
                results.append((exc.time, str(exc)))
            else:
                results.append((traj.t.tobytes(), traj.x.tobytes(), traj.dx.tobytes()))
        assert results[0] == results[1], (params, m, t_end)
        finished += len(results[0]) == 3
        blown_up += len(results[0]) == 2 and results[0][0] > 0.0  # inside the loop
    assert finished > 100 and blown_up >= 10


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_compiled_loop_is_built_and_selected_with_a_compiler(tmp_path):
    kernel = ddesim._load_kernel(str(tmp_path / "cache"))
    assert kernel is not None and kernel.step_loop is not ddesim._python_loop
    # one library named by its source, and no temporary file left behind
    (lib,) = (tmp_path / "cache").iterdir()
    assert lib.name.startswith("_kernel-") and lib.suffix == ".so"
    assert kernel.library == str(lib)
    assert ddesim._load_kernel(str(tmp_path / "cache")) is not None  # loads the cached build
    assert ddesim._kernel().library is not None


def _simulation_runs(tmp_path, capfd, name):
    """Exit code, stdout, stderr and output bytes of a short simulate, of scaling
    and of a 2-row sweep on the reference gamma config."""
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text(f"beta0 = {rv.BETA0}\nn = {rv.N}\ndelta = {rv.DELTA}\n"
                   f"gamma = {rv.GAMMA_REF}\nr = 0.36\n")
    results = []
    for argv in (["simulate", "--r", "0.36", "--t-end", "40", "-o", "OUT"],
                 ["scaling", "--t-end", "120"],
                 ["sweep", "--r-grid", "0.35", "0.36", "2", "--t-end", "40", "-o", "OUT"]):
        out_path = tmp_path / f"{name}-{argv[0]}.csv"
        code = cli.main([argv[0], str(cfg)] + [str(out_path) if a == "OUT" else a
                                               for a in argv[1:]])
        out, err = capfd.readouterr()
        written = out_path.read_bytes() if out_path.exists() else None
        results.append((code, out.replace(str(out_path), "OUT"), err, written))
    return results


@pytest.mark.parametrize("failure", ["no-compiler", "unwritable-cache", "probe-mismatch"])
def test_failed_build_falls_back_to_the_same_bytes(tmp_path, monkeypatch, capfd, failure):
    selected = _simulation_runs(tmp_path, capfd, "selected")
    cache = tmp_path / "cache"
    if failure == "no-compiler":
        monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
    elif failure == "unwritable-cache":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"  # a file in its path: cannot be created
    else:
        # one probe that tells the compiled rows from the Python ones
        monkeypatch.setattr(ddesim, "_probe_rows", lambda rows: rows is ddesim._python_rows)
    monkeypatch.setattr(ddesim, "_CACHE_DIR", str(cache))
    monkeypatch.setattr(ddesim, "_active", None)
    fallback = _simulation_runs(tmp_path, capfd, "fallback")
    assert ddesim._active is ddesim._PYTHON_KERNEL
    assert fallback == selected
    assert [code for code, *_ in fallback] == [0, 0, 0]
    assert all(err == "" for _, _, err, _ in fallback)
    assert cache.exists() == (failure == "probe-mismatch")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("probe", ["_probe_loop", "_probe_rows"])
def test_any_probe_mismatch_falls_back_to_python_for_both(tmp_path, monkeypatch, probe):
    python_functions = set(ddesim._PYTHON_KERNEL[:2])
    monkeypatch.setattr(ddesim, probe, lambda fn: fn in python_functions)
    assert ddesim._load_kernel(str(tmp_path / "cache")) is None
    monkeypatch.setattr(ddesim, "_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(ddesim, "_active", None)
    assert ddesim._kernel() is ddesim._PYTHON_KERNEL


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_concurrent_first_calls_select_one_compiled_kernel(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setattr(ddesim, "_CACHE_DIR", str(cache))
    monkeypatch.setattr(ddesim, "_active", None)
    barrier = threading.Barrier(4, timeout=60)
    kernels = []

    def first_call():
        barrier.wait()
        kernels.append(ddesim._kernel())

    # more threads than cores, switching often
    threads = [threading.Thread(target=first_call) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(kernels) == 4 and all(kernel is ddesim._active for kernel in kernels)
    # one build, which every thread loaded
    (lib,) = cache.iterdir()
    assert ddesim._active.library == str(lib)


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernel, built into a fresh cache without its load-time probes,
    so that the tests below check the C functions themselves."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    with pytest.MonkeyPatch.context() as mp:
        for probe in ("_probe_loop", "_probe_rows"):
            mp.setattr(ddesim, probe, lambda fn: None)
        kernel = ddesim._load_kernel(str(tmp_path_factory.mktemp("kernel")))
    assert kernel is not None
    return kernel


def _rows_bytes(write_rows, t, x):
    fh = io.BytesIO()
    write_rows(fh, array("d", t), array("d", x))
    return fh.getvalue()


def test_compiled_rows_are_the_percent_17g_rows_on_the_whole_float_range(compiled):
    rng = random.Random(33)
    values = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
              for _ in range(120_000)]
    values = [v for v in values if math.isfinite(v)]  # about 0.05% are not
    values += [rng.uniform(-200.0, 200.0) for _ in range(40_000)]
    values += [math.ldexp(rng.random(), rng.randint(-80, 80)) for _ in range(40_000)]
    # halves of 17-digit integers: the 18th digit is a 5, a tie for half-even
    values += [(rng.randint(10**15, 9 * 10**15) + 0.5) / 2 ** rng.randint(0, 40)
               for _ in range(20_000)]
    edges = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1e-5, 1e-4, 1e16, 1e17, 1.0 / 3.0, 1e100, -1e100, 1.7976931348623157e308]
    for e in range(-25, 26):
        p = 10.0 ** e
        edges += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    values += edges + [-v for v in edges]
    assert len(values) > 200_000
    t, x = values, values[::-1]
    expected = "".join("%.17g,%.17g\n" % row for row in zip(t, x)).encode()
    assert _rows_bytes(compiled.write_rows, t, x) == expected
    assert _rows_bytes(ddesim._python_rows, t, x) == expected
    # columns that end on either side of the edges of the writers' blocks
    for rows in (0, 1, 1023, 1024, 1025, 2048):
        assert ddesim._CSV_CHUNK_ROWS == 1024
        expected = "".join("%.17g,%.17g\n" % row for row in zip(t[:rows], x[:rows])).encode()
        assert _rows_bytes(compiled.write_rows, t[:rows], x[:rows]) == expected
        assert _rows_bytes(ddesim._python_rows, t[:rows], x[:rows]) == expected


def test_compiled_rows_write_nan_and_inf_as_python_does(compiled):
    t = [math.nan, -math.nan, math.inf, -math.inf]
    assert _rows_bytes(compiled.write_rows, t, t) == _rows_bytes(ddesim._python_rows, t, t)
    assert _rows_bytes(compiled.write_rows, t, t) == b"nan,nan\nnan,nan\ninf,inf\n-inf,-inf\n"


# 2**63 and 2**64 + 1 do not fit an int64: had the stride reached a ctypes
# argument, it would have passed their low 64 bits, a negative stride and 1
@pytest.mark.parametrize("stride", [1, 7, 100, 10**6, 2**63, 2**64 + 1])
def test_trajectory_csv_is_the_same_on_both_paths(tmp_path, monkeypatch, compiled, traj_036,
                                                  stride):
    rows = len(range(0, len(traj_036.t), stride))
    if stride > len(traj_036.t):
        assert rows == 1
    files = []
    for kernel in (compiled, ddesim._PYTHON_KERNEL):
        monkeypatch.setattr(ddesim, "_kernel", lambda kernel=kernel: kernel)
        path = tmp_path / f"{len(files)}.csv"
        assert ddesim.write_trajectory_csv(traj_036, path, stride=stride) == rows
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert files[0].count(b"\n") == rows + 1


def test_simulate_with_a_stride_past_int64_writes_one_row(tmp_path, monkeypatch, capfd,
                                                         compiled):
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text(f"beta0 = {rv.BETA0}\nn = {rv.N}\ndelta = {rv.DELTA}\n"
                   f"gamma = {rv.GAMMA_REF}\nr = 0.36\n")
    files = []
    for kernel in (compiled, ddesim._PYTHON_KERNEL):
        monkeypatch.setattr(ddesim, "_kernel", lambda kernel=kernel: kernel)
        path = tmp_path / f"{len(files)}.csv"
        assert cli.main(["simulate", str(cfg), "--t-end", "40", "--stride",
                         str(2**64 + 1), "-o", str(path)]) == 0
        assert "wrote 1 rows to" in capfd.readouterr().out
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert files[0].startswith(b"t,x\n0,") and files[0].count(b"\n") == 2


def test_kernel_module_says_which_kernel_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddesim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "hemohopf.kernel"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    library = ddesim._kernel().library
    assert done.stdout == (f"compiled {library}\n" if library else "python\n")


def test_trajectory_interpolation_consistency(ref_params):
    params = ref_params.with_r(0.35)
    traj = ddesim.integrate(params, ddesim.default_history(0.35), 5.0, 50)
    for idx in (0, 10, len(traj.t) - 1):
        assert traj.at(float(traj.t[idx])) == traj.x[idx]
    # interpolated midpoint agrees with a doubled-resolution run to the
    # interpolation's own fourth-order accuracy at this coarse step
    fine = ddesim.integrate(params, ddesim.default_history(0.35), 5.0, 100)
    mid_time = float(traj.t[40]) + 0.5 * traj.step
    assert abs(traj.at(mid_time) - fine.x[81]) < 1e-7


def test_step_halving_contraction(ref_params):
    params = ref_params.with_r(0.36)
    hist = ddesim.default_history(0.36)

    def max_diff(n):
        coarse = ddesim.integrate(params, hist, 20.0, n)
        fine = ddesim.integrate(params, hist, 20.0, 2 * n)
        m = min(len(coarse.x), (len(fine.x) + 1) // 2)
        coarse_x, fine_x = np.asarray(coarse.x), np.asarray(fine.x)
        return float(np.max(np.abs(coarse_x[:m] - fine_x[::2][:m])))

    d100 = max_diff(100)
    d200 = max_diff(200)
    assert d100 / d200 >= 8.0


def test_positivity_preserved(traj_035, traj_036):
    assert float(np.asarray(traj_035.x).min()) >= -1e-9
    assert float(np.asarray(traj_036.x).min()) >= -1e-9


# -------------------------------------------------------------- orbit metrics


def test_decaying_side_classifies_equilibrium(traj_035):
    metrics = ddesim.orbit_metrics(traj_035, 0.5)
    assert metrics.kind == ddesim.KIND_EQUILIBRIUM
    assert metrics.distance_to_x2 < 1e-6
    assert metrics.period is None


def test_cycle_side_classifies_cycle(traj_036):
    metrics = ddesim.orbit_metrics(traj_036, 0.5)
    assert metrics.kind == ddesim.KIND_CYCLE
    assert 0.09 < metrics.amplitude < 0.11
    assert abs(metrics.period - rv.PERIOD_036) < 0.005 * rv.PERIOD_036


def test_cycle_period_near_onset_matches_linear_theory(ref_params, ref_hopf):
    # just past the crossing the cycle period approaches the root frequency
    r = ref_hopf.r_star + 1e-3
    params = ref_params.with_r(r)
    traj = ddesim.integrate(params, ddesim.default_history(r), 400.0, 200)
    metrics = ddesim.orbit_metrics(traj, 0.5)
    assert metrics.kind == ddesim.KIND_CYCLE
    triple = linstab.characteristic_triple(params)
    root = linstab.rightmost_root(triple)
    assert abs(metrics.period - 2.0 * math.pi / root.imag) < 0.05 * metrics.period


@pytest.mark.parametrize("r, t_end, period", [
    (0.43, 2000.0, 11.53986),
    (0.443, 3000.0, 29.4392),
])
def test_cycle_with_several_maxima_per_period(ref_params, r, t_end, period):
    # the tail's maxima alternate tall and short (1.4243 / 0.7215 at r = 0.43),
    # so their full spread is wide, but every other one repeats; the periods
    # are those of a Fourier harmonic-balance solution of the cycle
    traj = ddesim.integrate(ref_params.with_r(r), ddesim.default_history(r), t_end)
    metrics = ddesim.orbit_metrics(traj, 0.5)
    assert metrics.kind == ddesim.KIND_CYCLE
    assert abs(metrics.period - period) < 1e-5 * period
    start = len(traj.t) // 2
    (_, max_h), _ = ddesim._hermite_extrema(traj.t[start:], traj.x[start:],
                                            traj.dx[start:], traj.step)
    assert (max(max_h) - min(max_h)) / metrics.amplitude > ddesim.CYCLE_SPREAD_TOL
    assert abs(max_h[0] - max_h[2]) < abs(max_h[0] - max_h[1])


def test_hermite_extrema_of_an_analytic_trajectory(ref_params):
    # x = cos(w t) with its exact derivative; the extrema sit at k pi / w
    w, h = 1.7, 0.01
    t = np.arange(3001) * h
    x, dx = np.cos(w * t), -w * np.sin(w * t)
    (max_t, max_h), (min_t, min_h) = ddesim._hermite_extrema(t, x, dx, h)
    assert len(max_t) == len(min_t) == 8
    for times, heights, parity, height in ((max_t, max_h, 0, 1.0),
                                           (min_t, min_h, 1, -1.0)):
        times, heights = np.asarray(times), np.asarray(heights)
        k = np.round(times * w / math.pi)
        assert np.all(k % 2 == parity)
        assert np.max(np.abs(times - k * math.pi / w)) < 1e-7
        assert np.max(np.abs(heights - height)) < 1e-9


def _numpy_hermite_extrema(t, x, dx, h):
    """Reference: the same extrema search vectorised with numpy."""
    t, x, dx = np.asarray(t), np.asarray(x), np.asarray(dx)
    d0, d1 = dx[:-1], dx[1:]
    j = np.flatnonzero(((d0 > 0.0) & (d1 <= 0.0)) | ((d0 < 0.0) & (d1 >= 0.0)))
    x0, x1, a0, a1 = x[j], x[j + 1], h * dx[j], h * dx[j + 1]
    a = 3.0 * (a0 + a1) - 6.0 * (x1 - x0)
    b = 6.0 * (x1 - x0) - 4.0 * a0 - 2.0 * a1
    disc = np.sqrt(np.maximum(b * b - 4.0 * a * a0, 0.0))
    q = -0.5 * (b + np.copysign(disc, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        s_near, s_far = a0 / q, q / a
    s = np.clip(np.where((s_near >= 0.0) & (s_near <= 1.0), s_near, s_far), 0.0, 1.0)
    times = t[j] + s * h
    heights = ddesim._hermite(s, x0, x1, a0, a1)
    is_max = a0 > 0.0
    return (times[is_max], heights[is_max]), (times[~is_max], heights[~is_max])


def test_extrema_and_metrics_match_the_numpy_reference(ref_params, traj_035, traj_036):
    default_036 = ddesim.integrate(ref_params.with_r(0.36), ddesim.default_history(0.36),
                                   200.0)
    for traj in (traj_035, traj_036, default_036):
        start = len(traj.t) // 2
        args = (traj.t[start:], traj.x[start:], traj.dx[start:], traj.step)
        (max_t, max_h), (min_t, min_h) = ddesim._hermite_extrema(*args)
        (ref_max_t, ref_max_h), (ref_min_t, ref_min_h) = _numpy_hermite_extrema(*args)
        assert max_t == ref_max_t.tolist() and max_h == ref_max_h.tolist()
        assert min_t == ref_min_t.tolist() and min_h == ref_min_h.tolist()
        metrics = ddesim.orbit_metrics(traj, 0.5)

        def fsum_mean(values):
            return math.fsum(values.tolist()) / len(values)

        assert metrics.amplitude == 0.5 * (fsum_mean(ref_max_h) - fsum_mean(ref_min_h))
        if metrics.kind == ddesim.KIND_CYCLE:
            assert metrics.period == fsum_mean(np.diff(ref_max_t))


def test_mean_is_the_exact_mean_to_one_and_a_half_ulp():
    # one rounding of the exact sum by fsum, one of the division
    rng = np.random.default_rng(4)
    for size in list(range(1, 140)) + [255, 256, 257, 1000, 4099]:
        values = rng.uniform(0.3, 0.5, size).tolist()
        mean = ddesim._mean(values)
        exact = sum(map(Fraction, values)) / size
        assert abs(Fraction(mean) - exact) <= Fraction(3, 2) * Fraction(math.ulp(mean))
    assert math.isnan(ddesim._mean([]))


def _quoted_tolerance(value):
    """Half a unit in the last decimal place of a quoted reference value."""
    return 0.5 * 10.0 ** -len(repr(value).split(".")[1])


def test_default_step_budget_holds_the_quoted_digits(ref_params, ref_hopf, monkeypatch):
    params = ref_params.with_r(0.36)
    traj = ddesim.integrate(params, ddesim.default_history(0.36), 200.0)
    assert traj.step == 0.36 / ddesim.STEPS_PER_DELAY
    period = ddesim.orbit_metrics(traj, 0.5).period
    assert abs(period - rv.PERIOD_036) < _quoted_tolerance(rv.PERIOD_036)

    # record the probe amplitudes that amplitude_scaling divides
    amps = []
    orbit_metrics = ddesim.orbit_metrics

    def recording(*args):
        metrics = orbit_metrics(*args)
        amps.append(metrics.amplitude)
        return metrics

    monkeypatch.setattr(ddesim, "orbit_metrics", recording)
    ratio = ddesim.amplitude_scaling(ref_params, ref_hopf.r_star, 2e-3)
    assert ratio == amps[1] / amps[0]
    for value, ref in ((amps[0], rv.AMP_2E3), (amps[1], rv.AMP_8E3),
                       (ratio, rv.RATIO_2E3_8E3)):
        assert abs(value - ref) < _quoted_tolerance(ref)


def test_period_at_100_steps_matches_the_200_step_fixture(ref_params, traj_036):
    params = ref_params.with_r(0.36)
    coarse = ddesim.integrate(params, ddesim.default_history(0.36), 200.0, 100)
    period = ddesim.orbit_metrics(coarse, 0.5).period
    assert abs(period - ddesim.orbit_metrics(traj_036, 0.5).period) < 1e-8


def test_constant_trajectory_metrics(ref_params):
    params = ref_params.with_r(0.35)
    x2 = model.equilibria(params).x2
    traj = ddesim.integrate(params, lambda s: x2, 40.0, 100)
    metrics = ddesim.orbit_metrics(traj, 0.5)
    assert metrics.kind == ddesim.KIND_EQUILIBRIUM
    assert metrics.amplitude < 1e-10
    assert metrics.period is None
    # an exactly flat derivative has no extrema at all
    flat = ddesim.Trajectory(t=traj.t, x=np.full_like(traj.x, x2),
                             dx=np.zeros_like(traj.x), step=traj.step, params=params)
    (max_t, _), (min_t, _) = ddesim._hermite_extrema(flat.t, flat.x, flat.dx, flat.step)
    assert len(max_t) == len(min_t) == 0
    assert ddesim.orbit_metrics(flat, 0.5) == ddesim.OrbitMetrics(
        ddesim.KIND_EQUILIBRIUM, 0.0, None, 0.0)


def test_distance_to_equilibrium_decreases(ref_params):
    params = ref_params.with_r(0.35)
    hist = ddesim.default_history(0.35)
    early = ddesim.orbit_metrics(ddesim.integrate(params, hist, 60.0, 200), 0.5)
    late = ddesim.orbit_metrics(ddesim.integrate(params, hist, 120.0, 200), 0.5)
    assert late.distance_to_x2 < early.distance_to_x2


def test_short_window_is_undetermined(ref_params):
    params = ref_params.with_r(0.36)
    traj = ddesim.integrate(params, ddesim.default_history(0.36), 2.0, 100)
    metrics = ddesim.orbit_metrics(traj, 0.5)
    assert metrics.kind == ddesim.KIND_UNDETERMINED


def test_metrics_validates_transient_fraction(traj_035):
    with pytest.raises(ParameterError):
        ddesim.orbit_metrics(traj_035, 1.0)


def test_linearized_decay_rate_matches_rightmost_root(ref_params):
    params = ref_params.with_r(0.35)
    x2 = model.equilibria(params).x2
    eps = 1e-4
    # equilibrium plus a small ripple
    traj = ddesim.integrate(
        params, lambda s: x2 + eps * math.cos(math.pi * s / (2.0 * 0.35)), 80.0, 200)
    t, x = np.asarray(traj.t), np.asarray(traj.x)
    mask = t >= 20.0
    tt = t[mask]
    dev = np.abs(x[mask] - x2)
    peaks = [
        (tt[i], dev[i])
        for i in range(1, len(dev) - 1)
        if dev[i] > dev[i - 1] and dev[i] >= dev[i + 1]
    ]
    times = np.array([a for a, _ in peaks])
    heights = np.array([b for _, b in peaks])
    slope = np.polyfit(times, np.log(heights), 1)[0]
    triple = linstab.characteristic_triple(params)
    rightmost = linstab.rightmost_root(triple)
    assert abs(slope - rightmost.real) < 0.1 * abs(rightmost.real)


# ---------------------------------------------------------- amplitude scaling


def test_amplitude_scaling_square_root_regime(ref_params, ref_hopf):
    # probes r* + {5e-4, 2e-3} sit inside the asymptotic regime
    ratio = ddesim.amplitude_scaling(ref_params, ref_hopf.r_star, 5e-4)
    assert 1.6 <= ratio <= 2.4
    assert abs(ratio - rv.RATIO_5E4_2E3) < 0.02


def test_amplitude_scaling_inconclusive_below_crossing(ref_params, ref_hopf):
    with pytest.raises(InconclusiveError):
        ddesim.amplitude_scaling(ref_params, ref_hopf.r_star, -2e-3, t_end=120.0)


def test_amplitude_scaling_probe_window_checked(ref_params, ref_hopf):
    with pytest.raises(ParameterError):
        ddesim.amplitude_scaling(ref_params, ref_hopf.r_star, 0.05)
    # refused by name, not as a probe that is not finite
    for delta_r in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="^delta_r must be finite and nonzero"):
            ddesim.amplitude_scaling(ref_params, ref_hopf.r_star, delta_r)
    # an offset that r* + delta_r rounds away is refused, not run at r* itself
    with pytest.raises(ParameterError, match="^delta_r = 1e-300 rounds away"):
        ddesim.amplitude_scaling(ref_params, ref_hopf.r_star, 1e-300)


# ------------------------------------------------------------------ CSV export


def test_trajectory_csv_roundtrip(tmp_path, ref_params):
    params = ref_params.with_r(0.35)
    traj = ddesim.integrate(params, ddesim.default_history(0.35), 3.0, 50)
    out = tmp_path / "traj.csv"
    ddesim.write_trajectory_csv(traj, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x"]
    assert len(rows) - 1 == len(traj.t)
    for (t_text, x_text), t_val, x_val in zip(rows[1:], traj.t, traj.x):
        assert float(t_text) == t_val
        assert float(x_text) == x_val


@pytest.mark.parametrize("stride", [1, 7])
def test_trajectory_csv_bytes_are_the_f_string_rows(tmp_path, traj_036, stride):
    # the r = 0.36 run, then values whose %-format and f-string could differ
    # in form: signed zeros, subnormals, the float limits, exponent forms
    edge = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
            1e-5, 123456789012345680.0, 0.1, -1.0 / 3.0, 1e16, 2.5]
    edge_traj = traj_036._replace(t=array("d", range(len(edge))), x=array("d", edge))
    for name, traj in (("run", traj_036), ("edge", edge_traj)):
        path = tmp_path / f"{name}.csv"
        ddesim.write_trajectory_csv(traj, path, stride=stride)
        rows = range(0, len(traj.t), stride)
        expected = "t,x\n" + "".join(f"{traj.t[i]:.17g},{traj.x[i]:.17g}\n" for i in rows)
        assert path.read_bytes() == expected.encode(), name


def test_trajectory_csv_stride(tmp_path, ref_params):
    params = ref_params.with_r(0.35)
    traj = ddesim.integrate(params, ddesim.default_history(0.35), 3.0, 50)
    out = tmp_path / "traj.csv"
    ddesim.write_trajectory_csv(traj, out, stride=7)
    with open(out) as fh:
        n_rows = sum(1 for _ in fh) - 1
    assert n_rows == len(range(0, len(traj.t), 7))
