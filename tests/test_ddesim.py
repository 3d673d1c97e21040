import csv
import math

import numpy as np
import pytest

import refvals as rv
from hemohopf import ddesim, hopf, linstab, model
from hemohopf.errors import BlowUpError, InconclusiveError, ParameterError


# ------------------------------------------------------------------ integrate


def test_constant_history_is_fixed_point(ref_params):
    params = ref_params.with_r(0.35)
    x2 = model.equilibria(params).x2
    traj = ddesim.integrate(params, ddesim.constant_history(x2), 100.0, 100)
    assert np.max(np.abs(np.asarray(traj.x) - x2)) < 1e-8


def _five_evaluation_rk4(params, history, t_end, m):
    """Reference integrator: the plain RK4 loop that calls the full
    right-hand side at every stage, with t from numpy.arange."""
    r = params.r
    n_steps = ddesim.step_count(r, t_end, m)
    beta0, n, delta, k = params.beta0, params.n, params.delta, params.k
    kb0 = k * beta0
    h = r / m
    phi = history.evaluator

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


@pytest.mark.parametrize("r, m, t_end, history", [
    (0.35, 50, 60.0, "default"),
    (0.36, 7, 60.0, "default"),
    (0.36, 200, 20.0, "default"),
    (0.3579, 13, 40.0, "constant"),
    (0.401, 50, 20.0, "jump"),
])
def test_integrate_matches_the_five_evaluation_loop_bit_for_bit(ref_params, r, m,
                                                                 t_end, history):
    params = ref_params.with_r(r)
    if history == "default":
        hist = ddesim.default_history(r)
    elif history == "constant":
        hist = ddesim.constant_history(0.9)
    else:
        # At r = 0.401, m = 50 the product m * (r / m) is not r: step 0 must
        # read its delayed state at -m h, the stored x'(0) reads it at -r.
        h = r / m
        assert -m * h != -r
        hist = ddesim.HistoryFunction(lambda s: 1.0 if s == -r else 0.5, "jump at -r")
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


def test_non_finite_history_raises_blow_up(ref_params):
    params = ref_params.with_r(0.35)
    bad = ddesim.HistoryFunction(lambda s: float("nan"), "nan history")
    with pytest.raises(BlowUpError):
        ddesim.integrate(params, bad, 5.0)


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
    root = linstab.char_root_newton(1j * ref_hopf.omega_star, triple)
    assert abs(metrics.period - 2.0 * math.pi / root.imag) < 0.05 * metrics.period


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
        assert metrics.amplitude == 0.5 * (float(np.mean(ref_max_h))
                                           - float(np.mean(ref_min_h)))
        if metrics.kind == ddesim.KIND_CYCLE:
            assert metrics.period == float(np.mean(np.diff(ref_max_t)))


def test_mean_sums_in_numpy_order():
    rng = np.random.default_rng(4)
    for size in list(range(1, 140)) + [255, 256, 257, 1000, 4099]:
        values = rng.uniform(0.3, 0.5, size)
        assert ddesim._mean(values.tolist()) == float(np.mean(values))


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
    ratio = ddesim.amplitude_scaling(ref_params, ref_hopf, 2e-3)
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
    traj = ddesim.integrate(params, ddesim.constant_history(x2), 40.0, 100)
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
    hist = ddesim.HistoryFunction(
        lambda s: x2 + eps * math.cos(math.pi * s / (2.0 * 0.35)),
        "equilibrium plus small ripple",
    )
    traj = ddesim.integrate(params, hist, 80.0, 200)
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
    ratio = ddesim.amplitude_scaling(ref_params, ref_hopf, 5e-4)
    assert 1.6 <= ratio <= 2.4
    assert abs(ratio - rv.RATIO_5E4_2E3) < 0.02


def test_amplitude_scaling_inconclusive_below_crossing(ref_params, ref_hopf):
    with pytest.raises(InconclusiveError):
        ddesim.amplitude_scaling(ref_params, ref_hopf, -2e-3, t_end=120.0)


def test_amplitude_scaling_probe_window_checked(ref_params, ref_hopf):
    with pytest.raises(ParameterError):
        ddesim.amplitude_scaling(ref_params, ref_hopf, 0.05)
    with pytest.raises(ParameterError):
        ddesim.amplitude_scaling(ref_params, ref_hopf, 0.0)


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


def test_trajectory_csv_stride(tmp_path, ref_params):
    params = ref_params.with_r(0.35)
    traj = ddesim.integrate(params, ddesim.default_history(0.35), 3.0, 50)
    out = tmp_path / "traj.csv"
    ddesim.write_trajectory_csv(traj, out, stride=7)
    with open(out) as fh:
        n_rows = sum(1 for _ in fh) - 1
    assert n_rows == len(range(0, len(traj.t), 7))
