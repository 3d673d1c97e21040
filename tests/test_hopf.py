import cmath
import math
import random
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import refvals as rv
from pairing import pairing
from test_model import taylor_at_x2
from hemohopf import ddesim, hopf, linstab, model
from hemohopf.errors import (
    BracketError,
    ConvergenceError,
    DegenerateCrossingError,
    DomainError,
    NoImaginaryCrossingError,
    NoPositiveEquilibriumError,
    NumericsError,
    ParameterError,
    ResonanceError,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

#: further Hopf points used to exercise the normal-form machinery away
#: from the benchmark set
OTHER_HOPF_ARGS = [
    (10.0, 2.0, 0.1, 1.3),
    (8.0, 3.0, 0.2, 1.25),
]


# ------------------------------------------------------------- strategy route


def test_strategy_route_reference_values(ref_hopf):
    hp = ref_hopf
    assert abs(hp.r_star - rv.R_REF) < 1e-12
    assert abs(hp.omega_star - rv.OMEGA_REF) < 1e-12
    assert abs(hp.params.gamma - rv.GAMMA_REF) < 1e-12
    assert abs(hp.p_star - rv.P_REF) < 1e-12
    assert abs(hp.q_star - rv.Q_REF) < 1e-12
    # quoted digit chain agrees only to its internal truncation level
    assert abs(hp.omega_star - rv.OMEGA_PRINT) < 5e-7
    assert abs(hp.r_star - rv.R_PRINT) < 2e-7
    assert abs(hp.params.gamma - rv.GAMMA_PRINT) < 1e-4


def test_strategy_route_residuals(ref_hopf):
    hp = ref_hopf
    # real/imaginary split of the characteristic equation at mu = 0
    wr = hp.omega_star * hp.r_star
    assert abs(hp.p_star - hp.q_star * math.cos(wr)) < 1e-10
    assert abs(hp.omega_star + hp.q_star * math.sin(wr)) < 1e-10
    assert abs(linstab.char_value(1j * hp.omega_star, hp.triple)) < 1e-10


def test_strategy_route_quarter_period_degeneration():
    # engineer B1 = -delta so that p = 0: then r* = pi/(2|q|), omega* = |q|
    beta0, n, delta = 1.77, 12.0, 0.05

    def b1_of_k(k):
        A = beta0 * (k - 1.0) / delta
        return beta0 * (n - (n - 1.0) * A) / A**2

    lo, hi = 1.0 + delta * n / ((n - 1.0) * beta0) + 1e-9, 2.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if b1_of_k(mid) > -delta:
            lo = mid
        else:
            hi = mid
    k = 0.5 * (lo + hi)
    hp = hopf.hopf_from_pqk(n, beta0, delta, k)
    assert abs(hp.p_star) < 1e-11
    assert abs(hp.omega_star - abs(hp.q_star)) < 1e-9
    assert abs(hp.r_star - math.pi / (2.0 * abs(hp.q_star))) < 1e-9


@pytest.mark.parametrize("args", OTHER_HOPF_ARGS)
def test_strategy_route_other_parameter_sets(args):
    hp = hopf.hopf_from_pqk(*args)  # construction validates the invariants
    assert abs(linstab.char_value(1j * hp.omega_star, hp.triple)) < 1e-10


def test_strategy_route_rejects_no_crossing():
    with pytest.raises(NoImaginaryCrossingError):
        hopf.hopf_from_pqk(12.0, 1.77, 0.5, 1.309)  # p > |q|
    with pytest.raises(NoImaginaryCrossingError):
        hopf.hopf_from_pqk(12.0, 1.77, 0.05, 1.0295)  # B1 > 0
    with pytest.raises(NoPositiveEquilibriumError):
        hopf.hopf_from_pqk(12.0, 1.77, 0.05, 1.0)  # x2 absent


def test_a_crossing_delay_that_overflows_is_no_missing_crossing(ref_hopf):
    # p = 0 < -q = 1e-323: a root pair crosses, omega* = 1e-323, but
    # r* = (pi/2) / omega* overflows
    with pytest.raises(NumericsError, match=r"r\* = arccos\(p/q\) / omega\* overflows "
                       r"at omega\* = 1e-323"):
        hopf.hopf_from_pqk(2.0, 1e-300, 5e-324, 1.9999999999999998)
    with pytest.raises(NumericsError, match=r"no root crosses at p=0.0, q=-1e-323 "
                       r"\(the crossing delay overflows\)"):
        hopf.HopfPoint(math.inf, 1e-323, 0.0, -1e-323, ref_hopf.params, ref_hopf.x2_star)
    with pytest.raises(NumericsError, match=r"no root crosses at p=1.0, q=-1.0 \(p >= -q\)"):
        hopf.HopfPoint(1.0, 0.0, 1.0, -1.0, ref_hopf.params, ref_hopf.x2_star)


def _pqk_input_grid():
    """(n, beta0, delta, k) around the reference inputs: non-finite, zero and
    negative values of each, n = 1, k = 2, the smallest subnormal k,
    numpy.float32 values, and inputs whose A overflows."""
    base = (rv.N, rv.BETA0, rv.DELTA, rv.K)
    grid = [base]
    for i in range(4):
        for value in (math.nan, math.inf, -math.inf, 0.0, -1.0, np.float32(base[i])):
            grid.append(base[:i] + (value,) + base[i + 1:])
    grid += [(1.0,) + base[1:], base[:3] + (2.0,), base[:3] + (5e-324,),
             (rv.N, 1e308, rv.DELTA, rv.K), (rv.N, rv.BETA0, 1e-308, 1.5),
             base[:3] + (1.0,), (12.0, 1.77, 0.5, 1.309), (12.0, 1.77, 0.05, 1.0295)]
    return grid


def _outcome(func, *args):
    try:
        return func(*args)
    except (ValueError, NumericsError) as exc:  # ParameterError is a ValueError
        return type(exc), str(exc)


@pytest.mark.parametrize("draw", _pqk_input_grid())
def test_hopf_from_pqk_refuses_as_from_k_then_by_regime(draw):
    # the inputs are checked once, as ModelParameters.from_k(..., 1.0) checks
    # them; past those checks only a regime error or a located point remains
    n, beta0, delta, k = draw
    expected = _outcome(model.ModelParameters.from_k, beta0, n, delta, k, 1.0)
    located = _outcome(hopf.hopf_from_pqk, n, beta0, delta, k)
    if not isinstance(expected, model.ModelParameters):
        assert located == expected
    elif not isinstance(located, hopf.HopfPoint):
        assert located[0] in (NoPositiveEquilibriumError, NoImaginaryCrossingError,
                              DomainError), located
    else:
        # the record built once at r* is the checked one
        assert located.params == model.ModelParameters.from_k(beta0, n, delta, k,
                                                              located.r_star)


def test_hopf_from_pqk_grid_reaches_every_stage():
    outcomes = [_outcome(hopf.hopf_from_pqk, n, beta0, delta, k)
                for n, beta0, delta, k in _pqk_input_grid()]
    errors = {o[0] for o in outcomes if not isinstance(o, hopf.HopfPoint)}
    assert {ParameterError, NoPositiveEquilibriumError,
            NoImaginaryCrossingError, DomainError} <= errors
    assert any(isinstance(o, hopf.HopfPoint) for o in outcomes)
    assert (ParameterError, "A = beta0 (k - 1)/delta must be finite, got inf") in outcomes


# ----------------------------------------------------------- frontier mismatch


def test_frontier_mismatch_vanishes_at_the_frontier_delay():
    # D(r*) = r*(k') - r* with k' = 2 exp(-gamma* r*), k re-derived from the
    # delay: exactly 0 where the round trip returns k, and otherwise the move
    # of r*(k) over one ulp of k, which its conditioning can make up to about
    # 1e2 ulps of r* (seeds 1 to 20)
    rng = random.Random(1)
    checked = 0
    while checked < 1000:
        draw = (rng.uniform(2.0, 20.0), rng.uniform(0.5, 3.0),
                rng.uniform(0.01, 0.3), rng.uniform(1.0, 2.0))
        try:
            hp = hopf.hopf_from_pqk(*draw)
        except ParameterError:
            continue  # outside the frontier box's regime A > 1, B1 < 0, |q| > |p|
        checked += 1
        mismatch = hopf.frontier_mismatch(hp.r_star, hp.params)
        k_back = hp.params.with_r(hp.r_star).k
        if k_back == draw[3]:
            assert mismatch == 0.0
        else:
            assert mismatch == hopf.hopf_from_pqk(*draw[:3], k_back).r_star - hp.r_star
        assert abs(mismatch) <= 1e-12 * hp.r_star


def test_classify_x2_window_ends_at_the_frontier_delay():
    # one closed form for the crossing: at any delay of a k config, the
    # stable window of x2 ends exactly at the strategy route's r*
    rng = random.Random(3)
    checked = 0
    while checked < 1000:
        draw = (rng.uniform(2.0, 20.0), rng.uniform(0.5, 3.0),
                rng.uniform(0.01, 0.3), rng.uniform(1.0, 2.0))
        try:
            hp = hopf.hopf_from_pqk(*draw)
        except ParameterError:
            continue
        checked += 1
        for scale in (0.25, 0.999, 1.0, 1.001, 3.0):
            verdict = linstab.classify_x2(model.ModelParameters.from_k(
                draw[1], draw[0], draw[2], draw[3], scale * hp.r_star))
            assert verdict.stable_window == (0.0, hp.r_star)
            assert verdict.omega0 == hp.omega_star
            expected = {0.25: linstab.STABLE, 0.999: linstab.STABLE, 1.0: linstab.MARGINAL,
                        1.001: linstab.UNSTABLE, 3.0: linstab.UNSTABLE}[scale]
            assert verdict.status == expected


def test_frontier_mismatch_is_infinite_off_the_frontier(ref_params):
    eq = model.equilibria(ref_params)
    assert hopf.frontier_mismatch(1.01 * eq.r_max, ref_params) == math.inf  # x2 absent
    r_q_positive = 0.5 * (eq.r_n + eq.r_max)
    assert linstab.characteristic_triple(ref_params.with_r(r_q_positive)).q > 0.0
    assert hopf.frontier_mismatch(r_q_positive, ref_params) == math.inf
    stable = model.ModelParameters.from_k(1.77, 12.0, 0.5, 1.309, 1.0)
    triple = linstab.characteristic_triple(stable)
    assert triple.p / triple.q < -1.0
    assert hopf.frontier_mismatch(1.0, stable) == math.inf


def test_frontier_mismatch_does_not_vanish_where_p_does(ref_params):
    # g vanishes wherever p = 0, since T_inv(0) = arccos(0) = pi/2; at the
    # reference p = 0 delay no crossing happens, and D = pi/(2|q|) - r = 30
    r0 = linstab.bracketed_root(
        lambda r: linstab.characteristic_triple(ref_params.with_r(r)).p, 0.44, 0.449, 0.0
    )
    assert abs(r0 - 0.4475767) < 1e-7
    assert abs(linstab.g_of_r(r0, ref_params)) < 1e-9
    assert hopf.frontier_mismatch(r0, ref_params) > 1.0


# --------------------------------------------------------------- g-root route


def test_find_hopf_r_matches_strategy(ref_hopf, ref_params):
    hp2 = hopf.find_hopf_r(ref_params, (0.30, 0.40))
    assert abs(hp2.r_star - ref_hopf.r_star) < 1e-8
    assert abs(linstab.g_of_r(hp2.r_star, ref_params)) < 1e-11


def test_find_hopf_r_with_quoted_gamma(ref_hopf):
    params = model.ModelParameters.from_gamma(
        rv.BETA0, rv.N, rv.DELTA, rv.GAMMA_PRINT, 0.35
    )
    hp = hopf.find_hopf_r(params, (0.30, 0.40))
    assert abs(hp.r_star - rv.G_ROOT_PRINT_GAMMA) < 1e-9
    assert abs(hp.r_star - ref_hopf.r_star) < 1e-6


def test_find_hopf_r_without_a_bracket_takes_the_first_crossing():
    # the point of the gamma config's `hopf` golden, to the bit
    params = model.ModelParameters.from_gamma(1.77, 12.0, 0.05, 1.48067, 0.36)
    hp = hopf.find_hopf_r(params)
    assert hp[:5] == (0.35592018752031956, 1.661687230605587, -2.474126375774559,
                      -2.9803532971211686, params.with_r(0.35592018752031956))
    assert hp.x2_star == 1.1508593627408006


def test_find_hopf_r_without_a_bracket_down_to_gamma_1e_305():
    # the climb's bracket end u/gamma lies up to 305 decades above r*, which
    # from gamma = 1e-16 down is the k = 2 crossing delay
    for gamma in [10.0 ** -e for e in range(1, 306)] + [10.0 ** -305.8]:
        params = model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA, gamma, 0.36)
        hp = hopf.find_hopf_r(params)
        assert hopf.criticality_report(hp).l1 < 0.0, gamma


# (beta0, n, delta, gamma, r*) from seeded log-uniform draws whose first crossing
# lies between the delays i r_max / 400 of an equal-step scan: at 0.99878 r_max,
# in a D < 0 window 0.2% of r_max wide at 0.761 r_max, and at 0.99936 r_max
BETWEEN_GRID_CROSSINGS = [
    (1.0427853693647768, 2.2989005042692314, 1.3832879113319575e-4, 0.09671760771214376,
     7.156612069608016),
    (0.0668032037757062, 6.177338895456793, 0.010209041772139101, 0.03431091432957302,
     12.21945162825898),
    (8.051862918870349, 2.0614013951825116, 1.2879039273695932e-4, 0.19242888769839864,
     3.5997113846840287),
]


def _agreement_bound(fields, r_star):
    # each search stops where |D| < 4 ulp(r) or its bracket is 4 ulps wide, so
    # two roots agree to a few ulps of r, over |D'| where D' is small: in
    # the narrow window D' = -6.7e-3, and 8 ulps over it are 1.7e-13 relative
    slope = (hopf._unchecked_mismatch(*fields, {}, r_star + 1e-9)
             - hopf._unchecked_mismatch(*fields, {}, r_star - 1e-9)) / 2e-9
    return 8.0 * math.ulp(r_star) * max(1.0, 1.0 / abs(slope))


@pytest.mark.parametrize("beta0, n, delta, gamma, r_star", BETWEEN_GRID_CROSSINGS)
def test_find_hopf_r_without_a_bracket_locates_crossings_between_grid_delays(
        beta0, n, delta, gamma, r_star):
    params = model.ModelParameters.from_gamma(beta0, n, delta, gamma, 1.0)
    hp = hopf.find_hopf_r(params)
    ref = hopf.find_hopf_r(params, (r_star - 1e-9, r_star + 1e-9))
    assert abs(hp.r_star - ref.r_star) <= _agreement_bound((beta0, n, delta, gamma), r_star)
    assert abs(hp.r_star - r_star) <= 1e-13 * r_star


def test_find_hopf_r_closes_the_narrow_window_from_the_climbs_probes(monkeypatch):
    # the D < 0 window of the second draw is 0.2% of r_max wide: the root search
    # starts from the largest climb probe below the first one inside it; from
    # (0, b), with D(0) = 14.8, Illinois takes 33 evaluations of D
    beta0, n, delta, gamma, r_star = BETWEEN_GRID_CROSSINGS[1]
    params = model.ModelParameters.from_gamma(beta0, n, delta, gamma, 1.0)
    calls = []
    _count_calls(monkeypatch, hopf, "_mismatch", calls)
    hp = hopf.find_hopf_r(params)
    assert len(calls) <= 22
    assert abs(hp.r_star - r_star) <= 1e-13 * r_star


# Seed-1 log-uniform draw (beta0, n, delta, gamma) with omega* = 0.0055 and
# p/q = 0.9997: g moves by about 6e-11 per ulp of r there, so no float near r*
# need hold |g| < 1e-11
STEEP_G_DRAW = (12.877520480684836, 3.5026177019439033, 1.960842516039209e-05,
                0.1561232164390183)


def test_find_hopf_r_confirms_r_star_by_a_sign_change_of_a_steep_g():
    beta0, n, delta, gamma = STEEP_G_DRAW
    rng = random.Random(3)
    for g in [gamma] + [gamma * (1.0 + rng.uniform(-1e-6, 1e-6)) for _ in range(40)]:
        params = model.ModelParameters.from_gamma(beta0, n, delta, g, 1.0)
        hp = hopf.find_hopf_r(params)
        ref = hopf.find_hopf_r(params, (hp.r_star - 1e-9, hp.r_star + 1e-9))
        assert abs(hp.r_star - ref.r_star) <= _agreement_bound((beta0, n, delta, g),
                                                               hp.r_star), g


# the peak of Q_0(u) = u / r0(2 e^-u) at the reference (beta0, n, delta), at u* = 0.6347
Q_STAR = 2.933006695776462


def test_find_hopf_r_refuses_gamma_above_the_peak_of_the_hopf_curve():
    # at a gamma above Q* x2 is stable at every delay, just below it the first
    # crossing is found, with mu' > 0 as x2 loses stability there
    for gamma in (Q_STAR * (1.0 + 1e-6), 2.94, 3.5):
        params = model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA, gamma, 0.36)
        with pytest.raises(NoImaginaryCrossingError,
                           match=r" >= Q\* = 2\.933006695776\d*, the peak of the Hopf curve "
                           r".*: x2 is stable at every delay"):
            hopf.find_hopf_r(params)
    params = model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA,
                                              Q_STAR * (1.0 - 1e-4), 0.36)
    hp = hopf.find_hopf_r(params)
    assert hopf.criticality_report(hp).mu_prime > 0.0


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_crossing_speeds_vanish_like_sqrt_eps_at_the_peak_of_the_hopf_curve(eps):
    # at gamma = Q* (1 - eps) the two crossings merge into the peak as eps -> 0:
    # x2 loses stability at the first and regains it at the second, and mu'
    # vanishes like sqrt(eps) at one rate on both sides (494.6 and 496.4 at
    # eps = 1e-6, 495.4 and 495.6 at 1e-8)
    params = model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA,
                                              Q_STAR * (1.0 - eps), 0.36)
    first = hopf.find_hopf_r(params)
    second = hopf.find_hopf_r(params, (first.r_star * (1.0 + 0.1 * math.sqrt(eps)),
                                       0.999 * model.equilibria(params).r_max))
    rising, falling = (hopf.criticality_report(hp).mu_prime / math.sqrt(eps)
                       for hp in (first, second))
    assert rising > 0.0 > falling
    assert abs(rising + falling) <= 0.01 * rising


def _p_below_minus_q(beta0, n, delta, u):
    # p + q < 0 at x2 for k = 2 e^-u, formed from the model (False where x2 is absent)
    try:
        triple = linstab.characteristic_triple(
            model.ModelParameters.from_gamma(beta0, n, delta, 1.0, u))
    except NoPositiveEquilibriumError:
        return False
    return triple.p + triple.q < 0.0


def _bisect_p_plus_q(beta0, n, delta, lo, hi):
    # the u in (lo, hi) where the sign of p + q changes, to the last bit
    below_at_lo = _p_below_minus_q(beta0, n, delta, lo)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _p_below_minus_q(beta0, n, delta, mid) == below_at_lo:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("n_minus_1", [(1.0, 100.0), (0.01, 1.0)], ids=["n>2", "n<2"])
def test_admissible_u_ends_match_a_bisection_on_p_plus_q(n_minus_1):
    # the ends of p < -q on (0, u_max), found on a grid of 2,000 steps and
    # bisected, against the roots `hopf._admissible_u` takes from the quadratic
    rng = random.Random(1)
    drawn = 0
    while drawn < 100:
        beta0, delta = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-6.0, 0.0)
        n = 1.0 + 10.0 ** rng.uniform(*map(math.log10, n_minus_1))
        if not delta < beta0:
            continue
        drawn += 1
        u_max = model._r_max(beta0, delta, 1.0)
        lo, hi = hopf._admissible_u(n, delta / beta0, u_max)
        step = u_max / 2000
        inside = [i * step for i in range(2000) if _p_below_minus_q(beta0, n, delta, i * step)]
        if not inside:
            assert not hi - lo > 2.0 * step, (beta0, n, delta, lo, hi)
            continue
        assert len(inside) == round((inside[-1] - inside[0]) / step) + 1  # one interval
        lo_ref = 0.0 if inside[0] == 0.0 else _bisect_p_plus_q(
            beta0, n, delta, inside[0] - step, inside[0])
        hi_ref = _bisect_p_plus_q(beta0, n, delta, inside[-1], min(inside[-1] + step, u_max))
        assert abs(lo - lo_ref) <= 1e-12 * u_max and abs(hi - hi_ref) <= 1e-12 * u_max, (
            beta0, n, delta, lo, lo_ref, hi, hi_ref)


def _count_calls(monkeypatch, module, name, calls):
    # patch module.name to append its first argument to `calls`
    original = getattr(module, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_find_hopf_r_evaluates_g_fewer_times(ref_params, monkeypatch):
    # g is evaluated once, at the root of D, through `hopf.g_of_r`: that seam
    # is counted, and so is every T_inv solve
    at_root, solves = [], []
    _count_calls(monkeypatch, hopf, "g_of_r", at_root)
    _count_calls(monkeypatch, linstab, "T_inv", solves)
    hp = hopf.find_hopf_r(ref_params, (0.30, 0.40))
    assert at_root == [hp.r_star]
    assert len(solves) == 1
    monkeypatch.undo()
    assert abs(linstab.g_of_r(hp.r_star, ref_params)) < 1e-14
    assert hp.omega_star == linstab._crossing(hp.p_star, hp.q_star)[0]


def test_find_hopf_r_guarantees_the_g_residual(ref_params, monkeypatch):
    # a boundary function shifted by 2e-11 is 2e-11 at the root of D:
    # HopfPoint's 1e-10 checks pass there, the g check not
    monkeypatch.setattr(hopf, "g_of_r", lambda r, params: linstab.g_of_r(r, params) - 2e-11)
    with pytest.raises(ConvergenceError, match=r"boundary function g = -2\.000e-11 at "
                       r"the root r\* = 0\.35592087769\d* of D: \|g\| >= 1e-11"):
        hopf.find_hopf_r(ref_params, (0.30, 0.40))


def test_find_hopf_r_takes_a_g_it_cannot_form_near_r_star_as_no_sign_change(ref_params,
                                                                          monkeypatch):
    # |g(r*)| = 2e-11 fails the test, and g at r* -+ 64 ulp(r*) cannot be formed
    at = []

    def g_of_r(r, params):
        at.append(r)
        if len(at) > 1:
            raise DomainError(f"g cannot be formed at r = {r}")
        return 2e-11

    monkeypatch.setattr(hopf, "g_of_r", g_of_r)
    with pytest.raises(ConvergenceError, match=r"boundary function g = 2\.000e-11 at the root "
                       r"r\* = 0\.35592087769\d* of D: \|g\| >= 1e-11"):
        hopf.find_hopf_r(ref_params, (0.30, 0.40))
    assert len(at) == 2


#: Seed-1 frontier draws (n, beta0, delta, k) where g at the root of D once
#: failed a check: the root of g, polished only to |g| < 1e-11, failed
#: HopfPoint's omega* = sqrt(q^2 - p^2) to 1e-10 ("polish-limited"); |g|
#: was above a few ulps of pi ("polish-needed"); or a secant point of the
#: search on g rounded onto an end ("secant-on-end")
CLOSED_FORM_OMEGA_DRAWS = {
    "polish-limited-0": (15.664091288895923, 2.0005220753306237, 0.25392833675469795,
                         1.368107999405649),
    "polish-limited-1": (13.74634878832299, 1.6215292946202005, 0.29652886153763075,
                         1.7193814951479869),
    "polish-limited-2": (17.969444393297902, 2.367151098615527, 0.29152960043553217,
                         1.5430287394303668),
    "polish-limited-3": (17.66692974328575, 1.5129074583029936, 0.20691078057309062,
                         1.6206371614737383),
    "polish-needed-0": (19.786852974908587, 1.5525339685756683, 0.043511872371759255,
                        1.1673834374613317),
    "polish-needed-1": (18.33043595299339, 2.1556712645860894, 0.1093178845353198,
                        1.239150256485174),
    "polish-needed-2": (7.678254232659764, 2.8144644740232496, 0.2592214757180992,
                        1.1332532915119207),
    "polish-needed-3": (7.71092679131033, 0.8427203748511198, 0.1140017341521307,
                        1.1741510795526624),
    "secant-on-end-0": (10.627808406354927, 1.9834876195063793, 0.024791974489215784,
                        1.0145931381474043),
    "secant-on-end-1": (17.452861508457822, 2.46113892141598, 0.07290932857147699,
                        1.0400817879921676),
    "secant-on-end-2": (13.373630635916001, 2.7641175531637443, 0.06983825913791109,
                        1.0309531620037107),
    "secant-on-end-3": (10.312762806460418, 0.7983193106610044, 0.03333316719531122,
                        1.059653529784012),
    "secant-on-end-4": (16.7278733951262, 2.786946134530215, 0.10277717422424767,
                        1.0410871153949288),
    "secant-on-end-5": (8.179904170069847, 2.187500645724417, 0.02930267831373494,
                        1.0164887266466687),
    "secant-on-end-6": (15.339597119446351, 2.4292960059857225, 0.10727745408671546,
                        1.0534136999787804),
}

#: draws with r* = 24.8 and 62.5, where an ulp of r exceeds 1e-15
LONG_DELAY_DRAWS = [
    (4.372101190512889, 1.4871109929605266, 0.2637057090901885, 1.2384175893592602),
    (6.108937932255966, 2.41601032703777, 0.27776722050178776, 1.139292712612455),
]


def _frontier_bracket(hp):
    r_max = model.equilibria(hp.params).r_max
    return (0.9 * hp.r_star, min(1.1 * hp.r_star, 0.999 * r_max))


@pytest.mark.parametrize("draw", CLOSED_FORM_OMEGA_DRAWS.values(), ids=CLOSED_FORM_OMEGA_DRAWS)
def test_find_hopf_r_takes_omega_from_the_frontier_relations(draw, monkeypatch):
    # omega* is the closed form at (p*, q*), and g is checked once, at r*
    hp = hopf.hopf_from_pqk(*draw)
    calls = []
    _count_calls(monkeypatch, hopf, "g_of_r", calls)
    hp2 = hopf.find_hopf_r(hp.params, _frontier_bracket(hp))
    assert calls == [hp2.r_star]
    assert hp2.omega_star == linstab._crossing(hp2.p_star, hp2.q_star)[0]
    assert abs(linstab.g_of_r(hp2.r_star, hp.params)) < 1e-11
    assert abs(hp2.r_star - hp.r_star) <= 1e-8 * hp.r_star


# Seed-1 frontier draws (n, beta0, delta, k) whose +-10% bracket holds
# delays where g is undefined (-p r > 1 or p/q < -1).
GAP_DRAWS = [
    (19.5148943234781, 0.9935644610382434, 0.04328115865855004, 1.1300455031825622),
    (10.784006018460481, 2.0397273601874626, 0.13068178379833878, 1.1036219429405922),
    (19.823771896199776, 2.5155194546957613, 0.11892215722988814, 1.0722098266737876),
    (3.769176767138939, 0.6316848712617641, 0.02444945436352642, 1.0717825266728478),
]


@pytest.mark.parametrize("draw", GAP_DRAWS)
def test_find_hopf_r_agrees_with_frontier_across_gaps_of_g(draw):
    hp = hopf.hopf_from_pqk(*draw)
    hp2 = hopf.find_hopf_r(hp.params, _frontier_bracket(hp))
    assert abs(hp2.r_star - hp.r_star) <= 1e-8 * hp.r_star


@pytest.mark.parametrize("draw", LONG_DELAY_DRAWS)
def test_find_hopf_r_agrees_with_frontier_on_long_delay_draws(draw):
    # g is undefined on the upper part of the +-10% bracket (|p/q| > 1) and
    # vanishes where p crosses 0 (T_inv(0) = arccos(0) = pi/2), which is no
    # Hopf point; the frontier mismatch has neither defect
    hp = hopf.hopf_from_pqk(*draw)
    hp2 = hopf.find_hopf_r(hp.params, _frontier_bracket(hp))
    assert abs(hp2.r_star - hp.r_star) <= 1e-8 * hp.r_star


def test_find_hopf_r_refusal_names_the_frontier_mismatch(ref_params):
    # D < 0 on (0.35592, 0.44421), D > 0 at 0.446, and D = +inf past r_max
    r_max = model.equilibria(ref_params).r_max
    with pytest.raises(BracketError, match=r"no sign change on bracket \(0.36, 0.4\) "
                       r"of the frontier mismatch D: D\(a\) = -"):
        hopf.find_hopf_r(ref_params, (0.36, 0.40))
    with pytest.raises(BracketError, match=r"D\(b\) = inf \(inf means no crossing at that end\)"):
        hopf.find_hopf_r(ref_params, (0.446, 1.1 * r_max))


def test_find_hopf_r_bracket_errors(ref_params):
    with pytest.raises(BracketError):
        hopf.find_hopf_r(ref_params, (0.36, 0.40))  # g < 0 throughout
    with pytest.raises(BracketError):
        hopf.find_hopf_r(ref_params, (0.35, 0.35))


def _gamma_params(beta0, n, delta, gamma, r=0.36):
    return model.ModelParameters.from_gamma(beta0, n, delta, gamma, r)


#: name: (parameters, bracket or None, the class and the whole message of the refusal)
FIND_HOPF_R_REFUSALS = {
    "negative-end": (None, (-1.0, 0.4), BracketError,
                     "bracket ends must be finite and nonnegative, got (-1.0, 0.4)"),
    "nan-end": (None, (math.nan, 0.4), BracketError,
                "bracket ends must be finite and nonnegative, got (nan, 0.4)"),
    "inf-end": (None, (0.3, math.inf), BracketError,
                "bracket ends must be finite and nonnegative, got (0.3, inf)"),
    "float32-end": (None, (np.float32(0.3), 0.4), ParameterError,
                    "r must be a finite number, got np.float32(0.3)"),
    "no-sign-change": (None, (0.36, 0.40), BracketError,
                       "no sign change on bracket (0.36, 0.4) of the frontier mismatch D: "
                       "D(a) = -0.01378499658725968, D(b) = -0.14487875272340578 "
                       "(inf means no crossing at that end)"),
    # past r_max = 0.449318 of the reference config
    "no-x2-at-either-end": (None, (0.4942500781545299, 0.5391819034413053), BracketError,
                            "no sign change on bracket (0.4942500781545299, "
                            "0.5391819034413053) of the frontier mismatch D: D(a) = inf, "
                            "D(b) = inf (inf means no crossing at that end)"),
    # the near-float-limit config: A overflows at 1e-3, B1(x2) at 0.1
    "A-overflow-at-an-end": (_gamma_params(1e308, 2.0, 0.5, 1.0, 0.1), (1e-3, 0.2),
                             ParameterError, "A = beta0 (k - 1)/delta must be finite, got inf"),
    "pq-overflow-at-an-end": (_gamma_params(1e308, 2.0, 0.5, 1.0, 0.1), (0.1, 0.2),
                              DomainError, "p, q must be finite, got p=nan, q=nan"),
    # both ends pass (D(a) < 0, and x2 is absent at b), but the first iterate, a
    # midpoint, lands where B1(x2) > 0 and p = delta + B1 overflows
    "pq-overflow-inside": (_gamma_params(1.7e308, 20.0, 0.5e308, 1.0), (0.413, 0.4532),
                           DomainError, "p, q must be finite, got p=inf, "
                           "q=1.760998643478937e+308"),
    "A-overflow-at-the-climbs-D(0)": (_gamma_params(1e308, 2.0, 0.5, 1.0, 0.1), None,
                                      ParameterError,
                                      "A = beta0 (k - 1)/delta must be finite, got inf"),
    "no-x2-at-any-delay": (_gamma_params(0.04, 12.0, 0.05, 1.48067), None,
                           NoPositiveEquilibriumError,
                           "x2 exists at no delay r > 0: r_max = -0.07954712100358856"),
    "probe-overflow": (_gamma_params(1.77, 12.0, 0.05, 5e-324), None, BracketError,
                       "bracket end u/gamma = 0.2531496866946766/5e-324 leaves the float "
                       "range; supply --bracket explicitly"),
    "gamma-above-Q*": (_gamma_params(rv.BETA0, rv.N, rv.DELTA, 2.94), None,
                       NoImaginaryCrossingError,
                       "gamma = 2.94 >= Q* = 2.933006695776461, the peak of the Hopf curve "
                       "gamma = u / r0(2 e^-u): x2 is stable at every delay"),
}


@pytest.mark.parametrize("name", FIND_HOPF_R_REFUSALS)
def test_find_hopf_r_refusal_class_and_message(ref_params, name):
    params, bracket, error, message = FIND_HOPF_R_REFUSALS[name]
    with pytest.raises(error) as info:
        hopf.find_hopf_r(params or ref_params, bracket)
    assert type(info.value) is error
    assert str(info.value) == message


def test_hopf_point_refusals_class_and_message(ref_hopf):
    # the public constructor checks omega*, r* and the delay of params, in this order
    hp = ref_hopf
    cases = [
        ((hp.r_star, hp.omega_star * 1.001, *hp[2:]),
         f"omega* = {hp.omega_star * 1.001!r} != sqrt(q^2 - p^2) = {hp.omega_star!r}"),
        ((hp.r_star * 1.001, *hp[1:]),
         f"r* = {hp.r_star * 1.001!r} != arccos(p/q) / omega* = {hp.r_star!r}"),
        ((*hp[:4], hp.params.with_r(hp.r_star * 1.001), hp.x2_star),
         "params delay inconsistent with r_star"),
    ]
    for fields, message in cases:
        with pytest.raises(NumericsError) as info:
            hopf.HopfPoint(*fields)
        assert type(info.value) is NumericsError
        assert str(info.value) == message
    assert hopf.HopfPoint(*hp) == hp


def test_find_hopf_r_refuses_a_sign_change_of_d_that_is_no_crossing(ref_params, monkeypatch):
    # D jumps down by 1 at r = 0.32, inside (0.30, 0.40) and below r* = 0.3559:
    # Illinois closes on the jump, where D itself is about 0.03, so the point
    # it returns is no crossing delay, and the record's check of r* refuses it
    kernel, search, roots = hopf._mismatch, hopf.bracketed_root, []

    def jumping(beta0, n, delta, seen, r, k, A):
        return kernel(beta0, n, delta, seen, r, k, A) - (1.0 if r > 0.32 else 0.0)

    def recorded(*args, **kwargs):
        roots.append(search(*args, **kwargs))
        return roots[-1]

    monkeypatch.setattr(hopf, "_mismatch", jumping)
    monkeypatch.setattr(hopf, "bracketed_root", recorded)
    with pytest.raises(NumericsError) as info:
        hopf.find_hopf_r(ref_params, (0.30, 0.40))
    (r,) = roots
    assert abs(r - 0.32) <= 4.0 * math.ulp(0.32)
    triple = linstab.characteristic_triple(ref_params.with_r(r))
    r0 = linstab._crossing(triple.p, triple.q)[1]
    assert type(info.value) is NumericsError
    assert str(info.value) == f"r* = {r!r} != arccos(p/q) / omega* = {r0!r}"


def test_find_hopf_r_g_refusal_class_and_message(ref_params, monkeypatch):
    # every g, at r* and at r* -+ 64 ulp, is shifted by 2e-11 through its T_inv term
    t_inv = linstab.T_inv
    monkeypatch.setattr(linstab, "T_inv", lambda v: t_inv(v) + 2e-11)
    with pytest.raises(ConvergenceError) as info:
        hopf.find_hopf_r(ref_params, (0.30, 0.40))
    assert type(info.value) is ConvergenceError
    assert str(info.value) == ("boundary function g = 2.000e-11 at the root "
                               "r* = 0.3559208776910636 of D: |g| >= 1e-11")
    assert info.value.last_iterate == 0.3559208776910636


# ------------------------------------------- (p, q) at a moved delay, reference


def reference_frontier_mismatch(r, params):
    # D as it was composed before (p, q) at r was formed directly
    local = params.with_r(r)
    if not local.x2_exists:
        return math.inf
    triple = linstab.characteristic_triple(local)
    return linstab._crossing(triple.p, triple.q)[1] - r


def reference_g_of_r(r, params):
    # g as it was composed before (p, q) at r was formed directly
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError(f"g is evaluated for r > 0, got {r}")
    triple = linstab.characteristic_triple(params.with_r(r))
    p, q = triple.p, triple.q
    v = -p * r
    if v > 1.0:
        raise DomainError(f"T_inv argument -p*r = {v} > 1 at r = {r}")
    if q == 0.0 or abs(p / q) > 1.0:
        raise DomainError(f"arccos argument p/q = {p}/{q} outside [-1, 1] at r = {r}")
    return linstab.T_inv(v) - math.acos(p / q)


def moved_delay_outcome(func, r, params):
    """The value of func(r, params) to the bit (as its repr), or the class and
    message of its refusal."""
    try:
        return repr(func(r, params))
    except ParameterError as exc:
        return type(exc), str(exc)


#: gamma configs for the reference comparison: the reference set, seed-1
#: frontier draws, and a config whose A overflows for small delays and
#: whose B1(x2) overflows where A is finite
MOVED_DELAY_CONFIGS = {
    "reference": model.ModelParameters.from_k(rv.BETA0, rv.N, rv.DELTA, rv.K, rv.R_REF),
    **{f"gap-draw-{i}": hopf.hopf_from_pqk(*draw).params
       for i, draw in enumerate(GAP_DRAWS[:2])},
    "long-delay-draw": hopf.hopf_from_pqk(*LONG_DELAY_DRAWS[0]).params,
    "near-float-limit": model.ModelParameters.from_gamma(1e308, 2.0, 0.5, 1.0, 0.1),
}


def moved_delays(params, count=600):
    """A grid over (0, 1.2 r_max], r_max itself with its neighbours, and
    delays every evaluation must refuse."""
    # r_max in closed form: equilibria refuses the near-float-limit config
    r_max = -math.log(0.5 * (1.0 + params.delta / params.beta0)) / params.gamma
    grid = [1.2 * r_max * i / count for i in range(1, count + 1)]
    edges = [r_max, math.nextafter(r_max, 0.0), math.nextafter(r_max, math.inf)]
    # ModelParameters refuses a delay that is neither int nor float
    other_types = [np.float32(0.5 * r_max), np.int64(1)]
    return grid + edges + other_types + [0.0, -0.0, -1e-3, -math.inf, math.inf, math.nan]


@pytest.mark.parametrize("name", MOVED_DELAY_CONFIGS)
def test_frontier_mismatch_is_the_reference_to_the_bit(name):
    params = MOVED_DELAY_CONFIGS[name]
    outcomes = []
    for r in moved_delays(params):
        outcome = moved_delay_outcome(hopf.frontier_mismatch, r, params)
        assert outcome == moved_delay_outcome(reference_frontier_mismatch, r, params), r
        outcomes.append(outcome)
    # the grid reaches where x2 is absent or p >= -q, and the negative delays
    assert repr(math.inf) in outcomes
    assert (ParameterError, "delay r must be nonnegative, got -0.001") in outcomes


def test_frontier_mismatch_refuses_the_near_float_limit_config_by_stage():
    # A overflows near r = 0; where A is finite, B1(x2), and so p and q, overflow
    params = MOVED_DELAY_CONFIGS["near-float-limit"]
    with pytest.raises(ParameterError, match=r"A = beta0 \(k - 1\)/delta must be finite"):
        hopf.frontier_mismatch(1e-3, params)
    with pytest.raises(DomainError, match="p, q must be finite, got p=nan, q=nan"):
        hopf.frontier_mismatch(0.1, params)


@pytest.mark.parametrize("name", MOVED_DELAY_CONFIGS)
def test_the_iterated_mismatch_kernel_is_the_reference_to_the_bit(name):
    # find_hopf_r checks each bracket end (finite, nonnegative, int or float,
    # with a finite A), then iterates D on floats with no check of the delay or
    # of A: at every delay those checks admit, that kernel is the reference D,
    # value or refusal, except where the reference refuses an overflowing A.
    # Those delays are the smallest, so every smaller delay, where a bracket
    # end or the climb's r = 0 lies, is refused too: no iterate reaches them
    params = MOVED_DELAY_CONFIGS[name]
    fields = (params.beta0, params.n, params.delta, params.gamma)
    admitted = sorted(r for r in moved_delays(params)
                      if isinstance(r, (int, float)) and math.isfinite(r) and r >= 0.0)
    assert len(admitted) == 605  # the grid, r_max and its neighbours, 0.0 and -0.0
    overflowing = []
    for r in admitted:
        expected = moved_delay_outcome(reference_frontier_mismatch, r, params)
        if expected == (ParameterError, "A = beta0 (k - 1)/delta must be finite, got inf"):
            overflowing.append(r)
            continue
        outcome = moved_delay_outcome(lambda rr, _: hopf._unchecked_mismatch(*fields, {}, rr),
                                      r, params)
        assert outcome == expected, r
    assert overflowing == admitted[:len(overflowing)]
    assert bool(overflowing) == (name == "near-float-limit")


@pytest.mark.parametrize("draw", GAP_DRAWS + LONG_DELAY_DRAWS)
def test_find_hopf_r_takes_the_reference_iterates(draw, monkeypatch):
    hp = hopf.hopf_from_pqk(*draw)
    located = hopf.find_hopf_r(hp.params, _frontier_bracket(hp))
    fields = (hp.params.beta0, hp.params.n, hp.params.delta)
    delays, kernel = [], hopf._mismatch

    def reference_kernel(*args):
        # the kernel still runs, as the record at r* takes k, A, p and q from
        # its evaluation there; the search goes on from the reference value
        assert args[:3] == fields
        r = args[4]
        delays.append(r)
        expected = reference_frontier_mismatch(r, hp.params)
        assert repr(kernel(*args)) == repr(expected), r
        return expected

    monkeypatch.setattr(hopf, "_mismatch", reference_kernel)
    monkeypatch.setattr(hopf, "g_of_r", reference_g_of_r)
    assert hopf.find_hopf_r(hp.params, _frontier_bracket(hp)) == located
    # the patch reached the iteration, not only the two bracket ends
    assert len(delays) > 2


def test_find_hopf_r_forms_k_once_per_delay(ref_params, monkeypatch):
    # a bracket end's D takes the k its checks formed, an iterate's D forms k
    # unchecked, and g forms it once more at r*
    formed, delays, kernel = [], [], hopf._mismatch

    def counted(beta0, n, delta, seen, r, k, A):
        delays.append(r)
        return kernel(beta0, n, delta, seen, r, k, A)

    _count_calls(monkeypatch, model, "_k_of", formed)
    _count_calls(monkeypatch, hopf, "_k_of", formed)
    monkeypatch.setattr(hopf, "_mismatch", counted)
    hopf.find_hopf_r(ref_params, (0.30, 0.40))
    assert len(formed) == len(set(delays)) + 1


# -------------------------------------------------------------- transversality


def test_transversality_reference(ref_hopf):
    nf = hopf.criticality_report(ref_hopf)
    mu_p, om_p = nf.mu_prime, nf.omega_prime
    assert abs(mu_p - rv.MU_PRIME_REF) < 1e-9 * abs(rv.MU_PRIME_REF)
    assert abs(om_p - rv.OMEGA_PRIME_REF) < 1e-9 * abs(rv.OMEGA_PRIME_REF)
    assert abs(mu_p - rv.MU_PRIME_PRINT) < 0.005 * rv.MU_PRIME_PRINT


def test_transversality_matches_root_tracking(ref_hopf, ref_params):
    nf = hopf.criticality_report(ref_hopf)
    mu_p, om_p = nf.mu_prime, nf.omega_prime
    h = 1e-5
    lams = []
    for r in (ref_hopf.r_star - h, ref_hopf.r_star + h):
        triple = linstab.characteristic_triple(ref_params.with_r(r))
        lams.append(linstab.rightmost_root(triple))
    mu_fd = (lams[1].real - lams[0].real) / (2.0 * h)
    om_fd = (lams[1].imag - lams[0].imag) / (2.0 * h)
    assert abs(mu_fd - mu_p) < 1e-3 * abs(mu_p)
    assert abs(om_fd - om_p) < 1e-3 * abs(om_p)


# ------------------------------------------------------- projection / pairing


def test_psi1_zero_reference(ref_hopf):
    psi = hopf.criticality_report(ref_hopf).psi1_zero
    assert abs(psi - rv.PSI1_REF) < 1e-12


def test_projection_weight_short_delay_limit():
    assert abs(hopf.projection_weight(-2.5, 1.7, 1e-14) - 1.0) < 1e-12


def test_projection_weight_refuses_a_degenerate_crossing():
    # |Delta'(i omega)|^2 = (1 + p r)^2 + (omega r)^2 is 1e-14 here, then 4e-12
    with pytest.raises(DegenerateCrossingError):
        hopf.projection_weight(-1.0, 1e-7, 1.0)
    assert abs(hopf.projection_weight(-1.0, 2e-6, 1.0)) > 1e5


def test_projection_weight_conjugate_symmetry(ref_hopf):
    # the companion row of the projection is the conjugate of the first
    p, w, r = ref_hopf.p_star, ref_hopf.omega_star, ref_hopf.r_star
    assert hopf.projection_weight(p, -w, r) == hopf.projection_weight(p, w, r).conjugate()


@pytest.mark.parametrize(
    "args", [(rv.N, rv.BETA0, rv.DELTA, rv.K)] + OTHER_HOPF_ARGS
)
def test_projection_weight_is_one_over_the_characteristic_derivative(args):
    # Psi1(0) = 1/Delta'(i omega*), Delta'(lambda) = 1 + q r e^{-lambda r}
    hp = hopf.hopf_from_pqk(*args)
    p, q, w, r = hp.p_star, hp.q_star, hp.omega_star, hp.r_star
    d_delta = 1.0 + q * r * cmath.exp(-1j * w * r)
    residual = abs(hopf.projection_weight(p, w, r) * d_delta - 1.0)
    assert residual <= 8 * sys.float_info.epsilon


def _eigendata(hp):
    w = hp.omega_star
    phi1 = lambda s: cmath.exp(1j * w * s)
    phi2 = lambda s: cmath.exp(-1j * w * s)
    psi1 = lambda z: cmath.exp(1j * w * z)
    psi2 = lambda z: cmath.exp(-1j * w * z)
    return phi1, phi2, psi1, psi2


def test_pairing_matches_closed_forms(ref_hopf):
    hp = ref_hopf
    phi1, phi2, psi1, _ = _eigendata(hp)
    e11 = pairing(psi1, phi1, hp)
    e12 = pairing(psi1, phi2, hp)
    assert abs(e11) < 1e-9
    expected_e12 = 1.0 + (hp.p_star - 1j * hp.omega_star) * hp.r_star
    assert abs(e12 - expected_e12) < 1e-9


@pytest.mark.parametrize(
    "args", [(rv.N, rv.BETA0, rv.DELTA, rv.K)] + OTHER_HOPF_ARGS
)
def test_pairing_normalization(args):
    hp = hopf.hopf_from_pqk(*args)
    phi1, phi2, _, psi2 = _eigendata(hp)
    weight = hopf.projection_weight(hp.p_star, hp.omega_star, hp.r_star)
    norm1 = pairing(lambda z: weight * psi2(z), phi1, hp)
    norm0 = pairing(lambda z: weight * psi2(z), phi2, hp)
    assert abs(norm1 - 1.0) < 1e-8
    assert abs(norm0) < 1e-8


# -------------------------------------------------------- series coefficients


def _e(hp):
    # E = e^{i omega* r*}, formed here, not by the report
    return cmath.exp(1j * hp.omega_star * hp.r_star)


def test_f_coefficients_structure(ref_hopf, ref_params):
    tc = taylor_at_x2(ref_params, model.equilibria(ref_params))
    f20, f11, f02 = hopf._f2(tc, ref_params.k, _e(ref_hopf).conjugate())
    assert f02 == f20.conjugate()
    assert f11.imag == 0.0
    assert abs(f11 - tc.b2 * (ref_params.k - 1.0)) < 1e-14 * abs(f11)


def test_f_coefficients_vanish_without_quadratic_term(ref_hopf):
    tc = model.TaylorCoefficients(b1=-2.5, b2=0.0, b3=-61.0)
    k, e_m = ref_hopf.params.k, _e(ref_hopf).conjugate()
    f20, f11, f02 = hopf._f2(tc, k, e_m)
    # without B2 the manifold terms drop out of f21
    f21 = hopf._f21(tc, k, e_m, 1.0 + 2.0j, -3.0j, 0.5, 4.0 - 1.0j)
    assert f20 == 0.0 and f11 == 0.0 and f02 == 0.0
    assert f21 == -tc.b3 * (
        1.0 - ref_hopf.params.k * cmath.exp(-1j * ref_hopf.omega_star * ref_hopf.r_star)
    )


# ------------------------------------------------------------ w boundary data


def _second_order_data(hp):
    params = hp.params
    tc = taylor_at_x2(params, model.equilibria(params))
    psi = hopf.projection_weight(hp.p_star, hp.omega_star, hp.r_star)
    f20, f11, f02 = hopf._f2(tc, params.k, _e(hp).conjugate())
    return tc, psi, f20, f11, f02


def _w_values(hp, g20, g11, g02, f20, f11):
    return hopf._w_values(hp.p_star, hp.q_star, hp.omega_star, _e(hp), g20, g11, g02, f20, f11)


def _closed_forms(hp, g20, g11, g02, f20, f11):
    # (w20(0), w20(-r), c) and (w11(0), w11(-r), c1) of the printed closed forms
    p, q, w, r, e = hp.p_star, hp.q_star, hp.omega_star, hp.r_star, _e(hp)
    return (hopf._w20_closed(p, q, w, r, e, g20, g02, f20),
            hopf._w11_closed(p, q, w, e, g11, f11))


def _w_relation_residuals(hp, g20, g11, g02, f20, f11, w20_0, w20_mr, w11_0, w11_mr):
    p, q = hp.p_star, hp.q_star
    w, r = hp.omega_star, hp.r_star
    e = cmath.exp(1j * w * r)
    res = []
    res.append(
        w20_0
        - w20_mr * e * e
        - ((1j * g20 / w) * (1.0 - e) + (1j * g02.conjugate() / (3.0 * w)) * (1.0 - e**3))
    )
    res.append(
        2j * w * w20_0 + g20 + g02.conjugate() - (-p * w20_0 + q * w20_mr + f20)
    )
    res.append(
        w11_0
        - w11_mr
        - (
            -(1j / w) * g11 * (1.0 - 1.0 / e)
            + (1j / w) * g11.conjugate() * (1.0 - e)
        )
    )
    res.append(g11 + g11.conjugate() - (-p * w11_0 + q * w11_mr + f11))
    return [abs(x) for x in res]


@pytest.mark.parametrize(
    "args", [(rv.N, rv.BETA0, rv.DELTA, rv.K)] + OTHER_HOPF_ARGS
)
def test_w_defining_relations_and_closed_forms(args):
    hp = hopf.hopf_from_pqk(*args)
    tc, psi, f20, f11, f02 = _second_order_data(hp)
    g20, g11, g02 = psi * f20, psi * f11, psi * f02
    w20_0, w20_mr, w11_0, w11_mr = _w_values(hp, g20, g11, g02, f20, f11)
    residuals = _w_relation_residuals(
        hp, g20, g11, g02, f20, f11, w20_0, w20_mr, w11_0, w11_mr
    )
    assert max(residuals) < 1e-10

    (cf20_0, cf20_mr, _), (cf11_0, cf11_mr, _) = _closed_forms(hp, g20, g11, g02, f20, f11)
    # w11 is real: both routes return no rounding noise as an imaginary part
    assert w11_0.imag == w11_mr.imag == cf11_0.imag == cf11_mr.imag == 0.0
    for solved, closed in (
        (w20_0, cf20_0),
        (w20_mr, cf20_mr),
        (w11_0, cf11_0),
        (w11_mr, cf11_mr),
    ):
        assert abs(solved - closed) < 1e-9 * max(1.0, abs(closed))


@pytest.mark.parametrize(
    "args", [(rv.N, rv.BETA0, rv.DELTA, rv.K)] + OTHER_HOPF_ARGS
)
def test_normal_form_stores_the_closed_forms(args):
    hp = hopf.hopf_from_pqk(*args)
    nf = hopf.criticality_report(hp)
    assert _closed_forms(hp, nf.g20, nf.g11, nf.g02, nf.f20, nf.f11) == (
        (nf.w20_closed_at_0, nf.w20_closed_at_minus_r, nf.c),
        (nf.w11_closed_at_0, nf.w11_closed_at_minus_r, nf.c1))


def test_normal_form_forms_each_f_coefficient_once(ref_hopf, monkeypatch):
    # the report runs the kernels _f2 and _f21, once each
    calls = []
    for name in ("_f2", "_f21"):
        def counted(*args, _name=name, _original=getattr(hopf, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(hopf, name, counted)
    nf = hopf.criticality_report(ref_hopf)
    assert calls == ["_f2", "_f21"]
    monkeypatch.undo()
    tc = taylor_at_x2(ref_hopf.params, model.equilibria(ref_hopf.params))
    k, e_m = ref_hopf.params.k, _e(ref_hopf).conjugate()
    assert (nf.f20, nf.f11, nf.f02) == hopf._f2(tc, k, e_m)
    assert nf.f21 == hopf._f21(tc, k, e_m, nf.w20_at_0, nf.w20_at_minus_r,
                               nf.w11_at_0, nf.w11_at_minus_r)


def test_criticality_report_forms_no_equilibria_report_and_psi1_once(ref_hopf, monkeypatch):
    reports, weights, slopes = [], [], []
    for module in (model, hopf):
        if hasattr(module, "equilibria"):
            _count_calls(monkeypatch, module, "equilibria", reports)
    _count_calls(monkeypatch, hopf, "projection_weight", weights)
    _count_calls(monkeypatch, hopf, "_b1_slopes", slopes)
    nf = hopf.criticality_report(ref_hopf)
    # x2 is the Hopf point's, and Psi1(0) and A dB1/dA are shared with the
    # crossing speed
    assert reports == []
    assert weights == [ref_hopf.p_star]
    assert slopes == [ref_hopf.params.beta0]
    monkeypatch.undo()
    p, q, w, params = ref_hopf.p_star, ref_hopf.q_star, ref_hopf.omega_star, ref_hopf.params
    assert nf.psi1_zero == hopf.projection_weight(p, w, ref_hopf.r_star)
    a_db1 = model._b1_slopes(params.beta0, params.n, params.A)[0]
    assert (nf.mu_prime, nf.omega_prime) == hopf._speed(nf.psi1_zero, p, q, w, params.gamma,
                                                        params.k, a_db1)


def test_w_reference_values(ref_hopf):
    tc, psi, f20, f11, f02 = _second_order_data(ref_hopf)
    g20, g11, g02 = psi * f20, psi * f11, psi * f02
    w20_0, w20_mr, w11_0, w11_mr = _w_values(ref_hopf, g20, g11, g02, f20, f11)
    assert abs(w20_0 - rv.W20_0_REF) < 1e-9
    assert abs(w20_mr - rv.W20_MR_REF) < 1e-9
    assert abs(w11_0 - rv.W11_0_REF) < 1e-9
    assert abs(w11_mr - rv.W11_MR_REF) < 1e-9
    # the balanced coefficient is real-valued
    assert abs(w11_0.imag) < 1e-12 and abs(w11_mr.imag) < 1e-12


def test_w_homogeneous_case_is_zero(ref_hopf):
    w20_0, w20_mr, w11_0, w11_mr = _w_values(ref_hopf, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert w20_0 == 0.0 and w20_mr == 0.0 and w11_0 == 0.0 and w11_mr == 0.0


def test_w_boundary_values_report_both_resonances():
    # at p = 0 and omega r = pi/4, E^2 Delta(2 i omega) = 2 i omega i - q = 0 for q = -2
    e = cmath.exp(1j * math.pi / 4.0)
    with pytest.raises(ResonanceError, match="w20 system singular"):
        hopf._w_values(0.0, -2.0, 1.0, e, 1.0, 1.0, 1.0, 1.0, 1.0)
    # Delta(0) = p - q = 0 at q = 0
    with pytest.raises(ResonanceError, match="w11 system singular"):
        hopf._w_values(0.0, 0.0, 1.0, e, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_w11_resonance_detected(ref_hopf):
    # the reference record with q* = p*: the report refuses p = q before the
    # closed form for w11 divides by p - q
    hp = ref_hopf
    point = hopf.HopfPoint._unchecked((hp.r_star, hp.omega_star, hp.p_star, hp.p_star,
                                       hp.params, hp.x2_star))
    with pytest.raises(ResonanceError) as refusal:
        hopf.criticality_report(point)
    assert str(refusal.value) == ("w11 system singular: 0 collides with a characteristic "
                                  "root (p = q)")


# ------------------------------------------------------------- l1 and report


def test_lyapunov_l1_formula():
    assert hopf.lyapunov_l1(0.0, 0.0, 0.0, 1.7) == 0.0
    assert hopf.lyapunov_l1(1j, 1.0, 0.0, 1.0) == -0.5


def test_lyapunov_l1_reference(ref_hopf):
    nf = hopf.criticality_report(ref_hopf)
    assert abs(nf.l1 - rv.L1_REF) < 1e-9 * abs(rv.L1_REF)
    assert abs(nf.l1 - rv.L1_PRINT) < 1e-3 * abs(rv.L1_PRINT)


def _normal_form_points():
    points = [hopf.hopf_from_pqk(*args) for args in OTHER_HOPF_ARGS]
    for draw in islice(workloads.frontier_draws(1), 200):
        try:
            points.append(hopf.hopf_from_pqk(*draw))
        except (ParameterError, NumericsError):
            pass
    return points


def _located_points():
    # find_hopf_r without a bracket on the first 50 seed-1 stability configs:
    # records built from D's own evaluation, as `normal-form` builds them on a
    # gamma config
    points = []
    for config in islice(workloads.stability_configs(1), 50):
        p = config["params"]
        points.append(hopf.find_hopf_r(model.ModelParameters.from_gamma(
            p["beta0"], p["n"], p["delta"], p["gamma"], p["r"])))
    return points


def test_criticality_report_answers_on_frontier_and_located_points():
    # the two routes to l1 agree within 1e-10 of the degeneracy scale on each point
    points = _normal_form_points()
    assert len(points) > 180
    for hp in points + _located_points():
        nf = hopf.criticality_report(hp)
        assert nf.criticality in (hopf.SUPERCRITICAL, hopf.SUBCRITICAL), hp


# (n, beta0, delta, k) of a log-uniform float-range box at which l1, the
# crossing speed and the closed-form constant c are not finite, each with
# its refusal
NONFINITE_NORMAL_FORMS = {
    "l1": ((535.6466108874542, 1.0317981732188892e+218, 8.462915641147109e+148,
            1.4780947960811412),
           "l1 = Re(i g20 g11 + omega* g21) / (2 omega*^2) = nan is not finite"),
    # dp = B1' overflows at k - 1 = 1.2e-5
    "crossing-speed": ((1.0003844775280795, 1.7838771704967025e+232, 2.6759840843052627e+152,
                        1.0000119704616515),
                       "crossing speed mu' = nan, omega' = nan is not finite"),
    "c": ((1.418405615560197, 1.0069871130739729e+208, 1.632343388234782e+154,
           1.999999998642839),
          "closed-form constant c = (nan+nanj) is not finite"),
}


def _refusal(fn, *args):
    # (class, message) of the error fn raises, or None
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_criticality_report_refusals_class_and_message(ref_hopf):
    # (r*, omega*, p*, q*) of records no search returns: 2 i omega* and 0
    # resonant, a degenerate crossing, and omega*^2 below the normal range
    records = [(math.pi / 4.0, 1.0, 0.0, -2.0), (math.pi / 4.0, 1.0, 0.0, 0.0),
               (1.0, 1e-7, -1.0, -1.0), (1.0, 1e-170, 0.5, -1.0)]
    points = [hopf.HopfPoint._unchecked((*record, ref_hopf.params, ref_hopf.x2_star))
              for record in records]
    points += [hopf.hopf_from_pqk(*draw) for draw, _ in NONFINITE_NORMAL_FORMS.values()]
    refusals = [_refusal(hopf.criticality_report, hp) for hp in points]
    assert refusals == [
        (ResonanceError, "w20 system singular: 2 i omega* collides with a characteristic root"),
        (ResonanceError, "w11 system singular: 0 collides with a characteristic root (p = q)"),
        (DegenerateCrossingError, "|Delta'(i omega*)|^2 = 9.999999999999998e-15 < 1e-12"),
        (NumericsError, "omega*^2 leaves the float range at omega* = 1e-170: l1 cannot be "
                        "formed in this time unit"),
    ] + [(NumericsError, message) for _, message in NONFINITE_NORMAL_FORMS.values()]


# (n, beta0, delta, k) near the top of the float range whose l1 is finite: the
# size of the terms of l1, or 2 omega*^2 in it, overflows in their unit
FLOAT_RANGE_CONFIGS = [
    (8.156454211305308, 3.507067668438271e+153, 2.0241524062252232e+152, 1.5582547839317638),
    (9.97114603728215, 3.763261744598025e+153, 8.60654966943312e+151, 1.3188652150649989),
    (9.273815251958702, 1.0680929237349149e+155, 1.9396494584843571e+152, 1.7185342084270885),
    # omega* = 1.1e154: omega*^2 is finite, 2 omega*^2 is not
    (2.2878424087601568, 3.4635650570885884e+154, 7.039260337216482e+153, 1.7614873512450702),
]


def _in_unit_delta_1(draw):
    # the same dynamics in the time unit where delta = 1
    n, beta0, delta, k = draw
    return n, beta0 / delta, 1.0, k


@pytest.mark.parametrize("draw", FLOAT_RANGE_CONFIGS)
def test_a_finite_l1_near_the_float_limit_has_its_oracles_verdict(draw):
    nf = hopf.criticality_report(hopf.hopf_from_pqk(*draw))
    oracle = hopf.criticality_report(hopf.hopf_from_pqk(*_in_unit_delta_1(draw)))
    assert nf.criticality == oracle.criticality == hopf.SUPERCRITICAL
    assert (nf.mu_prime > 0.0) == (oracle.mu_prime > 0.0)
    assert abs(nf.l1 - oracle.l1) <= 1e-9 * abs(oracle.l1)


def test_lyapunov_l1_where_two_omega_squared_overflows():
    # omega*^2 is finite and 2 omega*^2 is not: l1 = Re(omega* g21) / (2 omega*^2)
    w = 1e154
    assert hopf.lyapunov_l1(0j, 0j, -1.0 + 0j, w) == -w / w**2 / 2.0 != 0.0


def audit_box(seed):
    """(n, beta0, delta, k) of a log-uniform box across the float range:
    delta = 10^U(-300, 300), beta0 = delta 10^U(-3, 3), n = 1 + 10^U(-2, 2.5)
    and k = U(1 + delta/beta0, 2).  Most draws have no Hopf point."""
    rng = random.Random(seed)
    while True:
        delta = 10.0 ** rng.uniform(-300.0, 300.0)
        beta0 = delta * 10.0 ** rng.uniform(-3.0, 3.0)
        n = 1.0 + 10.0 ** rng.uniform(-2.0, 2.5)
        yield n, beta0, delta, rng.uniform(1.0 + delta / beta0, 2.0)


def _verdict(draw):
    # (criticality, sign of mu') of the report at draw, or None where it refuses
    try:
        nf = hopf.criticality_report(hopf.hopf_from_pqk(*draw))
    except (ParameterError, NumericsError):
        return None
    return nf.criticality, nf.mu_prime > 0.0


def test_the_verdict_is_the_oracles_across_the_float_range():
    # 20,000 seed-1 draws; a report may refuse, but where it answers it gives
    # the verdict of the same dynamics in the unit where delta = 1
    answered = 0
    for draw in islice(audit_box(1), 20000):
        oracle = _verdict(_in_unit_delta_1(draw))
        verdict = _verdict(draw) if oracle is not None else None
        if verdict is not None:
            answered += 1
            assert verdict == oracle, draw
    assert answered > 3000


def test_the_second_l1_route_refuses_a_wrong_assembly(ref_hopf, monkeypatch):
    # f21 without its B3 term: the chain's l1 moves, the characteristic matrix's does not
    def f21_without_b3(tc, k, e_m, *w_values):
        return kernel(tc._replace(b3=0.0), k, e_m, *w_values)

    kernel = hopf._f21
    monkeypatch.setattr(hopf, "_f21", f21_without_b3)
    with pytest.raises(NumericsError, match=r"^l1 = -?\d.* by the Hassard chain and "
                                            r"-43\.7106330483012\d* from the characteristic "
                                            r"matrix disagree$"):
        hopf.criticality_report(ref_hopf)


def test_criticality_report_full_chain(ref_hopf):
    nf = hopf.criticality_report(ref_hopf)
    psi = nf.psi1_zero
    assert nf.f02 == nf.f20.conjugate()
    assert nf.f11.imag == 0.0
    for f, g in ((nf.f20, nf.g20), (nf.f11, nf.g11), (nf.f02, nf.g02), (nf.f21, nf.g21)):
        assert g == psi * f
    assert abs(nf.f21 - rv.F21_REF) < 1e-9
    assert abs(nf.g21 - rv.G21_REF) < 1e-9
    assert abs(nf.c - rv.C_REF) < 1e-9
    assert abs(nf.c1 - rv.C1_REF) < 1e-9
    assert nf.criticality == hopf.SUPERCRITICAL
    assert nf.s == -1
    assert nf.mu_prime > 0.0
    assert abs(nf.mu_prime - rv.MU_PRIME_REF) < 1e-9 * rv.MU_PRIME_REF
    residuals = _w_relation_residuals(
        ref_hopf,
        nf.g20,
        nf.g11,
        nf.g02,
        nf.f20,
        nf.f11,
        nf.w20_at_0,
        nf.w20_at_minus_r,
        nf.w11_at_0,
        nf.w11_at_minus_r,
    )
    assert max(residuals) < 1e-10


@pytest.mark.parametrize("args", OTHER_HOPF_ARGS)
def test_criticality_report_other_points(args):
    nf = hopf.criticality_report(hopf.hopf_from_pqk(*args))
    assert nf.criticality in (hopf.SUPERCRITICAL, hopf.SUBCRITICAL)
    assert nf.s == (-1 if nf.l1 < 0 else 1)


def test_criticality_sign_rule():
    # the verdict depends only on l1 relative to the size of its terms
    for scale in (1.0, 1e-17):
        assert hopf._criticality(-2.0 * scale, scale) == hopf.SUPERCRITICAL
        assert hopf._criticality(2.0 * scale, scale) == hopf.SUBCRITICAL
        assert hopf._criticality(5e-10 * scale, scale) == hopf.DEGENERATE
        assert hopf._criticality(-5e-10 * scale, scale) == hopf.DEGENERATE


#: (n, beta0, delta, k) of the first subcritical seed-1 frontier draw at two
#: adjacent floats k, found by bisecting k: the l1 = 0 point of the Hopf curve
#: lies between them
DEGENERATE_DRAWS = tuple((2.165199698072756, 2.4117795468749303, 0.03454971613025692, k)
                         for k in (1.171390120840788, 1.1713901208407882))


def test_l1_changes_sign_between_two_adjacent_floats_of_k():
    assert DEGENERATE_DRAWS[1][3] == math.nextafter(DEGENERATE_DRAWS[0][3], 2.0)
    below, above = (hopf.criticality_report(hopf.hopf_from_pqk(*draw))
                    for draw in DEGENERATE_DRAWS)
    assert below.l1 < 0.0 < above.l1
    assert below.criticality == above.criticality == hopf.DEGENERATE
    assert below.s == above.s == 0


# ------------------------------------------------ center manifold against the flow

#: delays above r* of the two probes on the attracting cycle
FLOW_PROBES = (5e-4, 2e-3)


@pytest.fixture(scope="module")
def cycle_projections(ref_hopf):
    """(u, z) at 600 even times over the last 3 periods of the cycle at r* + dr.

    t_end = 800 at the default steps per delay; u = x(t) - x2 with the
    probe's own x2, and z = <psi1, u_t> with psi1(s) = Psi1(0) e^{-i omega* s}
    of the Hopf point, paired over [-r*, 0].
    """
    hp = ref_hopf
    psi0, w = hopf.projection_weight(hp.p_star, hp.omega_star, hp.r_star), hp.omega_star
    psi1 = lambda s: psi0 * cmath.exp(-1j * w * s)
    projections = {}
    for dr in FLOW_PROBES:
        params = hp.params.with_r(hp.r_star + dr)
        traj = ddesim.integrate(params, ddesim.default_history(params.r), 800.0)
        x2 = model.equilibria(params).x2
        period = ddesim.orbit_metrics(traj).period
        times = np.linspace(traj.t[-1] - 3.0 * period, traj.t[-1], 600)
        u = np.array([traj.at(t) - x2 for t in times])
        z = np.array([pairing(psi1, lambda s: traj.at(t + s) - x2, hp) for t in times])
        projections[dr] = u, z
    return projections


def _flow_residuals(u, z, w20, w11):
    """max|z|, R0 = max|u - 2 Re z|, and R = max|u - 2 Re z - Re(w20 z^2) - w11|z|^2|."""
    linear = u - 2.0 * z.real
    quadratic = (w20 * z * z).real + (w11 * np.abs(z) ** 2).real
    return np.abs(z).max(), np.abs(linear).max(), np.abs(linear - quadratic).max()


def test_center_manifold_matches_the_flow(ref_hopf, cycle_projections):
    # The reduction puts the cycle on x_t - x2 = z phi1 + conj(z phi1) + w(z, conj z),
    # so at s = 0 the quadratic manifold terms must leave an O(|z|^3)
    # remainder.  Measured: R/|z|^3 = 1.42 and 0.95, R/R0 = 0.062 and
    # 0.143, exponent 2.57 (band fixed before measuring).
    nf = hopf.criticality_report(ref_hopf)
    (z1, lin1, rem1), (z2, lin2, rem2) = (
        _flow_residuals(*cycle_projections[dr], nf.w20_at_0, nf.w11_at_0)
        for dr in FLOW_PROBES
    )
    assert rem1 <= 2.5 * z1**3 and rem1 <= 0.1 * lin1
    assert rem2 <= 0.2 * lin2
    assert math.log(rem2 / rem1) / math.log(z2 / z1) >= 2.3


def test_center_manifold_flow_check_sees_a_missing_w11(ref_hopf, cycle_projections):
    # negative control: without w11(0), R/|z|^3 at r* + 5e-4 is 5.25
    nf = hopf.criticality_report(ref_hopf)
    z1, _, rem1 = _flow_residuals(*cycle_projections[FLOW_PROBES[0]], nf.w20_at_0, 0.0)
    assert rem1 > 2.5 * z1**3


# ------------------------------------------------------- route cross-validation


def test_two_routes_agree_on_other_sets():
    # tight brackets: these parameter sets have a second stability switch
    # not far above r*, so a wide bracket can straddle two crossings
    for args in OTHER_HOPF_ARGS:
        hp = hopf.hopf_from_pqk(*args)
        hp2 = hopf.find_hopf_r(hp.params, (0.98 * hp.r_star, 1.02 * hp.r_star))
        assert abs(hp.r_star - hp2.r_star) < 1e-8
