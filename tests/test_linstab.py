import cmath
import math
import random
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import refvals as rv
from hemohopf import hopf, linstab, model
from hemohopf.errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NoPositiveEquilibriumError,
    ParameterError,
)
from test_hopf import (
    MOVED_DELAY_CONFIGS,
    moved_delay_outcome,
    moved_delays,
    reference_g_of_r,
)
from test_model import draw_valid_params

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def ref_triple():
    return linstab.CharacteristicTriple(p=rv.P_REF, q=rv.Q_REF, r=rv.R_REF)


def printed_triple():
    return linstab.CharacteristicTriple(p=rv.P_PRINT, q=rv.Q_PRINT, r=rv.R_PRINT)


# ---------------------------------------------------------------- char_value


def test_char_value_zero_root_at_p_equals_q():
    t = linstab.CharacteristicTriple(p=-1.3, q=-1.3, r=0.7)
    assert linstab.char_value(0.0, t) == 0.0


def test_char_value_vanishes_at_quoted_crossing():
    val = linstab.char_value(1j * rv.OMEGA_PRINT, printed_triple())
    assert abs(val) < 1e-6


def test_char_value_quarter_period_boundary():
    r = 0.7
    q = -math.pi / (2.0 * r)
    t = linstab.CharacteristicTriple(p=0.0, q=q, r=r)
    val = linstab.char_value(1j * math.pi / (2.0 * r), t)
    assert abs(val) < 1e-15


def test_char_value_conjugate_symmetry():
    t = ref_triple()
    for lam in (0.3 + 1.2j, -0.5 + 4.7j, 2.0 - 0.1j):
        assert linstab.char_value(lam.conjugate(), t) == linstab.char_value(
            lam, t
        ).conjugate()


# ------------------------------------------------------------------ T and ω0


def test_T_eval_values():
    assert linstab.T_eval(0.0) == 1.0
    assert abs(linstab.T_eval(math.pi / 2.0)) < 1e-15
    assert abs(linstab.T_eval(0.59143) - rv.T_AT_059143) < 1e-12


def test_T_eval_domain():
    for y in (-0.1, math.pi, 4.0):
        with pytest.raises(DomainError):
            linstab.T_eval(y)


def test_T_inv_values():
    assert linstab.T_inv(1.0) == 0.0
    assert abs(linstab.T_inv(0.0) - math.pi / 2.0) < 1e-13
    assert abs(linstab.T_inv(0.88058) - rv.TINV_AT_088058) < 1e-10


def test_T_inv_domain():
    with pytest.raises(DomainError):
        linstab.T_inv(1.0 + 1e-9)


def test_T_roundtrip():
    for y in np.arange(0.0, 3.1001, 0.1):
        v = linstab.T_eval(float(y))
        assert abs(linstab.T_inv(v) - y) < 1e-10


def test_omega0_quarter_period_when_p_zero():
    t = linstab.CharacteristicTriple(p=0.0, q=-2.0, r=0.8)
    assert abs(linstab.omega0(t) - math.pi / (2.0 * 0.8)) < 1e-12


def test_omega0_reference_triple():
    w0 = linstab.omega0(ref_triple())
    assert abs(w0 - rv.OMEGA_REF) < 1e-9
    assert abs(w0 - rv.OMEGA_PRINT) < 5e-7
    assert abs(w0 * math.cos(w0 * rv.R_REF) / math.sin(w0 * rv.R_REF) + rv.P_REF) < 1e-10


def test_omega0_defining_residual():
    t = linstab.CharacteristicTriple(p=-1.0, q=-3.0, r=0.5)
    w0 = linstab.omega0(t)
    assert abs(w0 * math.cos(w0 * t.r) / math.sin(w0 * t.r) + t.p) < 1e-10


def test_omega0_out_of_domain():
    t = linstab.CharacteristicTriple(p=-3.0, q=-4.0, r=0.5)  # r|p| = 1.5
    with pytest.raises(DomainError):
        linstab.omega0(t)


# -------------------------------------------------------------- classifiers


def test_classify_x1_unstable_when_x2_exists(ref_params):
    v = linstab.classify_x1(ref_params)
    assert v.status == linstab.UNSTABLE
    assert v.case_label == linstab.CASE_X1


def test_classify_x1_stable_when_single_equilibrium():
    p = model.ModelParameters.from_gamma(1.77, 12.0, 0.05, 1.0, math.log(2.0))
    assert linstab.classify_x1(p).status == linstab.STABLE


def test_classify_x1_marginal_at_threshold():
    k = 1.0 + rv.DELTA / rv.BETA0
    p = model.ModelParameters.from_k(rv.BETA0, rv.N, rv.DELTA, k, 0.3)
    assert linstab.classify_x1(p).status == linstab.MARGINAL


def test_classify_x2_reference_delays(ref_params):
    stable = linstab.classify_x2(ref_params.with_r(0.35))
    assert (stable.case_label, stable.status) == (linstab.CASE_IA, linstab.STABLE)
    unstable = linstab.classify_x2(ref_params.with_r(0.36))
    assert (unstable.case_label, unstable.status) == (
        linstab.CASE_IA,
        linstab.UNSTABLE,
    )


def test_classify_x2_marginal_on_crossing(ref_params, ref_hopf):
    from hemohopf import hopf

    located = hopf.find_hopf_r(ref_params, (0.30, 0.40))
    v = linstab.classify_x2(ref_params.with_r(located.r_star))
    assert v.case_label == linstab.CASE_IA
    assert v.status == linstab.MARGINAL


def test_classify_x2_positive_b1_regime(ref_params):
    report = model.equilibria(ref_params)
    r = 0.5 * (report.r_n + report.r_max)
    v = linstab.classify_x2(ref_params.with_r(r))
    assert (v.case_label, v.status) == (linstab.CASE_II, linstab.STABLE)


def test_classify_x2_degenerate_b1(ref_params):
    r_n = model.equilibria(ref_params).r_n
    v = linstab.classify_x2(ref_params.with_r(r_n))
    assert (v.case_label, v.status) == (linstab.CASE_B1_ZERO, linstab.STABLE)


def _bisect_b1_level(params, target, lo, hi):
    # find r with B1(r) = target on [lo, hi]; B1 increases toward r_n
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if model.equilibria(params.with_r(mid)).B1_at_x2 < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_classify_x2_small_positive_p_branch(ref_params):
    r_n = model.equilibria(ref_params).r_n
    r = _bisect_b1_level(ref_params, -0.5 * rv.DELTA, 0.35, r_n)
    v = linstab.classify_x2(ref_params.with_r(r))
    assert (v.case_label, v.status) == (linstab.CASE_IB, linstab.STABLE)


def test_classify_x2_p_dominates_q_branch():
    p = model.ModelParameters.from_k(1.77, 12.0, 0.5, 1.309, 0.2)
    v = linstab.classify_x2(p)
    assert (v.case_label, v.status) == (linstab.CASE_IB, linstab.STABLE)
    assert "stable for every delay" in v.notes


@pytest.mark.parametrize("args, expected", [
    # I.A stable: r below r0 = arccos(p/q) / omega*
    ((1.77, 12.0, 0.05, 1.180746972, 0.35), linstab.StabilityVerdict(
        target="x2", case_label="I.A", status="stable", omega0=1.6616859904130086,
        stable_window=(0.0, 0.3559208776910636),
        notes="r < r0 = 0.3559208776910636")),
    # I.A unstable: r above r0 (p and q depend on k only, so r0 is the same)
    ((1.77, 12.0, 0.05, 1.180746972, 0.38), linstab.StabilityVerdict(
        target="x2", case_label="I.A", status="unstable", omega0=1.6616859904130086,
        stable_window=(0.0, 0.3559208776910636),
        notes="r > r0 = 0.3559208776910636")),
    # I.B stable: r below r0
    ((1.0, 2.0, 0.1, 1.25, 10.0), linstab.StabilityVerdict(
        target="x2", case_label="I.B", status="stable", omega0=0.09797958971132713,
        stable_window=(0.0, 18.086973550373564),
        notes="r < r0 = 18.086973550373564")),
    # I.B unstable: r above r0
    ((1.0, 2.0, 0.1, 1.25, 50.0), linstab.StabilityVerdict(
        target="x2", case_label="I.B", status="unstable", omega0=0.09797958971132713,
        stable_window=(0.0, 18.086973550373564),
        notes="r > r0 = 18.086973550373564")),
    # I.B with p > |q|: no root crosses, stable for every delay
    ((1.77, 12.0, 0.5, 1.309, 0.2), linstab.StabilityVerdict(
        target="x2", case_label="I.B", status="stable",
        stable_window=(0.0, math.inf),
        notes="p >= -q: r0 = inf, stable for every delay")),
])
def test_classify_x2_whole_verdict(args, expected):
    assert linstab.classify_x2(model.ModelParameters.from_k(*args)) == expected


def test_p_minus_q_is_positive_wherever_x2_exists():
    # p - q = delta - (k - 1) B1 = delta n (A - 1) / A: with q < 0 this puts
    # p/q below 1, so the crossing delay r0 has no third region
    rng = np.random.default_rng(4417)
    for _ in range(2000):
        params = draw_valid_params(rng)
        t = linstab.characteristic_triple(params)
        A = params.A
        identity = params.delta * params.n * (A - 1.0) / A
        assert t.p - t.q > 0.0
        assert abs((t.p - t.q) - identity) <= 1e-12 * (abs(t.p) + abs(t.q) + params.delta)


#: the reference config at fixed gamma and its two crossings, rounded
#: outward to the interior of each interval (r_max = 0.44932)
GAMMA_REF_INTERVALS = [
    ((0.0, 0.35592), linstab.STABLE),
    ((0.35593, 0.44421), linstab.UNSTABLE),
    ((0.44422, 0.44931), linstab.STABLE),
]


@pytest.mark.parametrize("interval, status", GAMMA_REF_INTERVALS)
def test_classify_x2_switches_twice_at_fixed_gamma(interval, status):
    params = model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA, rv.GAMMA_PRINT, 0.36)
    lo, hi = interval
    for frac in (0.01, 0.25, 0.5, 0.75, 0.99):
        local = params.with_r(lo + frac * (hi - lo))
        assert linstab.classify_x2(local).status == status
        root = linstab.rightmost_root(linstab.characteristic_triple(local))
        assert (root.real < 0.0) == (status == linstab.STABLE)


def test_classify_x2_p_zero_boundary(ref_params):
    r_n = model.equilibria(ref_params).r_n
    r = _bisect_b1_level(ref_params, -rv.DELTA, 0.35, r_n)
    v = linstab.classify_x2(ref_params.with_r(r))
    assert (v.case_label, v.status) == (linstab.CASE_P0, linstab.STABLE)


# ---------------------------------------------------------------------- g(r)


def test_g_reference_values(ref_params):
    assert abs(linstab.g_of_r(0.35, ref_params) - rv.G_035) < 1e-9
    assert abs(linstab.g_of_r(0.36, ref_params) - rv.G_036) < 1e-9
    assert linstab.g_of_r(0.35, ref_params) > 0.0
    assert linstab.g_of_r(0.36, ref_params) < 0.0
    assert abs(linstab.g_of_r(rv.R_REF, ref_params)) < 1e-9


def test_g_slope_matches_quoted_value(ref_params):
    h = 1e-6
    slope = (
        linstab.g_of_r(rv.R_REF + h, ref_params)
        - linstab.g_of_r(rv.R_REF - h, ref_params)
    ) / (2.0 * h)
    assert abs(slope - rv.DG_DR_FD_REF) < 1e-6 * abs(rv.DG_DR_FD_REF)
    assert abs(slope - rv.DG_DR_PRINT) < 0.005 * abs(rv.DG_DR_PRINT)


def test_g_sign_tracks_stability_near_crossing(ref_params):
    for r in np.linspace(0.34, 0.365, 11):
        g = linstab.g_of_r(float(r), ref_params)
        status = linstab.classify_x2(ref_params.with_r(float(r))).status
        if abs(g) < 1e-9:
            continue
        assert status == (linstab.STABLE if g > 0 else linstab.UNSTABLE)


def test_g_domain_error_names_subterm(ref_params):
    # at r = 0.40 the equilibrium still exists but r|p| > 1: no crossing
    # frequency, so the T_inv subterm is out of domain
    with pytest.raises(DomainError, match="T_inv"):
        linstab.g_of_r(0.40, ref_params)
    v = linstab.classify_x2(ref_params.with_r(0.40))
    assert v.status == linstab.UNSTABLE  # classification handles the regime


def test_g_requires_equilibrium(ref_params):
    r_max = model.equilibria(ref_params).r_max
    with pytest.raises(NoPositiveEquilibriumError):
        linstab.g_of_r(1.1 * r_max, ref_params)


@pytest.mark.parametrize("name", MOVED_DELAY_CONFIGS)
def test_g_is_the_reference_to_the_bit(name):
    params = MOVED_DELAY_CONFIGS[name]
    classes = set()
    for r in moved_delays(params):
        outcome = moved_delay_outcome(linstab.g_of_r, r, params)
        assert outcome == moved_delay_outcome(reference_g_of_r, r, params), r
        if isinstance(outcome, tuple):
            classes.add(outcome[0])
    # every grid reaches r <= 0, x2 absent and a subterm out of domain
    assert {DomainError, NoPositiveEquilibriumError} <= classes


def test_g_refuses_the_near_float_limit_config_by_stage():
    params = MOVED_DELAY_CONFIGS["near-float-limit"]
    with pytest.raises(ParameterError, match=r"A = beta0 \(k - 1\)/delta must be finite"):
        linstab.g_of_r(1e-3, params)
    with pytest.raises(DomainError, match="p, q must be finite, got p=nan, q=nan"):
        linstab.g_of_r(0.1, params)


# ------------------------------------------------------------ root polishing


def test_newton_polishes_crossing_root():
    t = ref_triple()
    root = linstab.char_root_newton(1j * rv.OMEGA_REF, t)
    assert abs(root.real) < 1e-9
    assert abs(linstab.char_value(root, t)) < 1e-12


def test_newton_delay_free_case():
    t = linstab.CharacteristicTriple(p=2.0, q=-0.7, r=0.0)
    for guess in (0.0, 5.0 + 3.0j, -1.0 - 1.0j):
        root = linstab.char_root_newton(guess, t)
        assert abs(root - (t.q - t.p)) < 1e-12


def test_newton_conjugate_guess_gives_conjugate_root():
    t = ref_triple()
    root = linstab.char_root_newton(0.1 + 1.5j, t)
    conj_root = linstab.char_root_newton(0.1 - 1.5j, t)
    assert abs(conj_root - root.conjugate()) < 1e-10


def test_newton_rejects_non_finite_guess():
    with pytest.raises(DomainError):
        linstab.char_root_newton(complex(float("nan"), 0.0), ref_triple())


def test_rightmost_root_on_crossing(ref_params, ref_hopf):
    t = ref_hopf.triple
    root = linstab.rightmost_root(t)
    assert abs(root.real) < 1e-10
    assert abs(root.imag - rv.OMEGA_REF) < 1e-10
    # the check `hopf` prints: r* is the first crossing of its own (p*, q*), so
    # W0 carries +-i omega* at both reference gamma crossings and at seeded
    # draws of the frontier box
    gamma = model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA, 1.48067, 0.36)
    points = [ref_hopf, hopf.find_hopf_r(gamma, (0.30, 0.40)),
              hopf.find_hopf_r(gamma, (0.40, 0.449))]
    assert [round(hp.r_star, 5) for hp in points[1:]] == [0.35592, 0.44421]
    rng = random.Random(1)
    while len(points) < 303:
        draw = (rng.uniform(2.0, 20.0), rng.uniform(0.5, 3.0),
                rng.uniform(0.01, 0.3), rng.uniform(1.0, 2.0))
        try:
            points.append(hopf.hopf_from_pqk(*draw))
        except ParameterError:
            continue  # outside the regime A > 1, B1 < 0, |q| > |p|
    for hp in points:
        root = linstab.rightmost_root(hp.triple)
        assert abs(root - 1j * hp.omega_star) <= 1e-12 * hp.omega_star


def test_rightmost_root_tracks_stability(ref_params):
    for r, expected in ((0.35, rv.ROOT_035), (0.36, rv.ROOT_036)):
        t = linstab.characteristic_triple(ref_params.with_r(r))
        root = linstab.rightmost_root(t)
        assert abs(root - expected) < 1e-10
        status = linstab.classify_x2(ref_params.with_r(r)).status
        assert (root.real < 0) == (status == linstab.STABLE)


def test_rightmost_root_special_cases():
    # q = 0: the equation is lam + p = 0
    assert linstab.rightmost_root(linstab.CharacteristicTriple(1.5, 0.0, 2.0)) == -1.5
    # p = q: lam = 0 is a root, and z = q r e^{q r} = -1/e makes it the double
    # root at the branch point when q r = -1
    root = linstab.rightmost_root(linstab.CharacteristicTriple(-0.5, -0.5, 2.0))
    assert abs(root) < 1e-7
    # q r = -pi/2 with p = 0: the pure-imaginary pair +-i pi / (2 r)
    root = linstab.rightmost_root(linstab.CharacteristicTriple(0.0, -math.pi / 1.4, 0.7))
    assert abs(root - 1j * math.pi / 1.4) < 1e-12
    with pytest.raises(DomainError):
        linstab.rightmost_root(linstab.CharacteristicTriple(1.0, 1.0, 0.0))


def test_rightmost_root_refuses_an_uncertified_result():
    # p r overflows; or the root is finite but exp(-lam r) in the residual
    # overflows (q is the smallest subnormal): neither can be certified
    for p, q, r in ((1e300, -1.0, 1e10), (745.4, 5e-324, 1.0)):
        with pytest.raises(ConvergenceError):
            linstab.rightmost_root(linstab.CharacteristicTriple(p, q, r))


def non_boundary_draws(count, seed=7121):
    """Random x2 triples and verdicts kept at least 1e-6 r0 from the
    crossing delay r0 = classify_x2(p).stable_window[1], the one delay
    where the verdict changes."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        p = draw_valid_params(rng)
        verdict = linstab.classify_x2(p)
        r0 = verdict.stable_window[1]
        if abs(p.r - r0) < 1e-6 * r0:
            continue
        draws.append((p, linstab.characteristic_triple(p), verdict))
    return draws


def test_classifier_agrees_with_root_oracle():
    """Sign of the rightmost root matches the case classification on a
    randomized sweep, away from marginal boundaries."""
    statuses = set()
    for p, t, verdict in non_boundary_draws(1000):
        root = linstab.rightmost_root(t)
        assert verdict.status in (linstab.STABLE, linstab.UNSTABLE)
        assert (root.real < 0) == (verdict.status == linstab.STABLE), (
            f"params={p} verdict={verdict} root={root}"
        )
        statuses.add((verdict.case_label, verdict.status))
    assert len(statuses) >= 3  # the sweep exercises several regimes


def test_rightmost_root_matches_scipy_lambertw():
    special = pytest.importorskip("scipy.special")
    triples = [t for _, t, _ in non_boundary_draws(1000)]
    # the three starting-guess regions of the W_0 iteration, each sign of z
    for z in (-0.87, -0.5, -0.3, -0.05, -1e-12, -1e-20, 1e-20, 1e-12, 0.3, 1.0, 2.5,
              40.0, -40.0):
        triples.append(linstab.CharacteristicTriple(p=0.0, q=z / 1.3, r=1.3))
    for p, q, r in ((3.0, -2.0, 250.0), (3.0, 2.0, 250.0), (-3.0, -2.0, 250.0)):
        triples.append(linstab.CharacteristicTriple(p, q, r))
    for t in triples:
        root = linstab.rightmost_root(t)
        if t.p * t.r > 700.0:
            # z overflows a float; W_0(z) solves w + log w = log z instead
            w = (root + t.p) * t.r
            log_z = complex(math.log(abs(t.q) * t.r) + t.p * t.r, math.pi * (t.q < 0))
            assert abs(w + cmath.log(w) - log_z) < 1e-12 * abs(log_z)
            assert abs(linstab.char_value(root, t)) < 1e-10 * (abs(root) + abs(t.p) + abs(t.q))
            continue
        z = t.q * t.r * math.exp(t.p * t.r)
        expected = -t.p + complex(special.lambertw(z, 0)) / t.r
        if expected.imag < 0.0:
            expected = expected.conjugate()
        assert abs(root - expected) <= 1e-12 * max(abs(expected), abs(t.p), abs(t.q)), t


# ------------------------------------------------------------ bracketed root


# f_tol counts units in the last place of the iterate; near pi/2 an ulp is
# ulp(1.5), so this stops where |cos| < 1e-13
_COS_F_TOL = 1e-13 / math.ulp(1.5)


def test_bracketed_root_simple():
    root = linstab.bracketed_root(math.cos, 1.0, 2.0, f_tol=_COS_F_TOL)
    assert abs(root - math.pi / 2.0) < 1e-12


def test_bracketed_root_requires_sign_change():
    with pytest.raises(BracketError):
        linstab.bracketed_root(math.cos, 0.2, 1.0, f_tol=1e-13)


def test_bracketed_root_rejects_degenerate():
    with pytest.raises(BracketError):
        linstab.bracketed_root(math.cos, 1.0, 1.0, f_tol=1e-13)


def _counted(func):
    calls = []

    def wrapped(x):
        calls.append(x)
        return func(x)

    return wrapped, calls


def test_bracketed_root_closes_both_ends():
    # polished to the bracket width; regula falsi keeping one end fixed
    # took 44 evaluations here, Illinois closes in from both sides
    cos, calls = _counted(math.cos)
    root = linstab.bracketed_root(cos, 1.0, 2.0, f_tol=0.0)
    assert abs(root - math.pi / 2.0) <= 2.0 * math.ulp(math.pi / 2.0)
    assert len(calls) <= 8


def test_bracketed_root_reuses_known_endpoint_values():
    cos, calls = _counted(math.cos)
    root = linstab.bracketed_root(cos, 2.0, 1.0, f_tol=_COS_F_TOL,
                                  fa=math.cos(2.0), fb=math.cos(1.0))
    assert abs(root - math.pi / 2.0) < 1e-12
    assert 1.0 not in calls and 2.0 not in calls
    assert len(calls) <= 4  # 6 when both ends were evaluated again


def test_bracketed_root_stops_on_a_relative_width():
    # at a root near 62.8 an ulp is 7e-15, so an absolute width of 1e-15
    # is never reached; the search must still end, within a few ulps
    root = linstab.bracketed_root(lambda x: math.cos(x / 40.0), 40.0, 80.0, f_tol=0.0)
    assert abs(root - 20.0 * math.pi) <= 8.0 * math.ulp(20.0 * math.pi)


def test_bracketed_root_steps_from_the_nearer_end_of_a_wide_bracket():
    # |f(b)| >> |f(a)|: the secant step from b overflows here (f(b) b = -inf)
    # or rounds onto a = 0; the step from the end of smaller |f| does neither
    for ends, f_tol in (((0.0, 1e300), 4.0), ((1e300, 0.0), 0.0)):
        f, calls = _counted(lambda x: 1.158 - x)
        root = linstab.bracketed_root(f, *ends, f_tol=f_tol)
        assert abs(root - 1.158) <= 4.0 * math.ulp(1.158), ends
        assert len(calls) <= 4, ends


def test_bracketed_root_closes_brackets_300_decades_wide():
    # f(x) = r0 - x on (0, b), r0 anywhere in 1e-300..1e300 and b up to
    # 300 decades above it, as the climb's bracket end u/gamma at a tiny gamma
    rng = random.Random(1)
    for _ in range(3000):
        e = rng.uniform(-300.0, 300.0)
        r0, b = 10.0 ** e, 10.0 ** (e + rng.uniform(0.0, min(300.0, 308.0 - e)))
        for f_tol in (4.0, 0.0):
            f, calls = _counted(lambda x: r0 - x)
            root = linstab.bracketed_root(f, 0.0, b, f_tol=f_tol)
            assert abs(root - r0) <= 4.0 * math.ulp(r0), (r0, b, f_tol)
            assert len(calls) <= 4, (r0, b, f_tol)


def _reference_illinois(func, a, b, f_tol, *, fa=None, fb=None):
    # bracketed_root as it was when its loop stored f, not |f|, at each end and
    # named the end kept last: the reference its iterates are held to, bit for bit
    if not (math.isfinite(a) and math.isfinite(b)) or a == b:
        raise BracketError(f"degenerate bracket ({a}, {b})")
    if a > b:
        a, b, fa, fb = b, a, fb, fa
    if fa is None:
        fa = func(a)
    if fb is None:
        fb = func(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(
            f"no sign change on bracket ({a}, {b}): f(a)={fa}, f(b)={fb}"
        )
    x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    kept = None
    for _ in range(200):
        if abs(fx) < f_tol * math.ulp(x) or b - a <= 4.0 * 2.0**-52 * max(abs(a), abs(b)):
            return x
        near, f_near = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        c = near + (b - a) * (f_near / (fa - fb))
        if (c == a or c == b) and math.isfinite(fa) and math.isfinite(fb):
            c = math.nextafter(a, b) if c == a else math.nextafter(b, a)
        if not a < c < b:
            c = 0.5 * (a + b)
        fc = func(c)
        if fc == 0.0:
            return c
        if abs(fc) < abs(fx):
            x, fx = c, fc
        if math.copysign(1.0, fc) == math.copysign(1.0, fa):
            a, fa = c, fc
            if kept == "b":
                fb *= 0.5
            kept = "b"
        else:
            b, fb = c, fc
            if kept == "a":
                fa *= 0.5
            kept = "a"
    raise ConvergenceError(
        f"bracketed root search exhausted 200 iterations at |f| = {abs(fx)}",
        last_iterate=x,
    )


def _illinois_run(search, func, a, b, f_tol, **ends):
    """(the repr of the point returned, or the refusal's class and message;
    the reprs of the points `func` was called at, in order)."""
    calls = []

    def traced(x):
        calls.append(repr(x))
        return func(x)

    try:
        result = repr(search(traced, a, b, f_tol, **ends))
    except (BracketError, ConvergenceError) as exc:
        result = (type(exc), str(exc), repr(getattr(exc, "last_iterate", None)))
    return result, calls


def _illinois_cases():
    """(func, a, b, f_tol, ends) on which `bracketed_root` must take the
    reference's path."""
    for f_tol in (_COS_F_TOL, 0.0):
        yield math.cos, 1.0, 2.0, f_tol, {}
        yield math.cos, 2.0, 1.0, f_tol, {"fa": math.cos(2.0), "fb": math.cos(1.0)}
    yield math.cos, 1, 2, 0.0, {}  # int ends
    rng = random.Random(1)
    for _ in range(300):  # brackets up to 300 decades wide, as at a tiny gamma
        e = rng.uniform(-300.0, 300.0)
        r0, b = 10.0 ** e, 10.0 ** (e + rng.uniform(0.0, min(300.0, 308.0 - e)))
        for f_tol in (4.0, 0.0):
            yield (lambda x, r0=r0: r0 - x), 0.0, b, f_tol, {}
    # infinite end values, as D = +inf where x2 is absent or no root crosses
    line = lambda x: 1.0 - x  # noqa: E731
    yield line, 0.5, 3.0, 4.0, {"fa": math.inf}
    yield line, 0.0, 2.0, 0.0, {"fb": -math.inf}
    yield line, 0.0, 2.0, 0.0, {"fa": math.inf, "fb": -math.inf}
    yield line, 3.0, 0.25, 4.0, {"fa": -math.inf, "fb": math.inf}
    # a jump, which Illinois closes to the bracket's rounding width, and a gap of nan
    yield (lambda x: -1.0 if x > 0.7 else 2.0), 0.0, 1.0, 4.0, {}
    yield (lambda x: math.nan if 0.4 < x < 0.6 else 0.5 - x), 0.0, 1.0, 0.0, {}
    # |f| equal at both ends, ends below and around 0
    yield (lambda x: 0.3 - x), 0.0, 0.6, 0.0, {}
    yield (lambda x: x), -1.0, 1.0, 4.0, {}
    yield math.cos, -2.0, -1.0, 0.0, {}
    yield (lambda x: x - 0.3), -1e-3, 7.0, 4.0, {}
    # 308 decades: the share underflows, and the halved end values with it,
    # until the iterations are exhausted (or a subnormal root is met)
    for r0 in (0.3, 1e-300, 1e-320, 5e-324):
        for f_tol in (4.0, 0.0):
            yield (lambda x, r0=r0: r0 - x), 0.0, 1e308, f_tol, {}
    # D on frontier draws, from the two bracket ends find_hopf_r evaluates first
    for draw in islice(workloads.frontier_draws(1), 200):
        try:
            hp = hopf.hopf_from_pqk(*draw)
        except ParameterError:
            continue
        mismatch = lambda r, prm=hp.params: hopf._mismatch(  # noqa: E731
            prm.beta0, prm.n, prm.delta, prm.gamma, {}, r)
        r_max = model.equilibria(hp.params).r_max
        for low in (0.9, 0.93):
            a, b = low * hp.r_star, min(1.1 * hp.r_star, 0.999 * r_max)
            ends = {"fa": hopf.frontier_mismatch(a, hp.params),
                    "fb": hopf.frontier_mismatch(b, hp.params)}
            yield mismatch, a, b, 4.0, ends


def test_bracketed_root_takes_the_reference_iterates_to_the_bit():
    cases = 0
    for func, a, b, f_tol, ends in _illinois_cases():
        expected = _illinois_run(_reference_illinois, func, a, b, f_tol, **ends)
        assert _illinois_run(linstab.bracketed_root, func, a, b, f_tol, **ends) == expected, (
            a, b, f_tol, ends)
        cases += 1
    assert cases > 1000


def test_classify_x2_delay_free_limit():
    # r = 0 keeps x2 alive when beta0 > delta; the single eigenvalue is q - p
    p = model.ModelParameters.from_gamma(1.77, 12.0, 0.05, 1.0, 0.0)
    v = linstab.classify_x2(p)
    assert v.status == linstab.STABLE
    assert v.case_label in (linstab.CASE_IA, linstab.CASE_IB, linstab.CASE_II)
