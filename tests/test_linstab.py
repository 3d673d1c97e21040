import cmath
import math

import numpy as np
import pytest

import refvals as rv
from hemohopf import linstab, model
from hemohopf.errors import BracketError, ConvergenceError, DomainError
from test_model import draw_valid_params


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
    # I.A stable: r inside (arccos(p/q) / omega0, 1 / |p|)
    ((1.77, 12.0, 0.05, 1.180746972, 0.35), linstab.StabilityVerdict(
        target="x2", case_label="I.A", status="stable", omega0=1.7878398009273984,
        stable_window=(0.33080633726128766, 0.40418399006305056),
        notes="g = 0.034315194169847074 > 0")),
    # I.A unstable: g < 0
    ((1.77, 12.0, 0.05, 1.180746972, 0.38), linstab.StabilityVerdict(
        target="x2", case_label="I.A", status="unstable", omega0=1.1082945611689423,
        stable_window=(0.5336385802804533, 0.40418399006305056),
        notes="g = -0.17027680291054426 < 0")),
    # I.B stable: r below arccos(p/q) / omega0
    ((1.0, 2.0, 0.1, 1.25, 10.0), linstab.StabilityVerdict(
        target="x2", case_label="I.B", status="stable", omega0=0.16886826899584778,
        stable_window=(0.0, 10.494299835742392),
        notes="g = -0.08347155762674952 < 0")),
    # I.B unstable: g > 0
    ((1.0, 2.0, 0.1, 1.25, 50.0), linstab.StabilityVerdict(
        target="x2", case_label="I.B", status="unstable", omega0=0.040575156762208735,
        stable_window=(0.0, 43.67584475325534),
        notes="g = 0.2566035905252093 > 0")),
    # I.B with p > |q|: stable for every delay, no frontier
    ((1.77, 12.0, 0.5, 1.309, 0.2), linstab.StabilityVerdict(
        target="x2", case_label="I.B", status="stable",
        notes="p = 0.4519826377738852 > |q| = 0.06285472715398428: "
              "stable for every delay")),
])
def test_classify_x2_whole_verdict(args, expected):
    assert linstab.classify_x2(model.ModelParameters.from_k(*args)) == expected


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
    from hemohopf.errors import NoPositiveEquilibriumError

    with pytest.raises(NoPositiveEquilibriumError):
        linstab.g_of_r(1.1 * r_max, ref_params)


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


def _non_boundary_draws(count, seed=7121):
    """Random x2 triples and verdicts kept at least 1e-6 from every
    boundary locus of the case classification."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        p = draw_valid_params(rng)
        t = linstab.characteristic_triple(p)
        b1 = t.q / p.k
        margins = [abs(b1), abs(t.p), abs(abs(t.p) - abs(t.q)), abs(t.r * abs(t.p) - 1.0)]
        if b1 < 0 and t.p < 0 and t.r * abs(t.p) < 1.0 and abs(t.p) < abs(t.q):
            margins.append(abs(linstab.omega0(t) * t.r - math.acos(t.p / t.q)))
        if b1 < 0 and 0 < t.p <= abs(t.q):
            margins.append(abs(linstab.omega0(t) * t.r - math.acos(max(t.p / t.q, -1.0))))
        if min(margins) < 1e-6:
            continue
        draws.append((p, t, linstab.classify_x2(p)))
    return draws


def test_classifier_agrees_with_root_oracle():
    """Sign of the rightmost root matches the case classification on a
    randomized sweep, away from marginal boundaries."""
    statuses = set()
    for p, t, verdict in _non_boundary_draws(1000):
        root = linstab.rightmost_root(t)
        assert verdict.status in (linstab.STABLE, linstab.UNSTABLE)
        assert (root.real < 0) == (verdict.status == linstab.STABLE), (
            f"params={p} verdict={verdict} root={root}"
        )
        statuses.add((verdict.case_label, verdict.status))
    assert len(statuses) >= 3  # the sweep exercises several regimes


def test_rightmost_root_matches_scipy_lambertw():
    special = pytest.importorskip("scipy.special")
    triples = [t for _, t, _ in _non_boundary_draws(1000)]
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


def test_bracketed_root_simple():
    root = linstab.bracketed_root(math.cos, 1.0, 2.0, f_tol=1e-13)
    assert abs(root - math.pi / 2.0) < 1e-12


def test_bracketed_root_requires_sign_change():
    with pytest.raises(BracketError):
        linstab.bracketed_root(math.cos, 0.2, 1.0, f_tol=1e-13)


def test_bracketed_root_rejects_degenerate():
    with pytest.raises(BracketError):
        linstab.bracketed_root(math.cos, 1.0, 1.0, f_tol=1e-13)


def test_classify_x2_delay_free_limit():
    # r = 0 keeps x2 alive when beta0 > delta; the single eigenvalue is q - p
    p = model.ModelParameters.from_gamma(1.77, 12.0, 0.05, 1.0, 0.0)
    v = linstab.classify_x2(p)
    assert v.status == linstab.STABLE
    assert v.case_label in (linstab.CASE_IA, linstab.CASE_IB, linstab.CASE_II)
