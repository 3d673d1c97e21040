import cmath
import math

import pytest

import refvals as rv
from hemohopf import hopf, linstab, model
from hemohopf.errors import (
    BracketError,
    NoImaginaryCrossingError,
    NoPositiveEquilibriumError,
    ResonanceError,
)

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


def test_find_hopf_r_bracket_errors(ref_params):
    with pytest.raises(BracketError):
        hopf.find_hopf_r(ref_params, (0.36, 0.40))  # g < 0 throughout
    with pytest.raises(BracketError):
        hopf.find_hopf_r(ref_params, (0.35, 0.35))


# -------------------------------------------------------------- transversality


def test_transversality_reference(ref_hopf):
    mu_p, om_p = hopf.transversality(ref_hopf)
    assert abs(mu_p - rv.MU_PRIME_REF) < 1e-9 * abs(rv.MU_PRIME_REF)
    assert abs(om_p - rv.OMEGA_PRIME_REF) < 1e-9 * abs(rv.OMEGA_PRIME_REF)
    assert abs(mu_p - rv.MU_PRIME_PRINT) < 0.005 * rv.MU_PRIME_PRINT


def test_transversality_matches_root_tracking(ref_hopf, ref_params):
    mu_p, om_p = hopf.transversality(ref_hopf)
    h = 1e-5
    lams = []
    for r in (ref_hopf.r_star - h, ref_hopf.r_star + h):
        triple = linstab.characteristic_triple(ref_params.with_r(r))
        lams.append(
            linstab.char_root_newton(1j * ref_hopf.omega_star, triple, tol=1e-13)
        )
    mu_fd = (lams[1].real - lams[0].real) / (2.0 * h)
    om_fd = (lams[1].imag - lams[0].imag) / (2.0 * h)
    assert abs(mu_fd - mu_p) < 1e-3 * abs(mu_p)
    assert abs(om_fd - om_p) < 1e-3 * abs(om_p)


# ------------------------------------------------------- projection / pairing


def test_psi1_zero_reference(ref_hopf):
    psi = hopf.psi1_zero(ref_hopf)
    assert abs(psi - rv.PSI1_REF) < 1e-12


def test_projection_weight_short_delay_limit():
    assert abs(hopf.projection_weight(-2.5, 1.7, 1e-14) - 1.0) < 1e-12


def test_projection_weight_conjugate_symmetry(ref_hopf):
    # the companion row of the projection is the conjugate of the first
    p, w, r = ref_hopf.p_star, ref_hopf.omega_star, ref_hopf.r_star
    assert hopf.projection_weight(p, -w, r) == hopf.projection_weight(p, w, r).conjugate()


def _eigendata(hp):
    w = hp.omega_star
    phi1 = lambda s: cmath.exp(1j * w * s)
    phi2 = lambda s: cmath.exp(-1j * w * s)
    psi1 = lambda z: cmath.exp(1j * w * z)
    psi2 = lambda z: cmath.exp(-1j * w * z)
    return phi1, phi2, psi1, psi2


@pytest.mark.parametrize("m", [64, 128, 256])
def test_gauss_legendre_rule_matches_numpy(m):
    np = pytest.importorskip("numpy")
    nodes, weights = hopf._gauss_legendre(m)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(m)
    assert len(nodes) == len(weights) == m
    assert np.max(np.abs(np.asarray(nodes) - ref_nodes)) < 1e-14
    assert np.max(np.abs(np.asarray(weights) - ref_weights)) < 1e-14


def test_pairing_matches_closed_forms(ref_hopf):
    hp = ref_hopf
    phi1, phi2, psi1, _ = _eigendata(hp)
    e11 = hopf.bilinear_pairing(psi1, phi1, hp)
    e12 = hopf.bilinear_pairing(psi1, phi2, hp)
    assert abs(e11) < 1e-9
    expected_e12 = 1.0 + (hp.p_star - 1j * hp.omega_star) * hp.r_star
    assert abs(e12 - expected_e12) < 1e-9


@pytest.mark.parametrize(
    "args", [(rv.N, rv.BETA0, rv.DELTA, rv.K)] + OTHER_HOPF_ARGS
)
def test_pairing_normalization(args):
    hp = hopf.hopf_from_pqk(*args)
    phi1, phi2, _, psi2 = _eigendata(hp)
    weight = hopf.psi1_zero(hp)
    norm1 = hopf.bilinear_pairing(lambda z: weight * psi2(z), phi1, hp)
    norm0 = hopf.bilinear_pairing(lambda z: weight * psi2(z), phi2, hp)
    assert abs(norm1 - 1.0) < 1e-8
    assert abs(norm0) < 1e-8


# -------------------------------------------------------- series coefficients


def test_f_coefficients_structure(ref_hopf, ref_params):
    tc = model.taylor_coefficients(ref_params, model.equilibria(ref_params))
    f20, f11, f02, _ = hopf.f_coefficients(tc, ref_hopf)
    assert f02 == f20.conjugate()
    assert f11.imag == 0.0
    assert abs(f11 - tc.b2 * (ref_params.k - 1.0)) < 1e-14 * abs(f11)


def test_f_coefficients_vanish_without_quadratic_term(ref_hopf):
    tc = model.TaylorCoefficients(b1=-2.5, b2=0.0, b3=-61.0)
    f20, f11, f02, f21 = hopf.f_coefficients(tc, ref_hopf)
    assert f20 == 0.0 and f11 == 0.0 and f02 == 0.0
    assert f21 == -tc.b3 * (
        1.0 - ref_hopf.params.k * cmath.exp(-1j * ref_hopf.omega_star * ref_hopf.r_star)
    )


# ------------------------------------------------------------ w boundary data


def _second_order_data(hp):
    params = hp.params
    tc = model.taylor_coefficients(params, model.equilibria(params))
    psi = hopf.psi1_zero(hp)
    f20, f11, f02, _ = hopf.f_coefficients(tc, hp)
    return tc, psi, f20, f11, f02


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
    w20_0, w20_mr, w11_0, w11_mr = hopf.w_boundary_values(g20, g11, g02, f20, f11, hp)
    residuals = _w_relation_residuals(
        hp, g20, g11, g02, f20, f11, w20_0, w20_mr, w11_0, w11_mr
    )
    assert max(residuals) < 1e-10

    cf20_0, cf20_mr, _ = hopf.w20_closed_form(g20, g02, f20, hp)
    cf11_0, cf11_mr, _ = hopf.w11_closed_form(g11, f11, hp)
    for solved, closed in (
        (w20_0, cf20_0),
        (w20_mr, cf20_mr),
        (w11_0, cf11_0),
        (w11_mr, cf11_mr),
    ):
        assert abs(solved - closed) < 1e-9 * max(1.0, abs(closed))


def test_w_reference_values(ref_hopf):
    tc, psi, f20, f11, f02 = _second_order_data(ref_hopf)
    g20, g11, g02 = psi * f20, psi * f11, psi * f02
    w20_0, w20_mr, w11_0, w11_mr = hopf.w_boundary_values(
        g20, g11, g02, f20, f11, ref_hopf
    )
    assert abs(w20_0 - rv.W20_0_REF) < 1e-9
    assert abs(w20_mr - rv.W20_MR_REF) < 1e-9
    assert abs(w11_0 - rv.W11_0_REF) < 1e-9
    assert abs(w11_mr - rv.W11_MR_REF) < 1e-9
    # the balanced coefficient is real-valued
    assert abs(w11_0.imag) < 1e-12 and abs(w11_mr.imag) < 1e-12


def test_w_homogeneous_case_is_zero(ref_hopf):
    w20_0, w20_mr, w11_0, w11_mr = hopf.w_boundary_values(
        0.0, 0.0, 0.0, 0.0, 0.0, ref_hopf
    )
    assert w20_0 == 0.0 and w20_mr == 0.0 and w11_0 == 0.0 and w11_mr == 0.0


def test_w11_resonance_detected(ref_hopf):
    with pytest.raises(ResonanceError):
        hopf.w11_closed_form(1.0 + 0.0j, 1.0, _FakePoint(ref_hopf))


class _FakePoint:
    """Minimal stand-in with p = q to hit the resonance guard."""

    def __init__(self, hp):
        self.p_star = hp.p_star
        self.q_star = hp.p_star
        self.omega_star = hp.omega_star
        self.r_star = hp.r_star
        self.params = hp.params


# ------------------------------------------------------------- l1 and report


def test_lyapunov_l1_formula():
    assert hopf.lyapunov_l1(0.0, 0.0, 0.0, 1.7) == 0.0
    assert hopf.lyapunov_l1(1j, 1.0, 0.0, 1.0) == -0.5


def test_lyapunov_l1_reference(ref_hopf):
    nf = hopf.criticality_report(ref_hopf)
    assert abs(nf.l1 - rv.L1_REF) < 1e-9 * abs(rv.L1_REF)
    assert abs(nf.l1 - rv.L1_PRINT) < 1e-3 * abs(rv.L1_PRINT)


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
    assert hopf._criticality(-2.0) == hopf.SUPERCRITICAL
    assert hopf._criticality(2.0) == hopf.SUBCRITICAL
    assert hopf._criticality(5e-10) == hopf.DEGENERATE
    assert hopf._criticality(-5e-10) == hopf.DEGENERATE


# ------------------------------------------------------- route cross-validation


def test_two_routes_agree_on_other_sets():
    # tight brackets: these parameter sets have a second stability switch
    # not far above r*, so a wide bracket can straddle two crossings
    for args in OTHER_HOPF_ARGS:
        hp = hopf.hopf_from_pqk(*args)
        hp2 = hopf.find_hopf_r(hp.params, (0.98 * hp.r_star, 1.02 * hp.r_star))
        assert abs(hp.r_star - hp2.r_star) < 1e-8
