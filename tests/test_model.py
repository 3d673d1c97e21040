import math

import numpy as np
import pytest

import refvals as rv
from hemohopf import model
from hemohopf.errors import ParameterError


def ref_model_params():
    return model.ModelParameters.from_k(rv.BETA0, rv.N, rv.DELTA, rv.K, rv.R_REF)


def beta_fn(x, beta0=rv.BETA0, n=rv.N):
    return beta0 / (1.0 + x**n)


def taylor_at_x2(params, report):
    """B1..B3 at x2 of `report`, on the path `hopf.criticality_report` takes."""
    slopes = model._b1_slopes(params.beta0, params.n, report.A)
    return model._taylor_at(params.n, report.A, report.x2, report.B1_at_x2, slopes)


# ---------------------------------------------------------------- derive_k


def test_derive_k_zero_delay():
    for gamma in (0.1, 1.0, 7.3):
        assert model.derive_k(gamma, 0.0) == 2.0


def test_derive_k_log2():
    assert abs(model.derive_k(1.0, math.log(2.0)) - 1.0) < 1e-15


def test_derive_k_reference():
    # quoted gamma and r are rounded prints, so agreement is ~1e-6
    k = model.derive_k(rv.GAMMA_PRINT, rv.R_PRINT)
    assert abs(k - rv.K) < 2e-6


def test_derive_k_rejects_bad_input():
    with pytest.raises(ParameterError):
        model.derive_k(float("nan"), 0.5)
    with pytest.raises(ParameterError):
        model.derive_k(1.0, float("inf"))
    with pytest.raises(ParameterError):
        model.derive_k(-1.0, 0.5)
    with pytest.raises(ParameterError):
        model.derive_k(1.0, -0.1)


def test_gamma_k_roundtrip():
    for gamma, r in ((0.5, 0.2), (1.48, 0.36), (3.0, 1.5)):
        k = model.derive_k(gamma, r)
        assert abs(model.gamma_from_k(k, r) - gamma) < 1e-12 * gamma


def test_gamma_from_k_domain():
    with pytest.raises(ParameterError):
        model.gamma_from_k(2.0, 0.5)
    with pytest.raises(ParameterError):
        model.gamma_from_k(1.2, 0.0)


# ---------------------------------------------------- parameter validation


def test_parameters_reject_invalid():
    good = dict(beta0=1.77, n=12.0, delta=0.05, gamma=1.0, r=0.3)
    model.ModelParameters.from_gamma(**good)
    for key, bad in (
        ("beta0", -1.0),
        ("delta", 0.0),
        ("gamma", -0.2),
        ("r", -0.1),
        ("n", 1.0),
        ("n", 0.5),
    ):
        with pytest.raises(ParameterError):
            model.ModelParameters.from_gamma(**{**good, key: bad})


def test_parameters_reject_an_overflowing_A():
    # A = beta0 (k - 1)/delta = 1e308 * 1/0.5 overflows at r = 0, where k = 2
    with pytest.raises(ParameterError, match=r"A = beta0 \(k - 1\)/delta must be finite"):
        model.ModelParameters.from_gamma(1e308, 2.0, 0.5, 1.0, 0.0)


def test_parameters_k_consistency_enforced():
    with pytest.raises(ParameterError):
        model.ModelParameters(
            beta0=1.77, n=12.0, delta=0.05, gamma=1.0, r=0.3, k=1.9
        )


def test_with_r_rederives_k():
    p = ref_model_params()
    q = p.with_r(0.2)
    assert q.k == model.derive_k(p.gamma, 0.2)
    assert q.gamma == p.gamma


# ---------------------------------------------------------------- equilibria


def test_equilibria_reference_values():
    report = model.equilibria(ref_model_params())
    assert abs(report.A - rv.A_REF) < 1e-12 * rv.A_REF
    assert abs(report.x2 - rv.X2_REF) < 1e-12
    assert report.B1_at_x1 == rv.BETA0
    assert abs(report.B1_at_x2 - rv.B1_REF) < 1e-12 * abs(rv.B1_REF)
    # quoted digits are a truncation; agreement is coarser
    assert abs(report.x2 - rv.X2_PRINT) < 1e-7
    assert abs(report.B1_at_x2 - rv.B1_PRINT) < 2e-6


def test_equilibria_stationarity_residual():
    p = ref_model_params()
    report = model.equilibria(p)
    beta_x2 = beta_fn(report.x2)
    assert abs((p.k - 1.0) * beta_x2 - p.delta) < 1e-12 * p.delta


def test_equilibria_refuse_an_overflowing_B1():
    # A = 1.62e308 is finite at r = 0.1, but A^2 in B1(x2) overflows
    params = model.ModelParameters.from_gamma(1e308, 2.0, 0.5, 1.0, 0.1)
    with pytest.raises(ParameterError, match=r"B1\(x2\) = .* must be finite, got nan"):
        model.equilibria(params)


def test_equilibria_absent_when_k_small():
    p = model.ModelParameters.from_gamma(1.77, 12.0, 0.05, 1.0, math.log(2.0))
    report = model.equilibria(p)  # k = 1 exactly, A = 0
    assert report.x2 is None and report.B1_at_x2 is None
    assert not p.x2_exists


def test_r_max_matches_bisection_oracle():
    p = ref_model_params()
    report = model.equilibria(p)

    def excess(r):
        return p.with_r(r).A - 1.0

    lo, hi = 0.0, 2.0
    assert excess(lo) > 0.0 > excess(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    r_hat = 0.5 * (lo + hi)
    assert abs(excess(r_hat)) < 1e-10
    assert abs(r_hat - report.r_max) < 1e-9
    assert abs(report.r_max - rv.R_MAX_REF) < 1e-12


def test_existence_flips_once_across_r_max():
    p = ref_model_params()
    r_max = model.equilibria(p).r_max
    grid = np.linspace(0.01, 1.2 * r_max, 400)
    exists = [p.with_r(float(r)).x2_exists for r in grid]
    flips = sum(1 for a, b in zip(exists, exists[1:]) if a != b)
    assert flips == 1
    assert exists[0] and not exists[-1]


def test_r_n_is_b1_zero():
    p = ref_model_params()
    report = model.equilibria(p)
    assert abs(report.r_n - rv.R_N_REF) < 1e-12
    local = model.equilibria(p.with_r(report.r_n))
    assert abs(local.B1_at_x2) < 1e-9


# ------------------------------------------------------ Taylor coefficients


def test_taylor_reference_values():
    p = ref_model_params()
    tc = taylor_at_x2(p, model.equilibria(p))
    assert abs(tc.b1 - rv.B1_REF) < 1e-12 * abs(rv.B1_REF)
    assert abs(tc.b2 - rv.B2_REF) < 1e-12 * abs(rv.B2_REF)
    assert abs(tc.b3 - rv.B3_REF) < 1e-12 * abs(rv.B3_REF)
    assert abs(tc.b1 - rv.B1_PRINT) < 2e-6


def test_taylor_matches_finite_differences_of_production_term():
    p = ref_model_params()
    report = model.equilibria(p)
    tc = taylor_at_x2(p, report)
    x = report.x2

    def prod(z):
        return beta_fn(z) * z

    h = 1e-5
    fd1 = (prod(x + h) - prod(x - h)) / (2.0 * h)
    assert abs(fd1 - tc.b1) < 1e-5 * abs(tc.b1)
    h = 1e-4
    fd2 = (prod(x + h) - 2.0 * prod(x) + prod(x - h)) / h**2
    assert abs(fd2 - tc.b2) < 1e-5 * abs(tc.b2)
    h = 1e-3
    fd3 = (
        prod(x - 3 * h)
        - 8.0 * prod(x - 2 * h)
        + 13.0 * prod(x - h)
        - 13.0 * prod(x + h)
        + 8.0 * prod(x + 2 * h)
        - prod(x + 3 * h)
    ) / (8.0 * h**3)
    assert abs(fd3 - tc.b3) < 1e-5 * abs(tc.b3)


def test_taylor_b1_vanishes_at_balance_point():
    # A = n/(n-1) makes the linear coefficient vanish
    k = 1.0 + rv.DELTA * rv.N / ((rv.N - 1.0) * rv.BETA0)
    p = model.ModelParameters.from_k(rv.BETA0, rv.N, rv.DELTA, k, 0.3)
    tc = taylor_at_x2(p, model.equilibria(p))
    assert abs(tc.b1) < 1e-9


# ----------------------------------------------------- randomized properties


def draw_valid_params(rng, n_range=(2.0, 15.0)):
    """Random parameters with an existing positive equilibrium."""
    while True:
        beta0 = rng.uniform(0.5, 5.0)
        delta = rng.uniform(0.01, 0.5)
        if delta >= beta0:
            continue
        n = rng.uniform(*n_range)
        gamma = rng.uniform(0.3, 3.0)
        r_max = -math.log(0.5 * (1.0 + delta / beta0)) / gamma
        if r_max <= 0.0:
            continue
        r = rng.uniform(0.05, 0.95) * r_max
        return model.ModelParameters.from_gamma(beta0, n, delta, gamma, r)


def test_stationarity_residual_on_random_sweep():
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        p = draw_valid_params(rng)
        report = model.equilibria(p)
        x2 = report.x2
        b = beta_fn(x2, p.beta0, p.n)
        residual = -(b + p.delta) * x2 + p.k * b * x2
        assert abs(residual) < 1e-12


def _taylor_oracle(p, A, order):
    # derivatives 0..order of beta0 x/(1 + x^n) at x2 = (A - 1)^(1/n), 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        beta0, n = mpmath.mpf(p.beta0), mpmath.mpf(p.n)
        x2 = (mpmath.mpf(A) - 1) ** (1 / n)
        return x2, list(mpmath.diffs(lambda x: beta0 * x / (1 + x**n), x2, order))


@pytest.mark.parametrize("beta0, delta", [
    (1e150, 0.5), (2e130, 1e-20), (1e-100, 1e-250),
])
def test_taylor_closed_forms_at_extreme_scales(beta0, delta):
    # A = 1e150 or 5e149: the terms neither overflow nor underflow
    p = model.ModelParameters.from_k(beta0, 12.0, delta, 1.5, 0.3)
    report = model.equilibria(p)
    tc = taylor_at_x2(p, report)
    _, exact = _taylor_oracle(p, report.A, 3)
    for m, b_m in enumerate(tc, start=1):
        assert abs(b_m - exact[m]) <= 1e-13 * abs(exact[m])


def test_taylor_closed_forms_match_a_40_digit_oracle():
    # B_m is the m-th derivative of beta0 x/(1 + x^n) at x2 = (A - 1)^(1/n),
    # x2 taken exactly from the float A.  The bound is 1e-12 relative plus
    # the change of B_m under 2 ulps of A, |A dB_m/dA| 2 eps with
    # dB_m/dA = B_{m+1}/A'(x2): near a zero of B_m (B3 = 0 lies inside the
    # draws) no evaluation from a rounded A holds a purely relative bound.
    eps = 2.0**-52
    rng = np.random.default_rng(3)
    for _ in range(1500):
        p = draw_valid_params(rng, n_range=(1.05, 20.0))
        report = model.equilibria(p)
        tc = taylor_at_x2(p, report)
        x2, exact = _taylor_oracle(p, report.A, 4)
        a_slope = p.n * x2 ** (p.n - 1)
        for m, b_m in enumerate(tc, start=1):
            a_ulps = 2 * eps * abs(report.A * exact[m + 1] / a_slope)
            bound = 1e-12 * abs(exact[m]) + a_ulps
            assert abs(b_m - exact[m]) <= bound, (p, m, b_m, exact[m])
