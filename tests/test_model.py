import math

import numpy as np
import pytest

import refvals as rv
from hemohopf import model
from hemohopf.errors import (
    DomainError,
    NoPositiveEquilibriumError,
    ParameterError,
)


def ref_model_params():
    return model.ModelParameters.from_k(rv.BETA0, rv.N, rv.DELTA, rv.K, rv.R_REF)


def beta_fn(x, beta0=rv.BETA0, n=rv.N):
    return beta0 / (1.0 + x**n)


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


# --------------------------------------------------------- beta derivatives


def test_beta_at_zero():
    p = ref_model_params()
    vals = model.beta_derivatives(0.0, p, max_order=1)
    assert vals[0] == rv.BETA0
    assert vals[1] == 0.0


def test_beta_stationarity_identity():
    # beta(x2) = delta / (k - 1) at the positive equilibrium
    p = ref_model_params()
    report = model.equilibria(p)
    b = model.beta_derivatives(report.x2, p, max_order=0)[0]
    target = p.delta / (p.k - 1.0)
    assert abs(b - target) < 1e-12 * target


def test_beta_derivatives_match_finite_differences():
    p = ref_model_params()
    x = model.equilibria(p).x2
    d = model.beta_derivatives(x, p, max_order=3)

    h = 1e-5
    fd1 = (beta_fn(x + h) - beta_fn(x - h)) / (2.0 * h)
    assert abs(fd1 - d[1]) < 1e-5 * abs(d[1])

    h = 1e-4
    fd2 = (beta_fn(x + h) - 2.0 * beta_fn(x) + beta_fn(x - h)) / h**2
    assert abs(fd2 - d[2]) < 1e-5 * abs(d[2])

    h = 1e-3  # fourth-order stencil keeps roundoff and truncation tiny
    fd3 = (
        beta_fn(x - 3 * h)
        - 8.0 * beta_fn(x - 2 * h)
        + 13.0 * beta_fn(x - h)
        - 13.0 * beta_fn(x + h)
        + 8.0 * beta_fn(x + 2 * h)
        - beta_fn(x + 3 * h)
    ) / (8.0 * h**3)
    assert abs(fd3 - d[3]) < 1e-5 * abs(d[3])


def test_beta_unsupported_order():
    p = ref_model_params()
    with pytest.raises(DomainError):
        model.beta_derivatives(1.0, p, max_order=4)


def test_beta_negative_x_rejected():
    p = ref_model_params()
    with pytest.raises(ParameterError):
        model.beta_derivatives(-0.5, p)


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
    tc = model.taylor_coefficients(p, model.equilibria(p))
    assert abs(tc[1] - rv.B1_REF) < 1e-12 * abs(rv.B1_REF)
    assert abs(tc[2] - rv.B2_REF) < 1e-12 * abs(rv.B2_REF)
    assert abs(tc[3] - rv.B3_REF) < 1e-12 * abs(rv.B3_REF)
    assert abs(tc[1] - rv.B1_PRINT) < 2e-6


def test_taylor_matches_finite_differences_of_production_term():
    p = ref_model_params()
    report = model.equilibria(p)
    tc = model.taylor_coefficients(p, report)
    x = report.x2

    def prod(z):
        return beta_fn(z) * z

    h = 1e-5
    fd1 = (prod(x + h) - prod(x - h)) / (2.0 * h)
    assert abs(fd1 - tc[1]) < 1e-5 * abs(tc[1])
    h = 1e-4
    fd2 = (prod(x + h) - 2.0 * prod(x) + prod(x - h)) / h**2
    assert abs(fd2 - tc[2]) < 1e-5 * abs(tc[2])
    h = 1e-3
    fd3 = (
        prod(x - 3 * h)
        - 8.0 * prod(x - 2 * h)
        + 13.0 * prod(x - h)
        - 13.0 * prod(x + h)
        + 8.0 * prod(x + 2 * h)
        - prod(x + 3 * h)
    ) / (8.0 * h**3)
    assert abs(fd3 - tc[3]) < 1e-5 * abs(tc[3])


def test_taylor_b1_vanishes_at_balance_point():
    # A = n/(n-1) makes the linear coefficient vanish
    k = 1.0 + rv.DELTA * rv.N / ((rv.N - 1.0) * rv.BETA0)
    p = model.ModelParameters.from_k(rv.BETA0, rv.N, rv.DELTA, k, 0.3)
    tc = model.taylor_coefficients(p, model.equilibria(p))
    assert abs(tc[1]) < 1e-9


def test_taylor_requires_positive_equilibrium():
    p = model.ModelParameters.from_gamma(1.77, 12.0, 0.05, 1.0, math.log(2.0))
    with pytest.raises(NoPositiveEquilibriumError):
        model.taylor_coefficients(p, model.equilibria(p))


# ----------------------------------------------------- randomized properties


def draw_valid_params(rng):
    """Random parameters with an existing positive equilibrium."""
    while True:
        beta0 = rng.uniform(0.5, 5.0)
        delta = rng.uniform(0.01, 0.5)
        if delta >= beta0:
            continue
        n = rng.uniform(2.0, 15.0)
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


def test_b1_closed_form_on_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = draw_valid_params(rng)
        report = model.equilibria(p)
        b0, b1 = model.beta_derivatives(report.x2, p, max_order=1)[:2]
        direct = b1 * report.x2 + b0
        assert abs(direct - report.B1_at_x2) < 1e-9 * max(1.0, abs(direct))


def test_beta_third_derivative_at_zero_quadratic_hill():
    # for n = 2 the third derivative at 0 exists and vanishes (the
    # diverging power carries a zero coefficient)
    p = model.ModelParameters.from_gamma(1.77, 2.0, 0.05, 1.0, 0.3)
    vals = model.beta_derivatives(0.0, p, max_order=3)
    assert vals[3] == 0.0
    # fractional exponents below the order genuinely diverge there
    p = model.ModelParameters.from_gamma(1.77, 2.5, 0.05, 1.0, 0.3)
    with pytest.raises(DomainError):
        model.beta_derivatives(0.0, p, max_order=3)
