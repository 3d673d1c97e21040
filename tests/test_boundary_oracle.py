"""40-digit mpmath oracles for the boundary route: T_inv, the crossing
delay r0 of classify_x2, g and the located Hopf delay.

`T_inv` is checked against the exact inverse of T(y) = y cot(y), relative
to the condition number of that inverse.  The exact values pinned in
`test_linstab` and `test_cli_golden` changed when `T_inv` became a Newton
iteration and the g root was polished to rounding level; each new value is
checked here to be at least as close to the oracle as the value pinned
before (the ``OLD`` literals below).  The oracle takes the program's
binary inputs as they are: the float triple (p, q, r), or the float
parameters of a fixed-gamma family.
"""

import math
import random

import pytest

from hemohopf import hopf, linstab, model

mp = pytest.importorskip("mpmath")

EPS = 2.0**-52
DPS = 40


def exact_t_inv(v: float):
    """y in [0, pi) with y cot(y) = v, by 140 bisection steps (2^-140 pi)."""
    with mp.workdps(DPS):
        v = mp.mpf(v)
        lo, hi = mp.mpf(0), +mp.pi
        for _ in range(140):
            mid = (lo + hi) / 2
            if mid * mp.cot(mid) > v:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def exact_g(triple):
    """g = T^{-1}(-p r) - arccos(p/q) of a float triple, exactly."""
    p, q, r = triple
    y = exact_t_inv(-p * r)
    with mp.workdps(DPS):
        return y - mp.acos(mp.mpf(p) / mp.mpf(q))


def exact_pq(params, r):
    """(p, q) at delay r of the fixed-gamma family of `params`."""
    with mp.workdps(DPS):
        beta0, n, delta = (mp.mpf(v) for v in (params.beta0, params.n, params.delta))
        k = 2 * mp.exp(-mp.mpf(params.gamma) * r)
        A = beta0 * (k - 1) / delta
        b1 = beta0 * (n - (n - 1) * A) / (A * A)
        return delta + b1, k * b1


def exact_hopf(params, lo, hi):
    """(r*, omega*) of the fixed-gamma family: the root of g on (lo, hi)."""

    def g(r):
        p, q = exact_pq(params, r)
        return exact_t_inv(-p * r) - mp.acos(p / q)

    with mp.workdps(DPS):
        r = mp.findroot(g, (mp.mpf(lo), mp.mpf(hi)), solver="illinois")
        p, q = exact_pq(params, r)
        return r, mp.sqrt(q * q - p * p)


def err(value: float, exact) -> float:
    with mp.workdps(DPS):
        return float(abs(mp.mpf(value) - exact))


# ------------------------------------------------------------------- T_inv


def test_T_inv_error_within_the_condition_number():
    # relative error of y against eps * kappa, where kappa = |v / (y T'(y))|
    # is the condition number of y = T^{-1}(v); T' = cot(y) - y / sin^2(y)
    rng = random.Random(9)
    worst = 0.0
    for _ in range(120):
        v = 1.0 - 10.0 ** rng.uniform(-8.0, 4.0)
        y = linstab.T_inv(v)
        exact = exact_t_inv(v)
        with mp.workdps(DPS):
            slope = mp.cot(exact) - exact / mp.sin(exact) ** 2
            kappa = float(abs(v / (exact * slope)))
            rel = float(abs((mp.mpf(y) - exact) / exact))
        worst = max(worst, rel / (EPS * max(1.0, kappa)))
    assert worst <= 4.0


# ------------------------------------------------------- classify_x2 pins

# the argument sets of the `test_linstab` whole-verdict pins with a crossing
VERDICT_ARGS = [
    (1.77, 12.0, 0.05, 1.180746972, 0.35),
    (1.77, 12.0, 0.05, 1.180746972, 0.38),
    (1.0, 2.0, 0.1, 1.25, 10.0),
    (1.0, 2.0, 0.1, 1.25, 50.0),
]


def exact_crossing(triple):
    """(omega*, r0) = (sqrt(q^2 - p^2), arccos(p/q) / omega*) of a float triple."""
    with mp.workdps(DPS):
        p, q = mp.mpf(triple.p), mp.mpf(triple.q)
        omega = mp.sqrt(q * q - p * p)
        return omega, mp.acos(p / q) / omega


@pytest.mark.parametrize("args", VERDICT_ARGS)
def test_classify_x2_crossing_matches_the_closed_form(args):
    params = model.ModelParameters.from_k(*args)
    verdict = linstab.classify_x2(params)
    omega, r0 = exact_crossing(linstab.characteristic_triple(params))
    assert verdict.stable_window[0] == 0.0
    # measured within 0.71 eps relative on these four
    assert err(verdict.omega0, omega) <= 4.0 * EPS * float(omega)
    assert err(verdict.stable_window[1], r0) <= 4.0 * EPS * float(r0)


# the `g = ...` line of `stability`, as pinned before and before that
PINNED_STABILITY_G = {"k": 8.193924379007456e-07, "gamma": -0.0952031640035933}
OLD_STABILITY_G = {"k": 8.193923315413798e-07, "gamma": -0.09520316400371631}


def _config_params(config):
    if config == "k":
        return model.ModelParameters.from_k(1.77, 12.0, 0.05, 1.180746972, 0.3559207407)
    return model.ModelParameters.from_gamma(1.77, 12.0, 0.05, 1.48067, 0.36)


@pytest.mark.parametrize("config", sorted(OLD_STABILITY_G))
def test_stability_g_pin_is_closer_to_the_oracle(config):
    params = _config_params(config)
    new_g = linstab.g_of_r(params.r, params)
    assert new_g == PINNED_STABILITY_G[config]
    g = exact_g(linstab.characteristic_triple(params))
    assert err(new_g, g) <= err(OLD_STABILITY_G[config], g)


# ------------------------------------------------------- located Hopf delay

# (r*, omega*) located on the g route before, polished to |g| < 1e-11: the
# `hopf` cross-check of the k-config (bracket +-10% of r*, gamma = gamma*)
# and the gamma-config root on (0.30, 0.40)
OLD_LOCATED = {
    "k": (0.35592087769065983, 1.6616859904399424),
    "gamma": (0.35592018752025306, 1.6616872306095434),
}


def _located(config):
    if config == "k":
        hp = hopf.hopf_from_pqk(12.0, 1.77, 0.05, 1.180746972)
        r_max = model.equilibria(hp.params).r_max
        bracket = (0.9 * hp.r_star, min(1.1 * hp.r_star, 0.999 * r_max))
        return hp.params, hopf.find_hopf_r(hp.params, bracket)
    params = _config_params("gamma")
    return params, hopf.find_hopf_r(params, (0.30, 0.40))


@pytest.mark.parametrize("config", sorted(OLD_LOCATED))
def test_located_hopf_point_is_closer_to_the_oracle(config):
    params, located = _located(config)
    r_exact, w_exact = exact_hopf(params, 0.35, 0.36)
    old_r, old_w = OLD_LOCATED[config]
    assert err(located.r_star, r_exact) <= err(old_r, r_exact)
    assert err(located.omega_star, w_exact) <= err(old_w, w_exact)
    # polished to rounding: within a few ulps of the exact root
    assert err(located.r_star, r_exact) <= 4.0 * math.ulp(located.r_star)
