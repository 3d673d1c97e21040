"""40-digit mpmath oracles for the boundary route: T_inv, classify_x2's
frontier data and the located Hopf delay.

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

import test_cli_golden as golden
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


def exact_frontier(triple):
    """(omega0, arccos(p/q) / omega0, g) of a float triple, exactly."""
    p, q, r = triple
    y = exact_t_inv(-p * r)
    with mp.workdps(DPS):
        acc = mp.acos(mp.mpf(p) / mp.mpf(q))
        w0 = y / mp.mpf(r)
        return w0, acc / w0, y - acc


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

# (args of from_k, omega0, the window end arccos(p/q) / omega0, g) as
# pinned before, with T_inv by bisection to |T(y) - v| < 1e-13
OLD_VERDICTS = [
    ((1.77, 12.0, 0.05, 1.180746972, 0.35),
     1.7878398009273984, 0.33080633726128766, 0.034315194169847074),
    ((1.77, 12.0, 0.05, 1.180746972, 0.38),
     1.1082945611689423, 0.5336385802804533, -0.17027680291054426),
    ((1.0, 2.0, 0.1, 1.25, 10.0),
     0.16886826899584778, 10.494299835742392, -0.08347155762674952),
    ((1.0, 2.0, 0.1, 1.25, 50.0),
     0.040575156762208735, 43.67584475325534, 0.2566035905252093),
]


def _window_end(verdict):
    lo, hi = verdict.stable_window
    return lo if verdict.case_label == linstab.CASE_IA else hi


@pytest.mark.parametrize("args, old_w0, old_end, old_g", OLD_VERDICTS)
def test_classify_x2_repinned_values_are_closer_to_the_oracle(args, old_w0, old_end, old_g):
    params = model.ModelParameters.from_k(*args)
    verdict = linstab.classify_x2(params)
    new_g = float(verdict.notes.split()[2])
    w0, end, g = exact_frontier(linstab.characteristic_triple(params))
    assert err(verdict.omega0, w0) <= err(old_w0, w0)
    assert err(_window_end(verdict), end) <= err(old_end, end)
    assert err(new_g, g) <= err(old_g, g)


# the `g = ...` line of `stability`, as pinned before
OLD_STABILITY_G = {"k": 8.193923315413798e-07, "gamma": -0.09520316400371631}


def _config_params(config):
    if config == "k":
        return model.ModelParameters.from_k(1.77, 12.0, 0.05, 1.180746972, 0.3559207407)
    return model.ModelParameters.from_gamma(1.77, 12.0, 0.05, 1.48067, 0.36)


@pytest.mark.parametrize("config", sorted(OLD_STABILITY_G))
def test_stability_g_pin_is_closer_to_the_oracle(config):
    params = _config_params(config)
    verdict = linstab.classify_x2(params)
    new_g = float(verdict.notes.split()[2])
    assert f"    g = {new_g!r} " in golden.GOLDEN["stability", config]
    _, _, g = exact_frontier(linstab.characteristic_triple(params))
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
