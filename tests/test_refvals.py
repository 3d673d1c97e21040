"""Independent 30-digit oracle for the reference digit chains in refvals.

The chain runs A = beta0 (k - 1)/delta, x2 = (A - 1)^(1/n), B1 = the
derivative of the production term beta0 x/(1 + x^n) at x2 (numerical
differentiation in mpmath, not the closed form the library uses),
p = delta + B1, q = k B1, omega* = sqrt(q^2 - p^2),
r* = arccos(p/q)/omega* and gamma* = -ln(k/2)/r*.  No hemohopf code is
involved in the oracles; the crossing speed lambda'(r*) they give is
compared with the mu' and omega' of `hopf.criticality_report`, and the first
Lyapunov coefficient l1 = Re c1 / omega* of the characteristic matrix with
the report's l1 and with its second route.
"""

import cmath

import pytest

import refvals as rv
from hemohopf import hopf, model
from test_hopf import OTHER_HOPF_ARGS
from test_model import taylor_at_x2

mp = pytest.importorskip("mpmath")


def _equilibrium_chain(n, beta0, delta, k):
    """A, x2 and B1 at k for mpmath inputs, at the working precision."""
    A = beta0 * (k - 1) / delta
    x2 = (A - 1) ** (1 / n)
    return A, x2, mp.diff(lambda x: beta0 * x / (1 + x**n), x2)


def exact_chain(k: float) -> dict:
    """The closed-form chain at `k`, in 30-digit arithmetic.

    Each input is taken as the decimal it prints as (1.77, not the binary
    double nearest to it).
    """
    with mp.workdps(30):
        n, beta0, delta, k = (mp.mpf(repr(v)) for v in (rv.N, rv.BETA0, rv.DELTA, k))
        A, x2, b1 = _equilibrium_chain(n, beta0, delta, k)
        p = delta + b1
        q = k * b1
        omega = mp.sqrt(q * q - p * p)
        r = mp.acos(p / q) / omega
        gamma = -mp.log(k / 2) / r
        return {
            "A": A, "X2": x2, "B1": b1, "P": p, "Q": q,
            "OMEGA": omega, "R": r, "GAMMA": gamma,
        }


@pytest.mark.parametrize("name", ["A", "X2", "B1", "P", "Q", "OMEGA", "R", "GAMMA"])
def test_exact_chain_at_stated_k(name):
    exact = exact_chain(rv.K)[name]
    ref = getattr(rv, f"{name}_REF")
    assert abs((ref - exact) / exact) < 1e-13


# tolerances of acceptance criteria 1 and 2; p and q share B1's
@pytest.mark.parametrize(
    "name, tol",
    [
        ("X2", 1e-8),
        ("B1", 1e-8),
        ("P", 1e-8),
        ("Q", 1e-8),
        ("OMEGA", 1e-8),
        ("R", 1e-9),
        ("GAMMA", 1e-4),
    ],
)
def test_quoted_digits_are_the_exact_chain_at_k_print(name, tol):
    exact = exact_chain(rv.K_PRINT)[name]
    assert abs(getattr(rv, f"{name}_PRINT") - exact) <= tol


def test_quoted_digits_are_not_the_chain_at_stated_k():
    exact = exact_chain(rv.K)
    assert abs(rv.B1_PRINT - exact["B1"]) > 1e-6
    assert abs(rv.R_PRINT - exact["R"]) > 1e-7


def test_quoted_digits_imply_k_print():
    assert abs(rv.Q_PRINT / rv.B1_PRINT - rv.K_PRINT) < 1e-9


def exact_crossing_speed(n, beta0, delta, k):
    """(lambda(r*), lambda'(r*)) of the critical root at fixed gamma*, in
    30-digit arithmetic.

    gamma* = -ln(k/2)/r* holds the family through the Hopf point, so
    k(r) = 2 e^{-gamma* r} and p(r), q(r) follow from the chain at k(r).
    The root of lambda + p - q e^{-lambda r} = 0 on the crossing branch is
    lambda(r) = -p + W0(q r e^{p r}) / r (Lambert W), differentiated
    numerically in r.
    """
    with mp.workdps(30):
        n, beta0, delta, k = (mp.mpf(repr(v)) for v in (n, beta0, delta, k))

        def pq(k):
            b1 = _equilibrium_chain(n, beta0, delta, k)[2]
            return delta + b1, k * b1

        p, q = pq(k)
        r_star = mp.acos(p / q) / mp.sqrt(q * q - p * p)
        gamma = -mp.log(k / 2) / r_star

        def root(r):
            p, q = pq(2 * mp.exp(-gamma * r))
            return -p + mp.lambertw(q * r * mp.exp(p * r)) / r

        return root(r_star), mp.diff(root, r_star)


@pytest.mark.parametrize("args", [(rv.N, rv.BETA0, rv.DELTA, rv.K)] + OTHER_HOPF_ARGS)
def test_transversality_is_the_derivative_of_the_lambert_w_root(args):
    hp = hopf.hopf_from_pqk(*args)
    root, speed = exact_crossing_speed(*args)
    # W0 is the branch of the critical root: lambda(r*) = i omega*
    assert abs(root - 1j * hp.omega_star) < 1e-12 * hp.omega_star
    nf = hopf.criticality_report(hp)
    mu_prime, omega_prime = nf.mu_prime, nf.omega_prime
    assert abs(mu_prime - speed.real) <= 1e-12 * abs(speed.real)
    assert abs(omega_prime - speed.imag) <= 1e-12 * abs(speed.imag)


def exact_l1(n, beta0, delta, k):
    """l1 = Re c1 / omega* from the characteristic matrix, in 30-digit arithmetic.

    The inputs are taken as the binary doubles they are.  B2 and B3 are the
    derivatives of the production term at x2, differentiated numerically; with
    Delta(lam) = lam + p - q e^{-lam r*}, E(lam) = k e^{-lam r*} - 1 and
    H(lam) = B2 E(lam)/Delta(lam), c1 = E(i w) (B3 + B2 H(2 i w) + 2 B2 H(0)) /
    (2 Delta'(i w)) at w = omega*.
    """
    with mp.workdps(30):
        n, beta0, delta, k = (mp.mpf(v) for v in (n, beta0, delta, k))
        A, x2, b1 = _equilibrium_chain(n, beta0, delta, k)
        b2, b3 = (mp.diff(lambda x: beta0 * x / (1 + x**n), x2, m) for m in (2, 3))
        p, q = delta + b1, k * b1
        w = mp.sqrt(q * q - p * p)
        r = mp.acos(p / q) / w

        def E(lam):
            return k * mp.exp(-lam * r) - 1

        def H(lam):
            return b2 * E(lam) / (lam + p - q * mp.exp(-lam * r))

        iw = mp.mpc(0, w)
        c1 = E(iw) * (b3 + b2 * H(2 * iw) + 2 * b2 * H(0)) / (2 * (1 + q * r * mp.exp(-iw * r)))
        return c1.real / w


@pytest.mark.parametrize("args", [(rv.N, rv.BETA0, rv.DELTA, rv.K)] + OTHER_HOPF_ARGS)
def test_both_l1_routes_hold_a_30_digit_c1(args):
    hp = hopf.hopf_from_pqk(*args)
    params = hp.params
    tc = taylor_at_x2(params, model.equilibria(params))
    e_m = cmath.exp(-1j * hp.omega_star * hp.r_star)
    route = hopf._l1_from_characteristic(tc, hp.p_star, hp.q_star, hp.omega_star, hp.r_star,
                                         params.k, e_m)
    exact = exact_l1(*args)
    for l1 in (route, hopf.criticality_report(hp).l1):
        assert abs(l1 - exact) <= 1e-12 * abs(exact), (l1, exact)
