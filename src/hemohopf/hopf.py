"""Hopf point location, transversality, and the center-manifold normal form.

A Hopf point is a delay r* at which the linearization at x2 carries a
pure-imaginary root pair +-i omega*.  Splitting the characteristic
equation into real and imaginary parts at mu = 0,

    p = q cos(omega r),      omega = -q sin(omega r),

gives the frontier relations omega* = sqrt(q^2 - p^2) and
r* = arccos(p/q) / omega* (q < 0 on the crossing branch).

The restriction of the dynamics to the two-dimensional critical manifold
is reduced to the scalar complex equation

    u' = i omega* u + sum_{j+k>=2} g_jk u^j conj(u)^k / (j! k!),

whose cubic data decide the stability of the emerging cycle through the
first Lyapunov coefficient

    l1 = Re(i g20 g11 + omega* g21) / (2 omega*^2).

The normal form is read off Delta(lambda) = lambda + p - q e^{-lambda r}:
g_jk = Psi1(0) f_jk with Psi1(0) = 1/Delta_lambda(i omega*), the crossing
speed is -Delta_r/Delta_lambda there, and the boundary values of the
manifold corrections w20, w11 that f21 needs take one division each, by
e^{2 i omega* r*} Delta(2 i omega*) and by Delta(0) (the printed closed
forms, with c and c1, are kept as a cross-check).  A second route to l1,
Re c1 / omega* from Delta alone, shares no formula with this chain.

Each quantity at r* is formed once: `hopf_from_pqk` builds the record from
the (p, q) and crossing it formed, `find_hopf_r` from D's own evaluation at
the root, checked for r* against r0 only, and `criticality_report`, the
normal form's one public entry, forms E = e^{i omega* r*} once and runs at
it one private kernel per formula, with that formula's refusals.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple, Optional, Tuple

from .errors import (
    BracketError,
    ConvergenceError,
    DegenerateCrossingError,
    NoImaginaryCrossingError,
    NoPositiveEquilibriumError,
    NumericsError,
    ParameterError,
    ResonanceError,
)
from .linstab import (
    BOUNDARY_TOL,
    ROOT_RESIDUAL_TOL,
    CharacteristicTriple,
    _TINY,
    _crossing,
    _pq_at_x2,
    bracketed_root,
    g_of_r,
)
# `omega0` is unused here; perfbench/selftest.py looks it up as `hopf.omega0`.
from .linstab import omega0  # noqa: F401
from .model import (
    ModelParameters,
    TaylorCoefficients,
    _CheckedRecord,
    _b1_at_x2,
    _b1_slopes,
    _check_delay,
    _check_fields,
    _k_of,
    _r_max,
    _taylor_at,
    _x2,
    gamma_from_k,
)

__all__ = [
    "HopfPoint",
    "NormalFormData",
    "hopf_from_pqk",
    "frontier_mismatch",
    "find_hopf_r",
    "projection_weight",
    "lyapunov_l1",
    "criticality_report",
]

SUPERCRITICAL = "supercritical"
SUBCRITICAL = "subcritical"
DEGENERATE = "degenerate"

# Largest |g| that `find_hopf_r` accepts at the located root.
_G_ROOT_TOL = 1e-11


class _HopfPointFields(NamedTuple):
    r_star: float
    omega_star: float
    p_star: float
    q_star: float
    params: ModelParameters
    x2_star: float


class HopfPoint(_CheckedRecord, _HopfPointFields):
    """A located Hopf bifurcation point of the positive equilibrium.

    Self-validating: construction checks that (omega*, r*) is the crossing
    `linstab._crossing` gives for (p*, q*), to ``ROOT_RESIDUAL_TOL`` relative,
    so that +-i omega* is a characteristic root, and that ``params`` is at r*;
    no check depends on the time unit.  The library builds its own records
    through ``_unchecked`` from the crossing it formed for them, and runs only
    the checks that do not compare that crossing with itself:
    :func:`hopf_from_pqk` none, :func:`find_hopf_r` the one of r* against r0.
    """

    __slots__ = ()

    def __new__(cls, r_star, omega_star, p_star, q_star, params, x2_star):
        omega, r0 = _crossing(p_star, q_star)
        if r0 == math.inf:
            why = "p >= -q" if omega == 0.0 else "the crossing delay overflows"
            raise NumericsError(f"no root crosses at p={p_star}, q={q_star} ({why})")
        if not abs(omega_star - omega) <= ROOT_RESIDUAL_TOL * omega:
            raise NumericsError(f"omega* = {omega_star!r} != sqrt(q^2 - p^2) = {omega!r}")
        _check_r_star(r_star, r0)
        if not abs(params.r - r_star) <= 1e-12 * r_star:
            raise NumericsError("params delay inconsistent with r_star")
        return super().__new__(cls, r_star, omega_star, p_star, q_star, params, x2_star)

    # HopfPoint._unchecked((r_star, omega_star, p_star, q_star, params, x2_star)): no check runs
    _unchecked = classmethod(tuple.__new__)

    @property
    def triple(self) -> CharacteristicTriple:
        return CharacteristicTriple(p=self.p_star, q=self.q_star, r=self.r_star)


def _check_r_star(r_star: float, r0: float) -> None:
    # r* is the crossing delay r0 = arccos(p/q) / omega* of its (p, q)
    if not abs(r_star - r0) <= ROOT_RESIDUAL_TOL * r0:
        raise NumericsError(f"r* = {r_star!r} != arccos(p/q) / omega* = {r0!r}")


class NormalFormData(NamedTuple):
    """All quantities of the cubic normal form at a Hopf point."""

    psi1_zero: complex
    f20: complex
    f11: complex
    f02: complex
    f21: complex
    g20: complex
    g11: complex
    g02: complex
    g21: complex
    w20_at_0: complex
    w20_at_minus_r: complex
    w11_at_0: float
    w11_at_minus_r: float
    # the printed closed forms of the four boundary values, the cross-check
    w20_closed_at_0: complex
    w20_closed_at_minus_r: complex
    w11_closed_at_0: float
    w11_closed_at_minus_r: float
    c: complex
    c1: float
    l1: float
    s: int
    mu_prime: float
    omega_prime: float
    criticality: str


def hopf_from_pqk(n: float, beta0: float, delta: float, k: float) -> HopfPoint:
    """Locate the Hopf point directly from (n, beta0, delta, k).

    Takes (p, q) at x2 from the model and applies the frontier relations
    omega* = sqrt(q^2 - p^2), r* = arccos(p/q)/omega*.  The loss rate
    consistent with the result is gamma* = -ln(k/2)/r*.  The inputs are
    checked once, as ``ModelParameters.from_k(beta0, n, delta, k, 1.0)``
    checks them, before the regime errors; the record is built at r* only,
    from the crossing (omega*, r*) formed here, which it is not checked against.
    """
    # A, x2, B1, p and q depend on k but not on r, so any delay will do here
    A = _check_fields(beta0, n, delta, gamma_from_k(k, 1.0), 1.0, k)
    p, q = _pq_at_x2(beta0, n, delta, k, A)
    omega, r = _crossing(p, q)
    if q >= 0.0:
        raise NoImaginaryCrossingError(
            f"B1 = {_b1_at_x2(beta0, n, A)} >= 0: no pure-imaginary crossing in this regime"
        )
    if omega == 0.0:
        raise NoImaginaryCrossingError(
            f"|q| = {abs(q)} <= |p| = {abs(p)}: no pure-imaginary crossing"
        )
    if r == math.inf:
        raise NumericsError(f"r* = arccos(p/q) / omega* overflows at omega* = {omega!r}")
    # only the delay is new at r*: gamma_from_k refuses it unless finite and
    # positive, as from_k would, and 2 exp(-gamma* r*) then returns k to rounding
    params = ModelParameters._unchecked(beta0, n, delta, gamma_from_k(k, r), r, k)
    return HopfPoint._unchecked((r, omega, p, q, params, _x2(n, A)))


def frontier_mismatch(r: float, params: ModelParameters) -> float:
    """D(r) = r0(k(r)) - r, the delay mismatch from the frontier at fixed gamma.

    gamma is taken from `params`, and r0 = arccos(p/q) / sqrt(q^2 - p^2) is
    the crossing delay of :func:`hopf_from_pqk` at (p, q) at x2.  D is +inf
    where x2 is absent and where no root crosses (p >= -q), so x2 is stable
    exactly where D > 0 (Cooke & Grossman, J. Math. Anal. Appl. 86 (1982)
    592) and the zeros of D are exactly the n = 0 crossings; unlike g it does
    not vanish where p does.  r and A at r are checked as `params.with_r(r)`
    checks them (`ParameterError`), then p and q (`DomainError` unless finite).
    """
    return _mismatch(params.beta0, params.n, params.delta, {}, r, *_check_delay(params, r))


def _mismatch(beta0, n, delta, seen, r, k, A):
    # D at r from k and A there; seen[r] keeps k, A, (p, q) and (omega, r0) where x2 exists
    if A <= 1.0:  # x2 is absent
        return math.inf
    pq = _pq_at_x2(beta0, n, delta, k, A)
    crossing = _crossing(*pq)
    seen[r] = k, A, pq, crossing
    return crossing[1] - r


def _unchecked_mismatch(beta0, n, delta, gamma, seen, r):
    # D at an iterate of `find_hopf_r` (see there): k and A formed as `model` does, unchecked
    k = _k_of(gamma, r)
    return _mismatch(beta0, n, delta, seen, r, k, beta0 * (k - 1.0) / delta)


def _check_bracket(bracket: Tuple[float, float]) -> None:
    a, b = bracket
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise BracketError(f"bracket ends must be finite and nonnegative, got {bracket}")


_GOLDEN_CUT = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2, a golden-section probe's share of a side


def _admissible_u(n: float, s: float, u_max: float) -> Tuple[float, float]:
    # (u_lo, u_hi) in u = -ln(k/2) where p < -q, clipped to (0, u_max), at s = delta/beta0:
    # (n - 2) delta A^2 - (n delta - 2 beta0 (n - 1)) A - 2 beta0 n > 0, divided by
    # n beta0^2/delta and put in x = k - 1 = s A; c/t is the root of smaller size and,
    # where a < 0, t/a the larger
    a, b, c = 1.0 - 2.0 / n, 2.0 - 2.0 / n - s, -2.0 * s
    disc = b * b - 4.0 * a * c
    if b <= 0.0 or disc < 0.0:  # no positive root: p >= -q wherever x2 exists
        return 0.0, 0.0
    t = -0.5 * (b + math.sqrt(disc))
    u_lo = max(-math.log(0.5 * (1.0 + t / a)), 0.0) if a < 0.0 else 0.0
    return u_lo, min(-math.log(0.5 * (1.0 + c / t)), u_max)


def _first_crossing_bracket(params: ModelParameters, mismatch, checked_mismatch):
    # (a, b, D(a), D(b)) from a golden-section climb of branch 0's Hopf curve Q_0(u) =
    # u / r0(2 e^-u), u = gamma r, with Q_0 > gamma: D < 0 exactly there. b is the first
    # probe with D(b) < 0; Q_0 has one maximum Q*, so each probe below b lies below the
    # first crossing, and a is the largest of them, or 0, where D is checked: A may overflow
    beta0, delta, gamma = params.beta0, params.delta, params.gamma
    u_max = _r_max(beta0, delta, 1.0)
    r_max = u_max / gamma
    if not r_max > 0.0:
        raise NoPositiveEquilibriumError(f"x2 exists at no delay r > 0: r_max = {r_max!r}")
    probes = [(0.0, checked_mismatch(0.0))]  # (r, D) at each delay, all D >= 0
    lo, hi = _admissible_u(params.n, delta / beta0, u_max)
    m, peak, u = lo, 0.0, lo + _GOLDEN_CUT * (hi - lo)  # m: largest Q_0 so far (0 at lo)
    while lo < u < hi and u != m:
        r = u / gamma
        if r == math.inf:
            raise BracketError(f"bracket end u/gamma = {u!r}/{gamma!r} leaves the float "
                               "range; supply --bracket explicitly")
        d = mismatch(r)
        if d < 0.0:
            a, da = max(probe for probe in probes if probe[0] < r)
            return a, r, da, d
        probes.append((r, d))
        q = u / (d + r)  # Q_0(u) = gamma r / r0
        if q > peak:  # u is the new best: keep the side of m that holds it
            lo, hi = (m, hi) if u > m else (lo, m)
            m, peak = u, q
        else:
            lo, hi = (lo, u) if u > m else (u, hi)
        u = m + _GOLDEN_CUT * (hi - m) if hi - m > m - lo else m - _GOLDEN_CUT * (m - lo)
    raise NoImaginaryCrossingError(f"gamma = {gamma!r} >= Q* = {peak!r}, the peak of the Hopf "
                                   "curve gamma = u / r0(2 e^-u): x2 is stable at every delay")


def _g_changes_sign_near(r: float, params: ModelParameters) -> bool:
    # where g moves by more than _G_ROOT_TOL per ulp of r, no float r* need meet it:
    # a sign change of g within 64 ulp(r*) then confirms r*
    step = 64.0 * math.ulp(r)
    try:
        g_lo, g_hi = g_of_r(r - step, params), g_of_r(r + step, params)
    except ParameterError:  # a shifted g that cannot be formed shows no sign change
        return False
    return min(g_lo, g_hi) <= 0.0 <= max(g_lo, g_hi)


def find_hopf_r(params: ModelParameters,
                bracket: Optional[Tuple[float, float]] = None) -> HopfPoint:
    """Locate the Hopf delay at fixed gamma inside `bracket`, or the first one.

    gamma is taken from `params` and held fixed.  Without a bracket, a
    golden-section climb of the Hopf curve Q_0(gamma r) = gamma r / r0 gives
    it: b is the climb's first probe above gamma, where D(b) < 0, and a the
    largest probe below b, or 0, where D >= 0; for gamma >= Q*, the curve's
    maximum, `NoImaginaryCrossingError` names Q*.  A given one must have
    finite, nonnegative ends whose delay and A pass the checks of
    `params.with_r`, as the climb's D(0) does, and D, formed from the k and A
    of those checks, must change sign on it (it may be +inf at an end).
    Illinois then runs D on floats from the end values formed, stepping from
    the end of smaller |D| until |D| < 4 ulp(r), its rounding level at the
    iterate r: the root is r*, and omega* the closed frontier relation of
    :func:`hopf_from_pqk` at (p, q) there.  An iterate checks p and q only: A
    falls as r grows, so it overflows inside the bracket only if it does at
    the smaller end, which was refused, while p = delta + B1 with B1 > 0 can
    overflow near A = 1, by an end without x2.  The record at r* takes k, A,
    (p, q) and (omega*, r0) from D's own evaluation at that float (r* is an
    end or an iterate, where D is finite) and is checked once, for r* against
    r0 as `HopfPoint` checks it: a sign change of D that is no crossing fails
    there (`NumericsError`).  The other route confirms r*: `ConvergenceError`
    unless |g(r*)| < 1e-11 or, where g is too steep for that, g changes sign
    within 64 ulp(r*).
    """
    seen = {}  # k, A, (p, q) and the crossing at each delay D is formed at
    fields = params.beta0, params.n, params.delta
    mismatch = functools.partial(_unchecked_mismatch, *fields, params.gamma, seen)

    def checked_mismatch(r):  # D at an end, from the k and A its checks formed
        return _mismatch(*fields, seen, r, *_check_delay(params, r))

    if bracket is None:
        a, b, da, db = _first_crossing_bracket(params, mismatch, checked_mismatch)
    else:
        _check_bracket(bracket)
        a, b = bracket
        da, db = checked_mismatch(a), checked_mismatch(b)
        if da != 0.0 and db != 0.0 and (da > 0.0) == (db > 0.0):
            raise BracketError(f"no sign change on bracket ({a}, {b}) of the frontier "
                               f"mismatch D: D(a) = {da}, D(b) = {db} (inf means no "
                               "crossing at that end)")
    # near the root, D = r* - r cancels two delays of the iterate's size
    r = bracketed_root(mismatch, a, b, f_tol=4.0, fa=da, fb=db)
    k, A, (p, q), (omega, r0) = seen[r]
    _check_r_star(r, r0)
    hp = HopfPoint._unchecked((r, omega, p, q, ModelParameters._unchecked(*params[:4], r, k),
                               _x2(params.n, A)))
    g = g_of_r(r, params)
    if not (abs(g) < _G_ROOT_TOL or _g_changes_sign_near(r, params)):
        raise ConvergenceError(f"boundary function g = {g:.3e} at the root r* = {r!r} of D: "
                               f"|g| >= {_G_ROOT_TOL:g}", last_iterate=r)
    return hp


def _speed(psi, p, q, w, gamma, k, a_db1):
    """Crossing speed (mu', omega') of the critical root pair in r.

    lambda'(r*) = -Delta_r / Delta_lambda at lambda = i omega* for
    Delta(lambda, r) = lambda + p(r) - q(r) e^{-lambda r}, where p and q
    move with r through k and B1.  With q e^{-i omega* r*} = p + i omega*,

        Delta_r = p' - (q'/q)(p + i omega*) + i omega* (p + i omega*),

    and 1/Delta_lambda is psi = Psi1(0), so lambda' = -Psi1(0) Delta_r.  p' and
    q' come through k(r) = 2 exp(-gamma r): dk/dr = -gamma k, and dA/A =
    dk/(k - 1) as A is proportional to k - 1; a_db1 = A dB1/dA.
    `NumericsError` unless both are finite.
    """
    dk = -gamma * k
    dp = a_db1 * dk / (k - 1.0)  # p' = B1'
    dq = dk * (q / k) + k * dp
    root_term = complex(p, w)  # q e^{-i omega* r*}
    speed = -psi * (dp - dq / q * root_term + 1j * w * root_term)
    if not cmath.isfinite(speed):
        raise NumericsError(f"crossing speed mu' = {speed.real!r}, "
                            f"omega' = {speed.imag!r} is not finite")
    return speed.real, speed.imag


def projection_weight(p: float, omega: float, r: float) -> complex:
    """Psi1(0) = (1 + (p - i omega) r) / ((1 + p r)^2 + omega^2 r^2).

    This is 1/Delta'(i omega) for Delta(lambda) = lambda + p - q e^{-lambda r},
    Delta'(lambda) = 1 + q r e^{-lambda r}, since q e^{-i omega r} = p + i omega
    at the root; it makes <Psi1, phi1> = 1 for Psi1(s) = Psi1(0) e^{-i omega s},
    the normalized adjoint eigenfunction.
    Raises :class:`DegenerateCrossingError` when |Delta'(i omega)|^2 < 1e-12.
    """
    den = (1.0 + p * r) ** 2 + (omega * r) ** 2
    if den < 1e-12:
        raise DegenerateCrossingError(f"|Delta'(i omega*)|^2 = {den} < 1e-12")
    return (1.0 + (p - 1j * omega) * r) / den


def _f2(tc, k, e_m):
    """Second-order coefficients (f20, f11, f02) of the projected nonlinearity,
    at e_m = e^{-i w r}:

        f20 = -B2 (1 - k e^{-2 i w r}),  f11 = B2 (k - 1),  f02 = conj(f20).
    """
    f20 = -tc.b2 * (1.0 - k * e_m * e_m)
    return f20, complex(tc.b2 * (k - 1.0)), f20.conjugate()


def _f21(tc, k, e_m, w20_0, w20_mr, w11_0, w11_mr):
    """Cubic coefficient f21 of the projected nonlinearity, at e_m = e^{-i w r},
    from the boundary values of w20 and w11 (:func:`_w_values`):

        f21 = B2 (-2 w11(0) - w20(0) + 2 k e^{-i w r} w11(-r) + k e^{i w r} w20(-r))
              - B3 (1 - k e^{-i w r}).
    """
    return (tc.b2 * (-2.0 * w11_0 - w20_0 + 2.0 * k * e_m * w11_mr
                     + k * e_m.conjugate() * w20_mr)
            - tc.b3 * (1.0 - k * e_m))


def _w_values(p, q, w, e, g20, g11, g02, f20, f11):
    """Boundary values w20(0), w20(-r), w11(0), w11(-r); w11 is real.

    w20 satisfies, with e = E = e^{i w r},

        w20(0) - w20(-r) E^2 = (i g20/w)(1 - E) + (i conj(g02)/(3w))(1 - E^3)
        (2 i w + p) w20(0) - q w20(-r) = f20 - g20 - conj(g02)

    and w11 satisfies

        w11(0) - w11(-r) = -(i/w) g11 (1 - 1/E) + (i/w) conj(g11)(1 - E)
        p w11(0) - q w11(-r) = f11 - g11 - conj(g11).

    The first equation gives w(0) in terms of w(-r); put into the second,
    it leaves w(-r) times E^2 Delta(2 i w) = (2 i w + p) E^2 - q, and
    Delta(0) = p - q.  Each vanishes exactly when 2 i w (respectively 0) is
    itself a characteristic root; within 1e-12 of the sizes of its terms,
    |2 i w + p| + |q| or |p| + |q|, that resonance is reported as an error.
    """
    lam2 = 2j * w + p
    delta_2iw = lam2 * e * e - q
    if abs(delta_2iw) <= 1e-12 * (abs(lam2) + abs(q)):
        raise ResonanceError(
            "w20 system singular: 2 i omega* collides with a characteristic root"
        )
    delta_0 = p - q
    if abs(delta_0) <= 1e-12 * (abs(p) + abs(q)):
        raise ResonanceError(
            "w11 system singular: 0 collides with a characteristic root (p = q)"
        )
    g02c, g11c, one_e = g02.conjugate(), g11.conjugate(), 1.0 - e
    jump20 = (1j * g20 / w) * one_e + (1j * g02c / (3.0 * w)) * (1.0 - e**3)
    w20_mr = (f20 - g20 - g02c - lam2 * jump20) / delta_2iw
    jump11 = -(1j / w) * g11 * (1.0 - 1.0 / e) + (1j / w) * g11c * one_e
    w11_mr = (f11 - g11 - g11c - p * jump11) / delta_0
    # w11 is real (|E| = 1 makes jump11 real); its imaginary part is rounding
    return jump20 + e * e * w20_mr, w20_mr, (jump11 + w11_mr).real, w11_mr.real


def _w20_closed(p, q, w, r, e, g20, g02, f20):
    """Printed closed forms for w20(0), w20(-r) and their constant c, at e =
    e^{i w r}: a cross-check of :func:`_w_values`.  `NumericsError` unless c is finite.
    """
    two_w = 2.0 * w
    cos2, sin2 = math.cos(two_w * r), math.sin(two_w * r)
    num = (-q + p * cos2 - two_w * sin2) - 1j * (two_w * cos2 + p * sin2)
    den = q * q + p * p + 4.0 * w * w - 2.0 * q * p * cos2 + 4.0 * q * w * sin2
    if den == 0.0:
        raise ResonanceError("closed-form constant c undefined")
    c = num / den
    if not cmath.isfinite(c):
        raise NumericsError(f"closed-form constant c = {c!r} is not finite")
    g02c, e2, e3 = g02.conjugate(), e * e, e**3
    qiw, qiw3, piw = q * 1j / w, q * 1j / (3.0 * w), (p / w) * 1j
    w20_0 = c * (e2 * f20 + g20 * (-qiw + qiw * e - e2) + g02c * (-qiw3 + qiw3 * e3 - e2))
    w20_mr = c * (f20 + g20 * (1.0 - 2.0 * e - piw * (1.0 - e))
                  - (g02c / 3.0) * (1.0 + 2.0 * e3 + piw * (1.0 - e3)))
    return w20_0, w20_mr, c


def _w11_closed(p, q, w, e, g11, f11):
    """Printed closed forms for w11(0), w11(-r) and their constant c1, at e =
    e^{i w r}; :func:`_w_values` has refused p = q."""
    c1 = 1.0 / (p - q)
    g11c = g11.conjugate()
    common = f11 - g11 - g11c
    swing = g11 * (1.0 - 1.0 / e) - g11c * (1.0 - e)
    # real, as w11 is: the imaginary parts are rounding
    w11_0 = (c1 * (common + (q * 1j / w) * swing)).real
    w11_mr = (c1 * (common + (p * 1j / w) * swing)).real
    return w11_0, w11_mr, c1


def _l1_from_characteristic(tc, p, q, w, r, k, e_m):
    """l1 = Re c1 / w from Delta alone, by the normalization method (Kuznetsov,
    Elements of Applied Bifurcation Theory, 3rd ed.; Bosschaert, Janssens &
    Kuznetsov, SIAM J. Appl. Dyn. Syst. 19 (2020) 252).  With E(l) = k e^{-l r} - 1,
    H(l) = B2 E(l) / Delta(l) and Delta'(l) = 1 + q r e^{-l r},

        c1 = E(i w) (B3 + B2 H(2 i w) + 2 B2 H(0)) / (2 Delta'(i w)),

    formed in ratios to w, which hold in every time unit, at e_m = e^{-i w r}.
    """
    b2, p_w, q_w, e_m2 = tc.b2 / w, p / w, q / w, e_m * e_m
    h = b2 * ((k * e_m2 - 1.0) / (2j + p_w - q_w * e_m2) + 2.0 * (k - 1.0) / ((p - q) / w))
    return ((k * e_m - 1.0) * (tc.b3 / w + b2 * h) / (2.0 * (1.0 + q_w * (w * r) * e_m))).real


def lyapunov_l1(g20: complex, g11: complex, g21: complex, omega_star: float) -> float:
    """First Lyapunov coefficient Re(i g20 g11 + omega* g21) / (2 omega*^2).

    `NumericsError` where omega*^2 overflows or falls below the normal range,
    where it has lost its digits, and where l1 is not finite.
    """
    try:
        w2 = omega_star**2
    except OverflowError:
        w2 = math.inf
    if not _TINY <= w2 < math.inf:
        raise NumericsError(f"omega*^2 leaves the float range at omega* = {omega_star!r}: "
                            "l1 cannot be formed in this time unit")
    l1 = (1j * g20 * g11 + omega_star * g21).real / w2 / 2.0
    if not math.isfinite(l1):
        raise NumericsError(f"l1 = Re(i g20 g11 + omega* g21) / (2 omega*^2) = {l1!r} "
                            "is not finite")
    return l1


def _criticality(l1: float, scale: float) -> str:
    # `scale` is the size of the terms of l1
    if abs(l1) <= BOUNDARY_TOL * scale:
        return DEGENERATE
    return SUPERCRITICAL if l1 < 0.0 else SUBCRITICAL


def criticality_report(hp: HopfPoint) -> NormalFormData:
    """Full normal-form computation at a Hopf point: the normal form's one entry.

    Chains Taylor data, projection, manifold coefficients, the cubic
    coefficient g21, the first Lyapunov coefficient, and the crossing
    speed into one report.  Supercritical means l1 < 0: a stable cycle
    exists on the side of r* where the equilibrium is unstable.  Degenerate
    means |l1| <= BOUNDARY_TOL (|g20 g11| + omega* |g21|) / (2 omega*^2), a
    scale formed in ratios to omega*.  The Taylor data are taken at
    ``hp.x2_star``, with no equilibria report; Psi1(0) and A dB1/dA are
    formed once, for the normal form and mu', and E = e^{i omega* r*} once,
    with e^{-i omega* r*} as its conjugate.  Last, l1 is formed a second way,
    from Delta alone (:func:`_l1_from_characteristic`): `NumericsError`
    names both values unless they agree within 1e-10 of that scale.
    """
    r, w, p, q, params, x2 = hp
    beta0, n, A, k = params.beta0, params.n, params.A, params.k
    slopes = _b1_slopes(beta0, n, A)
    tc = _taylor_at(n, A, x2, _b1_at_x2(beta0, n, A), slopes)
    psi = projection_weight(p, w, r)
    e = cmath.exp(1j * w * r)
    e_m = e.conjugate()
    f20, f11, f02 = _f2(tc, k, e_m)
    g20, g11, g02 = psi * f20, psi * f11, psi * f02
    w20_0, w20_mr, w11_0, w11_mr = _w_values(p, q, w, e, g20, g11, g02, f20, f11)
    f21 = _f21(tc, k, e_m, w20_0, w20_mr, w11_0, w11_mr)
    g21 = psi * f21
    l1 = lyapunov_l1(g20, g11, g21, w)
    mu_prime, omega_prime = _speed(psi, p, q, w, params.gamma, k, slopes[0])
    w20_cf_0, w20_cf_mr, c = _w20_closed(p, q, w, r, e, g20, g02, f20)
    w11_cf_0, w11_cf_mr, c1 = _w11_closed(p, q, w, e, g11, f11)
    scale = (abs(g20 / w) * abs(g11 / w) + abs(g21 / w)) / 2.0
    crit = _criticality(l1, scale)
    s = 0 if crit == DEGENERATE else (-1 if l1 < 0.0 else 1)
    l1_route = _l1_from_characteristic(tc, p, q, w, r, k, e_m)
    if not abs(l1_route - l1) <= 1e-10 * scale:
        raise NumericsError(f"l1 = {l1!r} by the Hassard chain and {l1_route!r} from the "
                            "characteristic matrix disagree")
    # a plain NamedTuple: the fields are packed as its __new__ would pack them
    return tuple.__new__(NormalFormData, (
        psi, f20, f11, f02, f21, g20, g11, g02, g21, w20_0, w20_mr, w11_0, w11_mr,
        w20_cf_0, w20_cf_mr, w11_cf_0, w11_cf_mr, c, c1, l1, s, mu_prime, omega_prime, crit,
    ))
