"""Linear stability of the equilibria via the characteristic equation.

Linearizing around an equilibrium with coefficient B1 gives

    z'(t) = -(delta + B1) z(t) + k B1 z(t - r),

whose eigenvalues solve the transcendental equation

    lam + p = q exp(-lam r),      p = delta + B1,  q = k B1.

x2 is stable exactly for r < r0(p, q), the delay at which a root pair
crosses the imaginary axis (see `_crossing`).  The paper's boundary
function, through the strictly decreasing T(y) = y cot(y) on [0, pi),

    g(r) = T^{-1}(-p(r) r) - arccos(p(r) / q(r)),

vanishes at the same crossings and is kept as an independent check (both
p and q depend on r through k when gamma is held fixed).
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple, Optional, Tuple

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NoPositiveEquilibriumError,
)
from .model import ModelParameters, _CheckedRecord, _b1_at_x2, _check_delay, _checked_A
# `equilibria` is unused here; perfbench/selftest.py looks it up as
# `linstab.equilibria`.
from .model import equilibria  # noqa: F401

__all__ = [
    "CharacteristicTriple",
    "StabilityVerdict",
    "characteristic_triple",
    "char_value",
    "T_eval",
    "T_inv",
    "omega0",
    "classify_x1",
    "classify_x2",
    "g_of_r",
    "char_root_newton",
    "rightmost_root",
]

#: Tolerance of the boundary predicates, relative to the sizes of the terms
#: of the quantity tested (A - 1, B1, p, r - r0, and l1 in `hopf`).
BOUNDARY_TOL = 1e-9

#: Largest relative characteristic residual `rightmost_root` certifies.
ROOT_RESIDUAL_TOL = 1e-10

# A relative step or width of a few units in the last place: rounding level.
_ROUNDING = 4.0 * 2.0**-52
# The smallest positive normal float.
_TINY = sys.float_info.min

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

CASE_X1 = "X1"
CASE_IA = "I.A"
CASE_IB = "I.B"
CASE_P0 = "I.boundary_p0"
CASE_II = "II"
CASE_B1_ZERO = "B1_zero"


def _check_pq(p: float, q: float) -> Tuple[float, float]:
    if not (math.isfinite(p) and math.isfinite(q)):
        raise DomainError(f"p, q must be finite, got p={p}, q={q}")
    return p, q


class _CharacteristicTripleFields(NamedTuple):
    p: float
    q: float
    r: float


class CharacteristicTriple(_CheckedRecord, _CharacteristicTripleFields):
    """Coefficients (p, q, r) of ``lam + p = q exp(-lam r)``."""

    __slots__ = ()

    def __new__(cls, p, q, r):
        _check_pq(p, q)
        if not math.isfinite(r) or r < 0.0:
            raise DomainError(f"delay r must be nonnegative, got {r}")
        return super().__new__(cls, p, q, r)


class StabilityVerdict(NamedTuple):
    """Outcome of classifying one equilibrium.

    For x2, ``stable_window`` is (0, r0) with r0 computed from the local
    p, q, which themselves vary with r when gamma is held fixed.
    """

    target: str
    case_label: str
    status: str
    omega0: Optional[float] = None
    stable_window: Optional[Tuple[float, float]] = None
    notes: str = ""


def _pq_at_x2(
    beta0: float, n: float, delta: float, k: float, A: float
) -> Tuple[float, float]:
    # (p, q) at x2, refused where x2 is absent
    if A <= 1.0:
        raise NoPositiveEquilibriumError(f"no positive equilibrium: A = {A} <= 1")
    return _pq_given_x2(beta0, n, delta, k, A)


def _pq_given_x2(beta0, n, delta, k, A):
    # p = delta + B1(x2) and q = k B1(x2) at x2 = (A - 1)^(1/n), for an A > 1 the
    # caller tested, refused unless finite
    b1 = _b1_at_x2(beta0, n, A)
    return _check_pq(delta + b1, k * b1)


def characteristic_triple(params: ModelParameters) -> CharacteristicTriple:
    """Triple (p, q, r) for the linearization at x2, p = delta + B1(x2) and
    q = k B1(x2), formed by `_pq_at_x2`."""
    p, q = _pq_at_x2(params.beta0, params.n, params.delta, params.k, params.A)
    return CharacteristicTriple(p=p, q=q, r=params.r)


def char_value(lam: complex, triple: CharacteristicTriple) -> complex:
    """Residual lam + p - q exp(-lam r) of the characteristic equation."""
    return lam + triple.p - triple.q * cmath.exp(-lam * triple.r)


def T_eval(y: float) -> float:
    """T(y) = y cot(y) on [0, pi), with the removable value T(0) = 1."""
    if not 0.0 <= y < math.pi:
        raise DomainError(f"T is defined on [0, pi), got y={y}")
    if y == 0.0:
        return 1.0
    return y * math.cos(y) / math.sin(y)


# The largest float below pi, and T there: T_inv's upper end.
_Y_TOP = math.nextafter(math.pi, 0.0)
_T_TOP = T_eval(_Y_TOP)


def T_inv(v: float) -> float:
    """Unique y in [0, pi) with T(y) = v, for v <= 1.

    Safeguarded Newton iteration.  T is decreasing and concave on [0, pi)
    (T'' = 2 csc^2(y) (T - 1) <= 0), so from any start right of the root
    the Newton iterates decrease monotonically onto it.  The start is
    sqrt(3 (1 - v)) near v = 1, from T(y) <= 1 - y^2 / 3, which lies right
    of the root; for very negative v it is pi - pi / (1 - v), from
    T(pi - e) ~ 1 - pi / e, which lies left of it, and the first step
    crosses over.  A step leaving the bracket [lo, hi] falls back to its
    midpoint.  The iteration stops when the step reaches rounding level,
    or when rounding puts an iterate back on the left of the root.
    """
    if not math.isfinite(v):
        raise DomainError(f"T_inv argument must be finite, got {v}")
    if v > 1.0:
        raise DomainError(f"T maps [0, pi) onto (-inf, 1], got v={v} > 1")
    if v == 1.0:
        return 0.0
    if v < _T_TOP:
        raise DomainError(f"T_inv argument {v} is below T at the largest float under pi")
    lo, hi = 0.0, _Y_TOP
    if v > -1.0:
        y = math.sqrt(3.0 * (1.0 - v))
    else:
        y = min(math.pi - math.pi / (1.0 - v), _Y_TOP)
    for _ in range(60):
        s = math.sin(y)
        cot = math.cos(y) / s
        f = y * cot - v
        if f == 0.0 or (f > 0.0 and hi < _Y_TOP):
            return y  # exact, or put back left of the root by rounding
        if f > 0.0:
            lo = y
        else:
            hi = y
        slope = cot - y / (s * s)  # T'(y); cancellation can spoil it near 0
        step = f / slope if slope < 0.0 else math.inf
        if abs(step) <= _ROUNDING * y:
            return min(y - step, hi)
        y -= step
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
    return y


def omega0(triple: CharacteristicTriple) -> float:
    """Crossing frequency candidate: the solution in (0, pi/r) of
    omega cot(omega r) = -p, computed as T^{-1}(-p r) / r."""
    p, r = triple.p, triple.r
    if r <= 0.0:
        raise DomainError(f"omega0 requires r > 0, got r={r}")
    v = -p * r
    if v > 1.0:
        raise DomainError(
            f"no crossing frequency: -p*r = {v} > 1 (p < 0 with r|p| > 1)"
        )
    return T_inv(v) / r


def _crossing(p: float, q: float) -> Tuple[float, float]:
    """(omega*, r0) of ``lam + p = q exp(-lam r)``: x2 is stable exactly for
    r < r0 (Hayes, J. London Math. Soc. 25 (1950) 226).

    For q < -|p| the root pair +-i omega*, omega* = sqrt(q^2 - p^2), crosses
    the imaginary axis at r0 = arccos(p/q) / omega*.  For p >= -q no root
    ever crosses, and (0, +inf) is returned: omega* is 0 only there, while
    r0 is also +inf where the crossing delay overflows.  Wherever x2 exists,
    p - q = delta n (A - 1) / A > 0, so one of the two holds: no other
    region of (p, q) can occur.
    """
    if p >= -q:
        return 0.0, math.inf
    w2 = q * q - p * p
    # outside the normal range w2 has overflowed or lost its digits; the
    # factors p - q and -q - p are both positive here and keep them
    omega = math.sqrt(w2) if _TINY <= w2 < math.inf else math.sqrt(p - q) * math.sqrt(-q - p)
    return omega, math.acos(p / q) / omega


def classify_x1(params: ModelParameters) -> StabilityVerdict:
    """Stability of the trivial equilibrium x1 = 0.

    Stable while it is the only equilibrium (A < 1), marginal exactly at
    A = 1 where lam = 0 solves the characteristic equation, unstable once
    the positive equilibrium exists.
    """
    A = params.A
    if abs(A - 1.0) <= BOUNDARY_TOL:
        status = MARGINAL
        notes = "threshold A = 1: lam = 0 is a characteristic root"
    elif A < 1.0:
        status = STABLE
        notes = "single equilibrium regime (A < 1)"
    else:
        status = UNSTABLE
        notes = "positive equilibrium exists (A > 1)"
    return StabilityVerdict(target="x1", case_label=CASE_X1, status=status, notes=notes)


def classify_x2(params: ModelParameters) -> StabilityVerdict:
    """Stability of the positive equilibrium x2.

    x2 is stable for r < r0, unstable for r > r0 and marginal within
    ``BOUNDARY_TOL`` r0 of it, where r0 = r0(p, q) is the crossing delay of
    :func:`_crossing` at the local k; ``stable_window`` is (0, r0) and
    ``omega0`` the frequency omega* of the pair that crosses at r0 (None
    when r0 = +inf).  The case label is the paper's split on B1 = B1(x2)
    and p = delta + B1: II (B1 > 0), B1_zero, I.boundary_p0 (p = 0), I.A
    (p < 0) and I.B (p > 0); B1 (as n - (n - 1) A) and p are 0 within
    ``BOUNDARY_TOL`` of n + (n - 1) A and of delta + |B1|.
    """
    n, A, r = params.n, params.A, params.r
    k = params.k
    p, q = _pq_at_x2(params.beta0, n, params.delta, k, A)
    b1, nA = q / k, (n - 1.0) * A
    if abs(n - nA) <= BOUNDARY_TOL * (n + nA):
        case = CASE_B1_ZERO
    elif b1 > 0.0:
        case = CASE_II
    elif abs(p) <= BOUNDARY_TOL * (params.delta + abs(b1)):
        case = CASE_P0
    else:
        case = CASE_IA if p < 0.0 else CASE_IB
    omega, r0 = _crossing(p, q)
    if omega == 0.0:
        status, notes = STABLE, "p >= -q: r0 = inf, stable for every delay"
    elif r0 == math.inf:
        status, notes = STABLE, "p < -q, but r0 overflows: stable for every float delay"
    elif abs(r - r0) <= BOUNDARY_TOL * r0:
        status, notes = MARGINAL, f"r = r0 = {r0!r}: on the stability frontier"
    elif r < r0:
        status, notes = STABLE, f"r < r0 = {r0!r}"
    else:
        status, notes = UNSTABLE, f"r > r0 = {r0!r}"
    # the record has no checks: its fields are packed as NamedTuple's __new__ packs them
    return tuple.__new__(StabilityVerdict, ("x2", case, status, omega if r0 < math.inf else None,
                                            (0.0, r0), notes))


def g_of_r(r: float, params: ModelParameters) -> float:
    """Boundary function g(r) = T^{-1}(-p(r) r) - arccos(p(r)/q(r)).

    gamma is taken from `params` and held fixed.  r must be finite and
    positive (`DomainError`), and int or float (`ParameterError`); then
    `ParameterError` for a non-finite A at r, `NoPositiveEquilibriumError`
    where x2 is absent at r and `DomainError` for a non-finite p or q.  Both
    subterms must be in domain (`DomainError` otherwise).
    """
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError(f"g is evaluated for r > 0, got {r}")
    k = _check_delay(params.gamma, r)
    A = _checked_A(params.beta0, params.delta, k)
    p, q = _pq_at_x2(params.beta0, params.n, params.delta, k, A)
    v = -p * r
    if v > 1.0:
        raise DomainError(f"T_inv argument -p*r = {v} > 1 at r = {r}")
    if q == 0.0 or abs(p / q) > 1.0:
        raise DomainError(f"arccos argument p/q = {p}/{q} outside [-1, 1] at r = {r}")
    return T_inv(v) - math.acos(p / q)


def char_root_newton(
    guess: complex, triple: CharacteristicTriple, tol: float = 1e-12, max_iter: int = 60
) -> complex:
    """Polish a characteristic root by damped Newton iteration.

    Uses the exact derivative 1 + q r exp(-lam r); the step is halved
    (up to 20 times) whenever it fails to reduce the residual.
    """
    p, q, r = triple.p, triple.q, triple.r
    lam = complex(guess)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError(f"guess must be finite, got {guess}")

    def residual(z: complex) -> complex:
        # exp overflows for strongly negative real parts; report as inf
        try:
            return z + p - q * cmath.exp(-z * r)
        except OverflowError:
            return complex(math.inf, 0.0)

    f = residual(lam)
    if not math.isfinite(abs(f)):
        raise ConvergenceError("residual overflows at the guess", last_iterate=lam)
    for _ in range(max_iter):
        if abs(f) < tol:
            return lam
        df = 1.0 + q * r * cmath.exp(-lam * r)
        if df == 0:
            raise ConvergenceError("Newton derivative vanished", last_iterate=lam)
        step = f / df
        for _ in range(20):
            cand = lam - step
            fc = residual(cand)
            if abs(fc) < abs(f):
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                f"Newton stalled at residual {abs(f)}", last_iterate=lam
            )
        lam, f = cand, fc
    if abs(f) < tol:
        return lam
    raise ConvergenceError(
        f"Newton did not reach residual {tol} in {max_iter} iterations "
        f"(final residual {abs(f)})",
        last_iterate=lam,
    )


def _lambert_w0(log_abs_z: float, negative: bool) -> complex:
    """Principal branch W_0(z) of the Lambert W function at the real
    z = -exp(log_abs_z) if `negative`, else z = exp(log_abs_z).

    Works from log z, so z itself may lie far outside the float range.
    Halley iteration on w + log w = log z: with the principal logarithm,
    W_0(z) is the only solution of that equation.  The result is not
    checked here; `rightmost_root` certifies it.
    """
    if log_abs_z < -40.0:
        # W_0(z) = z (1 - z + ...) equals z to double precision
        z = math.exp(log_abs_z)
        return complex(-z if negative else z)
    log_z = complex(log_abs_z, math.pi if negative else 0.0)
    if log_abs_z >= 1.0:
        # asymptotic expansion L1 - L2 + L2 / L1
        l2 = cmath.log(log_z)
        w = log_z - l2 + l2 / log_z
    elif negative and log_abs_z >= -1.5:
        # series around the branch point z = -1/e; s is imaginary below it,
        # which starts the iteration off the real axis
        s = cmath.sqrt(2.0 * (1.0 - math.exp(log_abs_z + 1.0)))
        w = -1.0 + s * (1.0 + s * (-1.0 / 3.0 + s * 11.0 / 72.0))
    else:
        # -0.22 < z < e: W_0 is real here, and log1p(z) is a close real start
        z = math.exp(log_abs_z)
        w = complex(math.log1p(-z if negative else z))
    for _ in range(30):
        if w == -1.0:  # the branch point itself, where f' vanishes
            break
        f = w + cmath.log(w) - log_z
        newton = f * w / (w + 1.0)
        step = newton / (1.0 + newton / (2.0 * w * (w + 1.0)))
        w -= step
        if abs(step) <= 1e-12 * abs(w):  # cubic: the error left is far smaller
            break
    return w


def rightmost_root(triple: CharacteristicTriple) -> complex:
    """Rightmost root of ``lam + p = q exp(-lam r)``, from its closed form.

    With w = (lam + p) r the equation reads w exp(w) = z, z = q r exp(p r),
    so the roots are lam_k = -p + W_k(z) / r.  For real p, q the principal
    branch W_0 gives the rightmost root (Shinozaki & Mori, Automatica 42
    (2006) 1791).  Roots come in conjugate pairs; W_0 of a real argument
    lies in the closed upper half-plane, so the root returned is the one
    with nonnegative imaginary part.

    The result is certified: `ConvergenceError` is raised unless the
    relative residual |lam + p - q exp(-lam r)| / (|lam| + |p| + |q|) is
    at most `ROOT_RESIDUAL_TOL`.
    """
    p, q, r = triple.p, triple.q, triple.r
    if r <= 0.0:
        raise DomainError(f"rightmost root requires r > 0, got r={r}")
    if q == 0.0:
        return complex(-p, 0.0)
    w = _lambert_w0(math.log(abs(q)) + math.log(r) + p * r, q < 0.0)
    lam = -p + w / r
    try:
        residual = abs(char_value(lam, triple))
    except OverflowError:
        residual = math.inf
    relative = residual / (abs(lam) + abs(p) + abs(q))
    if not relative <= ROOT_RESIDUAL_TOL:
        raise ConvergenceError(
            f"rightmost root has relative residual {relative:.3e} "
            f"> {ROOT_RESIDUAL_TOL:g}",
            last_iterate=lam,
        )
    return lam


def bracketed_root(func, a: float, b: float, f_tol: float, *, fa=None, fb=None):
    """Illinois (modified regula falsi) root of `func` on a bracket.

    The end values must differ in sign; known ones may be passed as `fa`
    and `fb`, and `func` is then not called at that end.  Each iteration
    steps from the end of smaller |f| by the share f_near / (fa - fb) of the
    bracket, at most a half, so the step neither overflows nor is absorbed
    by a far end (a bracket over about 308 decades wide can still underflow
    the share and exhaust the iterations); a point rounding onto an end with
    both end values finite moves one float inside, and one still not
    strictly inside is replaced by the midpoint.  An end kept twice in a row
    has its stored value halved, so both ends close in.  Returns the point x
    of smallest |f| once |f(x)| < f_tol ulp(x) or the bracket is a few ulps wide.
    """
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
    # f keeps its sign at each end, so only |f| is stored, taken once per value
    sign_a, ma, mb = math.copysign(1.0, fa), abs(fa), abs(fb)
    x, mx = (a, ma) if ma < mb else (b, mb)
    moved_a = None  # whether the previous iteration moved a
    for _ in range(200):
        if mx < f_tol * math.ulp(x) or b - a <= _ROUNDING * max(-a, b):
            return x
        # fa - fb is sign_a (ma + mb), so f_near / (fa - fb) is m_near / (ma + mb)
        near, m_near = (a, ma) if ma < mb else (b, -mb)
        c = near + (b - a) * (m_near / (ma + mb))
        if not a < c < b:
            if (c == a or c == b) and math.isfinite(ma) and math.isfinite(mb):
                c = math.nextafter(a, b) if c == a else math.nextafter(b, a)
            if not a < c < b:
                c = 0.5 * (a + b)
        fc = func(c)
        if fc == 0.0:
            return c
        mc = abs(fc)
        if mc < mx:
            x, mx = c, mc
        if math.copysign(1.0, fc) == sign_a:
            if moved_a:
                mb *= 0.5
            a, ma, moved_a = c, mc, True
        else:
            if moved_a is False:
                ma *= 0.5
            b, mb, moved_a = c, mc, False
    raise ConvergenceError(
        f"bracketed root search exhausted 200 iterations at |f| = {mx}",
        last_iterate=x,
    )
