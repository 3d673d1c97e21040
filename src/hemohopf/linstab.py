"""Linear stability of the equilibria via the characteristic equation.

Linearizing around an equilibrium with coefficient B1 gives

    z'(t) = -(delta + B1) z(t) + k B1 z(t - r),

whose eigenvalues solve the transcendental equation

    lam + p = q exp(-lam r),      p = delta + B1,  q = k B1.

For B1 < 0 the stability boundary is expressed through the strictly
decreasing function T(y) = y cot(y) on [0, pi): the candidate crossing
frequency is omega0 = T^{-1}(-p r) / r, and the sign of

    g(r) = T^{-1}(-p(r) r) - arccos(p(r) / q(r))

decides which side of the boundary a given delay lies on (both p and q
depend on r through k when gamma is held fixed).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NoPositiveEquilibriumError,
)
from .model import ModelParameters, equilibria

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

#: Absolute tolerance for boundary predicates (p = 0, A = 1, g = 0, r|p| = 1).
BOUNDARY_TOL = 1e-9

#: Largest relative characteristic residual `rightmost_root` certifies.
ROOT_RESIDUAL_TOL = 1e-10

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

CASE_X1 = "X1"
CASE_IA = "I.A"
CASE_IB = "I.B"
CASE_P0 = "I.boundary_p0"
CASE_II = "II"
CASE_B1_ZERO = "B1_zero"


@dataclass(frozen=True)
class CharacteristicTriple:
    """Coefficients (p, q, r) of ``lam + p = q exp(-lam r)``."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError(f"p, q must be finite, got p={self.p}, q={self.q}")
        if not math.isfinite(self.r) or self.r < 0.0:
            raise DomainError(f"delay r must be nonnegative, got {self.r}")


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of classifying one equilibrium.

    ``stable_window`` holds the delay bounds supporting the verdict where
    the classification case has any (the bounds are computed from the
    local p, q, which themselves vary with r).
    """

    target: str
    case_label: str
    status: str
    omega0: Optional[float] = None
    stable_window: Optional[Tuple[float, float]] = None
    notes: str = ""


def characteristic_triple(params: ModelParameters) -> CharacteristicTriple:
    """Triple (p, q, r) for the linearization at x2, p = delta + B1(x2) and
    q = k B1(x2): the one place where p and q are formed."""
    report = equilibria(params)
    if report.B1_at_x2 is None:
        raise NoPositiveEquilibriumError(f"no positive equilibrium: A = {report.A} <= 1")
    b1 = report.B1_at_x2
    return CharacteristicTriple(p=params.delta + b1, q=params.k * b1, r=params.r)


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


def T_inv(v: float) -> float:
    """Unique y in [0, pi) with T(y) = v, for v <= 1.

    Bracketed bisection, stopping at |T(y) - v| < 1e-13 or interval
    width < 1e-14.
    """
    if not math.isfinite(v):
        raise DomainError(f"T_inv argument must be finite, got {v}")
    if v > 1.0:
        raise DomainError(f"T maps [0, pi) onto (-inf, 1], got v={v} > 1")
    if v == 1.0:
        return 0.0
    lo = 0.0
    # walk hi toward pi until T(hi) drops below v (T -> -inf there)
    gap = 0.5 * math.pi
    hi = math.pi - gap
    while T_eval(hi) > v:
        gap *= 0.5
        hi = math.pi - gap
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        t = T_eval(mid)
        if abs(t - v) < 1e-13 or hi - lo < 1e-14:
            return mid
        if t > v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

    Case split on B1 = B1(x2) and p = delta + B1:

    * B1 > 0 (case II): stable unconditionally.
    * B1 = 0: the characteristic equation degenerates to lam = -delta,
      stable.
    * B1 < 0, p < 0 (case I.A): stable iff |p| < |q| and
      arccos(p/q)/omega0 < r < 1/|p|; unstable at r|p| = 1; marginal on
      the crossing locus g = 0.
    * B1 < 0, p > 0 (case I.B): stable iff p > |q|, or p <= |q| and
      r < arccos(p/q)/omega0; marginal on g = 0.
    * B1 < 0, p = 0: stable iff -q r < pi/2, marginal at equality.
    """
    triple = characteristic_triple(params)
    p, q, r = triple.p, triple.q, triple.r
    b1 = q / params.k

    if r == 0.0 and b1 < -BOUNDARY_TOL and abs(p) > BOUNDARY_TOL:
        # delay-free limit: the single eigenvalue is q - p
        lam = q - p
        case = CASE_IA if p < 0.0 else CASE_IB
        if abs(lam) <= BOUNDARY_TOL:
            status = MARGINAL
        else:
            status = STABLE if lam < 0.0 else UNSTABLE
        return StabilityVerdict(
            target="x2",
            case_label=case,
            status=status,
            notes=f"no delay: eigenvalue q - p = {lam}",
        )

    if abs(b1) <= BOUNDARY_TOL:
        return StabilityVerdict(
            target="x2",
            case_label=CASE_B1_ZERO,
            status=STABLE,
            notes="B1 = 0: characteristic equation degenerates to lam = -delta",
        )
    if b1 > 0.0:
        return StabilityVerdict(
            target="x2",
            case_label=CASE_II,
            status=STABLE,
            notes="B1 > 0: stable for every delay in this regime",
        )

    # B1 < 0 from here on; q = k B1 < 0.
    if abs(p) <= BOUNDARY_TOL:
        half_pi = 0.5 * math.pi
        m = -q * r
        w0 = half_pi / r if r > 0.0 else None
        window = (0.0, half_pi / (-q))
        if abs(m - half_pi) <= BOUNDARY_TOL:
            status, notes = MARGINAL, "-q r = pi/2: pure-imaginary pair, crossing point"
        elif m < half_pi:
            status, notes = STABLE, "-q r < pi/2"
        else:
            status, notes = UNSTABLE, "-q r > pi/2"
        return StabilityVerdict(
            target="x2",
            case_label=CASE_P0,
            status=status,
            omega0=w0,
            stable_window=window,
            notes=notes,
        )

    # B1 < 0 and p != 0 from here on: case I.A (p < 0) or I.B (p > 0).
    case = CASE_IA if p < 0.0 else CASE_IB
    if p < 0.0 and r * abs(p) >= 1.0 - BOUNDARY_TOL:
        return StabilityVerdict(
            target="x2", case_label=case, status=UNSTABLE, notes=f"r|p| = {r * abs(p)} >= 1"
        )
    if p < 0.0 and abs(p) >= abs(q):
        return StabilityVerdict(
            target="x2",
            case_label=case,
            status=UNSTABLE,
            notes=f"|p| = {abs(p)} >= |q| = {abs(q)}",
        )
    if p > abs(q):
        return StabilityVerdict(
            target="x2",
            case_label=case,
            status=STABLE,
            notes=f"p = {p} > |q| = {abs(q)}: stable for every delay",
        )
    # The frontier is g = omega0 r - arccos(p/q) = 0.  Its stable side is
    # g > 0 in I.A, window (arccos(p/q)/omega0, 1/|p|), and g < 0 in I.B,
    # window (0, arccos(p/q)/omega0).
    w0 = omega0(triple)
    acc = math.acos(max(p / q, -1.0))  # I.B reaches p/q = -1; clamp roundoff
    window = (acc / w0, 1.0 / abs(p)) if p < 0.0 else (0.0, acc / w0)
    g = w0 * r - acc
    if abs(g) <= BOUNDARY_TOL:
        status, notes = MARGINAL, "g(r) = 0: on the stability frontier"
    else:
        status = STABLE if (g > 0.0) == (p < 0.0) else UNSTABLE
        notes = f"g = {g} > 0" if g > 0.0 else f"g = {g} < 0"
    return StabilityVerdict(
        target="x2",
        case_label=case,
        status=status,
        omega0=w0,
        stable_window=window,
        notes=notes,
    )


def g_of_r(r: float, params: ModelParameters) -> float:
    """Boundary function g(r) = T^{-1}(-p(r) r) - arccos(p(r)/q(r)).

    gamma is taken from `params` and held fixed; k, B1, p, q are
    recomputed at the requested delay.  Requires the positive equilibrium
    to exist at r and both subterms to be in domain.
    """
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError(f"g is evaluated for r > 0, got {r}")
    triple = characteristic_triple(params.with_r(r))
    p, q = triple.p, triple.q
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


def bracketed_root(func, a: float, b: float, f_tol: float, x_tol: float = 1e-15):
    """Bisection/secant hybrid for a bracketed scalar root of `func`.

    The bracket endpoints must produce values of opposite sign.  Each
    iteration tries the secant point and falls back to the midpoint when
    it leaves the bracket; stops at |f| < f_tol or width < x_tol.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a == b:
        raise BracketError(f"degenerate bracket ({a}, {b})")
    if a > b:
        a, b = b, a
    fa = func(a)
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
    for _ in range(200):
        if abs(fx) < f_tol or (b - a) < x_tol:
            return x
        mid = 0.5 * (a + b)
        cand = b - fb * (b - a) / (fb - fa)
        if not (a < cand < b):
            cand = mid
        fc = func(cand)
        if math.copysign(1.0, fc) == math.copysign(1.0, fa):
            a, fa = cand, fc
        else:
            b, fb = cand, fc
        x, fx = (cand, fc) if abs(fc) < min(abs(fa), abs(fb)) else (
            (a, fa) if abs(fa) < abs(fb) else (b, fb)
        )
    if abs(fx) < f_tol or (b - a) < x_tol:
        return x
    raise ConvergenceError(
        f"bracketed root search exhausted 200 iterations at |f| = {abs(fx)}",
        last_iterate=x,
    )
