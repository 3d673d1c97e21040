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

The g_jk are projections g_jk = Psi1(0) f_jk of the Taylor coefficients
of the nonlinearity; f21 additionally needs boundary values of the
quadratic manifold corrections w20, w11, obtained here by solving the
two 2x2 linear systems formed by the integrated correction ODEs and the
matching conditions at s = 0 (the long printed closed forms, with the
constants c and c1, are kept as an independent cross-check).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Tuple

from .errors import (
    BracketError,
    DegenerateCrossingError,
    DomainError,
    NoImaginaryCrossingError,
    NoPositiveEquilibriumError,
    NumericsError,
    ResonanceError,
)
from .linstab import (
    CharacteristicTriple,
    bracketed_root,
    characteristic_triple,
    g_of_r,
    omega0,
)
from .model import (
    ModelParameters,
    TaylorCoefficients,
    equilibria,
    taylor_coefficients,
)

__all__ = [
    "HopfPoint",
    "NormalFormData",
    "hopf_from_pqk",
    "find_hopf_r",
    "transversality",
    "psi1_zero",
    "projection_weight",
    "bilinear_pairing",
    "f_coefficients",
    "w_boundary_values",
    "w20_closed_form",
    "w11_closed_form",
    "lyapunov_l1",
    "criticality_report",
]

SUPERCRITICAL = "supercritical"
SUBCRITICAL = "subcritical"
DEGENERATE = "degenerate"

#: |l1| below this is reported as a degenerate bifurcation.
L1_DEGENERATE_TOL = 1e-9

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class HopfPoint:
    """A located Hopf bifurcation point of the positive equilibrium.

    Self-validating: construction checks that +-i omega* solves the
    characteristic equation and that the frontier relations hold.
    """

    r_star: float
    omega_star: float
    p_star: float
    q_star: float
    params: ModelParameters
    x2_star: float

    def __post_init__(self):
        p, q, w, r = self.p_star, self.q_star, self.omega_star, self.r_star
        res = abs(1j * w + p - q * cmath.exp(-1j * w * r))
        if res >= _RESIDUAL_TOL:
            raise NumericsError(
                f"i*omega is not a characteristic root: residual {res}"
            )
        if abs(q) <= abs(p):
            raise NumericsError(f"frontier needs |q| > |p|, got p={p}, q={q}")
        if abs(w - math.sqrt(q * q - p * p)) >= _RESIDUAL_TOL:
            raise NumericsError("omega* != sqrt(q^2 - p^2)")
        if abs(r - math.acos(p / q) / w) >= _RESIDUAL_TOL:
            raise NumericsError("r* != arccos(p/q) / omega*")
        if abs(self.params.r - r) > 1e-12 * max(1.0, abs(r)):
            raise NumericsError("params delay inconsistent with r_star")

    @property
    def triple(self) -> CharacteristicTriple:
        return CharacteristicTriple(p=self.p_star, q=self.q_star, r=self.r_star)


@dataclass(frozen=True)
class NormalFormData:
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
    w11_at_0: complex
    w11_at_minus_r: complex
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
    consistent with the result is gamma* = -ln(k/2)/r*.
    """
    # A, x2, B1, p and q depend on k but not on r, so any delay will do here
    model_k = ModelParameters.from_k(beta0, n, delta, k, 1.0)
    triple = characteristic_triple(model_k)
    p, q = triple.p, triple.q
    report = equilibria(model_k)
    if q >= 0.0:
        raise NoImaginaryCrossingError(
            f"B1 = {report.B1_at_x2} >= 0: no pure-imaginary crossing in this regime"
        )
    if abs(q) <= abs(p):
        raise NoImaginaryCrossingError(
            f"|q| = {abs(q)} <= |p| = {abs(p)}: no pure-imaginary crossing"
        )
    omega = math.sqrt(q * q - p * p)
    r = math.acos(p / q) / omega
    params = ModelParameters.from_k(beta0, n, delta, k, r)
    return HopfPoint(
        r_star=r, omega_star=omega, p_star=p, q_star=q, params=params, x2_star=report.x2
    )


def find_hopf_r(
    params: ModelParameters, bracket: Tuple[float, float]
) -> HopfPoint:
    """Locate the Hopf delay as the root of g(r) inside `bracket`.

    gamma is taken from `params` and held fixed.  A bracket end where g
    is not evaluable (crossing frequency gone, or x2 absent) is pulled
    toward the other end until g exists there; the boundary function is
    defined on a neighborhood of the root, so a usable sub-bracket
    survives whenever the original one straddles the crossing.  The root
    is polished to |g| < 1e-11; the crossing frequency is omega0 there.
    """
    a, b = bracket
    if not (math.isfinite(a) and math.isfinite(b)) or a == b:
        raise BracketError(f"degenerate bracket ({a}, {b})")
    if a > b:
        a, b = b, a

    def g_or_none(rr: float):
        try:
            return g_of_r(rr, params)
        except (DomainError, NoPositiveEquilibriumError):
            return None

    ga = g_or_none(a)
    gb = g_or_none(b)
    for _ in range(80):
        if ga is not None and gb is not None:
            break
        if ga is None:
            a = a + 0.25 * (b - a)
            ga = g_or_none(a)
        if gb is None:
            b = b - 0.25 * (b - a)
            gb = g_or_none(b)
        if b - a < 1e-15:
            break
    if ga is None or gb is None:
        raise BracketError(
            f"g is not evaluable anywhere on the bracket {bracket}"
        )
    r = bracketed_root(lambda rr: g_of_r(rr, params), a, b, f_tol=1e-11)
    local = params.with_r(r)
    triple = characteristic_triple(local)
    return HopfPoint(r_star=r, omega_star=omega0(triple), p_star=triple.p,
                     q_star=triple.q, params=local, x2_star=equilibria(local).x2)


def _b1_chain_derivatives(hp: HopfPoint) -> Tuple[float, float]:
    # d/dr of p and q at the Hopf point, through k(r) = 2 exp(-gamma r):
    # dk/dr = -gamma k, dA/dk = beta0/delta, dB1/dA = beta0((n-1)A - 2n)/A^3.
    prm = hp.params
    b1 = hp.q_star / prm.k
    A = prm.A
    dk = -prm.gamma * prm.k
    dA = prm.beta0 * dk / prm.delta
    db1 = prm.beta0 * ((prm.n - 1.0) * A - 2.0 * prm.n) / A**3 * dA
    dp = db1
    dq = dk * b1 + prm.k * db1
    return dp, dq


def transversality(hp: HopfPoint) -> Tuple[float, float]:
    """Crossing speed (mu', omega') of the critical root pair in r.

    Implicit differentiation of the real/imaginary split of the
    characteristic equation at (mu = 0, omega = omega*), including the
    r-dependence of k and B1, yields the linear system

        [1 + r p   -omega r] [mu'   ]   [q' cos(wr) - p' + omega^2]
        [r omega    1 + r p] [omega'] = [-q' sin(wr) - p omega    ]
    """
    p, w, r = hp.p_star, hp.omega_star, hp.r_star
    dp, dq = _b1_chain_derivatives(hp)
    cos_wr = math.cos(w * r)
    sin_wr = math.sin(w * r)
    a11 = 1.0 + r * p
    a12 = -w * r
    a21 = r * w
    det = a11 * a11 + (w * r) ** 2
    if det < 1e-12:
        raise DegenerateCrossingError(f"transversality system determinant {det}")
    rhs1 = dq * cos_wr - dp + w * w
    rhs2 = -dq * sin_wr - p * w
    mu_prime = (rhs1 * a11 - a12 * rhs2) / det
    omega_prime = (a11 * rhs2 - a21 * rhs1) / det
    return mu_prime, omega_prime


def projection_weight(p: float, omega: float, r: float) -> complex:
    """Psi1(0) = (1 + (p - i omega) r) / ((1 + p r)^2 + omega^2 r^2)."""
    den = (1.0 + p * r) ** 2 + (omega * r) ** 2
    if den == 0.0:
        raise NumericsError("projection weight denominator vanished")
    return (1.0 + (p - 1j * omega) * r) / den


def psi1_zero(hp: HopfPoint) -> complex:
    """Value at 0 of the normalized adjoint eigenfunction Psi1."""
    return projection_weight(hp.p_star, hp.omega_star, hp.r_star)


def _legendre(m: int, z: float) -> Tuple[float, float]:
    """P_m(z) and P_m'(z), by the three-term recurrence (|z| < 1)."""
    p0, p1 = 1.0, z
    for j in range(2, m + 1):
        p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
    return p1, m * (z * p1 - p0) / (z * z - 1.0)


def _gauss_legendre(m: int) -> Tuple[list, list]:
    """Nodes, ascending, and weights of the m-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre polynomial P_m from the estimates
    cos(pi (i - 1/4) / (m + 1/2)); the rule is symmetric, so only the
    nonnegative half is computed.
    """
    half = []
    for i in range(1, (m + 1) // 2 + 1):
        z = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(50):
            p, dp = _legendre(m, z)
            step = p / dp
            z -= step
            if abs(step) <= 1e-15:
                break
        else:
            raise NumericsError(f"Gauss-Legendre node {i} of {m} did not converge")
        dp = _legendre(m, z)[1]
        half.append((z, 2.0 / ((1.0 - z * z) * dp * dp)))
    upper = half[::-1][m % 2:]  # the middle node of an odd rule only once
    nodes = [-z for z, _ in half] + [z for z, _ in upper]
    weights = [w for _, w in half] + [w for _, w in upper]
    return nodes, weights


def bilinear_pairing(
    psi: Callable[[float], complex],
    phi: Callable[[float], complex],
    hp: HopfPoint,
    min_nodes: int = 64,
    tol: float = 1e-11,
) -> complex:
    """Pairing <psi, phi> = psi(0) phi(0) + q Int_{-r}^{0} psi(z + r) phi(z) dz.

    The integral is evaluated by Gauss-Legendre quadrature starting at
    `min_nodes` nodes, doubling until two successive evaluations agree to
    `tol`.
    """
    r, q = hp.r_star, hp.q_star
    half_r = 0.5 * r

    def quad(m: int) -> complex:
        total = 0.0 + 0.0j
        for x, w in zip(*_gauss_legendre(m)):
            z = half_r * (x - 1.0)
            total += half_r * w * psi(z + r) * phi(z)
        return total

    m = min_nodes
    prev = quad(m)
    for _ in range(5):
        m *= 2
        cur = quad(m)
        if abs(cur - prev) < tol:
            break
        prev = cur
    else:
        raise NumericsError("pairing quadrature did not settle")
    return psi(0.0) * phi(0.0) + q * cur


def f_coefficients(
    tc: TaylorCoefficients,
    hp: HopfPoint,
    w20_0: complex = 0.0,
    w20_mr: complex = 0.0,
    w11_0: complex = 0.0,
    w11_mr: complex = 0.0,
) -> Tuple[complex, complex, complex, complex]:
    """Series coefficients f20, f11, f02, f21 of the projected nonlinearity.

    The second-order coefficients need only the Taylor data:

        f20 = -B2 (1 - k e^{-2 i w r}),  f11 = B2 (k - 1),  f02 = conj(f20).

    f21 additionally uses the boundary values of w20 and w11; passing
    zeros is valid when only the second-order coefficients are wanted.
    """
    k = hp.params.k
    w, r = hp.omega_star, hp.r_star
    e_m = cmath.exp(-1j * w * r)
    e_p = cmath.exp(1j * w * r)
    b2, b3 = tc.b2, tc.b3
    f20 = -b2 * (1.0 - k * e_m * e_m)
    f11 = complex(b2 * (k - 1.0))
    f02 = -b2 * (1.0 - k * e_p * e_p)
    f21 = (
        b2 * (-2.0 * w11_0 - w20_0 + 2.0 * k * e_m * w11_mr + k * e_p * w20_mr)
        - b3 * (1.0 - k * e_m)
    )
    return f20, f11, f02, f21


def w_boundary_values(
    g20: complex,
    g11: complex,
    g02: complex,
    f20: complex,
    f11: complex,
    hp: HopfPoint,
) -> Tuple[complex, complex, complex, complex]:
    """Boundary values w20(0), w20(-r), w11(0), w11(-r) by linear solve.

    w20 satisfies, with E = e^{i w r},

        w20(0) - w20(-r) E^2 = (i g20/w)(1 - E) + (i conj(g02)/(3w))(1 - E^3)
        (2 i w + p) w20(0) - q w20(-r) = f20 - g20 - conj(g02)

    and w11 satisfies

        w11(0) - w11(-r) = -(i/w) g11 (1 - 1/E) + (i/w) conj(g11)(1 - E)
        p w11(0) - q w11(-r) = f11 - g11 - conj(g11).

    Each system is singular exactly when 2 i w (respectively 0) is itself
    a characteristic root; that resonance is reported as an error.
    """
    p, q = hp.p_star, hp.q_star
    w, r = hp.omega_star, hp.r_star
    e = cmath.exp(1j * w * r)

    # w20 system
    a11, a12 = 1.0 + 0.0j, -(e * e)
    a21, a22 = 2j * w + p, complex(-q)
    b1 = (1j * g20 / w) * (1.0 - e) + (1j * g02.conjugate() / (3.0 * w)) * (
        1.0 - e**3
    )
    b2 = f20 - g20 - g02.conjugate()
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-12:
        raise ResonanceError(
            "w20 system singular: 2 i omega* collides with a characteristic root"
        )
    w20_0 = (b1 * a22 - a12 * b2) / det
    w20_mr = (a11 * b2 - a21 * b1) / det

    # w11 system
    c11, c12 = 1.0 + 0.0j, -1.0 + 0.0j
    c21, c22 = complex(p), complex(-q)
    d1 = -(1j / w) * g11 * (1.0 - 1.0 / e) + (1j / w) * g11.conjugate() * (1.0 - e)
    d2 = f11 - g11 - g11.conjugate()
    det11 = c11 * c22 - c12 * c21
    if abs(det11) < 1e-12:
        raise ResonanceError(
            "w11 system singular: 0 collides with a characteristic root (p = q)"
        )
    w11_0 = (d1 * c22 - c12 * d2) / det11
    w11_mr = (c11 * d2 - c21 * d1) / det11
    return w20_0, w20_mr, w11_0, w11_mr


def w20_closed_form(
    g20: complex, g02: complex, f20: complex, hp: HopfPoint
) -> Tuple[complex, complex, complex]:
    """Printed closed forms for w20(0), w20(-r) and their constant c.

    Kept as an independent cross-check of :func:`w_boundary_values`.
    """
    p, q = hp.p_star, hp.q_star
    w, r = hp.omega_star, hp.r_star
    e = cmath.exp(1j * w * r)
    cos2 = math.cos(2.0 * w * r)
    sin2 = math.sin(2.0 * w * r)
    num = (-q + p * cos2 - 2.0 * w * sin2) - 1j * (2.0 * w * cos2 + p * sin2)
    den = q * q + p * p + 4.0 * w * w - 2.0 * q * p * cos2 + 4.0 * q * w * sin2
    if den == 0.0:
        raise ResonanceError("closed-form constant c undefined")
    c = num / den
    g02c = g02.conjugate()
    w20_0 = c * (
        e * e * f20
        + g20 * (-(q * 1j / w) + (q * 1j / w) * e - e * e)
        + g02c * (-(q * 1j / (3.0 * w)) + (q * 1j / (3.0 * w)) * e**3 - e * e)
    )
    w20_mr = c * (
        f20
        + g20 * (1.0 - 2.0 * e - (p / w) * 1j * (1.0 - e))
        - (g02c / 3.0) * (1.0 + 2.0 * e**3 + (p / w) * 1j * (1.0 - e**3))
    )
    return w20_0, w20_mr, c


def w11_closed_form(
    g11: complex, f11: complex, hp: HopfPoint
) -> Tuple[complex, complex, float]:
    """Printed closed forms for w11(0), w11(-r) and their constant c1."""
    p, q = hp.p_star, hp.q_star
    w, r = hp.omega_star, hp.r_star
    e = cmath.exp(1j * w * r)
    if p == q:
        raise ResonanceError("closed-form constant c1 undefined (p = q)")
    c1 = 1.0 / (p - q)
    g11c = g11.conjugate()
    common = f11 - g11 - g11c
    swing = g11 * (1.0 - 1.0 / e) - g11c * (1.0 - e)
    w11_0 = c1 * (common + (q * 1j / w) * swing)
    w11_mr = c1 * (common + (p * 1j / w) * swing)
    return w11_0, w11_mr, c1


def lyapunov_l1(g20: complex, g11: complex, g21: complex, omega_star: float) -> float:
    """First Lyapunov coefficient Re(i g20 g11 + omega* g21) / (2 omega*^2)."""
    return (1j * g20 * g11 + omega_star * g21).real / (2.0 * omega_star**2)


def _criticality(l1: float) -> str:
    if abs(l1) < L1_DEGENERATE_TOL:
        return DEGENERATE
    return SUPERCRITICAL if l1 < 0.0 else SUBCRITICAL


def criticality_report(hp: HopfPoint) -> NormalFormData:
    """Full normal-form computation at a Hopf point.

    Chains Taylor data, projection, manifold coefficients, the cubic
    coefficient g21, the first Lyapunov coefficient, and the crossing
    speed into one report.  Supercritical means l1 < 0: a stable cycle
    exists on the side of r* where the equilibrium is unstable.
    """
    params = hp.params
    tc = taylor_coefficients(params, equilibria(params))
    psi = psi1_zero(hp)
    f20, f11, f02, _ = f_coefficients(tc, hp)
    g20, g11, g02 = psi * f20, psi * f11, psi * f02
    w20_0, w20_mr, w11_0, w11_mr = w_boundary_values(g20, g11, g02, f20, f11, hp)
    _, _, _, f21 = f_coefficients(tc, hp, w20_0, w20_mr, w11_0, w11_mr)
    g21 = psi * f21
    l1 = lyapunov_l1(g20, g11, g21, hp.omega_star)
    mu_prime, omega_prime = transversality(hp)
    _, _, c = w20_closed_form(g20, g02, f20, hp)
    _, _, c1 = w11_closed_form(g11, f11, hp)
    crit = _criticality(l1)
    s = 0 if crit == DEGENERATE else (-1 if l1 < 0.0 else 1)
    return NormalFormData(
        psi1_zero=psi,
        f20=f20,
        f11=f11,
        f02=f02,
        f21=f21,
        g20=g20,
        g11=g11,
        g02=g02,
        g21=g21,
        w20_at_0=w20_0,
        w20_at_minus_r=w20_mr,
        w11_at_0=w11_0,
        w11_at_minus_r=w11_mr,
        c=c,
        c1=c1,
        l1=l1,
        s=s,
        mu_prime=mu_prime,
        omega_prime=omega_prime,
        criticality=crit,
    )
