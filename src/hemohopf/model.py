"""Model definition: parameters, nonlinearity, equilibria, Taylor data.

The model is the scalar delay equation

    x'(t) = -[beta(x(t)) + delta] x(t) + k beta(x(t-r)) x(t-r)

with the Hill-type production rate beta(x) = beta0 / (1 + x^n) and the
delay-dependent amplification k = 2 exp(-gamma r).  Everything downstream
(linear stability, Hopf analysis, simulation) is driven by the values
computed here: the equilibria x1 = 0 and x2 > 0, and the Taylor
coefficients B_m of beta(x) x at x2.

The B_m are closed forms in A = 1 + x^n.  B1 = beta0 (n - (n - 1) A)/A^2
holds at every x, so B2 = dB1/dA A' and B3 = d2B1/dA2 A'^2 + dB1/dA A''
by the chain rule, with A' = n (A - 1)/x and A'' = (n - 1) A'/x.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import ParameterError

__all__ = [
    "ModelParameters",
    "EquilibriumReport",
    "TaylorCoefficients",
    "derive_k",
    "gamma_from_k",
    "equilibria",
]

#: Relative consistency tolerance between a stored k and 2 exp(-gamma r).
K_CONSISTENCY_RTOL = 1e-12


def derive_k(gamma: float, r: float) -> float:
    """Amplification factor k = 2 exp(-gamma r) in (0, 2].

    Parameters
    ----------
    gamma : float
        Loss rate in the delayed term, > 0.
    r : float
        Delay, >= 0.
    """
    if not (math.isfinite(gamma) and math.isfinite(r)):
        raise ParameterError(f"non-finite inputs: gamma={gamma}, r={r}")
    if gamma <= 0.0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if r < 0.0:
        raise ParameterError(f"delay r must be nonnegative, got {r}")
    return _k_of(gamma, r)


def _k_of(gamma: float, r: float) -> float:
    # k = 2 exp(-gamma r), for a gamma and r that passed derive_k's checks
    return 2.0 * math.exp(-gamma * r)


def _check_delay(gamma: float, r: float) -> float:
    # k at a new delay r of checked parameters, with the refusals of
    # ModelParameters in its order: derive_k's, then a type neither int nor float
    k = derive_k(gamma, r)
    if not isinstance(r, (int, float)):  # e.g. numpy.float32
        raise ParameterError(f"r must be a finite number, got {r!r}")
    return k


def _checked_A(beta0: float, delta: float, k: float) -> float:
    # Equilibrium balance ratio A = beta0 (k - 1) / delta, refused if it overflows.
    A = beta0 * (k - 1.0) / delta
    if not math.isfinite(A):
        raise ParameterError(f"A = beta0 (k - 1)/delta must be finite, got {A}")
    return A


def gamma_from_k(k: float, r: float) -> float:
    """Loss rate gamma = -ln(k/2)/r recovered from (k, r), r > 0."""
    if not (math.isfinite(k) and math.isfinite(r)):
        raise ParameterError(f"non-finite inputs: k={k}, r={r}")
    if r <= 0.0:
        raise ParameterError(f"recovering gamma requires r > 0, got r={r}")
    if not 0.0 < k < 2.0:
        raise ParameterError(f"k must lie in (0, 2) to recover gamma > 0, got {k}")
    if k / 2.0 == 0.0:
        raise ParameterError(f"k = {k!r} is too small to recover gamma: k/2 underflows to 0")
    return -math.log(k / 2.0) / r


class _CheckedRecord:
    """Mixin for a named tuple whose ``__new__`` checks its fields."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make (and so _replace) would skip the checks of __new__
        return cls(*iterable)


class _ModelParameterFields(NamedTuple):
    beta0: float
    n: float
    delta: float
    gamma: float
    r: float
    k: float


def _check_fields(beta0, n, delta, gamma, r, k) -> float:
    # the checks of ModelParameters, in its order; returns A, checked last
    for name, v in zip(_ModelParameterFields._fields, (beta0, n, delta, gamma, r, k)):
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ParameterError(f"{name} must be a finite number, got {v!r}")
    if beta0 <= 0.0:
        raise ParameterError(f"beta0 must be positive, got {beta0}")
    if delta <= 0.0:
        raise ParameterError(f"delta must be positive, got {delta}")
    if gamma <= 0.0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if r < 0.0:
        raise ParameterError(f"delay r must be nonnegative, got {r}")
    if n <= 1.0:
        raise ParameterError(f"Hill exponent n must exceed 1, got {n}")
    expected = _k_of(gamma, r)
    if abs(k - expected) > K_CONSISTENCY_RTOL * abs(expected):
        raise ParameterError(
            f"k={k!r} inconsistent with 2 exp(-gamma r)={expected!r}"
        )
    return _checked_A(beta0, delta, k)


class ModelParameters(_CheckedRecord, _ModelParameterFields):
    """The five model parameters plus the derived amplification k.

    ``k = 2 exp(-gamma r)`` holds to machine precision by construction;
    build instances through :meth:`from_gamma` or :meth:`from_k`.
    """

    __slots__ = ()

    def __new__(cls, beta0, n, delta, gamma, r, k):
        _check_fields(beta0, n, delta, gamma, r, k)
        return super().__new__(cls, beta0, n, delta, gamma, r, k)

    @classmethod
    def _unchecked(cls, beta0, n, delta, gamma, r, k) -> "ModelParameters":
        # for fields that passed `_check_fields`, or that cannot fail it
        return tuple.__new__(cls, (beta0, n, delta, gamma, r, k))

    @classmethod
    def from_gamma(cls, beta0, n, delta, gamma, r) -> "ModelParameters":
        """Build from (gamma, r); k is derived."""
        return cls(beta0, n, delta, gamma, r, derive_k(gamma, r))

    @classmethod
    def from_k(cls, beta0, n, delta, k, r) -> "ModelParameters":
        """Build from (k, r) with r > 0; gamma is derived."""
        return cls(beta0, n, delta, gamma_from_k(k, r), r, k)

    def with_r(self, r: float) -> "ModelParameters":
        """Same physical parameters at a different delay (k rederived).

        Checks only what changes, in the constructor's order and with its
        errors: the delay (`derive_k` refuses a negative or non-finite r,
        then an r that is neither int nor float is refused) and the new
        A = beta0 (k - 1)/delta.  beta0, n, delta and gamma passed the
        constructor's checks when `self` was built, as every instance does,
        and k = 2 exp(-gamma r) is consistent by construction.
        """
        k = _check_delay(self.gamma, r)
        _checked_A(self.beta0, self.delta, k)
        return self._unchecked(self.beta0, self.n, self.delta, self.gamma, r, k)

    @property
    def A(self) -> float:
        """Equilibrium balance ratio beta0 (k - 1) / delta."""
        return _checked_A(self.beta0, self.delta, self.k)

    @property
    def x2_exists(self) -> bool:
        """True iff the positive equilibrium exists, i.e. A > 1."""
        return self.A > 1.0


class EquilibriumReport(NamedTuple):
    """Equilibria and the delay thresholds governing their existence.

    ``x2`` (and ``B1_at_x2``) are None when the positive equilibrium does
    not exist (A <= 1, equivalently r >= r_max).  ``r_n`` is the delay at
    which B1 at x2 changes sign; both thresholds may be negative when the
    corresponding regime is empty.
    """

    x1: float
    x2: Optional[float]
    A: float
    B1_at_x1: float
    B1_at_x2: Optional[float]
    r_max: float
    r_n: float


def _b1_at_x2(beta0: float, n: float, A: float) -> float:
    # Linearization coefficient beta'(x2) x2 + beta(x2) in closed form.
    return beta0 * (n - (n - 1.0) * A) / (A * A)


def _b1_slopes(beta0: float, n: float, A: float):
    # A dB1/dA and A^2 d2B1/dA2 of B1(A) = beta0 (n - (n - 1) A)/A^2, from
    # c = beta0/A: no power of A is formed, so no A overflows or underflows them.
    c = beta0 / A
    return c * ((n - 1.0) - 2.0 * n / A), 2.0 * c * (3.0 * n / A - (n - 1.0))


def _x2(n: float, A: float) -> float:
    # The positive equilibrium x2 = (A - 1)^(1/n), for A > 1.
    return (A - 1.0) ** (1.0 / n)


def _r_max(beta0: float, delta: float, gamma: float) -> float:
    # The delay at which A = 1, past which x2 is absent.
    return -math.log(0.5 * (1.0 + delta / beta0)) / gamma


def equilibria(params: ModelParameters) -> EquilibriumReport:
    """Equilibrium report for validated parameters.

    The trivial equilibrium x1 = 0 always exists with linearization
    coefficient beta0.  The positive equilibrium x2 = (A - 1)^(1/n)
    exists iff A > 1, which in delay terms reads r < r_max.  x2 is finite
    wherever A is, but B1(x2) overflows for A near the float limit and is
    refused.
    """
    beta0, n, delta, gamma = params.beta0, params.n, params.delta, params.gamma
    A = params.A
    if A > 1.0:
        x2 = _x2(n, A)
        b1_x2 = _b1_at_x2(beta0, n, A)
        if not math.isfinite(b1_x2):
            raise ParameterError(
                f"B1(x2) = beta0 (n - (n - 1) A)/A^2 must be finite, got {b1_x2}"
            )
    else:
        x2 = None
        b1_x2 = None
    r_max = _r_max(beta0, delta, gamma)
    b = beta0 * (n - 1.0)
    # b underflows to 0 for a subnormal beta0: no delay gives B1(x2) < 0
    r_n = -math.log(0.5 * (delta * n / b + 1.0)) / gamma if b else -math.inf
    return EquilibriumReport(
        x1=0.0, x2=x2, A=A, B1_at_x1=beta0, B1_at_x2=b1_x2, r_max=r_max, r_n=r_n
    )


class TaylorCoefficients(NamedTuple):
    """Taylor coefficients B_m of the production term beta(x) x at x2.

    B_m = beta^(m)(x2) x2 + m beta^(m-1)(x2) is the m-th derivative of
    beta(x) x evaluated at x2.
    """

    b1: float
    b2: float
    b3: float


def _taylor_at(n, A, x2, b1, slopes) -> TaylorCoefficients:
    """B_1..B_3 at the positive equilibrium x2, from B1 and the `_b1_slopes`.

    B1 = beta0 (n - (n - 1) A)/A^2 holds for every x with A(x) = 1 + x^n,
    so the higher coefficients follow by the chain rule in A:

        B2 = dB1/dA A',   B3 = d2B1/dA2 A'^2 + dB1/dA A'',

    with A' = n (A - 1)/x2 and A'' = (n - 1) A'/x2 at x2.  With `slopes` =
    (A dB1/dA, A^2 d2B1/dA2) they are evaluated as B2 = (A dB1/dA) (A'/A)
    and B3 = ((A^2 d2B1/dA2) (A'/A) + (A dB1/dA) (n - 1)/x2) (A'/A), so no
    power of A is formed.
    """
    g1, g2 = slopes
    e = n * (A - 1.0) / A / x2  # A'/A
    return TaylorCoefficients(b1, g1 * e, (g2 * e + g1 * (n - 1.0) / x2) * e)
