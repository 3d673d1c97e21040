"""Direct integration of the delay equation and orbit diagnostics.

Fixed-step classical Runge-Kutta marching in steps of h = r / steps_per_delay,
so the grid is aligned with the delay: delayed values at whole steps land
on stored nodes, and only the half-step stage times require interpolation,
done with cubic Hermite polynomials through the stored (x, x') pairs.
During the first delay interval the delayed state comes straight from the
history function.

The diagnostics quantify what the trajectories show: decay onto the
positive equilibrium on the stable side of the Hopf point versus a
sustained limit cycle on the unstable side. Amplitude and period come
from the extrema of the same C^1 Hermite interpolant: one in each cell
where the stored derivative changes sign, at the root of the cubic's
derivative. They are as accurate as the integrator itself, which is why
STEPS_PER_DELAY can be as small as 50.

numpy is imported by the functions that build or read arrays, not by the
module, so importing the package for the analytic commands stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .errors import BlowUpError, InconclusiveError, ParameterError
from .hopf import HopfPoint
from .model import ModelParameters, equilibria

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HistoryFunction",
    "Trajectory",
    "OrbitMetrics",
    "default_history",
    "constant_history",
    "step_count",
    "integrate",
    "orbit_metrics",
    "amplitude_scaling",
    "write_trajectory_csv",
]

#: Half peak-to-trough amplitudes below this classify as equilibrium.
AMPLITUDE_FLOOR = 1e-4

#: Relative spread of successive peak heights tolerated for a cycle.
CYCLE_SPREAD_TOL = 0.05

#: Default steps per delay interval. At 50 the reference cycle measurements
#: (PERIOD_036, AMP_2E3, AMP_8E3) hold at least 8 significant digits against
#: an independent DOP853 integration; the README has the table.
STEPS_PER_DELAY = 50

#: Largest number of steps `integrate` accepts (about 7 s and 200 MB on a
#: 2-vCPU Xeon); at STEPS_PER_DELAY the reference runs take at most 55,879
#: (t_end = 400 at r* + 2e-3).
MAX_STEPS = 2_000_000

KIND_EQUILIBRIUM = "equilibrium"
KIND_CYCLE = "cycle"
KIND_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class HistoryFunction:
    """Initial segment of the solution on [-r, 0]."""

    evaluator: Callable[[float], float]
    description: str = ""


def default_history(r: float) -> HistoryFunction:
    """The reference initial condition phi(s) = cos(pi s / (2 r))."""
    if r <= 0.0:
        raise ParameterError(f"history needs r > 0, got {r}")
    half_pi_over_r = math.pi / (2.0 * r)
    return HistoryFunction(
        evaluator=lambda s: math.cos(half_pi_over_r * s),
        description="cos(pi s / (2 r))",
    )


def constant_history(value: float) -> HistoryFunction:
    """History identically equal to `value`."""
    return HistoryFunction(evaluator=lambda s: value, description=f"constant {value}")


@dataclass(frozen=True)
class Trajectory:
    """Dense simulation output on the aligned grid starting at t = 0.

    ``dx`` stores the right-hand side at the accepted nodes, which makes
    the stored data a C^1 cubic Hermite interpolant of the solution.
    """

    t: np.ndarray
    x: np.ndarray
    dx: np.ndarray
    step: float
    params: ModelParameters

    def at(self, time: float) -> float:
        """Cubic Hermite evaluation at an arbitrary time in [0, t[-1]]."""
        t, x, dx, h = self.t, self.x, self.dx, self.step
        if not t[0] <= time <= t[-1]:
            raise ParameterError(f"time {time} outside [{t[0]}, {t[-1]}]")
        j = min(int(time / h), len(t) - 2)
        return _hermite((time - t[j]) / h, x[j], x[j + 1], h * dx[j], h * dx[j + 1])


def _hermite(s, x0, x1, a0, a1):
    """Cubic Hermite interpolant of one cell at the cell coordinate s in [0, 1].

    x0, x1 are the end values and a0, a1 the end slopes times the step.
    Works elementwise on numpy arrays.
    """
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * x0 + s * (1.0 - s) ** 2 * a0
            + s * s * (3.0 - 2.0 * s) * x1 + s * s * (s - 1.0) * a1)


@dataclass(frozen=True)
class OrbitMetrics:
    """Classification of the tail of a trajectory.

    kind = cycle requires the half peak-to-trough amplitude to exceed
    AMPLITUDE_FLOOR and successive peak heights to agree within
    CYCLE_SPREAD_TOL; kind = equilibrium covers both near-constant tails
    and oscillations with a monotone-decaying envelope.
    """

    kind: str
    amplitude: float
    period: Optional[float]
    distance_to_x2: float


def step_count(r: float, t_end: float, steps_per_delay: int = STEPS_PER_DELAY) -> int:
    """Number of steps `integrate` takes to reach t_end: ceil(t_end / h).

    h = r / steps_per_delay.  Raises :class:`ParameterError` for r <= 0,
    steps_per_delay < 1, t_end not positive, or more than MAX_STEPS steps.
    """
    if not r > 0.0:
        raise ParameterError(f"integration requires r > 0, got {r}")
    if steps_per_delay < 1:
        raise ParameterError(f"steps_per_delay must be >= 1, got {steps_per_delay}")
    if not t_end > 0.0:
        raise ParameterError(f"t_end must be positive, got {t_end}")
    h = r / steps_per_delay
    steps = t_end / h - 1e-9
    if steps > MAX_STEPS:
        raise ParameterError(
            f"t_end = {t_end} at step {h:.6g} needs {steps:.6g} steps, "
            f"more than MAX_STEPS = {MAX_STEPS}"
        )
    return int(math.ceil(steps))


def integrate(
    params: ModelParameters,
    history: HistoryFunction,
    t_end: float,
    steps_per_delay: int = STEPS_PER_DELAY,
) -> Trajectory:
    """Integrate the delay equation from `history` up to (at least) t_end.

    Classical fourth-order Runge-Kutta with fixed step h = r / steps_per_delay.
    Delayed states at whole steps are stored nodes; half-step stage values
    are cubic Hermite midpoints of the bracketing cell.  Raises
    :class:`BlowUpError` if the state leaves the finite range, and
    :class:`ParameterError` before any work for the inputs `step_count`
    refuses.
    """
    r = params.r
    n_steps = step_count(r, t_end, steps_per_delay)
    beta0, n, delta, k = params.beta0, params.n, params.delta, params.k
    kb0 = k * beta0
    m = steps_per_delay
    h = r / m
    phi = history.evaluator

    def rhs(x: float, xd: float) -> float:
        xn = x**n if x > 0.0 else 0.0
        xdn = xd**n if xd > 0.0 else 0.0
        return -(beta0 / (1.0 + xn) + delta) * x + kb0 * xd / (1.0 + xdn)

    xs = [float(phi(0.0))]
    dxs = [rhs(xs[0], float(phi(-r)))]
    if not math.isfinite(xs[0]) or not math.isfinite(dxs[0]):
        raise BlowUpError("non-finite state at t = 0", time=0.0)

    for i in range(n_steps):
        xi = xs[i]
        j = i - m  # whole-step delayed index; negative means history
        d_start = xs[j] if j >= 0 else phi(j * h)
        if j >= 0:
            # Hermite midpoint of cell [j, j+1]
            d_mid = 0.5 * (xs[j] + xs[j + 1]) + 0.125 * h * (dxs[j] - dxs[j + 1])
        else:
            d_mid = phi((j + 0.5) * h)
        d_end = xs[j + 1] if j + 1 >= 0 else phi((j + 1) * h)

        k1 = rhs(xi, d_start)
        k2 = rhs(xi + 0.5 * h * k1, d_mid)
        k3 = rhs(xi + 0.5 * h * k2, d_mid)
        k4 = rhs(xi + h * k3, d_end)
        x_new = xi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(x_new) or abs(x_new) > 1e100:
            raise BlowUpError(
                f"state blew up at t = {(i + 1) * h}", time=(i + 1) * h
            )
        xs.append(x_new)
        dxs.append(rhs(x_new, d_end))

    import numpy as np

    t = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(
        t=t, x=np.asarray(xs), dx=np.asarray(dxs), step=h, params=params
    )


def _hermite_extrema(t: np.ndarray, x: np.ndarray, dx: np.ndarray, h: float):
    """Local maxima and minima of the Hermite interpolant through (x, dx).

    A maximum lies in each cell where dx goes from > 0 to <= 0, a minimum
    where it goes from < 0 to >= 0, so dx == 0 everywhere gives none.  Its
    cell coordinate s is the root in [0, 1] of the cubic's derivative, the
    quadratic a s^2 + b s + a0 that runs from a0 = h dx[j] to a1 = h dx[j+1],
    taken from the cancellation-free quadratic formula.  Returns
    (times, heights) of the maxima, then of the minima.
    """
    import numpy as np

    d0, d1 = dx[:-1], dx[1:]
    j = np.flatnonzero(((d0 > 0.0) & (d1 <= 0.0)) | ((d0 < 0.0) & (d1 >= 0.0)))
    x0, x1, a0, a1 = x[j], x[j + 1], h * dx[j], h * dx[j + 1]
    a = 3.0 * (a0 + a1) - 6.0 * (x1 - x0)
    b = 6.0 * (x1 - x0) - 4.0 * a0 - 2.0 * a1
    disc = np.sqrt(np.maximum(b * b - 4.0 * a * a0, 0.0))
    q = -0.5 * (b + np.copysign(disc, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        s_near, s_far = a0 / q, q / a
    s = np.clip(np.where((s_near >= 0.0) & (s_near <= 1.0), s_near, s_far), 0.0, 1.0)
    times = t[j] + s * h
    heights = _hermite(s, x0, x1, a0, a1)
    is_max = a0 > 0.0
    return (times[is_max], heights[is_max]), (times[~is_max], heights[~is_max])


def orbit_metrics(traj: Trajectory, transient_fraction: float = 0.5) -> OrbitMetrics:
    """Classify the trajectory tail after discarding the transient.

    The first `transient_fraction` of the time span is dropped; the rest
    is searched for local extrema.  Too few extrema with a small range
    means equilibrium; many extrema of near-equal height mean a cycle;
    a shrinking envelope means decay to equilibrium; anything else is
    undetermined.
    """
    if not 0.0 < transient_fraction < 1.0:
        raise ParameterError(
            f"transient_fraction must be in (0, 1), got {transient_fraction}"
        )
    import numpy as np

    t, x = traj.t, traj.x
    start = np.searchsorted(t, transient_fraction * t[-1])
    tt, xx = t[start:], x[start:]

    report = equilibria(traj.params)
    x_eq = report.x2 if report.x2 is not None else report.x1
    distance = abs(float(xx[-1]) - x_eq)

    if len(xx) < 3:
        return OrbitMetrics(KIND_UNDETERMINED, 0.0, None, distance)

    (max_t, max_h), (_, min_h) = _hermite_extrema(tt, xx, traj.dx[start:], traj.step)
    n_extrema = len(max_h) + len(min_h)

    if len(max_h) and len(min_h):
        amplitude = 0.5 * (float(np.mean(max_h)) - float(np.mean(min_h)))
    else:
        amplitude = 0.5 * float(xx.max() - xx.min())
    amplitude = max(amplitude, 0.0)

    if amplitude <= AMPLITUDE_FLOOR:
        return OrbitMetrics(KIND_EQUILIBRIUM, amplitude, None, distance)

    if n_extrema >= 10:
        spread = float(max_h.max() - max_h.min()) / amplitude
        if spread < CYCLE_SPREAD_TOL:
            period = float(np.mean(np.diff(max_t)))
            return OrbitMetrics(KIND_CYCLE, amplitude, period, distance)

    # decaying envelope: maxima descending and minima ascending
    slack = 1e-9 * max(1.0, amplitude)
    descending = bool(np.all(max_h[1:] <= max_h[:-1] + slack))
    ascending = bool(np.all(min_h[1:] >= min_h[:-1] - slack))
    if descending and ascending and n_extrema >= 2:
        return OrbitMetrics(KIND_EQUILIBRIUM, amplitude, None, distance)
    return OrbitMetrics(KIND_UNDETERMINED, amplitude, None, distance)


def amplitude_scaling(
    params: ModelParameters,
    hp: HopfPoint,
    delta_r: float,
    t_end: float = 400.0,
    steps_per_delay: int = STEPS_PER_DELAY,
    transient_fraction: float = 0.5,
) -> float:
    """Cycle amplitude ratio between the probes r* + 4 delta_r and r* + delta_r.

    For a supercritical point inside the square-root regime the ratio is
    close to 2.  Both probe runs must classify as cycles, otherwise the
    measurement is inconclusive.
    """
    if delta_r == 0.0:
        raise ParameterError("delta_r must be nonzero")
    r_max = equilibria(params).r_max
    probes = (hp.r_star + delta_r, hp.r_star + 4.0 * delta_r)
    if max(probes) >= r_max or min(probes) <= 0.0:
        raise ParameterError(
            f"probes {probes} leave the equilibrium window (0, {r_max})"
        )
    amps = []
    for rp in probes:
        local = params.with_r(rp)
        traj = integrate(local, default_history(rp), t_end, steps_per_delay)
        metrics = orbit_metrics(traj, transient_fraction)
        if metrics.kind != KIND_CYCLE:
            raise InconclusiveError(
                f"run at r = {rp} classified as {metrics.kind}, not cycle"
            )
        amps.append(metrics.amplitude)
    return amps[1] / amps[0]


def write_trajectory_csv(traj: Trajectory, path, stride: int = 1) -> None:
    """Write the trajectory as CSV `t,x` rows at full double precision."""
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    # Python floats format faster than numpy scalars, with the same digits.
    ts, xs = traj.t[::stride].tolist(), traj.x[::stride].tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x\n")
        fh.writelines(f"{t:.17g},{x:.17g}\n" for t, x in zip(ts, xs))
