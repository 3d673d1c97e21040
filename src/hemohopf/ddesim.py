"""Direct integration of the delay equation and orbit diagnostics.

Fixed-step classical Runge-Kutta marching in steps of h = r / steps_per_delay,
so the grid is aligned with the delay: delayed values at whole steps land
on stored nodes, and only the half-step stage times require interpolation,
done with cubic Hermite polynomials through the stored (x, x') pairs.
A history is a plain callable phi(s) on [-r, 0]; during the first delay
interval the delayed state comes straight from it.

The diagnostics quantify what the trajectories show: decay onto the
positive equilibrium on the stable side of the Hopf point versus a
sustained limit cycle on the unstable side. Amplitude and period come
from the extrema of the same C^1 Hermite interpolant: one in each cell
where the stored derivative changes sign, at the root of the cubic's
derivative. They are as accurate as the integrator itself, which is why
STEPS_PER_DELAY can be as small as 50.

The module is standard library only: a trajectory is three ``array('d')``
columns, and the diagnostics are plain Python passes over the tail, so
`simulate`, `sweep` and `scaling` run without importing numpy.  Convert
with ``numpy.asarray(traj.x)`` for array arithmetic.  Two loops also
exist in C (``_kernel.c``): the RK4 steps of `integrate` and the ``%.17g``
rows of `write_trajectory_csv`, which hands C whole ``array('d')`` columns
only.  Their first use in a process compiles them once, however many
threads ask, with the system ``cc`` into ``__pycache__/`` beside this file,
unless a build for the same source is there, and loads them with ctypes.
They run if each gives what its Python twin gives, to the bit or the byte,
on a short probe.  Without a compiler, with an unwritable cache, or on a
failed load or probe, both Python twins run, with the same bits and bytes.
On the reference configuration at r = 0.35 and 0.36 (28,573 and 27,779
steps), in a fresh process on a 2-vCPU Xeon, the compiled loops take about
6 ms to integrate and 4-6 ms to write the CSV, against 37-67 and 27-46 ms
with the Python twins.  ``python -m hemohopf.kernel`` builds the kernel if
it is not cached and prints the loops that run: ``compiled <library>`` or ``python``.
"""

from __future__ import annotations

import _thread
import bisect
import io
import math
import os
from array import array
from collections import deque
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import BlowUpError, InconclusiveError, ParameterError
from .model import ModelParameters, equilibria

__all__ = [
    "Trajectory",
    "OrbitMetrics",
    "default_history",
    "step_count",
    "integrate",
    "orbit_metrics",
    "amplitude_scaling",
    "write_trajectory_csv",
]

#: Half peak-to-trough amplitudes below this classify as equilibrium.
AMPLITUDE_FLOOR = 1e-4

#: Relative spread tolerated for a cycle between peaks one period apart.
CYCLE_SPREAD_TOL = 0.05

#: Default steps per delay interval. At 50 the reference cycle measurements
#: (PERIOD_036, AMP_2E3, AMP_8E3) hold at least 8 significant digits against
#: an independent DOP853 integration; the README has the table.
STEPS_PER_DELAY = 50

#: Default simulated time of the `simulate` and `sweep` commands.
T_END = 200.0

#: Default simulated time of `amplitude_scaling` and the `scaling` command:
#: its probes sit near r*, where a cycle settles slowly.
SCALING_T_END = 400.0

#: Default leading share of a run that the orbit diagnostics skip.
TRANSIENT_FRACTION = 0.5

#: Largest number of steps `integrate` accepts (about 0.6 s with the compiled
#: loop, 3-4 s with the Python loop, and 92 MB peak RSS for `integrate` plus
#: `orbit_metrics` on a 2-vCPU Xeon; the three `array('d')` columns are 48 MB
#: of it); at STEPS_PER_DELAY the reference runs take at most 55,879
#: (t_end = 400 at r* + 2e-3).
MAX_STEPS = 2_000_000

#: Largest steps_per_delay accepted: one delay of history cells is queued before
#: the first step (11 MB peak here), and MAX_STEPS then reaches only 20 delays.
MAX_STEPS_PER_DELAY = 100_000

#: Consecutive rows `write_trajectory_csv` formats in one block: one string
#: operation of the Python loop, or one call of the compiled one into a buffer
#: of _CSV_ROW_BYTES a row (51 kB), so that memory does not grow with the rows.
_CSV_CHUNK_ROWS = 1024

#: Room for one CSV row: two values of at most 24 characters, a comma, a newline.
_CSV_ROW_BYTES = 50

KIND_EQUILIBRIUM = "equilibrium"
KIND_CYCLE = "cycle"
KIND_UNDETERMINED = "undetermined"


def default_history(r: float) -> Callable[[float], float]:
    """The reference initial condition phi(s) = cos(pi s / (2 r))."""
    if r <= 0.0:
        raise ParameterError(f"history needs r > 0, got {r}")
    half_pi_over_r = math.pi / (2.0 * r)
    return lambda s: math.cos(half_pi_over_r * s)


class Trajectory(NamedTuple):
    """Dense simulation output on the aligned grid starting at t = 0.

    ``t``, ``x`` and ``dx`` are ``array('d')`` columns with t[i] = i * step.
    ``dx`` stores the right-hand side at the accepted nodes, which makes
    the stored data a C^1 cubic Hermite interpolant of the solution.
    """

    t: array
    x: array
    dx: array
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
    """
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * x0 + s * (1.0 - s) ** 2 * a0
            + s * s * (3.0 - 2.0 * s) * x1 + s * s * (s - 1.0) * a1)


class OrbitMetrics(NamedTuple):
    """Classification of the tail of a trajectory.

    kind = cycle requires the half peak-to-trough amplitude to exceed
    AMPLITUDE_FLOOR and peaks one period apart to agree within
    CYCLE_SPREAD_TOL; kind = equilibrium covers both near-constant tails
    and oscillations with a monotone-decaying envelope.  ``period`` is
    the full period, however many peaks it holds.
    """

    kind: str
    amplitude: float
    period: Optional[float]
    distance_to_x2: float


def step_count(r: float, t_end: float, steps_per_delay: int = STEPS_PER_DELAY) -> int:
    """Number of steps `integrate` takes to reach t_end: ceil(t_end / h).

    h = r / steps_per_delay.  Raises :class:`ParameterError` for r <= 0,
    steps_per_delay outside [1, MAX_STEPS_PER_DELAY], t_end not positive, or
    more than MAX_STEPS steps.
    """
    if not r > 0.0:
        raise ParameterError(f"integration requires r > 0, got {r}")
    if not 1 <= steps_per_delay <= MAX_STEPS_PER_DELAY:
        raise ParameterError(f"steps_per_delay must be in [1, MAX_STEPS_PER_DELAY = "
                             f"{MAX_STEPS_PER_DELAY}], got {steps_per_delay}")
    if not t_end > 0.0:
        raise ParameterError(f"t_end must be positive, got {t_end}")
    h = r / steps_per_delay
    # h underflows to 0 for a subnormal r: no number of steps reaches t_end
    steps = t_end / h - 1e-9 if h else math.inf
    if steps > MAX_STEPS:
        raise ParameterError(
            f"t_end = {t_end} at step {h:.6g} needs {steps:.6g} steps, "
            f"more than MAX_STEPS = {MAX_STEPS}"
        )
    return max(int(math.ceil(steps)), 1)


def integrate(
    params: ModelParameters,
    history: Callable[[float], float],
    t_end: float,
    steps_per_delay: int = STEPS_PER_DELAY,
) -> Trajectory:
    """Integrate the delay equation from `history` up to (at least) t_end.

    Classical fourth-order Runge-Kutta with fixed step h = r / steps_per_delay.
    Delayed states at whole steps are stored nodes; half-step stage values
    are cubic Hermite midpoints of the bracketing cell.  Raises
    :class:`BlowUpError` with the time of the failing step if the state
    leaves the finite range or x^n overflows, and :class:`ParameterError`
    before any work for the inputs `step_count` refuses.

    The right-hand side is destruction(x) + production(x(t - r)), and a
    step needs only four destructions and two productions: k1 is the
    derivative stored at the end of the previous step (first same as
    last), k2 and k3 share the production at the delayed cell's Hermite
    midpoint, and k4 and the stored derivative share the production at
    the delayed node.  Both come off one queue: the m history cells are
    queued before the first step, and each accepted cell is queued as it
    is accepted, one delay before it is read.  The floating-point
    operations and their order are those of five full evaluations, so the
    numbers are too.  The steps run in the compiled loop of ``_kernel.c``
    where it could be built, else in `_python_loop`; both give the same bits.
    """
    r = params.r
    n_steps = step_count(r, t_end, steps_per_delay)
    beta0, n, delta, k = params.beta0, params.n, params.delta, params.k
    kb0 = k * beta0
    m = steps_per_delay
    h = r / m
    destruction, production = _rhs_terms(beta0, n, delta, kb0)
    try:
        x0 = float(history(0.0))
        dx0 = destruction(x0) + production(float(history(-r)))
        if not math.isfinite(x0) or not math.isfinite(dx0):
            raise BlowUpError("non-finite state at t = 0", time=0.0)
        # (production at the Hermite midpoint, production at the right node) of
        # the history cells [j, j + 1] for j = -m .. -1, flat; step i reads and
        # refills pair i mod m, the cell one delay back.
        ring = array("d", [p for j in range(-m, 0)
                           for p in (production(history((j + 0.5) * h)),
                                     production(history((j + 1) * h)))])
        # Step 0 reads phi(-m h), which may differ from phi(-r) in the last bit.
        k1 = destruction(x0) + production(history(-m * h))
    except OverflowError:
        # x**n of a history value overflowed
        raise BlowUpError("state blew up at t = 0.0", time=0.0) from None
    t, x, dx = (array("d", [0.0]) * (n_steps + 1) for _ in range(3))
    x[0], dx[0] = x0, dx0
    i = _kernel().step_loop(n_steps, m, h, beta0, n, delta, kb0, k1, ring, t, x, dx)
    if i < n_steps:
        # the state left the float range, or x**n did before it
        t_fail = (i + 1) * h
        raise BlowUpError(f"state blew up at t = {t_fail}", time=t_fail)
    return Trajectory(t=t, x=x, dx=dx, step=h, params=params)


def _rhs_terms(beta0: float, n: float, delta: float, kb0: float):
    """The destruction and production terms of the right-hand side."""
    def destruction(x: float) -> float:
        return -(beta0 / (1.0 + (x**n if x > 0.0 else 0.0)) + delta) * x

    def production(xd: float) -> float:
        return kb0 * xd / (1.0 + (xd**n if xd > 0.0 else 0.0))

    return destruction, production


def _python_loop(n_steps: int, m: int, h: float, beta0: float, n: float, delta: float,
                 kb0: float, k1: float, ring: array, t: array, x: array, dx: array) -> int:
    """The RK4 step loop of `integrate`, and the reference for ``_kernel.c``.

    Runs steps 0 .. n_steps - 1 from the node x[0], dx[0] with first stage
    k1, taking the delayed productions off `ring`, and fills t, x and dx
    at 1 .. n_steps.  Returns n_steps, or the index of the first step where
    x**n overflowed or the state left [-1e100, 1e100].
    """
    destruction, production = _rhs_terms(beta0, n, delta, kb0)
    half_h, eighth_h, sixth_h = 0.5 * h, 0.125 * h, h / 6.0
    delayed = deque(zip(ring[::2], ring[1::2]))
    xi, dxi = x[0], dx[0]  # the current node and its stored derivative
    j = 0  # step j - 1 ends at node j
    try:
        for j in range(1, n_steps + 1):
            p_mid, p_end = delayed.popleft()
            k2 = destruction(xi + half_h * k1) + p_mid
            k3 = destruction(xi + half_h * k2) + p_mid
            k4 = destruction(xi + h * k3) + p_end
            x_prev, dx_prev = xi, dxi
            xi = xi + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not math.isfinite(xi) or abs(xi) > 1e100:
                return j - 1
            k1 = dxi = destruction(xi) + p_end
            t[j] = j * h
            x[j] = xi
            dx[j] = k1
            # the cell [j - 1, j] just accepted, with its Hermite midpoint
            delayed.append((production(0.5 * (x_prev + xi) + eighth_h * (dx_prev - k1)),
                            production(xi)))
    except OverflowError:
        return j - 1
    return n_steps


def _python_rows(fh, t: array, x: array) -> None:
    """Write the CSV rows ``t,x`` of the columns to the binary file `fh`, each
    value as ``"%.17g"`` writes it; the reference for ``_kernel.c``."""
    values = array("d", [0.0]) * (2 * len(t))  # t0, x0, t1, x1, ...
    values[::2], values[1::2] = t, x
    for start in range(0, len(values), 2 * _CSV_CHUNK_ROWS):
        chunk = values[start:start + 2 * _CSV_CHUNK_ROWS]
        fh.write(("%.17g,%.17g\n" * (len(chunk) // 2) % tuple(chunk)).encode())


class _Kernel(NamedTuple):
    """The loops of `integrate` and `write_trajectory_csv`, and the library
    they were loaded from, None for the Python ones."""

    step_loop: Callable[..., int]
    write_rows: Callable[..., None]
    library: Optional[str]


_PYTHON_KERNEL = _Kernel(_python_loop, _python_rows, None)

#: The kernel in use, chosen once per process by `_kernel` under `_selecting`.
_active: Optional[_Kernel] = None
_selecting = _thread.allocate_lock()

#: The C source of the compiled kernel, and where its build is cached, beside
#: this module's bytecode.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_CACHE_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")

#: Compiler flags of the compiled kernel: no contraction into fused multiply-adds
#: and no -ffast-math, so that every operation rounds as CPython's does.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _kernel() -> _Kernel:
    """The compiled kernel where it builds and passes its probe, else the Python one."""
    global _active
    with _selecting:
        if _active is None:
            _active = _load_kernel(_CACHE_DIR) or _PYTHON_KERNEL
    return _active


def _load_kernel(cache_dir: str) -> Optional[_Kernel]:
    """Build ``_kernel.c`` into `cache_dir` once per source, load it with ctypes,
    and return its two functions as drop-ins for the Python ones if each gives
    the same result as its Python twin on a short probe.  None where there is no
    ``cc``, the cache cannot be written, the build or the load fails, or a probe
    differs.
    """
    import ctypes
    import zlib

    try:
        with open(_SOURCE, "rb") as fh:
            key = zlib.crc32(fh.read() + repr((_CFLAGS, os.uname().machine)).encode())
        lib_path = os.path.join(cache_dir, f"_kernel-{key:08x}.so")
        if not (os.path.exists(lib_path) or _build(lib_path)):
            return None
        lib = ctypes.CDLL(lib_path)
        c_loop, c_rows = lib.hemohopf_rk4, lib.hemohopf_csv_rows
    except (OSError, AttributeError):
        return None
    c_loop.restype = c_rows.restype = ctypes.c_int64
    c_loop.argtypes = ([ctypes.c_int64] * 2 + [ctypes.c_double] * 6
                       + [ctypes.c_void_p] * 4)
    c_rows.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 3 + [ctypes.c_void_p]

    def compiled_loop(n_steps, m, h, beta0, n, delta, kb0, k1, ring, t, x, dx):
        # the kernel writes through these pointers: they must hold what it reads and writes
        if not (len(ring) == 2 * m and len(t) == len(x) == len(dx) == n_steps + 1
                and ring.typecode == t.typecode == x.typecode == dx.typecode == "d"):
            raise ValueError("step loop columns do not fit n_steps and m")
        return c_loop(n_steps, m, h, beta0, n, delta, kb0, k1, ring.buffer_info()[0],
                      t.buffer_info()[0], x.buffer_info()[0], dx.buffer_info()[0])

    def compiled_rows(fh, t, x):
        # the kernel reads through these pointers: both columns must hold every row
        if not (isinstance(t, array) and isinstance(x, array) and len(t) == len(x)
                and t.typecode == x.typecode == "d"):
            raise ValueError("trajectory columns differ in length or type")
        # one block of rows at a time, through a buffer of its own for each call
        buf = ctypes.create_string_buffer(_CSV_CHUNK_ROWS * _CSV_ROW_BYTES)
        view = memoryview(buf)
        t_ptr, x_ptr = t.buffer_info()[0], x.buffer_info()[0]
        for start in range(0, len(t), _CSV_CHUNK_ROWS):
            fh.write(view[:c_rows(t_ptr, x_ptr, start, len(t), _CSV_CHUNK_ROWS, buf)])

    compiled = _Kernel(compiled_loop, compiled_rows, lib_path)
    probes = (_probe_loop, _probe_rows)
    if any(probe(c) != probe(py) for probe, c, py in zip(probes, compiled, _PYTHON_KERNEL)):
        return None
    return compiled


def _build(lib_path: str) -> bool:
    """Compile ``_kernel.c`` with ``cc`` to a temporary file moved onto `lib_path`,
    so that a concurrent process never loads a partial library."""
    import shutil
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        return False
    tmp = f"{lib_path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(lib_path), exist_ok=True)
        subprocess.run([cc, *_CFLAGS, "-o", tmp, _SOURCE, "-lm"], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        os.replace(tmp, lib_path)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return True


def _probe_loop(loop: Callable[..., int]):
    """Return value and column bytes of `loop` on 200 steps, 7 per delay, of the
    reference parameters from a negative start, so that both branches of the
    Hill terms run."""
    ring = array("d", (0.1 * j for j in range(14)))
    t, x, dx = (array("d", [0.0]) * 201 for _ in range(3))
    x[0], dx[0] = -0.5, 1.0
    i = loop(200, 7, 0.36 / 7, 1.77, 12.0, 0.05, 1.17 * 1.77, 0.9, ring, t, x, dx)
    return i, t.tobytes(), x.tobytes(), dx.tobytes()


def _probe_rows(write_rows: Callable[..., None]) -> bytes:
    """The bytes `write_rows` writes from row 0 and from row 1 on, for values of
    either notation of ``%g``, its edges and what goes past ``_kernel.c``'s fast
    path: a C library that writes another decimal point or rounds otherwise differs."""
    t = array("d", [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4,
                    0.1, 1.0 / 3.0, 0.36 / 7, 2.5, 9999999999999998.0, 1e16,
                    1e17, 1.7976931348623157e308])
    x = array("d", (-v / 7.0 for v in reversed(t)))
    fh = io.BytesIO()
    write_rows(fh, t, x)
    write_rows(fh, t[1:], x[1:])
    return fh.getvalue()


def _hermite_extrema(t: Sequence[float], x: Sequence[float],
                     dx: Sequence[float], h: float):
    """Local maxima and minima of the Hermite interpolant through (x, dx).

    A maximum lies in each cell where dx goes from > 0 to <= 0, a minimum
    where it goes from < 0 to >= 0, so dx == 0 everywhere gives none.  Its
    cell coordinate s is the root in [0, 1] of the cubic's derivative, the
    quadratic a s^2 + b s + a0 that runs from a0 = h dx[j] to a1 = h dx[j+1],
    taken from the cancellation-free quadratic formula.  Returns
    (times, heights) of the maxima, then of the minima, as lists.
    """
    maxima, minima = ([], []), ([], [])
    cells = [j for j, (d0, d1) in enumerate(zip(dx, dx[1:]))
             if (d0 > 0.0 and d1 <= 0.0) or (d0 < 0.0 and d1 >= 0.0)]
    for j in cells:
        x0, x1, a0, a1 = x[j], x[j + 1], h * dx[j], h * dx[j + 1]
        a = 3.0 * (a0 + a1) - 6.0 * (x1 - x0)
        b = 6.0 * (x1 - x0) - 4.0 * a0 - 2.0 * a1
        disc = math.sqrt(max(b * b - 4.0 * a * a0, 0.0))
        q = -0.5 * (b + math.copysign(disc, b))
        s = a0 / q if q else math.nan
        if not 0.0 <= s <= 1.0:
            # the other root, q / a; for a == 0 the derivative is linear
            # and a0 / q, clipped, is its only root
            s = min(max(q / a if a else s, 0.0), 1.0)
        times, heights = maxima if a0 > 0.0 else minima
        times.append(t[j] + s * h)
        heights.append(_hermite(s, x0, x1, a0, a1))
    return maxima, minima


def _mean(values: Sequence[float]) -> float:
    """Mean with one rounding of the exact sum (``math.fsum``), nan if empty."""
    return math.fsum(values) / len(values) if values else math.nan


def orbit_metrics(traj: Trajectory,
                  transient_fraction: float = TRANSIENT_FRACTION) -> OrbitMetrics:
    """Classify the trajectory tail after discarding the transient.

    The first `transient_fraction` of the time span is dropped; the rest
    is searched for local extrema.  Too few extrema with a small range
    means equilibrium; many extrema whose heights repeat every m-th peak
    mean a cycle of m peaks per period; a shrinking envelope means decay
    to equilibrium; anything else is undetermined.
    """
    if not 0.0 < transient_fraction < 1.0:
        raise ParameterError(
            f"transient_fraction must be in (0, 1), got {transient_fraction}"
        )
    t, x = traj.t, traj.x
    start = bisect.bisect_left(t, transient_fraction * t[-1])
    tt, xx = t[start:], x[start:]

    report = equilibria(traj.params)
    x_eq = report.x2 if report.x2 is not None else report.x1
    distance = abs(float(xx[-1]) - x_eq)

    if len(xx) < 3:
        return OrbitMetrics(KIND_UNDETERMINED, 0.0, None, distance)

    (max_t, max_h), (_, min_h) = _hermite_extrema(tt, xx, traj.dx[start:], traj.step)
    n_extrema = len(max_h) + len(min_h)

    if max_h and min_h:
        amplitude = 0.5 * (_mean(max_h) - _mean(min_h))
    else:
        amplitude = 0.5 * float(max(xx) - min(xx))
    amplitude = max(amplitude, 0.0)

    if amplitude <= AMPLITUDE_FLOOR:
        return OrbitMetrics(KIND_EQUILIBRIUM, amplitude, None, distance)

    if n_extrema >= 10:
        # m maxima per period: the index gap between the first two near the
        # tallest; each residue class mod m must then agree, over > 2 periods
        top = max(max_h)
        near = [i for i, h in enumerate(max_h)
                if top - h < CYCLE_SPREAD_TOL * amplitude]
        m = near[1] - near[0] if len(near) > 1 else 0
        if m and len(max_h) > 2 * m and all(
            (max(max_h[j::m]) - min(max_h[j::m])) / amplitude < CYCLE_SPREAD_TOL
            for j in range(m)
        ):
            period = _mean([b - a for a, b in zip(max_t, max_t[m:])])
            return OrbitMetrics(KIND_CYCLE, amplitude, period, distance)

    # decaying envelope: maxima descending and minima ascending
    slack = 1e-9 * max(1.0, amplitude)
    descending = all(b <= a + slack for a, b in zip(max_h, max_h[1:]))
    ascending = all(b >= a - slack for a, b in zip(min_h, min_h[1:]))
    if descending and ascending and n_extrema >= 2:
        return OrbitMetrics(KIND_EQUILIBRIUM, amplitude, None, distance)
    return OrbitMetrics(KIND_UNDETERMINED, amplitude, None, distance)


def amplitude_scaling(
    params: ModelParameters,
    r_star: float,
    delta_r: float,
    t_end: float = SCALING_T_END,
    steps_per_delay: int = STEPS_PER_DELAY,
    transient_fraction: float = TRANSIENT_FRACTION,
) -> float:
    """Cycle amplitude ratio between the probes r* + 4 delta_r and r* + delta_r,
    where r* = `r_star` is the Hopf delay of `params`.

    For a supercritical point inside the square-root regime the ratio is
    close to 2.  Both probe runs must classify as cycles, otherwise the
    measurement is inconclusive.  Criticality is not checked: a subcritical
    point also gives a ratio (0.9995 on one), so a caller checks
    ``criticality_report(hp).criticality`` first, as `scaling` does.
    """
    if not (math.isfinite(delta_r) and delta_r != 0.0):
        raise ParameterError(f"delta_r must be finite and nonzero, got {delta_r}")
    if r_star + delta_r == r_star:
        raise ParameterError(f"delta_r = {delta_r} rounds away: r* + delta_r == r* = {r_star}")
    r_max = equilibria(params).r_max
    probes = (r_star + delta_r, r_star + 4.0 * delta_r)
    if max(probes) >= r_max or min(probes) <= 0.0:
        raise ParameterError(
            f"probes {probes} leave the equilibrium window (0, {r_max})"
        )
    amps = []
    for rp in probes:
        # no name holds the trajectory, so it is freed before the next probe
        metrics = orbit_metrics(
            integrate(params.with_r(rp), default_history(rp), t_end, steps_per_delay),
            transient_fraction)
        if metrics.kind != KIND_CYCLE:
            raise InconclusiveError(
                f"run at r = {rp} classified as {metrics.kind}, not cycle"
            )
        amps.append(metrics.amplitude)
    return amps[1] / amps[0]


def write_trajectory_csv(traj: Trajectory, path, stride: int = 1) -> int:
    """Write every `stride`-th point as a CSV row `t,x` to 17 digits; return the row count."""
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    t, x = (traj.t, traj.x) if stride == 1 else (traj.t[::stride], traj.x[::stride])
    with open(path, "wb") as fh:
        fh.write(b"t,x\n")
        _kernel().write_rows(fh, t, x)
    return len(t)

