"""Span tracing of hemohopf from outside the package.

`install` wraps the public functions of the traced modules and rebinds
every module attribute that refers to them, in the defining module and in
each hemohopf module that imported the name (``hopf.g_of_r``,
``ddesim.equilibria``, the package namespace, ...).  `uninstall` puts the
original objects back.  A span is ``[name, start, end, parent, error,
extra]``; spans are held in memory and folded into an `Aggregate`.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("model", "linstab", "hopf", "ddesim", "cli")

# Not public (absent from __all__) but the g-root search of hopf runs in it.
EXTRA_FUNCTIONS = {"linstab": ("bracketed_root",)}
# The CLI layer is one span: run and parse_config execute inside main, so
# main's self time is all the time the CLI spends outside the library.
ONLY_FUNCTIONS = {"cli": ("main",)}

# Scalar helpers called per bisection step, per parameter object or per
# history sample: a wrapper costs about as much as the call itself.
UNTRACED = {"T_eval", "char_value", "derive_k", "gamma_from_k",
            "default_history", "constant_history"}


def _steps(args, kwargs, result):
    return len(result.t) - 1


def _points(args, kwargs, result):
    return len(args[0].t)


def _bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# Work counts taken from a call's arguments or result.
PROBES = {
    "ddesim.integrate": _steps,
    "ddesim.orbit_metrics": _points,
    "ddesim.write_trajectory_csv": _bytes,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None, None])
        self._stack.append(idx)
        return idx

    def end(self, idx, error=None, extra=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = error
        span[5] = extra
        self._stack.pop()

    def drain(self):
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _wrap(tracer, name, fn):
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(idx, error=type(exc).__name__)
            raise
        tracer.end(idx, extra=probe(args, kwargs, result) if probe else None)
        return result

    return traced


def _hemohopf_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "hemohopf" or name.startswith("hemohopf."))]


def traced_functions():
    """Map each traced function object to its span name, e.g. ``hopf.find_hopf_r``.

    Only modules already imported are considered.
    """
    found = {}
    for short in TRACED_MODULES:
        mod = sys.modules.get(f"hemohopf.{short}")
        if mod is None:
            continue
        names = ONLY_FUNCTIONS.get(short) or (
            list(getattr(mod, "__all__", ())) + list(EXTRA_FUNCTIONS.get(short, ())))
        for name in names:
            fn = getattr(mod, name, None)
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and name not in UNTRACED):
                found[fn] = f"{short}.{name}"
    return found


def install(tracer):
    """Rebind every hemohopf attribute that refers to a traced function.

    Returns the undo list for `uninstall`.
    """
    wrappers = {fn: _wrap(tracer, name, fn) for fn, name in traced_functions().items()}
    undo = []
    for mod in _hemohopf_modules():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                undo.append((mod, attr, value))
    return undo


def uninstall(undo):
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


class Aggregate:
    """Running totals over spans, so a long traced run keeps little memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.dur = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)
        # g evaluations below find_hopf_r (any depth) and directly in cli.main;
        # Newton starts made directly by rightmost_root_estimate
        self.g_under_find = 0
        self.g_direct_main = 0
        self.starts_under_rightmost = 0

    def add(self, spans):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, error, extra) in enumerate(spans):
            self.calls[name] += 1
            self.dur[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            if error is not None:
                self.errors[name] += 1
            if extra is not None:
                self.extra[name] += extra
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "linstab.g_of_r":
                if parent_name == "cli.main":
                    self.g_direct_main += 1
                if self._has_ancestor(spans, parent, "hopf.find_hopf_r"):
                    self.g_under_find += 1
            elif name == "linstab.char_root_newton" and parent_name == "linstab.rightmost_root_estimate":
                self.starts_under_rightmost += 1

    @staticmethod
    def _has_ancestor(spans, idx, name):
        while idx >= 0:
            if spans[idx][0] == name:
                return True
            idx = spans[idx][3]
        return False

    def _per_call(self, name, total, scale=1.0):
        calls = self.calls.get(name, 0)
        return scale * total / calls if calls else 0.0

    def metrics(self, passes):
        """Per-layer metrics; counts are per pass over the trace set.

        Which end-to-end figure each layer should move: cli -> setup_s
        everywhere, op_p50_ms on stability-grid and simulate; model, the
        linstab boundary functions and hopf -> ops_per_s (and fail counts) on
        frontier; the root oracle (rightmost_root_estimate, char_root_newton)
        -> op_p50_ms and ops_per_s on stability-grid only; ddesim ->
        op_p50_ms, peak_rss_mb and digits.* on simulate, never frontier.
        """
        c, d = self.calls, self.dur

        def per_pass(value):
            return value / passes

        def us(name):
            return self._per_call(name, d.get(name, 0.0), 1e6)

        steps = self.extra.get("ddesim.integrate", 0.0)
        newton = c.get("linstab.char_root_newton", 0)
        return {
            "cli.main.self_ms": self._per_call("cli.main", self.self_time.get("cli.main", 0.0), 1e3),
            "cli.main.g_evals_direct": self._per_call("cli.main", self.g_direct_main),
            "model.equilibria.calls": per_pass(c.get("model.equilibria", 0)),
            "model.equilibria.self_us": self._per_call(
                "model.equilibria", self.self_time.get("model.equilibria", 0.0), 1e6),
            "model.taylor_coefficients.calls": per_pass(c.get("model.taylor_coefficients", 0)),
            "linstab.T_inv.calls": per_pass(c.get("linstab.T_inv", 0)),
            "linstab.T_inv.us_per_call": us("linstab.T_inv"),
            "linstab.g_of_r.calls": per_pass(c.get("linstab.g_of_r", 0)),
            "linstab.g_of_r.us_per_call": us("linstab.g_of_r"),
            "linstab.g_of_r.domain_errors": per_pass(self.errors.get("linstab.g_of_r", 0)),
            "linstab.classify_x2.us_per_call": us("linstab.classify_x2"),
            "linstab.bracketed_root.calls": per_pass(c.get("linstab.bracketed_root", 0)),
            "linstab.rightmost_root_estimate.calls": per_pass(c.get("linstab.rightmost_root_estimate", 0)),
            "linstab.rightmost_root_estimate.ms_per_call": us("linstab.rightmost_root_estimate") / 1e3,
            "linstab.rightmost_root_estimate.starts_per_call": self._per_call(
                "linstab.rightmost_root_estimate", self.starts_under_rightmost),
            "linstab.char_root_newton.calls": per_pass(newton),
            "linstab.char_root_newton.us_per_call": us("linstab.char_root_newton"),
            "linstab.char_root_newton.converged_ratio": (
                (newton - self.errors.get("linstab.char_root_newton", 0)) / newton if newton else 0.0),
            "hopf.hopf_from_pqk.us_per_call": us("hopf.hopf_from_pqk"),
            "hopf.find_hopf_r.us_per_call": us("hopf.find_hopf_r"),
            "hopf.find_hopf_r.g_evals_per_call": self._per_call("hopf.find_hopf_r", self.g_under_find),
            "hopf.find_hopf_r.errors": per_pass(self.errors.get("hopf.find_hopf_r", 0)),
            "hopf.criticality_report.us_per_call": us("hopf.criticality_report"),
            "ddesim.integrate.steps": per_pass(steps),
            "ddesim.integrate.us_per_step": 1e6 * d.get("ddesim.integrate", 0.0) / steps if steps else 0.0,
            "ddesim.integrate.self_s": per_pass(self.self_time.get("ddesim.integrate", 0.0)),
            "ddesim.orbit_metrics.ms_per_call": us("ddesim.orbit_metrics") / 1e3,
            "ddesim.orbit_metrics.points": self._per_call(
                "ddesim.orbit_metrics", self.extra.get("ddesim.orbit_metrics", 0.0)),
            "ddesim.write_trajectory_csv.ms_per_call": us("ddesim.write_trajectory_csv") / 1e3,
            "ddesim.write_trajectory_csv.bytes": self._per_call(
                "ddesim.write_trajectory_csv", self.extra.get("ddesim.write_trajectory_csv", 0.0)),
            "ddesim.amplitude_scaling.s": us("ddesim.amplitude_scaling") / 1e6,
        }
