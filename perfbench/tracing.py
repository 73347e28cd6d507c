"""Span tracing of mimomrc's layers from outside the package.

A :class:`Tracer` replaces module-level public names of the package with
timing wrappers for the duration of a ``with tracer.installed():`` block
and restores every original on exit. Each span records its wall time
(``perf_counter``) and the CPU time of its own thread (``thread_time``);
a span's self time is its duration minus that of the spans it encloses in
the same thread.

The CLI evaluates sweep points on a thread pool whose threads start with
no context, so a span opened on a thread with no enclosing span takes the
identifier of the ``cli.main`` call that is running. The benchmark runs
one command at a time, which makes that call unambiguous.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from mimomrc import correlation, eigdist, linalg, montecarlo, performance

# (module, attribute, span name). A function imported by name into another
# module is wrapped under both bindings with the same span name.
WRAPPED = (
    (performance, "exact_ser", "performance.exact_ser"),
    (performance, "exact_cdf_stable", "eigdist.cdf"),
    (eigdist, "exact_cdf_stable", "eigdist.cdf"),
    (eigdist, "psi_matrix", "eigdist.psi_matrix"),
    (eigdist, "build_model", "eigdist.build_model"),
    (correlation, "make_pair", "correlation.make_pair"),
    (montecarlo, "make_pair", "correlation.make_pair"),
    (linalg, "det", "linalg.det"),
    (linalg, "herm_eig", "linalg.herm_eig"),
    (montecarlo, "simulate_lambda_max", "montecarlo.simulate_lambda_max"),
    (montecarlo, "empirical_cdf", "montecarlo.empirical_cdf"),
    (montecarlo, "mc_ser", "montecarlo.mc_ser"),
    (montecarlo, "mc_outage", "montecarlo.mc_outage"),
)

LAYERS = ("cli", "performance", "eigdist", "montecarlo", "correlation", "linalg")


# Percentiles considered for a tail; the highest one with at least ten
# samples beyond it is reported, else the maximum.
_TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(values) -> tuple[float, str]:
    """(value, label) of the highest percentile with ten samples beyond it."""
    n = len(values)
    usable = [p for p in _TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0]
    if not usable:
        return max(values), f"max of {n}"
    return percentile(values, usable[-1]), f"p{usable[-1]:g} of {n}"


@dataclass
class Span:
    name: str
    parent: str | None  # name of the enclosing span on the same thread
    command: int | None  # index of the enclosing cli.main call, if any
    wall: float
    cpu: float
    self_wall: float
    self_cpu: float
    # Span-specific detail: c.d.f. regime, [c.d.f. evaluations, SNR] of an
    # exact_ser call, or trials drawn by an outermost Monte-Carlo call.
    detail: object = None


class _Frame:
    __slots__ = ("name", "t0", "c0", "child_wall", "child_cpu", "detail")

    def __init__(self, name, detail):
        self.name = name
        self.detail = detail
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.t0 = time.perf_counter()
        self.c0 = time.thread_time()


class Tracer:
    """Collects spans from every thread while its wrappers are installed."""

    def __init__(self):
        self.current_command: int | None = None
        self._local = threading.local()
        # (thread ident, spans) for every thread that opened a span
        self._threads: list[tuple[int, list[Span]]] = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        try:
            return local.stack, local.spans, local.ser
        except AttributeError:
            # ser[0] is the frame of the exact_ser call running on this thread.
            local.stack, local.spans, local.ser = [], [], [None]
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans))
            return local.stack, local.spans, local.ser

    def _enter(self, stack, name, detail=None) -> _Frame:
        frame = _Frame(name, detail)
        stack.append(frame)
        return frame

    def _exit(self, stack, spans, frame: _Frame) -> None:
        cpu = time.thread_time() - frame.c0
        wall = time.perf_counter() - frame.t0
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_wall += wall
            parent.child_cpu += cpu
        spans.append(Span(frame.name, parent and parent.name, self.current_command, wall, cpu,
                          wall - frame.child_wall, cpu - frame.child_cpu, frame.detail))

    @contextmanager
    def span(self, name: str, detail=None):
        stack, spans, _ = self._state()
        frame = self._enter(stack, name, detail)
        try:
            yield frame
        finally:
            self._exit(stack, spans, frame)

    def spans(self) -> list[Span]:
        return [span for _, spans in self._threads for span in spans]

    def pool_spans(self) -> list[Span]:
        """Outermost spans opened on threads other than the main one."""
        main = threading.main_thread().ident
        return [span for ident, spans in self._threads if ident != main
                for span in spans if span.parent is None]

    def _wrap(self, fn, name):
        tracer = self
        if name == "eigdist.cdf":
            def wrapper(model, x, *args, **kwargs):
                stack, spans, ser = tracer._state()
                xf = float(x)
                regime = ("saturated" if xf >= model.saturation
                          else "leading" if xf < model.crossover else "determinant")
                if ser[0] is not None:
                    ser[0].detail[0] += 1
                frame = tracer._enter(stack, name, regime)
                try:
                    return fn(model, x, *args, **kwargs)
                finally:
                    tracer._exit(stack, spans, frame)
        elif name == "performance.exact_ser":
            def wrapper(model, mod, snr_db, *args, **kwargs):
                stack, spans, ser = tracer._state()
                outer = ser[0]
                # detail: [c.d.f. evaluations, SNR in dB]
                frame = ser[0] = tracer._enter(stack, name, [0, snr_db])
                try:
                    return fn(model, mod, snr_db, *args, **kwargs)
                finally:
                    ser[0] = outer
                    tracer._exit(stack, spans, frame)
        elif name.startswith("montecarlo."):
            def wrapper(cfg, *args, **kwargs):
                stack, spans, _ = tracer._state()
                outermost = not any(f.name.startswith("montecarlo.") for f in stack)
                frame = tracer._enter(stack, name, cfg.trials if outermost else None)
                try:
                    return fn(cfg, *args, **kwargs)
                finally:
                    tracer._exit(stack, spans, frame)
        else:
            def wrapper(*args, **kwargs):
                stack, spans, _ = tracer._state()
                frame = tracer._enter(stack, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(stack, spans, frame)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in; restore (and verify) every original on exit."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        try:
            for (module, attr, name), (_, _, fn) in zip(WRAPPED, originals):
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
        for module, attr, fn in originals:
            if getattr(module, attr) is not fn:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")

    @contextmanager
    def command(self, index: int):
        """A ``cli.main`` span for command ``index``, which also claims the
        spans that the CLI's pool threads open meanwhile."""
        self.current_command = index
        try:
            with self.span("cli.main"):
                yield
        finally:
            self.current_command = None


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of a traced pass: {name: (value, unit, note)}."""
    spans = tracer.spans()
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(s.self_wall for s in by_name.get(name, []))

    def ms(name):
        return [1e3 * s.wall for s in by_name.get(name, [])]

    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = (value, unit, note)

    ser_ms = ms("performance.exact_ser")
    evals = [s.detail[0] for s in by_name.get("performance.exact_ser", [])]
    tail_ms, tail_label = tail(ser_ms) if ser_ms else (0.0, "no calls")
    put("performance.exact_ser.calls", calls("performance.exact_ser"), "count")
    put("performance.exact_ser.p50_ms", statistics.median(ser_ms) if ser_ms else 0.0, "ms")
    put("performance.exact_ser.tail_ms", tail_ms, "ms", tail_label)
    put("performance.exact_ser.self_s", self_s("performance.exact_ser"), "s")
    put("performance.cdf_evals_per_ser.mean", statistics.fmean(evals) if evals else 0.0, "count")
    put("performance.cdf_evals_per_ser.max", max(evals, default=0), "count")

    regimes = Counter(s.detail for s in by_name.get("eigdist.cdf", []))
    for regime in ("leading", "determinant", "saturated"):
        put(f"eigdist.cdf.calls.{regime}", regimes[regime], "count")
    put("eigdist.cdf.self_s", self_s("eigdist.cdf"), "s")
    for name in ("eigdist.psi_matrix", "linalg.det"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.self_s", self_s(name), "s")

    build_ms = ms("eigdist.build_model")
    put("eigdist.build_model.calls", calls("eigdist.build_model"), "count")
    put("eigdist.build_model.p50_ms", statistics.median(build_ms) if build_ms else 0.0, "ms")
    put("eigdist.build_model.self_s", self_s("eigdist.build_model"), "s")
    put("correlation.make_pair.self_s", self_s("correlation.make_pair"), "s")
    put("linalg.herm_eig.calls", calls("linalg.herm_eig"), "count")
    put("linalg.herm_eig.self_s", self_s("linalg.herm_eig"), "s")

    mc = [s for s in spans if s.name.startswith("montecarlo.") and s.detail is not None]
    trials = sum(s.detail for s in mc)
    put("montecarlo.calls", len(mc), "count", "outermost public calls")
    put("montecarlo.trials_drawn", trials, "count")
    put("montecarlo.s_per_Mtrial", sum(s.wall for s in mc) / (trials / 1e6) if trials else 0.0,
        "s", "wall of the public calls per 10^6 trials")

    for layer in LAYERS:
        wait = sum(s.self_wall - s.self_cpu for s in spans if s.name.split(".", 1)[0] == layer)
        put(f"{layer}.wait_s", wait, "s", "self wall minus own-thread CPU")
    put("trace_overhead_frac", traced_wall_s / untraced_wall_s - 1.0, "1",
        f"traced pass {traced_wall_s:.3f} s vs untraced {untraced_wall_s:.3f} s")
    return metrics
