"""Span recording around the public calls of each ``repro`` layer.

The program carries no tracing of its own.  :func:`install_layer_spans`
wraps, from outside, the functions each layer exposes at the names its
callers look them up under, so every call records one :class:`Span`
(name, start, end, parent span).  Spans stay in memory; the benchmark
reduces them to per-layer self times when the run ends.  A span's self
time is its duration minus the time its child spans cover.

Install only for a traced run: wrapping adds a Python call frame and two
clock reads to every layer call, which the benchmark reports as the
tracing overhead.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Span name -> the per-layer metric its self time is reported under.
LAYER_METRICS: Dict[str, str] = {
    "session.evaluate": "session.self_ms",
    "runtime.run_batch": "runtime.dispatch_self_ms",
    "engine.schedule": "engine.schedule_ms",
    "engine.noise": "engine.noise_ms",
    "stochastic.stream": "stochastic.stream_ms",
    "kernels.pass": "kernels.pass_ms",
    "engine.simulate_batch": "engine.self_ms",
    "runtime.simulate_chunked": "runtime.tile_loop_self_ms",
    "stochastic.cursor": "stochastic.cursor_ms",
    "kernels.tile": "kernels.tile_ms",
    "faultmodel.apply": "faultmodel.apply_ms",
}


class Span:
    """One timed call: ``parent`` is the enclosing span on the same thread."""

    __slots__ = ("name", "start_ns", "end_ns", "parent", "meta")

    def __init__(self, name: str, parent: Optional["Span"], meta: Any) -> None:
        self.name = name
        self.parent = parent
        self.meta = meta
        self.start_ns = 0
        self.end_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack: Optional[List[Span]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        meta: Any = None,
    ) -> Any:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, meta)
        # list.append is atomic under the interpreter lock, so executor
        # threads and the main thread can record into one list.
        self.spans.append(span)
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()


class _TimedNormal:
    """A receiver-noise generator whose ``normal`` draws are spanned.

    Each span carries the number of samples drawn as its ``meta``.
    """

    def __init__(self, generator: Any, tracer: Tracer) -> None:
        self._generator = generator
        self._tracer = tracer

    def normal(self, *args: Any, **kwargs: Any) -> Any:
        size = args[2] if len(args) > 2 else kwargs.get("size", 1)
        return self._tracer.call(
            "engine.noise", self._generator.normal, args, kwargs, meta=size
        )


def _layer_targets() -> Iterable[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped layer call.

    Module attributes are patched in the module that *calls* them (for
    instance ``runtime.simulate_batch``, the name ``run_batch`` looks
    up), so each layer boundary is crossed through a wrapper.
    """
    from repro import session
    from repro.simulation import engine, faultmodel, kernels, runtime

    return (
        (session.Evaluator, "evaluate", "session.evaluate"),
        (session, "run_batch", "runtime.run_batch"),
        (runtime, "derive_seed_schedule", "engine.schedule"),
        (runtime, "simulate_batch", "engine.simulate_batch"),
        (runtime, "simulate_chunked", "runtime.simulate_chunked"),
        (engine, "derive_lfsr_seeds", "stochastic.stream"),
        (engine, "lfsr_uniform_windows", "stochastic.stream"),
        (engine, "packed_lfsr_comparator_bits", "stochastic.stream"),
        (runtime, "derive_lfsr_seeds", "stochastic.stream"),
        (kernels.PackedLfsrSource, "create", "stochastic.stream"),
        (kernels.PackedLfsrSource, "take", "stochastic.cursor"),
        (engine, "optical_pass", "kernels.pass"),
        (engine, "packed_optical_pass", "kernels.pass"),
        (runtime, "packed_tile_statistics", "kernels.tile"),
        (faultmodel.PackedFaultChannel, "apply_words", "faultmodel.apply"),
    )


def install_layer_spans(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer call so it records into *tracer*; returns the undo.

    ``Evaluator.evaluate`` spans carry the evaluated inputs as ``meta``,
    which lets the serving workload find each request's batch.
    """
    from repro.simulation.engine import SeedSchedule

    undo: List[Callable[[], None]] = []

    def patch(owner: Any, attribute: str, replacement: Any) -> None:
        owned = attribute in vars(owner)
        original = inspect.getattr_static(owner, attribute)
        setattr(owner, attribute, replacement)
        if owned:
            undo.append(lambda: setattr(owner, attribute, original))
        else:
            undo.append(lambda: delattr(owner, attribute))

    def spanned(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if name == "session.evaluate":

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, fn, args, kwargs, meta=args[1])

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, fn, args, kwargs)

        return wrapper

    for owner, attribute, name in _layer_targets():
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            patch(owner, attribute, classmethod(spanned(name, raw.__func__)))
        else:
            patch(owner, attribute, spanned(name, raw))

    row_noise_rng = SeedSchedule.row_noise_rng

    def timed_row_noise_rng(schedule: Any, row: int) -> _TimedNormal:
        return _TimedNormal(row_noise_rng(schedule, row), tracer)

    patch(SeedSchedule, "row_noise_rng", timed_row_noise_rng)

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def layer_self_ms(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-layer self time (ms) summed over *spans*, keyed by metric name.

    *spans* must include every child of each span it holds (one whole
    call's spans).  Only the layers that recorded a span are present, so
    a layer the call never reached is missing rather than zero.  Two
    counts ride along: ``runtime.tiles`` (tile kernel calls) and
    ``engine.noise_draws`` (receiver-noise samples drawn).
    """
    spans = list(spans)
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            child_ns[id(span.parent)] += span.duration_ns
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        own = span.duration_ns - child_ns[id(span)]
        totals[LAYER_METRICS[span.name]] += own / 1e6
        if span.name == "kernels.tile":
            totals["runtime.tiles"] += 1.0
        elif span.name == "engine.noise":
            totals["engine.noise_draws"] += float(span.meta)
    return dict(totals)
