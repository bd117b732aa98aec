"""Serving observability: counters, histograms and per-rung latency.

The serving tier's contract with its operator is a single immutable
:class:`MetricsSnapshot` — every admission decision (admitted / shed /
expired / cancelled), every failed request and every degradation step
is counted, queue depth and micro-batch size are tracked as
histograms, and per-precision-rung latency percentiles ride on bounded
reservoirs.  The legacy
:class:`ServingStats` coalescing summary survives unchanged as a
derived view, so pre-package callers keep their exact semantics.

Everything here is plain arithmetic on the event-loop thread: no
locks, no wall-clock reads — timestamps come in from the server's
:class:`~repro.serving.clock.Clock`, which is what makes the
failure-path tests exact instead of sleep-and-hope.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "HistogramSnapshot",
    "MetricsSnapshot",
    "RungMetrics",
    "ServingStats",
]

#: Queue-depth / batch-size histogram bucket upper bounds (inclusive);
#: the final implicit bucket is unbounded.
_BUCKET_BOUNDS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Per-rung latency reservoir size: enough samples for a stable p99 at
#: bench scale while keeping a long-lived server's footprint bounded.
_RESERVOIR_SIZE: int = 4096


@dataclass(frozen=True)
class ServingStats:
    """Snapshot of a server's coalescing behaviour."""

    requests: int
    batches: int
    largest_batch: int

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests coalesced per engine call."""
        return self.requests / self.batches if self.batches else 0.0


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable bucketed counts: ``counts[i]`` values ``<= bounds[i]``.

    The final bucket (``counts[len(bounds)]``) holds everything above
    the last bound.
    """

    bounds: Tuple[int, ...]
    counts: Tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def max_observed_bound(self) -> Optional[int]:
        """Upper bound of the highest non-empty bucket (None if empty).

        A coarse-but-deterministic maximum: the saturation benchmark
        uses it to show a bounded queue's depth staying flat while the
        unbounded baseline's grows without bound.
        """
        for index in range(len(self.counts) - 1, -1, -1):
            if self.counts[index]:
                if index >= len(self.bounds):
                    return None  # overflowed the last bound
                return self.bounds[index]
        return None


class _Histogram:
    """Mutable power-of-two bucket histogram for small integers."""

    __slots__ = ("_bounds", "_counts")

    def __init__(self, bounds: Tuple[int, ...] = _BUCKET_BOUNDS) -> None:
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)

    def record(self, value: int) -> None:
        for index, bound in enumerate(self._bounds):
            if value <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            bounds=self._bounds, counts=tuple(self._counts)
        )


def _percentile(sorted_samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    rank = max(
        0, min(len(sorted_samples) - 1, round(fraction * (len(sorted_samples) - 1)))
    )
    return sorted_samples[rank]


@dataclass(frozen=True)
class RungMetrics:
    """Per-precision-rung serving record.

    One entry per ladder rung that served at least one batch: the
    stream length it serves at, how much traffic it carried, its
    latency percentiles, and the rung's measured RMSE on the
    calibration grid — the accuracy price of serving degraded.
    """

    rung: int
    length: int
    served: int
    batches: int
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    rmse: Optional[float]


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable export of every serving counter and distribution.

    Counters follow one request's life: ``submitted`` at entry,
    then exactly one of ``admitted`` (queued) or ``shed``; admitted
    requests end as ``served``, ``expired`` (deadline), ``cancelled``
    (client gave up) or ``failed`` (the evaluator raised for its
    batch).  ``degraded_served`` counts requests answered below the
    top precision rung.
    """

    submitted: int
    admitted: int
    served: int
    shed: int
    expired: int
    cancelled: int
    failed: int
    degraded_served: int
    batches: int
    largest_batch: int
    current_rung: int
    queue_depth: HistogramSnapshot
    batch_size: HistogramSnapshot
    rungs: Tuple[RungMetrics, ...]

    @property
    def mean_batch_size(self) -> float:
        return self.served / self.batches if self.batches else 0.0

    @property
    def served_fraction(self) -> float:
        """Served requests over all submitted (1.0 when nothing lost)."""
        return self.served / self.submitted if self.submitted else 1.0

    @property
    def stats(self) -> ServingStats:
        """The legacy coalescing view (requests == successfully served)."""
        return ServingStats(
            requests=self.served,
            batches=self.batches,
            largest_batch=self.largest_batch,
        )


@dataclass
class _RungRecorder:
    length: int
    served: int = 0
    batches: int = 0
    latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=_RESERVOIR_SIZE)
    )


class MetricsRecorder:
    """The server-owned mutable side of :class:`MetricsSnapshot`.

    Single-writer by construction (only the event-loop thread touches
    it), so plain attribute increments are exact.
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.admitted = 0
        self.served = 0
        self.shed = 0
        self.expired = 0
        self.cancelled = 0
        self.failed = 0
        self.degraded_served = 0
        self.batches = 0
        self.largest_batch = 0
        self._queue_depth = _Histogram()
        self._batch_size = _Histogram()
        self._rungs: Dict[int, _RungRecorder] = {}

    def record_queue_depth(self, depth: int) -> None:
        self._queue_depth.record(int(depth))

    def record_batch(
        self, rung: int, length: int, size: int, latencies: List[float]
    ) -> None:
        """One successfully served micro-batch at *rung*."""
        self.batches += 1
        self.served += size
        self.largest_batch = max(self.largest_batch, size)
        if rung > 0:
            self.degraded_served += size
        self._batch_size.record(size)
        recorder = self._rungs.get(rung)
        if recorder is None:
            recorder = _RungRecorder(length=length)
            self._rungs[rung] = recorder
        recorder.served += size
        recorder.batches += 1
        recorder.latencies.extend(latencies)

    def snapshot(
        self, current_rung: int, rung_rmse: Dict[int, Optional[float]]
    ) -> MetricsSnapshot:
        rungs: List[RungMetrics] = []
        for rung in sorted(self._rungs):
            recorder = self._rungs[rung]
            samples = sorted(recorder.latencies)
            if not samples:
                samples = [0.0]
            rungs.append(
                RungMetrics(
                    rung=rung,
                    length=recorder.length,
                    served=recorder.served,
                    batches=recorder.batches,
                    latency_p50_s=_percentile(samples, 0.50),
                    latency_p95_s=_percentile(samples, 0.95),
                    latency_p99_s=_percentile(samples, 0.99),
                    rmse=rung_rmse.get(rung),
                )
            )
        return MetricsSnapshot(
            submitted=self.submitted,
            admitted=self.admitted,
            served=self.served,
            shed=self.shed,
            expired=self.expired,
            cancelled=self.cancelled,
            failed=self.failed,
            degraded_served=self.degraded_served,
            batches=self.batches,
            largest_batch=self.largest_batch,
            current_rung=current_rung,
            queue_depth=self._queue_depth.snapshot(),
            batch_size=self._batch_size.snapshot(),
            rungs=tuple(rungs),
        )
