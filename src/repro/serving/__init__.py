"""Hardened micro-batched serving for evaluator sessions.

The package split of the original ``repro/serving.py`` micro-batcher:

* :mod:`~repro.serving.server` — the :class:`BatchServer` core loop.
* :mod:`~repro.serving.admission` — bounded queue, overload policies,
  per-request deadlines.
* :mod:`~repro.serving.clock` — the injectable time source.
* :mod:`~repro.serving.degradation` — the progressive-precision ladder
  and its hysteretic controller.
* :mod:`~repro.serving.metrics` — counters, histograms, per-rung
  latency percentiles.

``from repro.serving import BatchServer, ServingStats`` keeps working
exactly as before the split.
"""

from __future__ import annotations

from .admission import (
    ADMISSION_POLICIES,
    DEFAULT_MAX_QUEUE,
    AdmissionQueue,
    Request,
)
from .degradation import (
    DegradationController,
    DegradationLadder,
    measure_rung_rmse,
)
from .metrics import (
    HistogramSnapshot,
    MetricsSnapshot,
    RungMetrics,
    ServingStats,
)
from .clock import Clock, ManualClock, MonotonicClock
from .server import BatchServer

__all__ = [
    "ADMISSION_POLICIES",
    "DEFAULT_MAX_QUEUE",
    "AdmissionQueue",
    "BatchServer",
    "Clock",
    "DegradationController",
    "DegradationLadder",
    "HistogramSnapshot",
    "ManualClock",
    "MetricsSnapshot",
    "MonotonicClock",
    "Request",
    "RungMetrics",
    "ServingStats",
    "measure_rung_rmse",
]
