"""Accuracy metrics for stochastic computations.

SC accuracy is statistical: a unipolar stream of length ``N`` estimates
its probability with standard error ``sqrt(p(1-p)/N)``.  These helpers
quantify computation error (MSE/MAE against a reference function) and
size streams for a target accuracy — the quantities behind the paper's
throughput-accuracy tradeoff discussion (Sections V-B and V-D).
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "mean_squared_error",
    "mean_absolute_error",
    "max_absolute_error",
    "binomial_confidence_interval",
    "required_stream_length",
    "stream_error_std",
]


def _two_sided_z(confidence: float) -> float:
    """Standard-normal ``z`` with ``P(|Z| < z) = confidence``.

    Taken from the lower tail so that a confidence within an ulp of 1
    still gives a finite quantile.
    """
    return -NormalDist().inv_cdf((1.0 - confidence) / 2.0)


def _as_arrays(estimates: Sequence[float], references: Sequence[float]):
    est = np.asarray(estimates, dtype=float)
    ref = np.asarray(references, dtype=float)
    if est.shape != ref.shape:
        raise ConfigurationError(
            f"shape mismatch: {est.shape} vs {ref.shape}"
        )
    if est.size == 0:
        raise ConfigurationError("need at least one sample")
    return est, ref


def mean_squared_error(
    estimates: Sequence[float], references: Sequence[float]
) -> float:
    """MSE between stochastic estimates and the reference values."""
    est, ref = _as_arrays(estimates, references)
    return float(np.mean((est - ref) ** 2))


def mean_absolute_error(
    estimates: Sequence[float], references: Sequence[float]
) -> float:
    """MAE between stochastic estimates and the reference values."""
    est, ref = _as_arrays(estimates, references)
    return float(np.mean(np.abs(est - ref)))


def max_absolute_error(
    estimates: Sequence[float], references: Sequence[float]
) -> float:
    """Worst-case absolute error over the sample set."""
    est, ref = _as_arrays(estimates, references)
    return float(np.max(np.abs(est - ref)))


def stream_error_std(probability: float, length: int) -> float:
    """Standard error of a Bernoulli stream estimate:
    ``sqrt(p (1-p) / N)``."""
    if not 0.0 <= probability <= 1.0:
        raise ConfigurationError(
            f"probability must be in [0, 1], got {probability!r}"
        )
    if length <= 0:
        raise ConfigurationError(f"length must be positive, got {length!r}")
    return math.sqrt(probability * (1.0 - probability) / length)


def binomial_confidence_interval(
    ones_count: int, length: int, confidence: float = 0.95
) -> tuple:
    """Normal-approximation confidence interval for a stream estimate.

    Returns ``(low, high)`` clipped to ``[0, 1]``.
    """
    if length <= 0:
        raise ConfigurationError(f"length must be positive, got {length!r}")
    if not 0 <= ones_count <= length:
        raise ConfigurationError(
            f"ones_count must be in [0, {length}], got {ones_count!r}"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    p = ones_count / length
    z = _two_sided_z(confidence)
    half_width = z * math.sqrt(max(p * (1.0 - p), 1e-12) / length)
    return (max(0.0, p - half_width), min(1.0, p + half_width))


def required_stream_length(
    epsilon: float, confidence: float = 0.95
) -> int:
    """Stream length for ``P(|estimate - p| < epsilon) >= confidence``.

    Uses the worst case ``p = 1/2``: ``N >= (z / (2 * epsilon))^2``.
    This is the knob of the paper's throughput-accuracy tradeoff: halving
    the tolerated error quadruples the stream length (and computation
    time), which optical transmission speed can buy back.
    """
    if not 0.0 < epsilon < 0.5:
        raise ConfigurationError(
            f"epsilon must be in (0, 0.5), got {epsilon!r}"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    z = _two_sided_z(confidence)
    return int(math.ceil((z / (2.0 * epsilon)) ** 2))
