"""Tests for SC accuracy metrics."""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from repro.errors import ConfigurationError
from repro.stochastic import (
    binomial_confidence_interval,
    mean_absolute_error,
    mean_squared_error,
    required_stream_length,
)
from repro.stochastic.accuracy import max_absolute_error, stream_error_std


class TestErrorMetrics:
    def test_mse(self):
        assert mean_squared_error([0.1, 0.2], [0.0, 0.0]) == pytest.approx(
            (0.01 + 0.04) / 2
        )

    def test_mae(self):
        assert mean_absolute_error([0.1, 0.3], [0.0, 0.0]) == pytest.approx(0.2)

    def test_max_error(self):
        assert max_absolute_error([0.1, 0.5], [0.0, 0.0]) == pytest.approx(0.5)

    def test_zero_for_perfect_estimates(self):
        xs = np.linspace(0, 1, 5)
        assert mean_squared_error(xs, xs) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            mean_squared_error([0.1], [0.1, 0.2])

    def test_empty(self):
        with pytest.raises(ConfigurationError):
            mean_absolute_error([], [])


class TestStreamStatistics:
    def test_stream_error_std(self):
        assert stream_error_std(0.5, 1024) == pytest.approx(
            np.sqrt(0.25 / 1024)
        )

    def test_confidence_interval_contains_estimate(self):
        low, high = binomial_confidence_interval(300, 1000)
        assert low < 0.3 < high

    def test_confidence_interval_clipping(self):
        low, high = binomial_confidence_interval(0, 10)
        assert low == 0.0
        low, high = binomial_confidence_interval(10, 10)
        assert high == 1.0

    @given(
        eps=st.floats(min_value=0.005, max_value=0.2),
        conf=st.floats(min_value=0.5, max_value=0.999),
    )
    def test_required_length_achieves_target(self, eps, conf):
        n = required_stream_length(eps, conf)
        # Check the defining inequality: z * sqrt(1/(4n)) <= eps.
        z = norm.ppf(0.5 + conf / 2)
        assert z * np.sqrt(0.25 / n) <= eps + 1e-12

    def test_quadratic_scaling(self):
        # Halving epsilon quadruples the stream length (the paper's
        # throughput-accuracy tradeoff).
        n1 = required_stream_length(0.02)
        n2 = required_stream_length(0.01)
        assert n2 == pytest.approx(4 * n1, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            required_stream_length(0.0)
        with pytest.raises(ConfigurationError):
            required_stream_length(0.01, confidence=1.5)
        with pytest.raises(ConfigurationError):
            required_stream_length(float("nan"))
        with pytest.raises(ConfigurationError):
            required_stream_length(0.01, confidence=float("nan"))
        with pytest.raises(ConfigurationError):
            binomial_confidence_interval(5, 0)
        with pytest.raises(ConfigurationError):
            binomial_confidence_interval(11, 10)
        with pytest.raises(ConfigurationError):
            stream_error_std(2.0, 10)


class TestQuantileAgainstScipy:
    """scipy is a test-only oracle for the stdlib normal quantile."""

    def test_inv_cdf_matches_norm_ppf(self):
        tail = np.logspace(-300, -1, 300)
        upper = 1.0 - np.logspace(-15, -1, 100)
        for p in np.concatenate([tail, np.linspace(0.1, 0.9, 81), upper]):
            assert NormalDist().inv_cdf(p) == pytest.approx(
                norm.ppf(p), rel=1e-14, abs=1e-15
            )

    def test_stream_length_and_interval_match_norm_ppf(self):
        for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            z = norm.ppf(0.5 + confidence / 2.0)
            for epsilon in (0.001, 0.005, 0.01, 0.02, 0.1):
                expected = int(np.ceil((z / (2.0 * epsilon)) ** 2))
                assert required_stream_length(epsilon, confidence) == expected
            low, high = binomial_confidence_interval(300, 1000, confidence)
            half_width = z * np.sqrt(0.3 * 0.7 / 1000)
            assert low == pytest.approx(0.3 - half_width, rel=1e-12)
            assert high == pytest.approx(0.3 + half_width, rel=1e-12)
