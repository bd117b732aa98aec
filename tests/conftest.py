"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.photonics import devices
from repro.simulation.engine import simulate_batch

COEFFICIENTS = [0.25, 0.625, 0.375]


def _design_circuit(**design):
    return repro.OpticalStochasticCircuit.from_design(
        repro.mrr_first_design(order=2, **design),
        repro.BernsteinPolynomial(COEFFICIENTS),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(20190325)


@pytest.fixture
def coarse_profile() -> devices.RingProfile:
    """Ring technology of the Fig. 5 study (1 nm grid)."""
    return devices.COARSE_RING_PROFILE


@pytest.fixture
def dense_profile() -> devices.RingProfile:
    """Ring technology of the Fig. 6-7 studies (0.1-0.3 nm grid)."""
    return devices.DENSE_RING_PROFILE


@pytest.fixture(scope="session")
def design_circuit():
    """Order-2 ``mrr_first_design`` circuits of the test polynomial.

    Returns the factory: ``design_circuit(wl_spacing_nm=..., ...)``.
    """
    return _design_circuit


@pytest.fixture(scope="session")
def mid_snr():
    """Keys 1.9-2.3 sigma from the threshold: q ~ 0.03, p_k / q ~ 0.4-1.

    Receiver noise flips a few percent of this circuit's decisions, so
    a noisy parity case on it compares bits that really flipped — on
    ``paper_section5a_parameters()`` the flip rate is about 1e-111.
    """
    return _design_circuit(wl_spacing_nm=0.3, probe_power_mw=0.06)


@pytest.fixture(scope="session")
def flipped_decisions():
    """Counter of the decisions receiver noise toggles in a one-shot run.

    ``flipped_decisions(circuit, xs, **options)`` runs ``simulate_batch``
    noisy and noiseless under the same seeds (and fault) and counts the
    clocks whose output bit differs.
    """

    def count(circuit, xs, **options):
        noisy = simulate_batch(circuit, xs, noisy=True, **options)
        clean = simulate_batch(circuit, xs, noisy=False, **options)
        return int(np.count_nonzero(noisy.output_bits != clean.output_bits))

    return count
