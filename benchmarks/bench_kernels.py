"""Micro-benchmarks of the library's computational kernels.

Not tied to one paper figure; these track the cost of the primitives
every experiment is built from (ring transfer functions, the exhaustive
pattern table at scale, SNR sizing, bit-level simulation).
"""

import numpy as np
import pytest

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.design import mrr_first_design
from repro.core.params import paper_section5a_parameters
from repro.core.snr import minimum_probe_power_mw
from repro.core.transmission import TransmissionModel
from repro.photonics.ring import RingParameters
from repro.session import EvalSpec, Evaluator
from repro.stochastic import BernsteinPolynomial, ComparatorSNG, ReSCUnit
from repro.stochastic.functions import paper_example_bernstein


def test_ring_transfer_function(benchmark):
    """Eq. 2/3 evaluation over a 10k-point spectrum."""
    ring = RingParameters(r1=0.98, r2=0.98, a=0.999, fsr_nm=20.0)
    wavelengths = np.linspace(1540.0, 1560.0, 10_000)
    values = benchmark(lambda: ring.drop(wavelengths, 1550.0))
    assert values.shape == wavelengths.shape


def test_pattern_table_order_16(benchmark):
    """Exhaustive Eq. 6 table at the paper's largest order (2^17 patterns)."""
    design = mrr_first_design(
        order=16, wl_spacing_nm=0.165, probe_power_mw=1.0
    )
    model = TransmissionModel(design.params)
    table = benchmark.pedantic(
        model.received_power_table_mw, rounds=1, iterations=1
    )
    assert table.shape == (1 << 17, 17)


def test_probe_power_sizing(benchmark):
    """Eq. 8/9 probe sizing for the Section V-A design."""
    params = paper_section5a_parameters()
    probe = benchmark(lambda: minimum_probe_power_mw(params, 1e-6))
    assert probe > 0


def test_electronic_resc_evaluation(benchmark):
    """Electronic ReSC baseline: 4096-bit evaluation."""
    unit = ReSCUnit(paper_example_bernstein())
    result = benchmark(lambda: unit.evaluate(0.5, length=4096))
    assert 0.0 <= result.value <= 1.0


def test_optical_functional_simulation(benchmark):
    """Bit-level optical simulation: 4096 bit slots, noisy receiver."""
    circuit = OpticalStochasticCircuit(
        paper_section5a_parameters(), BernsteinPolynomial([0.25, 0.625, 0.375])
    )
    session = Evaluator(circuit, EvalSpec(length=4096))
    rng = np.random.default_rng(1)
    result = benchmark(lambda: session.evaluate([0.5], rng=rng))
    assert result.stream_length == 4096


def test_sng_generation(benchmark):
    """LFSR comparator SNG: 64k-bit stream."""
    sng = ComparatorSNG(width=16, seed=1)
    stream = benchmark(lambda: sng.generate(0.37, 65536))
    assert len(stream) == 65536
