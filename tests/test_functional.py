"""Integration tests: bit-level simulation of the optical circuit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.design import mrr_first_design
from repro.core.params import paper_section5a_parameters
from repro.errors import ConfigurationError
from repro.session import EvalSpec, Evaluator
from repro.stochastic import BernsteinPolynomial, ReSCUnit
from repro.stochastic.functions import paper_example_bernstein


@pytest.fixture(scope="module")
def paper_circuit() -> OpticalStochasticCircuit:
    return OpticalStochasticCircuit(
        paper_section5a_parameters(), BernsteinPolynomial([0.25, 0.625, 0.375])
    )


class TestEndToEnd:
    def test_converges_to_bernstein_value(self, paper_circuit, rng):
        result = paper_circuit.evaluate(0.5, length=16384, rng=rng)
        assert result.value == pytest.approx(result.expected, abs=0.02)

    @given(x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=10, deadline=None)
    def test_tracks_function_across_inputs(self, x):
        circuit = OpticalStochasticCircuit(
            paper_section5a_parameters(),
            BernsteinPolynomial([0.25, 0.625, 0.375]),
        )
        result = circuit.evaluate(x, length=8192)
        assert abs(result.value - result.expected) < 0.04

    def test_high_snr_link_is_error_free(self, paper_circuit, rng):
        # Fig. 5(c) bands at 1 mW probe give SNR ~45: no link errors.
        result = paper_circuit.evaluate(0.5, length=8192, rng=rng)
        assert result.transmission_bit_errors == 0

    def test_noiseless_matches_ideal_multiplexer(self, paper_circuit):
        result = paper_circuit.evaluate(0.3, length=4096, noisy=False)
        assert result.transmission_bit_errors == 0
        assert result.output_bits == result.ideal_bits

    def test_select_levels_within_range(self, paper_circuit):
        result = paper_circuit.evaluate(0.7, length=1024)
        assert result.select_levels.min() >= 0
        assert result.select_levels.max() <= 2

    def test_powers_fall_in_link_budget_bands(self, paper_circuit):
        result = paper_circuit.evaluate(0.5, length=2048)
        budget = paper_circuit.link_budget()
        low = budget.zero_band_mw[0] - 1e-9
        high = budget.one_band_mw[1] + 1e-9
        assert result.received_power_mw.min() >= low
        assert result.received_power_mw.max() <= high

    def test_bookkeeping(self, paper_circuit):
        result = paper_circuit.evaluate(0.25, length=512)
        assert result.stream_length == 512
        assert result.x == 0.25
        assert 0.0 <= result.transmission_ber <= 1.0
        assert result.absolute_error == abs(result.value - result.expected)


class TestAgreementWithElectronicReSC:
    def test_optical_and_electronic_agree(self, rng):
        """The optical circuit is a transposition of the electronic ReSC:
        both must converge to the same Bernstein value."""
        program = paper_example_bernstein()
        electronic = ReSCUnit(program)
        design = mrr_first_design(order=3, wl_spacing_nm=1.0, probe_power_mw=1.0)
        optical = OpticalStochasticCircuit.from_design(design, program)
        x = 0.5
        e = electronic.evaluate(x, length=16384)
        o = optical.evaluate(x, length=16384, rng=rng)
        assert e.value == pytest.approx(o.value, abs=0.03)
        assert e.expected == pytest.approx(o.expected)


class TestDegradedLink:
    def test_low_probe_power_causes_link_errors(self, rng):
        # Starve the probes so receiver noise flips bits.
        params = paper_section5a_parameters(probe_power_mw=0.02)
        circuit = OpticalStochasticCircuit(
            params, BernsteinPolynomial([0.25, 0.625, 0.375])
        )
        result = circuit.evaluate(0.5, length=8192, rng=rng)
        assert result.transmission_bit_errors > 0

    def test_graceful_degradation(self, rng):
        """SC error resilience: even a 1e-2-BER-ish link moves the output
        by only about the BER."""
        params = paper_section5a_parameters(probe_power_mw=0.06)
        circuit = OpticalStochasticCircuit(
            params, BernsteinPolynomial([0.25, 0.625, 0.375])
        )
        result = circuit.evaluate(0.5, length=16384, rng=rng)
        assert result.transmission_ber > 0.0
        assert result.absolute_error < 10 * max(result.transmission_ber, 0.01)


class TestValidationAndSweep:
    def test_input_validation(self, paper_circuit):
        with pytest.raises(ConfigurationError):
            paper_circuit.evaluate(1.5)
        with pytest.raises(ConfigurationError):
            paper_circuit.evaluate(0.5, length=0)
        with pytest.raises(ConfigurationError):
            Evaluator("circuit", EvalSpec())

    def test_sweep_shape(self, paper_circuit, rng):
        values = Evaluator(paper_circuit, EvalSpec(length=2048)).evaluate(
            [0.0, 0.5, 1.0], rng=rng
        ).values
        assert values.shape == (3,)
        # Endpoints interpolate b_0 and b_n.
        assert values[0] == pytest.approx(0.25, abs=0.05)
        assert values[2] == pytest.approx(0.375, abs=0.05)
