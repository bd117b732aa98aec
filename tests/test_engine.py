"""Tests for the batched vectorized evaluation engine.

The engine's contract is *bit-for-bit equivalence*: a
``simulate_batch`` pass must reproduce exactly what a per-evaluation
loop produces under a shared rng, for every SNG kind and circuit order —
and both must match the pre-engine per-bit pipeline for fixed seeds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.design import mrr_first_design
from repro.core.link_budget import received_power_table
from repro.core.params import paper_section5a_parameters
from repro.errors import ConfigurationError
from repro.session import EvalSpec, Evaluator
from repro.simulation.engine import (
    BatchEvaluation,
    derive_seed_schedule,
    simulate_batch,
)
from repro.simulation.faultmodel import FaultSpec
from repro.simulation.kernels import pass_context
from repro.simulation.receiver import OpticalReceiver
from repro.simulation.runtime import RuntimeConfig, run_batch, simulate_chunked
from repro.stochastic import LFSR
from repro.stochastic.bernstein import BernsteinPolynomial
from repro.stochastic.bitstream import Bitstream
from repro.stochastic.elements import adder_select
from repro.stochastic.lfsr import lfsr_state_windows, lfsr_uniform_windows
from repro.stochastic.sng import (
    SNG_KINDS,
    ChaoticLaserBitSource,
    ComparatorSNG,
    CounterSNG,
    SobolLikeSNG,
    make_independent_sngs,
)

import packed_reference as reference

ALL_KINDS = list(SNG_KINDS)


def _circuit(order: int) -> OpticalStochasticCircuit:
    if order == 2:
        return OpticalStochasticCircuit(
            paper_section5a_parameters(),
            BernsteinPolynomial([0.25, 0.625, 0.375]),
        )
    design = mrr_first_design(
        order=order, wl_spacing_nm=1.0, probe_power_mw=1.0
    )
    coefficients = np.linspace(0.2, 0.8, order + 1)
    return OpticalStochasticCircuit.from_design(
        design, BernsteinPolynomial(coefficients)
    )


class TestBatchScalarEquivalence:
    """generate_batch / simulate_batch == the scalar paths, bit for bit."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_batch_matches_scalar_loop(self, kind, order):
        circuit = _circuit(order)
        xs = np.linspace(0.0, 1.0, 7)
        session = Evaluator(circuit, EvalSpec(length=256, sng_kind=kind))
        rng_loop = np.random.default_rng(1234)
        loop = [session.evaluate([x], rng=rng_loop) for x in xs]
        rng_batch = np.random.default_rng(1234)
        batch = simulate_batch(
            circuit, xs, length=256, rng=rng_batch, sng_kind=kind
        )
        for field in ("values", "output_bits", "ideal_bits", "select_levels"):
            assert np.array_equal(
                np.concatenate([getattr(e, field) for e in loop]),
                getattr(batch, field),
            )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_noiseless_batch_matches_scalar_loop(self, kind):
        circuit = _circuit(2)
        xs = [0.0, 0.3, 1.0]
        session = Evaluator(
            circuit,
            EvalSpec(length=128, noisy=False, sng_kind=kind, base_seed=9),
        )
        loop = [session.evaluate_one(x) for x in xs]
        batch = simulate_batch(
            circuit, xs, length=128, noisy=False, sng_kind=kind, base_seed=9
        )
        assert np.array_equal(np.asarray(loop), batch.values)

    def test_sweep_is_thin_wrapper(self):
        circuit = _circuit(2)
        xs = [0.1, 0.5, 0.9]
        a = Evaluator(circuit, EvalSpec(length=256)).sweep(
            xs, rng=np.random.default_rng(5)
        ).values
        b = simulate_batch(
            circuit, xs, length=256, rng=np.random.default_rng(5)
        ).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ComparatorSNG(width=12, seed=77),
            lambda: CounterSNG(),
            lambda: SobolLikeSNG(bits=16, bit_offset=123),
            lambda: ChaoticLaserBitSource(seed_intensity=0.2, warmup=70),
        ],
        ids=["lfsr", "counter", "sobol", "chaotic"],
    )
    @given(value=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=10, deadline=None)
    def test_generate_batch_rows_match_fresh_scalar(self, make, value):
        values = np.asarray([0.0, value, 1.0])
        batch = make().generate_batch(values, 200)
        reference = np.stack(
            [make().generate(float(v), 200).bits for v in values]
        )
        assert batch.dtype == np.uint8
        assert np.array_equal(batch, reference)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_factory_sngs_match_batch_uniforms(self, kind):
        """make_independent_sngs and the engine derive identical streams."""
        sngs = make_independent_sngs(3, kind=kind, base_seed=41)
        for sng in sngs:
            scalar = sng.generate(0.37, 150).bits
            batched = sng.generate_batch([0.37], 150)[0]
            assert np.array_equal(scalar, batched)


def _legacy_powers(circuit, x, length, base_seed):
    """The pre-engine pipeline's received powers, and its receiver.

    Scalar SNGs with per-bit LFSR stepping, per-evaluation
    pattern/table lookup, and the receiver calibrated on the link
    budget's band edges.
    """
    params = circuit.params
    order = params.order
    data_sngs = make_independent_sngs(order, base_seed=base_seed)
    coeff_sngs = make_independent_sngs(
        order + 1, base_seed=base_seed + 0x9E3779B9
    )

    def stepped_stream(sng, value):
        register = LFSR(sng.width, sng.seed, sng._lfsr.taps)
        samples = np.asarray(
            [register.step() for _ in range(length)], dtype=float
        ) / float(1 << sng.width)
        return Bitstream((samples < value).astype(np.uint8))

    data_streams = [stepped_stream(s, x) for s in data_sngs]
    coeff_streams = [
        stepped_stream(s, float(b))
        for s, b in zip(coeff_sngs, circuit.polynomial.coefficients)
    ]
    levels = adder_select(data_streams)
    coeff_matrix = np.stack([s.bits for s in coeff_streams])
    pattern_index = np.zeros(length, dtype=np.int64)
    for channel in range(order + 1):
        pattern_index |= coeff_matrix[channel].astype(np.int64) << channel
    budget = received_power_table(params)
    powers = budget.power_mw[pattern_index, levels]
    receiver = OpticalReceiver.from_power_bands(
        params.detector,
        zero_level_mw=budget.zero_band_mw[1],
        one_level_mw=budget.one_band_mw[0],
    )
    return powers, receiver


def _mid_snr_circuit():
    """Keys 1.9-2.3 sigma from the threshold: q ~ 0.03, p_k / q ~ 0.4-1."""
    return OpticalStochasticCircuit.from_design(
        mrr_first_design(order=2, wl_spacing_nm=0.3, probe_power_mw=0.06),
        BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


class TestLegacyPipelineEquivalence:
    """The vectorized pass reproduces the pre-engine per-bit pipeline."""

    def test_bit_exact_against_per_bit_reference(self):
        circuit = _circuit(2)
        length = 300
        x = 0.55
        base_seed = 0xACE1
        powers, receiver = _legacy_powers(circuit, x, length, base_seed)
        legacy_bits = receiver.decide(powers).bits.bits

        options = dict(
            length=length, rng=np.random.default_rng(99), base_seed=base_seed
        )
        clean = simulate_batch(circuit, [x], noisy=False, **options)
        assert np.array_equal(clean.received_power_mw[0], powers)
        assert np.array_equal(clean.output_bits[0], legacy_bits)
        noisy = simulate_batch(circuit, [x], **options)
        assert np.array_equal(noisy.received_power_mw[0], powers)
        assert np.array_equal(
            noisy.output_bits ^ clean.output_bits,
            _sampled_flips(circuit, powers, base_seed),
        )

    def test_noisy_differs_by_the_sampled_flips_only(self):
        circuit = _mid_snr_circuit()
        length = 2000
        base_seed = 0xACE1
        powers, receiver = _legacy_powers(circuit, 0.55, length, base_seed)
        noisy = simulate_batch(
            circuit, [0.55], length=length, base_seed=base_seed
        )
        flips = _sampled_flips(circuit, powers, base_seed)
        assert 10 < np.count_nonzero(flips) < 200
        assert np.array_equal(
            noisy.output_bits[0],
            receiver.decide(powers).bits.bits ^ flips[0],
        )


def _sampled_flips(circuit, powers, base_seed):
    """The one-row flip mask the reference walk predicts for *powers*."""
    schedule = derive_seed_schedule(1, base_seed=base_seed)
    candidates = reference.flip_candidates(circuit, schedule, powers.size)
    flips = np.zeros((1, powers.size), dtype=np.uint8)
    reference.toggle_flips(circuit, powers[None, :], flips, candidates)
    return flips


class TestLfsrWindows:
    def test_windows_match_stepping_across_period_wrap(self):
        width = 8
        for seed in (1, 33, 200):
            window = lfsr_state_windows(seed, 300, width)
            register = LFSR(width=width, seed=seed)
            stepped = np.asarray(
                [register.step() for _ in range(300)], dtype=np.uint32
            )
            assert np.array_equal(window, stepped)

    def test_uniform_windows_match_uniform(self):
        seeds = np.asarray([[1, 5], [9, 1023]])
        windows = lfsr_uniform_windows(seeds, 64, 10)
        assert windows.shape == (2, 2, 64)
        for i in range(2):
            for j in range(2):
                reference = LFSR(width=10, seed=int(seeds[i, j])).uniform(64)
                assert np.array_equal(windows[i, j], reference)

    def test_rejects_bad_seeds(self):
        with pytest.raises(ConfigurationError):
            lfsr_state_windows([0], 8, 8)
        with pytest.raises(ConfigurationError):
            lfsr_state_windows([1 << 8], 8, 8)

    def test_non_injective_taps_fall_back_to_stepping(self):
        # Tap sets without the width tap make the update map
        # non-injective: the orbit of state 1 is rho-shaped (a tail into
        # a loop that never revisits 1) and must NOT be served from a
        # wrap-around table.  states() has to match pure stepping.
        fast = LFSR(width=4, seed=3, taps=(2, 1)).states(18)
        register = LFSR(width=4, seed=3, taps=(2, 1))
        stepped = np.asarray(
            [register.step() for _ in range(18)], dtype=np.uint32
        )
        assert np.array_equal(fast, stepped)
        with pytest.raises(ConfigurationError):
            lfsr_state_windows([3], 18, 4, taps=(2, 1))

    def test_short_cycle_taps_stay_exact_across_wrap(self):
        # Non-maximal but invertible taps (width tap included) close a
        # shorter cycle; table-backed windows must still match stepping
        # past the wrap point, and off-cycle seeds must be refused.
        taps = (4, 2)
        fast = LFSR(width=4, seed=1, taps=taps).states(40)
        register = LFSR(width=4, seed=1, taps=taps)
        stepped = np.asarray(
            [register.step() for _ in range(40)], dtype=np.uint32
        )
        assert np.array_equal(fast, stepped)


class TestSeedDerivation:
    """Satellite: sweep points no longer share identical streams."""

    def test_rows_decorrelate_under_rng_seeds(self):
        circuit = _circuit(2)
        batch = simulate_batch(
            circuit,
            [0.5, 0.5, 0.5],
            length=512,
            rng=np.random.default_rng(3),
            noisy=False,
        )
        assert not np.array_equal(batch.output_bits[0], batch.output_bits[1])
        assert not np.array_equal(batch.output_bits[1], batch.output_bits[2])

    def test_fixed_base_seed_restores_identical_streams(self):
        circuit = _circuit(2)
        batch = simulate_batch(
            circuit, [0.5, 0.5], length=512, noisy=False, base_seed=77
        )
        assert np.array_equal(batch.output_bits[0], batch.output_bits[1])

    def test_repeatable_for_same_rng_seed(self):
        circuit = _circuit(2)
        a = simulate_batch(
            circuit, [0.25, 0.75], length=256, rng=np.random.default_rng(11)
        )
        b = simulate_batch(
            circuit, [0.25, 0.75], length=256, rng=np.random.default_rng(11)
        )
        assert np.array_equal(a.output_bits, b.output_bits)


PROTOCOL_FAULTS = [None, FaultSpec(flip_probability=0.1, shift_clocks=3)]


class TestOneSeedProtocol:
    """A bare call derives its seed schedule exactly like run_batch."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("kernel_pass", reference.PASSES)
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("fault", PROTOCOL_FAULTS, ids=["clean", "fault"])
    def test_bare_call_matches_single_tile_run_batch(
        self, kind, kernel_pass, noisy, fault
    ):
        # The bare call runs on the reference or the production pass,
        # run_batch on production.
        circuit = _circuit(2)
        xs = [0.1, 0.5, 0.8]
        options = dict(length=300, noisy=noisy, sng_kind=kind, fault=fault)
        with reference.running(kernel_pass):
            bare = simulate_batch(
                circuit, xs, rng=np.random.default_rng(21), **options
            )
        runtime = run_batch(
            circuit, xs, rng=np.random.default_rng(21),
            config=RuntimeConfig(workers=0), **options,
        )
        assert runtime.words is not None
        for name in (
            "values",
            "output_bits",
            "ideal_bits",
            "select_levels",
            "received_power_mw",
        ):
            assert np.array_equal(getattr(bare, name), getattr(runtime, name))


class TestReceiverNoiseOracle:
    """Receiver-noise flips at low SNR match the Gaussian Q-function.

    A threshold receiver with additive Gaussian current noise flips the
    noiseless decision of a clock with current ``I`` with probability
    ``Q(|I - thr| / sigma)``, so the flip count over independent clocks
    is Poisson-binomial around the sum of those probabilities.
    """

    @pytest.mark.parametrize("kernel_pass", reference.PASSES)
    def test_noise_flips_match_q_function(self, kernel_pass):
        circuit = OpticalStochasticCircuit.from_design(
            mrr_first_design(order=2, wl_spacing_nm=1.0, probe_power_mw=0.05),
            BernsteinPolynomial([0.25, 0.625, 0.375]),
        )
        xs = np.linspace(0.0, 1.0, 16)
        schedule = derive_seed_schedule(16, np.random.default_rng(2019))
        options = dict(length=1 << 14, schedule=schedule)
        with reference.running(kernel_pass):
            noisy = simulate_batch(circuit, xs, **options)
            clean = simulate_batch(circuit, xs, noisy=False, **options)
        flips = np.count_nonzero(noisy.output_bits != clean.output_bits)

        receiver = pass_context(circuit).receiver
        sigma = receiver.detector.noise_current_a
        powers, clocks = np.unique(clean.received_power_mw, return_counts=True)
        currents = receiver.detector.photocurrent_a(powers)
        margins = np.abs(currents - receiver.threshold_a)
        flip_p = np.asarray(
            [0.5 * math.erfc(m / (sigma * math.sqrt(2.0))) for m in margins]
        )
        mean = float(np.sum(clocks * flip_p))
        spread = math.sqrt(float(np.sum(clocks * flip_p * (1.0 - flip_p))))
        assert mean > 1000.0  # a low-SNR corner: noise really flips bits
        assert abs(flips - mean) <= 5.0 * spread


class TestBatchEvaluationContainer:
    def test_per_row_statistics(self):
        circuit = _circuit(2)
        batch = simulate_batch(circuit, np.linspace(0, 1, 5), length=2048)
        assert isinstance(batch, BatchEvaluation)
        assert batch.batch_size == 5
        assert batch.values.shape == (5,)
        assert batch.output_bits.shape == (5, 2048)
        assert np.all(batch.absolute_errors >= 0.0)
        assert np.all((batch.transmission_ber >= 0) & (batch.transmission_ber <= 1))
        assert batch.mean_absolute_error == pytest.approx(
            float(np.mean(batch.absolute_errors))
        )

    def test_converges_to_bernstein_curve(self):
        circuit = _circuit(2)
        batch = simulate_batch(
            circuit,
            np.linspace(0, 1, 9),
            length=16384,
            rng=np.random.default_rng(8),
        )
        assert batch.mean_absolute_error < 0.02

    def test_validation(self):
        circuit = _circuit(2)
        with pytest.raises(ConfigurationError):
            simulate_batch(circuit, [])
        with pytest.raises(ConfigurationError):
            simulate_batch(circuit, [1.5])
        with pytest.raises(ConfigurationError):
            simulate_batch(circuit, [0.5], length=0)
        with pytest.raises(ConfigurationError):
            simulate_batch(circuit, [0.5], sng_kind="quantum")
        with pytest.raises(ConfigurationError):
            simulate_batch("circuit", [0.5])
        # Non-integer sizes and seeds fail typed, before any allocation.
        # A bool is an int to operator.index; it must not pass as 1.
        for bad in (
            {"length": 100.5},
            {"sng_width": 16.5},
            {"base_seed": 1.5},
            {"length": True},
            {"sng_width": True},
            {"base_seed": True},
        ):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                simulate_batch(circuit, [0.5], **bad)
        # The LFSR's own width rule fails before the seed derivation
        # divides by the register period (RuntimeWarnings are errors).
        for width in (0, 1):
            with pytest.raises(ConfigurationError, match="sng_width"):
                simulate_batch(circuit, [0.5], sng_width=width)
        with pytest.raises(ConfigurationError, match="FaultSpec"):
            simulate_batch(circuit, [0.5], fault="flip")
        # A bad rng or batch size fails typed, not as an AttributeError
        # or TypeError from inside the seed derivation.
        for evaluate in (
            lambda rng: Evaluator(circuit, EvalSpec(length=64)).evaluate(
                [0.5], rng=rng
            ),
            lambda rng: run_batch(circuit, [0.5], length=64, rng=rng),
            lambda rng: simulate_batch(circuit, [0.5], length=64, rng=rng),
            lambda rng: simulate_chunked(
                circuit, [0.5], length=64, chunk_length=32, rng=rng
            ),
        ):
            with pytest.raises(ConfigurationError, match="rng"):
                evaluate(5)
        with pytest.raises(ConfigurationError, match="must be an integer"):
            derive_seed_schedule(2.5, base_seed=1)
        with pytest.raises(ConfigurationError, match="positive"):
            derive_seed_schedule(0, base_seed=1)

    def test_nan_inputs_rejected(self):
        # NaN survives any()/< checks; the batch path must reject it
        # just like the scalar path does.
        circuit = _circuit(2)
        with pytest.raises(ConfigurationError):
            simulate_batch(circuit, [0.5, np.nan])
        with pytest.raises(ConfigurationError):
            circuit.evaluate(float("nan"))
        with pytest.raises(ConfigurationError):
            ComparatorSNG().generate_batch([np.nan], 16)
        with pytest.raises(ConfigurationError):
            CounterSNG().generate_batch([np.nan], 16)

    def test_wide_registers_take_stepping_fallback(self):
        # Widths beyond the cycle-cache limit (21-24 are in the tap
        # table) must still evaluate, bit-exact with the scalar loop.
        circuit = _circuit(2)
        xs = [0.3, 0.7]
        session = Evaluator(
            circuit,
            EvalSpec(length=64, noisy=False, base_seed=5, sng_width=22),
        )
        loop = [session.evaluate_one(x) for x in xs]
        batch = simulate_batch(
            circuit, xs, length=64, noisy=False, base_seed=5, sng_width=22
        )
        assert np.array_equal(np.asarray(loop), batch.values)


class TestLfsrValidationOrder:
    """Satellite: width is validated before the tap-table lookup."""

    def test_width_one_reports_width_error(self):
        with pytest.raises(ConfigurationError, match="width must be >= 2"):
            LFSR(width=1)

    def test_unknown_width_still_reports_missing_taps(self):
        with pytest.raises(ConfigurationError, match="no built-in maximal taps"):
            LFSR(width=40)


class TestCircuitBatchFacade:
    def test_evaluate_batch_delegates_to_engine(self):
        circuit = _circuit(2)
        a = circuit.evaluate_batch(
            [0.2, 0.8], length=256, rng=np.random.default_rng(2)
        )
        b = simulate_batch(
            circuit, [0.2, 0.8], length=256, rng=np.random.default_rng(2)
        )
        assert np.array_equal(a.output_bits, b.output_bits)
