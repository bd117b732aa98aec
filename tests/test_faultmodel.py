"""Tests for the vectorized fault & degradation engine (faultmodel).

The contract under test: a :class:`FaultSpec` names a *scenario*, and
the realized fault bits are a pure function of (spec, seed schedule,
absolute clock index) — so fault-injected evaluations are bit-for-bit
identical across kernels, worker counts, chunk lengths and pool
backends, and trajectory faults (drift ramps, laser decay) stitch exactly across
chunk boundaries.
"""

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError
from repro.session import EvalSpec, Evaluator
from repro.simulation.engine import simulate_batch
from repro.simulation.faultmodel import (
    FAULT_PROBABILITY_BITS,
    FaultSpec,
    PackedFaultChannel,
    packed_bernoulli_words,
    _quantized_thresholds,
    _threshold_planes,
)


def _planes(probability, clocks):
    return _threshold_planes(
        _quantized_thresholds(np.full(clocks, probability))
    )
from repro.simulation.kernels import (
    pack_bits,
    popcount,
    unpack_bits,
)
from repro.simulation.montecarlo import fault_frontier
from repro.simulation.runtime import EvaluationCache, RuntimeConfig, run_batch

LENGTH = 1000


@pytest.fixture(scope="module")
def circuit():
    return repro.OpticalStochasticCircuit(
        repro.paper_section5a_parameters(),
        repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


COMPOSITE = FaultSpec(
    flip_probability=0.05,
    shift_clocks=7,
    stuck_channel=0,
    stuck_value=1,
    drift_ramp_per_mclock=0.5,
    decay_tau_clocks=100_000,
)

# Flips, a steep drift ramp, decay and a shift: every trajectory the
# fault channel carries across tile boundaries.
TRAJECTORY = FaultSpec(
    flip_probability=0.02,
    drift_ramp_per_mclock=200.0,
    decay_tau_clocks=500,
    shift_clocks=9,
)

# One spec per fault family plus a mixed one, each crossed with every
# kernel, SNG kind and receiver mode by the parity matrix below;
# ``composite-heavy`` is the heavier mix the rest of this module uses.
PARITY_SCENARIOS = {
    "flip": FaultSpec(flip_probability=0.02),
    "shift": FaultSpec(shift_clocks=7),
    "stuck": FaultSpec(stuck_channel=0, stuck_value=1),
    "drift": FaultSpec(drift_ramp_per_mclock=64.0),
    "decay": FaultSpec(decay_tau_clocks=4096),
    "composite": FaultSpec(
        flip_probability=0.01,
        shift_clocks=3,
        stuck_channel=1,
        stuck_value=0,
        drift_ramp_per_mclock=32.0,
        decay_tau_clocks=8192,
    ),
    "composite-heavy": COMPOSITE,
}


class TestFaultSpec:
    def test_null_spec_is_null(self):
        spec = FaultSpec()
        assert spec.is_null
        assert not spec.needs_seeds
        assert not spec.has_stream_faults

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(flip_probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(flip_probability=-0.1)
        with pytest.raises(ConfigurationError):
            FaultSpec(shift_clocks=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec(stuck_value=2, stuck_channel=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(decay_tau_clocks=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(drift_ramp_per_mclock=-0.5)
        # Bools are flags, not counts or rates: True is not 1 clock, 1.0
        # or channel 1.
        for field in (
            "shift_clocks",
            "decay_tau_clocks",
            "stuck_channel",
            "stuck_value",
            "flip_probability",
            "drift_ramp_per_mclock",
        ):
            for flag in (True, False, np.True_):
                with pytest.raises(ConfigurationError, match=field):
                    FaultSpec(**{field: flag})

    def test_stuck_channel_validated_against_order(self, circuit):
        # Faults are validated before anything else, so the cached path
        # rejects a non-FaultSpec as a ConfigurationError too, never as
        # an unhashable cache key.
        for config in (RuntimeConfig(), RuntimeConfig(use_cache=True)):
            for fault in (
                FaultSpec(stuck_channel=5, stuck_value=1),
                {"flip": 0.1},
            ):
                with pytest.raises(ConfigurationError):
                    run_batch(
                        circuit, [0.5], length=64, base_seed=1,
                        config=config, fault=fault,
                    )

    def test_replace_returns_new_spec(self):
        spec = FaultSpec(flip_probability=0.1)
        other = spec.replace(shift_clocks=4)
        assert other.flip_probability == 0.1
        assert other.shift_clocks == 4
        assert spec.shift_clocks == 0

    def test_hashable_value_object(self):
        assert hash(FaultSpec(flip_probability=0.1)) == hash(
            FaultSpec(flip_probability=0.1)
        )

    def test_bare_stochastic_fault_matches_run_batch(self, circuit):
        # A bare rng call derives the same seed schedule as run_batch,
        # so the stochastic fault realization needs no explicit seeds.
        fault = FaultSpec(flip_probability=0.1)
        bare = simulate_batch(
            circuit,
            [0.2, 0.5],
            length=64,
            rng=np.random.default_rng(0),
            fault=fault,
        )
        runtime = run_batch(
            circuit,
            [0.2, 0.5],
            length=64,
            rng=np.random.default_rng(0),
            fault=fault,
        )
        assert np.array_equal(bare.output_bits, runtime.output_bits)
        assert np.any(bare.output_bits != bare.ideal_bits)


class TestBernoulliMasks:
    def test_mask_rate_tracks_probability(self):
        seeds = np.arange(64, dtype=np.uint64) + np.uint64(1)
        words = 4096
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            mask = packed_bernoulli_words(seeds, 0, _planes(p, 64 * words))
            rate = popcount(mask).sum() / (seeds.size * words * 64)
            assert rate == pytest.approx(
                round(p * (1 << FAULT_PROBABILITY_BITS))
                / (1 << FAULT_PROBABILITY_BITS),
                abs=2e-3,
            )

    def test_masks_are_absolutely_addressed(self):
        seeds = np.array([123, 456], dtype=np.uint64)
        whole = packed_bernoulli_words(seeds, 0, _planes(0.3, 64 * 8))
        tail = packed_bernoulli_words(seeds, 3, _planes(0.3, 64 * 5))
        assert np.array_equal(whole[:, 3:], tail)


class TestChannelSemantics:
    def test_shift_delays_the_stream(self, circuit):
        delay = 5
        clean = run_batch(circuit, [0.3, 0.7], length=LENGTH, base_seed=11)
        shifted = run_batch(
            circuit,
            [0.3, 0.7],
            length=LENGTH,
            base_seed=11,
            fault=FaultSpec(shift_clocks=delay),
        )
        assert np.array_equal(
            shifted.output_bits[:, delay:], clean.output_bits[:, :-delay]
        )
        assert not shifted.output_bits[:, :delay].any()

    def test_decay_only_erases_ones(self, circuit):
        clean = run_batch(circuit, [0.8], length=LENGTH, base_seed=11)
        decayed = run_batch(
            circuit,
            [0.8],
            length=LENGTH,
            base_seed=11,
            fault=FaultSpec(decay_tau_clocks=200),
        )
        assert (decayed.output_bits <= clean.output_bits).all()
        assert decayed.output_bits.sum() < clean.output_bits.sum()

    def test_stuck_channel_biases_the_value(self, circuit):
        clean = run_batch(circuit, [0.5], length=4096, base_seed=11)
        stuck = run_batch(
            circuit,
            [0.5],
            length=4096,
            base_seed=11,
            fault=FaultSpec(stuck_channel=0, stuck_value=1),
        )
        assert stuck.values[0] != clean.values[0]
        # BER counts observed vs the *faulty circuit's* ideal decisions:
        # pinning a select MZI changes both sides identically.
        assert np.asarray(stuck.transmission_ber).sum() == 0.0

    def test_apply_bits_matches_apply_words(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(3, 500), dtype=np.uint8)
        spec = FaultSpec(flip_probability=0.1, shift_clocks=3)
        seeds = np.arange(3, dtype=np.int64) + 40
        via_words = unpack_bits(
            PackedFaultChannel(spec, seeds, 500).apply_words(
                pack_bits(bits), 0, 500
            ),
            500,
        )
        via_bits = PackedFaultChannel(spec, seeds, 500).apply_bits(bits, 0)
        assert np.array_equal(via_words, via_bits)

    def test_channel_requires_sequential_offsets(self):
        spec = FaultSpec(shift_clocks=2)
        channel = PackedFaultChannel(spec, np.zeros(1, dtype=np.int64), 256)
        channel.apply_words(np.zeros((1, 2), dtype=np.uint64), 0, 128)
        with pytest.raises(ConfigurationError):
            channel.apply_words(np.zeros((1, 2), dtype=np.uint64), 0, 128)


class TestParityMatrix:
    @pytest.mark.parametrize("kernel", ["packed"])
    @pytest.mark.parametrize("sng_kind", ["lfsr", "counter", "sobol", "chaotic"])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize(
        "scenario", list(PARITY_SCENARIOS.values()), ids=list(PARITY_SCENARIOS)
    )
    def test_kernels_bit_identical_under_faults(
        self, circuit, kernel, sng_kind, noisy, scenario
    ):
        xs = np.linspace(0.0, 1.0, 4)
        reference = run_batch(
            circuit,
            xs,
            length=LENGTH,
            noisy=noisy,
            sng_kind=sng_kind,
            base_seed=9,
            fault=scenario,
        )
        other = run_batch(
            circuit,
            xs,
            length=LENGTH,
            noisy=noisy,
            sng_kind=sng_kind,
            base_seed=9,
            config=RuntimeConfig(kernel=kernel),
            fault=scenario,
        )
        assert np.array_equal(reference.values, other.values)
        assert np.array_equal(reference.output_bits, other.output_bits)
        assert np.array_equal(
            reference.transmission_bit_errors,
            other.transmission_bit_errors,
        )

    @pytest.mark.parametrize("kernel", ["numpy", "packed"])
    def test_clean_run_unchanged_by_null_channel(self, circuit, kernel):
        xs = [0.25, 0.75]
        clean = run_batch(
            circuit,
            xs,
            length=LENGTH,
            base_seed=9,
            config=RuntimeConfig(kernel=kernel),
        )
        nulled = run_batch(
            circuit,
            xs,
            length=LENGTH,
            base_seed=9,
            config=RuntimeConfig(kernel=kernel),
            fault=None,
        )
        assert np.array_equal(clean.output_bits, nulled.output_bits)


class TestRelocatability:
    @pytest.mark.parametrize("chunk_length", [64, 100, 333, 999])
    @pytest.mark.parametrize("kernel", ["numpy", "packed"])
    @pytest.mark.parametrize("noisy", [True, False])
    def test_trajectory_faults_stitch_across_chunks(
        self, circuit, chunk_length, kernel, noisy
    ):
        """Drift at absolute clock k must not depend on the tiling.

        ``noisy=False`` with the packed kernel is the word-level mux
        tile under a fault channel — the ``stream-fault`` path.
        """
        xs = np.linspace(0.1, 0.9, 3)
        one_shot = run_batch(
            circuit, xs, length=LENGTH, noisy=noisy, base_seed=21,
            fault=TRAJECTORY,
        )
        chunked = run_batch(
            circuit,
            xs,
            length=LENGTH,
            noisy=noisy,
            base_seed=21,
            config=RuntimeConfig(
                kernel=kernel, chunk_length=chunk_length, workers=0
            ),
            fault=TRAJECTORY,
        )
        assert np.array_equal(
            chunked.ones_count, one_shot.output_bits.sum(axis=1)
        )
        assert np.array_equal(
            chunked.transmission_bit_errors,
            one_shot.transmission_bit_errors,
        )

    @pytest.mark.parametrize(
        "config",
        [
            RuntimeConfig(workers=2, backend="thread"),
            RuntimeConfig(workers=2, backend="process"),
            RuntimeConfig(workers=3, backend="process"),
            RuntimeConfig(workers=2, backend="process", kernel="packed"),
        ],
    )
    def test_workers_and_kernels_change_no_bit(self, circuit, config):
        xs = np.linspace(0.0, 1.0, 5)
        serial = run_batch(
            circuit,
            xs,
            length=LENGTH,
            noisy=True,
            base_seed=13,
            config=RuntimeConfig(workers=0),
            fault=COMPOSITE,
        )
        sharded = run_batch(
            circuit,
            xs,
            length=LENGTH,
            noisy=True,
            base_seed=13,
            config=config,
            fault=COMPOSITE,
        )
        assert np.array_equal(serial.values, sharded.values)
        assert np.array_equal(
            serial.output_bits.sum(axis=1), sharded.ones_count
        )
        assert np.array_equal(
            serial.transmission_bit_errors, sharded.transmission_bit_errors
        )

    def test_cache_keyed_on_fault(self, circuit):
        cache = EvaluationCache(max_entries=8)
        config = RuntimeConfig(use_cache=True, cache=cache)
        fault = FaultSpec(flip_probability=0.05)
        faulty = run_batch(
            circuit, [0.5], length=LENGTH, base_seed=3, config=config,
            fault=fault,
        )
        clean = run_batch(
            circuit, [0.5], length=LENGTH, base_seed=3, config=config
        )
        again = run_batch(
            circuit, [0.5], length=LENGTH, base_seed=3, config=config,
            fault=FaultSpec(flip_probability=0.05),
        )
        assert not np.array_equal(faulty.output_bits, clean.output_bits)
        assert again is faulty


class TestSessionAxis:
    def test_evalspec_validates_fault(self, circuit):
        with pytest.raises(ConfigurationError):
            EvalSpec(fault="flip")  # not a FaultSpec

    def test_with_fault_derives_and_clears(self, circuit):
        session = Evaluator(
            circuit, EvalSpec(length=LENGTH, base_seed=5)
        )
        fault = FaultSpec(flip_probability=0.1)
        faulty = session.with_fault(fault)
        assert faulty.spec.fault == fault
        assert faulty.with_fault(None).spec.fault is None
        clean = np.asarray(session.evaluate([0.5]).output_bits)
        hit = np.asarray(faulty.evaluate([0.5]).output_bits)
        assert not np.array_equal(clean, hit)

    def test_seeded_fault_breaks_row_independence(self, circuit):
        spec = EvalSpec(
            length=LENGTH, base_seed=5, sng_kind="counter", noisy=False
        )
        assert Evaluator(circuit, spec).row_independent
        seeded = spec.replace(fault=FaultSpec(flip_probability=0.1))
        assert not Evaluator(circuit, seeded).row_independent
        # A deterministic shift needs no per-row seeds: still coalescable.
        shifted = spec.replace(fault=FaultSpec(shift_clocks=3))
        assert Evaluator(circuit, shifted).row_independent

    def test_stream_matches_evaluate(self, circuit):
        session = Evaluator(
            circuit, EvalSpec(length=LENGTH, base_seed=5)
        ).with_fault(FaultSpec(drift_ramp_per_mclock=100.0))
        one_shot = session.evaluate([0.4, 0.6])
        streamed = session.stream([0.4, 0.6], chunk_length=128)
        assert np.array_equal(
            np.asarray(streamed.values), np.asarray(one_shot.values)
        )


class TestFaultFrontier:
    def test_flip_sweep_degrades_monotonically(self, circuit):
        frontier = fault_frontier(
            circuit,
            [0.0, 0.01, 0.1, 0.4],
            xs=[0.25, 0.5],
            spec=EvalSpec(length=4096, base_seed=17),
        )
        ber = frontier["mean_link_ber"]
        assert ber[0] == 0.0
        assert (np.diff(ber) > 0).all()
        assert frontier["mean_abs_error"][-1] > frontier["mean_abs_error"][0]

    def test_accepts_spec_points_and_requires_seed(self, circuit):
        frontier = fault_frontier(
            circuit,
            [FaultSpec(shift_clocks=64), 0.0],
            xs=[0.5],
            spec=EvalSpec(length=2048, base_seed=17),
        )
        assert frontier["shift_clocks"][0] == 64
        assert frontier["mean_link_ber"][1] == 0.0
        with pytest.raises(ConfigurationError):
            fault_frontier(
                circuit, [0.1], spec=EvalSpec(length=256, base_seed=None)
            )

    def test_registered_experiment_runs(self):
        result = repro.run_experiment(
            "fault_frontier",
            spec=EvalSpec(length=512, base_seed=17),
        )
        assert result.experiment_id == "fault_frontier"
        scenarios = [row["scenario"] for row in result.rows]
        assert any("stuck" in name for name in scenarios)
        assert all(np.isfinite(row["mean_abs_error"]) for row in result.rows)
