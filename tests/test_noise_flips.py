"""Tests for the sparse receiver-noise flip sampler.

Additive Gaussian current noise flips the noiseless decision of a clock
with key *k* with probability ``p_k = Q(|I_k - thr| / sigma)``.  The
engine draws only candidate clocks, at rate ``q = max p_k``, and
accepts each with probability ``p_k / q``.  These tests hold the
sampler to three oracles: the triple-by-triple reference walk of
``tests/packed_reference.py`` (bit for bit, across tilings and shards),
the per-key binomial rates (statistically, on both passes and for the
dense per-clock draw it replaces), and the edge cases where no key can
flip.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import engine, kernels
from repro.simulation.engine import derive_seed_schedule, simulate_batch
from repro.simulation.faultmodel import FaultSpec
from repro.simulation.runtime import simulate_chunked

import packed_reference as reference


@pytest.fixture(scope="module")
def default_circuit(design_circuit):
    """The laser sized for BER 1e-6: keys sit 4.75-4.95 sigma out."""
    return design_circuit(wl_spacing_nm=1.0)


def _sorted(candidates):
    order = np.lexsort((candidates.clocks, candidates.rows))
    return tuple(part[order] for part in candidates)


def _tiled_candidates(circuit, schedule, length, chunk):
    """The sampler's candidates over ``[0, length)``, taken tile by tile."""
    sampler = engine._noise_flips(circuit, schedule, True, length)
    parts = []
    for start in range(0, length, chunk):
        taken = sampler.take(start, min(chunk, length - start))
        parts.append(taken._replace(clocks=taken.clocks + start))
    return kernels.FlipCandidates(
        *(np.concatenate([part[i] for part in parts]) for i in range(3))
    )


class TestSampler:
    def test_context_rates(self, mid_snr, default_circuit):
        for circuit in (mid_snr, default_circuit):
            flat = kernels.pass_context(circuit)._flat_tables()
            assert flat["flip_rate"] == reference.flip_rate(circuit)
            assert flat["flip_rate"] == flat["flip_p"].max()
            assert flat["flip_lambda"] == -math.log1p(-flat["flip_rate"])
        flat = kernels.pass_context(mid_snr)._flat_tables()
        assert 0.01 < flat["flip_rate"] < 0.15
        ratios = flat["flip_p"] / flat["flip_rate"]
        assert ratios.min() < 0.5 and ratios.max() == 1.0
        assert np.all(flat["flip_accept_a"][ratios == 1.0] == math.inf)
        default = kernels.pass_context(default_circuit)._flat_tables()
        assert default["flip_rate"] == pytest.approx(1e-6, rel=1e-3)
        assert default["flip_block"] == 1

    @given(
        length=st.integers(1, 700),
        chunk=st.sampled_from([1, 3, 7, 63, 64, 65, 1000]),
    )
    @settings(max_examples=25, deadline=None)
    def test_tiles_replay_the_reference_walk(self, mid_snr, length, chunk):
        schedule = derive_seed_schedule(3, base_seed=length)
        expected = reference.flip_candidates(mid_snr, schedule, length)
        tiled = _tiled_candidates(mid_snr, schedule, length, chunk)
        for got, want in zip(_sorted(tiled), expected):
            assert np.array_equal(got, want)

    def test_blocks_draw_three_normals_per_candidate(
        self, default_circuit, monkeypatch
    ):
        # At the default circuit K = 1, so a 16 x 2**14 call draws one
        # triple per row unless a row's first candidate lands inside.
        sizes = []

        class Counting:
            def __init__(self, generator):
                self._generator = generator

            def normal(self, *args):
                sizes.append(args[2])
                return self._generator.normal(*args)

        schedule = derive_seed_schedule(16, np.random.default_rng(1))
        original = engine.SeedSchedule.row_noise_rng
        monkeypatch.setattr(
            engine.SeedSchedule,
            "row_noise_rng",
            lambda self, row: Counting(original(self, row)),
        )
        sampler = engine._noise_flips(default_circuit, schedule, True, 1 << 14)
        candidates = sampler.take(0, 1 << 14)
        assert sizes[:16] == [3] * 16
        assert sum(sizes) == 3 * (16 + candidates.rows.size)

    @pytest.mark.parametrize("rate", [0.0, 1e-300, 1.6e-317])
    def test_no_candidate_and_no_warning_when_nothing_can_flip(self, rate):
        flat = {
            "flip_lambda": -math.log1p(-rate),
            "flip_block": kernels._flip_block(rate),
        }
        sizes = []

        class Counting:
            def normal(self, *args):
                sizes.append(args[2])
                return np.random.default_rng(len(sizes)).normal(*args)

        class Schedule:
            batch_size = 4

            def row_noise_rng(self, row):
                return Counting()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampler = engine._NoiseFlips(Schedule(), flat, 8.43e-6, 1 << 40)
            candidates = sampler.take(0, 1 << 20)
        assert candidates.rows.size == 0
        assert sizes == [3 * kernels._flip_block(rate)] * 4
        assert sizes[0] == (0 if rate == 0.0 else 3)

    @pytest.mark.parametrize(
        "probe_power_mw, rate_below",
        [(2.0, 1e-320), (1.66, 1e-300), (1.7, 1e-316)],
        ids=["q=0", "q~1e-302", "subnormal-q"],
    )
    def test_high_snr_runs_equal_noiseless(
        self, design_circuit, probe_power_mw, rate_below
    ):
        circuit = design_circuit(
            wl_spacing_nm=1.0, probe_power_mw=probe_power_mw
        )
        flat = kernels.pass_context(circuit)._flat_tables()
        assert flat["flip_rate"] < rate_below
        xs = np.linspace(0.0, 1.0, 4)
        options = dict(length=5000, base_seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noisy = simulate_batch(circuit, xs, **options)
            chunked = simulate_chunked(
                circuit, xs, chunk_length=777, workers=0, **options
            )
        clean = simulate_batch(circuit, xs, noisy=False, **options)
        assert np.array_equal(noisy.output_bits, clean.output_bits)
        assert np.array_equal(
            chunked.ones_count, clean.output_bits.sum(axis=1)
        )


class TestFlipStatistics:
    @pytest.mark.parametrize("kernel_pass", reference.PASSES)
    def test_per_key_flips_match_binomial(self, mid_snr, kernel_pass):
        xs = np.linspace(0.0, 1.0, 16)
        schedule = derive_seed_schedule(16, np.random.default_rng(2019))
        options = dict(length=1 << 14, schedule=schedule)
        with reference.running(kernel_pass):
            noisy = simulate_batch(mid_snr, xs, **options)
        clean = simulate_batch(mid_snr, xs, noisy=False, **options)
        flipped = noisy.output_bits != clean.output_bits
        _assert_per_key_binomial(mid_snr, clean.received_power_mw, flipped)

    def test_dense_draw_matches_the_same_rates(self, mid_snr):
        # The per-clock Gaussian draw the sampler replaced realizes the
        # same per-key rates.
        xs = np.linspace(0.0, 1.0, 16)
        clean = simulate_batch(
            mid_snr, xs, length=1 << 14, noisy=False, base_seed=5
        )
        receiver = kernels.pass_context(mid_snr).receiver
        rng = np.random.default_rng(5)
        sigma = receiver.detector.noise_current_a
        dense = reference.decide_batch(
            receiver,
            clean.received_power_mw,
            rng.normal(0.0, sigma, clean.received_power_mw.shape),
        )
        _assert_per_key_binomial(
            mid_snr, clean.received_power_mw, dense != clean.output_bits
        )

    def test_default_circuit_flips_match_poisson(self, default_circuit):
        xs = np.linspace(0.0, 1.0, 16)
        length = 1 << 20  # 2**24 clocks over the batch
        schedule = derive_seed_schedule(16, np.random.default_rng(7))
        noisy = simulate_chunked(
            default_circuit, xs, length=length, chunk_length=1 << 16,
            schedule=schedule, workers=0,
        )
        receiver = kernels.pass_context(default_circuit).receiver
        mean = 0.0
        for row in range(xs.size):
            clean = simulate_batch(
                default_circuit, xs[row : row + 1], length=length,
                noisy=False, schedule=schedule.shard(row, row + 1),
            )
            powers, counts = np.unique(
                clean.received_power_mw, return_counts=True
            )
            currents = receiver.detector.photocurrent_a(powers)
            mean += sum(
                count * reference.flip_probability(receiver, current)
                for count, current in zip(counts.tolist(), currents.tolist())
            )
        flips = int(noisy.transmission_bit_errors.sum())
        assert 5.0 < mean < 20.0
        assert abs(flips - mean) <= 5.0 * math.sqrt(mean) + 1.0


def _assert_per_key_binomial(circuit, powers, flipped):
    """Flips per distinct received power within 5 sigma of ``p_k n_k``."""
    receiver = kernels.pass_context(circuit).receiver
    values, inverse, counts = np.unique(
        powers, return_inverse=True, return_counts=True
    )
    flips = np.bincount(inverse.ravel()[flipped.ravel()], minlength=values.size)
    currents = receiver.detector.photocurrent_a(values)
    probabilities = [
        reference.flip_probability(receiver, current)
        for current in currents.tolist()
    ]
    checked = 0
    for p, n, k in zip(probabilities, counts.tolist(), flips.tolist()):
        spread = math.sqrt(n * p * (1.0 - p))
        assert abs(k - n * p) <= 5.0 * spread + 1.0
        checked += n * p > 100
    assert checked >= 5  # several well-populated keys at distinct margins


class TestTilingInvariance:
    @given(
        length=st.integers(65, 400).filter(lambda n: n % 64),
        chunk=st.sampled_from([1, 3, 7, 63, 64, 65, None]),
        kind=st.sampled_from(["lfsr", "sobol", "chaotic", "counter"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_chunked_sums_equal_one_shot(self, mid_snr, length, chunk, kind):
        xs = np.asarray([0.1, 0.5, 0.9])
        schedule = derive_seed_schedule(3, sng_kind=kind, base_seed=length)
        options = dict(length=length, sng_kind=kind, schedule=schedule)
        one_shot = simulate_batch(mid_snr, xs, **options)
        chunked = simulate_chunked(
            mid_snr, xs, chunk_length=chunk or length, workers=0, **options
        )
        assert np.array_equal(
            chunked.ones_count, one_shot.output_bits.sum(axis=1)
        )
        assert np.array_equal(
            chunked.transmission_bit_errors, one_shot.transmission_bit_errors
        )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_two_workers_equal_serial(self, mid_snr, backend):
        xs = np.linspace(0.0, 1.0, 5)
        options = dict(
            length=3000, chunk_length=1000, base_seed=41,
            power_histogram_bins=8,
        )
        serial = simulate_chunked(mid_snr, xs, workers=0, **options)
        sharded = simulate_chunked(
            mid_snr, xs, workers=2, backend=backend, **options
        )
        assert serial.transmission_bit_errors.sum() > 100
        assert np.array_equal(serial.ones_count, sharded.ones_count)
        assert np.array_equal(
            serial.transmission_bit_errors, sharded.transmission_bit_errors
        )
        assert np.array_equal(serial.power_histogram, sharded.power_histogram)


class TestParity:
    """Production against the byte-wise reference where noise really flips."""

    FAULT = FaultSpec(flip_probability=0.01, shift_clocks=3, stuck_channel=1)

    @pytest.mark.parametrize("fault", [None, FAULT], ids=["clean", "faulted"])
    @pytest.mark.parametrize("kind", ["lfsr", "sobol", "chaotic", "counter"])
    def test_one_shot_and_chunked_match_reference(self, mid_snr, kind, fault):
        xs = np.asarray([0.0, 0.3, 0.55, 1.0])
        schedule = derive_seed_schedule(4, sng_kind=kind, base_seed=17)
        options = dict(
            length=1500, sng_kind=kind, schedule=schedule, fault=fault
        )
        chunked_options = dict(
            chunk_length=200, workers=0, power_histogram_bins=8, **options
        )
        with reference.installed():
            expected = simulate_batch(mid_snr, xs, **options)
            expected_chunked = simulate_chunked(mid_snr, xs, **chunked_options)
        got = simulate_batch(mid_snr, xs, **options)
        got_chunked = simulate_chunked(mid_snr, xs, **chunked_options)
        clean = simulate_batch(mid_snr, xs, noisy=False, **options)
        assert np.count_nonzero(got.output_bits != clean.output_bits) > 50
        for field in ("output_bits", "ideal_bits", "received_power_mw"):
            assert np.array_equal(
                getattr(got, field), getattr(expected, field)
            )
        for field in ("ones_count", "transmission_bit_errors", "power_histogram"):
            assert np.array_equal(
                getattr(got_chunked, field), getattr(expected_chunked, field)
            )

    def test_per_clock_key_path_matches_word_mux(self, mid_snr, monkeypatch):
        # A detector whose noiseless decisions left the mux would take
        # the per-clock key path; forced here, it must count the same.
        xs = np.linspace(0.0, 1.0, 6)
        options = dict(
            length=1000, chunk_length=300, base_seed=8, workers=0,
            power_histogram_bins=8,
        )
        mux = simulate_chunked(mid_snr, xs, **options)
        flat = kernels.pass_context(mid_snr)._flat_tables()
        monkeypatch.setitem(flat, "decision_is_ideal", False)
        keyed = simulate_chunked(mid_snr, xs, **options)
        assert mux.transmission_bit_errors.sum() > 50
        for field in ("ones_count", "transmission_bit_errors", "power_histogram"):
            assert np.array_equal(getattr(mux, field), getattr(keyed, field))

    @given(
        data=st.data(),
        rows=st.integers(1, 4),
        words=st.integers(1, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_keys_at_reads_the_packed_keys(self, mid_snr, data, rows, words):
        context = kernels.pass_context(mid_snr)
        planes = [
            np.asarray(
                data.draw(
                    st.lists(
                        st.integers(0, (1 << 64) - 1),
                        min_size=rows * words,
                        max_size=rows * words,
                    )
                ),
                dtype=np.uint64,
            ).reshape(rows, words)
            for _ in range(context.channel_count + context.level_bits)
        ]
        length = 64 * words
        keys = kernels._packed_keys(context, planes, length)
        picks = data.draw(
            st.lists(
                st.tuples(st.integers(0, rows - 1), st.integers(0, length - 1)),
                min_size=1,
                max_size=20,
            )
        )
        row_index = np.asarray([row for row, _ in picks], dtype=np.int64)
        clock_index = np.asarray([clock for _, clock in picks], dtype=np.int64)
        assert np.array_equal(
            kernels._keys_at(planes, row_index, clock_index),
            keys[row_index, clock_index],
        )
