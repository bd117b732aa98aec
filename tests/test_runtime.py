"""Tests for the scaling runtime: sharding, chunking, caching — and the
scalar/batch parity regressions fixed alongside it.

The runtime's contract mirrors the engine's: every scaling strategy is a
pure wall-clock/memory optimization.  Sharded evaluation must reassemble
bit-for-bit what the serial pass produces under the same seed schedule;
chunked streaming must accumulate exactly the one-shot statistics; a
cache hit must return the stored result without recomputing.
"""

import functools
import pickle
import threading

import numpy as np
import pytest

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.params import paper_section5a_parameters
from repro.errors import ConfigurationError
from repro.exploration.sweep import grid_sweep
from repro.exploration.tradeoffs import throughput_accuracy_frontier
from repro.session import EvalSpec, Evaluator
from repro.simulation.engine import (
    BatchEvaluation,
    SeedSchedule,
    derive_seed_schedule,
    simulate_batch,
)
from repro.simulation.montecarlo import run_monte_carlo
from repro.simulation.faultmodel import FaultSpec
from repro.simulation.runtime import (
    EvaluationCache,
    RuntimeConfig,
    default_worker_count,
    parallel_map,
    resolve_pool,
    run_batch,
    simulate_chunked,
)
from repro.stochastic.bernstein import BernsteinPolynomial
from repro.stochastic.bitstream import exact_bit_matrix, exact_bit_window
from repro.stochastic.lfsr import lfsr_uniform_windows
from repro.stochastic.sng import SNG_KINDS, SobolLikeSNG, chaotic_orbit

import packed_reference as reference

ALL_KINDS = list(SNG_KINDS)


@pytest.fixture(scope="module")
def circuit():
    return OpticalStochasticCircuit(
        paper_section5a_parameters(),
        BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


def cached_simulate_batch(circuit, xs, cache=None, **kwargs):
    """A memoized evaluation through run_batch's cache branch."""
    config = RuntimeConfig(use_cache=True, cache=cache)
    return run_batch(circuit, xs, config=config, **kwargs)


def _assert_statistics_match(serial, statistics, histogram_bins=0):
    """Sharded statistics equal the serial one-shot's per-clock reductions."""
    assert statistics.words is None
    assert np.array_equal(serial.xs, statistics.xs)
    assert np.array_equal(serial.expected, statistics.expected)
    assert np.array_equal(serial.values, statistics.values)
    assert serial.stream_length == statistics.stream_length
    assert np.array_equal(
        serial.output_bits.sum(axis=1), statistics.ones_count
    )
    assert np.array_equal(
        serial.transmission_bit_errors, statistics.transmission_bit_errors
    )
    if histogram_bins:
        histogram, _ = np.histogram(
            serial.received_power_mw, bins=statistics.power_bin_edges
        )
        assert np.array_equal(histogram, statistics.power_histogram)


def _assert_batches_identical(a, b):
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.expected, b.expected)
    assert a.stream_length == b.stream_length
    assert np.array_equal(a.received_power_mw, b.received_power_mw)
    assert np.array_equal(a.output_bits, b.output_bits)
    assert np.array_equal(a.ideal_bits, b.ideal_bits)
    assert np.array_equal(a.select_levels, b.select_levels)


COMPOSITE_FAULT = FaultSpec(
    flip_probability=0.05,
    shift_clocks=7,
    stuck_channel=0,
    stuck_value=1,
    drift_ramp_per_mclock=0.5,
    decay_tau_clocks=100_000,
)

PARITY_XS = np.linspace(0.1, 0.9, 5)
PARITY_LENGTH = 300  # not a multiple of 64: exercises the packed tail word


@functools.lru_cache(maxsize=None)
def _serial_reference(circuit, kind, noisy, fault, kernel_pass):
    """The serial one-shot pass the sharded parity matrix reduces.

    *kernel_pass* names the optical pass it runs on: the test reference
    or production (``packed_reference.PASSES``).
    """
    schedule = derive_seed_schedule(
        PARITY_XS.size, sng_kind=kind, base_seed=11
    )
    with reference.running(kernel_pass):
        serial = simulate_batch(
            circuit, PARITY_XS, length=PARITY_LENGTH, noisy=noisy,
            sng_kind=kind, schedule=schedule, fault=fault,
        )
    return schedule, serial


class TestShardedEquivalence:
    """(a) sharded statistics == serial reductions, bit for bit."""

    @pytest.mark.parametrize("backend", ["process", "thread"])
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "chunk_length", [PARITY_LENGTH, 96], ids=["one-tile", "tiled"]
    )
    @pytest.mark.parametrize(
        "fault", [None, COMPOSITE_FAULT], ids=["clean", "faulted"]
    )
    # The mid-SNR circuit is the noisy case where receiver noise flips
    # a few percent of decisions (about 1e-111 on the Section V-A one).
    @pytest.mark.parametrize(
        "noisy, design",
        [(False, "circuit"), (True, "circuit"), (True, "mid_snr")],
        ids=["noiseless", "noisy", "noisy-mid-snr"],
    )
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("kernel_pass", reference.PASSES)
    def test_statistics_match_serial_reductions(
        self, request, kernel_pass, kind, noisy, design, fault, chunk_length,
        workers, backend,
    ):
        circuit = request.getfixturevalue(design)
        schedule, serial = _serial_reference(
            circuit, kind, noisy, fault, kernel_pass
        )
        if design == "mid_snr":
            _, clean = _serial_reference(
                circuit, kind, False, fault, kernel_pass
            )
            assert np.count_nonzero(serial.output_bits != clean.output_bits) > 0
        sharded = simulate_chunked(
            circuit,
            PARITY_XS,
            length=PARITY_LENGTH,
            chunk_length=chunk_length,
            noisy=noisy,
            sng_kind=kind,
            schedule=schedule,
            power_histogram_bins=8,
            workers=workers,
            backend=backend,
            fault=fault,
        )
        assert sharded.chunk_count == -(-PARITY_LENGTH // chunk_length)
        _assert_statistics_match(serial, sharded, histogram_bins=8)

    def test_shard_result_size_is_independent_of_length(self, circuit):
        # A worker pipes back O(rows) accumulators.  Only the pickle
        # width of the two length integers may differ between lengths
        # (2 bytes each once a length passes 2**16 - 1).
        xs = np.linspace(0.1, 0.9, 4)
        schedule = derive_seed_schedule(xs.size, base_seed=3)
        sizes = []
        for length in (1 << 10, 1 << 16):
            result = simulate_chunked(
                circuit, xs, length=length, chunk_length=length,
                noisy=False, schedule=schedule, workers=0, kernel="packed",
            )
            sizes.append(len(pickle.dumps(result)))
        assert abs(sizes[1] - sizes[0]) <= 4
        assert sizes[0] < 2048

    def test_rng_protocol_matches_serial_schedule_run(self, circuit):
        # Deriving the schedule inside the sharded call consumes the rng
        # exactly like derive_seed_schedule would.
        xs = [0.2, 0.5, 0.8]
        sharded = Evaluator(
            circuit, EvalSpec(length=128), RuntimeConfig(workers=2)
        ).evaluate(xs, rng=np.random.default_rng(11))
        schedule = derive_seed_schedule(3, np.random.default_rng(11))
        serial = simulate_batch(circuit, xs, length=128, schedule=schedule)
        _assert_statistics_match(serial, sharded)

    def test_worker_count_does_not_change_bits(self, circuit):
        xs = np.linspace(0.0, 1.0, 6)
        schedule = derive_seed_schedule(xs.size, np.random.default_rng(4))
        serial = simulate_batch(circuit, xs, length=128, schedule=schedule)
        for workers in (0, 2, 3):
            _assert_statistics_match(
                serial,
                simulate_chunked(
                    circuit, xs, length=128, chunk_length=128,
                    schedule=schedule, workers=workers,
                ),
            )

    def test_schedule_size_mismatch_rejected(self, circuit):
        schedule = derive_seed_schedule(2, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            simulate_chunked(
                circuit, [0.1, 0.2, 0.3], schedule=schedule, workers=2
            )

    def test_unknown_backend_rejected(self, circuit):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(workers=2, backend="gpu")


class TestChunkedEquivalence:
    """(b) chunked accumulators == one-shot statistics."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_accumulators_match_one_shot(self, circuit, kind):
        xs = np.linspace(0.0, 1.0, 5)
        length = 700  # not a multiple of the chunk: exercises the tail tile
        schedule = derive_seed_schedule(
            xs.size, np.random.default_rng(21), sng_kind=kind
        )
        one_shot = simulate_batch(
            circuit, xs, length=length, sng_kind=kind, schedule=schedule
        )
        chunked = simulate_chunked(
            circuit,
            xs,
            length=length,
            chunk_length=128,
            sng_kind=kind,
            schedule=schedule,
            power_histogram_bins=16,
        )
        assert chunked.words is None
        assert chunked.chunk_count == 6
        assert np.array_equal(
            chunked.ones_count, one_shot.output_bits.sum(axis=1)
        )
        assert np.array_equal(
            chunked.transmission_bit_errors, one_shot.transmission_bit_errors
        )
        assert np.array_equal(chunked.values, one_shot.values)
        assert np.array_equal(chunked.expected, one_shot.expected)
        assert chunked.mean_absolute_error == one_shot.mean_absolute_error
        # Histogram covers every received-power sample of the batch.
        assert int(chunked.power_histogram.sum()) == xs.size * length

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_noiseless_accumulators_match(self, circuit, kind):
        xs = [0.3, 0.6]
        schedule = derive_seed_schedule(
            2, np.random.default_rng(5), sng_kind=kind
        )
        one_shot = simulate_batch(
            circuit, xs, length=512, noisy=False, sng_kind=kind,
            schedule=schedule,
        )
        chunked = simulate_chunked(
            circuit, xs, length=512, chunk_length=100, noisy=False,
            sng_kind=kind, schedule=schedule,
        )
        assert np.array_equal(
            chunked.ones_count, one_shot.output_bits.sum(axis=1)
        )
        assert np.array_equal(
            chunked.transmission_bit_errors, one_shot.transmission_bit_errors
        )

    def test_chunk_size_does_not_change_statistics(self, circuit):
        xs = [0.25, 0.75]
        schedule = derive_seed_schedule(2, np.random.default_rng(8))
        runs = [
            simulate_chunked(
                circuit, xs, length=600, chunk_length=c, schedule=schedule
            )
            for c in (64, 150, 600, 4096)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].ones_count, other.ones_count)
            assert np.array_equal(
                runs[0].transmission_bit_errors,
                other.transmission_bit_errors,
            )

    def test_wide_lfsr_chunking_carries_register_state(self, circuit):
        # Widths beyond the cycle-cache limit take the stepping path;
        # the cursor must carry live registers (not replay `offset`
        # states per tile) and still match the one-shot pass exactly.
        xs = [0.3, 0.7]
        schedule = derive_seed_schedule(2, np.random.default_rng(17))
        one_shot = simulate_batch(
            circuit, xs, length=192, sng_width=22, schedule=schedule
        )
        chunked = simulate_chunked(
            circuit, xs, length=192, chunk_length=64, sng_width=22,
            schedule=schedule,
        )
        assert np.array_equal(
            chunked.ones_count, one_shot.output_bits.sum(axis=1)
        )
        assert np.array_equal(
            chunked.transmission_bit_errors, one_shot.transmission_bit_errors
        )

    @pytest.mark.parametrize("kind", ["lfsr", "chaotic"])
    def test_sharded_chunking_matches_serial_chunking(self, circuit, kind):
        # workers compose with chunking: row shards stream on the pool
        # and the reassembled accumulators are identical.
        xs = np.linspace(0.0, 1.0, 5)
        schedule = derive_seed_schedule(
            xs.size, np.random.default_rng(13), sng_kind=kind
        )
        serial = simulate_chunked(
            circuit, xs, length=600, chunk_length=128, sng_kind=kind,
            schedule=schedule, power_histogram_bins=8,
        )
        sharded = simulate_chunked(
            circuit, xs, length=600, chunk_length=128, sng_kind=kind,
            schedule=schedule, power_histogram_bins=8, workers=2,
        )
        assert np.array_equal(serial.ones_count, sharded.ones_count)
        assert np.array_equal(
            serial.transmission_bit_errors, sharded.transmission_bit_errors
        )
        assert np.array_equal(serial.power_histogram, sharded.power_histogram)
        assert np.array_equal(serial.power_bin_edges, sharded.power_bin_edges)
        assert serial.chunk_count == sharded.chunk_count

    def test_validation(self, circuit):
        with pytest.raises(ConfigurationError):
            simulate_chunked(circuit, [0.5], length=128, chunk_length=0)
        with pytest.raises(ConfigurationError):
            simulate_chunked(
                circuit, [0.5], length=128, chunk_length=32,
                power_histogram_bins=-1,
            )
        # Non-integer sizes fail typed, before any allocation.
        for bad in (
            {"length": 100.5},
            {"chunk_length": 64.5},
            {"power_histogram_bins": 2.5},
            {"workers": 1.5},
            {"chunk_length": True},
            {"power_histogram_bins": True},
            {"workers": True},
        ):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                simulate_chunked(
                    circuit, [0.5], **{"length": 128, "chunk_length": 32, **bad}
                )
        for bad in ({"length": 100.5}, {"length": True}, {"base_seed": True}):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                run_batch(circuit, [0.5], **bad)
        # The runtime knobs are not truncated either: workers=2.7 used to
        # run 2 workers, chunk_length=2.5 to fail only at the first
        # evaluation, max_entries=2.5 to keep 2 entries.
        for bad in (
            {"workers": 2.7},
            {"workers": True},
            {"workers": "2"},
            {"chunk_length": 2.5},
            {"chunk_length": True},
            {"chunk_length": "64"},
        ):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                RuntimeConfig(**bad)
        for bad_entries in (2.5, True, "2"):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                EvaluationCache(max_entries=bad_entries)
        config = RuntimeConfig(workers=np.int64(2), chunk_length=np.int32(64))
        assert config.workers == 2 and isinstance(config.workers, int)
        assert config.chunk_length == 64 and isinstance(config.chunk_length, int)
        assert EvaluationCache(max_entries=np.int64(3)).max_entries == 3
        # Negative workers raise like RuntimeConfig(workers=-1) does.
        with pytest.raises(ConfigurationError, match="workers"):
            simulate_chunked(circuit, [0.5, 0.6], length=128, workers=-1)
        # The LFSR width rule fails before the seed derivation divides
        # by the register period (RuntimeWarnings are errors).
        with pytest.raises(ConfigurationError, match="sng_width"):
            run_batch(circuit, [0.5], length=128, sng_width=0)


class TestResumableSources:
    """The per-kind resume hooks behind the chunked runtime."""

    def test_lfsr_offset_windows_are_stream_slices(self):
        seeds = np.asarray([[1, 33], [200, 999]])
        full = lfsr_uniform_windows(seeds, 96, 12)
        resumed = lfsr_uniform_windows(seeds, 32, 12, offset=64)
        assert np.array_equal(full[..., 64:], resumed)

    def test_lfsr_offset_wide_register_fallback(self):
        full = lfsr_uniform_windows([5], 40, 22)
        resumed = lfsr_uniform_windows([5], 15, 22, offset=25)
        assert np.array_equal(full[..., 25:], resumed)

    def test_lfsr_negative_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            lfsr_uniform_windows([1], 8, 8, offset=-1)

    def test_chaotic_orbit_state_carry_resumes_exactly(self):
        intensities = np.asarray([0.2, 0.41])
        full = chaotic_orbit(intensities, 64, 50)
        head, state = chaotic_orbit(intensities, 64, 30, return_state=True)
        tail = chaotic_orbit(state, 0, 20)
        assert np.array_equal(full[..., :30], head)
        assert np.array_equal(full[..., 30:], tail)

    def test_exact_bit_window_matches_matrix_columns(self):
        values = np.asarray([0.0, 0.124, 0.5, 1.0])
        matrix = exact_bit_matrix(values, 97)
        for start, stop in ((0, 97), (0, 13), (13, 55), (96, 97)):
            window = exact_bit_window(values, 97, start, stop)
            assert np.array_equal(matrix[:, start:stop], window)

    def test_exact_bit_window_validation(self):
        with pytest.raises(ConfigurationError):
            exact_bit_window([0.5], 16, 4, 4)
        with pytest.raises(ConfigurationError):
            exact_bit_window([0.5], 16, 0, 17)


class TestEvaluationCache:
    """(c) cache hits return identical results and skip recomputation."""

    def test_hit_returns_stored_result(self, circuit):
        cache = EvaluationCache()
        first = cached_simulate_batch(
            circuit, [0.2, 0.8], length=128, base_seed=41, cache=cache
        )
        second = cached_simulate_batch(
            circuit, [0.2, 0.8], length=128, base_seed=41, cache=cache
        )
        assert second is first  # no recomputation: the stored object
        assert cache.misses == 1
        assert cache.hits == 1
        assert len(cache) == 1

    def test_noisy_cached_runs_are_deterministic(self, circuit):
        # The receiver-noise seeds derive from base_seed, so two caches
        # produce identical noisy results for the same key.
        a = cached_simulate_batch(
            circuit, [0.4], length=256, base_seed=7, cache=EvaluationCache()
        )
        b = cached_simulate_batch(
            circuit, [0.4], length=256, base_seed=7, cache=EvaluationCache()
        )
        assert np.array_equal(a.output_bits, b.output_bits)

    def test_key_separates_configurations(self, circuit):
        cache = EvaluationCache()
        cached_simulate_batch(
            circuit, [0.5], length=128, base_seed=1, cache=cache
        )
        cached_simulate_batch(
            circuit, [0.5], length=128, base_seed=2, cache=cache
        )
        cached_simulate_batch(
            circuit, [0.5], length=128, base_seed=1, sng_kind="sobol",
            cache=cache,
        )
        cached_simulate_batch(
            circuit, [0.5], length=256, base_seed=1, cache=cache
        )
        cached_simulate_batch(
            circuit, [0.25], length=128, base_seed=1, cache=cache
        )
        # A sharded run returns the statistics result: its own entry.
        run_batch(
            circuit, [0.5], length=128, base_seed=1,
            config=RuntimeConfig(cache=cache, workers=2, backend="thread"),
        )
        assert cache.misses == 6
        assert cache.hits == 0

    def test_lru_eviction(self, circuit):
        cache = EvaluationCache(max_entries=2)
        for seed in (1, 2, 3):
            cached_simulate_batch(
                circuit, [0.5], length=64, base_seed=seed, cache=cache
            )
        assert len(cache) == 2
        cached_simulate_batch(  # seed 1 was evicted: a miss again
            circuit, [0.5], length=64, base_seed=1, cache=cache
        )
        assert cache.misses == 4

    def test_requires_fixed_base_seed(self, circuit):
        with pytest.raises(ConfigurationError):
            cached_simulate_batch(circuit, [0.5], base_seed=None)

    def test_stored_arrays_are_immutable(self, circuit):
        # A hit returns the stored object by identity; an in-place
        # mutation by one caller must not corrupt later hits.
        cache = EvaluationCache()
        first = cached_simulate_batch(
            circuit, [0.5], length=64, base_seed=3, cache=cache
        )
        value = float(first.values[0])
        with pytest.raises(ValueError):
            first.ones_count[0] += 1
        with pytest.raises(ValueError):
            first.output_bits[0, 0] ^= 1
        # values is computed from the frozen counts on every read, so a
        # caller's edit of its copy never reaches the stored entry.
        first.values[0] = 123.0
        hit = cached_simulate_batch(
            circuit, [0.5], length=64, base_seed=3, cache=cache
        )
        assert hit is first and hit.values[0] == value
        # A sharded run caches its counts-only result, frozen the same way.
        sharded = run_batch(
            circuit, [0.5, 0.25], length=64, base_seed=3,
            config=RuntimeConfig(cache=cache, workers=2, backend="thread"),
        )
        assert sharded.words is None
        with pytest.raises(ValueError):
            sharded.ones_count[0] += 1

    def test_hit_words_are_read_only(self, circuit):
        # The counts and the per-clock fields of a hit come from the
        # same stored words: a writable word would let one caller's
        # edit change the bits every later hit decodes while its counts
        # stay put.
        cache = EvaluationCache()
        first = cached_simulate_batch(
            circuit, [0.5, 0.25], length=256, base_seed=3, noisy=False,
            cache=cache,
        )
        words = first.words
        for array in (*words.planes, words.ideal, words.observed):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            words.observed[...] = 0
        hit = cached_simulate_batch(
            circuit, [0.5, 0.25], length=256, base_seed=3, noisy=False,
            cache=cache,
        )
        assert hit is first and cache.hits == 1
        assert np.array_equal(hit.output_bits.sum(axis=1), hit.ones_count)

    def test_callers_input_array_stays_writable(self, circuit):
        # Freezing the stored entry must not freeze the caller's own
        # input buffer (np.asarray can return it by identity).
        xs = np.linspace(0.0, 1.0, 4)
        cached_simulate_batch(
            circuit, xs, length=64, base_seed=2, cache=EvaluationCache()
        )
        xs[0] = 0.5  # must not raise

    def test_matches_schedule_seeded_engine_run(self, circuit):
        cached = cached_simulate_batch(
            circuit, [0.3, 0.7], length=128, base_seed=9,
            cache=EvaluationCache(),
        )
        schedule = derive_seed_schedule(2, base_seed=9)
        direct = simulate_batch(
            circuit, [0.3, 0.7], length=128, schedule=schedule
        )
        _assert_batches_identical(cached, direct)

    def test_concurrent_access_keeps_cache_consistent(self, circuit):
        # backend="thread" shards and the serving executor share the
        # process-wide cache, so get/clear race in practice.  Under the
        # internal lock every get bumps exactly one counter and
        # eviction keeps the LRU within bounds.
        cache = EvaluationCache(max_entries=8)
        entry = cached_simulate_batch(
            circuit, [0.5], length=64, base_seed=3, cache=cache
        )
        cache.clear()
        workers, rounds = 4, 200
        errors = []
        barrier = threading.Barrier(workers)

        def hammer(worker):
            barrier.wait()
            try:
                for index in range(rounds):
                    key = ("corner", worker % 2, index % 12)
                    assert cache.get(key, lambda: entry) is entry
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Exactly one counter bump per get, none lost to races.
        assert cache.hits + cache.misses == workers * rounds
        assert len(cache) <= 8
        # The cache still serves the stored object afterwards.
        assert cache.get(("corner", 0, 0), lambda: None) in (None, entry)


PER_CLOCK_FIELDS = (
    "received_power_mw",
    "output_bits",
    "ideal_bits",
    "select_levels",
)


class TestOneResultType:
    """Every strategy returns a BatchEvaluation; only one-shot keeps words."""

    @pytest.mark.parametrize(
        "config",
        [
            RuntimeConfig(workers=2, backend="thread"),
            RuntimeConfig(chunk_length=100),
        ],
        ids=["sharded", "tiled"],
    )
    @pytest.mark.parametrize("name", PER_CLOCK_FIELDS)
    def test_per_clock_fields_need_kept_words(self, circuit, config, name):
        result = run_batch(
            circuit, [0.2, 0.7], length=256, base_seed=4, config=config
        )
        assert result.words is None
        with pytest.raises(ConfigurationError, match="per-clock"):
            getattr(result, name)
        # The counts every result keeps still read.
        assert result.values.shape == (2,)

    @pytest.mark.parametrize("name", PER_CLOCK_FIELDS)
    def test_decoded_fields_are_cached_and_read_only(self, circuit, name):
        cache = EvaluationCache()
        config = RuntimeConfig(cache=cache)
        first = run_batch(circuit, [0.4], length=130, base_seed=6, config=config)
        decoded = getattr(first, name)
        assert decoded.shape == (1, 130)
        assert not decoded.flags.writeable
        assert getattr(first, name) is decoded
        hit = run_batch(circuit, [0.4], length=130, base_seed=6, config=config)
        assert hit is first and cache.hits == 1
        assert not getattr(hit, name).flags.writeable

    def test_counts_match_the_decoded_bits(self, circuit):
        result = simulate_batch(
            circuit, np.linspace(0, 1, 3), length=200,
            rng=np.random.default_rng(12),
            fault=FaultSpec(flip_probability=0.1, shift_clocks=3),
        )
        assert result.chunk_length == 200 and result.chunk_count == 1
        assert np.array_equal(
            result.ones_count, result.output_bits.sum(axis=1)
        )
        assert np.array_equal(
            result.transmission_bit_errors,
            np.sum(result.output_bits != result.ideal_bits, axis=1),
        )
        assert np.array_equal(result.values, result.output_bits.mean(axis=1))


class TestRunBatchDispatcher:
    def test_strategies_agree_bit_for_bit(self, circuit):
        xs = np.linspace(0.0, 1.0, 6)
        serial = run_batch(circuit, xs, length=256, rng=np.random.default_rng(2))
        sharded = run_batch(
            circuit, xs, length=256, rng=np.random.default_rng(2),
            config=RuntimeConfig(workers=2),
        )
        chunked = run_batch(
            circuit, xs, length=256, rng=np.random.default_rng(2),
            config=RuntimeConfig(chunk_length=100),
        )
        # In-process single tile: the result keeps its words and
        # decodes per-clock fields; sharded or multi-tile: counts only,
        # equal to the per-clock reductions.
        assert serial.words is not None
        _assert_statistics_match(serial, sharded)
        _assert_statistics_match(serial, chunked)

    def test_cache_dispatch(self, circuit):
        cache = EvaluationCache()
        config = RuntimeConfig(cache=cache)
        a = run_batch(circuit, [0.5], length=64, base_seed=5, config=config)
        b = run_batch(circuit, [0.5], length=64, base_seed=5, config=config)
        assert b is a
        assert cache.hits == 1

    def test_chunking_wins_over_cache_for_long_streams(self, circuit):
        # A stream long enough to chunk must never be materialized
        # one-shot (and pinned) by the cache branch.
        cache = EvaluationCache()
        config = RuntimeConfig(cache=cache, chunk_length=64)
        result = run_batch(
            circuit, [0.5], length=256, base_seed=5, config=config
        )
        assert result.words is None
        assert len(cache) == 0 and cache.misses == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(backend="quantum")
        with pytest.raises(ConfigurationError):
            RuntimeConfig(chunk_length=0)

    def test_cache_without_base_seed_raises(self, circuit):
        # Silently recomputing while the caller believes memoization is
        # on would defeat the config.
        with pytest.raises(ConfigurationError, match="base_seed"):
            run_batch(
                circuit, [0.5], length=64, config=RuntimeConfig(use_cache=True)
            )

    def test_chunked_validates_backend_eagerly(self, circuit):
        # A backend typo must fail at the call site, not only once
        # workers>1 turns the pool on.
        with pytest.raises(ConfigurationError):
            simulate_chunked(
                circuit, [0.5], length=128, chunk_length=32, backend="treads"
            )

    def test_default_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", "3")
        assert default_worker_count() == 3
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", "auto")
        assert default_worker_count() >= 1
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", "not-a-number")
        assert default_worker_count() == 0
        monkeypatch.delenv("REPRO_RUNTIME_WORKERS")
        assert default_worker_count() == 0


class TestWorkersEnvParsing:
    """A stray REPRO_RUNTIME_WORKERS value must never break anything."""

    @pytest.mark.parametrize(
        "raw", ["abc", "", "   ", "2.5", "1e3", "None", "-"]
    )
    def test_unparsable_values_mean_serial(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", raw)
        assert default_worker_count() == 0

    @pytest.mark.parametrize("raw", ["0", "-1", "-3", " -7 "])
    def test_zero_and_negative_clamp_to_serial(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", raw)
        assert default_worker_count() == 0

    def test_auto_is_case_insensitive_and_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", "AUTO")
        assert default_worker_count() >= 1

    def test_whitespace_around_number_is_tolerated(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", "  4  ")
        assert default_worker_count() == 4


def _square(value: float) -> float:
    return value * value


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(17))
        assert parallel_map(_square, items, workers=0) == [
            _square(i) for i in items
        ]
        assert parallel_map(_square, items, workers=3) == [
            _square(i) for i in items
        ]

    def test_thread_backend(self):
        assert parallel_map(_square, [1, 2, 3], workers=2, backend="thread") == [
            1,
            4,
            9,
        ]

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            parallel_map(_square, [1], workers=2, backend="gpu")

    def test_empty_input_skips_the_pool(self):
        # No pool, no pickling: an unpicklable fn over zero items works
        # even with a process backend and many workers.
        capture = []
        assert parallel_map(capture.append, [], workers=8) == []
        assert capture == []

    def test_single_item_runs_in_process(self):
        # Same fast path for one item: the lambda would fail to pickle
        # if a process pool were constructed.
        state = []
        result = parallel_map(
            lambda v: state.append(v) or v + 1, [41], workers=8
        )
        assert result == [42]
        assert state == [41]  # ran in this process, not a worker

    @pytest.mark.parametrize("workers", [2.7, 1.5, True, "2", -1])
    def test_explicit_workers_checked_like_runtime_config(self, workers):
        # Every explicit count follows RuntimeConfig(workers=...): int()
        # would truncate 2.7 into a pool size and read True as 1.
        with pytest.raises(ConfigurationError, match="workers"):
            RuntimeConfig(workers=workers)
        with pytest.raises(ConfigurationError, match="workers"):
            parallel_map(_square, [1, 2], workers=workers)
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_pool(None, workers=workers)
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_pool(RuntimeConfig(), workers=workers)
        with pytest.raises(ConfigurationError, match="workers"):
            run_monte_carlo(paper_section5a_parameters(), samples=2,
                            workers=workers)
        with pytest.raises(ConfigurationError, match="workers"):
            grid_sweep(_sweep_metric, workers=workers, a=[1.0], b=[0.1])


def _sweep_metric(a: float, b: float) -> float:
    return a * 10.0 + b


class TestRoutedConsumers:
    def test_grid_sweep_workers_match_serial(self):
        serial = grid_sweep(_sweep_metric, a=[1.0, 2.0], b=[0.1, 0.2, 0.3])
        pooled = grid_sweep(
            _sweep_metric, workers=2, a=[1.0, 2.0], b=[0.1, 0.2, 0.3]
        )
        assert np.array_equal(serial.values, pooled.values)

    def test_grid_sweep_lambda_falls_back_to_serial(self, monkeypatch):
        # Lambdas cannot cross a process boundary; the environment
        # worker default must not break a previously valid sweep.
        monkeypatch.setenv("REPRO_RUNTIME_WORKERS", "2")
        result = grid_sweep(lambda a, b: a - b, a=[3.0], b=[1.0, 2.0])
        assert np.array_equal(result.values, [[2.0, 1.0]])

    def test_grid_sweep_warns_workers_with_metric_batch(self):
        # The batch hook is one vectorized call; an explicit workers=
        # request alongside it deserves a signal, not silence.
        with pytest.warns(RuntimeWarning, match="no effect"):
            result = grid_sweep(
                metric_batch=lambda a: np.asarray(a) * 2.0,
                workers=4,
                a=[1.0, 2.0],
            )
        assert np.array_equal(result.values, [2.0, 4.0])

    def test_grid_sweep_warns_when_explicit_workers_dropped(self):
        # An explicit workers= request on an unpicklable metric still
        # sweeps serially, but tells the user parallelism was ignored.
        with pytest.warns(RuntimeWarning, match="not picklable"):
            result = grid_sweep(lambda a: a * 2.0, workers=2, a=[1.0, 2.0])
        assert np.array_equal(result.values, [2.0, 4.0])

    def test_grid_sweep_thread_backend_skips_picklability_probe(self):
        # Thread workers share the address space: a lambda metric must
        # parallelize there without warnings — and without ever being
        # pickled (the probe on a poisoned metric would throw the
        # result away and demote to serial).
        class PoisonPickle:
            calls = 0

            def __call__(self, a):
                return a * 2.0

            def __reduce__(self):
                raise AssertionError("metric must not be pickled")

        metric = PoisonPickle()
        result = grid_sweep(
            metric,
            workers=2,
            runtime=RuntimeConfig(workers=2, backend="thread"),
            a=[1.0, 2.0, 3.0],
        )
        assert np.array_equal(result.values, [2.0, 4.0, 6.0])

    def test_grid_sweep_single_worker_skips_picklability_probe(self):
        class PoisonPickle:
            def __call__(self, a):
                return a + 1.0

            def __reduce__(self):
                raise AssertionError("metric must not be pickled")

        result = grid_sweep(PoisonPickle(), workers=1, a=[1.0, 2.0])
        assert np.array_equal(result.values, [2.0, 3.0])

    def test_monte_carlo_workers_match_serial(self):
        params = paper_section5a_parameters()
        serial = run_monte_carlo(
            params, samples=8, rng=np.random.default_rng(6), workers=0
        )
        sharded = run_monte_carlo(
            params, samples=8, rng=np.random.default_rng(6), workers=2
        )
        assert np.array_equal(
            serial.eye_openings_mw, sharded.eye_openings_mw
        )
        assert serial.yield_fraction == sharded.yield_fraction


@pytest.fixture
def pool_calls(monkeypatch):
    """Record each ``parallel_map`` call, then run it for real.

    Every call site imports ``parallel_map`` from the runtime module at
    call time, so patching the module attribute sees all of them.
    """
    import repro.simulation.runtime as runtime_module

    calls = []
    real = runtime_module.parallel_map

    def spy(fn, items, workers=None, backend="process"):
        items = list(items)
        calls.append((len(items), workers, backend))
        return real(fn, items, workers=workers, backend=backend)

    monkeypatch.setattr(runtime_module, "parallel_map", spy)
    return calls


class TestParallelMapCallSites:
    """Each ``parallel_map`` call site runs on a real process pool.

    At ``workers=2`` on the ``process`` backend the pool pickles the
    mapped callable, so a lambda, a nested ``def`` or any other
    unpicklable callable at a call site fails here.  Each case also
    asserts the pooled answer equals the serial one, and that the call
    reached the pool rather than falling back to an in-process map.
    """

    @staticmethod
    def assert_pooled(calls):
        assert calls, "the call site never reached parallel_map"
        for count, workers, backend in calls:
            assert (workers, backend) == (2, "process")
            assert count > 1

    def test_row_shards(self, circuit, pool_calls):
        xs = np.linspace(0.0, 1.0, 5)
        options = dict(length=600, chunk_length=128, base_seed=3)
        serial = simulate_chunked(circuit, xs, workers=0, **options)
        pool_calls.clear()
        pooled = simulate_chunked(
            circuit, xs, workers=2, backend="process", **options
        )
        self.assert_pooled(pool_calls)
        assert np.array_equal(serial.ones_count, pooled.ones_count)
        assert np.array_equal(
            serial.transmission_bit_errors, pooled.transmission_bit_errors
        )

    def test_grid_sweep_module_level_metric(self, pool_calls):
        axes = dict(a=[1.0, 2.0], b=[0.1, 0.2, 0.3])
        serial = grid_sweep(_sweep_metric, workers=0, **axes)
        pool_calls.clear()
        pooled = grid_sweep(
            _sweep_metric,
            runtime=RuntimeConfig(workers=2, backend="process"),
            **axes,
        )
        self.assert_pooled(pool_calls)
        assert np.array_equal(serial.values, pooled.values)

    @pytest.mark.parametrize(
        "vectorized, samples", [(False, 8), (True, 24)],
        ids=["scalar_corners", "vectorized_blocks"],
    )
    def test_monte_carlo(self, pool_calls, vectorized, samples):
        def run(workers):
            return run_monte_carlo(
                paper_section5a_parameters(),
                samples=samples,
                rng=np.random.default_rng(6),
                runtime=RuntimeConfig(workers=workers, backend="process"),
                vectorized=vectorized,
            )

        serial = run(0)
        pool_calls.clear()
        pooled = run(2)
        self.assert_pooled(pool_calls)
        assert np.array_equal(serial.eye_openings_mw, pooled.eye_openings_mw)

    @staticmethod
    def _nested_def():
        def increment(x):
            return x + 1

        return increment

    @pytest.mark.parametrize(
        "make_fn",
        [
            lambda: (lambda x: x + 1),
            lambda: TestParallelMapCallSites._nested_def(),
            lambda: functools.partial(lambda offset, x: offset + x, 1),
        ],
        ids=["lambda", "nested_def", "partial_over_lambda"],
    )
    def test_unpicklable_callable_fails_on_process_pool(self, make_fn):
        # The failure the call-site cases above rely on: a process pool
        # refuses any callable that does not pickle, including a partial
        # wrapping one (the shape of the Monte Carlo corner site).
        with pytest.raises((pickle.PicklingError, AttributeError)):
            parallel_map(make_fn(), [1, 2, 3], workers=2, backend="process")

    def test_thread_backend_maps_unpicklable_callable(self):
        # Only the process backend pickles; a thread pool shares the
        # address space, so the same lambda maps fine there.
        assert parallel_map(
            lambda x: x * 2, [1, 2, 3], workers=2, backend="thread"
        ) == [2, 4, 6]


class TestSeedSchedule:
    def test_shard_slices(self):
        schedule = derive_seed_schedule(10, np.random.default_rng(1))
        shard = schedule.shard(3, 7)
        assert shard.batch_size == 4
        assert np.array_equal(shard.data_seeds, schedule.data_seeds[3:7])
        with pytest.raises(ConfigurationError):
            schedule.shard(7, 3)
        with pytest.raises(ConfigurationError):
            schedule.shard(0, 11)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            SeedSchedule(
                data_seeds=[1, 2], coeff_seeds=[3], noise_seeds=[4, 5]
            )

    def test_base_seed_schedule_is_deterministic(self):
        a = derive_seed_schedule(4, np.random.default_rng(0), base_seed=12)
        b = derive_seed_schedule(4, np.random.default_rng(99), base_seed=12)
        assert np.array_equal(a.data_seeds, b.data_seeds)
        assert np.array_equal(a.noise_seeds, b.noise_seeds)


class TestParityRegressions:
    """(d) the scalar/batch parity and frontier API bugfixes."""

    def test_sobol_width_raises_like_scalar(self, circuit):
        # sng_width=32 used to silently produce wrong samples batched
        # while the scalar SobolLikeSNG raised at construction.
        with pytest.raises(ConfigurationError):
            SobolLikeSNG(bits=32)
        with pytest.raises(ConfigurationError):
            simulate_batch(
                circuit, [0.5], length=64, sng_kind="sobol", sng_width=32
            )
        with pytest.raises(ConfigurationError):
            simulate_batch(
                circuit, [0.5], length=64, sng_kind="sobol", sng_width=0
            )
        # In-range widths still evaluate on both paths.
        batch = simulate_batch(
            circuit, [0.5], length=64, sng_kind="sobol", sng_width=30,
            noisy=False, base_seed=3,
        )
        assert batch.batch_size == 1

    def test_negative_base_seed_raises(self, circuit):
        # Negative seeds used to wrap through the uint64 cast (sobol)
        # and the lfsr modulus instead of failing like the factory path.
        for kind in ("lfsr", "sobol", "chaotic"):
            with pytest.raises(ConfigurationError):
                simulate_batch(
                    circuit, [0.5], length=64, sng_kind=kind, base_seed=-1
                )
        with pytest.raises(ConfigurationError):
            derive_seed_schedule(2, base_seed=-7)

    def test_frontier_flags_infeasible_points(self):
        frontier = throughput_accuracy_frontier(
            [1e-6, 0.3], target_rms_error=0.01, probability=0.0
        )
        assert frontier["feasible"].dtype == bool
        assert frontier["feasible"].tolist() == [True, False]
        assert np.isinf(frontier["evaluation_time_s"][1])
        assert np.isfinite(frontier["evaluation_time_s"][0])

    def test_frontier_all_feasible_unchanged(self):
        frontier = throughput_accuracy_frontier(
            [1e-6, 1e-4], target_rms_error=0.02, probability=0.25
        )
        assert frontier["feasible"].all()
        np.testing.assert_allclose(
            frontier["evaluation_time_s"], frontier["stream_length"] / 1e9
        )
