"""Tests for the vectorized fault & degradation engine (faultmodel).

The contract under test: a :class:`FaultSpec` names a *scenario*, and
the realized fault bits are a pure function of (spec, seed schedule,
absolute clock index) — so fault-injected evaluations are bit-for-bit
identical between the production pass and the test reference, and
across worker counts, chunk lengths and pool backends, and trajectory
faults (drift ramps, laser decay) stitch exactly across chunk
boundaries.
"""

import asyncio
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import packed_reference as reference
import repro
from repro import _memo
from repro.errors import ConfigurationError
from repro.serving import BatchServer
from repro.session import EvalSpec, Evaluator
from repro.simulation import faultmodel
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
    _window_words,
    pack_bits,
    popcount,
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


def _quantized(probability):
    one = 1 << FAULT_PROBABILITY_BITS
    return np.clip(np.rint(np.asarray(probability) * one), 0, one) / one


def _assert_binomial(flips, p_q, trials):
    """Realized flips within 6 sigma (+1) of a sum of Bernoulli(p_q) draws.

    *p_q* is one quantized probability per clock (or a scalar); each
    clock is drawn *trials* times.
    """
    mean = trials * float(np.sum(p_q))
    variance = trials * float(np.sum(p_q * (1.0 - p_q)))
    assert abs(int(flips) - mean) <= 6.0 * math.sqrt(variance) + 1.0


class TestBernoulliMasks:
    def test_mask_rate_tracks_probability(self):
        seeds = np.arange(64, dtype=np.uint64) + np.uint64(1)
        words = 4096
        clocks = seeds.size * words * 64
        for p in (0.0, 1e-4, 1e-3, 0.25, 0.5, 0.9, 1.0):
            mask = packed_bernoulli_words(seeds, 0, _planes(p, 64 * words))
            _assert_binomial(popcount(mask).sum(), _quantized(p), clocks)

    def test_drift_ramp_flips_track_the_quantized_trajectory(self):
        # The flip rate ramps from 1e-4 to about 1.1e-3 over 2**20 clocks;
        # the realized flips follow the sum of the per-clock quantized
        # probabilities, not the mean rate.
        rows, length = 16, 1 << 20
        spec = FaultSpec(flip_probability=1e-4, drift_ramp_per_mclock=1e-3)
        channel = PackedFaultChannel(
            spec, np.arange(rows, dtype=np.int64) + 3, length
        )
        clean = np.zeros((rows, length // 64), dtype=np.uint64)
        flips = popcount(channel.apply_words(clean, 0, length)).sum()
        t = np.arange(length, dtype=np.float64)
        p_q = _quantized(
            spec.flip_probability + spec.drift_ramp_per_mclock * t / (1 << 20)
        )
        _assert_binomial(flips, p_q, rows)

    def test_masks_are_absolutely_addressed(self):
        seeds = np.array([123, 456], dtype=np.uint64)
        whole = packed_bernoulli_words(seeds, 0, _planes(0.3, 64 * 8))
        tail = packed_bernoulli_words(seeds, 3, _planes(0.3, 64 * 5))
        assert np.array_equal(whole[:, 3:], tail)


def _steep_words(channel, first_word, word_total):
    """Words whose thresholds hold more than two values (per-clock path)."""
    starts = 64 * (first_word + np.arange(word_total, dtype=np.int64))
    low = channel._drift_thresholds(starts)
    high = channel._drift_thresholds(starts + 63)
    return int(np.count_nonzero(high - low > 1))


class TestWordLevelPlanes:
    """Drift planes from word endpoints equal the per-clock packing."""

    @settings(max_examples=80, deadline=None)
    @given(
        flip=st.floats(min_value=0.0, max_value=1.0),
        log_ramp=st.floats(min_value=-3.0, max_value=math.log10(5000.0)),
        first_word=st.integers(min_value=0, max_value=1 << 16),
        word_total=st.integers(min_value=1, max_value=1025),
    )
    # Saturation at probability one inside the first word, on the
    # per-clock path; and a shallow ramp crossing 1 - 2**-16 mid-word.
    @example(flip=0.9, log_ramp=math.log10(5000.0), first_word=0, word_total=3)
    @example(
        flip=65535.4 / 65536, log_ramp=math.log10(0.25), first_word=0,
        word_total=1,
    )
    def test_ramp_planes_match_per_clock_reference(
        self, flip, log_ramp, first_word, word_total
    ):
        spec = FaultSpec(
            flip_probability=flip, drift_ramp_per_mclock=10.0 ** log_ramp
        )
        channel = PackedFaultChannel(spec, [1], 1 << 40)
        planes = channel._flip_planes(first_word, word_total)
        expected = reference.flip_planes(spec, first_word, word_total)
        for plane, want in zip(planes, expected, strict=True):
            assert np.array_equal(plane, want)

    def test_top_plane_set_where_the_ramp_saturates(self):
        spec = FaultSpec(
            flip_probability=65535.4 / 65536, drift_ramp_per_mclock=0.25
        )
        channel = PackedFaultChannel(spec, [1], 1 << 20)
        top = channel._flip_planes(0, 2)[FAULT_PROBABILITY_BITS]
        # Below the split lane the threshold is 2**16 - 1, above it 2**16.
        assert top[0] not in (0, (1 << 64) - 1)
        assert top[1] == (1 << 64) - 1
        assert top[0] == reference.flip_planes(spec, 0, 1)[-1][0]

    @pytest.mark.parametrize(
        "ramp, first_word, word_total", [(3000.0, 0, 40), (5000.0, 1, 1025)]
    )
    def test_steep_ramp_takes_the_per_clock_path(
        self, ramp, first_word, word_total
    ):
        spec = FaultSpec(flip_probability=0.0, drift_ramp_per_mclock=ramp)
        channel = PackedFaultChannel(spec, [1], 1 << 20)
        assert _steep_words(channel, first_word, word_total) > 0
        planes = channel._flip_planes(first_word, word_total)
        expected = reference.flip_planes(spec, first_word, word_total)
        for plane, want in zip(planes, expected, strict=True):
            assert np.array_equal(plane, want)

    @settings(max_examples=40, deadline=None)
    @given(
        flip=st.floats(min_value=0.0, max_value=1.0),
        log_ramp=st.floats(min_value=-3.0, max_value=math.log10(5000.0)),
        offset=st.integers(min_value=0, max_value=1 << 22),
        count=st.integers(min_value=1, max_value=1025 * 64 - 63),
    )
    def test_flip_masks_match_reference_at_any_offset(
        self, flip, log_ramp, offset, count
    ):
        # Word-aligned and unaligned tile offsets: an unaligned tile
        # reads one extra word and re-windows it.
        spec = FaultSpec(
            flip_probability=flip, drift_ramp_per_mclock=10.0 ** log_ramp
        )
        seeds = np.array([5, 9], dtype=np.int64)
        channel = PackedFaultChannel(spec, seeds, offset + count)
        clean = np.zeros((2, (count + 63) // 64), dtype=np.uint64)
        first_word = offset >> 6
        word_total = (count + 63) // 64 + (1 if offset & 63 else 0)
        aligned = reference.bernoulli_words(
            channel._flip_seeds,
            first_word,
            reference.flip_planes(spec, first_word, word_total),
        )
        expected = _window_words(aligned, offset & 63, count)
        assert np.array_equal(channel.apply_words(clean, offset, count), expected)


class TestCompactedCompare:
    """Hashing only undecided words equals the full 17-plane compare."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=5),
        first_word=st.integers(min_value=0, max_value=1 << 40),
        word_total=st.integers(min_value=1, max_value=300),
        top_density=st.sampled_from([0.0, 0.01, 0.5]),
    )
    def test_random_planes_match_full_compare(
        self, seed, rows, first_word, word_total, top_density
    ):
        # Arbitrary plane bits: the compare is bitwise per lane, so it
        # must agree on any planes, not only quantized ramps.
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 1 << 64, size=rows, dtype=np.uint64)
        planes = tuple(
            rng.integers(0, 1 << 64, size=word_total, dtype=np.uint64)
            for _ in range(FAULT_PROBABILITY_BITS)
        ) + (
            pack_bits(
                (rng.random(64 * word_total) < top_density).astype(np.uint8)
            ),
        )
        assert np.array_equal(
            packed_bernoulli_words(seeds, first_word, planes),
            reference.bernoulli_words(seeds, first_word, planes),
        )

    @pytest.mark.parametrize(
        "flip, ramp",
        [(0.0, 0.0), (1.0, 0.0), (0.01, 0.0), (0.3, 0.0), (0.01, 0.25)],
    )
    def test_channel_planes_match_full_compare(self, flip, ramp):
        # p = 0 and p = 1 and the constant-rate broadcast planes; p = 1
        # decides every lane on the top plane, so no word survives the
        # compaction.
        spec = FaultSpec(flip_probability=flip, drift_ramp_per_mclock=ramp)
        channel = PackedFaultChannel(spec, np.arange(4) + 7, 1 << 20)
        seeds = channel._flip_seeds
        for first_word, word_total in ((0, 1), (3, 1024), (1 << 14, 257)):
            planes = channel._flip_planes(first_word, word_total)
            mask = packed_bernoulli_words(seeds, first_word, planes)
            assert np.array_equal(
                mask, reference.bernoulli_words(seeds, first_word, planes)
            )
            if flip == 1.0:
                assert (mask == np.uint64((1 << 64) - 1)).all()


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

    @pytest.mark.parametrize(
        "words, offset, count",
        [
            # One row given to a four-row channel.
            (np.zeros((1, 2), dtype=np.uint64), 0, 128),
            # Three words for a two-word tile.
            (np.zeros((4, 3), dtype=np.uint64), 0, 128),
            (np.zeros((4, 2), dtype=np.int64), 0, 128),
            (np.zeros((4, 2, 1), dtype=np.uint64), 0, 128),
            ([[0], [0], [0], [0]], 0, 1),
            # Windows outside the channel's 256-clock stream.
            (np.zeros((4, 2), dtype=np.uint64), 200, 128),
            (np.zeros((4, 1), dtype=np.uint64), -1, 1),
            (np.zeros((4, 0), dtype=np.uint64), 0, 0),
            (np.zeros((4, 2), dtype=np.uint64), 0.0, 128),
        ],
    )
    def test_malformed_tiles_are_rejected(
        self, monkeypatch, words, offset, count
    ):
        spec = FaultSpec(flip_probability=0.1, decay_tau_clocks=50)
        channel = PackedFaultChannel(spec, np.arange(4), 256)

        def no_masks(*args):
            raise AssertionError("a mask was built for a malformed tile")

        monkeypatch.setattr(channel, "_mask_words", no_masks)
        with pytest.raises(ConfigurationError):
            channel.apply_words(words, offset, count)

    @pytest.mark.parametrize(
        "seeds", [[1.7], np.array([2.0]), [True], [], [[1, 2]], ["1"]]
    )
    def test_non_integer_seeds_are_rejected(self, seeds):
        with pytest.raises(ConfigurationError):
            PackedFaultChannel(FaultSpec(flip_probability=0.1), seeds, 64)

    @pytest.mark.parametrize("length", [0, -5, 64.0, None])
    def test_stream_length_must_be_a_positive_integer(self, length):
        with pytest.raises(ConfigurationError):
            PackedFaultChannel(FaultSpec(flip_probability=0.1), [1], length)

    def test_channel_requires_sequential_offsets(self):
        spec = FaultSpec(shift_clocks=2)
        channel = PackedFaultChannel(spec, np.zeros(1, dtype=np.int64), 256)
        channel.apply_words(np.zeros((1, 2), dtype=np.uint64), 0, 128)
        with pytest.raises(ConfigurationError):
            channel.apply_words(np.zeros((1, 2), dtype=np.uint64), 0, 128)


# One spec per masked family plus a shift: the drift ramp is steep
# enough that its threshold planes differ from tile to tile.
MEMO_SPECS = {
    "flip": FaultSpec(flip_probability=0.05),
    "drift": FaultSpec(flip_probability=0.01, drift_ramp_per_mclock=40.0),
    "decay": FaultSpec(decay_tau_clocks=50_000),
    "shift": FaultSpec(shift_clocks=5),
}


def _walk(spec, seeds, chunk, tiles=3):
    """Faulted words of *tiles* consecutive *chunk*-clock tiles."""
    channel = PackedFaultChannel(spec, seeds, chunk * tiles)
    rng = np.random.default_rng(chunk)
    out = []
    for tile in range(tiles):
        clean = pack_bits(
            rng.integers(0, 2, (seeds.size, chunk)).astype(np.uint8)
        )
        out.append(channel.apply_words(clean, tile * chunk, chunk))
    return out


@pytest.fixture
def fresh_fault_caches():
    faultmodel.clear_fault_caches()
    yield faultmodel._MASK_MEMO
    faultmodel.clear_fault_caches()


@pytest.mark.usefixtures("fresh_fault_caches")
class TestFaultCaches:
    """The mask memo and the plane cache change no bit."""

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize(
        "spec", list(MEMO_SPECS.values()), ids=list(MEMO_SPECS)
    )
    @pytest.mark.parametrize("chunk", [1 << 12, 1 << 16, 1000])
    def test_warm_memo_matches_cleared(self, chunk, spec, batch):
        memo = faultmodel._MASK_MEMO
        seeds = np.arange(batch, dtype=np.int64) + 31
        cold = _walk(spec, seeds, chunk)
        # A tile's mask is stored on its second miss.
        _walk(spec, seeds, chunk)
        hits = memo.hits
        warm = _walk(spec, seeds, chunk)
        for got, want in zip(warm, cold, strict=True):
            assert np.array_equal(got, want)
        # Every masked tile of the third walk came from the memo.
        assert memo.hits - hits == (3 if spec.needs_seeds else 0)
        faultmodel.clear_fault_caches()
        for got, want in zip(_walk(spec, seeds, chunk), cold, strict=True):
            assert np.array_equal(got, want)

    def test_memo_bytes_never_exceed_the_bound(self, monkeypatch):
        # Three 4-row masks of 64 words fit in the bound.  A stream of 20
        # such tiles, walked three times: nothing is stored on the first
        # walk, the first three tiles on the second, and the third walk
        # hits on exactly those three; no tile is ever evicted.
        memo = _memo._BoundedCache(
            3 * 4 * 64 * 8, faultmodel._nbytes, scan_resistant=True
        )
        monkeypatch.setattr(faultmodel, "_MASK_MEMO", memo)
        spec = FaultSpec(flip_probability=0.1)
        channel = PackedFaultChannel(spec, np.arange(4), 64 * 64 * 20)
        clean = np.zeros((4, 64), dtype=np.uint64)
        for walk in range(3):
            for tile in range(20):
                channel.apply_words(clean, tile * 64 * 64, 64 * 64)
                stored = sum(size for _, size in memo._entries.values())
                assert memo.total == stored <= memo.bound
            assert len(memo) == (0 if walk == 0 else 3)
        assert memo.hits == 3

    def test_entry_over_the_bound_is_returned_not_kept(self, monkeypatch):
        memo = _memo._BoundedCache(
            1024, faultmodel._nbytes, scan_resistant=True
        )
        monkeypatch.setattr(faultmodel, "_MASK_MEMO", memo)
        spec = FaultSpec(flip_probability=0.1)
        seeds = np.arange(4)
        channel = PackedFaultChannel(spec, seeds, 4096)
        for _ in range(3):
            mask = channel._mask_words("flip", 0, 4096)  # 2 KiB
        assert mask.nbytes > memo.bound
        assert len(memo) == 0 and memo.total == 0
        expected = channel._build_mask_words(
            "flip", channel._flip_seeds, 0, 4096
        )
        assert np.array_equal(mask, expected)

    def test_cached_arrays_are_read_only(self):
        spec = FaultSpec(flip_probability=0.01, decay_tau_clocks=4096,
                         drift_ramp_per_mclock=1.0)
        channel = PackedFaultChannel(spec, np.arange(2), 1 << 14)
        for kind in ("flip", "erase"):
            channel._mask_words(kind, 100, 1000)
            mask = channel._mask_words(kind, 100, 1000)
            assert not mask.flags.writeable
            assert channel._mask_words(kind, 100, 1000) is mask
        for build in (channel._flip_planes, channel._erase_planes):
            build(3, 17)
            planes = build(3, 17)
            assert not any(plane.flags.writeable for plane in planes)
            assert build(3, 17) is planes

    def test_rng_rows_never_hit_the_memo(self, circuit):
        memo = faultmodel._MASK_MEMO
        planes = faultmodel._PLANE_CACHE
        spec = MEMO_SPECS["drift"]
        rng = np.random.default_rng(8)
        config = RuntimeConfig(chunk_length=1 << 12, workers=0)
        for _ in range(3):
            run_batch(circuit, np.linspace(0, 1, 4), length=1 << 14,
                      rng=rng, noisy=False, config=config, fault=spec)
        # Fresh seeds on every call: no hit, and no mask takes room.
        assert memo.hits == 0 and memo.misses == 12 and len(memo) == 0
        # The planes depend on the spec and the tile only: stored on the
        # second call, shared by the third.
        assert planes.hits == 4

    def test_faulted_serving_session_hits_the_memo(self, circuit):
        # A server bound to a pinned-seed faulted session runs each full
        # micro-batch under the same seeds: the traffic the memo serves.
        session = Evaluator(
            circuit, EvalSpec(length=1 << 12, base_seed=9)
        ).with_fault(COMPOSITE)
        bursts = [np.linspace(0.1, 0.9, 4) + 0.01 * k for k in range(4)]

        async def scenario():
            served = []
            async with BatchServer(
                session, max_batch_size=4, allow_row_dependent=True
            ) as server:
                for xs in bursts:
                    served.append(
                        await asyncio.gather(
                            *(server.submit(float(x)) for x in xs)
                        )
                    )
            return served

        served = asyncio.run(scenario())
        assert faultmodel._MASK_MEMO.hits > 0
        for xs, values in zip(bursts, served, strict=True):
            assert np.array_equal(values, session.evaluate(xs).values)

    def test_threads_match_serial_under_a_warm_memo(self, circuit):
        xs = np.linspace(0, 1, 6)
        kwargs = dict(length=1 << 14, base_seed=5, fault=COMPOSITE)
        tiles = RuntimeConfig(chunk_length=1 << 12, workers=0)
        serial = run_batch(circuit, xs, config=tiles, **kwargs)
        threads = RuntimeConfig(
            workers=2, backend="thread", chunk_length=1 << 12
        )
        # Each shard keys its own rows' seeds: the first two threaded
        # runs fill the memo, the third reads it.
        results = []
        for config in (tiles, threads, threads, threads):
            hits = faultmodel._MASK_MEMO.hits
            results.append(run_batch(circuit, xs, config=config, **kwargs))
        assert faultmodel._MASK_MEMO.hits > hits
        for result in results:
            assert np.array_equal(result.values, serial.values)
            assert np.array_equal(result.ones_count, serial.ones_count)
            assert np.array_equal(
                result.transmission_bit_errors,
                serial.transmission_bit_errors,
            )


# The noisy axis of the parity matrices: the Section V-A circuit
# noiseless and noisy (where noise flips about 1e-111 of decisions), and
# the mid-SNR circuit noisy, where it flips a few percent.
NOISY_AXIS = pytest.mark.parametrize(
    "noisy, design",
    [(False, "circuit"), (True, "circuit"), (True, "mid_snr")],
    ids=["False", "True", "mid-snr"],
)


class TestParityMatrix:
    @pytest.mark.parametrize("sng_kind", ["lfsr", "counter", "sobol", "chaotic"])
    @NOISY_AXIS
    @pytest.mark.parametrize(
        "scenario", list(PARITY_SCENARIOS.values()), ids=list(PARITY_SCENARIOS)
    )
    def test_kernels_bit_identical_under_faults(
        self, request, flipped_decisions, sng_kind, noisy, design, scenario
    ):
        circuit = request.getfixturevalue(design)
        xs = np.linspace(0.0, 1.0, 4)
        if design == "mid_snr":
            assert flipped_decisions(
                circuit, xs, length=LENGTH, sng_kind=sng_kind, base_seed=9,
                fault=scenario,
            ) > 0

        def run():
            return run_batch(
                circuit,
                xs,
                length=LENGTH,
                noisy=noisy,
                sng_kind=sng_kind,
                base_seed=9,
                fault=scenario,
            )

        with reference.installed():
            expected = run()
        production = run()
        assert np.array_equal(expected.values, production.values)
        assert np.array_equal(expected.output_bits, production.output_bits)
        assert np.array_equal(
            expected.transmission_bit_errors,
            production.transmission_bit_errors,
        )

    @pytest.mark.parametrize("kernel_pass", reference.PASSES)
    def test_clean_run_unchanged_by_null_channel(self, circuit, kernel_pass):
        xs = [0.25, 0.75]
        with reference.running(kernel_pass):
            clean = run_batch(circuit, xs, length=LENGTH, base_seed=9)
        nulled = run_batch(
            circuit,
            xs,
            length=LENGTH,
            base_seed=9,
            fault=None,
        )
        assert np.array_equal(clean.output_bits, nulled.output_bits)


class TestRelocatability:
    @pytest.mark.parametrize("chunk_length", [64, 100, 333, 999])
    @pytest.mark.parametrize("kernel_pass", reference.PASSES)
    @NOISY_AXIS
    def test_trajectory_faults_stitch_across_chunks(
        self, request, flipped_decisions, chunk_length, kernel_pass, noisy,
        design,
    ):
        """Drift at absolute clock k must not depend on the tiling.

        The one-shot side runs on the reference or the production pass,
        the tiles on production.  ``noisy=False`` tiles are the
        word-level mux under a fault channel — the ``stream-fault`` path.
        """
        circuit = request.getfixturevalue(design)
        xs = np.linspace(0.1, 0.9, 3)
        if design == "mid_snr":
            assert flipped_decisions(
                circuit, xs, length=LENGTH, base_seed=21, fault=TRAJECTORY
            ) > 0
        with reference.running(kernel_pass):
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
            config=RuntimeConfig(chunk_length=chunk_length, workers=0),
            fault=TRAJECTORY,
        )
        assert np.array_equal(
            chunked.ones_count, one_shot.output_bits.sum(axis=1)
        )
        assert np.array_equal(
            chunked.transmission_bit_errors,
            one_shot.transmission_bit_errors,
        )

    @pytest.mark.parametrize("chunk_length", [64, 100])
    @pytest.mark.parametrize("shift_clocks", [63, 64, 65, 200])
    @NOISY_AXIS
    def test_long_delays_stitch_across_chunks(
        self, request, chunk_length, shift_clocks, noisy, design
    ):
        """A delay of a word or more, and one longer than a tile, carries
        its bits across tiles exactly as the one-shot stream delays them."""
        circuit = request.getfixturevalue(design)
        fault = TRAJECTORY.replace(shift_clocks=shift_clocks)
        xs = np.linspace(0.1, 0.9, 3)
        options = dict(
            length=LENGTH, noisy=noisy, base_seed=21, fault=fault
        )
        one_shot = run_batch(circuit, xs, **options)
        chunked = run_batch(
            circuit,
            xs,
            config=RuntimeConfig(chunk_length=chunk_length, workers=0),
            **options,
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
        # Serial on the reference pass, sharded on production.
        xs = np.linspace(0.0, 1.0, 5)
        with reference.installed():
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
