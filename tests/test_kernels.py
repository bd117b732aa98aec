"""Tests for the compute-kernel layer (repro.simulation.kernels).

The contract under test: the packed pass is **bit-for-bit identical**
to the byte-wise reference pass of ``tests/packed_reference.py`` for
all four SNG kinds, noisy and noiseless, one-shot and composed with the
chunking/sharding runtime.  Each parity case runs its reference side
inside ``reference.installed()`` and its production side as shipped.
The kernel registry is gone: ``kernel="packed"`` is a no-op spelling,
and any other name raises.
"""

import dataclasses
import sys
import threading
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import _memo
from repro.errors import ConfigurationError
from repro.simulation import engine, kernels
from repro.simulation.faultmodel import FaultSpec
from repro.simulation.engine import (
    _PackedCursor,
    _UniformCursor,
    derive_seed_schedule,
    simulate_batch,
)
from repro.simulation.kernels import (
    PackedChaoticSource,
    PackedLfsrSource,
    PackedSobolSource,
    pack_bits,
    packed_lfsr_comparator_bits,
    pass_context,
    popcount,
    unpack_bits,
)
from repro.simulation.runtime import (
    EvaluationCache,
    RuntimeConfig,
    run_batch,
    simulate_chunked,
)
from repro.stochastic.lfsr import (
    _TABLE_ENTRIES,
    _TABLE_MAX_WIDTH,
    MAXIMAL_TAPS,
    _cycle_tables,
    lfsr_uniform_windows,
)
from repro.stochastic.sng import (
    SNG_KINDS,
    derive_lfsr_seeds,
    derive_sobol_offsets,
)

import packed_reference as reference

BATCH_FIELDS = (
    "xs",
    "values",
    "expected",
    "received_power_mw",
    "output_bits",
    "ideal_bits",
    "select_levels",
)



@pytest.fixture(scope="module")
def circuit():
    return repro.OpticalStochasticCircuit(
        repro.paper_section5a_parameters(),
        repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


def assert_batches_equal(expected, other):
    for field in BATCH_FIELDS:
        assert np.array_equal(
            getattr(expected, field), getattr(other, field)
        ), field
    assert np.array_equal(
        expected.transmission_bit_errors, other.transmission_bit_errors
    )


def assert_statistics_match(expected, statistics):
    """A sharded statistics result equals the per-clock reductions."""
    assert np.array_equal(expected.xs, statistics.xs)
    assert np.array_equal(expected.values, statistics.values)
    assert np.array_equal(expected.expected, statistics.expected)
    assert np.array_equal(
        expected.output_bits.sum(axis=1), statistics.ones_count
    )
    assert np.array_equal(
        expected.transmission_bit_errors,
        statistics.transmission_bit_errors,
    )


class TestKernelRegistryRemoved:
    """The kernel registry is gone; ``kernel="packed"`` stays a no-op.

    ``RuntimeConfig(kernel=...)``, ``Evaluator.with_kernel``,
    ``simulate_batch`` and ``simulate_chunked`` accept ``"packed"`` and
    return the default bits; every other name, ``"numpy"`` included,
    raises :class:`ConfigurationError`.
    """

    @pytest.mark.parametrize(
        "module",
        [repro, repro.simulation, kernels],
        ids=["repro", "repro.simulation", "repro.simulation.kernels"],
    )
    @pytest.mark.parametrize(
        "name",
        ["KERNELS", "available_kernels", "resolve_kernel", "kernel_capabilities"],
    )
    def test_registry_names_are_gone(self, module, name):
        assert not hasattr(module, name)

    @pytest.mark.parametrize("kernel", ["numpy", "bogus"])
    @pytest.mark.parametrize(
        "spelling",
        ["RuntimeConfig", "with_kernel", "simulate_batch", "simulate_chunked"],
    )
    def test_other_kernels_raise(self, circuit, spelling, kernel):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            _kernel_run(circuit, spelling, kernel)

    @pytest.mark.parametrize(
        "spelling",
        ["RuntimeConfig", "with_kernel", "simulate_batch", "simulate_chunked"],
    )
    def test_packed_spelling_matches_the_default(self, circuit, spelling):
        packed = _kernel_run(circuit, spelling, "packed")
        default = _kernel_run(circuit, spelling, None)
        if spelling == "simulate_chunked":
            assert np.array_equal(packed.ones_count, default.ones_count)
            assert np.array_equal(
                packed.transmission_bit_errors,
                default.transmission_bit_errors,
            )
            assert np.array_equal(
                packed.power_histogram, default.power_histogram
            )
        else:
            assert_batches_equal(default, packed)

    def test_cli_has_no_kernel_flag(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["accuracy", "--kernel", "packed"])
        assert exit_info.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_pool_backend_and_kernel_are_distinct_knobs(self):
        # Naming hygiene: `backend` picks the worker pool, `kernel` the
        # compute implementation; both validate at construction.
        assert RuntimeConfig().kernel == "packed"
        config = RuntimeConfig(backend="thread", kernel="packed")
        assert config.backend == "thread"
        assert config.kernel == "packed"
        with pytest.raises(ConfigurationError, match="unknown backend"):
            RuntimeConfig(backend="packed")


def _kernel_run(circuit, spelling, kernel):
    """One evaluation through *spelling*, naming *kernel* or leaving it out."""
    named = {} if kernel is None else {"kernel": kernel}
    xs = np.linspace(0.05, 0.95, 4)
    spec = repro.EvalSpec(length=300)
    if spelling == "RuntimeConfig":
        session = repro.Evaluator(circuit, spec, RuntimeConfig(**named))
        return session.evaluate(xs, rng=np.random.default_rng(3))
    if spelling == "with_kernel":
        session = repro.Evaluator(circuit, spec)
        if kernel is not None:
            session = session.with_kernel(kernel)
        return session.evaluate(xs, rng=np.random.default_rng(3))
    if spelling == "simulate_batch":
        return simulate_batch(
            circuit, xs, length=300, rng=np.random.default_rng(3), **named
        )
    return simulate_chunked(
        circuit,
        xs,
        length=300,
        chunk_length=96,
        rng=np.random.default_rng(3),
        power_histogram_bins=8,
        workers=0,
        **named,
    )


class TestPackingPrimitives:
    def test_pack_unpack_roundtrip_tail(self):
        rng = np.random.default_rng(1)
        for length in (1, 40, 64, 65, 200, 1000):
            bits = rng.integers(0, 2, size=(3, 2, length), dtype=np.uint8)
            words = pack_bits(bits)
            assert words.shape == (3, 2, (length + 63) // 64)
            assert words.dtype == np.uint64
            assert np.array_equal(unpack_bits(words, length), bits)

    def test_pack_pads_tail_with_zeros(self):
        words = pack_bits(np.ones((1, 70), dtype=np.uint8))
        assert words[0, 1] == (1 << 6) - 1

    def test_popcount_matches_lut(self):
        rng = np.random.default_rng(2)
        words = rng.integers(0, 1 << 64, size=(5, 7), dtype=np.uint64)
        fast = popcount(words)
        lut = popcount(words, use_lut=True)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, lut)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_packed_popcount_equals_unpacked_sums(self, rows, length, seed):
        # The property the packed statistics accumulators rely on: the
        # popcount of packed words equals the per-row sum of the bits.
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, length), dtype=np.uint8)
        words = pack_bits(bits)
        for use_lut in (False, True):
            counts = popcount(words, use_lut=use_lut).sum(axis=-1)
            assert np.array_equal(counts, bits.sum(axis=1, dtype=np.int64))

    @pytest.mark.parametrize("width", [5, 8, 16])
    def test_packed_lfsr_source_matches_unpacked_windows(self, width):
        seeds = derive_lfsr_seeds(np.array([3, 77]), 3, width)
        values = np.array([[0.1, 0.5, 0.9], [0.25, 0.5, 0.75]])
        for offset, length in ((0, 130), (37, 64), (100, 70001)):
            words = packed_lfsr_comparator_bits(
                seeds, values, length, width, offset=offset
            )
            assert words is not None
            uniforms = lfsr_uniform_windows(seeds, length, width, offset=offset)
            expected = (uniforms < values[..., None]).astype(np.uint8)
            assert np.array_equal(unpack_bits(words, length), expected)

    def test_packed_lfsr_source_resumes_by_offset(self):
        seeds = derive_lfsr_seeds(np.array([9]), 2, 16)
        source = PackedLfsrSource.create(seeds, np.array([[0.3, 0.6]]), 16)
        tiles = [source.take(start, 96) for start in (0, 96, 192)]
        stitched = np.concatenate(
            [unpack_bits(t, 96) for t in tiles], axis=-1
        )
        one_shot = unpack_bits(
            packed_lfsr_comparator_bits(
                seeds, np.array([[0.3, 0.6]]), 288, 16
            ),
            288,
        )
        assert np.array_equal(stitched, one_shot)

    def test_packed_lfsr_wide_register_falls_back(self):
        seeds = derive_lfsr_seeds(np.array([3]), 2, 24)
        assert (
            packed_lfsr_comparator_bits(seeds, np.array([[0.5, 0.5]]), 64, 24)
            is None
        )


class TestFlatCycleGather:
    """``take`` reads cycle words by a flat gather or by slices.

    Parity against the two 2-D row/word gathers of the reference, over
    windows that cross the cycle's wrap, end mid-word and run longer
    than the period.  Per-row starts take the flat gather; one row of
    starts, against per-row or row-invariant values, takes the slice
    read for windows of up to two periods — from any phase, a word-aligned
    one included, across up to two wraps — and the gather past that.
    """

    # Starts shape and values shape of each bank layout.
    LAYOUTS = {
        "per-row": ((3, 2), (3, 2)),
        "one-row": ((1, 2), (3, 1)),
        "one-row-invariant": ((1, 2), (1, 2)),
    }

    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(min_value=3, max_value=16),
        kind=st.sampled_from(["lfsr", "sobol"]),
        layout=st.sampled_from(sorted(LAYOUTS)),
        before_wrap=st.integers(min_value=-70, max_value=200),
        word_aligned=st.booleans(),
        count=st.integers(min_value=1, max_value=3 * (1 << 16)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_take_matches_row_word_gather(
        self, width, kind, layout, before_wrap, word_aligned, count, seed
    ):
        rng = np.random.default_rng(seed)
        period = (1 << width) - 1 if kind == "lfsr" else 1 << width
        starts_shape, values_shape = self.LAYOUTS[layout]
        starts = rng.integers(1, 1 << width, size=starts_shape)
        # Few distinct values, so streams share cycle rows.
        values = rng.choice([0.125, 0.5, 0.875], size=values_shape)
        create = PackedLfsrSource if kind == "lfsr" else PackedSobolSource
        source = create.create(starts, values, width)
        assert source is not None
        assert (source._row_starts is None) == (layout == "per-row")
        # A window starting just before (or past) the first wrap, or one
        # whose first channel starts on a word of the cycle.
        offset = max(period - before_wrap, 0)
        if word_aligned:
            phase = int(source._starts.flat[0]) + source._start_shift
            target = 64 * (before_wrap % -(-period // 64))
            offset = (target - phase) % period
        # Counts up to two periods take the slice read of one-row starts.
        count = 1 + (count - 1) % (4 * period + 67)
        assert np.array_equal(
            source.take(offset, count),
            reference.cycle_take(source, offset, count),
        )

    @pytest.mark.parametrize(
        "offset, count",
        [((1 << 16) - 3, 70), ((1 << 16) - 1, 1), (65000, 1 << 17), (5, 130)],
    )
    def test_take_crosses_the_lfsr_wrap(self, offset, count):
        seeds = derive_lfsr_seeds(np.array([3, 77, 5]), 3, 16)
        values = np.array([[0.1, 0.5, 0.9], [0.25, 0.5, 0.75], [0.5] * 3])
        source = PackedLfsrSource.create(seeds, values, 16)
        assert source is not None
        assert np.array_equal(
            source.take(offset, count),
            reference.cycle_take(source, offset, count),
        )


class TestSelectTree:
    """The word-level multiplexer selects ``coeff[level]`` at every order.

    The level planes are the bit-sliced sum of random data words, as the
    pass builds them; the reference picks each clock's coefficient bit
    on unpacked bits.  Lengths end mid-word, so the tail clocks (level 0
    over zero data tails) must come out zero.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        order=st.integers(min_value=1, max_value=6),
        rows=st.integers(min_value=1, max_value=3),
        full_words=st.integers(min_value=0, max_value=4),
        tail=st.integers(min_value=1, max_value=63),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_mux_words_selects_the_level_coefficient(
        self, order, rows, full_words, tail, seed
    ):
        rng = np.random.default_rng(seed)
        length = 64 * full_words + tail
        data_bits = rng.integers(0, 2, size=(rows, order, length), dtype=np.uint8)
        coeff_bits = rng.integers(
            0, 2, size=(rows, order + 1, length), dtype=np.uint8
        )
        planes = kernels._bit_plane_sum(pack_bits(data_bits))
        words = kernels._mux_words(
            pack_bits(coeff_bits), planes[: order.bit_length()], order
        )
        level = data_bits.sum(axis=1, dtype=np.int64)
        expected = np.take_along_axis(coeff_bits, level[:, None, :], axis=1)
        assert np.array_equal(unpack_bits(words, length), expected[:, 0, :])
        assert not np.any(unpack_bits(words, words.shape[-1] * 64)[:, length:])


class TestPackedWordSources:
    """Sobol and chaotic SNGs generate packed comparator words directly.

    The contract mirrors :class:`PackedLfsrSource`: every word tensor is
    bit-for-bit ``pack_bits(uniforms < values)`` of the float reference,
    with offset resume (index re-aim for Sobol, carried orbit state for
    chaotic) and clean fallbacks where the packed path does not apply.
    """

    @pytest.mark.parametrize("width", [5, 8, 16])
    def test_packed_sobol_matches_unpacked_uniforms(self, width):
        base_seeds = np.array([3, 77])
        values = np.array([[0.1, 0.5, 0.9], [0.25, 0.5, 0.75]])
        offsets = derive_sobol_offsets(base_seeds, 3)
        source = PackedSobolSource.create(offsets, values, width)
        assert source is not None
        for offset, length in ((0, 130), (37, 64), (100, 70001)):
            words = source.take(offset, length)
            uniforms = _UniformCursor("sobol", base_seeds, 3, width).take(
                offset, length
            )
            expected = (uniforms < values[..., None]).astype(np.uint8)
            assert np.array_equal(unpack_bits(words, length), expected)

    def test_packed_sobol_resumes_by_offset(self):
        offsets = derive_sobol_offsets(np.array([9]), 2)
        source = PackedSobolSource.create(
            offsets, np.array([[0.3, 0.6]]), 16
        )
        assert source is not None
        tiles = [source.take(start, 96) for start in (0, 96, 192)]
        stitched = np.concatenate(
            [unpack_bits(t, 96) for t in tiles], axis=-1
        )
        one_shot = unpack_bits(source.take(0, 288), 288)
        assert np.array_equal(stitched, one_shot)

    def test_packed_sobol_wide_width_falls_back(self):
        offsets = derive_sobol_offsets(np.array([3]), 2)
        assert (
            PackedSobolSource.create(offsets, np.array([[0.5, 0.5]]), 24)
            is None
        )

    def test_packed_sobol_rejects_negative_offsets(self):
        with pytest.raises(ConfigurationError):
            PackedSobolSource.create(
                np.array([[-1, 2]]), np.array([[0.5, 0.5]]), 8
            )

    # Two rows x three channels of six distinct values at width 16: the
    # gather takes 18 x length floats against the cycle's 6 x 2**16, so
    # 1000 clocks gather and 30000 read the packed cycle.
    @pytest.mark.parametrize("kind", ["lfsr", "sobol"])
    @pytest.mark.parametrize(
        "length, tile, cycle",
        [(1000, 333, False), (30_000, 10_001, True)],
        ids=["gather", "cycle"],
    )
    def test_packed_cursor_matches_uniform_cursor(
        self, kind, length, tile, cycle
    ):
        base_seeds = np.array([3, 77])
        values = np.array([[0.1, 0.5, 0.9], [0.25, 0.55, 0.75]])

        def reference(offset, count):
            uniforms = _UniformCursor(kind, base_seeds, 3, 16).take(
                offset, count
            )
            return pack_bits((uniforms < values[..., None]).astype(np.uint8))

        def cursor():
            bank = _PackedCursor(kind, base_seeds, 3, 16, values, length)
            assert (bank._source is not None) is cycle
            return bank

        assert np.array_equal(cursor().take(0, length), reference(0, length))
        resumed = cursor()
        starts = range(0, length, tile)
        assert len(starts) >= 3
        for start in starts:
            count = min(tile, length - start)
            assert np.array_equal(
                resumed.take(start, count), reference(start, count)
            )

    @pytest.mark.parametrize("length", [64, 96, 250, 8192 + 777])
    def test_packed_chaotic_matches_unpacked_orbit(self, length):
        # Lengths straddle the internal packing block (4096 clocks) and
        # non-multiple-of-64 tails.
        base_seeds = np.array([3, 77])
        values = np.array([[0.1, 0.5, 0.9], [0.25, 0.5, 0.75]])
        source = PackedChaoticSource(base_seeds, values, 3)
        words = source.take(0, length)
        uniforms = _UniformCursor("chaotic", base_seeds, 3, 16).take(0, length)
        expected = (uniforms < values[..., None]).astype(np.uint8)
        assert np.array_equal(unpack_bits(words, length), expected)

    def test_packed_chaotic_sequential_resume_is_exact(self):
        base_seeds = np.array([5])
        values = np.array([[0.4, 0.7]])
        source = PackedChaoticSource(base_seeds, values, 2)
        tiles = [source.take(start, 96) for start in (0, 96, 192)]
        stitched = np.concatenate(
            [unpack_bits(t, 96) for t in tiles], axis=-1
        )
        one_shot = PackedChaoticSource(base_seeds, values, 2).take(0, 288)
        assert np.array_equal(stitched, unpack_bits(one_shot, 288))

    def test_packed_chaotic_rejects_non_sequential_resume(self):
        source = PackedChaoticSource(np.array([5]), np.array([[0.5]]), 1)
        source.take(0, 64)
        with pytest.raises(ConfigurationError, match="sequential"):
            source.take(0, 64)
        with pytest.raises(ConfigurationError, match="sequential"):
            source.take(128, 64)


class TestCycleLayout:
    """A packed cycle holds one period plus its 64-clock wrap per value.

    Every window a cycle source hands out — at any offset, including
    windows that cross the wrap, and for counts from one clock to past
    two periods — is ``pack_bits(uniforms < values)`` of the float
    cursor, for periods below and above one word, with per-row starts
    or one row of starts shared by every row.
    """

    KINDS_WIDTHS = [("lfsr", width) for width in (3, 4, 5, 6, 7, 8, 16)] + [
        ("sobol", width) for width in (1, 2, 3, 4, 5, 6, 7, 8, 16)
    ]

    @settings(max_examples=80, deadline=None)
    @given(
        kind_width=st.sampled_from(KINDS_WIDTHS),
        # count = periods * P + clocks: 1, 63, 64, 65, P, P + 1, 2P + 3.
        count_rule=st.sampled_from(
            [(0, 1), (0, 63), (0, 64), (0, 65), (1, 0), (1, 1), (2, 3)]
        ),
        shared=st.booleans(),
        row_values=st.booleans(),
        data=st.data(),
    )
    def test_take_equals_compared_uniforms(
        self, kind_width, count_rule, shared, row_values, data
    ):
        kind, width = kind_width
        period = (1 << width) - 1 if kind == "lfsr" else 1 << width
        periods, clocks = count_rule
        count = periods * period + clocks
        # Either a window that straddles a cycle wrap, or anywhere.
        wraps = data.draw(st.integers(min_value=1, max_value=3))
        offset = data.draw(
            st.one_of(
                st.integers(
                    min_value=max(wraps * period - count - 64, 0),
                    max_value=wraps * period + 64,
                ),
                st.integers(min_value=0, max_value=4 * period),
            )
        )
        rng = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        )
        rows, channels = 3, 2
        base_seeds = (
            np.full(rows, int(rng.integers(0, 1 << 20)))
            if shared
            else rng.integers(0, 1 << 20, size=rows)
        )
        # Values on the cycle's grid (exact ties with a uniform), the
        # ends of the range, and a few off-grid ones.
        palette = [0.0, 0.5, 1.0, 1 / 3, float(rng.random())]
        shape = (rows, 1) if row_values else (1, channels)
        values = rng.choice(palette, size=shape)
        # A shared bank builds its source from one row of seeds.
        built = base_seeds[:1] if shared else base_seeds
        if kind == "lfsr":
            source = PackedLfsrSource.create(
                derive_lfsr_seeds(built, channels, width), values, width
            )
        else:
            source = PackedSobolSource.create(
                derive_sobol_offsets(built, channels), values, width
            )
        assert source is not None
        distinct = np.unique(values).size
        assert source._packed_cycles.shape == (
            distinct,
            -(-(period + 64) // 64),
        )
        words = source.take(offset, count)
        uniforms = _UniformCursor(kind, base_seeds, channels, width).take(
            offset, count
        )
        expected = pack_bits(uniforms < values[..., None])
        assert np.array_equal(
            np.broadcast_to(words, expected.shape), expected
        )


@dataclasses.dataclass
class _Held:
    array: np.ndarray
    pair: tuple


class _Opaque:
    def __init__(self):
        self.array = np.zeros(3)


class _Named(NamedTuple):
    array: np.ndarray
    count: int


class TestBoundedCache:
    """The package's one memo helper (``repro._memo``)."""

    def test_builds_are_frozen_and_other_objects_left_alone(self):
        cache = _memo._BoundedCache(16)
        inner = [np.zeros(1)]
        named = _Named(np.zeros(2), 2)
        held = _Held(np.zeros(2), (np.zeros(1), "x"))
        cases = {
            "array": (np.zeros(3), lambda v: [v]),
            "tuple": ((np.zeros(2), 7), lambda v: [v[0]]),
            "list": ([np.zeros(2), inner], lambda v: [v[0], v[1][0]]),
            "namedtuple": (named, lambda v: [v.array]),
            "dataclass": (held, lambda v: [v.array, v.pair[0]]),
        }
        for key, (value, arrays_of) in cases.items():
            assert cache.get(key, lambda: value) is value
            for array in arrays_of(value):
                assert not array.flags.writeable, key
                with pytest.raises(ValueError):
                    array[0] = 1
            assert cache.get(key, lambda: None) is value
        opaque = cache.get("object", _Opaque)
        assert opaque.array.flags.writeable
        assert cache.get("object", _Opaque) is opaque

    def test_unstored_scan_resistant_miss_is_frozen(self):
        cache = _memo._BoundedCache(10, scan_resistant=True)
        value = cache.get("once", lambda: (np.zeros(4), [np.ones(2)]))
        assert len(cache) == 0  # seen once: returned, not stored
        assert not value[0].flags.writeable
        assert not value[1][0].flags.writeable
        big = _memo._BoundedCache(1, lambda value: value.size)
        over = big.get("k", lambda: np.zeros(4))
        assert len(big) == 0 and not over.flags.writeable

    def test_lru_evicts_least_recently_used(self):
        cache = _memo._BoundedCache(2)
        for key in ("a", "b"):
            cache.get(key, lambda: object())
        kept = cache.get("a", lambda: object())
        cache.get("c", lambda: object())  # evicts "b", the LRU entry
        assert set(cache._entries) == {"a", "c"}
        assert cache.get("a", lambda: object()) is kept
        assert (cache.hits, cache.misses) == (2, 3)

    def test_failed_build_stores_nothing(self):
        cache = _memo._BoundedCache(2)

        def boom():
            raise ValueError("no")

        for _ in range(2):
            with pytest.raises(ValueError):
                cache.get("k", boom)
        assert len(cache) == 0

    def test_scan_resistant_admits_on_second_miss_and_never_evicts(self):
        cache = _memo._BoundedCache(
            10, lambda value: len(value), scan_resistant=True
        )
        first = cache.get("a", lambda: "x" * 4)
        assert len(cache) == 0  # a key seen once takes no room
        second = cache.get("a", lambda: "y" * 4)
        assert cache.get("a", lambda: "z") is second is not first
        for key in ("b", "b", "c", "c"):
            cache.get(key, lambda: "w" * 4)
        # "b" fit (8 of 10), "c" did not: refused, "a" kept.
        assert set(cache._entries) == {"a", "b"} and cache.total == 8
        cache.clear()
        assert (len(cache), cache.total, cache.hits) == (0, 0, 0)

    @pytest.mark.parametrize("scan_resistant", [False, True])
    def test_threads_lose_no_update(self, scan_resistant):
        cache = _memo._BoundedCache(
            12, lambda value: len(value), scan_resistant=scan_resistant
        )
        calls = 3000
        wrong = []

        def hammer(worker):
            for i in range(calls):
                key = (worker + i) % 13
                value = cache.get(key, lambda: "x" * (1 + key % 5))
                if value != "x" * (1 + key % 5):
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(w,)) for w in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert cache.hits + cache.misses == 8 * calls
        sizes = sum(size for _, size in cache._entries.values())
        assert cache.total == sizes <= cache.bound


class OverlappingCircuit(repro.OpticalStochasticCircuit):
    """The base circuit's design point and fingerprint, with a closed eye."""

    def link_budget(self):
        budget = super().link_budget()
        # Pull the '1' band down onto the '0' band: closed eye.
        return dataclasses.replace(
            budget,
            one_band_mw=(budget.zero_band_mw[0], budget.one_band_mw[1]),
        )


class TestBuildOnceTables:
    """The LFSR cycle, Sobol cycle and popcount tables: built once, frozen."""

    @pytest.mark.parametrize(
        "table",
        [
            lambda: _cycle_tables(12, MAXIMAL_TAPS[12]),
            lambda: kernels._sobol_cycle_uniforms(12),
            kernels._popcount_lut,
        ],
        ids=["lfsr-cycle", "sobol-cycle", "popcount-lut"],
    )
    def test_second_call_returns_the_same_read_only_table(self, table):
        first = table()
        assert table() is first
        arrays = first if isinstance(first, tuple) else (first,)
        assert not any(array.flags.writeable for array in arrays)

    def test_no_built_in_width_is_evicted(self):
        lfsr_keys = [w for w in MAXIMAL_TAPS if w <= _TABLE_MAX_WIDTH]
        sobol_keys = range(kernels._SOBOL_CYCLE_MAX_WIDTH + 1)
        assert max(len(lfsr_keys), len(sobol_keys)) <= _TABLE_ENTRIES


class TestPassContextMemoization:
    def test_context_cached_per_fingerprint(self, circuit):
        kernels.clear_pass_context_cache()
        first = pass_context(circuit)
        assert pass_context(circuit) is first
        twin = repro.OpticalStochasticCircuit(
            repro.paper_section5a_parameters(),
            repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
        )
        # Equal design point => same cached context, no rebuild.
        assert pass_context(twin) is first
        other = repro.OpticalStochasticCircuit(
            repro.paper_section5a_parameters(),
            repro.BernsteinPolynomial([0.3, 0.6, 0.4]),
        )
        assert pass_context(other) is not first

    def test_fingerprint_computed_once_and_shared(self):
        def build():
            return repro.OpticalStochasticCircuit(
                repro.paper_section5a_parameters(),
                repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
            )

        kernels.clear_pass_context_cache()
        first, twin = build(), build()
        digest = first.fingerprint()
        # Hashed once per instance: later calls return the stored digest.
        assert first.fingerprint() is digest
        assert twin.fingerprint() == digest
        assert pass_context(twin) is pass_context(first)

    def test_cached_pass_is_bit_identical(self, circuit):
        # The memoized receiver/table must produce exactly the bits the
        # rebuilt-per-call path produced (same schedule, fresh cache vs
        # warm cache).
        xs = np.linspace(0, 1, 6)
        schedule = derive_seed_schedule(xs.size, np.random.default_rng(4))
        kernels.clear_pass_context_cache()
        cold = simulate_batch(circuit, xs, length=256, schedule=schedule)
        warm = simulate_batch(circuit, xs, length=256, schedule=schedule)
        assert_batches_equal(cold, warm)

    def test_overlapping_bands_raise_every_call(self, circuit):
        # Failed context builds must not be cached: the engine keeps
        # raising SimulationError for an undecodable design point.  The
        # cache key includes the circuit's concrete type, so even a
        # subclass sharing the healthy fixture's exact design point
        # (identical fingerprint) never reuses its cached context.
        kernels.clear_pass_context_cache()
        simulate_batch(circuit, [0.5], length=64)  # warm the healthy key
        bad = OverlappingCircuit(circuit.params, circuit.polynomial)
        assert bad.fingerprint() == circuit.fingerprint()
        assert not bad.link_budget().bands_separated
        for kernel_pass in reference.PASSES:
            with reference.running(kernel_pass):
                for _ in range(2):
                    with pytest.raises(repro.SimulationError, match="overlap"):
                        simulate_batch(bad, [0.5], length=64)

    def test_evaluation_cache_keys_on_circuit_type(self, circuit):
        # Both caches key a circuit on its type and fingerprint: a cache
        # the healthy circuit warmed must not serve the closed-eye
        # subclass, which raises uncached.
        cache = EvaluationCache()
        config = RuntimeConfig(cache=cache)
        run_batch(circuit, [0.5], length=64, base_seed=1, config=config)
        bad = OverlappingCircuit(circuit.params, circuit.polynomial)
        with pytest.raises(repro.SimulationError, match="overlap"):
            run_batch(bad, [0.5], length=64, base_seed=1, config=config)
        assert cache.hits == 0 and cache.misses == 2
        run_batch(circuit, [0.5], length=64, base_seed=1, config=config)
        assert cache.hits == 1


# The noisy axis of the parity matrices: the paper's Section V-A circuit
# noisy and noiseless (where noise flips about 1e-111 of decisions), and
# the mid-SNR circuit noisy, where it flips a few percent.
NOISY_AXIS = pytest.mark.parametrize(
    "noisy, design",
    [(True, "circuit"), (False, "circuit"), (True, "mid_snr")],
    ids=["True", "False", "mid-snr"],
)


class TestKernelParity:
    @pytest.mark.parametrize("sng_kind", SNG_KINDS)
    @NOISY_AXIS
    def test_one_shot_parity_schedule(
        self, request, flipped_decisions, sng_kind, noisy, design
    ):
        circuit = request.getfixturevalue(design)
        xs = np.linspace(0, 1, 6)
        # 300 is neither a multiple of 64 nor below one word.
        schedule = derive_seed_schedule(
            xs.size, np.random.default_rng(13), sng_kind=sng_kind
        )
        options = dict(length=300, sng_kind=sng_kind, schedule=schedule)
        with reference.installed():
            expected = simulate_batch(circuit, xs, noisy=noisy, **options)
        assert_batches_equal(
            expected, simulate_batch(circuit, xs, noisy=noisy, **options)
        )
        if design == "mid_snr":
            assert flipped_decisions(circuit, xs, **options) > 0

    # 70_001 runs the whole pipeline across the LFSR's 2**16 - 1 wrap.
    @pytest.mark.parametrize(
        "length", [1, 2, 40, 63, 64, 65, 128, 1000, 70_001]
    )
    def test_one_shot_parity_tails(self, circuit, length):
        xs = np.linspace(0, 1, 5)
        schedule = derive_seed_schedule(xs.size, np.random.default_rng(7))
        with reference.installed():
            expected = simulate_batch(
                circuit, xs, length=length, schedule=schedule
            )
        assert_batches_equal(
            expected,
            simulate_batch(circuit, xs, length=length, schedule=schedule),
        )

    @pytest.mark.parametrize("sng_kind", ["lfsr", "sobol"])
    def test_one_shot_parity_rng_protocol(self, circuit, sng_kind):
        # Without a schedule the engine consumes the caller's rng; the
        # pass must not perturb that consumption order.
        xs = np.linspace(0, 1, 4)

        def run():
            return simulate_batch(
                circuit,
                xs,
                length=200,
                rng=np.random.default_rng(21),
                sng_kind=sng_kind,
            )

        with reference.installed():
            expected = run()
        assert_batches_equal(expected, run())

    @pytest.mark.parametrize("sng_width", [5, 8, 16])
    def test_one_shot_parity_base_seed_and_width(self, circuit, sng_width):
        xs = np.linspace(0, 1, 4)
        options = dict(length=500, base_seed=42, sng_width=sng_width)
        with reference.installed():
            expected = simulate_batch(circuit, xs, **options)
        assert_batches_equal(expected, simulate_batch(circuit, xs, **options))


# The trajectory scenario of test_faultmodel's tile-stitching test:
# flips, a steep drift ramp, decay and a shift.
TRAJECTORY = FaultSpec(
    flip_probability=0.02,
    drift_ramp_per_mclock=200.0,
    decay_tau_clocks=500,
    shift_clocks=9,
)


class TestRuntimeComposition:
    @pytest.mark.parametrize("sng_kind", SNG_KINDS)
    @NOISY_AXIS
    @pytest.mark.parametrize(
        "fault", [None, TRAJECTORY], ids=["clean", "trajectory"]
    )
    # 96-clock tiles are deliberately not 64-aligned; 1-, 3- and 7-clock
    # tiles split every word, over a 130-clock stream that ends two
    # clocks into its third word.
    @pytest.mark.parametrize(
        "length, chunk_length",
        [(1000, 96), (130, 1), (130, 3), (130, 7)],
        ids=["chunk96", "chunk1", "chunk3", "chunk7"],
    )
    def test_chunked_statistics_parity(
        self,
        request,
        flipped_decisions,
        sng_kind,
        noisy,
        design,
        fault,
        length,
        chunk_length,
    ):
        circuit = request.getfixturevalue(design)
        xs = np.linspace(0.05, 0.95, 4)
        schedule = derive_seed_schedule(
            xs.size, np.random.default_rng(31), sng_kind=sng_kind
        )
        seeded = dict(
            length=length, sng_kind=sng_kind, schedule=schedule, fault=fault
        )
        options = dict(noisy=noisy, **seeded)
        if design == "mid_snr":
            assert flipped_decisions(circuit, xs, **seeded) > 0

        def chunked():
            return simulate_chunked(
                circuit,
                xs,
                chunk_length=chunk_length,
                power_histogram_bins=16,
                workers=0,
                **options,
            )

        one_shot = simulate_batch(circuit, xs, **options)
        with reference.installed():
            expected = chunked()
        statistics = chunked()
        assert np.array_equal(
            statistics.ones_count, one_shot.output_bits.sum(axis=1)
        )
        assert np.array_equal(statistics.ones_count, expected.ones_count)
        assert np.array_equal(
            statistics.transmission_bit_errors,
            expected.transmission_bit_errors,
        )
        assert np.array_equal(
            statistics.power_histogram, expected.power_histogram
        )
        assert np.array_equal(
            statistics.power_bin_edges, expected.power_bin_edges
        )

    def test_sharded_parity(self, circuit):
        xs = np.linspace(0, 1, 8)
        schedule = derive_seed_schedule(xs.size, np.random.default_rng(5))
        with reference.installed():
            serial = simulate_batch(circuit, xs, length=400, schedule=schedule)
        sharded = simulate_chunked(
            circuit,
            xs,
            length=400,
            chunk_length=400,
            schedule=schedule,
            workers=2,
            backend="thread",
        )
        assert_statistics_match(serial, sharded)

    def test_run_batch_strategy_never_changes_bits(self, circuit):
        xs = np.linspace(0, 1, 6)

        def run(**config):
            return run_batch(
                circuit,
                xs,
                length=512,
                base_seed=9,
                config=RuntimeConfig(**config),
            )

        with reference.installed():
            expected = run()
            chunked_expected = run(chunk_length=128)
        assert_batches_equal(expected, run())
        assert_statistics_match(expected, run(workers=2, backend="thread"))
        chunked = run(chunk_length=128)
        assert np.array_equal(chunked.ones_count, chunked_expected.ones_count)
        assert np.array_equal(chunked.values, expected.values)

    def test_cache_entries_shared_across_kernels(self, circuit):
        # The kernel is excluded from the cache key on purpose: results
        # are bit-identical, so a production request may serve an entry
        # the reference pass computed, by identity.
        from repro.simulation.runtime import EvaluationCache

        cache = EvaluationCache()
        with reference.installed():
            first = run_batch(
                circuit,
                [0.5],
                length=128,
                base_seed=5,
                config=RuntimeConfig(cache=cache),
            )
        second = run_batch(
            circuit,
            [0.5],
            length=128,
            base_seed=5,
            config=RuntimeConfig(cache=cache, kernel="packed"),
        )
        assert second is first
        assert cache.hits == 1


class TestSessionAndServing:
    def test_evaluator_kernel_parity(self, circuit):
        spec = repro.EvalSpec(length=256, base_seed=11, noisy=False)
        session = repro.Evaluator(circuit, spec)
        other = session.with_kernel("packed")
        assert session.kernel == other.kernel == "packed"
        assert other.spec is session.spec
        xs = np.linspace(0, 1, 16)
        with reference.installed():
            expected = session.evaluate(xs)
        assert_batches_equal(expected, other.evaluate(xs))

    @pytest.mark.parametrize(
        "batch, length, noisy, base_seed",
        [
            (16, 1 << 14, True, None),
            (1, 4096, False, 2019),
            (2, 4096, False, 2019),
            (4, 4096, False, 2019),
        ],
        ids=["oneshot-default", "serve-open-1", "serve-open-2", "serve-open-4"],
    )
    def test_benchmark_shapes_match_reference(
        self, batch, length, noisy, base_seed
    ):
        # The shapes, circuit and seed policies of the repository
        # benchmark's oneshot-default and serve-open workloads: the
        # default session's every per-clock field equals the reference
        # pass's.
        circuit = repro.OpticalStochasticCircuit.from_design(
            repro.mrr_first_design(order=2, wl_spacing_nm=1.0),
            repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
        )
        session = repro.Evaluator(
            circuit,
            repro.EvalSpec(length=length, noisy=noisy, base_seed=base_seed),
        )
        xs = np.random.default_rng([batch, length]).random(batch)

        def evaluate():
            rng = None if base_seed is not None else np.random.default_rng(7)
            return session.evaluate(xs, rng=rng)

        with reference.installed():
            expected = evaluate()
        production = evaluate()
        for field in (
            "values",
            "output_bits",
            "ideal_bits",
            "select_levels",
            "received_power_mw",
        ):
            assert np.array_equal(
                getattr(expected, field), getattr(production, field)
            ), field

    @pytest.mark.parametrize(
        "batch, length, base_seed, owner, name",
        [
            (16, 1 << 14, None, engine, "lfsr_uniform_windows"),
            (1, 4096, 11, kernels.PackedLfsrSource, "create"),
        ],
        ids=["long-reads-cycle", "short-gathers"],
    )
    def test_default_call_takes_its_side_of_the_size_rule(
        self, circuit, monkeypatch, batch, length, base_seed, owner, name
    ):
        # A default 16 x 2**14 call never gathers float uniforms, and a
        # one-input serving call never packs a 2**16-clock cycle.
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(owner, name, forbidden)
        spec = repro.EvalSpec(length=length, base_seed=base_seed)
        result = repro.Evaluator(circuit, spec).evaluate(
            np.linspace(0.05, 0.95, batch)
        )
        assert result.values.shape == (batch,)

    def test_with_kernel_validates(self, circuit):
        session = repro.Evaluator(circuit, repro.EvalSpec(length=64))
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            session.with_kernel("bogus")

    def test_served_bits_identical_across_kernels(self, circuit):
        import asyncio

        spec = repro.EvalSpec(length=128, base_seed=17, noisy=False)
        xs = [0.1, 0.4, 0.8]

        async def serve(evaluator):
            async with repro.BatchServer(evaluator) as server:
                return await server.submit_many(xs)

        with reference.installed():
            expected = asyncio.run(serve(repro.Evaluator(circuit, spec)))
        assert asyncio.run(serve(repro.Evaluator(circuit, spec))) == expected


class TestSharedSeedBanks:
    """A bank whose rows share one seed is built from that one row.

    Under a fixed ``base_seed`` every row of a bank has the same seeds,
    so its starts are computed for one row and the coefficient words are
    one row broadcast to all.  The reference is the same schedule run
    one row at a time, where each run builds its own one-row banks.
    Width 8 puts every bank on the packed-cycle side (its 255-clock
    period wraps inside the 300-clock stream), width 16 on the gather
    side.
    """

    STUCK = FaultSpec(stuck_channel=0, stuck_value=1)
    XS = np.asarray([0.1, 0.45, 0.8])
    LENGTH = 300

    def _per_row(self, circuit, options):
        schedule = derive_seed_schedule(
            self.XS.size, sng_kind=options["sng_kind"], base_seed=2019
        )
        return [
            simulate_batch(
                circuit,
                self.XS[row : row + 1],
                schedule=schedule.shard(row, row + 1),
                **options,
            )
            for row in range(self.XS.size)
        ]

    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("fault", [None, STUCK], ids=["clean", "stuck"])
    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "noiseless"])
    @pytest.mark.parametrize("sng_kind", SNG_KINDS)
    def test_fixed_seed_equals_row_by_row(
        self, mid_snr, sng_kind, noisy, fault, width
    ):
        options = dict(
            length=self.LENGTH,
            noisy=noisy,
            sng_kind=sng_kind,
            sng_width=width,
            fault=fault,
        )
        rows = self._per_row(mid_snr, options)
        one_shot = simulate_batch(mid_snr, self.XS, base_seed=2019, **options)
        for field in BATCH_FIELDS:
            assert np.array_equal(
                getattr(one_shot, field),
                np.concatenate([getattr(row, field) for row in rows]),
            ), field
        ones = np.concatenate([row.output_bits.sum(axis=1) for row in rows])
        errors = np.concatenate([row.transmission_bit_errors for row in rows])
        if noisy:
            assert np.any(errors)
        for chunk_length in (1, 7, 64, 65):
            chunked = simulate_chunked(
                mid_snr,
                self.XS,
                chunk_length=chunk_length,
                base_seed=2019,
                workers=0,
                **options,
            )
            assert np.array_equal(chunked.ones_count, ones), chunk_length
            assert np.array_equal(
                chunked.transmission_bit_errors, errors
            ), chunk_length

    @pytest.mark.parametrize("sng_kind", SNG_KINDS)
    def test_two_workers_equal_serial(self, mid_snr, sng_kind):
        options = dict(
            length=1000,
            chunk_length=333,
            sng_kind=sng_kind,
            base_seed=2019,
            fault=self.STUCK,
            power_histogram_bins=8,
        )
        xs = np.linspace(0.05, 0.95, 5)
        serial = simulate_chunked(mid_snr, xs, workers=0, **options)
        sharded = simulate_chunked(
            mid_snr, xs, workers=2, backend="thread", **options
        )
        for field in ("ones_count", "transmission_bit_errors", "power_histogram"):
            assert np.array_equal(
                getattr(serial, field), getattr(sharded, field)
            ), field

    def test_fixed_seed_stream_builds_each_bank_from_one_row(
        self, circuit, monkeypatch
    ):
        # Both banks of a fixed-seed call reach the cycle source with one
        # row of seeds; an rng-seeded call still passes every row.
        shapes = []
        create = PackedLfsrSource.create.__func__

        def spy(cls, seeds, values, width):
            shapes.append(np.shape(seeds))
            return create(cls, seeds, values, width)

        monkeypatch.setattr(PackedLfsrSource, "create", classmethod(spy))
        xs = np.linspace(0.05, 0.95, 4)
        config = RuntimeConfig(workers=0)

        def stream(**spec):
            session = repro.Evaluator(
                circuit, repro.EvalSpec(length=1 << 16, **spec), config
            )
            rng = None if "base_seed" in spec else np.random.default_rng(1)
            return session.stream(xs, chunk_length=1 << 14, rng=rng)

        fixed = stream(base_seed=2019)
        assert shapes == [(1, 2), (1, 3)]
        shapes.clear()
        stream()
        assert shapes == [(4, 2), (4, 3)]
        assert fixed.values.shape == (4,)

    def test_row_invariant_words_are_a_broadcast_view(self):
        base_seeds = np.full(4, 2019)
        coefficients = np.array([[0.25, 0.625, 0.375]])
        bank = _PackedCursor("lfsr", base_seeds, 3, 16, coefficients, 1 << 16)
        words = bank.take(0, 1 << 10)
        assert words.shape == (4, 3, 16)
        assert words.strides[0] == 0 and not words.flags.writeable
        uniforms = _UniformCursor("lfsr", base_seeds, 3, 16).take(0, 1 << 10)
        assert np.array_equal(
            words, pack_bits(uniforms < coefficients[..., None])
        )
