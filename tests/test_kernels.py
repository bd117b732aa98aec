"""Tests for the compute-kernel layer (repro.simulation.kernels).

The contract under test: the packed pass is **bit-for-bit identical**
to the byte-wise reference pass of ``tests/packed_reference.py`` for
all four SNG kinds, noisy and noiseless, one-shot and composed with the
chunking/sharding runtime.  Each parity case runs its reference side
inside ``reference.installed()`` and its production side as shipped.
``kernel="numpy"`` is a deprecated alias that warns and changes no bit.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
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
    KERNELS,
    PackedChaoticSource,
    PackedLfsrSource,
    PackedSobolSource,
    available_kernels,
    kernel_capabilities,
    pack_bits,
    packed_lfsr_comparator_bits,
    pass_context,
    popcount,
    resolve_kernel,
    unpack_bits,
)
from repro.simulation.runtime import (
    RuntimeConfig,
    run_batch,
    simulate_chunked,
)
from repro.stochastic.lfsr import lfsr_uniform_windows
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


class TestRegistry:
    def test_registry_names(self):
        assert KERNELS == ("packed",)
        assert available_kernels() == KERNELS
        assert RuntimeConfig().kernel == "packed"

    def test_resolve_unknown_kernel(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            resolve_kernel("gpu")

    def test_capabilities_cover_registry(self):
        table = kernel_capabilities()
        assert set(table) == set(KERNELS)
        assert table["packed"]["available"] is True
        assert table["packed"]["bit_tensor_bytes_per_bit"] == pytest.approx(
            1 / 8
        )

    def test_runtime_config_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            RuntimeConfig(kernel="bogus")

    def test_simulate_batch_rejects_unknown_kernel(self, circuit):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            simulate_batch(circuit, [0.5], length=64, kernel="bogus")

    def test_pool_backend_and_kernel_are_distinct_knobs(self):
        # Naming hygiene: `backend` picks the worker pool, `kernel` the
        # compute implementation; both validate at construction.
        config = RuntimeConfig(backend="thread", kernel="packed")
        assert config.backend == "thread"
        assert config.kernel == "packed"
        with pytest.raises(ConfigurationError, match="unknown backend"):
            RuntimeConfig(backend="packed")


ALIAS_WARNING = "kernel='numpy' is deprecated"


def _alias_run(circuit, spelling, alias):
    """One evaluation through *spelling*, with the numpy alias or without."""
    kernel = {"kernel": "numpy"} if alias else {}
    xs = np.linspace(0.05, 0.95, 4)
    spec = repro.EvalSpec(length=300)
    if spelling == "RuntimeConfig":
        session = repro.Evaluator(circuit, spec, RuntimeConfig(**kernel))
        return session.evaluate(xs, rng=np.random.default_rng(3))
    if spelling == "with_kernel":
        session = repro.Evaluator(circuit, spec)
        if alias:
            session = session.with_kernel("numpy")
        return session.evaluate(xs, rng=np.random.default_rng(3))
    if spelling == "simulate_batch":
        return simulate_batch(
            circuit, xs, length=300, rng=np.random.default_rng(3), **kernel
        )
    return simulate_chunked(
        circuit,
        xs,
        length=300,
        chunk_length=96,
        rng=np.random.default_rng(3),
        power_histogram_bins=8,
        workers=0,
        **kernel,
    )


class TestDeprecatedNumpyAlias:
    """``kernel="numpy"`` warns once per spelling and never changes a bit."""

    @pytest.mark.parametrize(
        "spelling",
        ["RuntimeConfig", "with_kernel", "simulate_batch", "simulate_chunked"],
    )
    def test_alias_warns_and_matches_the_default(self, circuit, spelling):
        with pytest.warns(DeprecationWarning, match=ALIAS_WARNING) as record:
            aliased = _alias_run(circuit, spelling, alias=True)
        assert len(record) == 1
        default = _alias_run(circuit, spelling, alias=False)
        if spelling == "simulate_chunked":
            assert np.array_equal(aliased.ones_count, default.ones_count)
            assert np.array_equal(
                aliased.transmission_bit_errors,
                default.transmission_bit_errors,
            )
            assert np.array_equal(
                aliased.power_histogram, default.power_histogram
            )
        else:
            assert_batches_equal(default, aliased)

    def test_cli_alias_warns_and_matches_the_default(self, capsys):
        from repro.experiments.__main__ import main

        argv = ["accuracy", "--sng-kind", "lfsr", "--length", "256"]
        with pytest.warns(DeprecationWarning, match=ALIAS_WARNING) as record:
            assert main(argv + ["--kernel", "numpy"]) == 0
        assert len(record) == 1
        aliased = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == aliased
        assert main(argv + ["--kernel", "bogus"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_config_stores_the_resolved_kernel(self):
        with pytest.warns(DeprecationWarning, match=ALIAS_WARNING):
            config = RuntimeConfig(kernel="numpy")
        assert config.kernel == "packed"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dataclasses.replace(config, workers=0)

    def test_alias_is_an_error_under_the_suite_filter(self):
        # pyproject.toml's filterwarnings makes the alias an error, so no
        # test or example run under pytest can lean on it unnoticed.
        with pytest.raises(DeprecationWarning, match=ALIAS_WARNING):
            RuntimeConfig(kernel="numpy")


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
    """``take`` reads cycle words with one flat gather per half-window.

    Parity against the two 2-D row/word gathers it replaced, over
    windows that cross the cycle's wrap, end mid-word and run longer
    than the period.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.sampled_from([5, 8, 16]),
        kind=st.sampled_from(["lfsr", "sobol"]),
        before_wrap=st.integers(min_value=-70, max_value=200),
        count=st.integers(min_value=1, max_value=3 * (1 << 16)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_take_matches_row_word_gather(
        self, width, kind, before_wrap, count, seed
    ):
        rng = np.random.default_rng(seed)
        period = (1 << width) - 1 if kind == "lfsr" else 1 << width
        starts = rng.integers(1, 1 << width, size=(3, 2))
        # Few distinct values, so streams share cycle rows.
        values = rng.choice([0.125, 0.5, 0.875], size=(3, 2))
        create = PackedLfsrSource if kind == "lfsr" else PackedSobolSource
        source = create.create(starts, values, width)
        assert source is not None
        # A window starting just before (or past) the first wrap.
        offset = max(period - before_wrap, 0)
        count = min(count, 4 * period + 67)
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
        class OverlappingCircuit(repro.OpticalStochasticCircuit):
            def link_budget(self):
                budget = super().link_budget()
                # Pull the '1' band down onto the '0' band: closed eye.
                return dataclasses.replace(
                    budget,
                    one_band_mw=(
                        budget.zero_band_mw[0],
                        budget.one_band_mw[1],
                    ),
                )

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


class TestKernelParity:
    @pytest.mark.parametrize("sng_kind", SNG_KINDS)
    @pytest.mark.parametrize("noisy", [True, False])
    def test_one_shot_parity_schedule(self, circuit, sng_kind, noisy):
        xs = np.linspace(0, 1, 6)
        # 300 is neither a multiple of 64 nor below one word.
        schedule = derive_seed_schedule(
            xs.size, np.random.default_rng(13), sng_kind=sng_kind
        )
        options = dict(
            length=300, noisy=noisy, sng_kind=sng_kind, schedule=schedule
        )
        with reference.installed():
            expected = simulate_batch(circuit, xs, **options)
        assert_batches_equal(expected, simulate_batch(circuit, xs, **options))

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
    @pytest.mark.parametrize("noisy", [True, False])
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
        self, circuit, sng_kind, noisy, fault, length, chunk_length
    ):
        xs = np.linspace(0.05, 0.95, 4)
        schedule = derive_seed_schedule(
            xs.size, np.random.default_rng(31), sng_kind=sng_kind
        )
        options = dict(
            length=length,
            noisy=noisy,
            sng_kind=sng_kind,
            schedule=schedule,
            fault=fault,
        )

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
