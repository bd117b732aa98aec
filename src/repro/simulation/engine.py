"""Batched vectorized evaluation engine: many inputs, one array pass.

The bit-level functional simulation of Fig. 3 is embarrassingly batchable:
every stage — randomizer sampling, the optical adder, the Eq. 6 pattern
table, the threshold receiver — is expressible as array operations over a
``(batch, length)`` bit tensor.  :func:`simulate_batch` evaluates a whole
vector of inputs in one such pass:

1. a :class:`SeedSchedule` gives every evaluation row its
   ``(data seed, coeff seed, noise seed)`` triple, derived from the
   caller's ``rng`` (or a fixed ``base_seed``);
2. data and coefficient streams are generated array-first as packed
   ``uint64`` comparator words, 64 clocks per word (:class:`_StreamSource`);
3. the packed optical pass stays on those words: the adder level is a
   bit-sliced sum, and the receiver's noiseless decision the word-level
   multiplexer of the coefficient words by it; per-clock powers and
   levels (Eq. 6 table lookups) are decoded only when a caller reads them;
4. Gaussian receiver noise enters as sparse flips of those decisions —
   each row's candidate flip clocks are gap-sampled from its private
   generator seeded by the schedule (:class:`_NoiseFlips`), so a call
   draws normals in proportion to the flips the noise can make, not to
   the clocks.

The runtime's tile loop (:func:`repro.simulation.runtime.simulate_chunked`)
runs the same steps window by window, so a one-shot call and a
single-tile ``run_batch`` under the same ``rng`` return the same bits.
:func:`repro.simulation.runtime.run_batch` is this function's one caller
in the package: every evaluation — ``Evaluator.evaluate``,
``circuit.evaluate`` / ``evaluate_batch`` — enters there.  The schedule
consumes ``rng`` row by row, so looping single-input evaluations over
``xs`` with one ``rng`` gives exactly the rows of one
``simulate_batch(circuit, xs, rng=rng)`` call.

The fields of a design point — ``length``, ``sng_kind``, ``sng_width``,
``noisy``, ``base_seed``, ``fault`` — have one rule book,
:func:`_check_eval_fields`: :class:`repro.session.EvalSpec`, ``run_batch``,
:func:`simulate_batch` and ``simulate_chunked`` all call it, so a value
one refuses, all refuse with the same
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..core.circuit import OpticalStochasticCircuit
from ..stochastic.bitstream import exact_bit_window
from ..stochastic.lfsr import (
    LFSR,
    MAXIMAL_TAPS,
    _TABLE_MAX_WIDTH,
    lfsr_uniform_windows,
)
from ..stochastic.sng import (
    SNG_KINDS,
    chaotic_orbit,
    chaotic_warmup,
    derive_chaotic_intensities,
    derive_lfsr_seeds,
    derive_sobol_offsets,
    van_der_corput,
)
from .faultmodel import FaultSpec, fault_channel_for, pin_stuck_words
from .kernels import (
    FlipCandidates,
    PackedChaoticSource,
    PackedLfsrSource,
    PackedSobolSource,
    PassWords,
    pack_bits,
    packed_optical_pass,
    pass_context,
)

# Not called in this module; bound because perfbench/tracing.py wraps
# these module attributes by name.
from .kernels import optical_pass, packed_lfsr_comparator_bits  # noqa: F401

__all__ = [
    "BatchEvaluation",
    "SeedSchedule",
    "derive_seed_schedule",
    "simulate_batch",
    "COEFF_SEED_STRIDE",
]

COEFF_SEED_STRIDE = 0x9E3779B9
"""Offset separating the coefficient-stream seed space from the data one."""

_DEFAULT_FIXED_SEED = 0x5EED
_NOISE_SEED_SPACE = 1 << 62
_NOISE_PROTOCOL = 2
"""Version of the receiver-noise bit protocol (part of the cache key).

1 drew one normal per clock and row; 2 draws the sparse gap-sampled
flips of :class:`_NoiseFlips`.  Noisy bits differ between versions.
"""
_FALLBACK_RNG_SEED = 0xD47E
"""Seed of the derivation rng when the caller passes neither rng nor seeds."""


def _per_clock(name: str, doc: str) -> "cached_property[np.ndarray[Any, Any]]":
    """A per-clock field of :class:`BatchEvaluation`, decoded on first read."""

    def decode(result: "BatchEvaluation") -> "np.ndarray[Any, Any]":
        if result.words is None:
            raise ConfigurationError(
                f"{name} is a per-clock field, which a tiled or sharded "
                "result does not keep; evaluate in one in-process tile"
            )
        array: "np.ndarray[Any, Any]" = getattr(result.words, name)()
        array.setflags(write=False)
        return array

    decode.__doc__ = doc
    return cached_property(decode)


@dataclass(frozen=True)
class BatchEvaluation:
    """Outcome of one batch of bit-level evaluations, one row per input.

    Every evaluation — one-shot, tiled or sharded — keeps ``O(B)``
    counts: per-row ``ones_count`` (``values`` is their fraction) and
    ``transmission_bit_errors`` (observed bits that differ from the
    ideal multiplexer's), plus a tiled run's optional power histogram.
    A one-shot (:func:`simulate_batch`) result also keeps the packed
    words of its pass (``words``), from which the four per-clock
    ``(B, stream_length)`` fields are decoded on first read, cached and
    read-only.  A tiled or sharded result keeps no words, so its shard
    pickles stay ``O(B)``; reading its per-clock fields raises
    :class:`ConfigurationError`.
    """

    xs: "np.ndarray[Any, Any]"
    expected: "np.ndarray[Any, Any]"
    stream_length: int
    chunk_length: int
    chunk_count: int
    ones_count: "np.ndarray[Any, Any]"
    transmission_bit_errors: "np.ndarray[Any, Any]"
    power_histogram: Optional["np.ndarray[Any, Any]"] = None
    power_bin_edges: Optional["np.ndarray[Any, Any]"] = None
    words: Optional[PassWords] = field(default=None, repr=False, compare=False)

    @property
    def batch_size(self) -> int:
        """Number of evaluations in the batch."""
        return int(self.xs.size)

    @property
    def values(self) -> "np.ndarray[Any, Any]":
        """Per-row de-randomized outputs (ones fraction)."""
        return self.ones_count / self.stream_length

    @property
    def absolute_errors(self) -> "np.ndarray[Any, Any]":
        """Per-row ``|value - expected|``."""
        return np.abs(self.values - self.expected)

    @property
    def transmission_ber(self) -> "np.ndarray[Any, Any]":
        """Per-row observed link bit-error rate."""
        return self.transmission_bit_errors / self.stream_length

    @property
    def mean_absolute_error(self) -> float:
        """Batch-mean ``|value - expected|`` (the accuracy-sweep metric)."""
        return float(np.mean(self.absolute_errors))

    received_power_mw = _per_clock(
        "received_power_mw", "Per-clock received power (mW), from Eq. 6."
    )
    output_bits = _per_clock("output_bits", "Per-clock observed bits (uint8).")
    ideal_bits = _per_clock(
        "ideal_bits", "Per-clock bits the ideal multiplexer selects (uint8)."
    )
    select_levels = _per_clock(
        "select_levels", "Per-clock adder level, the MZI ones count (int64)."
    )


def _derive_base_seeds(rng: np.random.Generator) -> Tuple[int, int]:
    """One (data, coefficient) base-seed pair, two draws from *rng*."""
    data = int(rng.integers(1, 1 << 31))
    coeff = int(rng.integers(1, 1 << 31))
    return data, coeff


@dataclass(frozen=True)
class SeedSchedule:
    """Explicit per-row seed material for one batch of evaluations.

    Every row of a batch is fully determined by its
    ``(data_seed, coeff_seed, noise_seed)`` triple (plus the input and
    the circuit), so a schedule makes the evaluation *relocatable*: the
    scaling runtime (:mod:`repro.simulation.runtime`) pre-derives one
    schedule from the caller's rng, then evaluates any row subset on any
    worker — or any chunk of the stream — and still reassembles results
    bit-for-bit identical to the serial one-shot call.

    ``noise_seeds[b]`` seeds a **fresh, private** generator for row
    ``b``'s receiver noise (``default_rng(noise_seeds[b])``), which is
    what lets chunked evaluation see the same noise in tiles: the row's
    flip candidates are drawn from it in blocks that depend only on the
    circuit, and a carried candidate buffer hands each tile the
    candidates that fall inside it.
    """

    data_seeds: "np.ndarray[Any, Any]"
    coeff_seeds: "np.ndarray[Any, Any]"
    noise_seeds: "np.ndarray[Any, Any]"

    def __post_init__(self) -> None:
        for name in ("data_seeds", "coeff_seeds", "noise_seeds"):
            array = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.int64))
            object.__setattr__(self, name, array)
        if not (
            self.data_seeds.shape
            == self.coeff_seeds.shape
            == self.noise_seeds.shape
        ) or self.data_seeds.ndim != 1:
            raise ConfigurationError(
                "schedule seed arrays must be 1-D and equally sized"
            )

    @property
    def batch_size(self) -> int:
        """Number of rows this schedule covers."""
        return int(self.data_seeds.size)

    def shard(self, start: int, stop: int) -> "SeedSchedule":
        """The sub-schedule for rows ``[start, stop)``."""
        if not 0 <= start < stop <= self.batch_size:
            raise ConfigurationError(
                f"invalid shard [{start}, {stop}) for batch of {self.batch_size}"
            )
        return SeedSchedule(
            data_seeds=self.data_seeds[start:stop],
            coeff_seeds=self.coeff_seeds[start:stop],
            noise_seeds=self.noise_seeds[start:stop],
        )

    def row_noise_rng(self, row: int) -> np.random.Generator:
        """The private receiver-noise generator of one row."""
        return np.random.default_rng(int(self.noise_seeds[row]))


def derive_seed_schedule(
    batch: int,
    rng: Optional[np.random.Generator] = None,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
) -> SeedSchedule:
    """Pre-draw the per-row seed triples for a *batch*-row evaluation.

    With ``base_seed`` given the schedule is **fully deterministic**
    (``rng`` is ignored): every row reuses the fixed SNG seed pair, and
    the noise seeds are derived from ``base_seed`` alone — this is what
    makes noisy runs cacheable.  Otherwise the per-row protocol consumes
    *rng* as ``(data seed, coeff seed, noise seed)`` per row.
    """
    batch = _positive_index("batch", batch)
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise ConfigurationError(
            f"rng must be a numpy Generator or None, got {rng!r}"
        )
    _check_sng_kind(sng_kind)
    base_seed = _check_base_seed(base_seed)
    seeded = sng_kind != "counter"
    data_seeds = np.empty(batch, dtype=np.int64)
    coeff_seeds = np.empty(batch, dtype=np.int64)
    noise_seeds = np.empty(batch, dtype=np.int64)
    if base_seed is not None:
        fixed = base_seed
        data_seeds[:] = fixed
        coeff_seeds[:] = fixed + COEFF_SEED_STRIDE
        noise_seeds[:] = np.random.default_rng(
            [fixed, _DEFAULT_FIXED_SEED]
        ).integers(0, _NOISE_SEED_SPACE, batch)
        return SeedSchedule(data_seeds, coeff_seeds, noise_seeds)
    rng = rng or np.random.default_rng(_FALLBACK_RNG_SEED)
    for row in range(batch):
        if seeded:
            data_seeds[row], coeff_seeds[row] = _derive_base_seeds(rng)
        else:
            data_seeds[row] = _DEFAULT_FIXED_SEED
            coeff_seeds[row] = _DEFAULT_FIXED_SEED + COEFF_SEED_STRIDE
        noise_seeds[row] = int(rng.integers(0, _NOISE_SEED_SPACE))
    return SeedSchedule(data_seeds, coeff_seeds, noise_seeds)


class _UniformCursor:
    """Resumable comparator-sample source for one seeded randomizer bank.

    The float reference of :class:`_PackedCursor`, and its window-gather
    side for short streams and registers beyond the cycle table.

    ``take(offset, count)`` returns the ``(B, channels, count)`` slab of
    uniforms covering stream clocks ``[offset, offset + count)`` — the
    same floats whether the stream is taken in one window or in tiles.
    Row ``b``, channel ``c`` holds exactly the samples the scalar path's
    ``make_independent_sngs(channels, kind, base_seed=base_seeds[b])[c]``
    compares against.  Table-cached LFSRs and Sobol streams are pure
    index maps, so any offset is a cheap re-aim; chaotic orbits and
    LFSRs too wide for the cycle table are iterated state machines, so
    the cursor carries their state forward (raw logistic-map
    intensities, live registers) and only supports sequential windows —
    re-stepping ``offset`` states per tile would make long streams
    quadratic.
    """

    def __init__(
        self, kind: str, base_seeds: Any, channel_count: int, width: int
    ) -> None:
        self._kind = kind
        self._seeds = np.asarray(base_seeds, dtype=np.int64)
        self._channels = int(channel_count)
        self._width = int(width)
        self._next_offset = 0
        self._registers: Optional[List[List[LFSR]]] = None
        if kind == "chaotic":
            self._state = derive_chaotic_intensities(
                self._seeds, self._channels
            )
            self._warmups = np.asarray(
                [chaotic_warmup(c) for c in range(self._channels)],
                dtype=np.int64,
            )[None, :]
        elif kind == "lfsr" and self._width > _TABLE_MAX_WIDTH:
            seeds = derive_lfsr_seeds(
                self._seeds, self._channels, self._width
            )
            self._registers = [
                [LFSR(self._width, int(seed)) for seed in row]
                for row in seeds
            ]

    def _check_sequential(self, offset: int) -> None:
        if offset != self._next_offset:
            raise ConfigurationError(
                "stateful streams resume sequentially: expected offset "
                f"{self._next_offset}, got {offset}"
            )

    def take(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        if self._registers is not None:
            # Wide registers step live state instead of replaying
            # `offset` states from the seed on every tile.
            self._check_sequential(offset)
            # Bounded (B, C, chunk) fallback tile for registers wider
            # than the cycle table — the packed sources cover every
            # standard width, so this never runs on the fast path.
            out = np.empty(  # repro-lint: disable=RL009
                (self._seeds.size, self._channels, count), dtype=float
            )
            for b, row in enumerate(self._registers):
                for c, register in enumerate(row):
                    out[b, c] = register.uniform(count)
            self._next_offset = offset + count
            return out
        if self._kind == "lfsr":
            seeds = derive_lfsr_seeds(self._seeds, self._channels, self._width)
            return lfsr_uniform_windows(
                seeds, count, self._width, offset=offset
            )
        if self._kind == "sobol":
            offsets = derive_sobol_offsets(self._seeds, self._channels)
            indices = offsets[:, :, None] + (
                offset + np.arange(count, dtype=np.int64)
            )
            return van_der_corput(indices, self._width)
        self._check_sequential(offset)
        warmups = self._warmups if offset == 0 else 0
        uniforms, self._state = chaotic_orbit(
            self._state, warmups, count, return_state=True
        )
        self._next_offset = offset + count
        return uniforms


_CYCLE_GATHER_RATIO = 3
"""Gather-to-cycle float ratio at which :class:`_PackedCursor` packs a cycle.

3 puts a default serving batch (B <= 4, L = 4096) on the gather side
for both banks and a 16 x 2**14 call on the cycle side.
"""


class _PackedCursor:
    """Resumable packed comparator-word source for one randomizer bank.

    ``take(offset, count)`` returns the ``(B, channels, ceil(count/64))``
    uint64 word slab covering stream clocks ``[offset, offset + count)``
    — bit-for-bit ``pack_bits(uniforms < values)`` of the window
    :class:`_UniformCursor` produces; the optical pass takes these words.
    Table-cached LFSR and Sobol banks read them straight off the packed
    cycle of each distinct value
    (:class:`repro.simulation.kernels.PackedLfsrSource` /
    :class:`~repro.simulation.kernels.PackedSobolSource`, built once and
    re-aimed per window) unless the stream is short: packing the cycles
    compares ``distinct values x 2**width`` floats, so when the
    ``rows x channels x length`` window floats number less than
    ``1 / _CYCLE_GATHER_RATIO`` of that, the bank gathers its windows
    through the unpacked cursor and compares and packs them — which
    also bounds that float tile.  The rule counts the bank's real rows.

    An LFSR or Sobol bank whose rows all share one seed (every
    fixed-``base_seed`` call) is built from that one row: its starts,
    positions and gathered uniforms are ``(1, channels, ...)`` and
    broadcast against the ``(B, channels)`` values.  When the values are
    row-invariant too (the coefficient bank), the words are one row,
    handed out as a read-only ``np.broadcast_to`` view.  The cycle
    source reads such a one-row bank's windows of up to two periods as
    contiguous slices of its packed cycles, one scalar shift per run of
    words between wraps; a bank of per-row seeds (an rng-seeded call)
    gathers one cycle position per word instead.  Both reads give the
    same bits.  Chaotic banks
    keep one carried orbit per row and pack blockwise off it
    (:class:`~repro.simulation.kernels.PackedChaoticSource`, sequential
    resume like the unpacked cursor); registers and widths beyond the
    cycle-table caps always gather.
    """

    def __init__(
        self,
        kind: str,
        base_seeds: Any,
        channel_count: int,
        width: int,
        values: Any,
        length: int,
    ) -> None:
        self._values = np.asarray(values, dtype=float)
        self._source: Optional[Any] = None
        self._cursor: Optional[_UniformCursor] = None
        seeds = np.asarray(base_seeds, dtype=np.int64)
        self._rows = int(seeds.size)
        if kind != "chaotic" and bool(np.all(seeds == seeds[0])):
            seeds = seeds[:1]
        # A set, not np.unique: a bank holds at most a batch of values.
        distinct = len(set(self._values.ravel().tolist()))
        gathered = self._rows * channel_count * int(length)
        cycle_pays = distinct << int(width) <= _CYCLE_GATHER_RATIO * gathered
        if kind == "lfsr" and cycle_pays:
            derived = derive_lfsr_seeds(seeds, channel_count, width)
            self._source = PackedLfsrSource.create(
                derived, self._values, width
            )
        elif kind == "sobol" and cycle_pays:
            offsets = derive_sobol_offsets(seeds, channel_count)
            self._source = PackedSobolSource.create(
                offsets, self._values, width
            )
        elif kind == "chaotic":
            self._source = PackedChaoticSource(
                seeds, self._values, channel_count
            )
        if self._source is None:
            self._cursor = _UniformCursor(kind, seeds, channel_count, width)

    def take(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        if self._source is not None:
            words = self._source.take(offset, count)
        else:
            assert self._cursor is not None
            uniforms = self._cursor.take(offset, count)
            words = pack_bits(uniforms < self._values[..., None])
        if words.shape[0] != self._rows:
            words = np.broadcast_to(words, (self._rows,) + words.shape[1:])
        return words


class _StreamSource:
    """The data and coefficient streams of one batch, window by window.

    ``take(start, count)`` returns ``(data_words, coeff_words)`` for
    stream clocks ``[start, start + count)``: the ``order`` data streams
    that drive the MZIs and the ``order + 1`` coefficient streams that
    drive the MRRs, as ``(B, C, ceil(count / 64))`` packed uint64 words
    (:func:`repro.simulation.kernels.pack_bits` layout) — the layout the
    optical pass takes.  A one-shot evaluation takes ``(0, length)``, the
    tile loop takes its tiles in order: seeded banks resume through
    their :class:`_PackedCursor`, the counter randomizer's deterministic
    streams are packed windows of :func:`exact_bit_window`.  A *fault*'s
    stuck MZI is pinned here, before the pass: it changes the select
    level, hence the powers and ideal decisions too.
    """

    def __init__(
        self,
        kind: str,
        schedule: SeedSchedule,
        xs: "np.ndarray[Any, Any]",
        coefficients: "np.ndarray[Any, Any]",
        width: int,
        length: int,
        fault: Optional[FaultSpec] = None,
    ) -> None:
        self._xs = xs
        self._coefficients = coefficients
        self._length = int(length)
        self._fault = fault
        order = coefficients.size - 1
        self._data_rows = (xs.size, order)
        self._coeff_rows = (xs.size, order + 1)
        self._banks: Optional[Tuple[_PackedCursor, _PackedCursor]] = None
        if kind != "counter":
            self._banks = (
                _PackedCursor(
                    kind, schedule.data_seeds, order, width, xs[:, None], length
                ),
                _PackedCursor(
                    kind,
                    schedule.coeff_seeds,
                    order + 1,
                    width,
                    coefficients[None, :],
                    length,
                ),
            )

    def take(
        self, start: int, count: int
    ) -> Tuple["np.ndarray[Any, Any]", "np.ndarray[Any, Any]"]:
        if self._banks is None:
            stop = start + count
            data = pack_bits(
                exact_bit_window(self._xs, self._length, start, stop)
            )
            coeff = pack_bits(
                exact_bit_window(self._coefficients, self._length, start, stop)
            )
            data_words = np.broadcast_to(
                data[:, None, :], self._data_rows + data.shape[-1:]
            )
            coeff_words = np.broadcast_to(
                coeff[None, :, :], self._coeff_rows + coeff.shape[-1:]
            )
        else:
            data_bank, coeff_bank = self._banks
            data_words = data_bank.take(start, count)
            coeff_words = coeff_bank.take(start, count)
        fault = self._fault
        if fault is not None and fault.stuck_channel is not None:
            data_words = pin_stuck_words(data_words, fault, count)
        return data_words, coeff_words


class _NoiseFlips:
    """Each row's receiver-noise flip candidates, window by window.

    Additive Gaussian current noise flips a clock's noiseless decision
    with a key-dependent probability ``p_k`` of about ``1e-6`` at the
    paper's BER target, so the sampler draws only the candidate flips
    (:class:`~repro.simulation.kernels.CircuitPassContext` holds the
    rates).  Every clock is a candidate with probability ``q = max
    p_k``, so the gaps between candidates are geometric: with the
    row's normals ``(z1, z2, z3)`` of RMS ``sigma``, ``E = (z1**2 +
    z2**2) / (2 sigma**2)`` is Exp(1) and the next candidate sits
    ``floor(E / lambda)`` clocks past the previous one's successor
    (``lambda = -log1p(-q)``); the kernel accepts it with probability
    ``p_k / q`` by comparing ``z3`` with the key's threshold.

    Row ``b`` draws its triples from its private generator
    ``schedule.row_noise_rng(b)`` in blocks of ``K`` (the context's
    ``flip_block``, a function of the circuit alone), once at
    construction — a zero-size draw when no key can flip — and again
    only when a window reaches past its carried candidate buffer.
    Candidates carry over from window to window, so a one-shot window
    and any tiling of the stream, on any row shard, see the same
    flips.  Positions are compared as floats before any integer cast:
    a gap past the stream end (``E / lambda`` can reach ``1e300`` at
    high SNR) ends the row's candidates.
    """

    def __init__(
        self,
        schedule: SeedSchedule,
        flat: Dict[str, Any],
        sigma: float,
        length: int,
    ) -> None:
        self._length = int(length)
        self._sigma = float(sigma)
        self._lambda = float(flat["flip_lambda"])
        self._block = int(flat["flip_block"])
        batch = schedule.batch_size
        self._rngs = [schedule.row_noise_rng(row) for row in range(batch)]
        # Per row: the last candidate clock drawn, whether more blocks
        # may follow it, the drawn candidates not yet taken (clocks as
        # exact float64 integers, and acceptance draws), and the first
        # of those clocks, or the stream length when none is left.
        self._last = np.full(batch, -1.0)
        self._open = np.ones(batch, dtype=bool)
        self._clocks: List["np.ndarray[Any, Any]"] = [np.empty(0)] * batch
        self._draws: List["np.ndarray[Any, Any]"] = [np.empty(0)] * batch
        self._next = np.full(batch, float(length))
        self._draw_blocks(list(range(batch)))

    def _draw_blocks(self, rows: List[int]) -> None:
        """Replace the pending candidates of *rows* by their next block."""
        block = self._block
        triples = np.stack(
            [self._rngs[row].normal(0.0, self._sigma, 3 * block) for row in rows]
        ).reshape(len(rows), block, 3)
        z1, z2, z3 = triples[..., 0], triples[..., 1], triples[..., 2]
        exponential = (z1 * z1 + z2 * z2) / (2.0 * self._sigma**2)
        # Gaps are capped at 2**53 clocks, past every stream, so none
        # overflows however small lambda is.
        lam = self._lambda
        gaps = np.floor(np.minimum(exponential, _GAP_CAP * lam) / lam)
        clocks = self._last[rows, None] + np.cumsum(gaps + 1.0, axis=1)
        inside = np.count_nonzero(clocks < self._length, axis=1)
        # A block that ends inside the stream may have more after it.
        self._open[rows] = (inside == block) & (block > 0)
        for row, count, row_clocks, row_draws in zip(rows, inside, clocks, z3):
            self._clocks[row] = row_clocks[:count]
            self._draws[row] = row_draws[:count]
            if count:
                self._last[row] = row_clocks[count - 1]
                self._next[row] = row_clocks[0]
            else:
                self._next[row] = self._length

    def take(self, start: int, count: int) -> FlipCandidates:
        """The candidates at stream clocks ``[start, start + count)``.

        Windows are taken in stream order; clocks are returned counted
        from *start*.
        """
        stop = start + count
        rows: List["np.ndarray[Any, Any]"] = []
        clocks: List["np.ndarray[Any, Any]"] = []
        draws: List["np.ndarray[Any, Any]"] = []
        for row in np.flatnonzero(self._next < stop).tolist():
            while True:
                pending = self._clocks[row]
                end = int(pending.searchsorted(stop))
                rows.append(np.full(end, row, dtype=np.int64))
                clocks.append(pending[:end].astype(np.int64) - start)
                draws.append(self._draws[row][:end])
                self._clocks[row] = pending[end:]
                self._draws[row] = self._draws[row][end:]
                if end < pending.size or not self._open[row]:
                    break
                self._draw_blocks([row])
            pending = self._clocks[row]
            self._next[row] = pending[0] if pending.size else self._length
        if not rows:
            return FlipCandidates(
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=float),
            )
        return FlipCandidates(
            np.concatenate(rows), np.concatenate(clocks), np.concatenate(draws)
        )


_GAP_CAP = float(1 << 53)


def _noise_flips(
    circuit: "OpticalStochasticCircuit",
    schedule: SeedSchedule,
    noisy: bool,
    length: int,
) -> Optional[_NoiseFlips]:
    """The receiver-noise flip sampler of a run, ``None`` when noiseless."""
    if not noisy:
        return None
    context = pass_context(circuit)
    return _NoiseFlips(
        schedule,
        context._flat_tables(),
        context.receiver.detector.noise_current_a,
        length,
    )


def simulate_batch(
    circuit: "OpticalStochasticCircuit",
    xs: Any,
    length: int = 1024,
    rng: Optional[np.random.Generator] = None,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
    sng_width: int = 16,
    schedule: Optional[SeedSchedule] = None,
    kernel: str = "packed",
    fault: Optional[FaultSpec] = None,
) -> BatchEvaluation:
    """Run the optical circuit on every input in *xs* in one array pass.

    The one-shot evaluation is the single-tile case of the runtime's
    tile step: the same stream source, receiver-noise flip candidates,
    fault channel and word-level pass, taken once over ``[0,
    length)``; the result also keeps the pass's words.  It always runs
    under a :class:`SeedSchedule`, so for the same arguments it returns
    the same bits as a single-tile
    :func:`repro.simulation.runtime.run_batch`.

    Parameters
    ----------
    circuit:
        An :class:`repro.core.circuit.OpticalStochasticCircuit`.
    xs:
        Input values in ``[0, 1]``; one evaluation row each.
    length:
        Stream length (clock count) per evaluation.
    rng:
        Generator the per-row seed schedule is derived from
        (:func:`derive_seed_schedule`: a ``(data seed, coeff seed,
        noise seed)`` triple per row); a default seeded generator is
        used when omitted.  Ignored with *base_seed* or *schedule*.
    noisy:
        When False the receiver slices noiselessly — isolating the
        stochastic-computing error from the transmission error.  When
        True each decision flips with the probability Gaussian receiver
        noise gives it, ``Q(|I - thr| / sigma)``.
    sng_kind:
        Randomizer family: ``"lfsr"`` (default), ``"counter"``,
        ``"sobol"`` or ``"chaotic"``.
    base_seed:
        Fix the seed schedule instead of deriving it from *rng*: every
        row reuses the same randomizer streams, and the per-row
        receiver-noise and fault seeds derive from *base_seed* alone, so
        the whole evaluation is a deterministic function of the inputs.
    sng_width:
        LFSR register width / comparator resolution in bits.
    schedule:
        Explicit per-row :class:`SeedSchedule`.  When given, *rng* and
        *base_seed* are ignored.  Each row's receiver-noise flips come
        from its private seeded generator, which is what makes rows
        relocatable across shards and tiles.
    kernel:
        ``"packed"``, the uint64 bit-plane pass of
        :mod:`repro.simulation.kernels` and the only one: the argument
        changes nothing and stays for callers that spell it out.  Any
        other value raises :class:`ConfigurationError`.
    fault:
        Optional :class:`~repro.simulation.faultmodel.FaultSpec` fault
        scenario.  A stuck MZI pins its data channel before the optical
        pass; channel faults (decay erasure, flips/drift, the
        desynchronization shift) transform the observed output stream,
        seeded from the schedule's per-row ``noise_seeds`` so the
        realization is bit-exact across workers and chunk sizes.
    """
    _check_kernel(kernel)
    xs = _validate_batch_inputs(
        circuit, xs, length, noisy, sng_kind, base_seed, sng_width, fault
    )
    schedule = _resolve_schedule(xs.size, schedule, rng, sng_kind, base_seed)
    coefficients = np.asarray(circuit.polynomial.coefficients, dtype=float)
    source = _StreamSource(
        sng_kind, schedule, xs, coefficients, sng_width, length, fault
    )
    noise = _noise_flips(circuit, schedule, noisy, length)
    words = packed_optical_pass(
        circuit,
        *source.take(0, length),
        noise.take(0, length) if noise is not None else None,
        length,
        fault_channel_for(fault, schedule.noise_seeds, length),
    )
    # Vectorized de Casteljau is elementwise: identical floats to calling
    # circuit.expected_value(x) per row.
    expected = np.asarray(circuit.polynomial(xs), dtype=float)
    return BatchEvaluation(
        xs=xs,
        expected=expected,
        stream_length=int(length),
        chunk_length=int(length),
        chunk_count=1,
        ones_count=words.ones_count(),
        transmission_bit_errors=words.transmission_bit_errors(),
        words=words,
    )


def _as_index(name: str, value: Any) -> int:
    """*value* as a plain int (numpy integers accepted).

    Floats, bools and other non-integral values raise
    :class:`ConfigurationError` here, before any allocation, instead of
    an opaque ``TypeError`` deep inside numpy (or, for a bool, a
    silent 0/1).
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _positive_index(name: str, value: Any) -> int:
    """:func:`_as_index`, then at least 1."""
    index = _as_index(name, value)
    if index <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return index


def _as_bool(name: str, value: Any) -> bool:
    """*value* if it is a bool, else :class:`ConfigurationError`.

    ``"no"`` is truthy and ``None`` falsy: a flag that is not a bool
    would silently pick a branch.
    """
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a bool, got {value!r}")
    return value


def _check_sng_kind(sng_kind: Any) -> None:
    if sng_kind not in SNG_KINDS:
        raise ConfigurationError(
            f"unknown SNG kind {sng_kind!r}; expected one of {SNG_KINDS}"
        )


def _check_kernel(kernel: Any) -> None:
    """Refuse every kernel name but ``"packed"``, the one pass.

    The kernel knob of :class:`~repro.simulation.runtime.RuntimeConfig`,
    ``Evaluator.with_kernel``, :func:`simulate_batch` and
    ``simulate_chunked`` is a no-op spelling of the packed pass.
    """
    if kernel != "packed":
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; the packed kernel is the only "
            "one, so pass 'packed' or drop the argument"
        )


_MAX_BASE_SEED = (1 << 63) - 1 - COEFF_SEED_STRIDE
"""The largest seed whose coefficient seed still fits the int64 schedule."""


def _check_base_seed(base_seed: Any) -> Optional[int]:
    """``None``, or *base_seed* as a plain int in ``[0, _MAX_BASE_SEED]``.

    A negative seed would wrap silently through the uint64 cast of
    :func:`van_der_corput` (sobol) and the modulus of
    :func:`derive_lfsr_seeds`, while the scalar factory path refuses it;
    a larger one overflows the schedule's int64 coefficient seeds.
    """
    if base_seed is None:
        return None
    base_seed = _as_index("base_seed", base_seed)
    if not 0 <= base_seed <= _MAX_BASE_SEED:
        raise ConfigurationError(
            f"base_seed must be in [0, {_MAX_BASE_SEED}], got {base_seed!r}"
        )
    return base_seed


def _check_eval_fields(
    length: Any,
    sng_kind: Any,
    sng_width: Any,
    noisy: Any,
    base_seed: Any,
    fault: Any,
) -> Tuple[int, int, Optional[int]]:
    """The one rule book of an evaluation design point.

    :class:`repro.session.EvalSpec` and every engine and runtime entry
    (through :func:`_validate_batch_inputs`) check their fields here, so
    a value one of them refuses, all refuse with the same
    :class:`ConfigurationError`.  Returns ``(length, sng_width,
    base_seed)`` as plain ints.

    ``sng_width`` is at least 1 for every kind, and the per-kind rules
    match the scalar constructors: :class:`~repro.stochastic.sng.SobolLikeSNG`
    takes ``[1, 30]`` bits (the batched :func:`van_der_corput` accepts
    any count and would silently produce wrong samples), an LFSR only
    the widths with a built-in maximal tap set
    (:data:`~repro.stochastic.lfsr.MAXIMAL_TAPS`, 3 to 24 bits), since
    the spec names no taps of its own.
    """
    length = _positive_index("length", length)
    _check_sng_kind(sng_kind)
    sng_width = _positive_index("sng_width", sng_width)
    if sng_kind == "sobol" and sng_width > 30:
        raise ConfigurationError(
            f"sng_width must be in [1, 30] for the sobol randomizer, "
            f"got {sng_width!r}"
        )
    if sng_kind == "lfsr" and sng_width not in MAXIMAL_TAPS:
        raise ConfigurationError(
            f"sng_width must be in [{min(MAXIMAL_TAPS)}, {max(MAXIMAL_TAPS)}] "
            f"for the lfsr randomizer (the widths with built-in maximal "
            f"taps), got {sng_width!r}"
        )
    _as_bool("noisy", noisy)
    base_seed = _check_base_seed(base_seed)
    if fault is not None and not isinstance(fault, FaultSpec):
        raise ConfigurationError(f"fault must be a FaultSpec, got {fault!r}")
    return length, sng_width, base_seed


def _validate_batch_inputs(
    circuit: Any,
    xs: Any,
    length: int,
    noisy: bool,
    sng_kind: str,
    base_seed: Optional[int],
    sng_width: int,
    fault: Optional[FaultSpec],
) -> "np.ndarray[Any, Any]":
    """Shared entry validation of the one-shot and runtime batch paths.

    The circuit and inputs, then the :func:`_check_eval_fields` rule
    book, then the fault against the circuit order.
    """
    from ..core.circuit import OpticalStochasticCircuit

    if not isinstance(circuit, OpticalStochasticCircuit):
        raise ConfigurationError(
            "circuit must be an OpticalStochasticCircuit"
        )
    try:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
    except (TypeError, ValueError):
        raise ConfigurationError(f"x must be a number in [0, 1], got {xs!r}")
    if xs.ndim != 1 or xs.size == 0:
        raise ConfigurationError("xs must be a non-empty 1-D array")
    if not np.all((xs >= 0.0) & (xs <= 1.0)):  # also rejects NaN
        raise ConfigurationError("x must be in [0, 1]")
    _check_eval_fields(length, sng_kind, sng_width, noisy, base_seed, fault)
    if fault is not None:
        fault.validate_against_order(circuit.params.order)
    return xs


def _resolve_schedule(
    batch: int,
    schedule: Optional[SeedSchedule],
    rng: Optional[np.random.Generator],
    sng_kind: str,
    base_seed: Optional[int],
) -> SeedSchedule:
    """The caller's *schedule* (checked against *batch*), else a derived one."""
    if schedule is None:
        return derive_seed_schedule(batch, rng, sng_kind, base_seed)
    if schedule.batch_size != batch:
        raise ConfigurationError(
            f"schedule covers {schedule.batch_size} rows but xs has {batch}"
        )
    return schedule
