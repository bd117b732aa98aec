"""The packed bit-plane kernel of the bit-level evaluation engine.

The paper's premise is that stochastic computing trades precision for
ultra-cheap single-gate bitwise logic on long bit streams.  This module
holds the engine's one optical pass, which works that way: it stays on
the stream front end's words, 64 clocks per uint64 (``(B, C, L//64)``),
builds the adder level as a carry-save bit-sliced sum across channels,
and resolves each receiver decision through precomputed
per-``(pattern, level)`` flat tables.  Receiver noise arrives as sparse
flip candidates (:class:`FlipCandidates`), accepted against a per-key
threshold and toggled into the noiseless decisions.  The pass returns
words, never per-clock arrays (:class:`PassWords`): the ones and
bit-error counts of every result are popcounts of them (:func:`popcount`
— ``np.bitwise_count`` when the numpy build has it, a 16-bit LUT
otherwise), and the per-clock powers, levels and bits of a one-shot
result are decoded from them only when read.

The byte-wise pass that unpacks the words to ``(B, C, L)`` uint8
tensors and fancy-indexes the Eq. 6 pattern table per clock lives in
the test suite (``tests/packed_reference.py``) as the reference the
parity matrices compare this pass against, bit for bit, for all four
SNG kinds, noisy and noiseless, with and without faults.

The module also owns the memoized per-circuit pass context
(:func:`pass_context`): the link budget, Eq. 6 table, threshold
receiver and per-key flip rates are built once per circuit type and
fingerprint instead of once per optical pass, i.e. once per tile of a
chunked stream.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from .._memo import _BoundedCache
from ..errors import ConfigurationError, SimulationError
from ..stochastic.lfsr import (
    _TABLE_ENTRIES,
    _TABLE_MAX_WIDTH,
    _cycle_tables,
    _resolve_taps,
)
from ..stochastic.sng import (
    chaotic_orbit,
    chaotic_warmup,
    derive_chaotic_intensities,
    van_der_corput,
)
from .receiver import OpticalReceiver

__all__ = [
    "pack_bits",
    "unpack_bits",
    "popcount",
    "pass_context",
    "clear_pass_context_cache",
    "optical_pass",
    "packed_optical_pass",
    "PassWords",
    "PackedLfsrSource",
    "PackedSobolSource",
    "PackedChaoticSource",
    "packed_lfsr_comparator_bits",
    "packed_tile_statistics",
    "FlipCandidates",
]

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

_WORD_BITS = 64


# -- packing primitives --------------------------------------------------------


def _word_count(length: int) -> int:
    return (int(length) + _WORD_BITS - 1) // _WORD_BITS


def pack_bits(bits: "np.ndarray[Any, Any]") -> "np.ndarray[Any, Any]":
    """Pack a 0/1 bit tensor along its last axis, 64 clocks per word.

    ``(..., L)`` uint8 (or bool) in, ``(..., ceil(L / 64))`` uint64
    out; bit ``j`` of word ``w`` is clock ``64 * w + j`` (little-endian
    bit order), and tail bits past ``L`` are zero.  :func:`unpack_bits`
    is the exact inverse.  Bool comparison results pack as they are, with
    no uint8 copy.
    """
    bits = np.asarray(bits)
    if bits.dtype != np.bool_:
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if bits.ndim == 0:
        raise ConfigurationError("bits must have at least one axis")
    length = bits.shape[-1]
    words = _word_count(length)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if packed.shape[-1] != words * 8:
        padded = np.zeros(bits.shape[:-1] + (words * 8,), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        packed = padded
    out = packed.view(np.uint64)
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        out = out.byteswap()
    return out


def unpack_bits(
    words: "np.ndarray[Any, Any]", length: int
) -> "np.ndarray[Any, Any]":
    """Unpack uint64 words back to a ``(..., length)`` uint8 bit tensor."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        words = words.byteswap()
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., : int(length)]


def _mask_tail(words: "np.ndarray[Any, Any]", count: int) -> None:
    """Zero the bits past *count* in the last word column, in place."""
    tail = count & 63
    if tail:
        words[..., -1] &= np.uint64((1 << tail) - 1)


def _window_words(
    words: "np.ndarray[Any, Any]",
    start: int,
    count: int,
    out: Optional["np.ndarray[Any, Any]"] = None,
) -> "np.ndarray[Any, Any]":
    """Bits ``[start, start + count)`` of packed rows, re-packed from bit 0.

    The unaligned two-word read of the packed cycle sources and the
    fault channel: output word ``w`` is word ``(start >> 6) + w`` of
    *words* shifted down by ``start & 63`` bits, ORed with the word after
    it shifted up.  The window must lie inside the ``words.shape[-1] *
    64`` bits; a word after the last one reads as zero.  Works along the
    last axis of any shape and returns *out* — a fresh array when
    ``None``, else written in place — with zero bits past *count*.
    """
    first = start >> 6
    shift = start & 63
    low = words[..., first : first + _word_count(count)]
    if out is None:
        out = np.empty(low.shape, dtype=np.uint64)
    if shift == 0:
        out[...] = low
    else:
        np.right_shift(low, np.uint64(shift), out=out)
        high = words[..., first + 1 : first + 1 + low.shape[-1]]
        out[..., : high.shape[-1]] |= high << np.uint64(_WORD_BITS - shift)
    _mask_tail(out, count)
    return out


_POPCOUNT_LUT: "_BoundedCache[np.ndarray[Any, Any]]" = _BoundedCache(
    _TABLE_ENTRIES
)


def _popcount_lut() -> "np.ndarray[Any, Any]":
    """Lazily built 16-bit population-count table (64 KiB, built once)."""

    def build() -> "np.ndarray[Any, Any]":
        values = np.arange(1 << 16, dtype=np.uint16)
        counts = np.zeros(1 << 16, dtype=np.uint8)
        for shift in range(16):
            counts += ((values >> shift) & 1).astype(np.uint8)
        return counts

    return _POPCOUNT_LUT.get(16, build)


def popcount(
    words: "np.ndarray[Any, Any]", use_lut: bool = False
) -> "np.ndarray[Any, Any]":
    """Per-word population count of a uint64 tensor, as int64.

    Uses ``np.bitwise_count`` when the numpy build provides it; older
    numpy falls back to a 16-bit lookup table over the four half-words
    (*use_lut* forces the fallback so both paths stay testable on any
    numpy).
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT and not use_lut:
        return np.bitwise_count(words).astype(np.int64)
    lut = _popcount_lut()
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        words = words.byteswap()
    halves = lut[words.view(np.uint16)].reshape(words.shape + (4,))
    return halves.sum(axis=-1, dtype=np.int64)


# -- memoized per-circuit pass context -----------------------------------------


class CircuitPassContext:
    """Per-circuit precomputation of the optical pass.

    Holds the link budget, the Eq. 6 received-power table and the
    calibrated threshold receiver — built once per circuit rather than
    once per optical pass, i.e. once per tile of a chunked stream —
    plus the flat per-``(pattern, level)`` lookup tables, built lazily
    on first use.

    The flat tables index on ``key = (level << channel_count) |
    pattern``: ``flat_powers[key]`` is a copy of the Eq. 6 table's
    float64 value (float copies are bit-exact), ``flat_decisions[key]``
    the noiseless threshold decision on its photocurrent, and
    ``flat_ideal[key]`` the multiplexer's selected coefficient bit.

    The receiver-noise flip tables ride along.  Additive Gaussian
    current noise of RMS ``sigma`` toggles the noiseless decision of a
    clock with key *k* with probability ``p_k = Q(|I_k - thr| /
    sigma)``, independently per clock.  ``flip_rate`` is ``q = max
    p_k``, ``flip_lambda`` is ``-log1p(-q)`` (the rate of the
    geometric gaps between candidate clocks, each clock a candidate
    with probability ``q``), ``flip_block`` the candidates per noise
    draw (:func:`_flip_block`) and ``flip_accept_a[k] = sigma *
    Phi^-1(p_k / q)``: a candidate flips iff its acceptance normal
    (RMS ``sigma``) falls below that, i.e. with probability ``p_k /
    q``.
    """

    def __init__(self, circuit: Any) -> None:
        self.fingerprint = circuit.fingerprint()
        self.order = int(circuit.params.order)
        self.channel_count = self.order + 1
        budget = circuit.link_budget()
        if not budget.bands_separated:
            raise SimulationError(
                "link budget bands overlap: the circuit cannot distinguish "
                "'0' from '1' at this design point"
            )
        self.table = circuit.model.received_power_table_mw()
        self.receiver = OpticalReceiver.from_power_bands(
            circuit.params.detector,
            zero_level_mw=budget.zero_band_mw[1],
            one_level_mw=budget.one_band_mw[0],
        )
        self._flat: Optional[Dict[str, Any]] = None

    @property
    def level_bits(self) -> int:
        """Bit planes needed for the adder level (values ``0..order``)."""
        return max(1, int(self.order).bit_length())

    def _flat_tables(self) -> Dict[str, Any]:
        """The flat lookup tables (built once, lazily)."""
        flat = self._flat
        if flat is None:
            order, channels = self.order, self.channel_count
            # flat index: key = (level << channels) | pattern.  The
            # (P, levels) table transposed row-major is exactly that
            # enumeration, because P == 2**channels.
            powers = np.ascontiguousarray(self.table.T).reshape(-1)
            currents = np.asarray(
                self.receiver.detector.photocurrent_a(powers), dtype=float
            )
            decisions = (currents > self.receiver.threshold_a).astype(np.uint8)
            levels = np.repeat(
                np.arange(order + 1, dtype=np.int64), 1 << channels
            )
            patterns = np.tile(
                np.arange(1 << channels, dtype=np.int64), order + 1
            )
            ideal = ((patterns >> levels) & 1).astype(np.uint8)
            key_bits = channels + self.level_bits
            key_dtype: Any
            if key_bits <= 8:
                key_dtype = np.uint8
            elif key_bits <= 16:
                key_dtype = np.uint16
            else:
                key_dtype = np.uint32
            flat = {
                "powers": powers,
                "decisions": decisions,
                "ideal": ideal,
                "key_dtype": key_dtype,
                # With separated bands and a midpoint threshold the
                # noiseless decision normally *is* the multiplexer bit;
                # verified numerically here so the word-level statistics
                # fast path never has to assume it.
                "decision_is_ideal": bool(np.array_equal(decisions, ideal)),
                **_flip_tables(currents, self.receiver),
            }
            self._flat = flat
        return flat


def _flip_tables(
    currents: "np.ndarray[Any, Any]", receiver: OpticalReceiver
) -> Dict[str, Any]:
    """The receiver-noise flip tables of :class:`CircuitPassContext`."""
    sigma = receiver.detector.noise_current_a
    flip_p = [
        0.5 * math.erfc(margin / (sigma * math.sqrt(2.0)))
        for margin in np.abs(currents - receiver.threshold_a).tolist()
    ]
    rate = max(flip_p)
    accept = [
        sigma * _normal_quantile(p / rate) if rate else -math.inf
        for p in flip_p
    ]
    return {
        "flip_p": np.asarray(flip_p, dtype=float),
        "flip_rate": rate,
        "flip_lambda": -math.log1p(-rate),
        "flip_block": _flip_block(rate),
        "flip_accept_a": np.asarray(accept, dtype=float),
    }


_FLIP_BLOCK_CLOCKS = 1 << 14
"""Clocks one block of flip candidates covers, on average."""


def _flip_block(rate: float) -> int:
    """Flip candidates drawn per block at candidate rate *rate*.

    A function of the circuit alone (through ``q``), so every tiling
    draws the same blocks: enough candidates for
    :data:`_FLIP_BLOCK_CLOCKS` clocks on average, at least one, and
    none at all when no key can flip.
    """
    if rate <= 0.0:
        return 0
    return max(1, math.ceil(rate * _FLIP_BLOCK_CLOCKS))


def _normal_quantile(probability: float) -> float:
    """``Phi^-1(probability)``, with the endpoints at -inf and +inf."""
    if probability <= 0.0:
        return -math.inf
    if probability >= 1.0:
        return math.inf
    return NormalDist().inv_cdf(probability)


_CONTEXT_CACHE: "_BoundedCache[CircuitPassContext]" = _BoundedCache(8)


def _circuit_key(circuit: Any) -> Tuple[type, str]:
    """How every cache keys a circuit: its concrete type and fingerprint.

    ``circuit.fingerprint()`` digests the parameters and the Bernstein
    program.  The type keeps a subclass that overrides
    ``link_budget()``/``model`` from reusing what a base circuit of the
    same design point stored; both are assumed immutable per instance,
    as everywhere else in the engine.
    """
    return (type(circuit), circuit.fingerprint())


def pass_context(circuit: Any) -> CircuitPassContext:
    """The memoized :class:`CircuitPassContext` for *circuit*.

    Keyed on :func:`_circuit_key`, the key the evaluation cache uses
    too, in an LRU of eight circuits (a :class:`repro._memo.
    _BoundedCache`, thread-safe: thread-backend shard workers and the
    serving executor hit it concurrently).  The context is not frozen:
    the helper freezes arrays in tuples, lists and dataclasses only.
    Failed builds — overlapping link-budget bands — are never cached,
    so the :class:`~repro.errors.SimulationError` is raised on every
    attempt, exactly like the unmemoized path.
    """
    return _CONTEXT_CACHE.get(
        _circuit_key(circuit), lambda: CircuitPassContext(circuit)
    )


def clear_pass_context_cache() -> None:
    """Drop every memoized pass context (testing hook)."""
    _CONTEXT_CACHE.clear()


# -- the optical pass ----------------------------------------------------------


def _bit_plane_sum(
    words: "np.ndarray[Any, Any]",
) -> List["np.ndarray[Any, Any]"]:
    """Bit-sliced binary sum across the channel axis of packed words.

    ``(B, C, W)`` uint64 in; returns the little-endian bit planes of the
    per-clock ones-count (the adder ``level``) as a list of ``(B, W)``
    word arrays — a ripple adder chain of word-wide half adders.  The
    list may carry trailing all-zero planes (one per channel in the
    worst case); callers truncate to the planes the level range needs.
    """
    planes: List["np.ndarray[Any, Any]"] = []
    for channel in range(words.shape[1]):
        carry = words[:, channel, :]
        for index, plane in enumerate(planes):
            planes[index], carry = plane ^ carry, plane & carry
        planes.append(carry)
    return planes


def _key_planes(
    context: CircuitPassContext,
    data_words: "np.ndarray[Any, Any]",
    coeff_words: "np.ndarray[Any, Any]",
) -> List["np.ndarray[Any, Any]"]:
    """The ``(B, W)`` word planes of the flat lookup key, low bit first.

    Key bit ``c`` is coefficient channel ``c``'s bit and the bits above
    are the bit-sliced adder level (``key = (level << channels) |
    pattern``).
    """
    planes = [
        coeff_words[:, channel, :] for channel in range(context.channel_count)
    ]
    planes.extend(_bit_plane_sum(data_words)[: context.level_bits])
    return planes


def _packed_keys(
    context: CircuitPassContext,
    planes: List["np.ndarray[Any, Any]"],
    length: int,
) -> "np.ndarray[Any, Any]":
    """Per-clock flat lookup keys: ``(B, length)`` of the key dtype.

    Built by the pass only for a detector whose decisions diverge from
    the multiplexer, otherwise only to decode powers or levels.
    """
    dtype = context._flat_tables()["key_dtype"]
    keys = np.zeros((planes[0].shape[0], int(length)), dtype=dtype)
    for index, plane in enumerate(planes):
        bits = unpack_bits(plane, length).astype(dtype, copy=False)
        np.left_shift(bits, dtype(index), out=bits)
        keys |= bits
    return keys


def _keys_at(
    planes: List["np.ndarray[Any, Any]"],
    rows: "np.ndarray[Any, Any]",
    clocks: "np.ndarray[Any, Any]",
) -> "np.ndarray[Any, Any]":
    """The flat keys of the ``(rows, clocks)`` clocks, read off the planes."""
    words = clocks >> 6
    shifts = (clocks & 63).astype(np.uint64)
    keys = np.zeros(rows.shape, dtype=np.int64)
    for index, plane in enumerate(planes):
        bits = (plane[rows, words] >> shifts) & np.uint64(1)
        keys |= bits.astype(np.int64) << index
    return keys


class FlipCandidates(NamedTuple):
    """The receiver-noise flip candidates of one tile.

    Candidate ``i`` is clock ``clocks[i]`` (counted from the tile's first
    clock) of row ``rows[i]``; it flips that clock's decision iff
    ``draws[i] < flat_accept_a[key]`` for the clock's flat key (see
    :class:`CircuitPassContext`).  Candidates are sorted by row, then
    clock, and never repeat a clock.
    """

    rows: "np.ndarray[Any, Any]"
    clocks: "np.ndarray[Any, Any]"
    draws: "np.ndarray[Any, Any]"


def _accepted(
    flat: Dict[str, Any],
    candidates: FlipCandidates,
    keys: "np.ndarray[Any, Any]",
) -> Tuple["np.ndarray[Any, Any]", "np.ndarray[Any, Any]"]:
    """``(rows, clocks)`` of the candidates whose flip is accepted."""
    accept = candidates.draws < flat["flip_accept_a"].take(keys)
    return candidates.rows[accept], candidates.clocks[accept]


def _mux_words(
    coeff_words: "np.ndarray[Any, Any]",
    level_planes: List["np.ndarray[Any, Any]"],
    order: int,
) -> "np.ndarray[Any, Any]":
    """Word-level multiplexer: the selected coefficient bit per clock.

    A select tree over the bit-sliced level, low plane first: each level
    plane folds the candidate words in pairs, ``low ^ (plane & (low ^
    high))`` taking ``high`` where the plane is set, and an odd last
    candidate passes up unpaired — three word ops per pair, no per-clock
    bytes.  Exact because the level over ``order`` data channels never
    exceeds ``order`` (an unpaired candidate is never the other half of
    a reachable level), and tail clocks sit at level 0, whose
    coefficient words have zero tails.
    """
    selected = [coeff_words[:, level, :] for level in range(order + 1)]
    for plane in level_planes:
        folded: List["np.ndarray[Any, Any]"] = []
        for low, high in zip(selected[0::2], selected[1::2]):
            word = low ^ high
            word &= plane
            word ^= low
            folded.append(word)
        if len(selected) % 2:
            folded.append(selected[-1])
        selected = folded
    return selected[0]


class PassWords(NamedTuple):
    """The packed words one optical pass leaves, decoded on demand.

    ``planes`` are the ``(B, W)`` flat-key planes, low bit first
    (:func:`_key_planes`), ``ideal`` the multiplexer's output words and
    ``observed`` the receiver's output words after the accepted noise
    flips and the fault channel.  Every result's counts are popcounts of
    them; each per-clock method returns a fresh ``(B, length)`` array.
    """

    context: CircuitPassContext
    planes: List["np.ndarray[Any, Any]"]
    ideal: "np.ndarray[Any, Any]"
    observed: "np.ndarray[Any, Any]"
    length: int

    def ones_count(self) -> "np.ndarray[Any, Any]":
        return popcount(self.observed).sum(axis=-1)

    def transmission_bit_errors(self) -> "np.ndarray[Any, Any]":
        return popcount(self.observed ^ self.ideal).sum(axis=-1)

    def power_histogram(
        self, edges: "np.ndarray[Any, Any]"
    ) -> "np.ndarray[Any, Any]":
        """The optical powers binned over *edges*: the distinct table
        values weighted by their key counts, exact since ``np.histogram``
        bins a value identically wherever it appears."""
        powers = self.context._flat_tables()["powers"]
        keys = _packed_keys(self.context, self.planes, self.length)
        key_counts = np.bincount(
            keys.reshape(-1).astype(np.int64), minlength=powers.size
        )
        counts, _ = np.histogram(powers, bins=edges, weights=key_counts)
        return counts.astype(np.int64)

    def received_power_mw(self) -> "np.ndarray[Any, Any]":
        # Gathers with intp indices run several times faster than with
        # the compact key dtype, which numpy converts inside every take.
        keys = _packed_keys(self.context, self.planes, self.length)
        return self.context._flat_tables()["powers"].take(keys.astype(np.intp))

    def select_levels(self) -> "np.ndarray[Any, Any]":
        levels = self.planes[self.context.channel_count :]
        return _packed_keys(self.context, levels, self.length).astype(np.int64)

    def output_bits(self) -> "np.ndarray[Any, Any]":
        return unpack_bits(self.observed, self.length)

    def ideal_bits(self) -> "np.ndarray[Any, Any]":
        return unpack_bits(self.ideal, self.length)


def packed_optical_pass(
    circuit: Any,
    data_words: "np.ndarray[Any, Any]",
    coeff_words: "np.ndarray[Any, Any]",
    candidates: Optional[FlipCandidates],
    length: int,
    fault_channel: Optional[Any] = None,
    clock_offset: int = 0,
) -> PassWords:
    """Steps 3-4 of the pipeline for one tile: optics + receiver, in words.

    Takes ``(B, C, W)`` packed word tensors (see :func:`pack_bits`) and
    returns their :class:`PassWords`, for the one-shot call and every
    tile alike.  With the (verified) separated-band property the output
    and ideal words are one word-level mux of the coefficient words by
    the bit-sliced level; an exotic detector resolves per-clock keys
    through the flat tables instead.  The accepted flips among
    *candidates* (``None`` = noiseless) are XORed in as one word mask,
    then *fault_channel* applies at absolute clock *clock_offset*, so
    trajectory faults and the desynchronization carry resume across
    tiles.
    """
    context = pass_context(circuit)
    flat = context._flat_tables()
    planes = _key_planes(context, data_words, coeff_words)
    if flat["decision_is_ideal"]:
        level_planes = planes[context.channel_count :]
        out_words = _mux_words(coeff_words, level_planes, context.order)
        ideal_words = out_words
    else:
        keys = _packed_keys(context, planes, length)
        out_words = pack_bits(flat["decisions"].take(keys))
        ideal_words = pack_bits(flat["ideal"].take(keys))
    if candidates is not None and candidates.rows.size:
        rows, clocks = _accepted(
            flat,
            candidates,
            _keys_at(planes, candidates.rows, candidates.clocks),
        )
        flips = np.zeros(out_words.shape, dtype=np.uint64)
        np.bitwise_or.at(
            flips,
            (rows, clocks >> 6),
            np.uint64(1) << (clocks & 63).astype(np.uint64),
        )
        out_words = out_words ^ flips
    if fault_channel is not None:
        out_words = fault_channel.apply_words(out_words, clock_offset, length)
    return PassWords(context, planes, ideal_words, out_words, length)


optical_pass = packed_optical_pass
"""The one optical pass, under the name the tracing harness also wraps."""


def packed_tile_statistics(
    circuit: Any,
    data_words: "np.ndarray[Any, Any]",
    coeff_words: "np.ndarray[Any, Any]",
    length: int,
    candidates: Optional[FlipCandidates] = None,
    histogram_edges: Optional["np.ndarray[Any, Any]"] = None,
    fault_channel: Optional[Any] = None,
    clock_offset: int = 0,
) -> Tuple[
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
    Optional["np.ndarray[Any, Any]"],
]:
    """Accumulator increments for one packed tile: ``(ones, errors, hist)``.

    The chunked streaming runtime's tile step: :func:`packed_optical_pass`
    over the tile, reduced to per-row ones and link bit-error counts
    (and the optional received-power histogram over *histogram_edges*)
    by popcounts of its words.
    """
    words = packed_optical_pass(
        circuit, data_words, coeff_words, candidates, length,
        fault_channel, clock_offset,
    )
    histogram = None
    if histogram_edges is not None:
        histogram = words.power_histogram(histogram_edges)
    return words.ones_count(), words.transmission_bit_errors(), histogram


# -- packed comparator-word generation -----------------------------------------


class _PackedCycleSource:
    """Shared machinery of the periodic packed comparator sources.

    A periodic uniform sequence compared against a fixed value yields
    the same ``period``-bit comparator sequence for every stream using
    that value, so the cycle uniforms are compared once per *unique*
    value, over ``period + 64`` clocks: the cycle, then its first 64
    clocks again (wrapping for periods under 64), packed straight into
    zero-padded words.  :meth:`take` reads a stream's word at cycle
    position ``pos < period`` as word ``pos >> 6`` and the word after
    it, so it never reads past bit ``period + 63`` and never
    materializes the ``(B, C, count)`` float64 uniforms.

    Starts and values broadcast against each other.  A bank whose rows
    share their seeds passes one-row ``(1, C)`` starts against ``(B,
    C)``-broadcastable values; when the values are row-invariant too,
    :meth:`take` returns ``(1, C, W)`` words for the caller to
    broadcast.  Subclasses provide the cycle, the per-stream start
    positions and ``_start_shift`` (how many cycle steps past the start
    position the stream's first clock sits).

    :meth:`take` reads a window one of two ways, picked by the starts'
    row count and the window's length against the period:

    - **slices** — one row of starts, and a window of at most two
      periods: each channel's cycle phase is one scalar per window, so
      the window splits where the phase wraps into at most three runs
      of words, each a contiguous slice of the value rows' cycles read
      with one scalar shift (:func:`_window_words`).  Longer windows
      over short periods would split into many short runs and keep the
      gather;
    - **gather** — per-row starts (rng-seeded rows), or a long window:
      one cycle position per output word, read by a flat gather of the
      word at it and the word after it.
    """

    _start_shift: int = 0

    def __init__(
        self,
        starts: "np.ndarray[Any, Any]",
        values: Any,
        uniform: "np.ndarray[Any, Any]",
    ) -> None:
        values = np.asarray(values, dtype=float)
        unique_values, inverse = np.unique(values, return_inverse=True)
        shape = np.broadcast_shapes(np.shape(starts), values.shape)
        self._starts = np.asarray(starts, dtype=np.int64)
        self._inverse = np.broadcast_to(inverse.reshape(values.shape), shape)
        self._packed_cycles = self._pack_value_cycles(uniform, unique_values)
        self._period = int(uniform.size)
        # One row of starts: each channel's start, for the slice read.
        self._row_starts: Optional[List[int]] = None
        row_size = self._starts.shape[-1] if self._starts.ndim else 1
        if shape and row_size and self._starts.size == row_size:
            row = self._starts.reshape(-1).tolist()
            self._row_starts = row * (shape[-1] // row_size)

    @staticmethod
    def _pack_value_cycles(
        uniform: "np.ndarray[Any, Any]", unique_values: "np.ndarray[Any, Any]"
    ) -> "np.ndarray[Any, Any]":
        """One packed row per value: the cycle plus its 64-clock wrap."""
        wrap = uniform[np.arange(_WORD_BITS) % uniform.size]
        extended = np.concatenate((uniform, wrap))
        return pack_bits(extended[None, :] < unique_values[:, None])

    def take(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        """Packed words for stream clocks ``[offset, offset + count)``."""
        if offset < 0 or count <= 0:
            raise ConfigurationError(
                f"invalid window offset={offset!r} count={count!r}"
            )
        if self._row_starts is not None and count <= 2 * self._period:
            return self._slice_take(self._row_starts, offset, count)
        return self._gather_take(offset, count)

    def _slice_take(
        self, row_starts: List[int], offset: int, count: int
    ) -> "np.ndarray[Any, Any]":
        """The window of one row of starts, read as contiguous slices."""
        shape = self._inverse.shape
        rows = self._inverse.reshape(-1, shape[-1])
        words = _word_count(count)
        out = np.empty(rows.shape + (words,), dtype=np.uint64)
        cycles = self._packed_cycles
        period = self._period
        shift = self._start_shift + int(offset)
        for channel, start in enumerate(row_starts):
            index = rows[:, channel]
            word, position = 0, (start + shift) % period
            while word < words:
                # The words whose first clock sits before the wrap read
                # on contiguously; the 64-clock wrap copy ends the last.
                run = min(words - word, (period - position + 63) >> 6)
                first = position >> 6
                if index.size == 1:  # a view, not a one-row copy
                    row = int(index[0])
                    slab = cycles[row : row + 1, first : first + run + 1]
                else:
                    slab = cycles[index, first : first + run + 1]
                _window_words(
                    slab,
                    position & 63,
                    min(count - _WORD_BITS * word, _WORD_BITS * run),
                    out[:, channel, word : word + run],
                )
                word += run
                position = (position + _WORD_BITS * run) % period
        return out.reshape(shape + (words,))

    def _gather_take(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        """The window by a flat gather: one cycle position per word."""
        words = _word_count(count)
        positions = (
            self._starts[..., None]
            + (self._start_shift + int(offset))
            + _WORD_BITS * np.arange(words, dtype=np.int64)
        ) % self._period
        shift = (positions & 63).astype(np.uint64)
        # One flat gather per half-window (np.take without an axis reads
        # the flattened cycles): a stream's row starts at inverse * stride.
        cycles = self._packed_cycles
        flat_index = self._inverse[..., None] * cycles.shape[-1] + (
            positions >> 6
        )
        out = np.take(cycles, flat_index)
        flat_index += 1
        high = np.take(cycles, flat_index)
        # high << (64 - shift) as two in-range shifts: 0 at shift 0.
        high <<= np.uint64(1)
        high <<= np.uint64(_WORD_BITS - 1) - shift
        out >>= shift
        out |= high
        _mask_tail(out, count)
        return out


class PackedLfsrSource(_PackedCycleSource):
    """Resumable packed comparator source over the cached LFSR cycle.

    A maximal-length LFSR stream is a periodic window of one canonical
    cycle (:class:`_PackedCycleSource`); the stream's first clock is the
    *successor* of the seed state, hence ``_start_shift = 1``.  The
    comparisons are the identical floats the unpacked path evaluates,
    so the packed words are bit-exact with
    ``pack_bits(lfsr_uniform_windows(...) < values[..., None])``.

    Build through :meth:`create`, which returns ``None`` when the fast
    path does not apply (register wider than the cycle-table cache, or
    seeds off the canonical orbit) — callers then fall back to
    compare-and-pack.
    """

    _start_shift: int = 1

    @classmethod
    def create(
        cls, seeds: Any, values: Any, width: int
    ) -> Optional["PackedLfsrSource"]:
        if width > _TABLE_MAX_WIDTH:
            return None
        taps = _resolve_taps(width, None)
        cycle, position, uniform = _cycle_tables(width, taps)
        if cycle.size == 0:
            return None
        seeds = np.asarray(seeds, dtype=np.int64)
        if np.any(seeds < 1) or np.any(seeds >= (1 << width)):
            raise ConfigurationError(f"seeds must be in [1, 2**{width} - 1]")
        starts = position[seeds]
        if np.any(starts < 0):
            return None
        return cls(starts, values, uniform)


_SOBOL_CYCLES: "_BoundedCache[np.ndarray[Any, Any]]" = _BoundedCache(
    _TABLE_ENTRIES
)
_SOBOL_CYCLE_MAX_WIDTH = _TABLE_MAX_WIDTH


def _sobol_cycle_uniforms(width: int) -> "np.ndarray[Any, Any]":
    """The full-period van der Corput cycle for *width* bits, memoized.

    ``van_der_corput(i, width)`` consumes only the low *width* bits of
    ``i``, so the sequence is exactly periodic with period
    ``2**width`` — the property that makes the Sobol comparator stream
    a :class:`_PackedCycleSource`.  The table is 8 MiB at the width cap
    and shared process-wide, like the LFSR cycle tables.
    """
    width = int(width)
    return _SOBOL_CYCLES.get(
        width,
        lambda: van_der_corput(np.arange(1 << width, dtype=np.int64), width),
    )


class PackedSobolSource(_PackedCycleSource):
    """Resumable packed comparator source over the van der Corput cycle.

    The Sobol-like randomizer samples ``van_der_corput(offset + clock,
    width)``, which depends only on ``(offset + clock) mod 2**width`` —
    a periodic cycle, so the same pack-once / gather-by-offset machinery
    as :class:`PackedLfsrSource` applies with ``starts = offsets mod
    2**width``.  The cycle uniforms are the identical floats
    ``van_der_corput`` produces for any congruent index, so the packed
    words are bit-exact with ``pack_bits(van_der_corput(offsets[...,
    None] + arange(L), width) < values[..., None])``.

    :meth:`create` returns ``None`` when *width* exceeds the cycle
    cache cap (``2**width``-entry tables stop paying off) — callers
    then fall back to compare-and-pack.
    """

    @classmethod
    def create(
        cls, offsets: Any, values: Any, width: int
    ) -> Optional["PackedSobolSource"]:
        if width > _SOBOL_CYCLE_MAX_WIDTH:
            return None
        offsets = np.asarray(offsets, dtype=np.int64)
        if np.any(offsets < 0):
            raise ConfigurationError("sobol offsets must be >= 0")
        starts = offsets % (1 << int(width))
        return cls(starts, values, _sobol_cycle_uniforms(width))


_CHAOTIC_PACK_BLOCK = 4096
"""Clocks advanced per internal block of :class:`PackedChaoticSource`.

A multiple of 64 so block boundaries align with word boundaries; bounds
the float materialization at ``(B, C, block)`` instead of the full
stream length.
"""


class PackedChaoticSource:
    """Sequential packed comparator source over carried chaotic orbits.

    Chaotic logistic-map orbits have no periodic structure to cache, so
    unlike the cycle sources this one *computes* — but in fixed-size
    64-clock-aligned blocks: each block advances the raw orbit state
    with :func:`repro.stochastic.sng.chaotic_orbit` (the exact
    elementwise float sequence of the unpacked path), compares, and
    packs straight into the output words.  The ``(B, C, L)`` float64
    uniforms of a long stream are never materialized — peak extra
    memory is one ``(B, C, 4096)`` block.

    Like the unpacked chaotic cursor, resume is by carried state only:
    :meth:`take` windows must be issued in sequential stream order.
    """

    def __init__(
        self, base_seeds: Any, values: Any, channel_count: int
    ) -> None:
        seeds = np.atleast_1d(np.asarray(base_seeds, dtype=np.int64))
        self._state = derive_chaotic_intensities(seeds, int(channel_count))
        self._warmups = np.asarray(
            [chaotic_warmup(c) for c in range(int(channel_count))],
            dtype=np.int64,
        )[None, :]
        self._values = np.broadcast_to(
            np.asarray(values, dtype=float), self._state.shape
        )
        self._next_offset = 0

    def take(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        """Packed words for stream clocks ``[offset, offset + count)``."""
        if offset < 0 or count <= 0:
            raise ConfigurationError(
                f"invalid window offset={offset!r} count={count!r}"
            )
        if offset != self._next_offset:
            raise ConfigurationError(
                "stateful streams resume sequentially: expected offset "
                f"{self._next_offset}, got {offset}"
            )
        out = np.empty(
            self._state.shape + (_word_count(count),), dtype=np.uint64
        )
        done = 0
        while done < count:
            block = min(_CHAOTIC_PACK_BLOCK, count - done)
            warmups = self._warmups if offset + done == 0 else 0
            uniforms, self._state = chaotic_orbit(
                self._state, warmups, block, return_state=True
            )
            word = done // _WORD_BITS
            out[..., word : word + _word_count(block)] = pack_bits(
                uniforms < self._values[..., None]
            )
            done += block
        self._next_offset = offset + count
        return out


def packed_lfsr_comparator_bits(
    seeds: "np.ndarray[Any, Any]",
    values: "np.ndarray[Any, Any]",
    length: int,
    width: int,
    offset: int = 0,
) -> Optional["np.ndarray[Any, Any]"]:
    """One-shot :class:`PackedLfsrSource` window (``None`` = fall back).

    Returns the ``(B, C, ceil(length / 64))`` uint64 words that
    ``pack_bits(lfsr_uniform_windows(seeds, length, width, offset=offset)
    < values[..., None])`` would produce, or ``None`` when the packed
    fast path does not apply.
    """
    source = PackedLfsrSource.create(seeds, values, width)
    if source is None:
        return None
    return source.take(offset, length)
