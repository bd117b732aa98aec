"""The packed bit-plane kernel of the bit-level evaluation engine.

The paper's premise is that stochastic computing trades precision for
ultra-cheap single-gate bitwise logic on long bit streams.  This module
holds the engine's one optical pass, which works that way: it stays on
the stream front end's words, 64 clocks per uint64 (``(B, C, L//64)``),
builds the adder level as a carry-save bit-sliced sum across channels,
and resolves each receiver decision through precomputed
per-``(pattern, level)`` flat tables.  Statistics-only consumers (the
chunked streaming runtime) accumulate ones/bit-error counts straight
from packed words via popcount (:func:`popcount` — ``np.bitwise_count``
when the numpy build has it, a 16-bit LUT otherwise).

The byte-wise pass that unpacks the words to ``(B, C, L)`` uint8
tensors and fancy-indexes the Eq. 6 pattern table per clock lives in
the test suite (``tests/packed_reference.py``) as the reference the
parity matrices compare this pass against, bit for bit, for all four
SNG kinds, noisy and noiseless, with and without faults.
``kernel="numpy"`` is a deprecated alias of ``"packed"``: it warns and
never changes a bit.

The module also owns the memoized per-circuit pass context
(:func:`pass_context`): the link budget, Eq. 6 table and threshold
receiver are built once per circuit fingerprint instead of once per
optical pass, i.e. once per tile of a chunked stream.
"""

from __future__ import annotations

import sys
import threading
import warnings
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..stochastic.lfsr import _TABLE_MAX_WIDTH, _cycle_tables, _resolve_taps
from ..stochastic.sng import (
    chaotic_orbit,
    chaotic_warmup,
    derive_chaotic_intensities,
    van_der_corput,
)
from .receiver import OpticalReceiver

__all__ = [
    "KERNELS",
    "available_kernels",
    "kernel_capabilities",
    "resolve_kernel",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "pass_context",
    "clear_pass_context_cache",
    "optical_pass",
    "packed_optical_pass",
    "PackedLfsrSource",
    "PackedSobolSource",
    "PackedChaoticSource",
    "packed_lfsr_comparator_bits",
    "packed_tile_statistics",
]

KERNELS: Tuple[str, ...] = ("packed",)
"""Compute-kernel implementations behind ``simulate_batch``."""

_DEPRECATED_KERNELS = ("numpy",)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

_WORD_BITS = 64


# -- kernel registry -----------------------------------------------------------


def available_kernels() -> Tuple[str, ...]:
    """The kernels usable in this environment, in registry order."""
    return KERNELS


def resolve_kernel(kernel: str) -> str:
    """Validate a kernel name, failing fast on unknown ones.

    Every spelling of the knob —
    :class:`~repro.simulation.runtime.RuntimeConfig`,
    ``Evaluator.with_kernel``, the engine entry points, the CLI — comes
    through here.  ``"numpy"`` is a deprecated alias: it emits one
    :class:`DeprecationWarning` and resolves to ``"packed"``, whose bits
    are identical.  Unknown names raise
    :class:`~repro.errors.ConfigurationError`.
    """
    if kernel in _DEPRECATED_KERNELS:
        warnings.warn(
            f"kernel={kernel!r} is deprecated; the packed kernel is the only "
            "pass and returns identical bits, so drop the argument",
            DeprecationWarning,
            stacklevel=3,
        )
        return "packed"
    if kernel not in KERNELS:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


def kernel_capabilities() -> Dict[str, Dict[str, Any]]:
    """Capability table of every kernel (for docs, CLIs and probing).

    Keys mirror :data:`KERNELS`; each entry records availability, the
    extra requirement (if any), the relative per-bit memory footprint of
    the bit tensors, and a one-line description.
    """
    return {
        "packed": {
            "available": True,
            "requires": None,
            "bit_tensor_bytes_per_bit": 1.0 / 8.0,
            "description": (
                "dependency-free uint64 bit-plane engine: one bit per "
                "clock per stream; the pass runs on words, not bytes"
            ),
        },
    }


# -- packing primitives --------------------------------------------------------


def _word_count(length: int) -> int:
    return (int(length) + _WORD_BITS - 1) // _WORD_BITS


def pack_bits(bits: "np.ndarray[Any, Any]") -> "np.ndarray[Any, Any]":
    """Pack a 0/1 bit tensor along its last axis, 64 clocks per word.

    ``(..., L)`` uint8 in, ``(..., ceil(L / 64))`` uint64 out; bit ``j``
    of word ``w`` is clock ``64 * w + j`` (little-endian bit order), and
    tail bits past ``L`` are zero.  :func:`unpack_bits` is the exact
    inverse.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if bits.ndim == 0:
        raise ConfigurationError("bits must have at least one axis")
    length = bits.shape[-1]
    words = _word_count(length)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (words * 8,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    out = padded.view(np.uint64)
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


_POPCOUNT_LUT: Optional["np.ndarray[Any, Any]"] = None
_POPCOUNT_LOCK = threading.Lock()


def _popcount_lut() -> "np.ndarray[Any, Any]":
    """Lazily built 16-bit population-count table (64 KiB, built once).

    Double-checked under the module lock: thread-backend shards hit the
    fallback path concurrently on older numpy, and an unguarded lazy
    init would build (and briefly publish) the table per racing thread.
    """
    global _POPCOUNT_LUT
    lut = _POPCOUNT_LUT
    if lut is not None:
        return lut
    with _POPCOUNT_LOCK:
        lut = _POPCOUNT_LUT
        if lut is None:
            values = np.arange(1 << 16, dtype=np.uint16)
            counts = np.zeros(1 << 16, dtype=np.uint8)
            for shift in range(16):
                counts += ((values >> shift) & 1).astype(np.uint8)
            lut = counts
            _POPCOUNT_LUT = lut
    return lut


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
    pattern``: ``flat_powers[key]`` / ``flat_currents[key]`` are copies
    of the Eq. 6 table's float64 values and their photocurrents (float
    copies are bit-exact), ``flat_decisions[key]`` is the noiseless threshold
    decision, and ``flat_ideal[key]`` the multiplexer's selected
    coefficient bit.
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
                "currents": currents,
                "decisions": decisions,
                "ideal": ideal,
                "key_dtype": key_dtype,
                # With separated bands and a midpoint threshold the
                # noiseless decision normally *is* the multiplexer bit;
                # verified numerically here so the word-level statistics
                # fast path never has to assume it.
                "decision_is_ideal": bool(np.array_equal(decisions, ideal)),
            }
            self._flat = flat
        return flat


_CONTEXT_CACHE: "OrderedDict[Tuple[Any, Any], CircuitPassContext]" = (
    OrderedDict()
)
_CONTEXT_CACHE_MAX = 8
_CONTEXT_LOCK = threading.Lock()


def pass_context(circuit: Any) -> CircuitPassContext:
    """The memoized :class:`CircuitPassContext` for *circuit*.

    Keyed on the circuit's concrete type plus ``circuit.fingerprint()``
    (parameters + Bernstein program, the same digest that keys the
    evaluation cache), LRU-bounded and thread-safe — thread-backend
    shard workers and the serving executor hit this cache concurrently.
    The type in the key keeps a subclass that overrides
    ``link_budget()``/``model`` from reusing a base circuit's context;
    both are assumed immutable per instance, as everywhere else in the
    engine.  Failed builds — overlapping link-budget bands — are never
    cached, so the :class:`~repro.errors.SimulationError` is raised on
    every attempt, exactly like the unmemoized path.
    """
    key = (type(circuit), circuit.fingerprint())
    with _CONTEXT_LOCK:
        context = _CONTEXT_CACHE.get(key)
        if context is not None:
            _CONTEXT_CACHE.move_to_end(key)
            return context
    context = CircuitPassContext(circuit)  # built unlocked: may raise
    with _CONTEXT_LOCK:
        existing = _CONTEXT_CACHE.get(key)
        if existing is not None:
            _CONTEXT_CACHE.move_to_end(key)
            return existing
        _CONTEXT_CACHE[key] = context
        while len(_CONTEXT_CACHE) > _CONTEXT_CACHE_MAX:
            _CONTEXT_CACHE.popitem(last=False)
    return context


def clear_pass_context_cache() -> None:
    """Drop every memoized pass context (testing hook)."""
    with _CONTEXT_LOCK:
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


def _packed_keys(
    context: CircuitPassContext,
    data_words: "np.ndarray[Any, Any]",
    coeff_words: "np.ndarray[Any, Any]",
    length: int,
) -> "np.ndarray[Any, Any]":
    """Per-clock flat lookup keys: ``(B, length)`` of the key dtype.

    Key bit ``c`` is coefficient channel ``c``'s bit and the bits above
    are the bit-sliced adder level (``key = (level << channels) |
    pattern``).  This is the pass's only per-clock byte
    materialization.
    """
    dtype = context._flat_tables()["key_dtype"]
    planes = [
        coeff_words[:, channel, :] for channel in range(context.channel_count)
    ]
    planes.extend(_bit_plane_sum(data_words)[: context.level_bits])
    keys = np.zeros((coeff_words.shape[0], int(length)), dtype=dtype)
    for index, plane in enumerate(planes):
        keys |= unpack_bits(plane, length).astype(dtype) << dtype(index)
    return keys


def packed_optical_pass(
    circuit: Any,
    data_words: "np.ndarray[Any, Any]",
    coeff_words: "np.ndarray[Any, Any]",
    noise_a: Optional["np.ndarray[Any, Any]"],
    length: int,
) -> Tuple[
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
]:
    """Steps 3-4 of the pipeline for one tile: optics + receiver, per clock.

    Takes ``(B, C, W)`` packed word tensors (see :func:`pack_bits`) and
    returns ``(powers, output_bits, ideal_bits, levels)`` as ``(B,
    length)`` arrays: per-clock keys are assembled from the coefficient
    and bit-sliced level planes, and every observable is a flat-table
    gather of the Eq. 6 table and receiver values.
    """
    context = pass_context(circuit)
    flat = context._flat_tables()
    keys = _packed_keys(context, data_words, coeff_words, length)
    powers = flat["powers"].take(keys)
    levels = (keys >> np.uint8(context.channel_count)).astype(np.int64)
    output_bits = _decisions(context, flat, keys, noise_a)
    ideal_bits = flat["ideal"].take(keys)
    return powers, output_bits, ideal_bits, levels


optical_pass = packed_optical_pass
"""The one optical pass, under the name the tracing harness also wraps."""


def _decisions(
    context: CircuitPassContext,
    flat: Dict[str, Any],
    keys: "np.ndarray[Any, Any]",
    noise_a: Optional["np.ndarray[Any, Any]"],
) -> "np.ndarray[Any, Any]":
    """Receiver decisions from per-clock keys, under pre-drawn noise if any.

    The single definition of the packed decision rule — shared by the
    full-output pass and the chunked statistics accumulator so the two
    can never diverge.  Noiseless, a flat-table gather; noisy, the
    flat-gathered photocurrents plus the row's noise draw against the
    receiver's strict ``>`` threshold.
    """
    if noise_a is None:
        return flat["decisions"].take(keys)
    noise = np.asarray(noise_a, dtype=float)
    if noise.shape != keys.shape:
        raise ConfigurationError(
            f"noise_a shape {noise.shape} must match powers shape "
            f"{keys.shape}"
        )
    currents = flat["currents"].take(keys) + noise
    return (currents > context.receiver.threshold_a).astype(np.uint8)


# -- packed comparator-word generation -----------------------------------------


class _PackedCycleSource:
    """Shared machinery of the periodic packed comparator sources.

    A periodic uniform sequence compared against a fixed value yields
    the same ``period``-bit comparator sequence for every stream using
    the same value: the cycle uniforms are compared once per *unique*
    value and packed (tiled, so any 64-bit window is one unaligned
    two-word read), then :meth:`take` gathers each stream's words by
    bit offset — never materializing the ``(B, C, count)`` float64
    uniforms.  Subclasses provide the cycle, the per-stream start
    positions and ``_start_shift`` (how many cycle steps past the start
    position the stream's first clock sits).
    """

    _start_shift: int = 0

    def __init__(
        self,
        starts: "np.ndarray[Any, Any]",
        inverse: "np.ndarray[Any, Any]",
        packed_cycles: "np.ndarray[Any, Any]",
        period: int,
    ) -> None:
        self._starts = starts
        self._inverse = inverse
        self._packed_cycles = packed_cycles
        self._period = int(period)

    @staticmethod
    def _pack_value_cycles(
        uniform: "np.ndarray[Any, Any]", values: Any, shape: Any
    ) -> Tuple["np.ndarray[Any, Any]", "np.ndarray[Any, Any]"]:
        """``(inverse, packed_cycles)`` for the unique comparison values.

        One tiled packed bit array per unique comparison value: enough
        repeats of the period that a 64-bit window starting anywhere
        in [0, period) stays in-bounds, with periodic continuation
        automatic (two repeats except periods shorter than 64 bits).
        """
        values = np.broadcast_to(np.asarray(values, dtype=float), shape)
        unique_values, inverse = np.unique(values, return_inverse=True)
        inverse = inverse.reshape(shape)
        period = int(uniform.size)
        repeats = 1 + -(-(_WORD_BITS - 1) // period)
        cycle_bits = (uniform[None, :] < unique_values[:, None]).astype(
            np.uint8
        )
        return inverse, pack_bits(np.tile(cycle_bits, (1, repeats)))

    def take(self, offset: int, count: int) -> "np.ndarray[Any, Any]":
        """Packed words for stream clocks ``[offset, offset + count)``."""
        if offset < 0 or count <= 0:
            raise ConfigurationError(
                f"invalid window offset={offset!r} count={count!r}"
            )
        words = _word_count(count)
        positions = (
            self._starts[..., None].astype(np.int64)
            + self._start_shift
            + int(offset)
            + _WORD_BITS * np.arange(words, dtype=np.int64)
        ) % self._period
        shift = (positions & 63).astype(np.uint64)
        # One flat gather per half-window (np.take without an axis reads
        # the flattened cycles): a stream's row starts at inverse * stride.
        cycles = self._packed_cycles
        flat_index = self._inverse[..., None] * cycles.shape[-1] + (
            positions >> 6
        )
        lo = np.take(cycles, flat_index)
        flat_index += 1
        hi = np.take(cycles, flat_index)
        high_part = hi << ((np.uint64(_WORD_BITS) - shift) & np.uint64(63))
        out = (lo >> shift) | np.where(shift == 0, np.uint64(0), high_part)
        tail = count % _WORD_BITS
        if tail:
            out[..., -1] &= np.uint64((1 << tail) - 1)
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
        inverse, packed_cycles = cls._pack_value_cycles(
            uniform, values, seeds.shape
        )
        return cls(starts, inverse, packed_cycles, int(cycle.size))


_SOBOL_CYCLE_CACHE: Dict[int, "np.ndarray[Any, Any]"] = {}
_SOBOL_CYCLE_LOCK = threading.Lock()
_SOBOL_CYCLE_MAX_WIDTH = _TABLE_MAX_WIDTH


def _sobol_cycle_uniforms(width: int) -> "np.ndarray[Any, Any]":
    """The full-period van der Corput cycle for *width* bits, memoized.

    ``van_der_corput(i, width)`` consumes only the low *width* bits of
    ``i``, so the sequence is exactly periodic with period
    ``2**width`` — the property that makes the Sobol comparator stream
    a :class:`_PackedCycleSource`.  The table is 8 MiB at the width cap
    and shared process-wide, like the LFSR cycle tables.
    """
    with _SOBOL_CYCLE_LOCK:
        cycle = _SOBOL_CYCLE_CACHE.get(int(width))
        if cycle is None:
            cycle = van_der_corput(
                np.arange(1 << int(width), dtype=np.int64), int(width)
            )
            cycle.setflags(write=False)
            _SOBOL_CYCLE_CACHE[int(width)] = cycle
    return cycle


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
        period = 1 << int(width)
        uniform = _sobol_cycle_uniforms(width)
        starts = offsets % period
        inverse, packed_cycles = cls._pack_value_cycles(
            uniform, values, offsets.shape
        )
        return cls(starts, inverse, packed_cycles, period)


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
            bits = (uniforms < self._values[..., None]).astype(np.uint8)
            word = done // _WORD_BITS
            out[..., word : word + _word_count(block)] = pack_bits(bits)
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


# -- packed statistics (chunked streaming) -------------------------------------


def _mux_words(
    coeff_words: "np.ndarray[Any, Any]",
    level_planes: List["np.ndarray[Any, Any]"],
    order: int,
) -> "np.ndarray[Any, Any]":
    """Word-level multiplexer: the selected coefficient bit per clock.

    ``out = OR_m (level == m) & coeff[m]`` with the level-match
    indicator built from the bit-sliced level planes — pure word ops, no
    per-clock bytes.  Tail bits stay zero because the packed coefficient
    words have zero tails.
    """
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    out = np.zeros(level_planes[0].shape, dtype=np.uint64)
    for level in range(order + 1):
        indicator = np.full(level_planes[0].shape, ones, dtype=np.uint64)
        for plane_index, plane in enumerate(level_planes):
            if (level >> plane_index) & 1:
                indicator &= plane
            else:
                indicator &= ~plane
        out |= indicator & coeff_words[:, level, :]
    return out


def packed_tile_statistics(
    circuit: Any,
    data_words: "np.ndarray[Any, Any]",
    coeff_words: "np.ndarray[Any, Any]",
    length: int,
    noise_a: Optional["np.ndarray[Any, Any]"] = None,
    histogram_edges: Optional["np.ndarray[Any, Any]"] = None,
    fault_channel: Optional[Any] = None,
    clock_offset: int = 0,
) -> Tuple[
    "np.ndarray[Any, Any]",
    "np.ndarray[Any, Any]",
    Optional["np.ndarray[Any, Any]"],
]:
    """Accumulator increments for one packed tile: ``(ones, errors, hist)``.

    The chunked streaming runtime's tile step: per-row ones and link
    bit-error counts (and the optional received-power histogram)
    straight from packed words, bit-exact with summing the per-clock
    output of :func:`packed_optical_pass` over the tile.  One sequence
    serves every tile:

    1. Output and ideal words.  Noiseless, with the (verified)
       separated-band property that the threshold decision equals the
       multiplexer bit, both are one word-level mux of the coefficient
       words by the bit-sliced level — no per-clock byte array at all.
       Otherwise (receiver noise, or an exotic detector whose decisions
       diverge from the mux) per-clock keys are assembled, the same flat
       tables as :func:`packed_optical_pass` resolve the decisions, and
       both streams are packed.
    2. The observed words: with *fault_channel* (a
       :class:`~repro.simulation.faultmodel.PackedFaultChannel`) the
       output words pass through it — *clock_offset* is the tile's
       absolute stream clock, so trajectory faults and the
       desynchronization carry resume exactly across tiles.
    3. ``ones`` and ``errors`` are popcounts of the observed words and
       of their XOR with the ideal words.
    4. The power histogram bins the per-key totals of the *optical*
       powers, which receiver-side channel faults do not touch:
       ``np.histogram`` bins each power value identically wherever it
       appears, so weighting the distinct flat-table values by their
       integer occurrence counts is exact.
    """
    context = pass_context(circuit)
    flat = context._flat_tables()
    keys: Optional["np.ndarray[Any, Any]"] = None
    if noise_a is None and flat["decision_is_ideal"]:
        level_planes = _bit_plane_sum(data_words)[: context.level_bits]
        out_words = _mux_words(coeff_words, level_planes, context.order)
        ideal_words = out_words
    else:
        keys = _packed_keys(context, data_words, coeff_words, length)
        out_words = pack_bits(_decisions(context, flat, keys, noise_a))
        ideal_words = pack_bits(flat["ideal"].take(keys))
    observed = (
        out_words
        if fault_channel is None
        else fault_channel.apply_words(out_words, clock_offset, length)
    )
    ones = popcount(observed).sum(axis=-1)
    errors = popcount(observed ^ ideal_words).sum(axis=-1)
    histogram: Optional["np.ndarray[Any, Any]"] = None
    if histogram_edges is not None:
        if keys is None:
            keys = _packed_keys(context, data_words, coeff_words, length)
        key_counts = np.bincount(
            keys.reshape(-1).astype(np.int64), minlength=flat["powers"].size
        )
        counts, _ = np.histogram(
            flat["powers"], bins=histogram_edges, weights=key_counts
        )
        histogram = counts.astype(np.int64)
    return ones, errors, histogram
