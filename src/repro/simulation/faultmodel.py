"""Vectorized stochastic fault & degradation models for the batched engine.

The paper's robustness claim — stochastic computing *degrades
gracefully* under the faults that plague resonant photonics — needs
fault injection that runs at engine speed, not the legacy scalar loop.
This module provides the fault axis of the runtime: a frozen, validated
:class:`FaultSpec` describing channel faults (per-bit flips,
bit-shift/desynchronization, stuck-MZI select pinning) and *trajectory*
faults that evolve over stream time (thermal drift ramps of the flip
rate, laser-power decay erasing ones), plus the word-level applier
(:class:`PackedFaultChannel`) that realizes them.

Determinism contract
--------------------
Fault realizations are seeded from the per-row ``noise_seeds`` of the
evaluation's :class:`~repro.simulation.engine.SeedSchedule` and indexed
by the **absolute** 64-clock word of the stream, so the exact same bits
flip whatever the worker count, shard layout or chunk length — the
same relocatability protocol the runtime's sharded/chunked paths rely
on.  Mask words are generated by a
counter-based splitmix64 hash and compared bit-sliced against the
(possibly time-varying) quantized probability, entirely in ``uint64``
word operations: no unpacked ``(B, L)`` float tensor ever exists on the
packed path (RL009-clean — see CONTRIBUTING).

Threshold planes are built per 64-clock word, not per clock.  A
constant rate broadcasts one word of planes.  The drift ramp's
quantized threshold ``rint(clip(p + r * t / 2**20) * 2**16)`` is
monotone in ``t`` (every IEEE operation in it rounds monotonically), so
a word holds at most the two values at its first and last clock
whenever those differ by at most one: the builder evaluates the rate at
the two word endpoints, bisects for the split lane where the value
steps up, and assembles each plane from the endpoint bits.  Only words
that hold more than two values (ramps steeper than one threshold step
per word) are quantized and packed clock by clock.  The compare walks
the planes MSB first and hashes the low planes only for the words
where some lane is still undecided.

Call-invariant work is done once per process.  Under a fixed
``base_seed`` every call of one batch size gets the same
``noise_seeds``, so its mask words repeat bit for bit:
:meth:`PackedFaultChannel._mask_words` memoizes each tile's mask keyed
on ``(spec, kind, mixed seed bytes, offset, count)``.  The drift and
decay threshold planes depend only on ``(spec, kind, first word, word
count)`` and are cached the same way, so a memo miss skips the plane
build too.  Both caches are the package's one memo helper
(:class:`repro._memo._BoundedCache`), which makes every array it builds
read-only; each holds up to :data:`_CACHE_BYTES` (4 MiB) of arrays and
is scan-resistant: a key is stored on its
second miss, nothing is ever evicted, and once full a cache keeps what
it holds.  So a stream repeated under one seed hits from its third
call on, and if its masks outgrow the bound it still hits on the tiles
that fit.  Rows whose seeds are drawn from an rng get fresh seed bytes
on every call: they never hit the mask memo and take no room in it,
but share the plane cache.  A sweep that gives each fault point one
call (``fault_frontier``) hits neither cache.  The limit: a process
whose caches filled with one workload's keys serves a later workload
unmemoized until :func:`clear_fault_caches` empties both.

Canonical application order (both layouts, documented and tested):

1. **stuck** — the pinned data-MZI channel is forced to
   ``stuck_value`` *before* the optical pass (it changes the select
   level, hence also the faulty circuit's ideal decisions);
2. **decay** — ones are erased with probability ``1 - exp(-t / tau)``
   at absolute clock ``t`` (laser-power decay);
3. **flip** — bits are XOR-flipped with probability
   ``flip_probability + drift_ramp_per_mclock * t / 2**20`` (clipped
   to ``[0, 1]``; thermal drift ramp);
4. **shift** — the stream is delayed by ``shift_clocks`` clocks
   (receiver desynchronization), zeros entering at the front,
   the tail truncated at the stream length.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from .._memo import _arrays, _BoundedCache
from ..errors import ConfigurationError
from .kernels import (
    _WORD_BITS,
    _mask_tail,
    _window_words,
    _word_count,
    pack_bits,
)

__all__ = [
    "FAULT_PROBABILITY_BITS",
    "FaultSpec",
    "PackedFaultChannel",
    "clear_fault_caches",
]

FAULT_PROBABILITY_BITS = 16
"""Quantization of fault probabilities: ``p`` rounds to ``p * 2**16``."""

_PROBABILITY_ONE = 1 << FAULT_PROBABILITY_BITS
_MEGACLOCK = float(1 << 20)
_MAX_SHIFT_CLOCKS = 1 << 20

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN_SQUARED = np.uint64((int(_GOLDEN) ** 2) & int(_ALL_ONES))
# Domain tags decorrelating the flip and erasure mask streams derived
# from the same per-row seed.
_FLIP_DOMAIN = np.uint64(0xF11BF11BF11BF11B)
_ERASE_DOMAIN = np.uint64(0xE5A5E5A5E5A5E5A5)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of one stochastic fault scenario.

    All fields compose; the null spec (all defaults) injects nothing.

    Parameters
    ----------
    flip_probability:
        Per-bit probability (in ``[0, 1]``) that an output stream bit is
        XOR-flipped — the symmetric channel of receiver/comparator
        upsets.  Quantized to :data:`FAULT_PROBABILITY_BITS` bits.
    shift_clocks:
        Receiver desynchronization: the observed stream is the emitted
        stream delayed by this many clocks, zeros entering at the front.
    stuck_channel:
        Index of a data-MZI channel whose select bit-stream is pinned to
        ``stuck_value`` before the optical pass (a stuck MZI switch).
        Validated against the circuit order at evaluation time.
    stuck_value:
        The pinned bit value, ``0`` or ``1``.
    drift_ramp_per_mclock:
        Trajectory fault: additional flip probability accumulated per
        ``2**20`` clocks of absolute stream time (thermal filter drift
        slowly degrading the link margin).  The effective flip
        probability at clock ``t`` is
        ``clip(flip_probability + drift_ramp_per_mclock * t / 2**20, 0, 1)``.
    decay_tau_clocks:
        Trajectory fault: laser-power decay time constant.  A one at
        absolute clock ``t`` is erased (forced to zero) with
        probability ``1 - exp(-t / decay_tau_clocks)``.
    """

    flip_probability: float = 0.0
    shift_clocks: int = 0
    stuck_channel: Optional[int] = None
    stuck_value: int = 0
    drift_ramp_per_mclock: float = 0.0
    decay_tau_clocks: Optional[int] = None

    def __post_init__(self) -> None:
        # Imported at call time: the engine imports this module.
        from .engine import _as_index

        for name in ("flip_probability", "drift_ramp_per_mclock"):
            value = getattr(self, name)
            message = f"{name} must be a float, got {value!r}"
            # float(True) is 1.0: a bool is a mistyped flag, not a rate.
            if isinstance(value, (bool, np.bool_)):
                raise ConfigurationError(message)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ConfigurationError(message) from None
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite, got {value!r}"
                )
            object.__setattr__(self, name, value)
        for name in ("shift_clocks", "stuck_channel", "stuck_value",
                     "decay_tau_clocks"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_index(name, value))
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ConfigurationError(
                f"flip_probability must be in [0, 1], got "
                f"{self.flip_probability!r}"
            )
        if self.drift_ramp_per_mclock < 0.0:
            raise ConfigurationError(
                f"drift_ramp_per_mclock must be >= 0, got "
                f"{self.drift_ramp_per_mclock!r}"
            )
        if not 0 <= self.shift_clocks <= _MAX_SHIFT_CLOCKS:
            raise ConfigurationError(
                f"shift_clocks must be in [0, {_MAX_SHIFT_CLOCKS}], got "
                f"{self.shift_clocks!r}"
            )
        if self.stuck_channel is not None and self.stuck_channel < 0:
            raise ConfigurationError(
                f"stuck_channel must be >= 0, got {self.stuck_channel!r}"
            )
        if self.stuck_value not in (0, 1):
            raise ConfigurationError(
                f"stuck_value must be 0 or 1, got {self.stuck_value!r}"
            )
        if self.decay_tau_clocks is not None and self.decay_tau_clocks <= 0:
            raise ConfigurationError(
                f"decay_tau_clocks must be positive, got "
                f"{self.decay_tau_clocks!r}"
            )

    def replace(self, **changes: Any) -> "FaultSpec":
        """A copy of the spec with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def is_null(self) -> bool:
        """Whether this spec injects nothing at all."""
        return (
            self.flip_probability == 0.0
            and self.shift_clocks == 0
            and self.stuck_channel is None
            and self.drift_ramp_per_mclock == 0.0
            and self.decay_tau_clocks is None
        )

    @property
    def needs_seeds(self) -> bool:
        """Whether any fault component draws random mask bits."""
        return (
            self.flip_probability > 0.0
            or self.drift_ramp_per_mclock > 0.0
            or self.decay_tau_clocks is not None
        )

    @property
    def has_stream_faults(self) -> bool:
        """Whether the observed output stream is modified post-pass."""
        return self.needs_seeds or self.shift_clocks > 0

    @property
    def is_trajectory(self) -> bool:
        """Whether any fault rate varies with absolute stream time."""
        return (
            self.drift_ramp_per_mclock > 0.0
            or self.decay_tau_clocks is not None
        )

    def validate_against_order(self, order: int) -> None:
        """Check circuit-dependent fields against the Bernstein *order*."""
        if self.stuck_channel is not None and self.stuck_channel >= order:
            raise ConfigurationError(
                f"stuck_channel {self.stuck_channel} out of range for a "
                f"circuit of order {order} ({order} data-MZI channels)"
            )


def _mix64(x: "np.ndarray[Any, Any]") -> "np.ndarray[Any, Any]":
    """splitmix64 finalizer over a uint64 array (counter-based hashing)."""
    z = np.asarray(x * _GOLDEN)
    _finalize64(z, np.empty_like(z))
    return z


def _finalize64(
    z: "np.ndarray[Any, Any]", scratch: "np.ndarray[Any, Any]"
) -> None:
    """The xor-shift-multiply rounds of :func:`_mix64`, in place on *z*."""
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _MIX_MULT_1
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _MIX_MULT_2
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def _delayed_words(
    head: "np.ndarray[Any, Any]",
    delay: int,
    words: "np.ndarray[Any, Any]",
    count: int,
) -> "np.ndarray[Any, Any]":
    """The first *count* bits of ``head[:delay] ++ words``, packed.

    *head* holds *delay* bits and zeros past them; *words* is read from
    its bit 0 and lands ``delay >> 6`` words up.  Built straight into
    the result in three word passes: each word's top ``delay & 63``
    bits spilled into the word after it, then the words shifted up by
    ``delay & 63`` bits ORed in, then *head* ORed into the first words.
    """
    if delay >= count:
        return _window_words(head, 0, count)
    out = np.empty((words.shape[0], _word_count(count)), dtype=np.uint64)
    word_delay, bit_delay = delay >> 6, delay & 63
    out[:, :word_delay] = 0
    body = out[:, word_delay:]
    moved = min(body.shape[1], words.shape[1])
    if bit_delay:
        spill = min(body.shape[1] - 1, words.shape[1])
        body[:, 0] = 0
        np.right_shift(
            words[:, :spill],
            np.uint64(_WORD_BITS - bit_delay),
            out=body[:, 1 : 1 + spill],
        )
        body[:, 1 + spill :] = 0
        body[:, :moved] |= words[:, :moved] << np.uint64(bit_delay)
    else:
        body[:, :moved] = words[:, :moved]
        body[:, moved:] = 0
    head_words = _word_count(delay)
    out[:, :head_words] |= head[:, :head_words]
    _mask_tail(out, count)
    return out


def _quantized_thresholds(
    probabilities: "np.ndarray[Any, Any]",
) -> "np.ndarray[Any, Any]":
    """Probabilities quantized to ``[0, 2**FAULT_PROBABILITY_BITS]`` ints."""
    scaled = np.rint(probabilities * float(_PROBABILITY_ONE))
    return np.clip(scaled, 0, _PROBABILITY_ONE).astype(np.int64)


def _threshold_planes(
    thresholds: "np.ndarray[Any, Any]",
) -> Tuple["np.ndarray[Any, Any]", ...]:
    """Word-packed bit planes of per-clock thresholds (LSB first).

    *thresholds* covers an aligned run of absolute clocks (a multiple of
    64 entries); plane ``j`` packs bit ``j`` of each clock's threshold.
    ``FAULT_PROBABILITY_BITS + 1`` planes: the top plane is set only
    where the threshold saturates at ``2**FAULT_PROBABILITY_BITS``
    (probability exactly one).
    """
    return tuple(
        pack_bits(((thresholds >> j) & 1).astype(np.uint8))
        for j in range(FAULT_PROBABILITY_BITS + 1)
    )


def _ramp_planes(
    thresholds_at: "Callable[[np.ndarray[Any, Any]], np.ndarray[Any, Any]]",
    first_word: int,
    word_total: int,
) -> Tuple["np.ndarray[Any, Any]", ...]:
    """Threshold planes of a monotone per-clock ramp, built per word.

    *thresholds_at* maps absolute int64 clocks to their quantized
    thresholds and must be non-decreasing in the clock.  A word whose
    last-clock threshold exceeds its first-clock one by at most one
    holds the low value up to a split lane and the high value from
    there: six bisection steps find that lane, and every plane is the
    low value's bit below it and the high value's bit from it.  Words
    that hold more than two values are quantized and packed per clock.
    Bit-identical to :func:`_threshold_planes` of *thresholds_at* over
    every clock of the words.
    """
    starts = _WORD_BITS * (
        np.int64(first_word) + np.arange(word_total, dtype=np.int64)
    )
    low = thresholds_at(starts)
    high = thresholds_at(starts + (_WORD_BITS - 1))
    # The last lane still at the low value: lane 0 holds it, and each
    # step keeps the candidate lane when its threshold has not stepped.
    last = np.zeros(word_total, dtype=np.int64)
    for step in (32, 16, 8, 4, 2, 1):
        candidate = last + step
        np.copyto(
            last, candidate, where=thresholds_at(starts + candidate) == low
        )
    low_lanes = _ALL_ONES >> (_WORD_BITS - 1 - last).astype(np.uint64)
    bits = np.arange(FAULT_PROBABILITY_BITS + 1, dtype=np.int64)[:, None]
    low_set = (-((low >> bits) & 1)).view(np.uint64)
    high_set = (-((high >> bits) & 1)).view(np.uint64)
    planes = (low_set & low_lanes) | (high_set & ~low_lanes)
    steep = np.flatnonzero(high - low > 1)
    if steep.size:
        clocks = starts[steep, None] + np.arange(_WORD_BITS, dtype=np.int64)
        planes[:, steep] = _threshold_planes(thresholds_at(clocks.ravel()))
    return tuple(planes)


_FULL_WIDTH_PLANES = 10
"""Planes compared on every word before the undecided words are compacted.

After ten planes a lane is still undecided with probability ``2**-10``,
so about ``1 - (1 - 2**-10)**64``, or 6%, of the words carry on.
"""


def _compare_planes(
    less: "np.ndarray[Any, Any]",
    equal: "np.ndarray[Any, Any]",
    base: "np.ndarray[Any, Any]",
    keys: "np.ndarray[Any, Any]",
    planes: "List[Tuple[int, np.ndarray[Any, Any]]]",
) -> None:
    """Bit-sliced ``U < T`` steps over ``(j, plane)`` pairs, MSB first.

    Updates *less* and *equal* in place.  Plane ``j``'s uniform bits
    are ``_mix64(seed + (key + j + 1) * _GOLDEN)``, with *base* holding
    ``seed * _GOLDEN`` (the multiply that opens :func:`_mix64`, folded
    into both terms: uint64 arithmetic is exact modulo ``2**64``).  A
    still-equal lane whose bits differ is decided: ``U < T`` exactly
    where the threshold bit is the set one.
    """
    uniform = np.empty_like(less)
    scratch = np.empty_like(less)
    for j, threshold in planes:
        np.add(base, (keys + np.uint64(j + 1)) * _GOLDEN_SQUARED, out=uniform)
        _finalize64(uniform, scratch)
        uniform ^= threshold
        uniform &= equal
        equal ^= uniform
        uniform &= threshold
        less |= uniform


def packed_bernoulli_words(
    seeds: "np.ndarray[Any, Any]",
    first_word: int,
    planes: Tuple["np.ndarray[Any, Any]", ...],
) -> "np.ndarray[Any, Any]":
    """Seeded Bernoulli mask words at absolute word indices, bit-exact.

    Returns the ``(B, W)`` uint64 array whose bit at row ``b``, word
    ``first_word + w``, lane ``k`` is 1 with the probability encoded by
    the threshold *planes* at that lane — computed as a bit-sliced
    ``U < T`` comparison where each lane's uniform ``U`` is drawn from
    the counter-based splitmix64 hash of ``(seed, absolute word,
    plane)``.  Pure function of the absolute position, so any tiling of
    the stream reproduces the same mask bits.

    The planes run MSB first; a lane whose bits have differed once is
    decided, so after :data:`_FULL_WIDTH_PLANES` planes only the words
    with an undecided lane are hashed and compared further.
    """
    word_total = planes[0].shape[0]
    counters = np.uint64(first_word) + np.arange(word_total, dtype=np.uint64)
    keys = counters * np.uint64(FAULT_PROBABILITY_BITS + 1)
    base = (seeds * _GOLDEN)[:, None]
    # Top plane: threshold saturated at probability one — the uniform
    # (which spans [0, 2**FAULT_PROBABILITY_BITS)) is always below it.
    top = planes[FAULT_PROBABILITY_BITS][None, :]
    less = np.broadcast_to(top, (seeds.shape[0], word_total)).copy()
    equal = ~less
    split = FAULT_PROBABILITY_BITS - _FULL_WIDTH_PLANES
    high_planes = range(FAULT_PROBABILITY_BITS - 1, split - 1, -1)
    _compare_planes(
        less, equal, base, keys, [(j, planes[j]) for j in high_planes]
    )
    undecided = np.flatnonzero(equal)
    if undecided.size:
        rows, cols = np.divmod(undecided, word_total)
        sub_less = less.ravel()[undecided]
        _compare_planes(
            sub_less,
            equal.ravel()[undecided],
            base[rows, 0],
            keys[cols],
            [(j, planes[j][cols]) for j in range(split - 1, -1, -1)],
        )
        less.ravel()[undecided] = sub_less
    return less


_CACHE_BYTES = 4 << 20
"""Byte bound of each fault cache: the total ``nbytes`` it stores."""


def _nbytes(value: Any) -> int:
    return sum(array.nbytes for array in _arrays(value))


_MASK_MEMO: "_BoundedCache[np.ndarray[Any, Any]]" = _BoundedCache(
    _CACHE_BYTES, _nbytes, scan_resistant=True
)
"""Tile mask words keyed on ``(spec, kind, seed bytes, offset, count)``."""

_PLANE_CACHE: "_BoundedCache[Tuple[np.ndarray[Any, Any], ...]]" = (
    _BoundedCache(_CACHE_BYTES, _nbytes, scan_resistant=True)
)
"""Drift and decay threshold planes keyed on ``(spec, kind, first word,
word count)``."""


def clear_fault_caches() -> None:
    """Drop every memoized mask word and threshold plane (testing hook)."""
    _MASK_MEMO.clear()
    _PLANE_CACHE.clear()


class PackedFaultChannel:
    """Stateful word-level applier of one :class:`FaultSpec`'s stream faults.

    Bound to one evaluation (spec, per-row seeds, stream length), it
    transforms the engine's observed output stream tile by tile through
    :meth:`apply_words` on packed ``(B, W)`` uint64 tiles.  Flip and
    erasure masks are pure functions of the absolute clock position; the
    desynchronization shift carries the last ``shift_clocks`` emitted
    bits across tiles, so tiles must be applied in stream order when a
    shift is active (enforced, like the runtime's stateful cursors).
    """

    def __init__(
        self,
        spec: FaultSpec,
        fault_seeds: "np.ndarray[Any, Any]",
        length: int,
    ) -> None:
        if not isinstance(spec, FaultSpec):
            raise ConfigurationError(
                f"spec must be a FaultSpec, got {spec!r}"
            )
        from .engine import _positive_index

        seeds = np.atleast_1d(np.asarray(fault_seeds))
        # A float seed would truncate silently and a bool is a flag.
        if seeds.ndim != 1 or seeds.size == 0 or seeds.dtype.kind not in "iu":
            raise ConfigurationError(
                "fault_seeds must be a non-empty 1-D integer array, got "
                f"{fault_seeds!r}"
            )
        seeds = seeds.astype(np.uint64)
        self._spec = spec
        self._length = _positive_index("length", length)
        self._flip_seeds = _mix64(seeds ^ _FLIP_DOMAIN)
        self._erase_seeds = _mix64(seeds ^ _ERASE_DOMAIN)
        self._next_offset = 0
        self._carry: Optional["np.ndarray[Any, Any]"] = None
        if spec.shift_clocks > 0:
            self._carry = np.zeros(
                (seeds.size, _word_count(spec.shift_clocks)),
                dtype=np.uint64,
            )
        # Constant-rate specs reuse one flat threshold-plane tuple; the
        # trajectory path rebuilds planes per tile at absolute clocks.
        self._flat_flip_planes: Optional[
            Tuple["np.ndarray[Any, Any]", ...]
        ] = None
        if spec.flip_probability > 0.0 and spec.drift_ramp_per_mclock == 0.0:
            level = _quantized_thresholds(
                np.full(64, spec.flip_probability, dtype=np.float64)
            )
            self._flat_flip_planes = _threshold_planes(level)

    @property
    def spec(self) -> FaultSpec:
        """The bound fault scenario."""
        return self._spec

    @property
    def batch_size(self) -> int:
        """Number of rows this channel covers."""
        return int(self._flip_seeds.size)

    def _flip_planes(
        self, first_word: int, word_total: int
    ) -> Tuple["np.ndarray[Any, Any]", ...]:
        if self._flat_flip_planes is not None:
            flat = self._flat_flip_planes
            return tuple(
                np.broadcast_to(plane[:1], (word_total,)) for plane in flat
            )
        return _PLANE_CACHE.get(
            (self._spec, "flip", first_word, word_total),
            lambda: _ramp_planes(
                self._drift_thresholds, first_word, word_total
            ),
        )

    def _drift_thresholds(
        self, clocks: "np.ndarray[Any, Any]"
    ) -> "np.ndarray[Any, Any]":
        """Quantized drifting flip thresholds at absolute *clocks*."""
        spec = self._spec
        rates = np.clip(
            spec.flip_probability
            + spec.drift_ramp_per_mclock
            * (clocks.astype(np.float64) / _MEGACLOCK),
            0.0,
            1.0,
        )
        return _quantized_thresholds(rates)

    def _erase_planes(
        self, first_word: int, word_total: int
    ) -> Tuple["np.ndarray[Any, Any]", ...]:
        # Per clock: np.exp is not guaranteed monotone to the last ulp,
        # so the word-endpoint builder of the drift ramp does not apply.
        tau = self._spec.decay_tau_clocks
        assert tau is not None

        def build() -> Tuple["np.ndarray[Any, Any]", ...]:
            clocks = np.uint64(64) * np.uint64(first_word) + np.arange(
                64 * word_total, dtype=np.uint64
            )
            rates = 1.0 - np.exp(-(clocks.astype(np.float64)) / float(tau))
            return _threshold_planes(_quantized_thresholds(rates))

        return _PLANE_CACHE.get(
            (self._spec, "erase", first_word, word_total), build
        )

    def _mask_words(
        self, kind: str, offset: int, count: int
    ) -> "np.ndarray[Any, Any]":
        """Read-only mask covering stream clocks ``[offset, offset+count)``.

        Memoized: the mask is a pure function of the spec, the mixed
        seeds and the clock window (see the module docstring).
        """
        seeds = self._flip_seeds if kind == "flip" else self._erase_seeds
        return _MASK_MEMO.get(
            (self._spec, kind, seeds.tobytes(), offset, count),
            lambda: self._build_mask_words(kind, seeds, offset, count),
        )

    def _build_mask_words(
        self,
        kind: str,
        seeds: "np.ndarray[Any, Any]",
        offset: int,
        count: int,
    ) -> "np.ndarray[Any, Any]":
        """The mask of :meth:`_mask_words`, hashed and compared afresh."""
        first_word = offset >> 6
        shift = offset & 63
        word_total = _word_count(count) + (1 if shift else 0)
        planes = (self._flip_planes if kind == "flip" else self._erase_planes)(
            first_word, word_total
        )
        aligned = packed_bernoulli_words(seeds, first_word, planes)
        return _window_words(aligned, shift, count)

    def _shift_words(
        self, words: "np.ndarray[Any, Any]", offset: int, count: int
    ) -> "np.ndarray[Any, Any]":
        """Delay *words* by ``shift_clocks``, carrying bits across tiles."""
        delay = self._spec.shift_clocks
        carry = self._carry
        assert carry is not None
        if offset != self._next_offset:
            raise ConfigurationError(
                "a desynchronization fault carries stream state: tiles "
                f"resume sequentially, expected offset {self._next_offset}, "
                f"got {offset}"
            )
        # The stream carry ++ tile: its first count bits leave now, the
        # delay bits after them are the next carry.
        observed = _delayed_words(carry, delay, words, count)
        if delay <= count:
            self._carry = _window_words(words, count - delay, delay)
        else:
            rest = delay - count
            self._carry = _delayed_words(
                _window_words(carry, count, rest), rest, words, delay
            )
        self._next_offset = offset + count
        return observed

    def _check_tile(
        self, words: "np.ndarray[Any, Any]", offset: int, count: int
    ) -> None:
        """Reject a malformed tile before any mask is built."""
        from .engine import _as_index

        offset = _as_index("offset", offset)
        count = _as_index("count", count)
        if offset < 0 or count <= 0 or offset + count > self._length:
            raise ConfigurationError(
                f"tile [{offset}, {offset + count}) is outside the "
                f"{self._length}-clock stream"
            )
        expected = (self.batch_size, _word_count(count))
        if not isinstance(words, np.ndarray):
            got = type(words).__name__
        elif words.shape == expected and words.dtype == np.uint64:
            return
        else:
            got = f"{words.dtype} array of shape {words.shape}"
        raise ConfigurationError(
            f"a {count}-clock tile of this channel is a uint64 array of "
            f"shape {expected}, got {got}"
        )

    def apply_words(
        self, words: "np.ndarray[Any, Any]", offset: int, count: int
    ) -> "np.ndarray[Any, Any]":
        """Faulted observed words for one tile of the output stream.

        *words* is the clean ``(B, ceil(count/64))`` uint64 tile packed
        from stream clock *offset* (zero tail bits); the result has the
        same shape and tail invariant.  Application order: decay
        erasure, then flips, then the desynchronization shift — see the
        module docstring.
        """
        self._check_tile(words, offset, count)
        spec = self._spec
        observed = words
        if spec.decay_tau_clocks is not None:
            observed = observed & ~self._mask_words("erase", offset, count)
        if spec.flip_probability > 0.0 or spec.drift_ramp_per_mclock > 0.0:
            observed = observed ^ self._mask_words("flip", offset, count)
            _mask_tail(observed, count)
        if spec.shift_clocks > 0:
            observed = self._shift_words(observed, offset, count)
        if observed is words:
            observed = words.copy()
        return observed


def fault_channel_for(
    spec: Optional[FaultSpec],
    noise_seeds: "np.ndarray[Any, Any]",
    length: int,
) -> Optional[PackedFaultChannel]:
    """The stream-fault channel for one evaluation, or ``None``.

    *noise_seeds* is the evaluation's per-row
    :attr:`~repro.simulation.engine.SeedSchedule.noise_seeds` column —
    the relocatable per-row seed material the fault masks derive from
    (via domain-tagged hashing, so fault masks never correlate with the
    receiver-noise draws).
    """
    if spec is None or not spec.has_stream_faults:
        return None
    return PackedFaultChannel(spec, noise_seeds, length)


def pin_stuck_words(
    data_words: "np.ndarray[Any, Any]", spec: FaultSpec, count: int
) -> "np.ndarray[Any, Any]":
    """Packed data streams with the stuck channel pinned (a fresh copy).

    *count* is the tile's clock count — a pinned-high channel keeps the
    packed zero-tail invariant.
    """
    pinned = np.array(data_words)
    if spec.stuck_value:
        pinned[:, spec.stuck_channel, :] = _ALL_ONES
        _mask_tail(pinned[:, spec.stuck_channel, :], count)
    else:
        pinned[:, spec.stuck_channel, :] = np.uint64(0)
    return pinned
