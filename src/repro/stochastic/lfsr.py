"""Linear-feedback shift registers: the classical SC pseudo-random source.

Electronic stochastic number generators (Fig. 1(a) of the paper, after
Qian et al. [9]) compare a binary input against the state of a
maximal-period LFSR.  This module implements a Fibonacci LFSR with the
standard maximal-length tap sets for register widths 3..24.

A maximal-length LFSR visits every non-zero state exactly once per
period, so the stream emitted from any seed is a contiguous window of
one canonical cycle.  The module caches that cycle per ``(width, taps)``
and serves ``states()`` — and the batched windows the evaluation engine
needs — by array slicing instead of per-bit Python stepping.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .._memo import _BoundedCache
from ..errors import ConfigurationError

__all__ = ["LFSR", "MAXIMAL_TAPS", "lfsr_state_windows", "lfsr_uniform_windows"]

MAXIMAL_TAPS = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 18, 17, 14),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
}
"""Maximal-period XOR tap positions (1-based, MSB first) per width."""

_TABLE_MAX_WIDTH = 20
"""Widest register for which the full-period cycle is cached (1M states)."""

_TABLE_ENTRIES = 32
"""Entries each build-once table memo keeps (LFSR cycles, Sobol cycles,
the popcount LUT): more than the 18 built-in tap sets of widths 3..20
and the Sobol widths up to :data:`_TABLE_MAX_WIDTH`, so no built-in
width is ever evicted."""

_CYCLE_TABLES: "_BoundedCache[Tuple[np.ndarray, np.ndarray, np.ndarray]]" = (
    _BoundedCache(_TABLE_ENTRIES)
)


def _cycle_tables(
    width: int, taps: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cycle, position, uniform)`` for the orbit of state 1, read-only.

    ``cycle[k]`` is the ``(k + 1)``-th successor of state 1 (the orbit
    closes with ``cycle[-1] == 1``); ``position`` maps a state to its
    index in ``cycle`` (-1 for states off the orbit); ``uniform`` is the
    cycle pre-scaled to ``(0, 1)`` comparator samples.

    Tap sets without the width tap make the update map non-injective, so
    the walk from state 1 may be rho-shaped (a tail into a loop that
    never revisits 1).  Such orbits are NOT a cycle and cannot back a
    wrap-around table: the cache then records an empty cycle, which
    sends every seed down the per-step fallback.

    Memoized per ``(width, taps)`` in the package's one memo helper,
    which builds unlocked: two thread-backend shards that miss one key
    at once may both walk the ~1M-state orbit, and only one copy is
    kept and returned to both.  A lock held over the build would only
    save that duplicate walk; the helper's own lock already keeps a
    reader from ever seeing a torn or half-built entry.
    """

    def build() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        mask = (1 << width) - 1
        states = np.arange(1 << width, dtype=np.uint32)
        feedback = np.zeros_like(states)
        for tap in taps:
            feedback ^= (states >> np.uint32(tap - 1)) & np.uint32(1)
        successor = ((states << np.uint32(1)) | feedback) & np.uint32(mask)
        succ_list = successor.tolist()
        orbit = []
        closed = False
        state = succ_list[1]
        for _ in range(mask):
            orbit.append(state)
            if state == 1:
                closed = True
                break
            state = succ_list[state]
        if not closed:
            orbit = []
        cycle = np.asarray(orbit, dtype=np.uint32)
        position = np.full(1 << width, -1, dtype=np.int64)
        position[cycle] = np.arange(cycle.size, dtype=np.int64)
        # Pre-scaled comparator samples: the float cycle is what both
        # the scalar `uniform` path and the batched gathers compute.
        uniform = cycle.astype(float) / float(1 << width)
        return cycle, position, uniform

    return _CYCLE_TABLES.get((width, taps), build)


def _window_indices(
    seeds,
    count: int,
    width: int,
    taps: Optional[Sequence[int]],
    offset: int = 0,
) -> tuple:
    """``(indices, cycle, uniform)`` for per-seed windows of the cycle."""
    if count <= 0:
        raise ConfigurationError(f"count must be positive, got {count!r}")
    if offset < 0:
        raise ConfigurationError(f"offset must be >= 0, got {offset!r}")
    taps = _resolve_taps(width, taps)
    seeds = np.asarray(seeds, dtype=np.int64)
    if np.any(seeds < 1) or np.any(seeds >= (1 << width)):
        raise ConfigurationError(
            f"seeds must be in [1, 2**{width} - 1]"
        )
    cycle, position, uniform = _cycle_tables(width, taps)
    starts = position[seeds]
    if np.any(starts < 0):
        raise ConfigurationError(
            "seed lies outside the LFSR state cycle (non-maximal taps); "
            "use LFSR.states for such seeds"
        )
    # int64 offsets + take(mode="wrap") beat an explicit modulo on the
    # large (batch, channels, length) index tensors of the engine.
    indices = starts[..., None] + 1 + offset + np.arange(count, dtype=np.int64)
    return indices, cycle, uniform


def _stepped_windows(
    seeds: np.ndarray,
    count: int,
    width: int,
    taps: Optional[Sequence[int]],
    offset: int = 0,
) -> np.ndarray:
    """Per-seed stepping fallback for registers too wide to cache."""
    if count <= 0:
        raise ConfigurationError(f"count must be positive, got {count!r}")
    if offset < 0:
        raise ConfigurationError(f"offset must be >= 0, got {offset!r}")
    seeds = np.asarray(seeds, dtype=np.int64)
    out = np.empty(seeds.shape + (count,), dtype=np.uint32)
    for index in np.ndindex(seeds.shape):
        register = LFSR(width, int(seeds[index]), taps)
        if offset:
            register.states(offset)
        out[index] = register.states(count)
    return out


def lfsr_state_windows(
    seeds,
    count: int,
    width: int,
    taps: Optional[Sequence[int]] = None,
    offset: int = 0,
) -> np.ndarray:
    """The next *count* states after each seed, as a ``seeds.shape + (count,)`` array.

    Vectorized across any number of seeds via the cached full-period
    cycle: each output row is bit-for-bit the sequence
    ``LFSR(width, seed).states(count)`` would produce.  With *offset*
    the window starts ``offset`` clocks after the seed — the resume hook
    of the chunked streaming runtime (``offset=k`` returns elements
    ``[k, k + count)`` of the ``offset=0`` stream).  Registers wider
    than the cache limit take a per-seed stepping fallback (correct but
    slow).  The workhorse behind the batched evaluation engine.
    """
    if width > _TABLE_MAX_WIDTH:
        return _stepped_windows(seeds, count, width, taps, offset=offset)
    indices, cycle, _ = _window_indices(seeds, count, width, taps, offset=offset)
    return cycle.take(indices, mode="wrap")


def lfsr_uniform_windows(
    seeds,
    count: int,
    width: int,
    taps: Optional[Sequence[int]] = None,
    offset: int = 0,
) -> np.ndarray:
    """Comparator samples in ``(0, 1)`` for each seed's window.

    Bit-for-bit ``LFSR(width, seed).uniform(count)`` per row, gathered
    from the pre-scaled float cycle in one pass (stepping fallback for
    registers wider than the cache limit).  *offset* selects a later
    window of the same stream, exactly like :func:`lfsr_state_windows`.
    """
    if width > _TABLE_MAX_WIDTH:
        states = _stepped_windows(seeds, count, width, taps, offset=offset)
        return states.astype(float) / float(1 << width)
    indices, _, uniform = _window_indices(seeds, count, width, taps, offset=offset)
    return uniform.take(indices, mode="wrap")


def _resolve_taps(
    width: int, taps: Optional[Sequence[int]]
) -> Tuple[int, ...]:
    """Validated tap tuple for *width* (defaulting to the maximal set)."""
    if width < 2:
        raise ConfigurationError(f"width must be >= 2, got {width!r}")
    if taps is None:
        if width not in MAXIMAL_TAPS:
            raise ConfigurationError(
                f"no built-in maximal taps for width {width}; "
                "pass taps= explicitly"
            )
        taps = MAXIMAL_TAPS[width]
    if not all(1 <= t <= width for t in taps):
        raise ConfigurationError(
            f"tap positions must be in [1, {width}], got {taps!r}"
        )
    return tuple(sorted(set(int(t) for t in taps)))


class LFSR:
    """Fibonacci LFSR over GF(2) with maximal-length default taps.

    Parameters
    ----------
    width:
        Register width in bits (3..24 for the built-in tap table).
    seed:
        Initial state, any value in ``[1, 2**width - 1]`` (zero is the
        lock-up state of a XOR LFSR and is rejected).
    taps:
        Optional explicit tap positions (1-based, counted from the MSB
        side like the classical app-note convention).  Defaults to the
        maximal-period set for *width*.
    """

    def __init__(
        self,
        width: int,
        seed: int = 1,
        taps: Optional[Sequence[int]] = None,
    ):
        resolved = _resolve_taps(width, taps)
        if not 1 <= seed < (1 << width):
            raise ConfigurationError(
                f"seed must be in [1, 2**{width} - 1], got {seed!r}"
            )
        self.width = int(width)
        self.taps: Tuple[int, ...] = resolved
        self._state = int(seed)
        self._seed = int(seed)

    @property
    def state(self) -> int:
        """Current register contents."""
        return self._state

    @property
    def period(self) -> int:
        """Period of a maximal-length sequence: ``2**width - 1``."""
        return (1 << self.width) - 1

    def reset(self) -> None:
        """Return to the seed state."""
        self._state = self._seed

    def step(self) -> int:
        """Advance one clock; returns the new state.

        Taps are 1-based bit positions (XAPP052 convention): tap ``t``
        reads register bit ``t - 1``, with bit ``width - 1`` (tap
        ``width``) the bit shifted out each clock.
        """
        feedback = 0
        for tap in self.taps:
            feedback ^= (self._state >> (tap - 1)) & 1
        self._state = ((self._state << 1) | feedback) & ((1 << self.width) - 1)
        return self._state

    def states(self, count: int) -> np.ndarray:
        """The next *count* states as a uint32 array (advances the LFSR).

        Served from the cached full-period cycle by array slicing when
        the width permits (bit-for-bit identical to stepping); falls back
        to per-bit stepping for very wide registers or seeds off the
        canonical orbit of a non-maximal tap set.
        """
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count!r}")
        if self.width <= _TABLE_MAX_WIDTH:
            cycle, position, _ = _cycle_tables(self.width, self.taps)
            start = int(position[self._state])
            if start >= 0:
                indices = (
                    start + 1 + np.arange(count, dtype=np.int64)
                ) % cycle.size
                out = cycle[indices]
                self._state = int(out[-1])
                return out
        out = np.empty(count, dtype=np.uint32)
        for i in range(count):
            out[i] = self.step()
        return out

    def uniform(self, count: int) -> np.ndarray:
        """The next *count* states scaled to ``(0, 1)`` floats."""
        return self.states(count).astype(float) / float(1 << self.width)

    def full_period_states(self) -> np.ndarray:
        """All ``2**width - 1`` states of one full period from the seed."""
        self.reset()
        return self.states(self.period)
