"""Per-clock reference builders for the word-level packed fast paths.

Straightforward per-clock (or per-row) formulations of what the fault
channel and the packed cycle sources compute word by word.  The parity
tests compare the fast paths against these bit for bit.
"""

import numpy as np

from repro.simulation.faultmodel import (
    FAULT_PROBABILITY_BITS,
    _quantized_thresholds,
    _threshold_planes,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def mix64(x):
    """splitmix64 finalizer, one allocating expression per round."""
    z = x * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def flip_planes(spec, first_word, word_total):
    """Flip threshold planes: the rate quantized at every clock, then packed."""
    clocks = np.uint64(64) * np.uint64(first_word) + np.arange(
        64 * word_total, dtype=np.uint64
    )
    rates = np.clip(
        spec.flip_probability
        + spec.drift_ramp_per_mclock * (clocks.astype(np.float64) / (1 << 20)),
        0.0,
        1.0,
    )
    return _threshold_planes(_quantized_thresholds(rates))


def bernoulli_words(seeds, first_word, planes):
    """The bit-sliced ``U < T`` compare over all 17 planes at full width."""
    word_total = planes[0].shape[0]
    counters = np.uint64(first_word) + np.arange(word_total, dtype=np.uint64)
    base = seeds[:, None]
    plane_count = np.uint64(FAULT_PROBABILITY_BITS + 1)
    top = planes[FAULT_PROBABILITY_BITS][None, :]
    less = np.broadcast_to(top, (seeds.shape[0], word_total)).copy()
    equal = ~less
    for j in range(FAULT_PROBABILITY_BITS - 1, -1, -1):
        uniform = mix64(
            base + (counters * plane_count + np.uint64(j + 1)) * _GOLDEN
        )
        threshold = planes[j][None, :]
        less |= equal & ~uniform & threshold
        equal &= ~(uniform ^ threshold)
    return less


def cycle_take(source, offset, count):
    """A packed cycle source's window through two 2-D row/word gathers."""
    words = -(-count // 64)
    positions = (
        source._starts[..., None].astype(np.int64)
        + source._start_shift
        + int(offset)
        + 64 * np.arange(words, dtype=np.int64)
    ) % source._period
    word_index = positions >> 6
    shift = (positions & 63).astype(np.uint64)
    rows = source._inverse[..., None]
    lo = source._packed_cycles[rows, word_index]
    hi = source._packed_cycles[rows, word_index + 1]
    high_part = hi << ((np.uint64(64) - shift) & np.uint64(63))
    out = (lo >> shift) | np.where(shift == 0, np.uint64(0), high_part)
    tail = count % 64
    if tail:
        out[..., -1] &= np.uint64((1 << tail) - 1)
    return out
