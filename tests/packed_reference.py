"""Reference formulations of the packed production paths.

Straightforward byte-wise, per-clock (or per-row) formulations of what
the packed optical pass, the fault channel and the packed cycle sources
compute word by word.  The parity tests compare the production paths
against these bit for bit:

* :func:`optical_pass` and :func:`tile_statistics` are the byte-wise
  optical pass and tile step.  They unpack the stream words to
  ``(B, C, L)`` uint8 tensors, index the Eq. 6 table per clock and
  slice with :func:`decide_batch`.  The pass returns a
  :class:`ReferencePass`, whose per-clock fields are those arrays
  themselves rather than decodes of packed words.  :func:`installed`
  swaps both in for the production pass inside a ``with`` block,
  through the module globals the engine and the tile loop call.
* :func:`apply_bits` is the fault channel on a ``(B, L)`` uint8 tile.
* :func:`flip_candidates` walks each row's receiver-noise flip
  candidates one normal triple at a time, and :func:`toggle_flips`
  accepts them clock by clock from the received power; the two passes
  apply them.  :func:`decide_batch` with a dense ``(B, L)`` normal draw
  is the distribution the sparse flips stand in for.
* :func:`flip_planes`, :func:`bernoulli_words` and :func:`cycle_take`
  are the per-clock and full-width forms of the fault planes, the
  Bernoulli compare and the cycle gather.
"""

import contextlib
import math
from statistics import NormalDist

import numpy as np

from repro.errors import ConfigurationError
from repro.simulation import engine, runtime
from repro.simulation.faultmodel import (
    FAULT_PROBABILITY_BITS,
    _quantized_thresholds,
    _threshold_planes,
)
from repro.simulation.kernels import (
    FlipCandidates,
    pack_bits,
    pass_context,
    unpack_bits,
)

PASSES = ("reference", "production")
"""The two ways a parity case can run: swapped to the reference, or not."""

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


def pattern_index(coeff_bits):
    """Coefficient pattern per clock: ``(B, L)`` int64 from ``(B, C, L)``.

    Bit ``c`` of the result is channel ``c``'s transmitted bit.
    """
    pattern = np.zeros(
        (coeff_bits.shape[0], coeff_bits.shape[2]), dtype=np.int64
    )
    for channel in range(coeff_bits.shape[1]):
        pattern |= coeff_bits[:, channel, :].astype(np.int64) << channel
    return pattern


def decide_batch(receiver, powers, noise_a):
    """Threshold decisions on a ``(B, L)`` block of received powers."""
    currents = np.asarray(receiver.detector.photocurrent_a(powers))
    if noise_a is not None:
        noise = np.asarray(noise_a, dtype=float)
        if noise.shape != powers.shape:
            raise ConfigurationError(
                f"noise_a shape {noise.shape} must match powers shape "
                f"{powers.shape}"
            )
        currents = currents + noise
    return (currents > receiver.threshold_a).astype(np.uint8)


def flip_probability(receiver, current):
    """``Q(|current - thr| / sigma)``: the chance noise flips the decision."""
    sigma = receiver.detector.noise_current_a
    margin = abs(current - receiver.threshold_a)
    return 0.5 * math.erfc(margin / (sigma * math.sqrt(2.0)))


def flip_rate(circuit):
    """``q``: the largest flip probability over the Eq. 6 table."""
    context = pass_context(circuit)
    currents = context.receiver.detector.photocurrent_a(context.table)
    return max(
        flip_probability(context.receiver, current)
        for current in np.ravel(currents).tolist()
    )


def flip_candidates(circuit, schedule, length):
    """Every row's flip candidates over ``[0, length)``, triple by triple.

    Row ``b`` reads normal triples ``(z1, z2, z3)`` of RMS ``sigma`` from
    ``schedule.row_noise_rng(b)``; the next candidate sits ``floor(E /
    lambda)`` clocks past the previous one's successor, ``E = (z1**2 +
    z2**2) / (2 sigma**2)``, and carries ``z3`` as its acceptance draw.
    """
    sigma = pass_context(circuit).receiver.detector.noise_current_a
    rate = flip_rate(circuit)
    lam = -math.log1p(-rate)
    rows, clocks, draws = [], [], []
    for row in range(schedule.batch_size if rate > 0.0 else 0):
        rng = schedule.row_noise_rng(row)
        clock = -1
        while True:
            z1, z2, z3 = rng.normal(0.0, sigma, 3)
            exponential = (z1 * z1 + z2 * z2) / (2.0 * sigma**2)
            clock += math.floor(min(exponential, 2.0**53 * lam) / lam) + 1
            if clock >= length:
                break
            rows.append(row)
            clocks.append(clock)
            draws.append(z3)
    return FlipCandidates(
        np.asarray(rows, dtype=np.int64),
        np.asarray(clocks, dtype=np.int64),
        np.asarray(draws, dtype=float),
    )


def toggle_flips(circuit, powers, output_bits, candidates):
    """Toggle, in place, each candidate clock whose flip is accepted.

    A candidate at a clock with flip probability ``p`` is accepted iff
    its draw lies below ``sigma * Phi^-1(p / q)``.
    """
    receiver = pass_context(circuit).receiver
    sigma = receiver.detector.noise_current_a
    rate = flip_rate(circuit)
    for row, clock, draw in zip(*(part.tolist() for part in candidates)):
        current = receiver.detector.photocurrent_a(powers[row, clock])
        ratio = flip_probability(receiver, current) / rate
        if ratio >= 1.0:
            threshold = math.inf
        elif ratio <= 0.0:
            threshold = -math.inf
        else:
            threshold = sigma * NormalDist().inv_cdf(ratio)
        if draw < threshold:
            output_bits[row, clock] ^= 1


class ReferencePass:
    """The byte-wise pass's per-clock arrays behind the production interface.

    Offers the methods of :class:`repro.simulation.kernels.PassWords` —
    the counts a result keeps and the per-clock fields it decodes — but
    computes none of them from packed words: each returns an array the
    byte-wise pass built clock by clock, or reduces one.
    """

    def __init__(self, powers, output_bits, ideal_bits, levels):
        self._powers = powers
        self._output_bits = output_bits
        self._ideal_bits = ideal_bits
        self._levels = levels

    def ones_count(self):
        return self._output_bits.sum(axis=1, dtype=np.int64)

    def transmission_bit_errors(self):
        return np.sum(
            self._output_bits != self._ideal_bits, axis=1, dtype=np.int64
        )

    def power_histogram(self, edges):
        return np.histogram(self._powers, bins=edges)[0]

    def received_power_mw(self):
        return self._powers

    def output_bits(self):
        return self._output_bits

    def ideal_bits(self):
        return self._ideal_bits

    def select_levels(self):
        return self._levels


def optical_pass(
    circuit,
    data_words,
    coeff_words,
    candidates,
    length,
    fault_channel=None,
    clock_offset=0,
):
    """The optics + receiver pass on unpacked byte tensors.

    Same arguments as :func:`repro.simulation.kernels.packed_optical_pass`;
    returns a :class:`ReferencePass` over the per-clock powers, observed
    bits (after the fault channel), ideal bits and levels.
    """
    context = pass_context(circuit)
    data_bits = unpack_bits(data_words, length)
    coeff_bits = unpack_bits(coeff_words, length)
    levels = data_bits.sum(axis=1, dtype=np.int64)
    powers = context.table[pattern_index(coeff_bits), levels]
    output_bits = decide_batch(context.receiver, powers, None)
    if candidates is not None:
        toggle_flips(circuit, powers, output_bits, candidates)
    if fault_channel is not None:
        output_bits = apply_bits(fault_channel, output_bits, clock_offset)
    # The bits the ideal (electronic) multiplexer would pick.
    ideal_bits = np.take_along_axis(coeff_bits, levels[:, None, :], axis=1)
    return ReferencePass(
        powers, output_bits, np.ascontiguousarray(ideal_bits[:, 0, :]), levels
    )


def apply_bits(channel, bits, offset):
    """A fault channel applied to a ``(B, count)`` uint8 tile."""
    count = int(bits.shape[-1])
    return unpack_bits(channel.apply_words(pack_bits(bits), offset, count), count)


def tile_statistics(
    circuit,
    data_words,
    coeff_words,
    length,
    candidates=None,
    histogram_edges=None,
    fault_channel=None,
    clock_offset=0,
):
    """``(ones, errors, hist)`` of one tile, summed from :func:`optical_pass`.

    Same arguments and result as
    :func:`repro.simulation.kernels.packed_tile_statistics`.
    """
    result = optical_pass(
        circuit,
        data_words,
        coeff_words,
        candidates,
        length,
        fault_channel,
        clock_offset,
    )
    histogram = None
    if histogram_edges is not None:
        histogram = result.power_histogram(histogram_edges)
    return result.ones_count(), result.transmission_bit_errors(), histogram


@contextlib.contextmanager
def installed():
    """Run one-shot and chunked evaluations on the reference pass.

    Swaps ``engine.packed_optical_pass`` and
    ``runtime.packed_tile_statistics`` for the block.  A process-backend
    worker need not inherit the swap, so run the reference side of a
    comparison in-process.
    """
    saved = engine.packed_optical_pass, runtime.packed_tile_statistics
    engine.packed_optical_pass = optical_pass
    runtime.packed_tile_statistics = tile_statistics
    try:
        yield
    finally:
        engine.packed_optical_pass, runtime.packed_tile_statistics = saved


def running(kernel_pass):
    """:func:`installed` for ``"reference"``, no swap for ``"production"``."""
    if kernel_pass not in PASSES:
        raise ValueError(f"unknown pass {kernel_pass!r}")
    if kernel_pass == "reference":
        return installed()
    return contextlib.nullcontext()
