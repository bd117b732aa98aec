"""Reference formulations of the packed production paths.

Straightforward byte-wise, per-clock (or per-row) formulations of what
the packed optical pass, the fault channel and the packed cycle sources
compute word by word.  The parity tests compare the production paths
against these bit for bit:

* :func:`optical_pass` and :func:`tile_statistics` are the byte-wise
  optical pass and tile step.  They unpack the stream words to
  ``(B, C, L)`` uint8 tensors, index the Eq. 6 table per clock and
  slice with :func:`decide_batch`.  :func:`installed` swaps them in for
  the production pass inside a ``with`` block, through the module
  globals the engine and the tile loop call.
* :func:`apply_bits` is the fault channel on a ``(B, L)`` uint8 tile.
* :func:`flip_planes`, :func:`bernoulli_words` and :func:`cycle_take`
  are the per-clock and full-width forms of the fault planes, the
  Bernoulli compare and the cycle gather.
"""

import contextlib

import numpy as np

from repro.errors import ConfigurationError
from repro.simulation import engine, runtime
from repro.simulation.faultmodel import (
    FAULT_PROBABILITY_BITS,
    _quantized_thresholds,
    _threshold_planes,
)
from repro.simulation.kernels import pack_bits, pass_context, unpack_bits

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


def optical_pass(circuit, data_words, coeff_words, noise_a, length):
    """The optics + receiver pass on unpacked byte tensors.

    Same arguments and ``(powers, output_bits, ideal_bits, levels)``
    result as :func:`repro.simulation.kernels.packed_optical_pass`.
    """
    context = pass_context(circuit)
    data_bits = unpack_bits(data_words, length)
    coeff_bits = unpack_bits(coeff_words, length)
    levels = data_bits.sum(axis=1, dtype=np.int64)
    powers = context.table[pattern_index(coeff_bits), levels]
    output_bits = decide_batch(context.receiver, powers, noise_a)
    # The bits the ideal (electronic) multiplexer would pick.
    ideal_bits = np.take_along_axis(coeff_bits, levels[:, None, :], axis=1)
    return powers, output_bits, np.ascontiguousarray(ideal_bits[:, 0, :]), levels


def apply_bits(channel, bits, offset):
    """A fault channel applied to a ``(B, count)`` uint8 tile."""
    count = int(bits.shape[-1])
    return unpack_bits(channel.apply_words(pack_bits(bits), offset, count), count)


def tile_statistics(
    circuit,
    data_words,
    coeff_words,
    length,
    noise_a=None,
    histogram_edges=None,
    fault_channel=None,
    clock_offset=0,
):
    """``(ones, errors, hist)`` of one tile, summed from :func:`optical_pass`.

    Same arguments and result as
    :func:`repro.simulation.kernels.packed_tile_statistics`.
    """
    powers, output_bits, ideal_bits, _ = optical_pass(
        circuit, data_words, coeff_words, noise_a, length
    )
    if fault_channel is not None:
        output_bits = apply_bits(fault_channel, output_bits, clock_offset)
    ones = output_bits.sum(axis=1, dtype=np.int64)
    errors = np.sum(output_bits != ideal_bits, axis=1, dtype=np.int64)
    histogram = None
    if histogram_edges is not None:
        histogram = np.histogram(powers, bins=histogram_edges)[0]
    return ones, errors, histogram


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
