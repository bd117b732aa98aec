"""Bit-level functional simulation of the optical ReSC circuit.

Runs the complete Fig. 3 pipeline for one evaluation:

1. ``n`` SNGs produce the stochastic data streams ``x_1..x_n`` that drive
   the MZIs (one bit per 1 ns bit slot);
2. ``n + 1`` SNGs produce the coefficient streams ``z_0..z_n`` that drive
   the MRR modulators;
3. per clock, the MZI ones-count tunes the all-optical filter and the
   coefficient pattern sets the modulator states; the received power
   follows the analytical Eq. 6 model (vectorized via the precomputed
   pattern table);
4. the receiver slices the power against the link-budget midpoint
   threshold (optionally with Gaussian receiver noise) and counts ones.

:meth:`repro.core.circuit.OpticalStochasticCircuit.evaluate` runs it as
row 0 of a serial single-tile :func:`repro.simulation.runtime.run_batch`
over ``[x]`` (the call :class:`repro.session.Evaluator` makes) and
returns an :class:`OpticalEvaluation` view of that row, whose per-clock
arrays the batch result decodes from its packed words on first read.
The seed schedule consumes ``rng`` row by row, so looping single
evaluations over ``xs`` with one ``rng`` gives exactly the rows of one
batched call; ``base_seed`` pins the whole schedule instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from ..stochastic.bitstream import Bitstream
from .engine import BatchEvaluation

__all__ = ["OpticalEvaluation"]


@dataclass(frozen=True)
class OpticalEvaluation:
    """Outcome of one bit-level evaluation of the optical circuit.

    A view of row ``row`` of a one-shot :class:`BatchEvaluation`.  The
    counts are read off the batch; the per-clock fields
    (``received_power_mw``, ``output_bits``, ``ideal_bits``,
    ``select_levels``) are decoded from its packed words on first read,
    so a caller that reads only ``value`` pays no decode.
    """

    value: float
    expected: float
    x: float
    stream_length: int
    transmission_bit_errors: int
    """Bits flipped by the optical link + receiver noise."""
    batch: BatchEvaluation = field(repr=False, compare=False)
    row: int

    @property
    def absolute_error(self) -> float:
        """|de-randomized value - exact Bernstein value|."""
        return abs(self.value - self.expected)

    @property
    def transmission_ber(self) -> float:
        """Observed link bit-error rate for this evaluation."""
        return self.transmission_bit_errors / self.stream_length

    @cached_property
    def received_power_mw(self) -> "np.ndarray[Any, Any]":
        """Per-clock received power (mW), from Eq. 6."""
        array: "np.ndarray[Any, Any]" = self.batch.received_power_mw[self.row]
        return array

    @cached_property
    def output_bits(self) -> Bitstream:
        """Per-clock observed bits."""
        return Bitstream(self.batch.output_bits[self.row])

    @cached_property
    def ideal_bits(self) -> Bitstream:
        """Per-clock bits the ideal multiplexer selects."""
        return Bitstream(self.batch.ideal_bits[self.row])

    @cached_property
    def select_levels(self) -> "np.ndarray[Any, Any]":
        """Per-clock adder level, the MZI ones count."""
        array: "np.ndarray[Any, Any]" = self.batch.select_levels[self.row]
        return array


def _evaluation_from_batch(batch: BatchEvaluation, row: int) -> OpticalEvaluation:
    """One :class:`OpticalEvaluation` view of a batch row."""
    return OpticalEvaluation(
        value=float(batch.values[row]),
        expected=float(batch.expected[row]),
        x=float(batch.xs[row]),
        stream_length=batch.stream_length,
        transmission_bit_errors=int(batch.transmission_bit_errors[row]),
        batch=batch,
        row=row,
    )
