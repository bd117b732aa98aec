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
returns an :class:`OpticalEvaluation` view of that row.  The free
functions :func:`simulate_evaluation` and :func:`simulate_sweep` are
deprecated shims over the same call (``session.DEPRECATED_WRAPPERS``).
The seed schedule consumes ``rng`` row by row, so looping single
evaluations over ``xs`` with one ``rng`` gives exactly the rows of one
batched call; ``base_seed`` pins the whole schedule instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..stochastic.bitstream import Bitstream
from .engine import BatchEvaluation
from .runtime import RuntimeConfig, _warn_deprecated, run_batch

__all__ = ["OpticalEvaluation", "simulate_evaluation", "simulate_sweep"]


@dataclass(frozen=True)
class OpticalEvaluation:
    """Outcome of one bit-level evaluation of the optical circuit."""

    value: float
    expected: float
    x: float
    stream_length: int
    received_power_mw: np.ndarray
    output_bits: Bitstream
    ideal_bits: Bitstream
    select_levels: np.ndarray

    @property
    def absolute_error(self) -> float:
        """|de-randomized value - exact Bernstein value|."""
        return abs(self.value - self.expected)

    @property
    def transmission_bit_errors(self) -> int:
        """Bits flipped by the optical link + receiver noise."""
        return int(np.sum(self.output_bits.bits != self.ideal_bits.bits))

    @property
    def transmission_ber(self) -> float:
        """Observed link bit-error rate for this evaluation."""
        return self.transmission_bit_errors / self.stream_length


def _evaluation_from_batch(batch: BatchEvaluation, row: int) -> OpticalEvaluation:
    """One :class:`OpticalEvaluation` view of a batch row."""
    return OpticalEvaluation(
        value=float(batch.values[row]),
        expected=float(batch.expected[row]),
        x=float(batch.xs[row]),
        stream_length=batch.stream_length,
        received_power_mw=batch.received_power_mw[row],
        output_bits=Bitstream(batch.output_bits[row]),
        ideal_bits=Bitstream(batch.ideal_bits[row]),
        select_levels=batch.select_levels[row],
    )


def simulate_evaluation(
    circuit,
    x: float,
    length: int = 1024,
    rng: Optional[np.random.Generator] = None,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
    sng_width: int = 16,
) -> OpticalEvaluation:
    """Deprecated: row 0 of ``Evaluator(circuit, EvalSpec(...)).evaluate([x])``.

    Runs the optical circuit for *length* bit slots on input *x* and
    returns the same :class:`OpticalEvaluation` bits as before
    (:meth:`repro.core.circuit.OpticalStochasticCircuit.evaluate` is the
    non-deprecated form).
    """
    _warn_deprecated("repro.simulation.functional.simulate_evaluation")
    return _evaluation_from_batch(
        run_batch(
            circuit,
            [x],
            length=length,
            rng=rng,
            noisy=noisy,
            sng_kind=sng_kind,
            base_seed=base_seed,
            sng_width=sng_width,
            config=RuntimeConfig(workers=0),
        ),
        0,
    )


def simulate_sweep(
    circuit,
    xs,
    length: int = 1024,
    rng: Optional[np.random.Generator] = None,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
    sng_width: int = 16,
) -> np.ndarray:
    """Deprecated: ``Evaluator(circuit, EvalSpec(...)).evaluate(xs).values``.

    De-randomized outputs across the inputs *xs*, one batched pass.
    """
    _warn_deprecated("repro.simulation.functional.simulate_sweep")
    return run_batch(
        circuit,
        xs,
        length=length,
        rng=rng,
        noisy=noisy,
        sng_kind=sng_kind,
        base_seed=base_seed,
        sng_width=sng_width,
        config=RuntimeConfig(workers=0),
    ).values
