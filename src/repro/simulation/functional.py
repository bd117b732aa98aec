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

Both entry points are thin wrappers over the batched engine
(:func:`repro.simulation.engine.simulate_batch`):
:func:`simulate_evaluation` is a batch of one, and
:func:`simulate_sweep` is one vectorized pass over all inputs —
bit-for-bit identical to looping :func:`simulate_evaluation` under a
shared ``rng``.

Each evaluation row runs under the engine's seed schedule: its SNG
seeds and its receiver-noise seed are drawn from the caller's ``rng``,
so distinct evaluations (and distinct sweep points) get decorrelated
randomizer streams, and the results equal those of
:func:`repro.simulation.runtime.run_batch` under the same ``rng``.
Pass ``base_seed`` to pin the whole schedule instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..stochastic.bitstream import Bitstream
from .engine import BatchEvaluation, simulate_batch

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
    """Run the optical circuit for *length* bit slots on input *x*.

    Parameters
    ----------
    circuit:
        An :class:`repro.core.circuit.OpticalStochasticCircuit`.
    x:
        Input value in ``[0, 1]``.
    length:
        Stream length (clock count).
    rng:
        Generator the row's SNG seeds and receiver-noise seed are drawn
        from (a default seeded generator is used when omitted).
    noisy:
        When False the receiver slices noiselessly — isolating the
        stochastic-computing error from the transmission error.
    sng_kind:
        Randomizer family: ``"lfsr"`` (default), ``"counter"``,
        ``"sobol"`` or ``"chaotic"``.
    base_seed:
        Pin the seed schedule instead of deriving it from *rng*: repeat
        calls then reuse identical randomizer streams and receiver
        noise.
    sng_width:
        LFSR register width / comparator resolution in bits.
    """
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise ConfigurationError(f"x must be a number in [0, 1], got {x!r}")
    if not 0.0 <= x <= 1.0:
        raise ConfigurationError(f"x must be in [0, 1], got {x!r}")
    batch = simulate_batch(
        circuit,
        [x],
        length=length,
        rng=rng,
        noisy=noisy,
        sng_kind=sng_kind,
        base_seed=base_seed,
        sng_width=sng_width,
    )
    return _evaluation_from_batch(batch, 0)


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
    """De-randomized outputs across the inputs *xs* (one batched pass).

    Bit-exact with evaluating each input through
    :func:`simulate_evaluation` under the same ``rng``, but an order of
    magnitude faster; use :func:`repro.simulation.engine.simulate_batch`
    directly for the full per-row observables.
    """
    return simulate_batch(
        circuit,
        xs,
        length=length,
        rng=rng,
        noisy=noisy,
        sng_kind=sng_kind,
        base_seed=base_seed,
        sng_width=sng_width,
    ).values
