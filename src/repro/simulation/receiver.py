"""The receiver: photodetection, thresholding and de-randomization.

The photodetector converts the received optical power into a current
(plus Gaussian noise ``i_n``); a comparator slices it against the OOK
midpoint threshold; the recovered bit-stream is counted to complete the
stochastic computation (paper Fig. 3(a) right-hand side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..photonics.photodetector import Photodetector
from ..stochastic.bitstream import Bitstream

__all__ = ["ReceiverDecision", "OpticalReceiver"]


@dataclass(frozen=True)
class ReceiverDecision:
    """Outcome of slicing one block of received powers."""

    bits: Bitstream
    currents_a: np.ndarray
    threshold_a: float

    @property
    def probability(self) -> float:
        """De-randomized output value."""
        return self.bits.probability


class OpticalReceiver:
    """Threshold receiver for the OOK-modulated coefficient stream.

    Parameters
    ----------
    detector:
        Photodetector providing responsivity and noise current.
    threshold_a:
        Decision threshold (A).  Use
        :meth:`calibrate_threshold` (or the link budget's midpoint) to
        set it from the '0'/'1' power bands.
    """

    def __init__(self, detector: Photodetector, threshold_a: float):
        if not isinstance(detector, Photodetector):
            raise ConfigurationError("detector must be a Photodetector")
        if threshold_a <= 0.0:
            raise ConfigurationError(
                f"threshold_a must be positive, got {threshold_a!r}"
            )
        self.detector = detector
        self.threshold_a = float(threshold_a)

    @classmethod
    def from_power_bands(
        cls,
        detector: Photodetector,
        zero_level_mw: float,
        one_level_mw: float,
    ) -> "OpticalReceiver":
        """Receiver with the optimal midpoint threshold for the two bands."""
        if one_level_mw <= zero_level_mw:
            raise ConfigurationError(
                "one_level_mw must exceed zero_level_mw for a usable "
                f"threshold (got {one_level_mw} <= {zero_level_mw})"
            )
        threshold = detector.midpoint_threshold_a(one_level_mw, zero_level_mw)
        return cls(detector, threshold)

    def decide(
        self,
        powers_mw: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> ReceiverDecision:
        """Slice a block of received powers into bits.

        With *rng* given, Gaussian receiver noise (``i_n`` RMS) is added
        before thresholding; without it the decision is noiseless.
        """
        powers = np.asarray(powers_mw, dtype=float)
        if powers.ndim != 1 or powers.size == 0:
            raise ConfigurationError("powers_mw must be a non-empty 1-D array")
        if np.any(powers < 0.0):
            raise ConfigurationError("received powers must be >= 0")
        if rng is None:
            currents = np.asarray(self.detector.photocurrent_a(powers))
        else:
            currents = np.asarray(self.detector.sample(powers, rng))
        bits = (currents > self.threshold_a).astype(np.uint8)
        return ReceiverDecision(
            bits=Bitstream(bits),
            currents_a=currents,
            threshold_a=self.threshold_a,
        )
