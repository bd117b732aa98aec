"""SNR and BER models (paper Eqs. 8 and 9).

Eq. 8 evaluates the photocurrent swing between a coefficient transmitted
as '1' and the worst-case background (modulator leakage plus crosstalk
from the other channels), scaled by the receiver's ``R / i_n``:

``SNR = OP_probe * (R / i_n) * [T_{z_i=1}[i] - sum_{w != i} T_{z_w=1}[w]]``

Eq. 9 maps SNR to bit-error rate for on-off keying:

``BER = (1/2) * erfc(SNR / (2 * sqrt(2)))``

Two SNR evaluations are provided: the literal Eq. 8 sum (``method="eq8"``)
and the exhaustive worst-case eye over all coefficient patterns
(``method="worstcase"``, the default), which also captures the
through-modulator interaction between channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ..errors import ConfigurationError, DesignInfeasibleError
from .link_budget import received_power_table
from .params import OpticalSCParameters
from .transmission import TransmissionModel

__all__ = [
    "ber_for_snr",
    "required_snr_for_ber",
    "EyeDiagram",
    "worst_case_eye",
    "snr_eq8",
    "circuit_snr",
    "circuit_ber",
    "minimum_probe_power_mw",
    "probe_power_for_eyes_mw",
]


def ber_for_snr(snr: float) -> float:
    """Paper Eq. 9: OOK bit-error rate for a given electrical SNR."""
    if not snr >= 0.0:
        raise ConfigurationError(f"snr must be >= 0, got {snr!r}")
    return 0.5 * math.erfc(snr / (2.0 * math.sqrt(2.0)))


def required_snr_for_ber(ber: float) -> float:
    """Invert Eq. 9: the SNR needed to reach a target BER.

    Note the closed-form consequence the paper reports in Fig. 6(b):
    ``required_snr(1e-2) / required_snr(1e-6) ~ 0.49`` — relaxing the BER
    target from 1e-6 to 1e-2 halves the required probe power.
    """
    if not 0.0 < ber < 0.5:
        raise ConfigurationError(f"ber must be in (0, 0.5), got {ber!r}")
    # erfcinv(2 ber) = -Phi^-1(ber) / sqrt(2), so SNR = -2 Phi^-1(ber).
    return -2.0 * NormalDist().inv_cdf(ber)


@dataclass(frozen=True)
class EyeDiagram:
    """Worst-case eye of the optical link, in transmission units.

    All quantities are normalized to 1 mW probe power per channel, so the
    received-power eye scales linearly with ``OP_probe``.
    """

    one_level_min: float
    zero_level_max: float

    @property
    def opening(self) -> float:
        """Eye opening (may be negative when crosstalk closes the eye)."""
        return self.one_level_min - self.zero_level_max

    @property
    def is_open(self) -> bool:
        """True when '1' and '0' power bands are disjoint."""
        return self.opening > 0.0


def worst_case_eye(params: OpticalSCParameters) -> EyeDiagram:
    """Exhaustive worst-case eye over all coefficient patterns and levels.

    Normalized to 1 mW probe power (transmissions), so callers can scale
    by any candidate ``OP_probe``.
    """
    reference = params.with_probe_power(1.0)
    budget = received_power_table(reference)
    return EyeDiagram(
        one_level_min=budget.one_band_mw[0],
        zero_level_max=budget.zero_band_mw[1],
    )


def snr_eq8(params: OpticalSCParameters) -> float:
    """The literal Eq. 8 evaluation, minimized over channels and levels.

    For each level ``i`` (filter tuned to channel ``i``):
    ``dT = T_{z_i=1, others 0}[i] - sum_{w != i} T_{z_w=1, others 0}[w]``
    and ``SNR = OP_probe * R / i_n * min_i dT``.
    """
    model = TransmissionModel(params)
    count = params.channel_count
    worst = math.inf
    for i in range(count):
        z_signal = np.zeros(count, dtype=np.uint8)
        z_signal[i] = 1
        signal = model.total_transmissions(z_signal, i)[i]
        crosstalk = 0.0
        for w in range(count):
            if w == i:
                continue
            z_cross = np.zeros(count, dtype=np.uint8)
            z_cross[w] = 1
            crosstalk += model.total_transmissions(z_cross, i)[w]
        worst = min(worst, signal - crosstalk)
    detector = params.detector
    swing_w = params.probe_power_mw * 1e-3 * worst
    return detector.responsivity_a_per_w * swing_w / detector.noise_current_a


def circuit_snr(params: OpticalSCParameters, method: str = "worstcase") -> float:
    """Electrical SNR of the link for the configured probe power."""
    if method == "worstcase":
        eye = worst_case_eye(params)
        swing_w = params.probe_power_mw * 1e-3 * eye.opening
        detector = params.detector
        return (
            detector.responsivity_a_per_w * swing_w / detector.noise_current_a
        )
    if method == "eq8":
        return snr_eq8(params)
    raise ConfigurationError(f"unknown SNR method {method!r}")


def circuit_ber(params: OpticalSCParameters, method: str = "worstcase") -> float:
    """Bit-error rate of the link (Eq. 9 applied to the circuit SNR)."""
    snr = circuit_snr(params, method=method)
    if snr <= 0.0:
        return 0.5  # closed eye: the receiver guesses
    return ber_for_snr(snr)


def minimum_probe_power_mw(
    params: OpticalSCParameters,
    target_ber: float = 1e-6,
    method: str = "worstcase",
) -> float:
    """Smallest per-channel probe power reaching *target_ber* (Eq. 8+9).

    The eye in transmission units is independent of the probe power, so
    the required power is closed-form:
    ``OP_probe = SNR_req * i_n / (R * eye)``.

    Raises :class:`DesignInfeasibleError` when the worst-case eye is
    closed (no finite probe power can reach the target).
    """
    snr_required = required_snr_for_ber(target_ber)
    if method == "worstcase":
        eye_opening = worst_case_eye(params).opening
    elif method == "eq8":
        eye_opening = snr_eq8(params.with_probe_power(1.0)) * (
            params.detector.noise_current_a
            / params.detector.responsivity_a_per_w
        ) / 1e-3
    else:
        raise ConfigurationError(f"unknown SNR method {method!r}")
    if eye_opening <= 0.0:
        raise DesignInfeasibleError(
            "worst-case eye is closed at this wavelength spacing; "
            "crosstalk exceeds the signal swing"
        )
    detector = params.detector
    swing_needed_w = (
        snr_required * detector.noise_current_a / detector.responsivity_a_per_w
    )
    return swing_needed_w / (eye_opening * 1e-3)


def probe_power_for_eyes_mw(
    eye_openings,
    detector,
    target_ber: float = 1e-6,
) -> np.ndarray:
    """Vectorized :func:`minimum_probe_power_mw` over a stack of eyes.

    *eye_openings* are worst-case eye openings in transmission units
    (1 mW-normalized, as produced by
    :class:`repro.core.transmission.StackedTransmissionModel`); the
    closed-form Eq. 8+9 inversion is applied elementwise.  Where the
    scalar sizing raises :class:`DesignInfeasibleError` on a closed eye,
    the batch returns ``inf`` — the feasibility-mask convention of the
    Fig. 7 sweep (callers that need the hard failure can check
    ``np.isinf`` themselves).
    """
    eyes = np.asarray(eye_openings, dtype=float)
    snr_required = required_snr_for_ber(target_ber)
    swing_needed_w = (
        snr_required
        * detector.noise_current_a
        / detector.responsivity_a_per_w
    )
    probe = np.full(eyes.shape, np.inf)
    feasible = eyes > 0.0
    probe[feasible] = swing_needed_w / (eyes[feasible] * 1e-3)
    return probe
