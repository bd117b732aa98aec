"""Tests for the SNR/BER models (paper Eqs. 8-9)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfc, erfcinv

from repro.core.params import paper_section5a_parameters
from repro.core.snr import (
    ber_for_snr,
    circuit_ber,
    circuit_snr,
    minimum_probe_power_mw,
    required_snr_for_ber,
    snr_eq8,
    worst_case_eye,
)
from repro.core.design import mrr_first_design
from repro.errors import ConfigurationError, DesignInfeasibleError
from repro.photonics.devices import DENSE_RING_PROFILE


class TestEq9:
    def test_known_value(self):
        # SNR such that Q = SNR/(2 sqrt(2)) = 3.3612 gives BER 1e-6.
        snr = required_snr_for_ber(1e-6)
        assert ber_for_snr(snr) == pytest.approx(1e-6, rel=1e-6)

    @given(ber=st.floats(min_value=1e-12, max_value=0.4))
    def test_roundtrip(self, ber):
        assert ber_for_snr(required_snr_for_ber(ber)) == pytest.approx(
            ber, rel=1e-6
        )

    def test_monotone(self):
        assert required_snr_for_ber(1e-6) > required_snr_for_ber(1e-2)
        assert ber_for_snr(10.0) < ber_for_snr(5.0)

    def test_fig6b_half_power_claim(self):
        # Paper Fig. 6(b): targeting 1e-2 instead of 1e-6 halves the
        # required probe power (SNR ratio ~ 0.49).
        ratio = required_snr_for_ber(1e-2) / required_snr_for_ber(1e-6)
        assert ratio == pytest.approx(0.49, abs=0.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            required_snr_for_ber(0.0)
        with pytest.raises(ConfigurationError):
            required_snr_for_ber(0.6)
        with pytest.raises(ConfigurationError):
            ber_for_snr(-1.0)
        with pytest.raises(ConfigurationError):
            ber_for_snr(float("nan"))
        with pytest.raises(ConfigurationError):
            required_snr_for_ber(float("nan"))

    def test_infinite_snr_has_zero_ber(self):
        assert ber_for_snr(math.inf) == 0.0


# BERs from the paper's 1e-6 target down to the smallest normal-range
# values the inverse must still handle, plus the near-0.5 end.
ORACLE_BERS = np.concatenate(
    [np.logspace(-300, -1, 600), [0.2, 0.3, 0.4, 0.45, 0.49, 0.4999]]
)


class TestEq9AgainstScipy:
    """scipy is a test-only oracle for the stdlib special functions."""

    def test_ber_matches_scipy_erfc(self):
        snrs = [required_snr_for_ber(ber) for ber in ORACLE_BERS]
        snrs += [0.0, 1e-3, 1.0, 10.0, 100.0]
        for snr in snrs:
            expected = 0.5 * float(erfc(snr / (2.0 * math.sqrt(2.0))))
            assert ber_for_snr(snr) == pytest.approx(expected, rel=1e-13)

    def test_required_snr_matches_scipy_erfcinv(self):
        for ber in ORACLE_BERS:
            expected = 2.0 * math.sqrt(2.0) * float(erfcinv(2.0 * ber))
            assert required_snr_for_ber(ber) == pytest.approx(
                expected, rel=1e-14
            )

    def test_roundtrip_at_tiny_bers(self):
        for ber in (1e-300, 1e-200, 1e-100, 1e-30):
            assert ber_for_snr(required_snr_for_ber(ber)) == pytest.approx(
                ber, rel=1e-9
            )


class TestEyeAndSNR:
    def test_paper_eye_from_fig5_bands(self):
        eye = worst_case_eye(paper_section5a_parameters())
        # Fig. 5(c): ~0.477 - ~0.099 = ~0.38 (per 1 mW probe).
        assert eye.opening == pytest.approx(0.38, abs=0.02)
        assert eye.is_open

    def test_snr_scales_with_probe_power(self):
        params = paper_section5a_parameters()
        snr1 = circuit_snr(params.with_probe_power(1.0))
        snr2 = circuit_snr(params.with_probe_power(2.0))
        assert snr2 == pytest.approx(2.0 * snr1, rel=1e-9)

    def test_eq8_upper_bounds_worstcase(self):
        params = paper_section5a_parameters()
        # The literal Eq. 8 sum ignores joint worst-case coefficient
        # patterns, so it is mildly optimistic relative to the exhaustive
        # eye — but within ~30 % at the paper's 1 nm operating point.
        eq8 = snr_eq8(params)
        exhaustive = circuit_snr(params, method="worstcase")
        assert eq8 >= exhaustive
        assert eq8 == pytest.approx(exhaustive, rel=0.3)

    def test_ber_of_closed_eye_is_half(self):
        # Squeeze channels until crosstalk closes the eye.
        design = mrr_first_design(
            order=2,
            wl_spacing_nm=0.06,
            ring_profile=DENSE_RING_PROFILE,
            probe_power_mw=1.0,
        )
        assert circuit_ber(design.params) == pytest.approx(0.5)

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            circuit_snr(paper_section5a_parameters(), method="guess")


class TestMinimumProbePower:
    def test_achieves_target_ber(self):
        params = paper_section5a_parameters()
        probe = minimum_probe_power_mw(params, target_ber=1e-6)
        sized = params.with_probe_power(probe)
        assert circuit_ber(sized) == pytest.approx(1e-6, rel=1e-3)

    def test_scales_inversely_with_eye(self):
        params = paper_section5a_parameters()
        p6 = minimum_probe_power_mw(params, target_ber=1e-6)
        p2 = minimum_probe_power_mw(params, target_ber=1e-2)
        assert p2 / p6 == pytest.approx(0.49, abs=0.02)

    def test_closed_eye_raises(self):
        design = mrr_first_design(
            order=2,
            wl_spacing_nm=0.06,
            ring_profile=DENSE_RING_PROFILE,
            probe_power_mw=1.0,
        )
        with pytest.raises(DesignInfeasibleError):
            minimum_probe_power_mw(design.params)

    def test_eq8_method_also_supported(self):
        params = paper_section5a_parameters()
        probe = minimum_probe_power_mw(params, method="eq8")
        assert probe > 0.0
        assert math.isfinite(probe)
