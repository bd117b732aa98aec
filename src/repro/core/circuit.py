"""High-level facade: the assembled optical stochastic-computing circuit.

:class:`OpticalStochasticCircuit` binds a sized design (parameters) to a
Bernstein program (coefficients) and exposes the whole evaluation stack —
analytical link budget, spectra, energy, and bit-level functional
simulation — through one object, mirroring Fig. 3(a).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..stochastic.bernstein import BernsteinPolynomial
from .design import CircuitDesign
from .energy import EnergyBreakdown, energy_breakdown
from .link_budget import LinkBudget, received_power_table
from .params import OpticalSCParameters
from .snr import circuit_ber, circuit_snr
from .transmission import TransmissionModel

__all__ = ["OpticalStochasticCircuit"]


class OpticalStochasticCircuit:
    """The generic circuit of Fig. 4(a), programmed with one polynomial.

    Parameters
    ----------
    params:
        Device/system parameterization (typically from a design method).
    polynomial:
        Bernstein program; its degree must equal ``params.order`` and all
        coefficients must be probabilities.
    """

    def __init__(
        self,
        params: OpticalSCParameters,
        polynomial: Optional[BernsteinPolynomial] = None,
    ):
        if not isinstance(params, OpticalSCParameters):
            raise ConfigurationError("params must be OpticalSCParameters")
        if polynomial is None:
            # Default program: the identity-like ramp b_i = i/n, a neutral
            # but non-trivial program (B(x) = x for the ramp coefficients).
            polynomial = BernsteinPolynomial(
                np.arange(params.order + 1) / params.order
            )
        if polynomial.degree != params.order:
            raise ConfigurationError(
                f"polynomial degree {polynomial.degree} must equal the "
                f"circuit order {params.order}"
            )
        if not polynomial.is_sc_implementable():
            raise ConfigurationError(
                "Bernstein coefficients must lie in [0, 1]"
            )
        self.params = params
        self.polynomial = polynomial
        self.model = TransmissionModel(params)
        self._link_budget_cache: Optional[LinkBudget] = None
        self._fingerprint_cache: Optional[str] = None

    @classmethod
    def from_design(
        cls,
        design: CircuitDesign,
        polynomial: Optional[BernsteinPolynomial] = None,
    ) -> "OpticalStochasticCircuit":
        """Build the circuit from a :class:`CircuitDesign`."""
        if not isinstance(design, CircuitDesign):
            raise ConfigurationError("design must be a CircuitDesign")
        return cls(design.params, polynomial)

    def fingerprint(self) -> str:
        """Stable digest of the design point and Bernstein program.

        Two circuits of one type with equal parameters and coefficients
        evaluate identically under a fixed seed schedule, so this digest
        and the circuit's type key both of the engine's per-circuit
        caches: the pass contexts and, with the SNG configuration, the
        runtime's evaluation cache
        (:class:`repro.simulation.runtime.EvaluationCache`).  Computed
        once: the parameters are frozen and the coefficients read-only.
        """
        if self._fingerprint_cache is None:
            import hashlib

            payload = "|".join(
                (
                    repr(self.params),
                    ",".join(
                        repr(float(c)) for c in self.polynomial.coefficients
                    ),
                )
            )
            self._fingerprint_cache = hashlib.sha256(
                payload.encode("utf-8")
            ).hexdigest()[:16]
        return self._fingerprint_cache

    # -- analytical views ---------------------------------------------------------

    def link_budget(self) -> LinkBudget:
        """Received-power table over all (z, x) combinations (Fig. 5(c)).

        Computed once and cached: the parameters are immutable and the
        batched engine consults the budget on every evaluation pass.
        """
        if self._link_budget_cache is None:
            self._link_budget_cache = received_power_table(self.params)
        return self._link_budget_cache

    def energy(self) -> EnergyBreakdown:
        """Laser energy per computed bit (Section V-C model)."""
        return energy_breakdown(self.params)

    def snr(self, method: str = "worstcase") -> float:
        """Electrical SNR at the photodetector."""
        return circuit_snr(self.params, method=method)

    def ber(self, method: str = "worstcase") -> float:
        """Transmission bit-error rate (Eq. 9)."""
        return circuit_ber(self.params, method=method)

    def spectra(
        self,
        z: Sequence[int],
        ones_count: int,
        wavelengths_nm: Optional[np.ndarray] = None,
    ) -> dict:
        """Device spectra for a given circuit state (Fig. 5(a)/(b))."""
        if wavelengths_nm is None:
            grid = self.params.grid
            lo = grid.wavelengths_nm[0] - 1.0
            hi = grid.reference_nm + 0.5
            wavelengths_nm = np.linspace(lo, hi, 2001)
        return self.model.spectrum(z, ones_count, wavelengths_nm)

    # -- expected values ------------------------------------------------------------

    def expected_value(self, x: float) -> float:
        """The exact Bernstein value ``B(x)`` the circuit approximates."""
        if not 0.0 <= x <= 1.0:
            raise ConfigurationError(f"x must be in [0, 1], got {x!r}")
        return float(self.polynomial(x))

    def throughput_bits_per_s(self) -> float:
        """Stream bits per second (one per bit period)."""
        return self.params.bit_rate_hz

    def speedup_vs_electronic(self, electronic_clock_hz: float = 100e6) -> float:
        """Throughput ratio vs an electronic ReSC (paper: 10x vs 100 MHz)."""
        if electronic_clock_hz <= 0.0:
            raise ConfigurationError("electronic_clock_hz must be positive")
        return self.params.bit_rate_hz / electronic_clock_hz

    # -- simulation ------------------------------------------------------------------

    def evaluate(
        self,
        x: float,
        length: int = 1024,
        rng: Optional[np.random.Generator] = None,
        noisy: bool = True,
    ):
        """Bit-level functional simulation of one evaluation.

        Row 0 of :meth:`evaluate_batch` over ``[x]``, returned as an
        :class:`~repro.simulation.functional.OpticalEvaluation`; see
        :mod:`repro.simulation.functional` for the step-by-step physical
        pipeline.
        """
        from ..simulation.functional import _evaluation_from_batch

        batch = self.evaluate_batch([x], length=length, rng=rng, noisy=noisy)
        return _evaluation_from_batch(batch, 0)

    def evaluate_batch(
        self,
        xs,
        length: int = 1024,
        rng: Optional[np.random.Generator] = None,
        noisy: bool = True,
        sng_kind: str = "lfsr",
        base_seed: Optional[int] = None,
        sng_width: int = 16,
    ):
        """Vectorized bit-level simulation of many evaluations at once.

        A serial single-tile :func:`repro.simulation.runtime.run_batch`;
        returns a :class:`~repro.simulation.engine.BatchEvaluation` with
        one row per input, whose per-clock fields decode on first read.
        """
        from ..simulation.runtime import RuntimeConfig, run_batch

        return run_batch(
            self,
            xs,
            length=length,
            rng=rng,
            noisy=noisy,
            sng_kind=sng_kind,
            base_seed=base_seed,
            sng_width=sng_width,
            config=RuntimeConfig(workers=0),
        )

    def describe(self) -> str:
        """Readable summary of the programmed circuit."""
        coeffs = ", ".join(f"{b:.3f}" for b in self.polynomial.coefficients)
        return (
            self.params.describe()
            + f"\n  Bernstein program       : [{coeffs}]"
        )
