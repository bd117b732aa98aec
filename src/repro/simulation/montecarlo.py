"""Monte Carlo process-variation analysis.

The paper motivates SC for domains "where soft errors and process
variations are of major concern" (Section II-A).  Resonant photonics is
acutely sensitive to fabrication variation: ±0.1 % waveguide-width error
moves a ring resonance by hundreds of picometers.  This module samples
per-ring resonance offsets and evaluates the resulting link-budget eye,
producing yield numbers (fraction of fabricated circuits that still
separate '0' from '1') and the eye distribution — the quantitative case
for the calibration controller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..photonics.wdm import WDMGrid

__all__ = ["VariationModel", "MonteCarloResult", "run_monte_carlo"]

_CORNER_SAMPLING_SEED = 0x5EED
"""Default corner-offset seed shared by the Monte Carlo entry points."""


@dataclass(frozen=True)
class VariationModel:
    """Gaussian per-device variation magnitudes (1-sigma).

    Parameters
    ----------
    ring_sigma_nm:
        Per-ring resonance offset sigma (applied as a common-mode grid
        offset per modulator bank sample plus the filter offset; see
        note in :func:`run_monte_carlo`).
    filter_sigma_nm:
        Rest-resonance sigma of the add-drop filter.
    """

    ring_sigma_nm: float = 0.02
    filter_sigma_nm: float = 0.02

    def __post_init__(self) -> None:
        if self.ring_sigma_nm < 0.0 or self.filter_sigma_nm < 0.0:
            raise ConfigurationError("sigmas must be >= 0")


@dataclass(frozen=True)
class MonteCarloResult:
    """Yield statistics over the sampled fabrication corners."""

    eye_openings_mw: "np.ndarray[Any, Any]"
    yield_fraction: float
    mean_eye_mw: float
    worst_eye_mw: float

    @property
    def sample_count(self) -> int:
        """Number of Monte Carlo samples evaluated."""
        return int(self.eye_openings_mw.size)


def _perturbed_params(
    params: Any, ring_offset_nm: float, filter_offset_nm: float
) -> Any:
    """Parameters with rings and filter moved off their nominal grid.

    A common-mode modulator-bank offset relative to the probe grid is
    modeled by shifting the grid anchor (the probes stay put in reality;
    only relative detuning matters), and the filter offset by changing
    the guard band — the same device-level encodings used by
    :mod:`repro.simulation.faults`.
    """
    grid = params.grid
    guard = grid.guard_nm + filter_offset_nm - ring_offset_nm
    if guard <= 1e-6:
        guard = 1e-6  # filter collapsed onto the last channel: worst case
    shifted = WDMGrid(
        channel_count=grid.channel_count,
        spacing_nm=grid.spacing_nm,
        anchor_nm=grid.anchor_nm + ring_offset_nm,
        guard_nm=guard,
    )
    return replace(params, grid=shifted)


def _corner_eye_mw(params: Any, offsets_nm: Tuple[float, float]) -> float:
    """Worst-case eye of one fabrication corner (picklable for pools).

    Mapped as ``functools.partial(_corner_eye_mw, params)`` so the
    parameter bundle is pickled once per pool chunk and each corner
    payload is just its two float offsets.
    """
    from ..core.snr import worst_case_eye

    ring_offset_nm, filter_offset_nm = offsets_nm
    corner = _perturbed_params(params, ring_offset_nm, filter_offset_nm)
    return float(worst_case_eye(corner).opening)


def _draw_corner_offsets(
    params: Any,
    variation: VariationModel,
    samples: int,
    rng: np.random.Generator,
) -> Tuple["np.ndarray[Any, Any]", "np.ndarray[Any, Any]"]:
    """One-pass corner sampling: every offset drawn vectorized up front.

    Row-major generation keeps the (ring, filter) interleaving — and
    hence the seeded results — identical to the historical per-sample
    draws.  Extreme ring offsets are clamped to the modulation shift so
    the ON/OFF contrast stays physical.
    """
    offsets = rng.normal(
        0.0,
        [variation.ring_sigma_nm, variation.filter_sigma_nm],
        size=(samples, 2),
    )
    shift = params.ring_profile.modulation_shift_nm
    ring_offsets = np.clip(offsets[:, 0], -0.8 * shift, 0.8 * shift)
    return ring_offsets, offsets[:, 1]


def _corner_eyes_mw(
    params: Any,
    ring_offsets_nm: "np.ndarray[Any, Any]",
    filter_offsets_nm: "np.ndarray[Any, Any]",
    workers: Optional[int],
    backend: str,
    vectorized: bool,
) -> "np.ndarray[Any, Any]":
    """Eye openings for pre-drawn corners, scalar loop or stacked pass.

    The scalar path maps :func:`_corner_eye_mw` over the runtime pool
    (one ``TransmissionModel`` rebuild per corner); the vectorized path
    evaluates all corners as one broadcasted
    :func:`repro.core.vectorized.monte_carlo_eye_batch` stack (sharded
    over the same pool for huge corner counts).  Both agree to
    floating-point rounding, with identical yield decisions for the
    seeds used in the tests and benchmarks.
    """
    if vectorized:
        from ..core.vectorized import monte_carlo_eye_batch

        return monte_carlo_eye_batch(
            params,
            ring_offsets_nm,
            filter_offsets_nm,
            workers=workers,
            backend=backend,
        )
    from .runtime import parallel_map

    corners: List[Tuple[float, float]] = [
        (float(ring_offsets_nm[index]), float(filter_offsets_nm[index]))
        for index in range(ring_offsets_nm.size)
    ]
    return np.asarray(
        parallel_map(
            functools.partial(_corner_eye_mw, params),
            corners,
            workers=workers,
            backend=backend,
        ),
        dtype=float,
    )


def run_monte_carlo(
    params: Any,
    variation: VariationModel = VariationModel(),
    samples: int = 200,
    rng: Optional[np.random.Generator] = None,
    workers: Optional[int] = None,
    runtime: Any = None,
    vectorized: Optional[bool] = None,
) -> MonteCarloResult:
    """Sample fabrication corners and evaluate the worst-case eye of each.

    A corner *yields* when its '1'/'0' received-power bands stay
    disjoint (eye > 0), i.e. the circuit still executes SC correctly
    without recalibration.

    Corner evaluations are independent, so they fan out across the
    runtime's process pool when *workers* > 1 (default: the
    ``REPRO_RUNTIME_WORKERS`` environment setting).  Pass a
    :class:`~repro.simulation.runtime.RuntimeConfig` as *runtime* to
    take the worker count, pool backend and ``vectorized`` default from
    a bound session config instead (explicit arguments win); this is
    how :meth:`repro.session.Evaluator.monte_carlo` routes through.
    All corner offsets are drawn up front from *rng*, so serial,
    sharded and vectorized runs evaluate identical corners for the same
    seed.

    With ``vectorized=True`` every corner is evaluated in one stacked
    :mod:`repro.core.vectorized` pass instead of rebuilding a
    ``TransmissionModel`` per corner — an order of magnitude faster,
    numerically equal to the scalar loop up to floating-point rounding.
    """
    from ..core.params import OpticalSCParameters
    from .runtime import resolve_pool, resolve_vectorized

    if not isinstance(params, OpticalSCParameters):
        raise ConfigurationError("params must be OpticalSCParameters")
    workers, backend = resolve_pool(runtime, workers)
    vectorized = resolve_vectorized(runtime, vectorized)
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples!r}")
    rng = rng or np.random.default_rng(_CORNER_SAMPLING_SEED)
    ring_offsets, filter_offsets = _draw_corner_offsets(
        params, variation, samples, rng
    )
    eyes = _corner_eyes_mw(
        params, ring_offsets, filter_offsets, workers, backend, vectorized
    )
    return MonteCarloResult(
        eye_openings_mw=eyes,
        yield_fraction=float(np.mean(eyes > 0.0)),
        mean_eye_mw=float(eyes.mean()),
        worst_eye_mw=float(eyes.min()),
    )


def yield_vs_sigma(
    params: Any,
    sigmas_nm: Sequence[float],
    samples: int = 100,
    rng: Optional[np.random.Generator] = None,
    workers: Optional[int] = None,
    runtime: Any = None,
    vectorized: Optional[bool] = None,
) -> Dict[str, "np.ndarray[Any, Any]"]:
    """Yield curve across variation magnitudes (controller motivation).

    All sigma blocks draw their corner offsets up front, in the same
    order the historical serial implementation consumed *rng* — so for
    a given seed the curve is identical whatever *workers* count (or
    *runtime* pool config) evaluates it.  With ``vectorized=True`` (or
    a runtime config enabling it) the whole curve — every corner of
    every sigma — is evaluated as **one** stacked
    :mod:`repro.core.vectorized` pass.
    """
    from ..core.params import OpticalSCParameters
    from .runtime import resolve_pool, resolve_vectorized

    if not isinstance(params, OpticalSCParameters):
        raise ConfigurationError("params must be OpticalSCParameters")
    workers, backend = resolve_pool(runtime, workers)
    vectorized = resolve_vectorized(runtime, vectorized)
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples!r}")
    rng = rng or np.random.default_rng(_CORNER_SAMPLING_SEED)
    sigmas = np.asarray(list(sigmas_nm), dtype=float)
    if sigmas.size == 0:
        raise ConfigurationError("need at least one sigma")
    blocks = [
        _draw_corner_offsets(
            params,
            VariationModel(
                ring_sigma_nm=float(sigma), filter_sigma_nm=float(sigma)
            ),
            samples,
            rng,
        )
        for sigma in sigmas
    ]
    if vectorized:
        # One stacked evaluation across every (sigma, sample) corner.
        eyes = _corner_eyes_mw(
            params,
            np.concatenate([ring for ring, _ in blocks]),
            np.concatenate([filt for _, filt in blocks]),
            workers,
            backend,
            vectorized,
        ).reshape(sigmas.size, samples)
    else:
        eyes = np.stack(
            [
                _corner_eyes_mw(
                    params, ring, filt, workers, backend, vectorized
                )
                for ring, filt in blocks
            ]
        )
    return {
        "sigma_nm": sigmas,
        "yield_fraction": np.mean(eyes > 0.0, axis=1),
        "mean_eye_mw": eyes.mean(axis=1),
    }


def fault_frontier(
    circuit: Any,
    faults: Sequence[Any],
    xs: Optional[Any] = None,
    spec: Any = None,
    runtime: Any = None,
) -> Dict[str, "np.ndarray[Any, Any]"]:
    """Accuracy-vs-fault-severity frontier over a fault scenario axis.

    *faults* is a sequence of fault points: plain floats are promoted to
    pure bit-flip scenarios (``FaultSpec(flip_probability=p)``), and
    :class:`~repro.simulation.faultmodel.FaultSpec` instances are taken
    as-is — so the axis can sweep flip rate, drift ramp, stuck-MZI
    scenarios or any mixture.  Every point is evaluated through one
    :class:`~repro.session.Evaluator` session derived per fault via
    :meth:`~repro.session.Evaluator.with_fault`, so the whole frontier
    inherits the session guarantees: fault realizations are
    schedule-seeded and bit-for-bit identical across workers and chunk
    sizes.

    Returns a dict of aligned arrays: ``flip_probability`` and
    ``shift_clocks`` (the axis, as scheduled), ``mean_abs_error`` /
    ``max_abs_error`` (computation accuracy against the de-randomized
    target) and ``mean_link_ber`` (observed-vs-ideal decision error
    rate of the faulty link).  The first entry of a pure-rate sweep is
    conventionally 0.0, giving the clean-baseline row the degradation
    curves are read against.
    """
    from ..session import EvalSpec, Evaluator
    from .faultmodel import FaultSpec

    points: List[Optional[FaultSpec]] = []
    for fault in faults:
        if fault is None:
            points.append(None)
        elif isinstance(fault, FaultSpec):
            points.append(None if fault.is_null else fault)
        else:
            rate = float(fault)
            points.append(
                None if rate == 0.0 else FaultSpec(flip_probability=rate)
            )
    if not points:
        raise ConfigurationError("need at least one fault point")
    if spec is None:
        spec = EvalSpec(length=4096, base_seed=_CORNER_SAMPLING_SEED)
    session = Evaluator(circuit, spec=spec, runtime=runtime)
    if session.spec.base_seed is None:
        raise ConfigurationError(
            "fault_frontier needs a fixed base_seed in the EvalSpec so "
            "every fault point reuses the same seed schedule and the "
            "curve isolates the fault axis"
        )
    inputs = (
        np.linspace(0.0, 1.0, 9) if xs is None else np.asarray(xs, dtype=float)
    )
    mean_errors: List[float] = []
    max_errors: List[float] = []
    bers: List[float] = []
    for point in points:
        result = session.with_fault(point).evaluate(inputs)
        errors = np.asarray(result.absolute_errors, dtype=float)
        mean_errors.append(float(errors.mean()))
        max_errors.append(float(errors.max()))
        bers.append(float(np.mean(np.asarray(result.transmission_ber))))
    return {
        "flip_probability": np.asarray(
            [0.0 if p is None else p.flip_probability for p in points],
            dtype=float,
        ),
        "shift_clocks": np.asarray(
            [0 if p is None else p.shift_clocks for p in points],
            dtype=np.int64,
        ),
        "mean_abs_error": np.asarray(mean_errors, dtype=float),
        "max_abs_error": np.asarray(max_errors, dtype=float),
        "mean_link_ber": np.asarray(bers, dtype=float),
    }


__all__.append("yield_vs_sigma")
__all__.append("fault_frontier")
