"""Stacked-corner optics analysis: batched Monte Carlo and one-pass sizing.

The scalar analysis stack rebuilds a
:class:`~repro.core.transmission.TransmissionModel` — through matrices,
drop matrix, the ``2^(n+1)`` pattern table — for every Monte Carlo
fabrication corner and every candidate wavelength spacing.  This module
evaluates a whole stack of perturbed geometries as one broadcasted numpy
pass over :class:`~repro.core.transmission.StackedTransmissionModel`:

* :func:`worst_case_eye_batch` — the eye openings of ``S`` fabrication
  corners (ring/filter resonance offsets) in one call, numerically
  matching the scalar ``_perturbed_params`` + ``worst_case_eye`` chain
  of :mod:`repro.simulation.montecarlo` corner for corner;
* :func:`monte_carlo_eye_batch` — the same, sharded over the runtime's
  ``parallel_map`` worker pool for very large corner counts;
* :func:`mrr_first_sizing_batch` — the Section IV-B MRR-first method
  solved for all spacing (and guard/IL/OTE) candidates at once, with a
  vectorized feasibility mask instead of per-candidate exceptions;
* :func:`mrr_first_design_batch` — fully assembled
  :class:`~repro.core.design.CircuitDesign` objects from one stacked
  sizing pass;
* :func:`energy_vs_spacing_batch` — the Fig. 7(a) energy sweep as a
  single evaluation, point-for-point equal to the scalar
  :func:`~repro.core.energy.energy_vs_spacing` loop including its
  ``inf``/``nan`` infeasibility convention.

Everything here is a pure wall-clock optimization: the batched results
agree with the scalar chain to floating-point rounding (same formulas,
same operand values; only the summation order inside matrix products
differs), and the parity suite in ``tests/test_vectorized.py`` plus the
``benchmarks/bench_optics.py`` exit gate enforce it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..constants import (
    PAPER_BIT_RATE_HZ,
    PAPER_FIG6_TARGET_BER,
    PAPER_GUARD_NM,
    PAPER_LASING_EFFICIENCY,
    PAPER_MZI_IL_DB,
    PAPER_PULSE_WIDTH_S,
)
from ..errors import (
    ConfigurationError,
    DesignInfeasibleError,
    PhysicalModelError,
)
from ..photonics.devices import (
    DEFAULT_PHOTODETECTOR,
    DENSE_RING_PROFILE,
    RingProfile,
    VAN_2002_OTE,
)
from ..photonics.mzi import MZIModulator
from ..photonics.nonlinear import OpticalTuningEfficiency
from ..photonics.wdm import WDMGrid
from ..units import db_loss_to_transmission
from .design import CircuitDesign, _default_profile
from .energy import laser_energies_pj
from .params import OpticalSCParameters
from .snr import probe_power_for_eyes_mw
from .transmission import StackedTransmissionModel

__all__ = [
    "perturbed_geometry",
    "worst_case_eye_batch",
    "monte_carlo_eye_batch",
    "mrr_first_sizing_batch",
    "mrr_first_design_batch",
    "energy_vs_spacing_batch",
]

_GUARD_CLAMP_NM = 1e-6
"""Collapsed-guard clamp shared with ``montecarlo._perturbed_params``."""


def _as_offset_arrays(ring_offsets_nm, filter_offsets_nm) -> tuple:
    ring = np.atleast_1d(np.asarray(ring_offsets_nm, dtype=float))
    filt = np.atleast_1d(np.asarray(filter_offsets_nm, dtype=float))
    if ring.ndim != 1 or filt.ndim != 1:
        raise ConfigurationError("offset arrays must be one-dimensional")
    if ring.size == 1 and filt.size > 1:
        ring = np.full(filt.size, float(ring[0]))
    if filt.size == 1 and ring.size > 1:
        filt = np.full(ring.size, float(filt[0]))
    if ring.size != filt.size:
        raise ConfigurationError(
            f"ring offsets ({ring.size}) and filter offsets ({filt.size}) "
            "must have the same length"
        )
    if ring.size == 0:
        raise ConfigurationError("need at least one corner")
    return ring, filt


def _filter_detunings_nm(params: OpticalSCParameters) -> np.ndarray:
    """Per-level pump-induced detuning (Eq. 7a), nominal-parameter only.

    Replicates ``TransmissionModel.filter_detuning_nm`` level by level
    with the same scalar float arithmetic, so the stacked resonances
    match the scalar model's exactly.
    """
    n = params.order
    il = params.mzi.il_fraction
    er = params.mzi.er_fraction
    pump = params.pump_power_mw
    return np.asarray(
        [
            float(
                params.ote.shift_nm(
                    pump * (il * ((n - m) + m * er) / n)
                )
            )
            for m in range(n + 1)
        ]
    )


def perturbed_geometry(
    params: OpticalSCParameters,
    ring_offsets_nm,
    filter_offsets_nm,
) -> tuple:
    """Stacked ``(wavelengths, filter_resonances)`` for fabrication corners.

    Applies the Monte Carlo perturbation encoding of
    :mod:`repro.simulation.montecarlo` to *params* for every corner at
    once: a common-mode modulator-bank offset shifts the grid anchor
    (only relative detuning matters) and the filter offset changes the
    guard band, clamped at ``1e-6`` nm when the filter collapses onto
    the last channel (the worst case).  Returns ``(S, n + 1)`` channel
    wavelengths and pump-tuned filter resonances, numerically identical
    to rebuilding the perturbed parameter set per corner.

    Raises :class:`DesignInfeasibleError` when a perturbed grid no
    longer fits the filter FSR — the same failure the scalar corner
    rebuild hits inside ``WDMGrid.validate_against_fsr``.
    """
    if not isinstance(params, OpticalSCParameters):
        raise ConfigurationError("params must be OpticalSCParameters")
    ring, filt = _as_offset_arrays(ring_offsets_nm, filter_offsets_nm)
    grid = params.grid
    degree = grid.polynomial_degree
    guard = grid.guard_nm + filt - ring
    guard = np.where(guard <= _GUARD_CLAMP_NM, _GUARD_CLAMP_NM, guard)
    anchor = grid.anchor_nm + ring
    span = degree * grid.spacing_nm + guard
    fsr = params.ring_profile.filter.fsr_nm
    if np.any(span >= fsr):
        worst = float(span.max())
        raise DesignInfeasibleError(
            f"perturbed WDM span {worst:.3f} nm does not fit inside the "
            f"filter FSR {fsr:.3f} nm"
        )
    index = np.arange(grid.channel_count)
    wavelengths = anchor[:, None] - ((degree - index) * grid.spacing_nm)[None, :]
    detunings = _filter_detunings_nm(params)
    reference = anchor + guard
    resonances = reference[:, None] - detunings[None, :]
    return wavelengths, resonances


def worst_case_eye_batch(
    params: OpticalSCParameters,
    ring_offsets_nm,
    filter_offsets_nm,
) -> np.ndarray:
    """Worst-case eye openings of ``S`` fabrication corners, one pass.

    The batched equivalent of perturbing *params* per corner and calling
    :func:`repro.core.snr.worst_case_eye` (1 mW probe normalization):
    returns the ``(S,)`` eye openings in transmission units, negative
    where crosstalk closes the eye.  Pattern enumeration and geometry
    are materialized once for the whole stack.
    """
    wavelengths, resonances = perturbed_geometry(
        params, ring_offsets_nm, filter_offsets_nm
    )
    model = StackedTransmissionModel(
        params.ring_profile,
        params.order,
        wavelengths,
        resonances,
        probe_power_mw=1.0,
    )
    return model.eye_openings_mw()


def _eye_block_worker(payload: tuple) -> np.ndarray:
    """One corner block (module-level so process pools can pickle it)."""
    params, ring, filt = payload
    return worst_case_eye_batch(params, ring, filt)


def monte_carlo_eye_batch(
    params: OpticalSCParameters,
    ring_offsets_nm,
    filter_offsets_nm,
    workers: Optional[int] = None,
    backend: str = "process",
) -> np.ndarray:
    """:func:`worst_case_eye_batch`, sharded over the runtime worker pool.

    For huge corner counts the stacked evaluation composes with the
    same ``parallel_map`` fan-out the scalar Monte Carlo loop uses:
    contiguous corner blocks are evaluated per worker and concatenated
    in order, so the result is independent of the worker count.
    ``workers`` defaults to the ``REPRO_RUNTIME_WORKERS`` environment
    setting, like every runtime entry point.
    """
    from ..simulation.runtime import (
        _resolve_workers,
        _shard_bounds,
        parallel_map,
    )

    if not isinstance(params, OpticalSCParameters):
        raise ConfigurationError("params must be OpticalSCParameters")
    ring, filt = _as_offset_arrays(ring_offsets_nm, filter_offsets_nm)
    workers = _resolve_workers(workers)
    if workers <= 1 or ring.size <= 1:
        return worst_case_eye_batch(params, ring, filt)
    payloads = [
        (params, ring[lo:hi], filt[lo:hi])
        for lo, hi in _shard_bounds(ring.size, workers)
    ]
    blocks = parallel_map(
        _eye_block_worker, payloads, workers=workers, backend=backend
    )
    return np.concatenate(blocks)


# -- one-pass MRR-first design sizing ------------------------------------------


def _broadcast_knob(value, size: int, name: str) -> np.ndarray:
    array = np.asarray(value, dtype=float)
    if array.ndim == 0:
        return np.full(size, float(array))
    if array.shape != (size,):
        raise ConfigurationError(
            f"{name} must be a scalar or a ({size},) array, got shape "
            f"{array.shape}"
        )
    return array.copy()


def _merge_sizing(results: List[tuple]) -> dict:
    """Stitch per-profile sub-batches back into input order."""
    template = results[0][1]
    merged: dict = {}
    size = sum(r["spacing_nm"].size for _, r in results)
    for key, value in template.items():
        out = np.empty(size, dtype=value.dtype)
        for indices, result in results:
            out[indices] = result[key]
        merged[key] = out
    return merged


def mrr_first_sizing_batch(
    order: int,
    spacings_nm,
    anchor_nm: float = 1550.0,
    guard_nm=PAPER_GUARD_NM,
    insertion_loss_db=PAPER_MZI_IL_DB,
    ring_profile: Optional[RingProfile] = None,
    ote: OpticalTuningEfficiency = VAN_2002_OTE,
    ote_nm_per_mw=None,
    detector=DEFAULT_PHOTODETECTOR,
    target_ber: float = PAPER_FIG6_TARGET_BER,
    size_probe: bool = True,
) -> dict:
    """Section IV-B MRR-first sizing for all candidates in one pass.

    Vectorizes the pump/ER/probe derivation of
    :func:`repro.core.design.mrr_first_design` over ``(S,)`` candidate
    arrays: *spacings_nm* always, and optionally per-candidate
    *guard_nm*, *insertion_loss_db* and *ote_nm_per_mw* (an ``(S,)``
    override of the OTE slope, used by the sensitivity study).  With
    *ring_profile* ``None`` each spacing gets the same COARSE/DENSE
    default the scalar designer would pick, evaluated as at most two
    stacked sub-batches.

    Returns a dict of ``(S,)`` arrays::

        spacing_nm, span_nm, pump_power_mw, er_db, eye_opening,
        probe_power_mw, fits_fsr, eye_open, feasible

    Feasibility is a mask, not an exception: candidates whose grid
    exceeds the filter FSR have ``fits_fsr`` False (``eye_opening``
    ``nan``), and open-eye failures surface as ``probe_power_mw`` =
    ``inf`` — matching the scalar sweep's handling of
    :class:`DesignInfeasibleError`.  An OTE saturation violation still
    raises :class:`PhysicalModelError`, exactly like the scalar pump
    sizing.

    ``size_probe=False`` skips the stacked eye evaluation — the
    expensive step — for callers that fix the probe power externally
    (the scalar designer skips ``minimum_probe_power_mw`` the same
    way); the eye-dependent outputs then stay at their unevaluated
    placeholders (``eye_opening`` ``nan``, ``probe_power_mw`` ``inf``,
    ``eye_open``/``feasible`` ``False``).
    """
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order!r}")
    spacings = np.asarray(spacings_nm, dtype=float)
    if spacings.ndim != 1 or spacings.size == 0:
        raise ConfigurationError(
            "spacings_nm must be a non-empty one-dimensional array"
        )
    if np.any(spacings <= 0.0):
        raise ConfigurationError("spacings must be positive")
    size = spacings.size
    guard = _broadcast_knob(guard_nm, size, "guard_nm")
    il_db = _broadcast_knob(insertion_loss_db, size, "insertion_loss_db")
    if np.any(guard <= 0.0):
        raise ConfigurationError("guard_nm must be positive")

    if ring_profile is None:
        profiles = [_default_profile(float(s)) for s in spacings]
        unique = {id(p): p for p in profiles}
        if len(unique) > 1:
            results = []
            for profile in unique.values():
                indices = np.asarray(
                    [i for i, p in enumerate(profiles) if p is profile]
                )
                slope = (
                    None
                    if ote_nm_per_mw is None
                    else _broadcast_knob(ote_nm_per_mw, size, "ote_nm_per_mw")[
                        indices
                    ]
                )
                results.append(
                    (
                        indices,
                        mrr_first_sizing_batch(
                            order,
                            spacings[indices],
                            anchor_nm=anchor_nm,
                            guard_nm=guard[indices],
                            insertion_loss_db=il_db[indices],
                            ring_profile=profile,
                            ote=ote,
                            ote_nm_per_mw=slope,
                            detector=detector,
                            target_ber=target_ber,
                            size_probe=size_probe,
                        ),
                    )
                )
            return _merge_sizing(results)
        ring_profile = profiles[0]

    if ote_nm_per_mw is None:
        slope = np.full(size, ote.nm_per_mw)
        saturation_nm = ote.max_shift_nm
    else:
        slope = _broadcast_knob(ote_nm_per_mw, size, "ote_nm_per_mw")
        if np.any(slope <= 0.0):
            raise ConfigurationError("ote_nm_per_mw must be positive")
        saturation_nm = None

    # Step 2 of the method: the minimum pump puts the filter on the
    # left-most channel when all MZIs are constructive.
    span = order * spacings + guard
    if saturation_nm is not None and np.any(span > saturation_nm):
        raise PhysicalModelError(
            f"shift beyond saturation bound ({saturation_nm} nm)"
        )
    il_fraction = np.asarray(db_loss_to_transmission(il_db))
    pump_mw = (span / slope) / il_fraction

    # Step 3: the ER makes the all-destructive state land on the
    # right-most channel.  Round-trip through dB like MZIModulator so
    # the detuning levels match the scalar designer's bit for bit.
    er_db = -10.0 * np.log10(guard / span)
    er_fraction = np.asarray(db_loss_to_transmission(er_db))

    fits_fsr = span < ring_profile.filter.fsr_nm

    eye = np.full(size, np.nan)
    probe_mw = np.full(size, np.inf)
    eye_open = np.zeros(size, dtype=bool)
    if size_probe and np.any(fits_fsr):
        index = np.arange(order + 1)
        wavelengths = anchor_nm - (
            (order - index)[None, :] * spacings[:, None]
        )
        levels = np.arange(order + 1)
        mzi_sums = (
            il_fraction[:, None]
            * (
                (order - levels)[None, :]
                + levels[None, :] * er_fraction[:, None]
            )
            / order
        )
        detunings = slope[:, None] * (pump_mw[:, None] * mzi_sums)
        resonances = (anchor_nm + guard)[:, None] - detunings
        model = StackedTransmissionModel(
            ring_profile,
            order,
            wavelengths[fits_fsr],
            resonances[fits_fsr],
            probe_power_mw=1.0,
        )
        eye[fits_fsr] = model.eye_openings_mw()
        probe_mw[fits_fsr] = probe_power_for_eyes_mw(
            eye[fits_fsr], detector, target_ber=target_ber
        )
        eye_open[fits_fsr] = eye[fits_fsr] > 0.0
    return {
        "spacing_nm": spacings,
        "span_nm": span,
        "pump_power_mw": pump_mw,
        "er_db": er_db,
        "eye_opening": eye,
        "probe_power_mw": probe_mw,
        "fits_fsr": fits_fsr,
        "eye_open": eye_open,
        "feasible": fits_fsr & eye_open,
    }


def mrr_first_design_batch(
    order: int,
    spacings_nm,
    anchor_nm: float = 1550.0,
    guard_nm: float = PAPER_GUARD_NM,
    insertion_loss_db: float = PAPER_MZI_IL_DB,
    ring_profile: Optional[RingProfile] = None,
    ote: OpticalTuningEfficiency = VAN_2002_OTE,
    detector=DEFAULT_PHOTODETECTOR,
    target_ber: float = PAPER_FIG6_TARGET_BER,
    probe_power_mw: Optional[float] = None,
    bit_rate_hz: float = PAPER_BIT_RATE_HZ,
    pump_pulse_width_s: float = PAPER_PULSE_WIDTH_S,
    laser_efficiency: float = PAPER_LASING_EFFICIENCY,
    mzi_speed_gbps: Optional[float] = 40.0,
) -> List[CircuitDesign]:
    """Batch :func:`repro.core.design.mrr_first_design`: one sizing pass.

    Sizes every spacing with :func:`mrr_first_sizing_batch` and
    assembles the full :class:`CircuitDesign` list; the eye — the
    expensive part of the scalar designer — is evaluated once for the
    whole stack.  Like the scalar method, an explicit *probe_power_mw*
    skips the BER probe sizing (and with it the eye evaluation)
    entirely; otherwise any candidate with a closed eye (or a grid
    outside the filter FSR) raises :class:`DesignInfeasibleError`
    naming the offending spacings — callers that want a mask instead
    should use :func:`mrr_first_sizing_batch` directly.
    """
    sizing = mrr_first_sizing_batch(
        order,
        spacings_nm,
        anchor_nm=anchor_nm,
        guard_nm=guard_nm,
        insertion_loss_db=insertion_loss_db,
        ring_profile=ring_profile,
        ote=ote,
        detector=detector,
        target_ber=target_ber,
        size_probe=probe_power_mw is None,
    )
    spacings = sizing["spacing_nm"]
    bad = ~sizing["fits_fsr"]
    if probe_power_mw is None:
        bad = bad | ~sizing["eye_open"]
    if np.any(bad):
        raise DesignInfeasibleError(
            "no feasible MRR-first design at spacings "
            f"{spacings[bad].tolist()} nm (grid beyond the filter FSR or "
            "worst-case eye closed)"
        )
    designs = []
    for s in range(spacings.size):
        spacing = float(spacings[s])
        profile = ring_profile or _default_profile(spacing)
        grid = WDMGrid(
            channel_count=order + 1,
            spacing_nm=spacing,
            anchor_nm=anchor_nm,
            guard_nm=guard_nm,
        )
        mzi = MZIModulator(
            insertion_loss_db=insertion_loss_db,
            extinction_ratio_db=float(sizing["er_db"][s]),
            modulation_speed_gbps=mzi_speed_gbps,
            name="MRR-first sized MZI",
        )
        probe = (
            float(sizing["probe_power_mw"][s])
            if probe_power_mw is None
            else probe_power_mw
        )
        params = OpticalSCParameters(
            order=order,
            grid=grid,
            ring_profile=profile,
            mzi=mzi,
            ote=ote,
            pump_power_mw=float(sizing["pump_power_mw"][s]),
            probe_power_mw=probe,
            detector=detector,
            bit_rate_hz=bit_rate_hz,
            pump_pulse_width_s=pump_pulse_width_s,
            laser_efficiency=laser_efficiency,
        )
        designs.append(
            CircuitDesign(
                params=params, method="mrr_first", target_ber=target_ber
            )
        )
    return designs


def energy_vs_spacing_batch(
    order: int,
    spacings_nm,
    ring_profile: RingProfile = DENSE_RING_PROFILE,
    target_ber: float = 1e-6,
) -> dict:
    """The Fig. 7(a) sweep as one stacked sizing pass.

    Point-for-point equal (to floating-point rounding) to the scalar
    :func:`repro.core.energy.energy_vs_spacing` loop with the default
    MRR-first designer, including the infeasibility convention:
    candidates whose design fails get ``nan`` pump energy and ``inf``
    probe energy (so ``total_pj`` is ``nan`` there).
    """
    spacings = np.asarray(list(spacings_nm), dtype=float)
    if spacings.size == 0:
        raise ConfigurationError("need at least one spacing")
    sizing = mrr_first_sizing_batch(
        order,
        spacings,
        ring_profile=ring_profile,
        target_ber=target_ber,
    )
    pump_pj, probe_pj = laser_energies_pj(
        sizing["pump_power_mw"],
        sizing["probe_power_mw"],
        channel_count=order + 1,
        bit_rate_hz=PAPER_BIT_RATE_HZ,
        pump_pulse_width_s=PAPER_PULSE_WIDTH_S,
        laser_efficiency=PAPER_LASING_EFFICIENCY,
    )
    infeasible = ~sizing["feasible"]
    pump_pj = np.where(infeasible, np.nan, pump_pj)
    probe_pj = np.where(infeasible, np.inf, probe_pj)
    return {
        "spacing_nm": spacings,
        "pump_pj": pump_pj,
        "probe_pj": probe_pj,
        "total_pj": pump_pj + probe_pj,
    }
