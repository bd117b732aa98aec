#!/usr/bin/env python3
"""Scalar-vs-vectorized throughput benchmark for the optics analysis.

Part 1 times the Monte Carlo yield study two ways on the same
pre-drawn fabrication corners (default 2000 samples, single worker):

* **scalar corner loop** — one ``TransmissionModel`` rebuild and one
  ``worst_case_eye`` per corner (the scalar reference path);
* **vectorized** — all corners as one stacked
  ``repro.core.vectorized`` pass.

Part 2 times the Fig. 7(a) design sizing sweep (orders 2/4/6 across a
spacing grid) two ways:

* **scalar designer loop** — one MRR-first design per spacing;
* **vectorized** — each order's grid sized as one
  ``mrr_first_sizing_batch`` pass.

The exit gates are parity, not speed: the vectorized Monte Carlo must
report the **identical yield fraction** with ``np.allclose`` eyes, and
the vectorized sweep must match the scalar energies point for point —
including equal ``inf`` (closed-eye) and ``nan`` (FSR-overflow) masks.
Wall-clock speedups are recorded in the ``BENCH_optics.json`` artifact
against their targets (10x Monte Carlo, 5x sweep) for CI trend
tracking but, being machine-dependent, never fail the run.  The
artifact carries the environment block of ``perfbench/run.py`` (cores,
CPU, Python and numpy versions, git sha) plus the hypervisor steal
ticks spent during the run, like the ``bench_batched.py`` legs.

Run:  PYTHONPATH=src python benchmarks/bench_optics.py \
          [--out FILE] [--samples N] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.design import mrr_first_design
from repro.core.energy import energy_vs_spacing
from repro.simulation.montecarlo import VariationModel, run_monte_carlo

MC_SAMPLES = 2000
MC_SIGMA_NM = 0.04
MC_TARGET_SPEEDUP = 10.0

SWEEP_ORDERS = (2, 4, 6)
SWEEP_SPACINGS = np.round(np.linspace(0.08, 0.32, 40), 4)
SWEEP_TARGET_SPEEDUP = 5.0

SEED = 0x0D7C


def best_of(repetitions: int, run) -> tuple:
    """Best-of-N wall-clock timing: single-shot timings on a shared CI
    runner are allocation/load-noise dominated.  Returns the best time
    and the last output (callables are deterministic per repetition)."""
    best, output = float("inf"), None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        output = run()
        best = min(best, time.perf_counter() - t0)
    return best, output


def bench_monte_carlo(samples: int, workers: int) -> dict:
    """Scalar corner loop vs one stacked pass over identical corners.

    Uses the Fig. 7 optimal dense-grid design (0.165 nm spacing), where
    a 0.04 nm sigma produces a genuinely fractional yield — so the
    identical-yield gate checks mixed open/closed eye decisions, not a
    trivially all-open batch.
    """
    params = mrr_first_design(2, 0.165).params
    variation = VariationModel(
        ring_sigma_nm=MC_SIGMA_NM, filter_sigma_nm=MC_SIGMA_NM
    )

    def run(vectorized: bool):
        return run_monte_carlo(
            params,
            variation,
            samples=samples,
            rng=np.random.default_rng(SEED),
            workers=workers,
            vectorized=vectorized,
        )

    scalar_s, scalar = best_of(2, lambda: run(False))
    vector_s, vector = best_of(3, lambda: run(True))

    yields_identical = scalar.yield_fraction == vector.yield_fraction
    eyes_close = bool(
        np.allclose(
            scalar.eye_openings_mw,
            vector.eye_openings_mw,
            rtol=1e-10,
            atol=1e-14,
        )
    )
    speedup = scalar_s / vector_s
    return {
        "samples": int(samples),
        "sigma_nm": MC_SIGMA_NM,
        "workers": int(workers),
        "scalar_seconds": round(scalar_s, 6),
        "vectorized_seconds": round(vector_s, 6),
        "speedup": round(speedup, 2),
        "target_speedup": MC_TARGET_SPEEDUP,
        "meets_target_speedup": speedup >= MC_TARGET_SPEEDUP,
        "corners_per_second_vectorized": round(samples / vector_s, 1),
        "yield_fraction": scalar.yield_fraction,
        "yields_identical": yields_identical,
        "eyes_allclose": eyes_close,
        "parity": bool(yields_identical and eyes_close),
    }


def bench_fig7_sweep() -> dict:
    """Per-spacing scalar designer vs one stacked sizing pass per order."""

    def run(vectorized: bool):
        return [
            energy_vs_spacing(order, SWEEP_SPACINGS, vectorized=vectorized)
            for order in SWEEP_ORDERS
        ]

    scalar_s, scalar = best_of(2, lambda: run(False))
    vector_s, vector = best_of(3, lambda: run(True))

    energies_close = True
    masks_equal = True
    for scalar_sweep, vector_sweep in zip(scalar, vector):
        for key in ("pump_pj", "probe_pj", "total_pj"):
            s, v = scalar_sweep[key], vector_sweep[key]
            masks_equal &= bool(
                np.array_equal(np.isnan(s), np.isnan(v))
                and np.array_equal(np.isinf(s), np.isinf(v))
            )
            finite = np.isfinite(s)
            energies_close &= bool(
                np.allclose(s[finite], v[finite], rtol=1e-10, atol=1e-14)
            )
    speedup = scalar_s / vector_s
    points = len(SWEEP_ORDERS) * SWEEP_SPACINGS.size
    return {
        "orders": list(SWEEP_ORDERS),
        "spacing_points": int(SWEEP_SPACINGS.size),
        "scalar_seconds": round(scalar_s, 6),
        "vectorized_seconds": round(vector_s, 6),
        "speedup": round(speedup, 2),
        "target_speedup": SWEEP_TARGET_SPEEDUP,
        "meets_target_speedup": speedup >= SWEEP_TARGET_SPEEDUP,
        "designs_per_second_vectorized": round(points / vector_s, 1),
        "energies_allclose": bool(energies_close),
        "inf_nan_masks_equal": bool(masks_equal),
        "parity": bool(energies_close and masks_equal),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_optics.json")
    parser.add_argument(
        "--samples",
        type=int,
        default=MC_SAMPLES,
        help="Monte Carlo corner count (default 2000)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker pool size for BOTH paths (default 0 = single worker, "
        "the headline comparison)",
    )
    args = parser.parse_args()
    # perfbench/run.py owns the environment record of every benchmark.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.run import environment, read_steal_ticks

    env = environment()
    steal_start = read_steal_ticks()
    monte_carlo = bench_monte_carlo(args.samples, args.workers)
    sweep = bench_fig7_sweep()
    env["steal_ticks"] = read_steal_ticks() - steal_start

    passed = bool(monte_carlo["parity"] and sweep["parity"])
    result = {
        "benchmark": "bench_optics",
        "monte_carlo": monte_carlo,
        "fig7_sweep": sweep,
        # Parity is the gate; wall-clock speedups are recorded for
        # trend tracking but machine-dependent, so they never fail CI.
        "passed": passed,
        "environment": env,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    print(
        f"Monte Carlo yield study: {monte_carlo['samples']} corners, "
        f"sigma {MC_SIGMA_NM} nm, workers={monte_carlo['workers']}"
    )
    print(
        f"  scalar corner loop         : "
        f"{monte_carlo['scalar_seconds'] * 1e3:9.1f} ms"
    )
    print(
        f"  vectorized (stacked pass)  : "
        f"{monte_carlo['vectorized_seconds'] * 1e3:9.1f} ms"
    )
    print(
        f"  speedup: {monte_carlo['speedup']:.1f}x "
        f"(target >= {MC_TARGET_SPEEDUP:.0f}x), yield identical: "
        f"{monte_carlo['yields_identical']}, eyes allclose: "
        f"{monte_carlo['eyes_allclose']}"
    )
    print(
        f"Fig. 7 sizing sweep: orders {list(SWEEP_ORDERS)} x "
        f"{SWEEP_SPACINGS.size} spacings"
    )
    print(
        f"  scalar designer loop       : {sweep['scalar_seconds'] * 1e3:9.1f} ms"
    )
    print(
        f"  vectorized (one-pass)      : "
        f"{sweep['vectorized_seconds'] * 1e3:9.1f} ms"
    )
    print(
        f"  speedup: {sweep['speedup']:.1f}x "
        f"(target >= {SWEEP_TARGET_SPEEDUP:.0f}x), energies allclose: "
        f"{sweep['energies_allclose']}, inf/nan masks equal: "
        f"{sweep['inf_nan_masks_equal']}"
    )
    print(f"parity exit gate passed: {passed}")
    if not passed:
        print("FAIL: vectorized optics results diverge from scalar paths")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
