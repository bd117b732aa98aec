#!/usr/bin/env python3
"""Timing legs behind the committed kernel, fault and serving artifacts.

One leg per run, one ``BENCH_*.json`` artifact per leg:

* ``kernels`` — the production packed pass against the byte-wise test
  reference (``tests/packed_reference.py``) on the noiseless LFSR
  one-shot path (``B=32``, ``L=2**20``), with the layout bit-tensor
  bytes and a measured tracemalloc peak of one streamed tile per pass
  (``BENCH_kernels.json``);
* ``faults`` — production against the reference under one composite
  fault scenario (flips + desynchronization + drift ramp) at the same
  size, with the per-``2**16``-clock-tile split of the packed fault
  path: threshold plane build, Bernoulli compare, shift and cursor take
  (``BENCH_faults.json``);
* ``serving`` — an open-loop saturation study of the admission-
  controlled ``BatchServer`` (``BENCH_serving.json``): seeded Poisson
  arrivals at 0.5x / 1x / 2x of the measured saturation rate through an
  unbounded baseline, a shedding server and a degrading server.

The kernels leg only times: the tier-1 test suite owns every
bit-exactness check between production and the reference, workers,
chunk lengths and fault scenarios.  The faults leg exits non-zero
unless production's and the reference's output and ideal bits are
identical, so the run that times them also checks them.  The serving
leg exits non-zero unless its four wall-clock gates hold, which no
deterministic test can express: the unbounded baseline's queue grows
past the bounded cap, the shedding server's traced allocation peak
stays at or below the baseline's, the served p99 stays inside the
configured deadline, and the degrading server serves at least 95% of
all requests.

Every artifact carries the environment block of ``perfbench/run.py``
(cores, CPU model, Python and numpy versions, git sha, load average)
plus the hypervisor steal ticks spent during the leg.

Run:  PYTHONPATH=src python benchmarks/bench_batched.py \
          {kernels,faults,serving} [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.params import paper_section5a_parameters
from repro.simulation.engine import derive_seed_schedule, simulate_batch
from repro.stochastic.bernstein import BernsteinPolynomial

ORDER = 2
SEED = 0xBEEF

# B=32 keeps the reference one-shot pass at L=2**20 near 2 GB peak RSS
# (1976 MiB for either leg on a 2-vCPU Xeon VM, numpy 2.4.6).
KERNEL_BATCH = 32
KERNEL_LENGTH = 1 << 20
STREAMING_PEAK_LENGTH = 1 << 17

FAULT_BATCH = 32
FAULT_LENGTH = 1 << 20
FAULT_STAGE_TILE = 1 << 16  # clocks per tile of the stage split

SATURATION_REQUESTS = 600
# Long enough that batch service time (~10 ms) dominates event-loop
# scheduling overhead, so Poisson arrival pacing is physically real.
SATURATION_LENGTH = 4096
SATURATION_BATCH = 32
# max_queue = factor x max_batch_size; sized so the queue can absorb
# the overload burst for the ~2 batch turnarounds the degradation
# controller needs before its first step-down takes effect.
SATURATION_QUEUE_FACTOR = 8
SATURATION_DEADLINE_FACTOR = 15.0  # deadline = factor x batch service time
SATURATION_SERVED_TARGET = 0.95  # degrade policy must serve this fraction
SATURATION_ARRIVAL_SEED = 0x0A27  # seeds the Poisson interarrival gaps


def best_of(repetitions: int, run) -> tuple:
    """Best-of-N wall-clock timing: single-shot timings on a shared
    machine are allocation/load-noise dominated.  Returns the best time
    and the last output (callables are deterministic per repetition)."""
    best, output = float("inf"), None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        output = run()
        best = min(best, time.perf_counter() - t0)
    return best, output


PASSES = ("reference", "production")
"""Row labels: the test suite's byte-wise reference pass, then the package's."""


def _on_pass(kernel_pass, run):
    """*run()* on the named pass: the reference is swapped in for the call."""
    import packed_reference

    with packed_reference.running(kernel_pass):
        return run()


def _time_passes(run, keep=lambda outcome: None) -> tuple:
    """Best-of-2 seconds per pass, and each one's speedup over the reference.

    Returns those timings and, per pass, what *keep* takes from its last
    outcome.
    """
    seconds, kept = {}, {}
    for kernel_pass in PASSES:
        seconds[kernel_pass], outcome = best_of(
            2, lambda: _on_pass(kernel_pass, run)
        )
        kept[kernel_pass] = keep(outcome)
        del outcome  # drop the (B, L) tensors before the next pass runs
    timed = {
        kernel_pass: {
            "seconds": round(value, 6),
            "speedup_vs_reference": round(seconds["reference"] / value, 2),
        }
        for kernel_pass, value in seconds.items()
    }
    return timed, kept


def _measured_streaming_peaks(circuit) -> dict:
    """tracemalloc peak per pass for one noiseless streamed tile.

    The layout arithmetic (1 bit vs 1 byte per clock) says the packed
    bit tensors are 8x smaller *by construction*; this measures the
    claim so a regression (e.g. the packed path silently falling back to
    per-clock byte tensors) shows up in the artifact.  The chunked
    statistics path is measured because it returns only ``O(batch)``
    accumulators — the one-shot path's returned ``(B, L)`` float64
    tensors are identical on both passes and would mask the bit-tensor
    difference.  numpy allocates through tracemalloc-visible hooks, so
    the traced peak covers the tile tensors.
    """
    import tracemalloc

    from repro.simulation.runtime import simulate_chunked

    xs = np.linspace(0.0, 1.0, KERNEL_BATCH)
    schedule = derive_seed_schedule(xs.size, np.random.default_rng(SEED))
    def run():
        return simulate_chunked(
            circuit,
            xs,
            length=STREAMING_PEAK_LENGTH,
            chunk_length=STREAMING_PEAK_LENGTH,
            noisy=False,
            schedule=schedule,
            workers=0,
        )

    peaks = {}
    for kernel_pass in PASSES:
        # Warm caches (cycle tables, pass context) outside the trace.
        _on_pass(kernel_pass, run)
        tracemalloc.start()
        _on_pass(kernel_pass, run)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[kernel_pass] = int(peak)
    return peaks


def bench_kernels(circuit) -> dict:
    """Production vs the reference on the noiseless LFSR one-shot path."""
    xs = np.linspace(0.0, 1.0, KERNEL_BATCH)
    schedule = derive_seed_schedule(KERNEL_BATCH, np.random.default_rng(SEED))
    results, _ = _time_passes(
        lambda: simulate_batch(
            circuit,
            xs,
            length=KERNEL_LENGTH,
            noisy=False,
            schedule=schedule,
        )
    )
    # One byte per clock per data/coefficient stream vs one bit packed.
    byte_tensor_bytes = KERNEL_BATCH * (2 * ORDER + 1) * KERNEL_LENGTH
    results["reference"]["bit_tensor_bytes"] = byte_tensor_bytes
    results["production"]["bit_tensor_bytes"] = byte_tensor_bytes // 8
    peaks = _measured_streaming_peaks(circuit)
    for kernel_pass, peak in peaks.items():
        results[kernel_pass]["measured_streaming_peak_bytes"] = peak
    return {
        "benchmark": "bench_kernels",
        "batch": KERNEL_BATCH,
        "length": KERNEL_LENGTH,
        "order": ORDER,
        "sng_kind": "lfsr",
        "noisy": False,
        "kernels": results,
        # The layout ratio of bit_tensor_bytes (8x) is cross-checked by
        # a measured allocation peak on the streaming statistics path:
        # one tile of KERNEL_BATCH rows x this many clocks.
        "streaming_peak_length": STREAMING_PEAK_LENGTH,
        "measured_streaming_peak_ratio": round(
            peaks["reference"] / peaks["production"], 2
        ),
    }


def _fault_stages(circuit, fault) -> dict:
    """Median milliseconds per tile of each stage of the packed fault path.

    Walks the leg's stream in ``FAULT_STAGE_TILE``-clock tiles, as the
    chunked runtime does, and times each stage on its own: the flip
    threshold-plane build, the Bernoulli compare against those planes,
    the desynchronization shift, and the cursor take of the tile's data
    and coefficient words.  Two walks; the median is over all tiles.
    """
    from repro.simulation.engine import _StreamSource
    from repro.simulation.faultmodel import (
        PackedFaultChannel,
        packed_bernoulli_words,
    )

    xs = np.linspace(0.0, 1.0, FAULT_BATCH)
    schedule = derive_seed_schedule(FAULT_BATCH, np.random.default_rng(SEED))
    coefficients = np.asarray(circuit.polynomial.coefficients, dtype=float)
    words = FAULT_STAGE_TILE // 64
    samples = {
        "plane_build": [],
        "bernoulli_compare": [],
        "shift": [],
        "cursor_take": [],
    }

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        samples[stage].append((time.perf_counter() - t0) * 1e3)
        return out

    for _ in range(2):
        source = _StreamSource(
            "lfsr", schedule, xs, coefficients, 16, FAULT_LENGTH
        )
        channel = PackedFaultChannel(fault, schedule.noise_seeds, FAULT_LENGTH)
        seeds = channel._flip_seeds
        for start in range(0, FAULT_LENGTH, FAULT_STAGE_TILE):
            first_word = start // 64
            timed("cursor_take", source.take, start, FAULT_STAGE_TILE)
            planes = timed(
                "plane_build", channel._flip_planes, first_word, words
            )
            mask = timed(
                "bernoulli_compare",
                packed_bernoulli_words,
                seeds,
                first_word,
                planes,
            )
            timed("shift", channel._shift_words, mask, start, FAULT_STAGE_TILE)
    return {
        "tile_clocks": FAULT_STAGE_TILE,
        "ms_per_tile": {
            stage: round(float(np.median(ms)), 4)
            for stage, ms in samples.items()
        },
    }


def bench_faults(circuit) -> dict:
    """Production vs the reference: one-shot fault injection, long stream.

    Both passes feed the same uint64 fault mask words.  The leg fails
    unless both give the same output and ideal bits.
    """
    from repro.simulation.faultmodel import FaultSpec
    from repro.simulation.runtime import RuntimeConfig, run_batch

    fault = FaultSpec(
        flip_probability=0.01,
        shift_clocks=5,
        drift_ramp_per_mclock=0.25,
    )
    xs = np.linspace(0.0, 1.0, FAULT_BATCH)
    results, bits = _time_passes(
        lambda: run_batch(
            circuit,
            xs,
            length=FAULT_LENGTH,
            noisy=False,
            base_seed=SEED,
            config=RuntimeConfig(workers=0),
            fault=fault,
        ),
        keep=lambda outcome: (outcome.output_bits, outcome.ideal_bits),
    )
    gates = {
        "output_bits_identical": bool(
            np.array_equal(bits["reference"][0], bits["production"][0])
        ),
        "ideal_bits_identical": bool(
            np.array_equal(bits["reference"][1], bits["production"][1])
        ),
    }
    del bits
    return {
        "benchmark": "bench_faults",
        "batch": FAULT_BATCH,
        "length": FAULT_LENGTH,
        "order": ORDER,
        "noisy": False,
        "fault": {
            "flip_probability": fault.flip_probability,
            "shift_clocks": fault.shift_clocks,
            "drift_ramp_per_mclock": fault.drift_ramp_per_mclock,
        },
        "kernels": results,
        "stages": _fault_stages(circuit, fault),
        "gates": gates,
        "passed": all(gates.values()),
    }


def _nearest_rank(sorted_samples, fraction):
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    rank = max(
        0,
        min(
            len(sorted_samples) - 1,
            round(fraction * (len(sorted_samples) - 1)),
        ),
    )
    return sorted_samples[rank]


def _arrival_schedule(requests, saturation_rate, batch, rng):
    """Open-loop ramped Poisson arrivals: (x, gap_s) per request.

    Three phases against the measured saturation rate — 15% of traffic
    at 0.5x (calm), 15% at 1x (critical), 70% at 2x (overload) — with
    the overload phase opening as a burst of two full batches so the
    pressure step is sharp regardless of event-loop pacing jitter.
    """
    calm = requests * 15 // 100
    critical = requests * 15 // 100
    overload = requests - calm - critical
    burst = min(2 * batch, overload)
    schedule = []
    for count, multiplier in ((calm, 0.5), (critical, 1.0)):
        for _ in range(count):
            gap = float(rng.exponential(1.0 / (multiplier * saturation_rate)))
            schedule.append((float(rng.random()), gap))
    for index in range(overload):
        gap = (
            0.0
            if index < burst
            else float(rng.exponential(1.0 / (2.0 * saturation_rate)))
        )
        schedule.append((float(rng.random()), gap))
    return schedule


def _run_saturation_scenario(evaluator, batch, schedule, **server_kwargs):
    """Drive one server configuration through the arrival schedule.

    Returns outcome counters, client-observed latencies of served
    requests, the metrics snapshot, the wall-clock span, and the
    tracemalloc peak across the run.
    """
    import asyncio
    import tracemalloc

    from repro.errors import (
        DeadlineExceededError,
        OverloadedError,
        ReproError,
    )
    from repro.serving import BatchServer

    async def scenario():
        server = BatchServer(
            evaluator,
            max_batch_size=batch,
            max_batch_delay_s=0.001,
            **server_kwargs,
        )
        await server.start()
        outcomes = {"served": 0, "shed": 0, "expired": 0, "failed": 0}
        latencies = []

        async def client(x):
            t0 = time.perf_counter()
            try:
                await server.submit(x)
            except DeadlineExceededError:
                outcomes["expired"] += 1
            except OverloadedError:
                outcomes["shed"] += 1
            except ReproError:
                outcomes["failed"] += 1
            else:
                outcomes["served"] += 1
                latencies.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        tasks = []
        pending_gap = 0.0
        for x, gap in schedule:
            tasks.append(asyncio.create_task(client(x)))
            pending_gap += gap
            # Aggregate sub-5ms gaps into one sleep: the schedule's
            # *average* rate survives the event loop's timer overhead.
            if pending_gap >= 0.005:
                await asyncio.sleep(pending_gap)
                pending_gap = 0.0
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - t0
        snapshot = server.metrics()
        await server.stop()
        return outcomes, latencies, snapshot, elapsed

    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        outcomes, latencies, snapshot, elapsed = asyncio.run(scenario())
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return outcomes, latencies, snapshot, elapsed, peak_bytes


def _scenario_report(outcomes, latencies, snapshot, elapsed, peak_bytes):
    sorted_latencies = sorted(latencies)
    return {
        "outcomes": dict(outcomes),
        "elapsed_seconds": round(elapsed, 4),
        "achieved_arrival_rate_per_s": round(
            sum(outcomes.values()) / elapsed, 1
        ),
        "latency_p50_ms": round(
            _nearest_rank(sorted_latencies, 0.50) * 1e3, 3
        )
        if sorted_latencies
        else None,
        "latency_p99_ms": round(
            _nearest_rank(sorted_latencies, 0.99) * 1e3, 3
        )
        if sorted_latencies
        else None,
        "peak_queue_depth_bound": snapshot.queue_depth.max_observed_bound,
        "queue_depth_buckets": {
            "bounds": list(snapshot.queue_depth.bounds),
            "counts": list(snapshot.queue_depth.counts),
        },
        "largest_batch": snapshot.largest_batch,
        "batches": snapshot.batches,
        "tracemalloc_peak_kb": round(peak_bytes / 1024.0, 1),
        "rungs": [
            {
                "rung": rung.rung,
                "length": rung.length,
                "served": rung.served,
                "latency_p99_ms": round(rung.latency_p99_s * 1e3, 3),
                "rmse": rung.rmse,
            }
            for rung in snapshot.rungs
        ],
    }


def bench_serving(circuit) -> dict:
    """Open-loop saturation study of the admission-controlled server.

    Measures the session's batch service time, derives the saturating
    arrival rate, and drives three server configurations through the
    same seeded ramped-Poisson schedule (0.5x / 1x / 2x):

    * ``unbounded`` — the ``max_queue=0`` baseline, arrival burst
      absorbed entirely into the queue (memory-growth baseline);
    * ``shed`` — bounded queue + deadline: typed refusals, p99 of
      served requests within the deadline (gate);
    * ``degrade`` — bounded queue + precision ladder: serves >= 95% of
      requests by stepping down stream length (gate).
    """
    from repro.serving import DegradationController, DegradationLadder
    from repro.session import EvalSpec, Evaluator

    length, batch = SATURATION_LENGTH, SATURATION_BATCH
    evaluator = Evaluator(
        circuit,
        EvalSpec(length=length, noisy=False, base_seed=SEED),
    )
    max_queue = SATURATION_QUEUE_FACTOR * batch

    # The saturating arrival rate is a measured property of this
    # machine: requests/second one full micro-batch sustains.
    probe = np.linspace(0.0, 1.0, batch)
    service_s, _ = best_of(3, lambda: evaluator.evaluate(probe))
    saturation_rate = batch / service_s
    deadline_s = SATURATION_DEADLINE_FACTOR * service_s

    rng = np.random.default_rng(SATURATION_ARRIVAL_SEED)
    schedule = _arrival_schedule(
        SATURATION_REQUESTS, saturation_rate, batch, rng
    )
    burst_schedule = [(x, 0.0) for x, _ in schedule]

    # -- unbounded baseline: the whole burst lands in the queue --------
    unbounded = _run_saturation_scenario(
        evaluator, batch, burst_schedule, policy="block", max_queue=0
    )
    # -- shed: bounded queue + deadline --------------------------------
    shed = _run_saturation_scenario(
        evaluator,
        batch,
        schedule,
        policy="shed",
        max_queue=max_queue,
        default_deadline_s=deadline_s,
    )
    # -- degrade: bounded queue + progressive-precision ladder ---------
    ladder = DegradationLadder(
        (length, max(1, length // 4), max(1, length // 16))
    )
    controller = DegradationController(
        ladder,
        queue_capacity=max_queue,
        high_watermark=0.25,
        low_watermark=0.05,
        patience=1,
        recovery_patience=8,
    )
    degrade = _run_saturation_scenario(
        evaluator,
        batch,
        schedule,
        policy="degrade",
        max_queue=max_queue,
        degradation=controller,
        measure_rmse=True,
    )

    # -- gates ---------------------------------------------------------
    unbounded_bound = unbounded[2].queue_depth.max_observed_bound
    shed_sorted = sorted(shed[1])
    degrade_served_fraction = degrade[0]["served"] / SATURATION_REQUESTS
    gates = {
        "unbounded_baseline_grows": bool(
            unbounded_bound is None or unbounded_bound > max_queue
        ),
        "memory_flat_vs_unbounded": bool(shed[4] <= unbounded[4]),
        "shed_p99_within_deadline": bool(
            shed_sorted and _nearest_rank(shed_sorted, 0.99) <= deadline_s
        ),
        "degrade_serves_target": bool(
            degrade_served_fraction >= SATURATION_SERVED_TARGET
        ),
    }
    return {
        "benchmark": "bench_serving_saturation",
        "requests": SATURATION_REQUESTS,
        "length": length,
        "max_batch_size": batch,
        "max_queue": max_queue,
        "batch_service_seconds": round(service_s, 6),
        "saturation_rate_per_s": round(saturation_rate, 1),
        "deadline_s": round(deadline_s, 6),
        "deadline_factor": SATURATION_DEADLINE_FACTOR,
        "unbounded": _scenario_report(*unbounded),
        "shed": _scenario_report(*shed),
        "degrade": _scenario_report(*degrade),
        "degrade_served_fraction": round(degrade_served_fraction, 4),
        "served_fraction_target": SATURATION_SERVED_TARGET,
        "gates": gates,
        "passed": all(gates.values()),
    }


def _print_kernel_rows(artifact) -> None:
    print(
        f"{artifact['benchmark']}: {artifact['batch']} rows x "
        f"{artifact['length']} bits, noiseless"
    )
    for name, row in artifact["kernels"].items():
        print(
            f"  {name:<10s}: {row['seconds'] * 1e3:9.1f} ms "
            f"({row['speedup_vs_reference']:.2f}x vs reference)"
        )
    if "stages" in artifact:
        stages = artifact["stages"]
        print(
            f"  packed fault path per {stages['tile_clocks']}-clock tile: "
            + ", ".join(
                f"{stage} {ms:.2f} ms"
                for stage, ms in stages["ms_per_tile"].items()
            )
        )
    if "gates" in artifact:
        print(
            "  gates: "
            + ", ".join(f"{k}={v}" for k, v in artifact["gates"].items())
        )
    if "measured_streaming_peak_ratio" in artifact:
        print(
            f"  streamed-tile allocation peak, reference / production: "
            f"{artifact['measured_streaming_peak_ratio']:.1f}x"
        )


def _print_serving(s) -> None:
    print(
        f"serving saturation: {s['requests']} requests x "
        f"{s['length']}-bit streams, queue cap {s['max_queue']}, "
        f"deadline {s['deadline_s'] * 1e3:.1f} ms "
        f"({s['saturation_rate_per_s']:.0f} req/s saturates)"
    )
    for name in ("unbounded", "shed", "degrade"):
        row = s[name]
        outcomes = row["outcomes"]
        p99 = row["latency_p99_ms"]
        print(
            f"  {name:<9s}: served {outcomes['served']:4d} "
            f"shed {outcomes['shed']:4d} expired "
            f"{outcomes['expired']:4d}, "
            f"p99 {p99 if p99 is not None else '-':>8} ms, "
            f"queue depth <= {row['peak_queue_depth_bound']}, "
            f"peak alloc {row['tracemalloc_peak_kb']:.0f} KB"
        )
    for rung in s["degrade"]["rungs"]:
        print(
            f"    rung {rung['rung']} ({rung['length']:5d} bits): "
            f"served {rung['served']:4d}, rmse {rung['rmse']:.5f}"
        )
    print(
        f"  degrade served fraction: {s['degrade_served_fraction']:.3f} "
        f"(target >= {s['served_fraction_target']:.2f}); gates: "
        + ", ".join(f"{key}={value}" for key, value in s["gates"].items())
    )


LEGS = {
    "kernels": (bench_kernels, _print_kernel_rows),
    "faults": (bench_faults, _print_kernel_rows),
    "serving": (bench_serving, _print_serving),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("leg", choices=LEGS, help="which timing leg to run")
    parser.add_argument(
        "--out", help="JSON artifact path (default: BENCH_<leg>.json)"
    )
    args = parser.parse_args(argv)
    out = args.out or f"BENCH_{args.leg}.json"
    bench, report = LEGS[args.leg]
    # perfbench/run.py owns the environment record of every benchmark;
    # tests/packed_reference.py holds the reference pass the kernels and
    # faults legs time production against.
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root), str(root / "tests")]
    from perfbench.run import environment, read_steal_ticks

    circuit = OpticalStochasticCircuit(
        paper_section5a_parameters(),
        BernsteinPolynomial([0.25, 0.625, 0.375]),
    )
    env = environment()
    steal_start = read_steal_ticks()
    artifact = bench(circuit)
    env["steal_ticks"] = read_steal_ticks() - steal_start
    artifact["environment"] = env
    with open(out, "w") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")

    report(artifact)
    print(f"  artifact written to {out}")
    if not artifact.get("passed", True):
        failed = [key for key, ok in artifact["gates"].items() if not ok]
        print(
            f"FAILED: {args.leg} gates: " + ", ".join(failed), file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
