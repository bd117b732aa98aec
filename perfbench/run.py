"""Repository benchmark: one workload per process, metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload oneshot-default --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced for half the time, then traced
for the other half, and reports the per-layer metrics.  Standard output
ends with two lines: a report (environment, workload configuration,
output digest, check details) and the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an output check failed and 2 when the program is missing.

Set-up time is measured in fresh interpreters (``setup_probe.py``),
several times per run, and reported as the median.  The run and its
set-up probes are pinned to one CPU, which ``spinner.py`` keeps from
going idle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def read_steal_ticks() -> int:
    """Ticks stolen from this machine's vCPUs by the hypervisor so far."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return -1
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else -1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> Any:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def pin_to_one_cpu() -> Any:
    """Run this process and its children on one CPU; returns that CPU.

    Every timed path is single-threaded or serialized by the interpreter
    lock, so a second CPU adds only wake-ups across CPUs and migrations.
    On a shared virtual machine those cost the most when the host is
    busy: pinned, an open-loop serving p50 was 6-9 ms against 12-15 ms
    unpinned in the same busy minutes.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def keep_cpu_busy() -> Optional["subprocess.Popen[bytes]"]:
    """Start ``spinner.py`` on this process's CPU, where the OS allows it.

    Pinned, with the spinner, an open-loop serving p90 read 6.7-7.7 ms
    per second of run on a busy host, against 10-23 ms without it in
    the same minutes.
    """
    if not hasattr(os, "SCHED_IDLE"):
        return None
    return subprocess.Popen([sys.executable, str(HERE / "spinner.py")])


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
    }


def setup_probes(workload: str, seed: int) -> List[Dict[str, float]]:
    samples = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    pinned_cpu = pin_to_one_cpu()
    spinner = keep_cpu_busy() if pinned_cpu is not None else None
    try:
        return measure(args, wanted, pinned_cpu)
    finally:
        if spinner is not None:
            spinner.kill()
            spinner.wait()


def measure(
    args: argparse.Namespace, wanted: List[Dict[str, Any]], pinned_cpu: Any
) -> int:
    steal_start = read_steal_ticks()
    probes = setup_probes(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import workloads

    env = environment()
    env["pinned_cpu"] = pinned_cpu
    workload = workloads.make(args.workload, args.seed)
    outcome = workload.execute(args.seconds, bool(args.trace))
    measured = dict(outcome.metrics)
    measured["setup_s"] = statistics.median(p["total_s"] for p in probes)
    for part in ("import_ms", "circuit_ms", "first_call_ms"):
        measured[f"setup.{part}"] = statistics.median(p[part] for p in probes)
    measured["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    env["loadavg_end"] = list(os.getloadavg())
    env["steal_ticks"] = read_steal_ticks() - steal_start

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            value = measured[name]
        elif name in workload.idle_layers:
            # A layer this workload never exercises did no work.
            value = 0.0
        else:
            value = 0.0
            outcome.tally.fail(f"{args.workload}: metric {name} was not measured")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_probes": probes,
        "check_failures": outcome.tally.failures,
        **outcome.report,
    }
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.tally.attempted,
                "failed": outcome.tally.failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
