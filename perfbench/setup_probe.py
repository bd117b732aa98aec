"""Time one cold set-up of a workload session in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints
one JSON object: ``import_ms`` (``import repro`` and the first access
to its API), ``circuit_ms`` (circuit design and the session object),
``first_call_ms`` (the first evaluation, which fills the lazy caches,
after starting the server for ``serve-closed``) and their sum
``total_s``.  Input generation is not part of set-up.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and the repro API)

_IMPORTED = time.perf_counter()


def main() -> None:
    workload = workloads.make(sys.argv[1], int(sys.argv[2]))
    t0 = time.perf_counter()
    workload.build()
    t1 = time.perf_counter()
    try:
        workload.first_call()
        t2 = time.perf_counter()
    finally:
        workload.close()
    timings = {
        "import_ms": (_IMPORTED - _START) * 1e3,
        "circuit_ms": (t1 - t0) * 1e3,
        "first_call_ms": (t2 - t1) * 1e3,
    }
    timings["total_s"] = sum(timings.values()) / 1e3
    print(json.dumps(timings))


if __name__ == "__main__":
    main()
