"""Command-line experiment runner.

Usage::

    python -m repro.experiments            # list experiments
    python -m repro.experiments all        # run everything
    python -m repro.experiments fig7a ...  # run selected experiments
    python -m repro.experiments all --csv results/   # also write CSVs
    python -m repro.experiments accuracy --sng-kind sobol --length 4096 \
        --workers 4                        # configure the session

The ``--sng-kind``/``--length``/``--noiseless`` flags build an
:class:`repro.session.EvalSpec` and
``--workers``/``--chunk-length``/``--kernel`` a
:class:`repro.simulation.runtime.RuntimeConfig`; both are forwarded to
the experiments that declare them (currently the simulation-backed
ones, e.g. ``accuracy``).  Experiments that take no configuration are
still run, with a note that the flags were ignored for them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ConfigurationError
from ..reporting.csvio import write_csv
from ..session import EvalSpec
from ..simulation.runtime import RuntimeConfig
from ..stochastic.sng import SNG_KINDS
from .registry import (
    experiment_config_parameters,
    list_experiments,
    run_experiment,
)

__all__ = ["main"]


def _build_config(args) -> tuple:
    """The (spec, runtime) pair the CLI flags describe (None = default).

    Only explicitly passed flags go into the spec, so EvalSpec's own
    dataclass defaults stay the single source of truth — e.g.
    ``--length 4096`` alone keeps the default randomizer family
    *unspecified* rather than silently pinning it to lfsr.
    """
    spec_kwargs = {}
    if args.length is not None:
        spec_kwargs["length"] = args.length
    if args.sng_kind is not None:
        spec_kwargs["sng_kind"] = args.sng_kind
    if args.base_seed is not None:
        spec_kwargs["base_seed"] = args.base_seed
    if args.noiseless:
        spec_kwargs["noisy"] = False
    spec = EvalSpec(**spec_kwargs) if spec_kwargs else None
    runtime = None
    if (
        args.workers is not None
        or args.chunk_length is not None
        or args.kernel is not None
    ):
        runtime_kwargs = {
            "workers": args.workers,
            "chunk_length": args.chunk_length,
        }
        if args.kernel is not None:
            runtime_kwargs["kernel"] = args.kernel
        runtime = RuntimeConfig(**runtime_kwargs)
    return spec, runtime


def main(argv=None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Stochastic Computing "
            "with Integrated Optics' (DATE 2019)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (or 'all'); empty lists the registry",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each result's rows to DIR/<id>.csv",
    )
    spec_group = parser.add_argument_group(
        "evaluation spec (forwarded to configurable experiments)"
    )
    spec_group.add_argument(
        "--sng-kind",
        choices=SNG_KINDS,
        default=None,
        help="randomizer family to focus configurable experiments on",
    )
    spec_group.add_argument(
        "--length", type=int, default=None, help="stream length in bits"
    )
    spec_group.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="pin the SNG seed space (deterministic, cacheable runs)",
    )
    spec_group.add_argument(
        "--noiseless",
        action="store_true",
        help="disable receiver noise (isolate the SC error)",
    )
    runtime_group = parser.add_argument_group(
        "runtime config (pure wall-clock levers, never change results)"
    )
    runtime_group.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard evaluation batches across N worker processes",
    )
    runtime_group.add_argument(
        "--chunk-length",
        type=int,
        default=None,
        help="stream long evaluations in bounded-memory tiles of this size",
    )
    runtime_group.add_argument(
        "--kernel",
        default=None,
        help=(
            "engine compute kernel: packed (uint64 bit-plane), the only "
            "one; numpy is a deprecated alias of packed"
        ),
    )
    args = parser.parse_args(argv)
    try:
        spec, runtime = _build_config(args)
    except ConfigurationError as error:
        print(f"invalid configuration flags: {error}", file=sys.stderr)
        return 2
    # --sng-kind is an explicit focus request, separate from the spec
    # template: it must narrow the family comparison even when it names
    # the default family.
    sng_kinds = (args.sng_kind,) if args.sng_kind is not None else None

    available = list_experiments()
    if not args.experiments:
        print("available experiments:")
        for name in available:
            supports = experiment_config_parameters(name)
            suffix = "  [configurable]" if supports else ""
            print(f"  {name}{suffix}")
        return 0

    selected = (
        available if args.experiments == ["all"] else args.experiments
    )
    provided = {
        name: value
        for name, value in (
            ("spec", spec), ("runtime", runtime), ("sng_kinds", sng_kinds)
        )
        if value is not None
    }
    status = 0
    for name in selected:
        try:
            supported = experiment_config_parameters(name)
            # Every provided-but-unsupported flag gets a note — partial
            # support (e.g. spec-only experiments given --workers) must
            # not silently drop configuration the user asked for.
            dropped = sorted(set(provided) - supported)
            if dropped:
                print(
                    f"[{name}] note: does not take "
                    f"{', '.join(dropped)}; those flags are ignored",
                    file=sys.stderr,
                )
            result = run_experiment(
                name, **{k: v for k, v in provided.items() if k in supported}
            )
        except Exception as error:  # surface but keep running the rest
            print(f"[{name}] FAILED: {error}", file=sys.stderr)
            status = 1
            continue
        print()
        print(result.to_text())
        if args.csv:
            path = write_csv(Path(args.csv) / f"{name}.csv", result.rows)
            print(f"(rows written to {path})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
