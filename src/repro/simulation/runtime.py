"""Scaling runtime over the batched engine: sharding, chunking, caching.

One :func:`~repro.simulation.engine.simulate_batch` call runs on a
single core and keeps the packed words of the whole ``(B, L)`` stream.
This module is the scaling layer above the engine, built around one
tile loop (:func:`simulate_chunked`):

* **Tile streaming**: an evaluation runs in ``(B, chunk)`` tiles with
  running accumulators — ones count, link bit-error count, optional
  received-power histogram — so memory stays bounded by the tile size
  while the accumulated statistics stay bit-exact with the one-shot
  pass.  LFSR/Sobol/counter streams resume by index offset; chaotic
  orbits resume by carrying raw map state.  Very long streams
  (``length >> 2**20``, the ``O(1/N)``-convergence regime that
  motivates low-discrepancy and chaotic-laser randomizers) are the
  multi-tile case; a tile as long as the stream is the single-tile case.
* **Row-wise sharding** (``workers > 1``): per-row ``(data_seed,
  coeff_seed, noise_seed)`` triples are pre-derived into a
  :class:`~repro.simulation.engine.SeedSchedule`, shards of rows run
  the tile loop on a process (or thread) pool, and their ``O(rows)``
  accumulators are reassembled into one
  :class:`~repro.simulation.engine.BatchEvaluation` that
  is **bit-for-bit identical** to the serial run under the same
  schedule — every row is fully determined by its seed triple, so rows
  are relocatable across workers.  A shard result pickles to the same
  few kilobytes whatever the stream length.
* **Keyed evaluation cache** (:class:`EvaluationCache`, enabled through
  :class:`RuntimeConfig`): repeated exploration sweeps over the same
  ``circuit fingerprint x sng_kind x base_seed x sng_width x length x
  inputs`` skip recomputation entirely.  Cacheable runs derive their
  receiver-noise seeds from ``base_seed`` so even noisy results are
  deterministic.
* **Generic parallel map** (:func:`parallel_map`): the process-pool
  primitive the row shards, the exploration grid sweep and the Monte
  Carlo corner loop share.

:func:`run_batch` bundles the knobs behind one dispatcher
(:class:`RuntimeConfig`); ``REPRO_RUNTIME_WORKERS`` sets the default
worker count process-wide (``auto`` = one per CPU).
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .._memo import _BoundedCache
from ..errors import ConfigurationError

# Not called in this module; bound because perfbench/tracing.py wraps
# this module attribute by name.
from ..stochastic.sng import derive_lfsr_seeds  # noqa: F401
from .engine import (
    _NOISE_PROTOCOL,
    BatchEvaluation,
    SeedSchedule,
    _as_bool,
    _as_index,
    _check_kernel,
    _noise_flips,
    _positive_index,
    _resolve_schedule,
    _StreamSource,
    _validate_batch_inputs,
    derive_seed_schedule,
    simulate_batch,
)
from .faultmodel import FaultSpec, fault_channel_for
from .kernels import _circuit_key, packed_tile_statistics

__all__ = [
    "BACKENDS",
    "EvaluationCache",
    "RuntimeConfig",
    "default_evaluation_cache",
    "default_worker_count",
    "parallel_map",
    "resolve_pool",
    "resolve_vectorized",
    "run_batch",
    "simulate_chunked",
]

BACKENDS: Tuple[str, ...] = ("process", "thread")
"""Execution backends for sharded evaluation and :func:`parallel_map`."""

_WORKERS_ENV = "REPRO_RUNTIME_WORKERS"


def default_worker_count() -> int:
    """Worker count from ``REPRO_RUNTIME_WORKERS`` (0 = in-process serial).

    ``auto`` maps to one worker per CPU; anything unparsable maps to 0 so
    a stray environment value can never break an evaluation.
    """
    raw = os.environ.get(_WORKERS_ENV, "").strip().lower()
    if not raw:
        return 0
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


def _resolve_workers(workers: Any) -> int:
    """*workers* checked like ``RuntimeConfig.workers``; ``None`` = default.

    A non-integral or bool count raises :class:`ConfigurationError`
    instead of being truncated by ``int`` into a silent pool size.
    """
    if workers is None:
        return default_worker_count()
    workers = _as_index("workers", workers)
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers!r}")
    return workers


def _validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def _pool_context() -> Any:
    """Prefer fork (cheap workers, inherited caches) where safe.

    Only on Linux — macOS keeps spawn as its default precisely because
    forking there can crash/deadlock inside system frameworks — and only
    while no extra Python thread is alive, since forking a
    multi-threaded process can deadlock the child on locks held by
    other threads (the reason CPython is moving away from fork as a
    default).  Everywhere else, honor the platform default.
    """
    methods = multiprocessing.get_all_start_methods()
    if (
        sys.platform.startswith("linux")
        and "fork" in methods
        and threading.active_count() <= 1
    ):
        return multiprocessing.get_context("fork")
    # Never fall back to a fork default (Linux <= 3.13) once the fast
    # path was refused: pick an explicitly fork-free start method.
    for method in ("forkserver", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


def resolve_pool(
    runtime: Any, workers: Optional[int] = None
) -> Tuple[Optional[int], str]:
    """``(workers, backend)`` for a pooled consumer of a session config.

    The one place the ``runtime=RuntimeConfig(...)`` convenience kwarg
    is unpacked for :func:`parallel_map`-style fan-outs (grid sweeps,
    Monte Carlo corners): an explicit *workers* wins over the config's,
    the config supplies the pool backend, and ``runtime=None`` keeps
    the historical defaults (environment worker count, process pool).
    """
    backend = "process"
    if workers is not None:
        workers = _resolve_workers(workers)
    if runtime is not None:
        backend = _check_runtime(runtime).backend
        if workers is None:
            workers = runtime.resolved_workers
    return workers, backend


def resolve_vectorized(
    runtime: Any, vectorized: Optional[bool] = None
) -> bool:
    """Whether an optics consumer should take the stacked-array fast path.

    The companion of :func:`resolve_pool` for the ``vectorized`` knob of
    :class:`RuntimeConfig`: an explicit *vectorized* argument wins, a
    bound session config supplies its default otherwise, and with
    neither the historical scalar corner loop is kept (batched results
    match it only to floating-point rounding, so flipping the default
    silently would perturb seeded reference numbers).
    """
    if vectorized is not None:
        return bool(vectorized)
    if runtime is not None:
        return _check_runtime(runtime).vectorized
    return False


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
    backend: str = "process",
) -> List[Any]:
    """Ordered ``[fn(item) for item in items]`` over a worker pool.

    The shared fan-out primitive behind sharded evaluation, the
    exploration grid sweep and the Monte Carlo corner loop.  With
    ``workers`` at most 1 (or a single item) the map runs in-process —
    no pool, no pickling, bit-identical results either way.  *fn* and
    the items must be picklable for the ``process`` backend (module-level
    functions, plain data).
    """
    _validate_backend(backend)
    items = list(items)
    workers = _resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(workers, len(items))
    if backend == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    chunksize = max(1, math.ceil(len(items) / workers))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context()
    ) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


# -- row-wise sharding ---------------------------------------------------------


def _shard_bounds(batch: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal row ranges covering ``[0, batch)``."""
    shard_count = min(workers, batch)
    size = batch // shard_count
    remainder = batch % shard_count
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(shard_count):
        stop = start + size + (1 if index < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _map_row_shards(
    xs: "np.ndarray[Any, Any]",
    schedule: SeedSchedule,
    workers: int,
    backend: str,
    options: Dict[str, Any],
) -> BatchEvaluation:
    """Run the tile loop on row shards over the pool and reassemble.

    Each shard carries its input rows, its slice of the seed schedule
    and the shared *options* (the remaining :func:`simulate_chunked`
    arguments); each returns ``O(rows)`` accumulators, whatever the
    stream length.
    """
    payloads = [
        (xs[lo:hi], schedule.shard(lo, hi), options)
        for lo, hi in _shard_bounds(xs.size, workers)
    ]
    return _concatenate_chunked(
        parallel_map(_shard_worker, payloads, workers=workers, backend=backend)
    )


# -- chunked streaming ---------------------------------------------------------


def _shard_worker(
    payload: Tuple[Any, SeedSchedule, Dict[str, Any]],
) -> BatchEvaluation:
    """Stream one row shard (module-level so process pools can pickle it)."""
    xs, schedule, options = payload
    return simulate_chunked(xs=xs, schedule=schedule, workers=0, **options)


def _concatenate_chunked(
    shards: Sequence[BatchEvaluation],
) -> BatchEvaluation:
    """Reassemble row-sharded streaming results, row order preserved."""
    first = shards[0]
    histogram = first.power_histogram
    if histogram is not None:
        histogram = np.sum([s.power_histogram for s in shards], axis=0)
    return BatchEvaluation(
        xs=np.concatenate([s.xs for s in shards]),
        expected=np.concatenate([s.expected for s in shards]),
        stream_length=first.stream_length,
        chunk_length=first.chunk_length,
        chunk_count=first.chunk_count,
        ones_count=np.concatenate([s.ones_count for s in shards]),
        transmission_bit_errors=np.concatenate(
            [s.transmission_bit_errors for s in shards]
        ),
        power_histogram=histogram,
        power_bin_edges=first.power_bin_edges,
    )


def simulate_chunked(
    circuit: Any,
    xs: Any,
    length: int = 1 << 21,
    chunk_length: int = 1 << 16,
    rng: Optional[np.random.Generator] = None,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
    sng_width: int = 16,
    schedule: Optional[SeedSchedule] = None,
    power_histogram_bins: int = 0,
    workers: Optional[int] = None,
    backend: str = "process",
    kernel: str = "packed",
    fault: Optional[FaultSpec] = None,
) -> BatchEvaluation:
    """Stream an evaluation through ``(B, chunk_length)`` tiles.

    The runtime's one tile loop.  Peak memory is bounded by the tile
    size instead of the stream length, so ``length >> 2**20`` runs (the
    regime where the Sobol and chaotic randomizers' ``O(1/N)``
    convergence pays off) stay cheap; ``chunk_length >= length`` is the
    single-tile case.  Each tile takes the engine's front end (streams,
    receiver-noise candidates, stuck-MZI pinning) and runs the one-shot
    call's word-level pass
    (:func:`repro.simulation.kernels.packed_tile_statistics`), so the
    accumulated counts — ones, link bit errors, and the optional
    received-power histogram over *power_histogram_bins* equal-width
    bins spanning the Eq. 6 table range — are **bit-exact** with a
    one-shot ``simulate_batch(..., schedule=schedule)``.  Every
    randomizer resumes exactly (index offsets for LFSR/Sobol/counter,
    carried orbit state for chaotic); receiver noise continues from each
    row's carried candidate buffer, drawn in blocks that depend only on
    the circuit; *fault* masks are pure functions of the absolute clock
    and the per-row schedule seeds, and the desynchronization shift
    carries its bits across tiles.  The result keeps only the per-row
    counts, never the words.

    Tiling composes with sharding: ``workers > 1`` (default: the
    ``REPRO_RUNTIME_WORKERS`` environment setting, like every runtime
    entry point) streams row shards on a worker pool (each worker
    bounded by its own tile), and the reassembled accumulators are
    identical to the serial run — rows are independent under the
    schedule, and per-shard histograms share the table-derived bin
    edges so they sum exactly.  Only the ``O(rows)`` accumulators
    travel back from a worker, so the pool pipes carry the same few
    kilobytes whatever the stream length.  *kernel* accepts
    ``"packed"``, the only kernel, as a no-op spelling; any other value
    raises :class:`~repro.errors.ConfigurationError`.
    """
    _validate_backend(backend)
    _check_kernel(kernel)
    xs = _validate_batch_inputs(
        circuit, xs, length, noisy, sng_kind, base_seed, sng_width, fault
    )
    chunk_length = _positive_index("chunk_length", chunk_length)
    power_histogram_bins = _as_index(
        "power_histogram_bins", power_histogram_bins
    )
    if power_histogram_bins < 0:
        raise ConfigurationError(
            f"power_histogram_bins must be >= 0, got {power_histogram_bins!r}"
        )
    workers = _resolve_workers(workers)
    batch = xs.size
    schedule = _resolve_schedule(batch, schedule, rng, sng_kind, base_seed)
    if workers > 1 and batch > 1:
        return _map_row_shards(
            xs,
            schedule,
            workers,
            backend,
            dict(
                circuit=circuit,
                length=length,
                chunk_length=chunk_length,
                noisy=noisy,
                sng_kind=sng_kind,
                sng_width=sng_width,
                power_histogram_bins=power_histogram_bins,
                fault=fault,
            ),
        )
    coefficients = np.asarray(circuit.polynomial.coefficients, dtype=float)
    source = _StreamSource(
        sng_kind, schedule, xs, coefficients, sng_width, length, fault
    )
    noise = _noise_flips(circuit, schedule, noisy, length)
    # One stream-fault channel for the whole run: masks are addressed by
    # absolute clock, the desynchronization carry advances tile by tile.
    fault_channel = fault_channel_for(fault, schedule.noise_seeds, length)

    ones_count = np.zeros(batch, dtype=np.int64)
    error_count = np.zeros(batch, dtype=np.int64)
    histogram: Optional["np.ndarray[Any, Any]"] = None
    edges: Optional["np.ndarray[Any, Any]"] = None
    if power_histogram_bins:
        table = circuit.model.received_power_table_mw()
        edges = np.linspace(
            float(table.min()), float(table.max()), power_histogram_bins + 1
        )
        histogram = np.zeros(power_histogram_bins, dtype=np.int64)

    for start in range(0, length, chunk_length):
        count = min(chunk_length, length - start)
        ones_inc, error_inc, histogram_inc = packed_tile_statistics(
            circuit,
            *source.take(start, count),
            count,
            candidates=noise.take(start, count) if noise is not None else None,
            histogram_edges=edges,
            fault_channel=fault_channel,
            clock_offset=start,
        )
        ones_count += ones_inc
        error_count += error_inc
        if histogram is not None:
            assert histogram_inc is not None
            histogram += histogram_inc

    expected = np.asarray(circuit.polynomial(xs), dtype=float)
    return BatchEvaluation(
        xs=xs,
        expected=expected,
        stream_length=int(length),
        chunk_length=min(chunk_length, length),
        chunk_count=-(-length // chunk_length),
        ones_count=ones_count,
        transmission_bit_errors=error_count,
        power_histogram=histogram,
        power_bin_edges=edges,
    )


# -- keyed evaluation cache ----------------------------------------------------


class EvaluationCache(_BoundedCache[BatchEvaluation]):
    """LRU cache of deterministic batch evaluations.

    Keyed on ``circuit type x circuit fingerprint x sng_kind x
    base_seed x sng_width x length x noisy x inputs digest x fault x
    kept words x receiver-noise protocol version`` — everything that
    determines a schedule-seeded evaluation and what its result keeps.
    Exploration sweeps that revisit the same design point skip the
    engine pass entirely; ``hits`` / ``misses`` expose the
    effectiveness.

    An entry keeps ``O(B)`` counts, plus for an in-process run the
    pass's packed words (one bit per clock and row per key plane and
    stream: about ``B * L / 2`` bytes at order 2, whose fixed-seed
    coefficient planes are one shared row) and any per-clock fields a
    caller decoded (``18 * B * L`` bytes for all four) — size
    ``max_entries`` to your memory budget; the default is deliberately
    small.  Whether the result keeps its words is part of the key.

    The package's one memo helper (:class:`repro._memo._BoundedCache`)
    bounded at ``max_entries`` results: ``get(key, build)`` returns the
    stored result or builds and stores it.  A hit is the stored object
    itself, so a result is frozen when built: its count arrays and its
    words are read-only, like the per-clock fields it decodes.  The
    cache is thread-safe: ``backend="thread"`` sharded runs and the
    serving layer's executor threads share the process-wide default
    instance.
    """

    def __init__(self, max_entries: int = 16) -> None:
        self.max_entries = _positive_index("max_entries", max_entries)
        super().__init__(self.max_entries)


_DEFAULT_CACHE = EvaluationCache(max_entries=16)


def default_evaluation_cache() -> EvaluationCache:
    """The process-wide cache :func:`run_batch` uses when no cache is bound.

    ``RuntimeConfig(use_cache=True)`` without an explicit ``cache``
    memoizes here.
    """
    return _DEFAULT_CACHE


def _evaluation_key(
    circuit: Any,
    xs: "np.ndarray[Any, Any]",
    length: int,
    noisy: bool,
    sng_kind: str,
    base_seed: int,
    sng_width: int,
    fault: Optional[FaultSpec],
    keeps_words: bool,
) -> Tuple[Any, ...]:
    digest = hashlib.sha1(np.ascontiguousarray(xs).tobytes()).hexdigest()
    return (
        _circuit_key(circuit),
        sng_kind,
        int(base_seed),
        int(sng_width),
        int(length),
        bool(noisy),
        int(xs.size),
        digest,
        # FaultSpec is a frozen value object: equal scenarios hash equal,
        # and the fault realization is a pure function of base_seed + spec.
        fault,
        keeps_words,
        _NOISE_PROTOCOL if noisy else None,
    )


# -- one-stop dispatcher -------------------------------------------------------


@dataclass(frozen=True)
class RuntimeConfig:
    """Scaling knobs for :func:`run_batch`.

    ``workers`` > 1 enables row sharding (``None`` defers to the
    ``REPRO_RUNTIME_WORKERS`` environment default); ``chunk_length``
    enables tile streaming for streams longer than one tile;
    ``use_cache``/``cache`` enable memoization for fixed-``base_seed``
    calls; ``vectorized`` routes the optics analysis consumers (Monte
    Carlo corners, yield curves) through the stacked-array engine of
    :mod:`repro.core.vectorized` instead of the per-corner scalar loop
    — results agree to floating-point rounding, an order of magnitude
    faster.

    The knobs never decide a bit, nor the result type: every run
    returns a :class:`~repro.simulation.engine.BatchEvaluation` of
    per-row counts (``values``, ``ones_count``,
    ``transmission_bit_errors``, ``expected``, ``absolute_errors``,
    ``transmission_ber``, ``mean_absolute_error``).  They decide only
    what else it keeps: an in-process single-tile run keeps its packed
    words and decodes per-clock fields on read, and a sharded
    (``workers > 1``) or multi-tile run keeps none.

    ``kernel`` accepts ``"packed"``, the uint64 bit-plane pass of
    :mod:`repro.simulation.kernels` and the only one: a no-op spelling
    kept for callers that name it.  Any other value raises
    :class:`~repro.errors.ConfigurationError` at construction.  Not to
    be confused with ``backend``, which picks the process/thread *pool*
    for sharded fan-out.

    Every construction-knowable misconfiguration fails in
    ``__post_init__`` — an invalid backend, kernel, chunk size, worker
    count, non-bool flag or cache object never survives to the first
    evaluation.  The one check that needs the seed policy (cache
    without a fixed ``base_seed``) fails on **every** :func:`run_batch`
    path, and at construction when the config is bound to a spec in a
    :class:`repro.session.Evaluator`.
    """

    workers: Optional[int] = None
    backend: str = "process"
    chunk_length: Optional[int] = None
    use_cache: bool = False
    cache: Optional[EvaluationCache] = None
    vectorized: bool = False
    kernel: str = "packed"

    def __post_init__(self) -> None:
        _validate_backend(self.backend)
        _check_kernel(self.kernel)
        _as_bool("use_cache", self.use_cache)
        _as_bool("vectorized", self.vectorized)
        if self.workers is not None:
            object.__setattr__(self, "workers", _resolve_workers(self.workers))
        if self.chunk_length is not None:
            chunk_length = _positive_index("chunk_length", self.chunk_length)
            object.__setattr__(self, "chunk_length", chunk_length)
        if self.cache is not None and not isinstance(
            self.cache, EvaluationCache
        ):
            raise ConfigurationError(
                f"cache must be an EvaluationCache, got {self.cache!r}"
            )

    @property
    def cache_requested(self) -> bool:
        """Whether this config asks for memoized evaluation."""
        return self.use_cache or self.cache is not None

    @property
    def resolved_workers(self) -> int:
        """The effective worker count (environment default applied)."""
        return default_worker_count() if self.workers is None else self.workers


def _check_runtime(runtime: Any) -> RuntimeConfig:
    """*runtime* if it is a :class:`RuntimeConfig`, else a typed error."""
    if not isinstance(runtime, RuntimeConfig):
        raise ConfigurationError(
            f"runtime must be a RuntimeConfig, got {runtime!r}"
        )
    return runtime


def _check_cache_seed(runtime: RuntimeConfig, base_seed: Any) -> None:
    """Refuse a cache request without a fixed *base_seed*.

    Silently recomputing while the caller believes memoization is on
    would defeat the config: :func:`run_batch` fails on every dispatch
    path, and :class:`repro.session.Evaluator` at construction.
    """
    if runtime.cache_requested and base_seed is None:
        raise ConfigurationError(
            "the runtime enables the evaluation cache but base_seed is "
            "None; rng-derived seeds make every call unique — pin "
            "base_seed or disable the cache"
        )


def run_batch(
    circuit: Any,
    xs: Any,
    length: int = 1024,
    rng: Optional[np.random.Generator] = None,
    noisy: bool = True,
    sng_kind: str = "lfsr",
    base_seed: Optional[int] = None,
    sng_width: int = 16,
    config: Optional[RuntimeConfig] = None,
    fault: Optional[FaultSpec] = None,
) -> BatchEvaluation:
    """Evaluate through the runtime, picking the scaling strategy.

    Every strategy returns a
    :class:`~repro.simulation.engine.BatchEvaluation`.  An in-process
    single-tile run (``workers <= 1`` and no ``config.chunk_length``
    shorter than the stream) is one pass of the engine's
    :func:`~repro.simulation.engine.simulate_batch`; its result keeps
    the packed words and decodes the per-clock fields on first read.
    Every sharded (``workers > 1``) or multi-tile run goes through the
    tile loop of :func:`simulate_chunked`; its result keeps only the
    per-row counts, and reading a per-clock field raises
    :class:`~repro.errors.ConfigurationError`.

    Inputs and *fault* are validated once, before anything else — a
    bad value raises :class:`~repro.errors.ConfigurationError` on every
    path, the cached one included.  The cache (when enabled; a cache
    without a fixed *base_seed* is a misconfiguration and raises)
    memoizes single-tile runs; a multi-tile stream bypasses it, since
    a stream long enough to tile is one whose evaluation should not be
    pinned in memory.

    Every strategy runs over the **same** pre-derived seed schedule, so
    the worker count and chunk size are pure wall-clock/memory knobs:
    changing them never changes a single output bit or accumulated
    statistic for a given *rng* seed (or *base_seed*).  That includes an injected
    *fault* (:class:`~repro.simulation.faultmodel.FaultSpec`): its
    realization is seeded from the same schedule and addressed by
    absolute clock index, so the faulted bits are identical on every
    strategy too.  A bare ``simulate_batch`` call derives its schedule
    the same way, so it returns the same bits as a single-tile run.
    """
    config = RuntimeConfig() if config is None else _check_runtime(config)
    _check_cache_seed(config, base_seed)
    xs = _validate_batch_inputs(
        circuit, xs, length, noisy, sng_kind, base_seed, sng_width, fault
    )
    workers = config.resolved_workers
    chunk_length = config.chunk_length or length
    multi_tile = length > chunk_length
    one_pass = not multi_tile and workers <= 1

    def build() -> BatchEvaluation:
        schedule = derive_seed_schedule(
            xs.size, rng=rng, sng_kind=sng_kind, base_seed=base_seed
        )
        options: Dict[str, Any] = dict(
            length=length,
            noisy=noisy,
            sng_kind=sng_kind,
            sng_width=sng_width,
            schedule=schedule,
            fault=fault,
        )
        if one_pass:
            return simulate_batch(circuit, xs, **options)
        return simulate_chunked(
            circuit,
            xs,
            chunk_length=chunk_length,
            workers=workers,
            backend=config.backend,
            **options,
        )

    if not config.cache_requested or multi_tile:
        return build()
    assert base_seed is not None  # checked above
    cache = _DEFAULT_CACHE if config.cache is None else config.cache
    # Private copy: the stored result's arrays are frozen read-only,
    # and xs may be the caller's own float array by identity.
    xs = xs.copy()
    key = _evaluation_key(
        circuit, xs, length, noisy, sng_kind, base_seed, sng_width,
        fault, one_pass,
    )
    return cache.get(key, build)
