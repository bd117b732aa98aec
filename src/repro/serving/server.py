"""Async micro-batched serving on top of an :class:`~repro.session.Evaluator`.

The ROADMAP's north star is production-scale serving: many concurrent
clients, each asking for one circuit evaluation.  Per-request engine
calls would waste the whole point of the batched engine — a batch of one
costs almost as much as a batch of hundreds.  :class:`BatchServer`
coalesces concurrent ``submit(x)`` requests into one sharded
:meth:`~repro.session.Evaluator.evaluate` call, and hardens that core
loop for sustained overload:

* **Admission control** (:mod:`repro.serving.admission`): a bounded
  request queue with an explicit policy — ``"block"`` (backpressure),
  ``"shed"`` (typed :class:`~repro.errors.OverloadedError`) or
  ``"degrade"`` (precision ladder, below).  Per-request deadlines are
  enforced at the door *and* at batch formation, failing hopeless
  requests with :class:`~repro.errors.DeadlineExceededError` instead of
  letting them occupy batch slots.
* **Resilience** (:mod:`repro.serving.resilience`): evaluation runs on
  a dedicated server-owned executor (shut down in :meth:`stop`),
  transient evaluator failures retry with seeded jittered backoff, and
  a circuit breaker fails requests fast while the engine is known-bad.
* **Graceful degradation** (:mod:`repro.serving.degradation`): under
  sustained pressure the server steps down a ladder of shorter
  stream-length rungs — stochastic computing's progressive precision —
  serving everyone at a measured RMSE cost instead of shedding.
* **Observability** (:mod:`repro.serving.metrics`): every admission,
  resilience and degradation event is counted; :meth:`metrics` exports
  an immutable :class:`~repro.serving.metrics.MetricsSnapshot`.

The served session's :class:`~repro.simulation.runtime.RuntimeConfig`
knobs — workers and chunking — flow straight through
:meth:`~repro.session.Evaluator.evaluate`, so a server can be pointed
at row sharding for throughput without any serving-side change, and
serves the same values (a sharded session returns its statistics
result, whose ``values`` are all a server reads).  Every batch runs the
engine's one optical pass, the packed bit-plane kernel.

Determinism contract
--------------------
Coalescing must never change an answer.  The server therefore requires a
**row-independent** session (``Evaluator.row_independent``: pinned seed
space, noiseless receiver) by default — each request's result is then a
pure function of its input, bit-identical whether it was served alone or
inside any micro-batch (the benchmark's exit gate).  Sessions whose
per-row noise seeds depend on batch position can still be served with
``allow_row_dependent=True``; each micro-batch then equals a direct
``evaluate`` call on the coalesced inputs, but per-request values depend
on how requests happened to coalesce.  Degraded rungs keep the same
guarantee at their own length: rung ``r`` serves exactly the bits a
direct ``evaluate`` under ``spec.with_length(ladder.lengths[r])``
would produce.

>>> async def client(server, x):
...     return await server.submit(x)
>>> async def main(evaluator):
...     async with BatchServer(evaluator) as server:
...         return await asyncio.gather(*(client(server, x) for x in xs))
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from types import TracebackType
from typing import Any, Dict, List, Optional, Sequence, Type

import numpy as np

from ..errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
)
from ..session import Evaluator
from .admission import (
    ADMISSION_POLICIES,
    DEFAULT_MAX_QUEUE,
    POLICY_DEGRADE,
    AdmissionQueue,
    Request,
)
from .degradation import (
    DegradationController,
    DegradationLadder,
    measure_rung_rmse,
)
from .metrics import MetricsRecorder, MetricsSnapshot, ServingStats
from .resilience import (
    BREAKER_CLOSED,
    CircuitBreaker,
    Clock,
    MonotonicClock,
    RetryPolicy,
)

__all__ = ["BatchServer"]

#: Smoothing factor for the batch service-time EWMA that feeds both the
#: admission-time deadline feasibility check and the degradation
#: controller's latency signal.
_SERVICE_TIME_ALPHA = 0.2

#: Default degradation ladder derived from the bound spec's length when
#: ``policy="degrade"`` and no explicit ladder is given: full precision,
#: then two 4x steps down — the paper's accuracy-vs-length sweep points.
_DEFAULT_LADDER_STEPS = (1, 4, 16)


class BatchServer:
    """Coalesce concurrent evaluation requests into micro-batched engine calls.

    Parameters
    ----------
    evaluator:
        The bound :class:`~repro.session.Evaluator` session to serve.
        Must be row-independent (see module docstring) unless
        *allow_row_dependent* is set.
    max_batch_size:
        Upper bound on requests coalesced into one engine call.
    max_batch_delay_s:
        How long the batcher waits for stragglers after the first
        request of a batch arrives.  Zero still coalesces everything
        already queued (pure opportunistic batching).
    allow_row_dependent:
        Serve sessions whose per-request results depend on batch
        composition (see the determinism contract above).
    policy:
        Admission policy: ``"block"`` (default; backpressure),
        ``"shed"`` or ``"degrade"``.
    max_queue:
        Bound on queued requests (0 = unbounded, the legacy
        behaviour's memory hazard — kept only as a benchmark baseline).
    default_deadline_s:
        Deadline applied to every ``submit`` that does not pass its
        own; ``None`` serves without deadlines.
    retry:
        Optional :class:`~repro.serving.resilience.RetryPolicy` for
        transient evaluator failures.  ``None`` (default) keeps the
        legacy fail-fast behaviour: the first error reaches callers.
    breaker:
        Optional :class:`~repro.serving.resilience.CircuitBreaker`.
    ladder:
        Optional :class:`~repro.serving.degradation.DegradationLadder`
        of stream-length rungs (rung 0 must equal the bound spec's
        length).  Required semantics for ``policy="degrade"``; a
        default ladder (length, length/4, length/16) is derived when
        omitted there.
    degradation:
        Optional pre-configured
        :class:`~repro.serving.degradation.DegradationController`
        (its ladder is used); lets callers tune watermarks/patience or
        inject a controller for deterministic tests.
    measure_rmse:
        Measure each ladder rung's RMSE on the calibration grid at
        :meth:`start` so degraded responses carry their accuracy
        annotation from the first snapshot (degrade policy only).
    clock:
        Injectable time source; tests pass a
        :class:`~repro.serving.resilience.ManualClock` to make every
        deadline/retry/breaker scenario deterministic.
    executor_workers:
        Threads in the server-owned evaluation executor.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  The evaluation itself runs on the
    server's own thread executor so the event loop stays responsive
    while numpy (or the runtime's process pool) does the heavy lifting.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        max_batch_size: int = 256,
        max_batch_delay_s: float = 0.002,
        allow_row_dependent: bool = False,
        policy: str = "block",
        max_queue: int = DEFAULT_MAX_QUEUE,
        default_deadline_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        ladder: Optional[DegradationLadder] = None,
        degradation: Optional[DegradationController] = None,
        measure_rmse: bool = True,
        clock: Optional[Clock] = None,
        executor_workers: int = 1,
    ) -> None:
        if not isinstance(evaluator, Evaluator):
            raise ConfigurationError(
                f"evaluator must be a repro.session.Evaluator, got "
                f"{evaluator!r}"
            )
        if int(max_batch_size) < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {max_batch_size!r}"
            )
        if float(max_batch_delay_s) < 0.0:
            raise ConfigurationError(
                f"max_batch_delay_s must be >= 0, got {max_batch_delay_s!r}"
            )
        if not evaluator.row_independent and not allow_row_dependent:
            raise ConfigurationError(
                "BatchServer requires a row-independent session (fixed "
                "base_seed or counter randomizer, noisy=False) so that "
                "coalescing never changes a result; pass "
                "allow_row_dependent=True to serve this session anyway"
            )
        if policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"admission policy must be one of {ADMISSION_POLICIES}, "
                f"got {policy!r}"
            )
        if not isinstance(max_queue, int) or isinstance(max_queue, bool):
            raise ConfigurationError(
                f"max_queue must be an integer, got {max_queue!r}"
            )
        if max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0 (0 = unbounded), got {max_queue!r}"
            )
        if default_deadline_s is not None and float(default_deadline_s) <= 0.0:
            raise ConfigurationError(
                f"default_deadline_s must be > 0, got {default_deadline_s!r}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigurationError(
                f"retry must be a RetryPolicy, got {retry!r}"
            )
        if breaker is not None and not isinstance(breaker, CircuitBreaker):
            raise ConfigurationError(
                f"breaker must be a CircuitBreaker, got {breaker!r}"
            )
        if int(executor_workers) < 1:
            raise ConfigurationError(
                f"executor_workers must be >= 1, got {executor_workers!r}"
            )
        if degradation is not None:
            if not isinstance(degradation, DegradationController):
                raise ConfigurationError(
                    "degradation must be a DegradationController, got "
                    f"{degradation!r}"
                )
            if ladder is not None and ladder is not degradation.ladder:
                raise ConfigurationError(
                    "pass either ladder= or degradation= (whose controller "
                    "already owns a ladder), not two different ladders"
                )
            ladder = degradation.ladder
        if ladder is None and policy == POLICY_DEGRADE:
            length = evaluator.spec.length
            lengths = []
            for step in _DEFAULT_LADDER_STEPS:
                rung_length = max(1, length // step)
                if not lengths or rung_length < lengths[-1]:
                    lengths.append(rung_length)
            ladder = DegradationLadder(tuple(lengths))
        if ladder is not None:
            if not isinstance(ladder, DegradationLadder):
                raise ConfigurationError(
                    f"ladder must be a DegradationLadder, got {ladder!r}"
                )
            if ladder.lengths[0] != evaluator.spec.length:
                raise ConfigurationError(
                    "ladder rung 0 must be the bound spec's full length "
                    f"({evaluator.spec.length}), got {ladder.lengths[0]}"
                )
        self._evaluator = evaluator
        self._max_batch_size = int(max_batch_size)
        self._max_batch_delay_s = float(max_batch_delay_s)
        self._policy = policy
        self._max_queue = int(max_queue)
        self._default_deadline_s = (
            None if default_deadline_s is None else float(default_deadline_s)
        )
        self._retry = retry
        self._breaker = breaker
        self._ladder = ladder
        self._measure_rmse = bool(measure_rmse)
        self._clock: Clock = MonotonicClock() if clock is None else clock
        self._executor_workers = int(executor_workers)
        self._queue: Optional[AdmissionQueue] = None
        self._worker: Optional[asyncio.Task[None]] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stopping = False
        self._accepting = False
        self._metrics = MetricsRecorder()
        self._service_time_ewma: Optional[float] = None
        self._controller: Optional[DegradationController] = None
        self._rung_sessions: Dict[int, Evaluator] = {}
        self._rung_rmse: Dict[int, Optional[float]] = {}
        if degradation is not None:
            self._controller = degradation
        elif ladder is not None:
            self._controller = DegradationController(
                ladder, queue_capacity=self._max_queue
            )

    @property
    def evaluator(self) -> Evaluator:
        """The served session."""
        return self._evaluator

    @property
    def stats(self) -> ServingStats:
        """Requests served, engine calls issued, largest micro-batch."""
        return ServingStats(
            requests=self._metrics.served,
            batches=self._metrics.batches,
            largest_batch=self._metrics.largest_batch,
        )

    def metrics(self) -> MetricsSnapshot:
        """Immutable snapshot of every serving counter and distribution."""
        return self._metrics.snapshot(
            breaker_state=(
                self._breaker.state if self._breaker else BREAKER_CLOSED
            ),
            current_rung=self._controller.rung if self._controller else 0,
            rung_rmse=dict(self._rung_rmse),
        )

    @property
    def running(self) -> bool:
        """Whether the batcher task is accepting requests."""
        return (
            self._worker is not None
            and not self._worker.done()
            and self._accepting
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "BatchServer":
        """Start the batcher task on the running event loop."""
        if self._worker is not None and not self._worker.done():
            raise ConfigurationError("server is already running")
        self._queue = AdmissionQueue(
            maxsize=self._max_queue, policy=self._policy
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_workers,
            thread_name_prefix="repro-serving",
        )
        self._stopping = False
        self._accepting = True
        if (
            self._ladder is not None
            and self._measure_rmse
            and not self._rung_rmse
        ):
            loop = asyncio.get_running_loop()
            self._rung_rmse = await loop.run_in_executor(
                self._executor,
                measure_rung_rmse,
                self._evaluator,
                self._ladder.lengths,
            )
        self._worker = asyncio.create_task(self._serve())
        return self

    async def stop(self) -> None:
        """Drain pending requests, then stop the batcher task.

        Shutdown is atomic with respect to ``submit``: the first thing
        this method does is flip the accepting flag, so any submission
        that arrives after ``stop()`` began is rejected with
        :class:`~repro.errors.ConfigurationError` instead of racing the
        shutdown sentinel.  Requests already admitted are drained and
        served; if the batcher cannot serve them (executor died), their
        futures are failed — never left hanging.
        """
        if self._worker is None:
            return
        self._accepting = False
        self._stopping = True
        assert self._queue is not None
        if not self._worker.done():
            await self._queue.put_sentinel()  # wake the batcher
        try:
            await self._worker
        finally:
            # Sweep until the queue stays empty across a scheduler
            # yield: each drained slot may wake a blocked putter whose
            # request lands after our synchronous drain, and that
            # request's future must be failed, never orphaned.
            while True:
                self._fail_leftovers(
                    ConfigurationError(
                        "server stopped before this request could be served"
                    )
                )
                await asyncio.sleep(0)
                if self._queue.empty():
                    break
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            self._worker = None
            self._queue = None

    async def __aenter__(self) -> "BatchServer":
        return await self.start()

    async def __aexit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        await self.stop()

    def _fail_leftovers(self, error: Exception) -> None:
        """Fail any requests still queued after the batcher exited."""
        if self._queue is None:
            return
        while True:
            try:
                request = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if request is None:
                continue
            if not request.future.done():
                self._metrics.failed += 1
                request.future.set_exception(error)

    # -- client API ------------------------------------------------------------

    async def submit(
        self, x: float, deadline_s: Optional[float] = None
    ) -> float:
        """Submit one input; resolves to its de-randomized output.

        Validation is per-request and eager, so a malformed input fails
        its own caller instead of poisoning the micro-batch it would
        have joined.  *deadline_s* (falling back to the server's
        ``default_deadline_s``) is the caller's latency budget from
        this moment; a request that misses it fails with
        :class:`~repro.errors.DeadlineExceededError`, and one that
        provably cannot meet it (budget below the measured batch
        service time) is refused at admission.
        """
        if not self.running:
            if self._worker is not None and self._stopping:
                raise ConfigurationError(
                    "server is stopping; new submissions are rejected"
                )
            raise ConfigurationError(
                "server is not running; use 'async with BatchServer(...)' "
                "or await server.start() first"
            )
        try:
            x = float(x)
        except (TypeError, ValueError):
            raise ConfigurationError(f"x must be a number in [0, 1], got {x!r}")
        if not 0.0 <= x <= 1.0:
            raise ConfigurationError(f"x must be in [0, 1], got {x!r}")
        if deadline_s is not None and float(deadline_s) <= 0.0:
            raise ConfigurationError(
                f"deadline_s must be > 0, got {deadline_s!r}"
            )
        budget = deadline_s if deadline_s is not None else self._default_deadline_s
        now = self._clock.time()
        future: "asyncio.Future[float]" = (
            asyncio.get_running_loop().create_future()
        )
        request = Request(
            x=x,
            future=future,
            deadline=None if budget is None else now + float(budget),
            submitted_at=now,
        )
        self._metrics.submitted += 1
        assert self._queue is not None
        try:
            await self._queue.admit(
                request, now, self._service_time_ewma or 0.0
            )
        except OverloadedError:
            self._metrics.shed += 1
            raise
        except DeadlineExceededError:
            self._metrics.expired += 1
            raise
        self._metrics.admitted += 1
        self._metrics.record_queue_depth(self._queue.depth())
        return await future

    async def submit_many(self, xs: Sequence[float]) -> List[float]:
        """Submit many inputs concurrently; resolves in input order."""
        return list(await asyncio.gather(*(self.submit(x) for x in xs)))

    # -- batcher ---------------------------------------------------------------

    async def _serve(self) -> None:
        queue = self._queue
        assert queue is not None
        while True:
            request = await queue.get()
            if request is None:
                if queue.empty():
                    return
                continue  # shutdown sentinel raced ahead of late requests
            batch = await self._collect(request)
            batch = self._admit_to_batch(batch)
            if batch:
                await self._evaluate_batch(batch)
            if self._stopping and queue.empty():
                return

    async def _collect(self, first: Request) -> List[Request]:
        """Coalesce requests behind *first* until size or deadline."""
        loop = asyncio.get_running_loop()
        queue = self._queue
        assert queue is not None
        batch = [first]
        deadline = loop.time() + self._max_batch_delay_s
        while len(batch) < self._max_batch_size:
            remaining = deadline - loop.time()
            if remaining <= 0 or self._stopping:
                # Deadline passed: take only what is already queued.
                try:
                    request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                try:
                    request = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if request is None:
                # Shutdown sentinel: finish this batch, then let the
                # serve loop drain whatever raced in behind it.
                self._stopping = True
                break
            batch.append(request)
        return batch

    def _admit_to_batch(self, batch: List[Request]) -> List[Request]:
        """Deadline and liveness gate at batch formation.

        Cancelled submissions (client gave up, e.g. an
        ``asyncio.wait_for`` timeout) are dropped here so a dead future
        never reaches ``set_result``; requests whose deadline has
        passed — or whose remaining budget is below the measured batch
        service time — are failed with
        :class:`~repro.errors.DeadlineExceededError` instead of
        occupying a batch slot whose result nobody will read.
        """
        now = self._clock.time()
        estimate = self._service_time_ewma or 0.0
        admitted: List[Request] = []
        for request in batch:
            if request.future.done():
                self._metrics.cancelled += 1
                continue
            if request.expired(now):
                self._metrics.expired += 1
                request.future.set_exception(
                    DeadlineExceededError(
                        "deadline expired "
                        f"{now - (request.deadline or now):.6f}s before the "
                        "request reached a batch"
                    )
                )
                continue
            if request.remaining(now) < estimate:
                self._metrics.expired += 1
                request.future.set_exception(
                    DeadlineExceededError(
                        f"remaining budget {request.remaining(now):.6f}s is "
                        "below the measured batch service time "
                        f"{estimate:.6f}s"
                    )
                )
                continue
            admitted.append(request)
        return admitted

    def _session_for_rung(self, rung: int) -> Evaluator:
        if rung == 0 or self._ladder is None:
            return self._evaluator
        session = self._rung_sessions.get(rung)
        if session is None:
            session = self._evaluator.with_options(
                length=self._ladder.lengths[rung]
            )
            self._rung_sessions[rung] = session
        return session

    async def _evaluate_batch(self, batch: List[Request]) -> None:
        loop = asyncio.get_running_loop()
        started = self._clock.time()
        if self._breaker is not None and not self._breaker.allow(started):
            self._metrics.breaker_rejected += len(batch)
            error = CircuitOpenError(
                "circuit breaker is open: the evaluator failed "
                f"{self._breaker.failure_threshold} consecutive batches; "
                f"retrying after {self._breaker.recovery_time_s}s"
            )
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)
            return
        rung = self._controller.rung if self._controller is not None else 0
        session = self._session_for_rung(rung)
        xs = np.asarray([request.x for request in batch], dtype=float)
        delays = self._retry.delays() if self._retry is not None else ()
        values: Optional["np.ndarray[Any, Any]"] = None
        for attempt in range(len(delays) + 1):
            try:
                engine_call = loop.run_in_executor(
                    self._executor, session.evaluate, xs
                )
            except RuntimeError:
                # The executor is gone (died or shut down under us):
                # nothing can serve these futures — fail, never hang.
                self._fail_batch(
                    batch,
                    ConfigurationError(
                        "server executor is shut down; request cannot be "
                        "served"
                    ),
                )
                return
            try:
                result = await engine_call
                values = np.asarray(result.values, dtype=float)
                break
            except Exception as error:  # deliver the failure to every caller
                transient = RetryPolicy.is_transient(error)
                if transient and attempt < len(delays):
                    self._metrics.retried += 1
                    await self._clock.sleep(delays[attempt])
                    continue
                if self._breaker is not None:
                    self._breaker.record_failure(self._clock.time())
                    self._metrics.breaker_opened = self._breaker.times_opened
                self._fail_batch(batch, error)
                return
        assert values is not None
        finished = self._clock.time()
        service_time = finished - started
        if self._service_time_ewma is None:
            self._service_time_ewma = service_time
        else:
            self._service_time_ewma += _SERVICE_TIME_ALPHA * (
                service_time - self._service_time_ewma
            )
        if self._breaker is not None:
            self._breaker.record_success(finished)
        latencies = [finished - request.submitted_at for request in batch]
        self._metrics.record_batch(
            rung=rung,
            length=session.spec.length,
            size=len(batch),
            latencies=latencies,
        )
        if self._controller is not None and self._queue is not None:
            self._controller.observe(self._queue.depth(), service_time)
        for request, value in zip(batch, values):
            if not request.future.done():
                request.future.set_result(float(value))
            else:
                self._metrics.cancelled += 1

    def _fail_batch(self, batch: List[Request], error: Exception) -> None:
        for request in batch:
            if not request.future.done():
                self._metrics.failed += 1
                request.future.set_exception(error)
            else:
                self._metrics.cancelled += 1
