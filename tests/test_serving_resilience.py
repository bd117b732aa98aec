"""Deterministic tests for the serving tier's failure paths.

Every scenario here — a failed batch, deadline expiry,
degradation-rung accounting — runs under a
:class:`~repro.serving.ManualClock` with scripted or gated evaluators,
so the assertions are *exact*: counter values, clock positions and
served bits are all pure functions of the test script.  No
``time.sleep``, no wall-clock tolerance bands (see CONTRIBUTING,
"Testing resilience code with a seeded clock").
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.params import paper_section5a_parameters
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ServingError,
    SimulationError,
)
from repro.serving import (
    BatchServer,
    Clock,
    DegradationController,
    DegradationLadder,
    HistogramSnapshot,
    ManualClock,
    MonotonicClock,
    measure_rung_rmse,
)
from repro.session import EvalSpec, Evaluator
from repro.stochastic.bernstein import BernsteinPolynomial


@pytest.fixture(scope="module")
def circuit():
    return OpticalStochasticCircuit(
        paper_section5a_parameters(),
        BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


@pytest.fixture(scope="module")
def evaluator(circuit):
    return Evaluator(circuit, EvalSpec(length=256, noisy=False, base_seed=7))


def flaky_evaluator(evaluator, failures, error=None):
    """A derived session whose first *failures* evaluations raise."""
    session = Evaluator(evaluator.circuit, evaluator.spec, evaluator.runtime)
    real_evaluate = session.evaluate
    calls = {"total": 0}

    def evaluate(xs):
        calls["total"] += 1
        if calls["total"] <= failures:
            raise error or RuntimeError("transient engine glitch")
        return real_evaluate(xs)

    session.evaluate = evaluate
    return session, calls


def gated_evaluator(evaluator):
    """A derived session whose ``evaluate`` blocks until released."""
    session = Evaluator(evaluator.circuit, evaluator.spec, evaluator.runtime)
    entered = threading.Event()
    release = threading.Event()
    real_evaluate = session.evaluate

    def gated(xs):
        entered.set()
        if not release.wait(timeout=10.0):
            raise RuntimeError("test gate was never released")
        return real_evaluate(xs)

    session.evaluate = gated
    return session, entered, release


class TestManualClock:
    def test_advance_moves_time_deterministically(self):
        clock = ManualClock()
        assert clock.time() == 0.0
        clock.advance(1.5)
        assert clock.time() == 1.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigurationError):
            ManualClock().advance(-1.0)

    def test_starts_at_the_given_time(self):
        assert ManualClock(start=2.5).time() == 2.5

    def test_advances_accumulate_and_zero_is_a_no_op(self):
        clock = ManualClock()
        clock.advance(0.25)
        clock.advance(0.0)
        clock.advance(0.5)
        assert clock.time() == 0.75

    def test_rejected_advance_leaves_time_unchanged(self):
        clock = ManualClock(start=1.0)
        with pytest.raises(ConfigurationError):
            clock.advance(-0.5)
        assert clock.time() == 1.0

    def test_time_moves_only_when_advanced(self):
        clock = ManualClock(start=3.0)
        assert [clock.time() for _ in range(3)] == [3.0, 3.0, 3.0]


class TestMonotonicClock:
    def test_time_never_goes_backwards(self):
        clock = MonotonicClock()
        readings = [clock.time() for _ in range(100)]
        assert readings == sorted(readings)

    def test_base_clock_has_no_time_source(self):
        with pytest.raises(NotImplementedError):
            Clock().time()

    def test_server_defaults_to_the_monotonic_clock(self, evaluator):
        assert isinstance(BatchServer(evaluator)._clock, MonotonicClock)
        clock = ManualClock()
        assert BatchServer(evaluator, clock=clock)._clock is clock


def failing_then_gated_evaluator(evaluator):
    """A derived session whose first call fails, every call gated."""
    session, calls = flaky_evaluator(evaluator, failures=1)
    entered = threading.Event()
    release = threading.Event()
    flaky_evaluate = session.evaluate

    def gated(xs):
        entered.set()
        if not release.wait(timeout=10.0):
            raise RuntimeError("test gate was never released")
        return flaky_evaluate(xs)

    session.evaluate = gated
    return session, calls, entered, release


class TestFailedBatch:
    @pytest.mark.parametrize(
        "error",
        [
            RuntimeError("engine glitch"),
            SimulationError("inconsistent state"),
            ConfigurationError("caller bug"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_engine_error_reaches_the_caller_after_one_call(
        self, evaluator, error
    ):
        # The engine is deterministic, so no error type earns a second
        # call: the caller gets the engine's own exception object.
        session, calls = flaky_evaluator(evaluator, failures=1, error=error)

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=ManualClock()
            ) as server:
                with pytest.raises(type(error)) as raised:
                    await server.submit(0.5)
                return raised.value, server.metrics()

        raised, metrics = asyncio.run(scenario())
        assert raised is error
        assert calls["total"] == 1
        assert metrics.failed == 1
        assert metrics.served == 0

    def test_callers_in_one_batch_share_the_error_object(self, evaluator):
        session, _ = flaky_evaluator(evaluator, failures=1)

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=ManualClock()
            ) as server:
                return await asyncio.gather(
                    *(server.submit(x) for x in (0.1, 0.3, 0.5, 0.7)),
                    return_exceptions=True,
                )

        outcomes = asyncio.run(scenario())
        assert isinstance(outcomes[0], RuntimeError)
        assert all(outcome is outcomes[0] for outcome in outcomes)

    def test_consecutive_failed_batches_each_fail_once(self, evaluator):
        session, calls = flaky_evaluator(evaluator, failures=2)

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=ManualClock()
            ) as server:
                for _ in range(2):
                    with pytest.raises(RuntimeError, match="glitch"):
                        await server.submit(0.5)
                value = await server.submit(0.5)
                return value, server.metrics()

        value, metrics = asyncio.run(scenario())
        assert value == float(evaluator.evaluate([0.5]).values[0])
        assert calls["total"] == 3
        assert metrics.failed == 2
        assert metrics.served == 1
        assert metrics.batches == 1

    def test_failed_batch_records_no_served_batch(self, evaluator):
        session, _ = flaky_evaluator(evaluator, failures=1)

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=ManualClock()
            ) as server:
                with pytest.raises(RuntimeError):
                    await server.submit(0.5)
                return server.metrics()

        metrics = asyncio.run(scenario())
        assert metrics.submitted == 1
        assert metrics.admitted == 1
        assert metrics.served_fraction == 0.0
        assert metrics.largest_batch == 0
        assert metrics.batch_size.total == 0
        assert metrics.queue_depth.total == 1
        assert metrics.rungs == ()

    def test_backlog_behind_a_failed_batch_is_served(self, evaluator):
        # The in-flight batch fails while three requests queue behind
        # it; they form the next batch and get their direct values.
        session, calls, entered, release = failing_then_gated_evaluator(
            evaluator
        )
        xs_queued = (0.2, 0.4, 0.6)

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=ManualClock()
            ) as server:
                inflight = asyncio.create_task(server.submit(0.1))
                await asyncio.to_thread(entered.wait, 10.0)
                queued = [
                    asyncio.create_task(server.submit(x)) for x in xs_queued
                ]
                await asyncio.sleep(0)
                release.set()
                with pytest.raises(RuntimeError, match="glitch"):
                    await inflight
                values = [await task for task in queued]
                return values, server.metrics()

        values, metrics = asyncio.run(scenario())
        direct = np.asarray(
            evaluator.evaluate(list(xs_queued)).values, dtype=float
        )
        assert np.array_equal(np.asarray(values, dtype=float), direct)
        assert calls["total"] == 2
        assert metrics.failed == 1
        assert metrics.served == 3
        assert metrics.largest_batch == 3

    def test_cancelled_caller_in_a_failed_batch_counts_as_cancelled(
        self, evaluator
    ):
        session, _, entered, release = failing_then_gated_evaluator(
            evaluator
        )

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=ManualClock()
            ) as server:
                gone = asyncio.create_task(server.submit(0.2))
                waiting = asyncio.create_task(server.submit(0.4))
                await asyncio.to_thread(entered.wait, 10.0)
                gone.cancel()
                await asyncio.sleep(0)
                release.set()
                with pytest.raises(RuntimeError, match="glitch"):
                    await waiting
                with pytest.raises(asyncio.CancelledError):
                    await gone
                return server.metrics()

        metrics = asyncio.run(scenario())
        assert metrics.failed == 1
        assert metrics.cancelled == 1
        assert metrics.served == 0

    def test_failed_batch_does_not_set_the_service_time_estimate(
        self, evaluator
    ):
        # A failure that burns 1 s of clock feeds no estimate, so a
        # 0.1 s budget is still admitted and served afterwards.
        clock = ManualClock()
        session = Evaluator(
            evaluator.circuit, evaluator.spec, evaluator.runtime
        )
        real_evaluate = session.evaluate
        calls = {"total": 0}

        def slow_then_fail(xs):
            calls["total"] += 1
            if calls["total"] == 1:
                clock.advance(1.0)
                raise RuntimeError("slow engine glitch")
            return real_evaluate(xs)

        session.evaluate = slow_then_fail

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=clock
            ) as server:
                with pytest.raises(RuntimeError, match="glitch"):
                    await server.submit(0.5)
                value = await server.submit(0.5, deadline_s=0.1)
                return value, server.metrics()

        value, metrics = asyncio.run(scenario())
        assert value == float(evaluator.evaluate([0.5]).values[0])
        assert metrics.expired == 0
        assert metrics.failed == 1
        assert metrics.served == 1

    def test_batches_run_one_at_a_time_on_one_server_thread(
        self, evaluator
    ):
        session = Evaluator(
            evaluator.circuit, evaluator.spec, evaluator.runtime
        )
        real_evaluate = session.evaluate
        lock = threading.Lock()
        seen = {"active": 0, "peak": 0, "threads": set()}

        def tracked(xs):
            with lock:
                seen["active"] += 1
                seen["peak"] = max(seen["peak"], seen["active"])
                seen["threads"].add(threading.current_thread().name)
            try:
                return real_evaluate(xs)
            finally:
                with lock:
                    seen["active"] -= 1

        session.evaluate = tracked
        xs = [index / 15 for index in range(16)]

        async def scenario():
            async with BatchServer(
                session,
                max_batch_size=4,
                max_batch_delay_s=0.0,
                clock=ManualClock(),
            ) as server:
                values = await server.submit_many(xs)
                return values, server.metrics()

        values, metrics = asyncio.run(scenario())
        direct = np.asarray(evaluator.evaluate(xs).values, dtype=float)
        assert np.array_equal(np.asarray(values, dtype=float), direct)
        assert metrics.batches >= 4
        assert seen["peak"] == 1
        assert len(seen["threads"]) == 1
        assert next(iter(seen["threads"])).startswith("repro-serving")


    def test_failure_reaches_every_caller_and_server_recovers(
        self, evaluator
    ):
        # Three requests queue up before the batcher first runs, so they
        # share one engine call, which fails.  The server then serves
        # the next request as if nothing had happened.
        session, calls = flaky_evaluator(evaluator, failures=1)
        xs_failing = (0.2, 0.4, 0.6)

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=ManualClock()
            ) as server:
                outcomes = await asyncio.gather(
                    *(server.submit(x) for x in xs_failing),
                    return_exceptions=True,
                )
                failed = server.metrics()
                value = await server.submit(0.5)
                return outcomes, failed, value, server.metrics()

        outcomes, failed, value, metrics = asyncio.run(scenario())
        assert len(outcomes) == len(xs_failing)
        for outcome in outcomes:
            assert isinstance(outcome, RuntimeError)
            assert "transient engine glitch" in str(outcome)
        assert failed.failed == len(xs_failing)
        assert failed.served == 0
        assert failed.batches == 0
        assert value == float(evaluator.evaluate([0.5]).values[0])
        assert metrics.failed == len(xs_failing)
        assert metrics.served == 1
        assert calls["total"] == 2  # one shared failing call, one served

    def test_refusals_share_the_serving_error_base(self):
        assert issubclass(OverloadedError, ServingError)
        assert issubclass(DeadlineExceededError, ServingError)


class TestDeadlines:
    def test_unmeetable_deadline_refused_at_admission(self, evaluator):
        # The evaluator "takes" 0.5 clock seconds per batch; once that
        # is measured, a 0.1 s budget is refused at the door.
        clock = ManualClock()
        session = Evaluator(
            evaluator.circuit, evaluator.spec, evaluator.runtime
        )
        real_evaluate = session.evaluate

        def slow(xs):
            clock.advance(0.5)
            return real_evaluate(xs)

        session.evaluate = slow

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=clock
            ) as server:
                await server.submit(0.5)  # establishes the 0.5 s EWMA
                with pytest.raises(
                    DeadlineExceededError, match="batch service time"
                ):
                    await server.submit(0.5, deadline_s=0.1)
                value = await server.submit(0.5, deadline_s=10.0)
                return value, server.metrics()

        value, metrics = asyncio.run(scenario())
        assert value == pytest.approx(
            float(evaluator.evaluate([0.5]).values[0])
        )
        assert metrics.expired == 1
        assert metrics.served == 2
        assert metrics.admitted == 2

    def test_expired_request_fails_at_batch_formation(self, evaluator):
        session, entered, release = gated_evaluator(evaluator)
        clock = ManualClock()

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, clock=clock
            ) as server:
                inflight = asyncio.create_task(server.submit(0.2))
                await asyncio.to_thread(entered.wait, 10.0)
                # Queued behind the busy engine with a 0.2 s budget ...
                queued = asyncio.create_task(
                    server.submit(0.7, deadline_s=0.2)
                )
                await asyncio.sleep(0)
                # ... which the stalled batch burns entirely.
                clock.advance(0.5)
                release.set()
                await inflight
                with pytest.raises(DeadlineExceededError, match="expired"):
                    await queued
                return server.metrics()

        metrics = asyncio.run(scenario())
        assert metrics.expired == 1
        assert metrics.served == 1
        assert metrics.cancelled == 0

    def test_default_deadline_applies_to_every_submit(self, evaluator):
        clock = ManualClock()
        session = Evaluator(
            evaluator.circuit, evaluator.spec, evaluator.runtime
        )
        real_evaluate = session.evaluate

        def slow(xs):
            clock.advance(1.0)
            return real_evaluate(xs)

        session.evaluate = slow

        async def scenario():
            async with BatchServer(
                session,
                max_batch_delay_s=0.0,
                default_deadline_s=0.5,
                clock=clock,
            ) as server:
                await server.submit(0.5)  # EWMA becomes 1.0 > 0.5 default
                with pytest.raises(DeadlineExceededError):
                    await server.submit(0.5)
                return server.metrics()

        metrics = asyncio.run(scenario())
        assert metrics.expired == 1

    def test_invalid_deadline_rejected(self, evaluator):
        async def scenario():
            async with BatchServer(evaluator) as server:
                # NaN would pass a "<= 0" check and serve with no deadline.
                for deadline_s in (0.0, float("nan"), float("inf"), "1s"):
                    with pytest.raises(ConfigurationError, match="deadline_s"):
                        await server.submit(0.5, deadline_s=deadline_s)

        asyncio.run(scenario())


class TestDegradation:
    def test_ladder_validation(self):
        with pytest.raises(ConfigurationError):
            DegradationLadder(())
        with pytest.raises(ConfigurationError):
            DegradationLadder((256, 256))
        with pytest.raises(ConfigurationError):
            DegradationLadder((256, 512))
        with pytest.raises(ConfigurationError):
            DegradationLadder((256, 0))
        assert len(DegradationLadder((256, 64, 16))) == 3

    def test_controller_steps_down_and_recovers_hysteretically(self):
        controller = DegradationController(
            DegradationLadder((256, 64, 16)),
            queue_capacity=8,
            high_watermark=0.5,
            low_watermark=0.25,
            patience=2,
            recovery_patience=3,
        )
        assert controller.rung == 0
        # One overloaded observation is not enough (patience=2) ...
        assert controller.observe(8, 0.01) == 0
        assert controller.observe(8, 0.01) == 1  # ... two are
        assert controller.length == 64
        assert controller.observe(8, 0.01) == 1
        assert controller.observe(8, 0.01) == 2
        assert controller.observe(8, 0.01) == 2  # bottom rung: stays
        # Recovery needs recovery_patience consecutive calm steps.
        assert controller.observe(0, 0.01) == 2
        assert controller.observe(0, 0.01) == 2
        assert controller.observe(0, 0.01) == 1
        # The dead band (between watermarks) resets both streaks.
        assert controller.observe(0, 0.01) == 1
        assert controller.observe(3, 0.01) == 1  # mid-band: streak reset
        assert controller.observe(0, 0.01) == 1
        assert controller.observe(0, 0.01) == 1
        assert controller.observe(0, 0.01) == 0

    def test_latency_budget_alone_can_trigger_degradation(self):
        controller = DegradationController(
            DegradationLadder((256, 64)),
            queue_capacity=8,
            patience=2,
            latency_budget_s=0.1,
            ewma_alpha=1.0,
        )
        assert controller.observe(0, 0.5) == 0  # queue empty, but slow
        assert controller.observe(0, 0.5) == 1

    def test_degraded_rungs_serve_exact_shortened_bits(self, evaluator):
        session, entered, release = gated_evaluator(evaluator)
        ladder = DegradationLadder((256, 64))
        controller = DegradationController(
            ladder,
            queue_capacity=4,
            high_watermark=0.5,
            low_watermark=0.25,
            patience=1,
            recovery_patience=10_000,
        )
        xs_queued = (0.2, 0.4, 0.6)

        async def scenario():
            async with BatchServer(
                session,
                max_batch_delay_s=0.0,
                policy="degrade",
                max_queue=4,
                degradation=controller,
                clock=ManualClock(),
            ) as server:
                inflight = asyncio.create_task(server.submit(0.1))
                await asyncio.to_thread(entered.wait, 10.0)
                queued = [
                    asyncio.create_task(server.submit(x)) for x in xs_queued
                ]
                await asyncio.sleep(0)
                release.set()
                first = await inflight
                values = [await task for task in queued]
                return first, values, server.metrics()

        first, values, metrics = asyncio.run(scenario())
        # The first batch went out at full precision ...
        assert first == pytest.approx(
            float(evaluator.evaluate([0.1]).values[0])
        )
        # ... the backlog was served one rung down, bit-identical to a
        # direct evaluation at the rung's length (progressive precision
        # keeps the determinism contract, just at a shorter stream).
        degraded_direct = np.asarray(
            evaluator.with_options(length=64).evaluate(list(xs_queued)).values,
            dtype=float,
        )
        assert np.array_equal(np.asarray(values, dtype=float), degraded_direct)
        assert metrics.current_rung == 1
        assert metrics.queue_depth.max_observed_bound <= 4
        assert metrics.degraded_served == 3
        assert metrics.served == 4
        rungs = {rung.rung: rung for rung in metrics.rungs}
        assert rungs[0].length == 256 and rungs[0].served == 1
        assert rungs[1].length == 64 and rungs[1].served == 3
        # Every rung carries its measured accuracy annotation.
        assert rungs[0].rmse is not None and rungs[0].rmse >= 0.0
        assert rungs[1].rmse is not None and rungs[1].rmse > 0.0

    def test_measured_rmse_grows_as_streams_shorten(self, evaluator):
        rmse = measure_rung_rmse(evaluator, (256, 16))
        assert set(rmse) == {0, 1}
        # Progressive precision: a 16-bit stream is strictly less
        # accurate than a 256-bit one on the calibration grid.
        assert rmse[1] > rmse[0] >= 0.0

    def test_degrade_policy_derives_a_default_ladder(self, evaluator):
        server = BatchServer(evaluator, policy="degrade", max_queue=8)
        assert server._ladder is not None
        assert server._ladder.lengths[0] == 256
        assert len(server._ladder.lengths) == 3

    def test_mismatched_ladder_rejected(self, evaluator):
        with pytest.raises(ConfigurationError, match="rung 0"):
            BatchServer(evaluator, ladder=DegradationLadder((512, 64)))


class TestHistogramSnapshot:
    def test_totals_and_max_observed_bound(self):
        snapshot = HistogramSnapshot(
            bounds=(0, 1, 2, 4), counts=(1, 2, 0, 3, 0)
        )
        assert snapshot.total == 6
        assert snapshot.max_observed_bound == 4

    def test_overflow_bucket_reports_unbounded(self):
        snapshot = HistogramSnapshot(bounds=(0, 1), counts=(0, 0, 5))
        assert snapshot.max_observed_bound is None

    def test_empty_histogram(self):
        snapshot = HistogramSnapshot(bounds=(0, 1), counts=(0, 0, 0))
        assert snapshot.total == 0
        assert snapshot.max_observed_bound is None
