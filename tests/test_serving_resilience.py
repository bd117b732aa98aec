"""Deterministic tests for the serving tier's failure paths.

Every scenario here — retry backoff, circuit-breaker transitions,
deadline expiry, degradation-rung accounting — runs under a
:class:`~repro.serving.ManualClock` and the seeded retry jitter, so the
assertions are *exact*: counter values, clock positions and served bits
are all pure functions of the test script.  No ``time.sleep``, no
wall-clock tolerance bands (see CONTRIBUTING, "Testing resilience code
with a seeded clock").
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.params import paper_section5a_parameters
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ServingError,
)
from repro.serving import (
    BatchServer,
    CircuitBreaker,
    DegradationController,
    DegradationLadder,
    HistogramSnapshot,
    ManualClock,
    RetryPolicy,
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
    def test_advance_and_sleep_move_time_deterministically(self):
        clock = ManualClock()
        assert clock.time() == 0.0
        clock.advance(1.5)
        assert clock.time() == 1.5

        async def scenario():
            await clock.sleep(0.25)
            return clock.time()

        assert asyncio.run(scenario()) == 1.75

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigurationError):
            ManualClock().advance(-1.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)

    def test_delays_are_seeded_and_stable(self):
        policy = RetryPolicy(
            attempts=4, base_delay_s=0.01, multiplier=2.0, jitter=0.25
        )
        first = policy.delays()
        assert first == policy.delays()  # same seed, same schedule
        assert len(first) == 3
        for index, delay in enumerate(first):
            base = 0.01 * 2.0**index
            assert base * 0.75 <= delay <= base * 1.25
        # A different seed gives a different (but equally stable) jitter.
        other = RetryPolicy(
            attempts=4, base_delay_s=0.01, multiplier=2.0, jitter=0.25,
            jitter_seed=1,
        ).delays()
        assert other != first

    def test_no_backoff_for_single_attempt(self):
        assert RetryPolicy(attempts=1).delays() == ()

    def test_transience_classification(self):
        assert RetryPolicy.is_transient(RuntimeError("glitch"))
        assert not RetryPolicy.is_transient(ConfigurationError("caller bug"))
        assert not RetryPolicy.is_transient(KeyboardInterrupt())


class TestCircuitBreakerUnit:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_time_s=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)  # resets the streak
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state == "closed"
        breaker.record_failure(0.5)
        assert breaker.state == "open"
        assert breaker.times_opened == 1

    def test_half_open_probe_cycle(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=2.0)
        breaker.record_failure(0.0)
        assert breaker.state == "open"
        assert not breaker.allow(1.9)  # still inside the recovery window
        assert breaker.allow(2.0)  # the probe
        assert breaker.state == "half_open"
        breaker.record_success(2.1)
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_time_s=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.allow(1.5)
        breaker.record_failure(1.6)  # the probe fails: reopen immediately
        assert breaker.state == "open"
        assert breaker.times_opened == 2
        assert not breaker.allow(2.5)
        assert breaker.allow(2.6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(recovery_time_s=0.0)


class TestRetryServing:
    def test_retry_then_succeed_is_exact(self, evaluator):
        session, calls = flaky_evaluator(evaluator, failures=2)
        policy = RetryPolicy(attempts=3, base_delay_s=0.01)
        clock = ManualClock()

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0, retry=policy, clock=clock
            ) as server:
                value = await server.submit(0.5)
                return value, server.metrics(), clock.time()

        value, metrics, elapsed = asyncio.run(scenario())
        assert value == pytest.approx(
            float(evaluator.evaluate([0.5]).values[0])
        )
        assert calls["total"] == 3
        assert metrics.retried == 2
        assert metrics.failed == 0
        assert metrics.served == 1
        # The clock advanced by exactly the seeded backoff schedule.
        assert elapsed == pytest.approx(sum(policy.delays()[:2]))

    def test_retry_exhaustion_fails_the_batch(self, evaluator):
        session, calls = flaky_evaluator(evaluator, failures=10)
        policy = RetryPolicy(attempts=2, base_delay_s=0.01)

        async def scenario():
            async with BatchServer(
                session,
                max_batch_delay_s=0.0,
                retry=policy,
                clock=ManualClock(),
            ) as server:
                with pytest.raises(RuntimeError, match="glitch"):
                    await server.submit(0.5)
                return server.metrics()

        metrics = asyncio.run(scenario())
        assert calls["total"] == 2
        assert metrics.retried == 1
        assert metrics.failed == 1
        assert metrics.served == 0

    def test_configuration_errors_are_not_retried(self, evaluator):
        session, calls = flaky_evaluator(
            evaluator, failures=10, error=ConfigurationError("caller bug")
        )

        async def scenario():
            async with BatchServer(
                session,
                max_batch_delay_s=0.0,
                retry=RetryPolicy(attempts=5),
                clock=ManualClock(),
            ) as server:
                with pytest.raises(ConfigurationError, match="caller bug"):
                    await server.submit(0.5)
                return server.metrics()

        metrics = asyncio.run(scenario())
        assert calls["total"] == 1  # no retry for non-transient failures
        assert metrics.retried == 0
        assert metrics.failed == 1


class TestBreakerServing:
    def test_trip_fast_fail_probe_and_recovery(self, evaluator):
        session, calls = flaky_evaluator(evaluator, failures=2)
        breaker = CircuitBreaker(failure_threshold=2, recovery_time_s=1.0)
        clock = ManualClock()

        async def scenario():
            async with BatchServer(
                session,
                max_batch_delay_s=0.0,
                breaker=breaker,
                clock=clock,
            ) as server:
                # Two consecutive batch failures trip the breaker.
                for _ in range(2):
                    with pytest.raises(RuntimeError):
                        await server.submit(0.5)
                assert server.metrics().breaker_state == "open"
                # While open, requests fail fast: no engine call burned.
                with pytest.raises(CircuitOpenError):
                    await server.submit(0.5)
                engine_calls_while_open = calls["total"]
                # After the recovery window the probe goes through; the
                # engine is healthy again, so the breaker closes.
                clock.advance(1.0)
                value = await server.submit(0.5)
                return (
                    value,
                    engine_calls_while_open,
                    server.metrics(),
                )

        value, engine_calls_while_open, metrics = asyncio.run(scenario())
        assert value == pytest.approx(
            float(evaluator.evaluate([0.5]).values[0])
        )
        assert engine_calls_while_open == 2
        assert calls["total"] == 3
        assert metrics.breaker_state == "closed"
        assert metrics.breaker_rejected == 1
        assert metrics.breaker_opened == 1
        assert metrics.failed == 2
        assert metrics.served == 1

    def test_failed_probe_reopens_the_breaker(self, evaluator):
        session, calls = flaky_evaluator(evaluator, failures=10)
        breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=1.0)
        clock = ManualClock()

        async def scenario():
            async with BatchServer(
                session,
                max_batch_delay_s=0.0,
                breaker=breaker,
                clock=clock,
            ) as server:
                with pytest.raises(RuntimeError):
                    await server.submit(0.5)
                clock.advance(1.0)
                with pytest.raises(RuntimeError):  # the probe itself fails
                    await server.submit(0.5)
                return server.metrics()

        metrics = asyncio.run(scenario())
        assert metrics.breaker_state == "open"
        assert metrics.breaker_opened == 2
        assert calls["total"] == 2

    def test_circuit_open_error_is_a_typed_overload(self):
        # Clients backing off on OverloadedError also back off on an
        # open breaker — and both are ServingErrors.
        assert issubclass(CircuitOpenError, OverloadedError)
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
