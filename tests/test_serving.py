"""Tests for the async micro-batching service facade (``repro.serving``)."""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.params import paper_section5a_parameters
from repro.errors import ConfigurationError, OverloadedError
from repro.serving import BatchServer, ServingStats
from repro.session import EvalSpec, Evaluator
from repro.stochastic.bernstein import BernsteinPolynomial


def gated_evaluator(evaluator):
    """A derived session whose ``evaluate`` blocks until released.

    Returns ``(session, entered, release)``: ``entered`` is set when an
    evaluation reaches the engine (await it with ``asyncio.to_thread``),
    ``release`` lets it proceed.  This pins the batcher mid-flight so
    tests can script what happens to requests queued behind a busy
    engine — no timing guesses.
    """
    session = Evaluator(evaluator.circuit, evaluator.spec, evaluator.runtime)
    entered = threading.Event()
    release = threading.Event()
    real_evaluate = session.evaluate

    def gated(xs):
        entered.set()
        if not release.wait(timeout=10.0):
            raise RuntimeError("test gate was never released")
        entered.clear()
        return real_evaluate(xs)

    session.evaluate = gated
    return session, entered, release


@pytest.fixture(scope="module")
def circuit():
    return OpticalStochasticCircuit(
        paper_section5a_parameters(),
        BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


@pytest.fixture(scope="module")
def evaluator(circuit):
    # Row-independent session: pinned seed space, noiseless receiver —
    # each request's result is a pure function of its input.
    return Evaluator(circuit, EvalSpec(length=256, noisy=False, base_seed=7))


class TestConstruction:
    def test_rejects_non_evaluator(self):
        with pytest.raises(ConfigurationError):
            BatchServer(object())

    def test_rejects_bad_knobs(self, evaluator):
        with pytest.raises(ConfigurationError):
            BatchServer(evaluator, max_batch_size=0)
        with pytest.raises(ConfigurationError):
            BatchServer(evaluator, max_batch_delay_s=-0.1)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"default_deadline_s": float("nan")},
            {"default_deadline_s": float("inf")},
            {"max_batch_delay_s": float("nan")},
            {"max_batch_delay_s": float("inf")},
            {"max_batch_delay_s": "soon"},
            {"max_batch_delay_s": True},
            {"max_batch_size": 2.7},
            {"max_batch_size": True},
            {"max_batch_size": "8"},
            {"max_queue": 4.0},
        ],
        ids=repr,
    )
    def test_rejects_non_finite_durations_and_fractional_counts(
        self, evaluator, knobs
    ):
        # NaN passes every bound check and would switch the deadline or
        # the batch timer off; int() would truncate a fractional count.
        with pytest.raises(ConfigurationError, match="must be"):
            BatchServer(evaluator, **knobs)

    def test_accepts_numpy_knobs(self, evaluator):
        server = BatchServer(
            evaluator,
            max_batch_size=np.int64(8),
            max_batch_delay_s=np.float64(0.001),
            default_deadline_s=np.float32(0.5),
        )
        assert isinstance(server, BatchServer)

    def test_rejects_row_dependent_session(self, circuit):
        noisy = Evaluator(circuit, EvalSpec(length=64, base_seed=7))
        with pytest.raises(ConfigurationError, match="row-independent"):
            BatchServer(noisy)
        # The escape hatch still works for whole-batch workloads.
        BatchServer(noisy, allow_row_dependent=True)

    def test_submit_requires_running_server(self, evaluator):
        server = BatchServer(evaluator)

        async def scenario():
            await server.submit(0.5)

        with pytest.raises(ConfigurationError, match="not running"):
            asyncio.run(scenario())


class TestServing:
    def test_coalesced_results_bit_identical_to_direct(self, evaluator):
        xs = np.linspace(0.0, 1.0, 24)
        direct = np.asarray(evaluator.evaluate(xs).values, dtype=float)

        async def scenario():
            async with BatchServer(
                evaluator, max_batch_size=32, max_batch_delay_s=0.005
            ) as server:
                values = await server.submit_many(xs)
                return values, server.stats

        values, stats = asyncio.run(scenario())
        assert np.array_equal(np.asarray(values, dtype=float), direct)
        assert stats.requests == xs.size
        # Concurrent submits must actually coalesce.
        assert stats.batches < stats.requests
        assert stats.largest_batch > 1
        assert stats.mean_batch_size > 1.0

    def test_serial_submits_match_coalesced(self, evaluator):
        xs = np.linspace(0.1, 0.9, 8)
        direct = np.asarray(evaluator.evaluate(xs).values, dtype=float)

        async def scenario():
            async with BatchServer(
                evaluator, max_batch_delay_s=0.0
            ) as server:
                return [await server.submit(float(x)) for x in xs]

        values = asyncio.run(scenario())
        # One-at-a-time serving (batch size 1 each) returns the same
        # bits as any coalescing: the row-independence guarantee.
        assert np.array_equal(np.asarray(values, dtype=float), direct)

    def test_max_batch_size_bounds_coalescing(self, evaluator):
        xs = np.linspace(0.0, 1.0, 10)

        async def scenario():
            async with BatchServer(
                evaluator, max_batch_size=4, max_batch_delay_s=0.005
            ) as server:
                await server.submit_many(xs)
                return server.stats

        stats = asyncio.run(scenario())
        assert stats.largest_batch <= 4
        assert stats.batches >= 3

    def test_invalid_input_fails_eagerly_without_poisoning(self, evaluator):
        async def scenario():
            async with BatchServer(evaluator) as server:
                with pytest.raises(ConfigurationError):
                    await server.submit(1.5)
                with pytest.raises(ConfigurationError):
                    await server.submit("not-a-number")
                return await server.submit(0.5)

        value = asyncio.run(scenario())
        assert value == pytest.approx(
            float(evaluator.evaluate([0.5]).values[0])
        )

    def test_evaluation_failure_propagates_to_callers(self, evaluator):
        broken = Evaluator(
            evaluator.circuit, evaluator.spec, evaluator.runtime
        )

        def explode(xs):
            raise RuntimeError("engine down")

        broken.evaluate = explode

        async def scenario():
            async with BatchServer(broken) as server:
                await server.submit(0.5)

        with pytest.raises(RuntimeError, match="engine down"):
            asyncio.run(scenario())

    def test_stop_drains_pending_requests(self, evaluator):
        async def scenario():
            server = await BatchServer(
                evaluator, max_batch_delay_s=0.05
            ).start()
            tasks = [
                asyncio.create_task(server.submit(x)) for x in (0.2, 0.8)
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            await server.stop()
            return await asyncio.gather(*tasks)

        values = asyncio.run(scenario())
        assert len(values) == 2
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_restart_after_stop(self, evaluator):
        async def scenario():
            server = BatchServer(evaluator)
            await server.start()
            first = await server.submit(0.5)
            await server.stop()
            assert not server.running
            await server.start()
            second = await server.submit(0.5)
            await server.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert first == second  # deterministic session: bit-identical

    def test_double_start_rejected(self, evaluator):
        async def scenario():
            async with BatchServer(evaluator) as server:
                await server.start()

        with pytest.raises(ConfigurationError, match="already running"):
            asyncio.run(scenario())


class TestClientCancellation:
    """Regression: a cancelled ``submit`` must never crash the batcher.

    Before the package split, a client abandoning its request (e.g. an
    ``asyncio.wait_for`` timeout) left a cancelled future in the queue;
    ``set_result`` on it raised ``InvalidStateError`` inside the serve
    loop and killed the batcher for every other client.
    """

    def test_cancelled_inflight_and_queued_requests(self, evaluator):
        session, entered, release = gated_evaluator(evaluator)

        async def scenario():
            server = await BatchServer(
                session, max_batch_delay_s=0.0
            ).start()
            # First request enters a batch and blocks on the gate.
            inflight = asyncio.create_task(server.submit(0.3))
            await asyncio.to_thread(entered.wait, 10.0)
            # Second request queues behind the busy engine.
            queued = asyncio.create_task(server.submit(0.6))
            await asyncio.sleep(0)
            inflight.cancel()
            queued.cancel()
            await asyncio.sleep(0)
            release.set()
            # The batcher survives both: a fresh request still serves.
            value = await server.submit(0.5)
            metrics = server.metrics()
            await server.stop()
            return value, metrics

        value, metrics = asyncio.run(scenario())
        assert value == pytest.approx(
            float(evaluator.evaluate([0.5]).values[0])
        )
        assert metrics.cancelled == 2
        assert metrics.failed == 0

    def test_wait_for_timeout_does_not_poison_server(self, evaluator):
        session, entered, release = gated_evaluator(evaluator)

        async def scenario():
            async with BatchServer(
                session, max_batch_delay_s=0.0
            ) as server:
                first = asyncio.create_task(server.submit(0.2))
                await asyncio.to_thread(entered.wait, 10.0)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(server.submit(0.7), timeout=0.01)
                release.set()
                await first
                return await server.submit(0.9), server.metrics()

        value, metrics = asyncio.run(scenario())
        assert value == pytest.approx(
            float(evaluator.evaluate([0.9]).values[0])
        )
        assert metrics.cancelled == 1


class TestShutdownRaces:
    """Regression: ``stop()`` must be atomic against late ``submit``s.

    The original shutdown pushed a bare ``None`` sentinel; a ``submit``
    racing it could enqueue behind the sentinel and hang forever.  Now
    the accepting flag flips before the sentinel is sent, so both
    orderings are deterministic: early enough to drain, or rejected.
    """

    def test_submit_during_stop_is_rejected(self, evaluator):
        session, entered, release = gated_evaluator(evaluator)

        async def scenario():
            server = await BatchServer(
                session, max_batch_delay_s=0.0
            ).start()
            inflight = asyncio.create_task(server.submit(0.4))
            await asyncio.to_thread(entered.wait, 10.0)
            stopping = asyncio.create_task(server.stop())
            await asyncio.sleep(0)  # stop() has flipped the gate by now
            with pytest.raises(ConfigurationError, match="stopping"):
                await server.submit(0.5)
            release.set()
            await stopping
            return await inflight

        value = asyncio.run(scenario())
        assert value == pytest.approx(
            float(evaluator.evaluate([0.4]).values[0])
        )

    def test_submit_after_stop_is_rejected(self, evaluator):
        async def scenario():
            server = await BatchServer(evaluator).start()
            await server.submit(0.5)
            await server.stop()
            with pytest.raises(ConfigurationError, match="not running"):
                await server.submit(0.5)

        asyncio.run(scenario())

    def test_dead_executor_fails_submissions_instead_of_hanging(
        self, evaluator
    ):
        async def scenario():
            server = await BatchServer(
                evaluator, max_batch_delay_s=0.0
            ).start()
            await server.submit(0.5)  # healthy first
            server._executor.shutdown(wait=True)
            with pytest.raises(ConfigurationError, match="executor"):
                await asyncio.wait_for(server.submit(0.5), timeout=5.0)
            metrics = server.metrics()
            await server.stop()
            return metrics

        metrics = asyncio.run(scenario())
        assert metrics.failed == 1
        assert metrics.served == 1


class TestAdmission:
    def test_rejects_unknown_policy_and_bad_queue(self, evaluator):
        with pytest.raises(ConfigurationError, match="policy"):
            BatchServer(evaluator, policy="drop")
        with pytest.raises(ConfigurationError, match="max_queue"):
            BatchServer(evaluator, max_queue=-1)

    def test_shed_policy_raises_typed_overload(self, evaluator):
        session, entered, release = gated_evaluator(evaluator)

        async def scenario():
            server = await BatchServer(
                session,
                max_batch_delay_s=0.0,
                policy="shed",
                max_queue=2,
            ).start()
            inflight = asyncio.create_task(server.submit(0.1))
            await asyncio.to_thread(entered.wait, 10.0)
            # Fill the bounded queue behind the busy engine ...
            queued = [
                asyncio.create_task(server.submit(x)) for x in (0.2, 0.3)
            ]
            await asyncio.sleep(0)
            # ... and the next submission sheds instead of queueing.
            with pytest.raises(OverloadedError, match="full"):
                await server.submit(0.4)
            release.set()
            values = [await inflight] + [await task for task in queued]
            metrics = server.metrics()
            await server.stop()
            return values, metrics

        values, metrics = asyncio.run(scenario())
        assert len(values) == 3
        assert metrics.shed == 1
        assert metrics.admitted == 3
        assert metrics.submitted == 4
        # The queue never held more than its cap, and shedding the
        # overflow changed no served answer.
        assert metrics.queue_depth.max_observed_bound <= 2
        direct = evaluator.evaluate([0.1, 0.2, 0.3]).values
        assert np.array_equal(np.asarray(values, dtype=float), direct)

    def test_block_policy_backpressures_instead_of_shedding(self, evaluator):
        session, entered, release = gated_evaluator(evaluator)

        async def scenario():
            server = await BatchServer(
                session,
                max_batch_delay_s=0.0,
                policy="block",
                max_queue=1,
            ).start()
            inflight = asyncio.create_task(server.submit(0.1))
            await asyncio.to_thread(entered.wait, 10.0)
            # Two more than the queue holds: the extras must wait, not
            # fail — and all of them are eventually served.
            waiting = [
                asyncio.create_task(server.submit(x))
                for x in (0.2, 0.5, 0.8)
            ]
            await asyncio.sleep(0)
            release.set()
            values = [await inflight] + [await task for task in waiting]
            metrics = server.metrics()
            await server.stop()
            return values, metrics

        values, metrics = asyncio.run(scenario())
        assert len(values) == 4
        assert metrics.shed == 0
        assert metrics.served == 4


class TestStats:
    def test_empty_stats(self, evaluator):
        stats = BatchServer(evaluator).stats
        assert stats == ServingStats(requests=0, batches=0, largest_batch=0)
        assert stats.mean_batch_size == 0.0

    def test_metrics_snapshot_empty(self, evaluator):
        snapshot = BatchServer(evaluator).metrics()
        assert snapshot.submitted == 0
        assert snapshot.served == 0
        assert snapshot.current_rung == 0
        assert snapshot.served_fraction == 1.0
        assert snapshot.rungs == ()
        assert snapshot.stats == ServingStats(
            requests=0, batches=0, largest_batch=0
        )

    def test_metrics_snapshot_after_traffic(self, evaluator):
        xs = np.linspace(0.0, 1.0, 12)

        async def scenario():
            async with BatchServer(
                evaluator, max_batch_size=8, max_batch_delay_s=0.005
            ) as server:
                await server.submit_many(xs)
                return server.metrics()

        snapshot = asyncio.run(scenario())
        assert snapshot.submitted == 12
        assert snapshot.admitted == 12
        assert snapshot.served == 12
        assert snapshot.served_fraction == 1.0
        assert snapshot.batches >= 2
        assert snapshot.batch_size.total == snapshot.batches
        assert snapshot.queue_depth.total == 12
        assert len(snapshot.rungs) == 1
        assert snapshot.rungs[0].rung == 0
        assert snapshot.rungs[0].served == 12
        assert snapshot.rungs[0].latency_p99_s >= snapshot.rungs[0].latency_p50_s >= 0.0
        # The legacy view stays consistent with the snapshot.
        assert snapshot.stats.requests == 12
        assert snapshot.stats.mean_batch_size == snapshot.mean_batch_size
