"""Work-conserving micro-batching in :class:`repro.serving.BatchServer`.

The batcher takes everything already queued before it awaits the
queue, dispatches a backlog as soon as the engine is free, and opens a
straggler window only for a request that finds the server idle with an
empty queue.  A gated session pins the first batch inside the engine so
each test scripts exactly which requests queue behind it.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.params import paper_section5a_parameters
from repro.serving import BatchServer
from repro.session import EvalSpec, Evaluator
from repro.stochastic.bernstein import BernsteinPolynomial

#: A straggler window long enough that waiting it out is unmistakable.
WINDOW_S = 0.05
BACKLOG = (0.1, 0.2, 0.4, 0.6, 0.8, 0.9)


@pytest.fixture(scope="module")
def evaluator():
    circuit = OpticalStochasticCircuit(
        paper_section5a_parameters(),
        BernsteinPolynomial([0.25, 0.625, 0.375]),
    )
    return Evaluator(circuit, EvalSpec(length=256, noisy=False, base_seed=7))


def gated_evaluator(evaluator):
    """A derived session whose ``evaluate`` blocks until released.

    Returns ``(session, entered, release, calls)``; each engine call
    appends ``(batch size, monotonic start, monotonic finish)`` to
    *calls*.
    """
    session = Evaluator(evaluator.circuit, evaluator.spec, evaluator.runtime)
    entered = threading.Event()
    release = threading.Event()
    calls = []
    real_evaluate = session.evaluate

    def gated(xs):
        started = time.monotonic()
        entered.set()
        if not release.wait(timeout=10.0):
            raise RuntimeError("test gate was never released")
        result = real_evaluate(xs)
        calls.append((len(xs), started, time.monotonic()))
        return result

    session.evaluate = gated
    return session, entered, release, calls


@pytest.fixture
def wait_for_depths(monkeypatch):
    """Record the server's queue depth at every ``asyncio.wait_for``."""
    servers = []
    depths = []
    real_wait_for = asyncio.wait_for

    def spy(awaitable, timeout):
        depths.append(servers[0]._queue.depth())
        return real_wait_for(awaitable, timeout)

    monkeypatch.setattr(asyncio, "wait_for", spy)
    return servers, depths


def serve_behind_busy_engine(session, entered, release, servers=None):
    """Hold one request in the engine, queue ``BACKLOG`` behind it."""

    async def scenario():
        async with BatchServer(session, max_batch_delay_s=WINDOW_S) as server:
            if servers is not None:
                servers.append(server)
            first = asyncio.create_task(server.submit(0.5))
            await asyncio.to_thread(entered.wait, 10.0)
            backlog = [asyncio.create_task(server.submit(x)) for x in BACKLOG]
            while server.metrics().admitted < 1 + len(BACKLOG):
                await asyncio.sleep(0)
            release.set()
            return await asyncio.gather(first, *backlog)

    return asyncio.run(scenario())


class TestWorkConservingBatching:
    def test_backlog_dispatches_as_one_batch_without_a_window(self, evaluator):
        session, entered, release, calls = gated_evaluator(evaluator)
        values = serve_behind_busy_engine(session, entered, release)
        assert [size for size, _, _ in calls] == [1, len(BACKLOG)]
        (_, _, first_done), (_, second_start, _) = calls
        # The backlog's engine call follows the first one's return at
        # once; waiting out the window would take WINDOW_S.
        assert second_start - first_done < WINDOW_S / 2
        direct = evaluator.evaluate([0.5, *BACKLOG]).values
        assert np.array_equal(np.asarray(values), direct)

    def test_collect_awaits_only_an_empty_queue(
        self, evaluator, wait_for_depths
    ):
        servers, depths = wait_for_depths
        session, entered, release, calls = gated_evaluator(evaluator)
        serve_behind_busy_engine(session, entered, release, servers)
        assert [size for size, _, _ in calls] == [1, len(BACKLOG)]
        # The first request found an idle server and opened the window
        # on an empty queue; the backlog was drained without awaiting.
        assert depths
        assert all(depth == 0 for depth in depths), depths

    def test_default_server_serves_a_lone_request_at_once(
        self, evaluator, wait_for_depths
    ):
        servers, depths = wait_for_depths

        async def scenario():
            async with BatchServer(evaluator) as server:
                servers.append(server)
                return await server.submit(0.3), server.stats

        value, stats = asyncio.run(scenario())
        assert depths == []  # no straggler window was opened
        assert (stats.requests, stats.batches) == (1, 1)
        assert value == float(evaluator.evaluate([0.3]).values[0])
