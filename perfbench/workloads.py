"""The benchmark workloads: sessions, seeded inputs, timed loops, output checks.

Every workload runs the paper's Section V-A order-2 circuit
(``mrr_first_design(order=2, wl_spacing_nm=1.0)``, Bernstein
coefficients ``[0.25, 0.625, 0.375]``).  Its inputs are a pure function
of the workload seed and never of the run length: a closed loop cycles
through a fixed set of calls, and serving requests take their inputs
from a fixed pool in arrival order.  Accuracy metrics and output
digests are computed over that fixed set, evaluating untimed whatever
the timed loop did not reach, so they repeat exactly from run to run.

Output checks run outside the timed region.  A failed check fails its
operation, which counts against ``ok_frac``, and marks the run
incorrect.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional

import numpy as np

from repro import (
    BatchServer,
    BernsteinPolynomial,
    EvalSpec,
    Evaluator,
    FaultSpec,
    OpticalStochasticCircuit,
    ReproError,
    RuntimeConfig,
    derive_seed_schedule,
    mrr_first_design,
    simulate_batch,
)

from tracing import LAYER_METRICS, Span, Tracer, install_layer_spans, layer_self_ms

COEFFICIENTS = (0.25, 0.625, 0.375)

TAIL_PERCENTILE = 90.0
"""The fixed tail percentile; a run needs 100 samples for ten beyond it."""

SIGMA_BOUND = 6.0
"""Output check: ``|value - expectation| <= 6 sigma + 4 / length``.

Sigma is the binomial standard deviation of a length-``L`` stream mean.
"""

OUTLIER_SHARE = 0.003
"""Share of a fixed set's values that may lie beyond :data:`SIGMA_BOUND`.

Rng-derived per-row LFSR seeds sometimes start two channels a few steps
apart on their shared cycle, which correlates them: on 48,000 default
rows drawn from seeds the benchmark does not use, 0.06% lay beyond
6 sigma (largest 24.4 sigma).  On a 4096-value set that is 2.5 values
expected; the limit, 12 values, leaves Poisson slack (the chance of 13
or more is below 1e-5) yet fails a change that correlates even 1% of
the rows.
"""

SIGMA_CAP = 40.0
"""Hard per-value cap: the error of fully correlated data channels at
``x = 1/2`` (``0.625 x (1 - x)`` at ``L = 2**14``)."""

MEDIAN_SIGMA_BOUND = 2.0
"""Fixed-set check: the median of ``|value - expectation| / sigma`` is at
most 2 (0.67 for a binomial stream mean).  A bias that the per-value
bounds let through still fails the set."""

BASE_SEED = 2019
"""The fixed ``base_seed`` of the fixed-seed sessions.

A fixed ``base_seed`` gives every row the same randomizer streams, so
accuracy depends on this one value.  It is a constant, not drawn from
the workload seed, so that accuracy varies between workload seeds only
through the inputs.  Not every ``base_seed`` passes the output checks;
``perfbench/README.md`` gives the share that fail.
"""

DRAIN_TIMEOUT_S = 30.0
"""How long past the run the serving clients may take to finish."""

SERVING_LAYERS = frozenset(
    {
        "serving.queue_wait_ms_p50",
        "serving.service_ms_p50",
        "serving.batch_size_mean",
        "serving.shed",
        "serving.expired",
        "serving.failed",
        "loadgen.lag_ms_p50",
        "loadgen.lag_ms_max",
    }
)
TILE_LAYERS = frozenset(
    {
        "runtime.tiles",
        "runtime.tile_loop_self_ms",
        "stochastic.cursor_ms",
        "kernels.tile_ms",
        "faultmodel.apply_ms",
        "faultmodel.flip_rate",
        "faultmodel.flip_base",
    }
)
ONESHOT_RESULT_LAYERS = frozenset(
    {
        "engine.noise_ms",
        "engine.noise_flips",
        "engine.noise_draws",
        "engine.result_bytes",
    }
)

SELF_TIME_METRICS = frozenset(LAYER_METRICS.values())

_MEGACLOCK = float(1 << 20)
_PROBABILITY_ONE = float(1 << 16)


def build_circuit() -> OpticalStochasticCircuit:
    return OpticalStochasticCircuit.from_design(
        mrr_first_design(order=2, wl_spacing_nm=1.0),
        BernsteinPolynomial(list(COEFFICIENTS)),
    )


def z_scores(values: np.ndarray, expected: np.ndarray, length: int) -> np.ndarray:
    """``|value - expectation|`` in binomial standard deviations, less slack."""
    sigma = np.sqrt(expected * (1.0 - expected) / length)
    return np.maximum(np.abs(values - expected) - 4.0 / length, 0.0) / sigma


def digest(values: np.ndarray) -> str:
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key medians over *rows*; a key missing from a row counts as 0."""
    keys = sorted({key for row in rows for key in row})
    return {key: float(np.median([row.get(key, 0.0) for row in rows])) for key in keys}


@dataclass
class Tally:
    """Operations attempted, passed and failed, with the first failures."""

    attempted: int = 0
    ok: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def add(self, passed: bool, message: str, in_time: bool = True) -> None:
        """One operation; a passed one that missed its time limit is not ok."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.fail(message)
        elif in_time:
            self.ok += 1

    def fail(self, message: str) -> None:
        """A failed check that is not an operation of its own."""
        if len(self.failures) < 5:
            self.failures.append(message)
        elif len(self.failures) == 5:
            self.failures.append("(further failures not listed)")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.ok += other.ok
        self.failed += other.failed
        for message in other.failures:
            self.fail(message)


@dataclass
class Phase:
    """One timed stretch of a workload, traced or not.

    ``values`` and ``expected`` cover the whole fixed input set in order,
    the part the timed loop did not reach evaluated untimed.  ``layers``
    holds the per-layer metrics of a traced phase.
    """

    latencies_ms: List[float]
    wall_s: float
    clocks: int
    tally: Tally
    values: np.ndarray
    expected: np.ndarray
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class Sampled:
    """The result of a workload's cross-check on sampled operations."""

    failures: List[str]
    report: Dict[str, Any]
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one workload process measured; ``metrics`` lacks only setup."""

    metrics: Dict[str, float]
    tally: Tally
    report: Dict[str, Any]

    @property
    def correct(self) -> bool:
        return not self.tally.failures


class Workload:
    """Set-up, one timed phase, and checks; :meth:`execute` runs them."""

    name = ""
    key = 0
    length = 0
    idle_layers: FrozenSet[str] = frozenset()
    """Per-layer metrics this workload never exercises; they report 0."""

    def build(self) -> None:
        """Design the circuit and create the session."""
        raise NotImplementedError

    def first_call(self) -> None:
        """The first evaluation, which fills the lazy caches."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`first_call` started."""

    def run_phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def sampled_check(self, phase: Phase) -> Sampled:
        """Untimed cross-check of sampled operations of *phase*."""
        raise NotImplementedError

    def execute(self, seconds: float, trace: bool) -> Outcome:
        """Run one phase, or an untraced and a traced half, then check.

        With two phases the second one is traced: it yields the
        per-layer metrics, and its p50 against the first one's is the
        tracing overhead.
        """
        self.build()
        try:
            self.first_call()
            if trace:
                plain = self.run_phase(seconds / 2.0, None)
                tracer = Tracer()
                uninstall = install_layer_spans(tracer)
                try:
                    phases = [plain, self.run_phase(seconds / 2.0, tracer)]
                finally:
                    uninstall()
            else:
                phases = [self.run_phase(seconds, None)]
            sampled = self.sampled_check(phases[0])
        finally:
            self.close()
        return self.summarize(phases, sampled)

    def summarize(self, phases: List[Phase], sampled: Sampled) -> Outcome:
        first = phases[0]
        tally = Tally()
        for phase in phases:
            tally.merge(phase.tally)
        fixed_set = self.check_fixed_set(first, tally)
        # The sampled cross-check counts as one more operation.
        tally.add(not sampled.failures, "; ".join(sampled.failures))
        report: Dict[str, Any] = {
            "digest": digest(first.values),
            "fixed_set": fixed_set,
            **sampled.report,
        }
        abs_err_p50 = float(np.median(np.abs(first.values - first.expected)))
        if len(phases) == 1:
            samples = np.asarray(first.latencies_ms, dtype=float)
            tail = float(np.percentile(samples, TAIL_PERCENTILE))
            report["timing"] = {
                "samples": int(samples.size),
                "samples_beyond_tail": int(np.count_nonzero(samples > tail)),
            }
            if first.layers:
                # Per-layer figures measured without tracing, such as the
                # open loop's generator lag, qualify the timings.
                report["layers"] = first.layers
            metrics = {
                "latency_p50_ms": float(np.percentile(samples, 50.0)),
                "latency_tail_ms": tail,
                "sim_mbit_per_s": first.clocks / first.wall_s / 1e6,
                "abs_err_p50": abs_err_p50,
                "ok_frac": tally.ok / tally.attempted,
            }
            return Outcome(metrics, tally, report)
        traced = phases[1]
        untraced_p50 = float(np.median(first.latencies_ms))
        traced_p50 = float(np.median(traced.latencies_ms))
        report["untraced_p50_ms"] = untraced_p50
        report["traced_p50_ms"] = traced_p50
        traced_digest = digest(traced.values)
        if traced_digest != report["digest"]:
            tally.fail(
                f"{self.name}: traced digest {traced_digest} != "
                f"untraced {report['digest']}"
            )
        metrics = {**traced.layers, **sampled.layers}
        metrics["trace.overhead_ms"] = traced_p50 - untraced_p50
        return Outcome(metrics, tally, report)

    def check_fixed_set(self, phase: Phase, tally: Tally) -> Dict[str, Any]:
        """Check the fixed set as a whole, as one more operation.

        Its median error must stay near binomial, and at most
        :data:`OUTLIER_SHARE` of its values may lie beyond 6 sigma.
        """
        z = z_scores(phase.values, phase.expected, self.length)
        beyond = int(np.count_nonzero(z > SIGMA_BOUND))
        allowed = int(OUTLIER_SHARE * z.size)
        median = float(np.median(z))
        tally.add(
            median <= MEDIAN_SIGMA_BOUND and beyond <= allowed,
            f"{self.name}: fixed set has median error {median:.2f} sigma and "
            f"{beyond} values beyond {SIGMA_BOUND:g} sigma ({allowed} allowed)",
        )
        return {
            "median_sigma": median,
            "max_sigma": float(z.max()),
            "values_beyond_6_sigma": beyond,
            "allowed_beyond_6_sigma": allowed,
        }


# -- closed loops --------------------------------------------------------------


class ClosedLoop(Workload):
    """One caller issuing the next call when the previous one returns."""

    batch = 0
    fixed_calls = 0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, self.key])
        self.inputs = rng.random((self.fixed_calls, self.batch))
        self.call_seeds = rng.integers(0, 1 << 62, self.fixed_calls)
        self.sample_call = int(rng.integers(self.fixed_calls))
        self.circuit: Optional[OpticalStochasticCircuit] = None
        self.session: Optional[Evaluator] = None

    def build(self) -> None:
        self.circuit = build_circuit()
        self.session = self.make_session()

    def first_call(self) -> None:
        self.call(0)

    def make_session(self) -> Evaluator:
        raise NotImplementedError

    def call(self, index: int) -> Any:
        raise NotImplementedError

    def expectation(self, xs: np.ndarray) -> np.ndarray:
        assert self.circuit is not None
        flat = np.asarray(self.circuit.polynomial(xs.ravel()), dtype=float)
        return flat.reshape(xs.shape)

    def op_counts(self, result: Any) -> Dict[str, float]:
        """Counts read off one traced call's result (outside its timing)."""
        return {}

    def run_phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        indices: List[int] = []
        values: List[np.ndarray] = []
        latencies: List[float] = []
        rows: List[Dict[str, float]] = []
        start = time.perf_counter()
        deadline_ns = int((start + seconds) * 1e9)
        while True:
            index = len(indices) % self.fixed_calls
            first = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter_ns()
            result = self.call(index)
            t1 = time.perf_counter_ns()
            call_ms = (t1 - t0) / 1e6
            latencies.append(call_ms)
            indices.append(index)
            values.append(np.array(result.values, dtype=float))
            if tracer is not None:
                row = layer_self_ms(tracer.spans[first:])
                self_ms = sum(row.get(name, 0.0) for name in SELF_TIME_METRICS)
                row["trace.self_sum_frac"] = self_ms / call_ms
                row.update(self.op_counts(result))
                rows.append(row)
            if t1 >= deadline_ns:
                break
        wall = time.perf_counter() - start

        timed = len(indices)
        # The loop visits the fixed set in order; complete it untimed, so
        # accuracy and digest never depend on how many calls the run held.
        for index in range(timed, self.fixed_calls):
            indices.append(index)
            values.append(np.array(self.call(index).values, dtype=float))
        expected = self.expectation(self.inputs)
        tally = Tally()
        reference: Dict[int, np.ndarray] = {}
        for index, row_values in zip(indices, values):
            z = z_scores(row_values, expected[index], self.length)
            known = reference.setdefault(index, row_values)
            tally.add(
                bool(np.all(z <= SIGMA_CAP)) and np.array_equal(row_values, known),
                f"{self.name}: call {index} failed its output check",
            )
        return Phase(
            latencies_ms=latencies,
            wall_s=wall,
            clocks=timed * self.batch * self.length,
            tally=tally,
            values=np.concatenate([reference[i] for i in range(self.fixed_calls)]),
            expected=expected.ravel(),
            layers=medians(rows),
        )


class OneShotDefault(ClosedLoop):
    """The default path: numpy kernel, noisy receiver, one-shot, rng rows."""

    name = "oneshot-default"
    key = 1
    batch = 16
    length = 1 << 14
    fixed_calls = 256
    idle_layers = TILE_LAYERS | SERVING_LAYERS

    def make_session(self) -> Evaluator:
        assert self.circuit is not None
        return Evaluator(self.circuit, EvalSpec(length=self.length))

    def call(self, index: int) -> Any:
        assert self.session is not None
        return self.session.evaluate(
            self.inputs[index],
            rng=np.random.default_rng(int(self.call_seeds[index])),
        )

    def op_counts(self, result: Any) -> Dict[str, float]:
        per_clock = (
            result.received_power_mw,
            result.output_bits,
            result.ideal_bits,
            result.select_levels,
        )
        return {
            "engine.noise_flips": float(
                np.count_nonzero(result.output_bits != result.ideal_bits)
            ),
            "engine.result_bytes": float(sum(array.nbytes for array in per_clock)),
        }

    def sampled_check(self, phase: Phase) -> Sampled:
        assert self.session is not None
        index = self.sample_call
        rng_seed = int(self.call_seeds[index])
        reference = self.session.evaluate(
            self.inputs[index], rng=np.random.default_rng(rng_seed)
        )
        packed = self.session.with_kernel("packed").evaluate(
            self.inputs[index], rng=np.random.default_rng(rng_seed)
        )
        fields = (
            "values",
            "output_bits",
            "ideal_bits",
            "select_levels",
            "received_power_mw",
        )
        same = all(
            np.array_equal(getattr(reference, name), getattr(packed, name))
            for name in fields
        )
        failures = (
            []
            if same
            else [f"{self.name}: numpy and packed kernels differ on call {index}"]
        )
        return Sampled(
            failures, {"check_numpy_vs_packed": {"call": index, "bit_identical": same}}
        )


class StreamFault(ClosedLoop):
    """Chunked packed streaming under a composite fault scenario."""

    name = "stream-fault"
    key = 2
    batch = 16
    length = 1 << 19
    chunk = 1 << 16
    fixed_calls = 128
    fault = FaultSpec(flip_probability=0.01, shift_clocks=5, drift_ramp_per_mclock=0.25)
    sampled_rows = 2
    # The chunked path never calls simulate_batch or the one-shot pass.
    idle_layers = (
        ONESHOT_RESULT_LAYERS
        | SERVING_LAYERS
        | frozenset({"kernels.pass_ms", "engine.self_ms"})
    )

    def __init__(self, seed: int, base_seed: int = BASE_SEED) -> None:
        super().__init__(seed)
        self.base_seed = base_seed
        # Quantized per-clock flip probability exactly as the fault
        # channel realizes it, over the clocks the shift keeps.
        kept = self.length - self.fault.shift_clocks
        rates = np.clip(
            self.fault.flip_probability
            + self.fault.drift_ramp_per_mclock
            * (np.arange(kept, dtype=np.float64) / _MEGACLOCK),
            0.0,
            1.0,
        )
        flip = np.clip(np.rint(rates * _PROBABILITY_ONE), 0, _PROBABILITY_ONE)
        flip /= _PROBABILITY_ONE
        self.flip_sum = float(flip.sum())
        self.flip_var = float((flip * (1.0 - flip)).sum())
        rng = np.random.default_rng([seed, self.key, 1])
        self.rows = rng.choice(self.batch, self.sampled_rows, replace=False)

    def make_session(self) -> Evaluator:
        assert self.circuit is not None
        return Evaluator(
            self.circuit,
            EvalSpec(
                length=self.length,
                noisy=False,
                base_seed=self.base_seed,
                fault=self.fault,
            ),
            RuntimeConfig(workers=0, kernel="packed"),
        )

    def call(self, index: int) -> Any:
        assert self.session is not None
        return self.session.stream(self.inputs[index], chunk_length=self.chunk)

    def expectation(self, xs: np.ndarray) -> np.ndarray:
        """Bernstein value through the fault channel's expected transfer.

        Flips turn a one-probability ``f`` into ``f + p (1 - 2 f)`` per
        clock; the shift replaces the first ``shift_clocks`` clocks with
        zeros and drops the last ones.
        """
        clean = super().expectation(xs)
        kept = self.length - self.fault.shift_clocks
        return (kept * clean + (1.0 - 2.0 * clean) * self.flip_sum) / self.length

    def sampled_check(self, phase: Phase) -> Sampled:
        assert self.session is not None and self.circuit is not None
        index = self.sample_call
        chunked = self.call(index)
        schedule = derive_seed_schedule(
            self.batch, sng_kind="lfsr", base_seed=self.base_seed
        )
        shift = self.fault.shift_clocks
        failures: List[str] = []
        flips = 0
        for row in (int(r) for r in self.rows):
            one = simulate_batch(
                self.circuit,
                self.inputs[index][row : row + 1],
                length=self.length,
                noisy=False,
                schedule=schedule.shard(row, row + 1),
                kernel="packed",
                fault=self.fault,
            )
            ones = int(one.output_bits.sum())
            errors = int(np.count_nonzero(one.output_bits != one.ideal_bits))
            if (
                ones != int(chunked.ones_count[row])
                or errors != int(chunked.transmission_bit_errors[row])
            ):
                failures.append(
                    f"{self.name}: chunked row {row} of call {index} differs "
                    "from the one-shot run"
                )
            # Noiseless, so the output equals the ideal decisions except
            # where the channel flipped; undo the shift to count flips.
            flips += int(
                np.count_nonzero(
                    one.output_bits[0, shift:] != one.ideal_bits[0, : self.length - shift]
                )
            )
        base = self.sampled_rows * (self.length - shift)
        expected = self.sampled_rows * self.flip_sum
        allowed = SIGMA_BOUND * math.sqrt(self.sampled_rows * self.flip_var) + 1.0
        if abs(flips - expected) > allowed:
            failures.append(
                f"{self.name}: {flips} flips against {expected:.1f} expected"
            )
        report = {
            "check_chunked_vs_oneshot": {
                "call": index,
                "rows": [int(r) for r in self.rows],
                "equal": not failures,
            },
            "flips": {"observed": flips, "expected": expected, "base": base},
        }
        layers = {
            "faultmodel.flip_rate": flips / base,
            "faultmodel.flip_base": float(base),
        }
        return Sampled(failures, report, layers)


# -- serving -------------------------------------------------------------------


@dataclass
class _Request:
    pool_index: int
    x: float
    due: float
    sent: float
    done: Optional[float] = None
    value: Optional[float] = None
    error: Optional[str] = None


class ServeOpen(Workload):
    """Seeded Poisson arrivals of single-input requests at a fixed rate.

    Each request is timed from when it was due, so a generator running
    late shows in the latency rather than hiding it; the lag itself is
    reported.  No request is sent in the last latency limit of the run,
    so every one that is sent can meet its limit before the run ends.
    """

    name = "serve-open"
    key = 3
    length = 4096
    rate_per_s = 250.0
    pool_size = 2048
    latency_limit_ms = 100.0
    sampled_requests = 16
    max_requests = 1 << 16
    idle_layers = TILE_LAYERS | ONESHOT_RESULT_LAYERS

    def __init__(self, seed: int, base_seed: int = BASE_SEED) -> None:
        rng = np.random.default_rng([seed, self.key])
        self.pool = rng.random(self.pool_size)
        self.arrivals = np.cumsum(
            rng.exponential(1.0 / self.rate_per_s, self.max_requests)
        )
        self.sampled = rng.choice(self.pool_size, self.sampled_requests, replace=False)
        self.base_seed = base_seed
        self.circuit: Optional[OpticalStochasticCircuit] = None
        self.session: Optional[Evaluator] = None
        self.server: Optional[BatchServer] = None
        self.runner: Optional[asyncio.Runner] = None

    def build(self) -> None:
        self.circuit = build_circuit()
        self.session = Evaluator(
            self.circuit,
            EvalSpec(length=self.length, noisy=False, base_seed=self.base_seed),
        )
        self.server = BatchServer(self.session)

    def first_call(self) -> None:
        assert self.server is not None
        # One event loop for the whole run: the server's batcher task
        # lives on it from start to stop.
        self.runner = asyncio.Runner()
        self.runner.run(self.server.start())
        self.runner.run(self.server.submit(float(self.pool[0])))

    def close(self) -> None:
        if self.runner is None:
            return
        assert self.server is not None
        try:
            self.runner.run(self.server.stop())
        finally:
            self.runner.close()
            self.runner = None

    async def _request(self, request: _Request) -> None:
        assert self.server is not None
        try:
            request.value = await self.server.submit(request.x)
        except ReproError as error:
            request.error = repr(error)
        request.done = time.perf_counter()

    async def _send(self, start: float, end: float) -> List[_Request]:
        requests: List[_Request] = []
        tasks: List["asyncio.Task[None]"] = []
        last_send = end - self.latency_limit_ms / 1e3
        for index, offset in enumerate(self.arrivals.tolist()):
            due = start + offset
            if due >= last_send:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            pool_index = index % self.pool_size
            request = _Request(
                pool_index, float(self.pool[pool_index]), due, time.perf_counter()
            )
            requests.append(request)
            tasks.append(asyncio.create_task(self._request(request)))
        remaining = end - time.perf_counter()
        if remaining > 0:
            await asyncio.sleep(remaining)
        # A request still pending after the drain is cancelled and counts
        # as failed: it has neither a value nor an error.
        _, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        return requests

    def run_phase(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        assert self.runner is not None and self.server is not None
        assert self.session is not None and self.circuit is not None
        before = self.server.metrics()
        start = time.perf_counter()
        end = start + seconds
        requests = self.runner.run(self._send(start, end))
        wall = time.perf_counter() - start
        after = self.server.metrics()

        expected = np.asarray(self.circuit.polynomial(self.pool), dtype=float)
        reference: Dict[int, float] = {}
        latencies: List[float] = []
        tally = Tally()
        for request in requests:
            if request.value is None or request.done is None:
                reason = request.error or "not completed within the drain timeout"
                tally.add(False, f"{self.name}: request not served: {reason}")
                continue
            latency_ms = (request.done - request.due) * 1e3
            latencies.append(latency_ms)
            value = request.value
            z = z_scores(
                np.array([value]),
                expected[request.pool_index : request.pool_index + 1],
                self.length,
            )
            known = reference.setdefault(request.pool_index, value)
            tally.add(
                bool(z[0] <= SIGMA_CAP) and value == known,
                f"{self.name}: value {value!r} for pool input "
                f"{request.pool_index} failed its output check",
                in_time=request.done <= end and latency_ms <= self.latency_limit_ms,
            )
        # Complete the pool untimed, as the closed loops complete their set.
        values = np.array(
            [
                reference[i] if i in reference else self.session.evaluate_one(x)
                for i, x in enumerate(self.pool.tolist())
            ]
        )
        lags = [(request.sent - request.due) * 1e3 for request in requests]
        phase = Phase(
            latencies_ms=latencies,
            wall_s=wall,
            clocks=len(latencies) * self.length,
            tally=tally,
            values=values,
            expected=expected,
            layers={
                "loadgen.lag_ms_p50": float(np.median(lags)),
                "loadgen.lag_ms_max": float(np.max(lags)),
            },
        )
        if tracer is not None:
            phase.layers.update(self._trace_layers(tracer.spans, requests, tally))
            served = after.served - before.served
            phase.layers.update(
                {
                    "serving.batch_size_mean": served
                    / max(1, after.batches - before.batches),
                    "serving.shed": float(after.shed - before.shed),
                    "serving.expired": float(after.expired - before.expired),
                    "serving.failed": float(after.failed - before.failed),
                }
            )
        return phase

    def _trace_layers(
        self, spans: List[Span], requests: List[_Request], tally: Tally
    ) -> Dict[str, float]:
        """Per-batch layer medians and each request's queue/service split.

        A request's batch is the ``Evaluator.evaluate`` span that held its
        input and ran between its sending and its reply.
        """
        groups: Dict[int, List[Span]] = {}
        roots: List[Span] = []
        for span in spans:
            root = span
            while root.parent is not None:
                root = root.parent
            if root is span:
                roots.append(span)
            groups.setdefault(id(root), []).append(span)
        by_input: Dict[float, List[Span]] = {}
        for root in roots:
            for x in np.asarray(root.meta, dtype=float).tolist():
                by_input.setdefault(x, []).append(root)
        waits: List[float] = []
        fractions: List[float] = []
        for request in requests:
            if request.done is None or request.value is None:
                continue
            sent_ns = request.sent * 1e9
            done_ns = request.done * 1e9
            batch = next(
                (
                    root
                    for root in by_input.get(request.x, ())
                    if root.start_ns >= sent_ns and root.end_ns <= done_ns
                ),
                None,
            )
            if batch is None:
                continue
            latency_ms = (request.done - request.due) * 1e3
            service_ms = batch.duration_ns / 1e6
            waits.append(latency_ms - service_ms)
            lag_ms = (request.sent - request.due) * 1e3
            admitted_ms = (batch.start_ns - sent_ns) / 1e6
            returned_ms = (done_ns - batch.end_ns) / 1e6
            fractions.append(
                (lag_ms + admitted_ms + service_ms + returned_ms) / latency_ms
            )
        if not waits:
            tally.fail(f"{self.name}: no served request was mapped to its batch")
            return {}
        layers = medians([layer_self_ms(groups[id(root)]) for root in roots])
        layers["serving.service_ms_p50"] = float(
            np.median([root.duration_ns / 1e6 for root in roots])
        )
        layers["serving.queue_wait_ms_p50"] = float(np.median(waits))
        layers["trace.self_sum_frac"] = float(np.median(fractions))
        return layers

    def sampled_check(self, phase: Phase) -> Sampled:
        """Served values against a direct ``evaluate([x])`` on sampled inputs."""
        assert self.session is not None
        differ = [
            int(i)
            for i in self.sampled
            if self.session.evaluate_one(float(self.pool[i])) != phase.values[i]
        ]
        failures = [
            f"{self.name}: served value for pool input {i} differs from a "
            "direct evaluate([x])"
            for i in differ
        ]
        report = {
            "check_served_vs_direct": {
                "inputs": len(self.sampled),
                "differ": differ,
            }
        }
        return Sampled(failures, report)


WORKLOADS = {
    workload.name: workload for workload in (OneShotDefault, StreamFault, ServeOpen)
}


def make(name: str, seed: int) -> Workload:
    workload: Workload = WORKLOADS[name](seed)
    return workload
