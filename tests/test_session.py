"""Tests for the declarative session API (``repro.session``)."""

import numpy as np
import pytest

from repro.core.circuit import OpticalStochasticCircuit
from repro.core.params import paper_section5a_parameters
from repro.errors import ConfigurationError
from repro.exploration.tradeoffs import measured_accuracy_frontier
from repro.experiments import list_experiments, run_experiment
from repro.experiments.registry import experiment_config_parameters
from repro.session import EvalSpec, Evaluator
from repro.simulation.montecarlo import run_monte_carlo
from repro.simulation.runtime import (
    ChunkedEvaluation,
    EvaluationCache,
    RuntimeConfig,
    run_batch,
    simulate_chunked,
)
from repro.stochastic.bernstein import BernsteinPolynomial
from repro.stochastic.image import radial_gradient
from repro.stochastic.sng import SNG_KINDS


@pytest.fixture(scope="module")
def circuit():
    return OpticalStochasticCircuit(
        paper_section5a_parameters(),
        BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


def _assert_batches_identical(a, b):
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.output_bits, b.output_bits)
    assert np.array_equal(a.ideal_bits, b.ideal_bits)
    assert np.array_equal(a.received_power_mw, b.received_power_mw)


class TestEvalSpec:
    def test_defaults(self):
        spec = EvalSpec()
        assert spec.length == 1024
        assert spec.sng_kind == "lfsr"
        assert spec.sng_width == 16
        assert spec.noisy is True
        assert spec.base_seed is None
        assert not spec.deterministic

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EvalSpec(length=0)
        with pytest.raises(ConfigurationError):
            EvalSpec(sng_kind="quantum")
        with pytest.raises(ConfigurationError):
            EvalSpec(base_seed=-1)
        with pytest.raises(ConfigurationError):
            EvalSpec(sng_kind="sobol", sng_width=32)
        with pytest.raises(ConfigurationError):
            EvalSpec(sng_width=0)

    def test_rejects_non_integral_fields(self):
        # Misconfiguration must fail at construction, not as a numpy
        # TypeError deep inside the first evaluate() call.
        with pytest.raises(ConfigurationError, match="integer"):
            EvalSpec(length=10.5)
        with pytest.raises(ConfigurationError, match="integer"):
            EvalSpec(length=2**14.0)
        with pytest.raises(ConfigurationError, match="integer"):
            EvalSpec(sng_width=12.0)
        with pytest.raises(ConfigurationError, match="integer"):
            EvalSpec(base_seed=1.5)
        for name in ("length", "sng_width", "base_seed"):
            with pytest.raises(ConfigurationError, match="integer"):
                EvalSpec(**{name: True})
        # numpy integers normalize to plain ints.
        spec = EvalSpec(length=np.int64(2048), base_seed=np.int32(7))
        assert spec.length == 2048 and isinstance(spec.length, int)
        assert spec.base_seed == 7 and isinstance(spec.base_seed, int)

    def test_replace_revalidates(self):
        spec = EvalSpec(length=2048)
        longer = spec.replace(length=4096)
        assert longer.length == 4096 and spec.length == 2048
        with pytest.raises(ConfigurationError):
            spec.replace(length=-1)

    def test_deterministic_policy(self):
        assert EvalSpec(base_seed=7).deterministic
        assert EvalSpec(sng_kind="counter", noisy=False).deterministic
        # A noisy unpinned counter still draws noise seeds from the rng.
        assert not EvalSpec(sng_kind="counter").deterministic
        assert not EvalSpec().deterministic


class TestEvaluatorConstruction:
    def test_rejects_non_circuit(self):
        with pytest.raises(ConfigurationError):
            Evaluator(object())

    def test_rejects_wrong_config_types(self, circuit):
        with pytest.raises(ConfigurationError):
            Evaluator(circuit, spec={"length": 64})
        with pytest.raises(ConfigurationError):
            Evaluator(circuit, runtime={"workers": 2})

    def test_cache_without_base_seed_fails_at_construction(self, circuit):
        with pytest.raises(ConfigurationError, match="base_seed"):
            Evaluator(circuit, EvalSpec(), RuntimeConfig(use_cache=True))
        # A pinned seed space makes the cache legal.
        Evaluator(
            circuit, EvalSpec(base_seed=7), RuntimeConfig(use_cache=True)
        )

    def test_with_options_and_with_runtime(self, circuit):
        evaluator = Evaluator(circuit, EvalSpec(length=128))
        longer = evaluator.with_options(length=512, sng_kind="sobol")
        assert longer.spec.length == 512
        assert longer.spec.sng_kind == "sobol"
        assert longer.circuit is evaluator.circuit
        threaded = evaluator.with_runtime(RuntimeConfig(backend="thread"))
        assert threaded.runtime.backend == "thread"
        assert threaded.spec is evaluator.spec

    def test_row_independent(self, circuit):
        assert Evaluator(
            circuit, EvalSpec(noisy=False, base_seed=7)
        ).row_independent
        assert Evaluator(
            circuit, EvalSpec(noisy=False, sng_kind="counter")
        ).row_independent
        assert not Evaluator(circuit, EvalSpec(base_seed=7)).row_independent
        assert not Evaluator(circuit, EvalSpec(noisy=False)).row_independent


class TestEvaluatorBitExactness:
    """Acceptance gate: session results == equivalent free-function calls."""

    @pytest.mark.parametrize("kind", SNG_KINDS)
    def test_evaluate_matches_run_batch_per_kind(self, circuit, kind):
        xs = np.linspace(0.0, 1.0, 5)
        session = Evaluator(circuit, EvalSpec(length=256, sng_kind=kind))
        a = session.evaluate(xs, rng=np.random.default_rng(11))
        b = run_batch(
            circuit,
            xs,
            length=256,
            sng_kind=kind,
            rng=np.random.default_rng(11),
        )
        _assert_batches_identical(a, b)

    @pytest.mark.parametrize("kind", SNG_KINDS)
    def test_workers_and_chunking_never_change_bits(self, circuit, kind):
        xs = np.linspace(0.0, 1.0, 6)
        spec = EvalSpec(length=256, sng_kind=kind)
        serial = Evaluator(circuit, spec).evaluate(
            xs, rng=np.random.default_rng(5)
        )
        sharded = Evaluator(
            circuit, spec, RuntimeConfig(workers=2)
        ).evaluate(xs, rng=np.random.default_rng(5))
        chunked = Evaluator(
            circuit, spec, RuntimeConfig(chunk_length=100)
        ).evaluate(xs, rng=np.random.default_rng(5))
        for statistics in (sharded, chunked):
            assert isinstance(statistics, ChunkedEvaluation)
            assert np.array_equal(statistics.values, serial.values)
            assert np.array_equal(
                statistics.ones_count, serial.output_bits.sum(axis=1)
            )
            assert np.array_equal(
                statistics.transmission_bit_errors,
                serial.transmission_bit_errors,
            )

    def test_stream_matches_simulate_chunked(self, circuit):
        xs = [0.3, 0.7]
        session = Evaluator(circuit, EvalSpec(length=512))
        streamed = session.stream(
            xs, chunk_length=128, rng=np.random.default_rng(9)
        )
        direct = simulate_chunked(
            circuit,
            xs,
            length=512,
            chunk_length=128,
            rng=np.random.default_rng(9),
        )
        assert isinstance(streamed, ChunkedEvaluation)
        assert np.array_equal(streamed.ones_count, direct.ones_count)
        assert np.array_equal(
            streamed.transmission_bit_errors, direct.transmission_bit_errors
        )

    def test_stream_uses_bound_chunk_length(self, circuit):
        session = Evaluator(
            circuit, EvalSpec(length=512), RuntimeConfig(chunk_length=128)
        )
        result = session.stream([0.5], rng=np.random.default_rng(1))
        assert isinstance(result, ChunkedEvaluation)
        assert result.chunk_length == 128

    def test_cached_session_hits(self, circuit):
        cache = EvaluationCache()
        session = Evaluator(
            circuit,
            EvalSpec(length=64, base_seed=5),
            RuntimeConfig(cache=cache),
        )
        first = session.evaluate([0.5])
        second = session.evaluate([0.5])
        assert second is first
        assert cache.hits == 1


class TestEvaluatorWorkloads:
    def test_evaluate_one(self, circuit):
        session = Evaluator(circuit, EvalSpec(length=256, base_seed=3))
        value = session.evaluate_one(0.5)
        assert value == float(session.evaluate([0.5]).values[0])

    def test_sweep_routes_through_grid_sweep(self, circuit):
        xs = np.linspace(0.0, 1.0, 7)
        session = Evaluator(circuit, EvalSpec(length=128))
        result = session.sweep(xs, rng=np.random.default_rng(4))
        assert result.axes == ("x",)
        assert result.values.shape == (7,)
        reference = session.evaluate(xs, rng=np.random.default_rng(4))
        assert np.array_equal(result.values, reference.values)

    def test_sweep_metrics(self, circuit):
        session = Evaluator(circuit, EvalSpec(length=128, base_seed=2))
        errors = session.sweep([0.25, 0.75], metric="absolute_error")
        reference = session.evaluate([0.25, 0.75])
        assert np.array_equal(errors.values, reference.absolute_errors)
        with pytest.raises(ConfigurationError):
            session.sweep([0.5], metric="nonsense")

    def test_apply_kernel_is_deterministic_under_base_seed(self, circuit):
        image = radial_gradient(16)
        session = Evaluator(circuit, EvalSpec(length=128, base_seed=5))
        direct = session.apply_kernel(image, levels=16)
        again = session.apply_kernel(image, levels=16)
        assert np.array_equal(direct, again)
        assert direct.shape == image.shape

    def test_monte_carlo_matches_free_function(self, circuit):
        session = Evaluator(circuit)
        via_session = session.monte_carlo(
            samples=8, rng=np.random.default_rng(6)
        )
        direct = run_monte_carlo(
            circuit.params, samples=8, rng=np.random.default_rng(6)
        )
        assert np.array_equal(
            via_session.eye_openings_mw, direct.eye_openings_mw
        )

    def test_monte_carlo_takes_runtime_workers(self, circuit):
        serial = Evaluator(circuit).monte_carlo(
            samples=6, rng=np.random.default_rng(6)
        )
        pooled = Evaluator(
            circuit, runtime=RuntimeConfig(workers=2, backend="thread")
        ).monte_carlo(samples=6, rng=np.random.default_rng(6))
        assert np.array_equal(
            serial.eye_openings_mw, pooled.eye_openings_mw
        )

    def test_throughput_frontier_uses_circuit_bit_rate(self, circuit):
        session = Evaluator(circuit)
        frontier = session.throughput_frontier([1e-6, 1e-3])
        lengths = frontier["stream_length"]
        expected = lengths / circuit.params.bit_rate_hz
        assert np.allclose(frontier["evaluation_time_s"], expected)


class TestMeasuredFrontier:
    def test_longer_streams_reduce_error(self, circuit):
        session = Evaluator(circuit, EvalSpec(base_seed=5))
        frontier = measured_accuracy_frontier(
            session, [64, 4096], xs=np.linspace(0.1, 0.9, 8)
        )
        assert frontier["measured_mae"][1] < frontier["measured_mae"][0]
        assert frontier["predicted_rms_error"].shape == (2,)

    def test_validation(self, circuit):
        with pytest.raises(ConfigurationError):
            measured_accuracy_frontier(object(), [64])
        with pytest.raises(ConfigurationError):
            measured_accuracy_frontier(Evaluator(circuit), [])
        with pytest.raises(ConfigurationError):
            measured_accuracy_frontier(Evaluator(circuit), [0])


class TestSessionCache:
    def test_session_cache_shares_entries_with_runtime_impl(self, circuit):
        cache = EvaluationCache()
        direct = run_batch(
            circuit, [0.25, 0.75], length=64, base_seed=9,
            config=RuntimeConfig(cache=cache),
        )
        session = Evaluator(
            circuit,
            EvalSpec(length=64, base_seed=9),
            RuntimeConfig(cache=cache),
        )
        via_session = session.evaluate([0.25, 0.75])
        # Same key, same cache: the session call must *hit* the entry
        # the runtime implementation stored.
        assert via_session is direct
        assert cache.hits == 1


class TestRunExperimentConfig:
    def test_default_accuracy_covers_all_kinds(self):
        result = run_experiment("accuracy")
        assert [row["sng_kind"] for row in result.rows] == list(SNG_KINDS)

    def test_sng_kinds_focuses_the_study(self):
        result = run_experiment(
            "accuracy", spec=EvalSpec(length=256), sng_kinds=("sobol",)
        )
        assert len(result.rows) == 1
        assert result.rows[0]["sng_kind"] == "sobol"
        assert result.rows[0]["stream_length"] == 256
        # Focusing works even for the default family (the CLI's
        # --sng-kind lfsr), which a spec-based heuristic couldn't see.
        focused = run_experiment("accuracy", sng_kinds=("lfsr",))
        assert [row["sng_kind"] for row in focused.rows] == ["lfsr"]

    def test_sng_kinds_validated(self):
        with pytest.raises(ConfigurationError, match="sng_kinds"):
            run_experiment("accuracy", sng_kinds=("quantum",))
        with pytest.raises(ConfigurationError, match="sng_kinds"):
            run_experiment("accuracy", sng_kinds=())

    def test_template_spec_keeps_all_families(self):
        # A spec is a template (length/noise/seed policy); it must not
        # silently narrow the four-family comparison.
        result = run_experiment(
            "accuracy", spec=EvalSpec(length=128, noisy=False)
        )
        assert [row["sng_kind"] for row in result.rows] == list(SNG_KINDS)
        assert all(row["stream_length"] == 128 for row in result.rows)

    def test_runtime_never_changes_rows(self):
        serial = run_experiment("accuracy", spec=EvalSpec(length=128))
        pooled = run_experiment(
            "accuracy",
            spec=EvalSpec(length=128),
            runtime=RuntimeConfig(workers=2),
        )
        assert serial.rows == pooled.rows

    def test_unconfigurable_experiment_rejects_config(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            run_experiment("headline", spec=EvalSpec())
        with pytest.raises(ConfigurationError, match="does not accept"):
            run_experiment("headline", runtime=RuntimeConfig())

    def test_config_parameter_introspection(self):
        assert experiment_config_parameters("accuracy") == {
            "spec",
            "runtime",
            "sng_kinds",
        }
        assert experiment_config_parameters("headline") == frozenset()
        assert "accuracy" in [
            name
            for name in list_experiments()
            if experiment_config_parameters(name)
        ]


class TestRuntimeConfigValidation:
    def test_construction_knowable_misconfigurations(self, circuit):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            RuntimeConfig(cache="not-a-cache")
        # A per-call tile size is validated like a bound one: 2.5 used to
        # run 2-clock tiles, True 1-clock tiles, and "64" was accepted.
        session = Evaluator(circuit, EvalSpec(length=256, base_seed=1))
        for bad in (2.5, True, "64"):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                session.stream([0.5], chunk_length=bad)
        with pytest.raises(ConfigurationError, match="positive"):
            session.stream([0.5], chunk_length=0)
        assert session.stream([0.5], chunk_length=np.int64(64)).chunk_count == 4

    def test_cache_requested_property(self):
        assert not RuntimeConfig().cache_requested
        assert RuntimeConfig(use_cache=True).cache_requested
        assert RuntimeConfig(cache=EvaluationCache()).cache_requested

    def test_run_batch_cache_misconfig_raises_on_chunked_path(self, circuit):
        # Used to silently ignore the cache request when chunking won.
        with pytest.raises(ConfigurationError, match="base_seed"):
            run_batch(
                circuit,
                [0.5],
                length=256,
                config=RuntimeConfig(use_cache=True, chunk_length=64),
            )
