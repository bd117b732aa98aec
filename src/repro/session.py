"""Evaluator sessions: one declarative spec for every workload.

The paper's experiments — the accuracy sweeps of Section V-B, the
gamma-correction workload of Section V-C, the Monte Carlo yield study —
are all "run this circuit under these SNG/stream/runtime settings".
Before this module every entry point re-threaded the same knobs
(``length``, ``sng_kind``, ``base_seed``, ``sng_width``, ``noisy``,
``workers``, ``chunk_length``, cache, backend) through its own
signature.  Here they become two frozen objects bound once:

* :class:`EvalSpec` — *what* to evaluate: the randomizer family and
  width, the stream length, the seed policy (fixed ``base_seed`` or
  rng-derived per call) and the noisy flag.  This is the paper's notion
  of a design point: SNG choice x stream length x architecture.
* :class:`~repro.simulation.runtime.RuntimeConfig` — *how fast* to
  evaluate it: workers, chunk size and cache.  Pure wall-clock/memory
  levers; never changes an output bit.

:class:`Evaluator` binds a circuit to one spec/runtime pair and exposes
every workload shape as a method — :meth:`~Evaluator.evaluate`
(batched), :meth:`~Evaluator.sweep` (labeled input grid),
:meth:`~Evaluator.stream` (bounded-memory chunked),
:meth:`~Evaluator.apply_kernel` (whole image),
:meth:`~Evaluator.monte_carlo` (fabrication corners).  All stream
evaluation dispatches through :func:`~repro.simulation.runtime.run_batch`,
so results are **bit-for-bit identical** to the equivalent free-function
calls under the same seeds, whatever the runtime knobs.

>>> import numpy as np, repro
>>> circuit = repro.OpticalStochasticCircuit(
...     repro.paper_section5a_parameters(),
...     repro.BernsteinPolynomial([0.25, 0.625, 0.375]))
>>> ev = repro.Evaluator(circuit, repro.EvalSpec(length=2048, base_seed=7))
>>> batch = ev.evaluate(np.linspace(0, 1, 64))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:
    from .core.circuit import OpticalStochasticCircuit
from .simulation.engine import _check_eval_fields
from .simulation.faultmodel import FaultSpec
from .simulation.runtime import (
    RuntimeConfig,
    _check_cache_seed,
    _check_runtime,
    run_batch,
)

__all__ = [
    "DEFAULT_STREAM_CHUNK",
    "DEPRECATED_WRAPPERS",
    "EvalSpec",
    "Evaluator",
]

DEFAULT_STREAM_CHUNK: int = 1 << 16
"""Tile size :meth:`Evaluator.stream` falls back to when none is bound."""

DEPRECATED_WRAPPERS: Dict[str, Dict[str, Any]] = {
    "repro.stochastic.image.apply_circuit_kernel": {
        "replacement": "Evaluator(circuit, spec, runtime).apply_kernel(image)",
        "removal_note": (
            "deprecated in PR 3; removed in PR 6 after the policy's "
            "two-PR grace window — call the session replacement"
        ),
        "removed": True,
    },
    "repro.simulation.runtime.cached_simulate_batch": {
        "replacement": (
            "Evaluator(circuit, EvalSpec(base_seed=...), "
            "RuntimeConfig(use_cache=True)).evaluate(xs)"
        ),
        "removal_note": (
            "deprecated in PR 3; removed in PR 6 after the policy's "
            "two-PR grace window — call the session replacement"
        ),
        "removed": True,
    },
    "repro.simulation.functional.simulate_evaluation": {
        "replacement": (
            "Evaluator(circuit, EvalSpec(...)).evaluate([x], rng=rng), row 0"
        ),
        "removal_note": (
            "deprecated in PR 17; removed in PR 19 after the policy's "
            "two-PR grace window — call the session replacement"
        ),
        "removed": True,
    },
    "repro.simulation.functional.simulate_sweep": {
        "replacement": (
            "Evaluator(circuit, EvalSpec(...)).evaluate(xs, rng=rng).values"
        ),
        "removal_note": (
            "deprecated in PR 17; removed in PR 19 after the policy's "
            "two-PR grace window — call the session replacement"
        ),
        "removed": True,
    },
    "repro.simulation.runtime.simulate_batch_sharded": {
        "replacement": (
            "Evaluator(circuit, spec, RuntimeConfig(workers=N, "
            "backend=...)).evaluate(xs)"
        ),
        "removal_note": (
            "deprecated in PR 17; removed in PR 19 after the policy's "
            "two-PR grace window — call the session replacement"
        ),
        "removed": True,
    },
    "repro.simulation.kernels.KERNELS['numpy']": {
        "replacement": (
            "the default kernel: drop kernel='numpy' from RuntimeConfig, "
            "Evaluator.with_kernel, simulate_batch, simulate_chunked and "
            "the experiments CLI --kernel"
        ),
        "removal_note": (
            "deprecated alias of the bit-identical packed kernel since "
            "the numpy pass left the package for the test suite's "
            "reference; removed after the policy's two-PR grace window, "
            "together with KERNELS, available_kernels, resolve_kernel "
            "and kernel_capabilities"
        ),
        "removed": False,
    },
}
"""Legacy entry points and aliases folded into the session API.

Each maps a dotted legacy entry point to its ``replacement`` plus a
``removal_note`` recording the deprecation and removal history (the
policy: wrappers and aliases survive at least two PRs past deprecation
before removal).  Entries with ``removed: True`` no longer
resolve — the registry stays as the migration record, and repro-lint's
RL002 and ``tests/test_public_api.py`` enforce that removed names are
really gone while their replacements exist.
"""


@dataclass(frozen=True)
class EvalSpec:
    """Declarative description of one stochastic-evaluation design point.

    Captures everything that determines *which bits* an evaluation
    produces — as opposed to :class:`~repro.simulation.runtime.RuntimeConfig`,
    which only decides how fast they are produced.

    Parameters
    ----------
    length:
        Stream length (clock count) per evaluation.
    sng_kind:
        Randomizer family: ``"lfsr"`` (default), ``"counter"``,
        ``"sobol"`` or ``"chaotic"``.
    sng_width:
        LFSR register width / comparator resolution in bits.
    noisy:
        When False the receiver slices noiselessly — isolating the
        stochastic-computing error from the transmission error.
    base_seed:
        Seed policy.  ``None`` (default) derives decorrelated per-row
        seeds from the ``rng`` passed to each call; a fixed integer
        pins the whole seed space, making every evaluation (including
        receiver noise) a deterministic — and cacheable — function of
        the inputs.
    fault:
        Optional :class:`~repro.simulation.faultmodel.FaultSpec` fault
        scenario injected into every evaluation of this design point —
        flips, desynchronization shifts, stuck-MZI pinning and
        drift/decay trajectories.  Part of the spec (not the runtime)
        because it changes *which bits* are produced; realizations are
        seeded from the evaluation's seed schedule, so the runtime
        knobs stay pure wall-clock levers under a fault too.
    """

    length: int = 1024
    sng_kind: str = "lfsr"
    sng_width: int = 16
    noisy: bool = True
    base_seed: Optional[int] = None
    fault: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        # The engine's rule book, shared with run_batch: misconfiguration
        # fails here with the message every entry point gives, not as an
        # opaque TypeError deep inside the engine.
        normalized = _check_eval_fields(
            self.length,
            self.sng_kind,
            self.sng_width,
            self.noisy,
            self.base_seed,
            self.fault,
        )
        for name, value in zip(("length", "sng_width", "base_seed"), normalized):
            object.__setattr__(self, name, value)

    def replace(self, **changes: Any) -> "EvalSpec":
        """A copy of the spec with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def with_length(self, length: int) -> "EvalSpec":
        """The same design point at another stream length.

        Progressive precision is stochastic computing's defining
        robustness property: truncating the bitstream degrades accuracy
        smoothly instead of failing.  This is the primitive the serving
        tier's degradation ladder steps down
        (:class:`repro.serving.DegradationLadder`) — same circuit, same
        seeds, shorter stream, measured accuracy cost.
        """
        return self.replace(length=length)

    @property
    def deterministic(self) -> bool:
        """Whether results are a pure function of the inputs.

        True when the seed space is pinned (fixed ``base_seed``, which
        also derives the receiver-noise seeds) or the randomizer is the
        deterministic counter *and* the receiver is noiseless — a noisy
        unpinned counter spec still draws its noise seeds from the
        caller's rng.  The precondition for caching and for
        reproducible serving.
        """
        return self.base_seed is not None or (
            self.sng_kind == "counter" and not self.noisy
        )


_SWEEP_METRICS: Dict[str, str] = {
    "value": "values",
    "absolute_error": "absolute_errors",
    "transmission_ber": "transmission_ber",
}


class Evaluator:
    """A circuit bound to one :class:`EvalSpec` and one runtime config.

    The session facade of the repo: construct it once, then run any
    workload shape without re-threading configuration.  Every
    stream-evaluation method dispatches through
    :func:`~repro.simulation.runtime.run_batch`, so the runtime's
    worker/chunk/cache knobs stay pure wall-clock levers — outputs are
    bit-for-bit identical to the serial free-function calls under the
    same seeds.

    Misconfigurations fail at construction: enabling the evaluation
    cache without a fixed ``base_seed`` raises here rather than on the
    first call.
    """

    def __init__(
        self,
        circuit: "OpticalStochasticCircuit",
        spec: Optional[EvalSpec] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> None:
        from .core.circuit import OpticalStochasticCircuit

        if not isinstance(circuit, OpticalStochasticCircuit):
            raise ConfigurationError(
                "circuit must be an OpticalStochasticCircuit"
            )
        spec = EvalSpec() if spec is None else spec
        runtime = RuntimeConfig() if runtime is None else runtime
        if not isinstance(spec, EvalSpec):
            raise ConfigurationError(f"spec must be an EvalSpec, got {spec!r}")
        _check_cache_seed(_check_runtime(runtime), spec.base_seed)
        self.circuit: "OpticalStochasticCircuit" = circuit
        self.spec: EvalSpec = spec
        self.runtime: RuntimeConfig = runtime

    def __repr__(self) -> str:
        return (
            f"Evaluator(circuit={self.circuit.fingerprint()[:8]}..., "
            f"spec={self.spec!r}, runtime={self.runtime!r})"
        )

    # -- derived sessions ------------------------------------------------------

    def with_options(self, **spec_changes: Any) -> "Evaluator":
        """A new session on the same circuit/runtime with spec changes."""
        return Evaluator(
            self.circuit, self.spec.replace(**spec_changes), self.runtime
        )

    def with_runtime(self, runtime: RuntimeConfig) -> "Evaluator":
        """A new session on the same circuit/spec with another runtime."""
        return Evaluator(self.circuit, self.spec, runtime)

    def with_kernel(self, kernel: str) -> "Evaluator":
        """A new session on the named compute kernel.

        ``"packed"`` (:data:`repro.simulation.kernels.KERNELS`) is the
        only kernel, so the derived session returns the same bits.
        ``"numpy"`` is a deprecated alias that warns once, here, and
        binds ``"packed"``.  Unknown kernels raise
        :class:`~repro.errors.ConfigurationError` here, not on the first
        evaluation.
        """
        return self.with_runtime(
            dataclasses.replace(self.runtime, kernel=kernel)
        )

    def with_fault(self, fault: Optional[FaultSpec]) -> "Evaluator":
        """A new session evaluating under a fault scenario (or none).

        *fault* is a :class:`~repro.simulation.faultmodel.FaultSpec`
        (or ``None`` to clear one) — the graceful-degradation axis:
        derive one session per fault point and compare accuracy.
        Unlike the runtime knobs this changes which bits are produced,
        but the realization is schedule-seeded, so results remain
        bit-for-bit identical across workers and chunk sizes.
        """
        return self.with_options(fault=fault)

    @property
    def kernel(self) -> str:
        """The bound runtime's compute kernel."""
        return self.runtime.kernel

    @property
    def row_independent(self) -> bool:
        """Whether each row's result is independent of its batch neighbors.

        True when the seed space is pinned (or the randomizer is the
        deterministic counter) **and** the receiver is noiseless: every
        row then depends only on its own input, so evaluating an input
        alone or inside any coalesced batch produces the same bits —
        the guarantee :class:`repro.serving.BatchServer` builds on.
        (With ``noisy=True`` the per-row noise seeds depend on the row's
        position in the batch, so only whole-batch identity holds —
        and likewise for stochastic fault components, whose mask seeds
        derive from the same positional noise-seed column.)
        """
        fault_positional = (
            self.spec.fault is not None and self.spec.fault.needs_seeds
        )
        return (
            self.spec.deterministic
            and not self.spec.noisy
            and not fault_positional
        )

    # -- workload methods ------------------------------------------------------

    def evaluate(
        self, xs: Any, rng: Optional[np.random.Generator] = None
    ) -> Any:
        """Evaluate every input in *xs* under the bound spec.

        Dispatches through :func:`~repro.simulation.runtime.run_batch`:
        returns a :class:`~repro.simulation.engine.BatchEvaluation` (or a
        :class:`~repro.simulation.runtime.ChunkedEvaluation` when the
        bound runtime shards rows or chunks streams longer than one
        tile).  *rng* drives the per-row seed derivation when the spec
        has no fixed ``base_seed``; it is ignored otherwise.
        """
        return run_batch(
            self.circuit,
            xs,
            length=self.spec.length,
            rng=rng,
            noisy=self.spec.noisy,
            sng_kind=self.spec.sng_kind,
            base_seed=self.spec.base_seed,
            sng_width=self.spec.sng_width,
            config=self.runtime,
            fault=self.spec.fault,
        )

    def evaluate_one(
        self, x: float, rng: Optional[np.random.Generator] = None
    ) -> float:
        """The de-randomized output for a single input."""
        return float(np.asarray(self.evaluate([float(x)], rng=rng).values)[0])

    def sweep(
        self,
        xs: Any,
        metric: str = "value",
        rng: Optional[np.random.Generator] = None,
    ) -> Any:
        """Labeled sweep over the input axis, one batched pass.

        Routes through the exploration grid engine
        (:func:`repro.exploration.sweep.grid_sweep`) with this session
        as the vectorized ``metric_batch`` hook, returning a
        :class:`~repro.exploration.sweep.SweepResult` over axis ``x``.
        *metric* selects the per-input observable: ``"value"`` (the
        de-randomized output, default), ``"absolute_error"`` or
        ``"transmission_ber"``.
        """
        from .exploration.sweep import grid_sweep

        if metric not in _SWEEP_METRICS:
            raise ConfigurationError(
                f"unknown sweep metric {metric!r}; expected one of "
                f"{sorted(_SWEEP_METRICS)}"
            )
        attribute = _SWEEP_METRICS[metric]

        def metric_batch(x: "np.ndarray[Any, Any]") -> "np.ndarray[Any, Any]":
            return np.asarray(getattr(self.evaluate(x, rng=rng), attribute))

        return grid_sweep(metric_batch=metric_batch, x=xs)

    def stream(
        self,
        xs: Any,
        chunk_length: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Any:
        """Bounded-memory chunked evaluation of the bound stream length.

        Overrides the runtime's ``chunk_length`` for this call (falling
        back to the bound one, then to :data:`DEFAULT_STREAM_CHUNK`) and
        dispatches through ``run_batch`` — so the result is a
        :class:`~repro.simulation.runtime.ChunkedEvaluation` whenever the
        spec's stream exceeds one tile, bit-exact with the one-shot
        statistics and with a direct
        :func:`~repro.simulation.runtime.simulate_chunked` call under
        the same *rng*.
        """
        resolved = (
            chunk_length
            if chunk_length is not None
            else (self.runtime.chunk_length or DEFAULT_STREAM_CHUNK)
        )
        # No int() here: RuntimeConfig rejects a float or bool tile size.
        config = dataclasses.replace(self.runtime, chunk_length=resolved)
        # Delegate so the spec-to-run_batch mapping lives in evaluate()
        # alone — a new spec field can never diverge between the
        # batched and streamed paths.
        return self.with_runtime(config).evaluate(xs, rng=rng)

    def apply_kernel(
        self,
        image: Any,
        levels: Optional[int] = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> "np.ndarray[Any, Any]":
        """Run an image through the circuit (Section V-C workload shape).

        Quantizes to *levels* gray levels, evaluates all unique levels
        as **one** batched session pass, and scatters the de-randomized
        outputs back onto the frame — identical pixels whatever the
        bound runtime's worker/chunk/cache knobs.
        """
        from .stochastic.image import apply_pixel_kernel

        def batch_kernel(values: "np.ndarray[Any, Any]") -> "np.ndarray[Any, Any]":
            return np.asarray(self.evaluate(values, rng=rng).values)

        return np.asarray(
            apply_pixel_kernel(image, levels=levels, batch_kernel=batch_kernel)
        )

    def monte_carlo(
        self,
        variation: Any = None,
        samples: int = 200,
        rng: Optional[np.random.Generator] = None,
    ) -> Any:
        """Fabrication-corner yield study on this session's circuit.

        Runs :func:`repro.simulation.montecarlo.run_monte_carlo` on the
        bound circuit's parameters, fanning the corners out over the
        bound runtime's worker pool.  Corner offsets are drawn up front
        from *rng*, so serial and sharded runs are identical.  Bind
        ``RuntimeConfig(vectorized=True)`` to evaluate all corners as
        one stacked :mod:`repro.core.vectorized` pass — an order of
        magnitude faster, equal to the scalar loop up to floating-point
        rounding.
        """
        from .simulation.montecarlo import VariationModel, run_monte_carlo

        return run_monte_carlo(
            self.circuit.params,
            variation=VariationModel() if variation is None else variation,
            samples=samples,
            rng=rng,
            runtime=self.runtime,
        )

    def throughput_frontier(
        self,
        bers: Any,
        target_rms_error: float = 0.01,
        probability: float = 0.25,
    ) -> Dict[str, Any]:
        """The designer's BER-vs-latency frontier at this circuit's clock.

        Wraps :func:`repro.exploration.tradeoffs.throughput_accuracy_frontier`
        with the session circuit's bit rate, so the evaluation times are
        the ones this design point would actually see.
        """
        from .exploration.tradeoffs import throughput_accuracy_frontier

        frontier: Dict[str, Any] = throughput_accuracy_frontier(
            bers,
            target_rms_error=target_rms_error,
            bit_rate_hz=self.circuit.params.bit_rate_hz,
            probability=probability,
        )
        return frontier
