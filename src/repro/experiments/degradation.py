"""Fault-frontier experiment: graceful degradation under channel faults.

The paper's core robustness claim (Section II-A) is that stochastic
computing "degrades gracefully" under soft errors — a flipped bit in a
unary stream perturbs the decoded value by 1/N instead of flipping a
binary MSB.  This experiment quantifies that claim on the optical link:
it sweeps a fault axis (bit-flip rate, then the structural scenarios —
a stuck data MZI and a thermal drift ramp) through the schedule-seeded
fault engine of :mod:`repro.simulation.faultmodel` and reports the
accuracy frontier per scenario.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.circuit import OpticalStochasticCircuit
from ..core.params import paper_section5a_parameters
from ..session import EvalSpec, Evaluator
from ..simulation.faultmodel import FaultSpec
from ..simulation.montecarlo import fault_frontier
from ..simulation.runtime import RuntimeConfig
from ..stochastic.bernstein import BernsteinPolynomial
from .registry import ExperimentResult, register

__all__ = ["fault_frontier_study"]

_STREAM_LENGTH = 4096
_FRONTIER_SEED = 0xFA11
_FLIP_RATES = (0.0, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1)


@register("fault_frontier")
def fault_frontier_study(
    spec: Optional[EvalSpec] = None,
    runtime: Optional[RuntimeConfig] = None,
) -> ExperimentResult:
    """Accuracy vs fault severity: flip sweep plus named scenarios.

    One :class:`repro.session.Evaluator` session per fault point (all
    derived from a single seed-pinned template via
    :meth:`~repro.session.Evaluator.with_fault`), so the frontier
    isolates the fault axis: every point replays identical randomizer
    streams and differs only in the injected fault realization.  The
    flip sweep's clean point doubles as the baseline row the scenario
    rows are read against.
    """
    circuit = OpticalStochasticCircuit(
        paper_section5a_parameters(), BernsteinPolynomial([0.25, 0.625, 0.375])
    )
    template = (
        EvalSpec(length=_STREAM_LENGTH) if spec is None else spec
    )
    if template.base_seed is None:
        # The frontier isolates the fault axis only when every point
        # replays one schedule — pin the study seed unless the caller
        # chose their own.
        template = template.replace(base_seed=_FRONTIER_SEED)
    xs = np.linspace(0.0, 1.0, 9)
    sweep = fault_frontier(
        circuit, _FLIP_RATES, xs=xs, spec=template, runtime=runtime
    )
    rows = []
    for index, rate in enumerate(_FLIP_RATES):
        rows.append(
            {
                "scenario": f"flip p={rate:g}",
                "mean_abs_error": float(sweep["mean_abs_error"][index]),
                "max_abs_error": float(sweep["max_abs_error"][index]),
                "mean_link_ber": float(sweep["mean_link_ber"][index]),
            }
        )
    scenarios = {
        "stuck MZI@1": FaultSpec(stuck_channel=0, stuck_value=1),
        "drift ramp": FaultSpec(drift_ramp_per_mclock=0.5),
        "desync 16ck": FaultSpec(shift_clocks=16),
        "decay tau=64k": FaultSpec(decay_tau_clocks=1 << 16),
    }
    session = Evaluator(circuit, spec=template, runtime=runtime)
    for name, fault in scenarios.items():
        result = session.with_fault(fault).evaluate(xs)
        errors = np.asarray(result.absolute_errors, dtype=float)
        rows.append(
            {
                "scenario": name,
                "mean_abs_error": float(errors.mean()),
                "max_abs_error": float(errors.max()),
                "mean_link_ber": float(
                    np.mean(np.asarray(result.transmission_ber))
                ),
            }
        )
    return ExperimentResult(
        experiment_id="fault_frontier",
        title="Extension: accuracy frontier under injected channel faults",
        rows=rows,
        paper_reference={
            "context": (
                "Section II-A motivates SC by graceful degradation under "
                "soft errors and process variations"
            ),
            "expected_scaling": (
                "a flip rate p adds ~p(1-2E[y]) bias and O(p) BER; value "
                "error stays bounded by p, never an MSB-style blowup"
            ),
        },
        notes=(
            "Faults are schedule-seeded receiver-side channel scenarios "
            "(FaultSpec): per-clock flips, stream desynchronization, a "
            "stuck select MZI and thermal-drift/laser-decay trajectories. "
            "Realizations are bit-exact across kernels, workers and "
            "chunk sizes, so the frontier is a reproducible artifact, "
            "not a sampling anecdote."
        ),
    )
