"""Tests for the top-level public API surface."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.session import DEPRECATED_WRAPPERS
from repro.tools.lint import check_api_surface

PACKAGE_DIR = Path(repro.__file__).resolve().parent

REMOVED_WRAPPERS = sorted(
    name for name, entry in DEPRECATED_WRAPPERS.items() if entry["removed"]
)
LIVE_SHIMS = sorted(
    name for name, entry in DEPRECATED_WRAPPERS.items() if not entry["removed"]
)


def _resolve(dotted):
    module_name, _, attribute = dotted.rpartition(".")
    return getattr(importlib.import_module(module_name), attribute)


class TestLazyAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_design_method_reachable(self):
        design = repro.mrr_first_design(
            order=2, wl_spacing_nm=1.0, probe_power_mw=1.0
        )
        assert design.pump_power_mw == pytest.approx(591.8, abs=0.5)

    def test_circuit_workflow(self):
        design = repro.mrr_first_design(
            order=2, wl_spacing_nm=1.0, probe_power_mw=1.0
        )
        circuit = repro.OpticalStochasticCircuit.from_design(
            design, repro.BernsteinPolynomial([0.25, 0.625, 0.375])
        )
        assert circuit.link_budget().bands_separated

    def test_constants_exposed(self):
        assert repro.PAPER_OPTIMAL_WL_SPACING_NM == pytest.approx(0.165)
        assert repro.PAPER_HEADLINE_ENERGY_PJ_PER_BIT == pytest.approx(20.1)

    def test_errors_exposed(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.DesignInfeasibleError, repro.ReproError)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_api_names_all_resolve(self):
        from repro import _api

        for name in _api.__all__:
            assert getattr(repro, name) is getattr(_api, name)


class TestPublicAPIContract:
    """The ``__all__``/``_api``/``__getattr__`` surfaces must agree."""

    def test_static_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_surfaces_consistent(self):
        # Duplicate-free __all__ lists, no dangling _api names, static
        # and lazy surfaces disjoint, lazy __getattr__ present, removed
        # wrappers truly gone: all delegated to the RL002 checker so the
        # test and `repro-lint` can never drift apart.
        diagnostics = check_api_surface(PACKAGE_DIR)
        assert diagnostics == [], "\n".join(d.format() for d in diagnostics)

    def test_session_api_exported(self):
        from repro import _api

        for name in ("EvalSpec", "Evaluator", "BatchServer", "ServingStats"):
            assert name in _api.__all__
            assert getattr(repro, name) is getattr(_api, name)

    def test_private_names_not_served(self):
        with pytest.raises(AttributeError):
            repro._private_thing

    def test_deprecated_wrappers_registry(self):
        # The registry survives the removal as the migration record:
        # every removed entry names a real session replacement and its
        # note records the full deprecated-then-removed history (the
        # policy: wrappers survive at least two PRs past deprecation
        # before removal).
        assert REMOVED_WRAPPERS  # the registry keeps its history
        for name in REMOVED_WRAPPERS:
            entry = DEPRECATED_WRAPPERS[name]
            assert "Evaluator" in entry["replacement"]
            note = entry["removal_note"]
            assert "deprecated in PR" in note
            assert "removed in PR" in note

    def test_removed_wrappers_are_gone(self):
        # Removal means gone at *runtime* too: the legacy names no
        # longer resolve from their imported modules or the lazy top
        # level.  (The static side — absent from _api bindings and the
        # origin module's source — is covered by check_api_surface in
        # test_surfaces_consistent.)
        for dotted in REMOVED_WRAPPERS:
            module_name, _, attribute = dotted.rpartition(".")
            module = importlib.import_module(module_name)
            assert not hasattr(module, attribute)
            with pytest.raises(AttributeError):
                getattr(repro, attribute)

    def test_wrapper_replacements_are_live(self):
        # The documented replacements actually work where the wrappers
        # used to: session-bound apply_kernel and the cached evaluate.
        circuit = repro.OpticalStochasticCircuit(
            repro.paper_section5a_parameters(),
            repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
        )
        from repro.stochastic.image import linear_ramp

        session = repro.Evaluator(
            circuit, repro.EvalSpec(length=64, base_seed=3)
        )
        pixels = session.apply_kernel(linear_ramp(8), levels=8)
        assert pixels.shape == (8, 8)

        cache = repro.EvaluationCache()
        cached_session = repro.Evaluator(
            circuit,
            repro.EvalSpec(length=64, base_seed=3),
            repro.RuntimeConfig(cache=cache),
        )
        first = cached_session.evaluate([0.5])
        assert cached_session.evaluate([0.5]) is first
        assert cache.hits == 1


# -- live deprecation shims ------------------------------------------------------

SHIM_XS = [0.1, 0.55, 0.9]
SHIM_LENGTH = 256


def _single_fields(evaluation):
    return (
        evaluation.value,
        evaluation.output_bits.bits,
        evaluation.ideal_bits.bits,
        evaluation.received_power_mw,
        evaluation.select_levels,
    )


def _row_fields(batch):
    return (
        batch.values[0],
        batch.output_bits[0],
        batch.ideal_bits[0],
        batch.received_power_mw[0],
        batch.select_levels[0],
    )


def _statistics(result):
    return (
        result.values,
        result.expected,
        result.ones_count,
        result.transmission_bit_errors,
    )


SHARDED = repro.RuntimeConfig(workers=2, backend="thread")

# dotted name -> (call the shim, call its registry replacement)
SHIM_CASES = {
    "repro.simulation.functional.simulate_evaluation": (
        lambda shim, circuit, seeding: _single_fields(
            shim(circuit, SHIM_XS[1], length=SHIM_LENGTH, **seeding)
        ),
        lambda circuit, spec, rng: _row_fields(
            repro.Evaluator(circuit, spec).evaluate([SHIM_XS[1]], rng=rng)
        ),
    ),
    "repro.simulation.functional.simulate_sweep": (
        lambda shim, circuit, seeding: (
            shim(circuit, SHIM_XS, length=SHIM_LENGTH, **seeding),
        ),
        lambda circuit, spec, rng: (
            repro.Evaluator(circuit, spec).evaluate(SHIM_XS, rng=rng).values,
        ),
    ),
    "repro.simulation.runtime.simulate_batch_sharded": (
        lambda shim, circuit, seeding: _statistics(
            shim(
                circuit,
                SHIM_XS,
                length=SHIM_LENGTH,
                workers=2,
                backend="thread",
                **seeding,
            )
        ),
        lambda circuit, spec, rng: _statistics(
            repro.Evaluator(circuit, spec, SHARDED).evaluate(SHIM_XS, rng=rng)
        ),
    ),
}


@pytest.fixture(scope="module")
def noisy_circuit():
    # Starved probes: receiver noise flips bits, so the comparison
    # covers the noise draw, not only the noiseless decisions.
    return repro.OpticalStochasticCircuit(
        repro.paper_section5a_parameters(probe_power_mw=0.06),
        repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


class TestDeprecatedShims:
    """Every ``removed: False`` entry warns and equals its replacement."""

    def test_every_live_shim_has_a_case(self):
        assert set(LIVE_SHIMS) == set(SHIM_CASES)

    @pytest.mark.parametrize("seeding", ["rng", "base_seed"])
    @pytest.mark.parametrize("dotted", LIVE_SHIMS)
    def test_shim_warns_and_matches_replacement(
        self, noisy_circuit, dotted, seeding
    ):
        entry = DEPRECATED_WRAPPERS[dotted]
        assert "Evaluator" in entry["replacement"]
        shim = _resolve(dotted)
        assert getattr(repro, dotted.rpartition(".")[2]) is shim
        call_shim, call_replacement = SHIM_CASES[dotted]
        if seeding == "rng":
            shim_seeding = {"rng": np.random.default_rng(7)}
            spec = repro.EvalSpec(length=SHIM_LENGTH)
            rng = np.random.default_rng(7)
        else:
            shim_seeding = {"base_seed": 11}
            spec = repro.EvalSpec(length=SHIM_LENGTH, base_seed=11)
            rng = None
        with pytest.warns(
            DeprecationWarning, match=re.escape(entry["replacement"])
        ) as record:
            got = call_shim(shim, noisy_circuit, shim_seeding)
        # The warning points at the shim's caller, not into the package.
        assert [w.filename for w in record] == [__file__]
        expected = call_replacement(noisy_circuit, spec, rng)
        assert len(got) == len(expected)
        for shim_field, replacement_field in zip(got, expected):
            assert np.array_equal(shim_field, replacement_field)
