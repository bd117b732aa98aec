"""Tests for the top-level public API surface."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.session import DEPRECATED_WRAPPERS
from repro.tools.lint import check_api_surface

PACKAGE_DIR = Path(repro.__file__).resolve().parent

REMOVED_WRAPPERS = sorted(
    name for name, entry in DEPRECATED_WRAPPERS.items() if entry["removed"]
)


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
        # and lazy surfaces disjoint, lazy __getattr__ present: all
        # delegated to the RL002 checker so the test and `repro-lint`
        # can never drift apart.  Removed wrappers are checked at
        # runtime in test_removed_wrappers_are_gone.
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
        # Removal means gone: the legacy names no longer resolve from
        # their origin modules or through the lazy top level (which
        # serves every _api binding).
        for dotted in REMOVED_WRAPPERS:
            module_name, _, attribute = dotted.rpartition(".")
            # A subscripted key (KERNELS['numpy']) names an entry of a
            # table that went with it: check the table's name.
            attribute = attribute.partition("[")[0]
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



# Runs in a fresh interpreter with scipy blocked: ``sys.modules[name] =
# None`` makes every ``import scipy...`` raise ImportError, so each step
# below proves that path needs numpy alone.
NUMPY_ONLY_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None

    import repro
    from repro import _api
    from repro.stochastic import required_stream_length

    for name in _api.__all__:
        getattr(repro, name)
    circuit = repro.OpticalStochasticCircuit.from_design(
        repro.mrr_first_design(order=2, wl_spacing_nm=1.0),
        repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
    )
    result = repro.Evaluator(circuit, repro.EvalSpec(length=256)).evaluate(
        [0.25, 0.5]
    )
    assert len(result.values) == 2
    assert repro.BatchServer is not None
    assert repro.gamma_bernstein().is_sc_implementable()
    assert repro.required_snr_for_ber(1e-6) > 0.0
    assert required_stream_length(0.01) > 0
    loaded = [m for m in sys.modules if m.startswith("scipy.")]
    assert sys.modules["scipy"] is None and not loaded, loaded
    print("numpy-only ok")
    """
)


class TestNumpyOnlyRuntime:
    def test_api_and_evaluation_run_without_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
        completed = subprocess.run(
            [sys.executable, "-c", NUMPY_ONLY_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "numpy-only ok"
