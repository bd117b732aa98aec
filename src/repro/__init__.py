"""repro — reproduction of *Stochastic Computing with Integrated Optics*.

A from-scratch implementation of the DATE 2019 paper by El-Derhalli,
Le Beux and Tahar: a photonic stochastic-computing architecture executing
Bernstein polynomial functions, together with the silicon-photonics device
substrate, the electronic ReSC baseline, analytical transmission/SNR/energy
models, the MRR-first and MZI-first design methods, bit-level functional
simulation, and the design-space-exploration harness that regenerates every
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import mrr_first_design
>>> design = mrr_first_design(order=2, wl_spacing_nm=1.0)
>>> round(design.pump_power_mw, 1)
591.8

Evaluation workloads bind their configuration once through the session
API (``repro.EvalSpec`` + ``repro.Evaluator``; see ``repro.session``),
and concurrent traffic is served by the async micro-batcher
``repro.BatchServer`` (see ``repro.serving``).
"""

from __future__ import annotations

from .constants import (
    PAPER_HEADLINE_ENERGY_PJ_PER_BIT,
    PAPER_OPTIMAL_WL_SPACING_NM,
)
from .errors import (
    CalibrationError,
    ConfigurationError,
    DeadlineExceededError,
    DesignInfeasibleError,
    OverloadedError,
    PhysicalModelError,
    ReproError,
    ServingError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "PhysicalModelError",
    "DesignInfeasibleError",
    "CalibrationError",
    "SimulationError",
    "ServingError",
    "OverloadedError",
    "DeadlineExceededError",
    "PAPER_OPTIMAL_WL_SPACING_NM",
    "PAPER_HEADLINE_ENERGY_PJ_PER_BIT",
]


def __getattr__(name):
    """Lazily expose the high-level API to keep ``import repro`` light.

    The heavy subpackages (the numpy-backed core, simulation and serving)
    are imported on first attribute access rather than at package import
    time.  Uses ``importlib`` rather than ``from . import _api`` because
    the latter re-enters this ``__getattr__`` while ``_api`` is still
    initializing.
    """
    import importlib

    if name.startswith("_"):
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    api = importlib.import_module("repro._api")
    try:
        value = getattr(api, name)
    except AttributeError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    globals()[name] = value
    return value
