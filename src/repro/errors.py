"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from physical-model violations.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "PhysicalModelError",
    "DesignInfeasibleError",
    "CalibrationError",
    "SimulationError",
    "ServingError",
    "OverloadedError",
    "DeadlineExceededError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter is outside its documented domain.

    Raised eagerly at object construction time (e.g. a coupling coefficient
    outside ``(0, 1]`` or a negative laser power) so that invalid models
    cannot silently propagate through a design-space sweep.
    """


class PhysicalModelError(ReproError):
    """An analytical model was evaluated outside its validity region."""


class DesignInfeasibleError(ReproError):
    """A design method cannot satisfy its constraints.

    Examples: the worst-case eye closes completely so no finite probe laser
    power reaches the BER target, or a WDM grid does not fit inside the
    filter free spectral range.
    """


class CalibrationError(ReproError):
    """A calibration fit failed to converge or missed its targets."""


class SimulationError(ReproError):
    """A functional or transient simulation reached an inconsistent state."""


class ServingError(ReproError):
    """Base class for request-path failures of the serving tier.

    Raised per request, never per server: one client's overload or
    missed deadline must not take the batcher down with it.
    """


class OverloadedError(ServingError):
    """The server shed this request to protect the ones it admitted.

    Raised by the ``"shed"`` admission policy when the bounded request
    queue is full (and by ``"degrade"`` as its last resort once the
    precision ladder alone cannot absorb the load).  Clients should
    back off and retry; the server stays healthy.
    """


class DeadlineExceededError(ServingError):
    """The request's deadline passed (or provably cannot be met).

    Raised at batch formation: a request whose deadline has already
    expired — or whose remaining budget is smaller than the measured
    batch service time — is failed immediately instead of silently
    occupying a batch slot whose result nobody is waiting for.
    """
