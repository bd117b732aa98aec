"""The serving tier's injectable time source.

Everything time-like in the server flows through one :class:`Clock`.
That is the repo's bit-exactness discipline applied to serving code: a
deadline or degradation scenario is a deterministic function of
(clock script, failure script), so the tests in
``tests/test_serving_resilience.py`` assert exact counter values
instead of sleeping and hoping (see CONTRIBUTING "Testing resilience
code with a seeded clock").

* :class:`MonotonicClock` — the production clock (``time.monotonic``).
* :class:`ManualClock` — the test clock: time only moves when the test
  advances it.
"""

from __future__ import annotations

import time

from ..errors import ConfigurationError

__all__ = [
    "Clock",
    "ManualClock",
    "MonotonicClock",
]


class Clock:
    """The server's single source of time.

    ``time()`` is a monotonic float in seconds.  Deadlines, the
    service-time estimate and latency metrics all read this object, so
    substituting :class:`ManualClock` makes the whole serving tier's
    temporal behaviour a pure function of the test script.
    """

    def time(self) -> float:
        raise NotImplementedError


class MonotonicClock(Clock):
    """Production clock: ``time.monotonic``."""

    def time(self) -> float:
        return time.monotonic()


class ManualClock(Clock):
    """Deterministic test clock: time moves only when told to.

    ``advance`` moves time from the test body (thread-safe enough for
    the single float it mutates: the GIL makes the store atomic, and
    tests advance between awaits, not concurrently with readers).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def time(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0.0:
            raise ConfigurationError(
                f"cannot advance a monotonic clock by {seconds!r}"
            )
        self._now += float(seconds)
