"""The package's one memo: a bounded, thread-safe cache of read-only values.

Every memo of the engine is a :class:`_BoundedCache`: the runtime's
evaluation cache, the per-circuit pass contexts, the fault channel's
mask and plane caches, and the build-once LFSR cycle, Sobol cycle and
popcount tables.  The module imports nothing from the package, so any
layer (the stochastic one included) can use it without an import cycle.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Generic,
    Hashable,
    Iterator,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np

_Value = TypeVar("_Value")

_SEEN_MAX = 4096
"""How many once-missed keys a scan-resistant cache remembers."""


def _arrays(value: Any) -> Iterator["np.ndarray[Any, Any]"]:
    """Every array of *value*, at any depth.

    The value itself, or an array held in its tuples (NamedTuples
    included), lists and dataclass fields.  Arrays inside any other
    object are not reached.
    """
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


class _BoundedCache(Generic[_Value]):
    """A thread-safe memo bounded by the total size of the values it keeps.

    ``size(value)`` weighs a value (1 by default, so *bound* counts
    entries).  Builds run unlocked, so two threads may build one key;
    the first stored value wins.  A build that raises stores nothing,
    and a value heavier than *bound* is returned, not kept.

    Every array of a built value (see :func:`_arrays`) is made
    read-only before the value is returned, whether it is stored or
    not: a hit returns the stored object by identity, so one caller's
    in-place edit would otherwise reach every later hit.  The hit path
    does no freezing.

    By default the cache is an LRU: a new value evicts the least
    recently used ones.  A *scan_resistant* cache never evicts: a key
    is admitted on its second miss only, so keys seen once take no
    room, and once full the cache keeps what it holds and returns new
    values unstored.  A working set larger than the bound then still
    hits on the part that fits, where an LRU would evict every entry
    before its reuse.
    """

    def __init__(
        self,
        bound: int,
        size: Callable[[_Value], int] = lambda value: 1,
        scan_resistant: bool = False,
    ) -> None:
        self.bound = bound
        self.total = 0
        self.hits = 0
        self.misses = 0
        self._size = size
        self._scan_resistant = scan_resistant
        self._entries: "OrderedDict[Hashable, Tuple[_Value, int]]" = (
            OrderedDict()
        )
        self._seen: Set[int] = set()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], _Value]) -> _Value:
        """The value stored under *key*, built (and maybe stored) on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0]
            self.misses += 1
        value = build()
        for array in _arrays(value):
            array.setflags(write=False)
        size = self._size(value)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                return entry[0]
            if self._scan_resistant:
                # Admit on a second miss, and only while there is room.
                digest = hash(key)
                if digest not in self._seen or self.total + size > self.bound:
                    if len(self._seen) >= _SEEN_MAX:
                        self._seen.clear()
                    self._seen.add(digest)
                    return value
                self._seen.discard(digest)
            if size > self.bound:
                return value
            self._entries[key] = (value, size)
            self.total += size
            while self.total > self.bound:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.total -= dropped
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._seen.clear()
            self.total = self.hits = self.misses = 0
