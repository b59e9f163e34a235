"""A small bounded LRU mapping.

Several layers memoise work keyed by ``(node, rows)`` — the out-of-core
oracle's memory plans, the model's per-node stage tables — and long
sweeps visit an unbounded set of row counts, so plain dict memos grow
without limit.  ``LRUCache`` is the shared bounded replacement: a plain
``OrderedDict`` under the hood, recency-ordered, evicting the least
recently used entry once ``maxsize`` is reached.

Thread safety is opt-in.  The experiment stack is process-parallel, so
the default cache takes no lock and pays nothing for one.  The serving
layer (:mod:`repro.serve`) runs model passes on an executor thread while
the asyncio event loop owns the coordinator, so *its* caches are built
with ``threadsafe=True`` and every operation then runs under an
``RLock``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterator, Optional

__all__ = ["LRUCache"]

class _NullLock:
    """No-op context manager standing in for the lock when the cache is
    single-threaded (the default) — stateless, shared, re-entrant."""

    __slots__ = ()

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_LOCK = _NullLock()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    maxsize:
        Maximum number of entries kept.  Must be positive — callers that
        want "no cache" should not construct one.
    threadsafe:
        When true, every operation (including the ``stats`` snapshot)
        runs under a re-entrant lock, so the cache may be shared between
        an event-loop thread and executor threads.  Default false: the
        lock is a shared no-op and the hot path pays one ``with`` on a
        stateless object.
    """

    def __init__(
        self,
        maxsize: int,
        *,
        threadsafe: bool = False,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock() if threadsafe else _NULL_LOCK
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Optional[Any] = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def pop(self, key: Hashable, default: Optional[Any] = None) -> Any:
        """Remove and return ``key``'s value (``default`` when absent).
        Leaves the hit/miss counters untouched: a pop is bookkeeping,
        not a lookup."""
        with self._lock:
            return self._data.pop(key, default)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def items(self):
        """Current ``(key, value)`` pairs, least recently used first."""
        return self._data.items()

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    @property
    def stats(self) -> dict:
        """Counters for diagnostics and benchmark JSON."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
