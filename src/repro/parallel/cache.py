"""Content-keyed memoisation of emulated runs.

Spectrum sweeps, accuracy panels, verification rounds and spread tables
all reduce to the same primitive: emulate one ``(cluster, program,
distribution)`` triple.  Different experiments — and repeated
CLI/benchmark invocations — revisit the same triples constantly (every
leg of the spectrum shares its endpoints with the next), so
:class:`RunCache` memoises the whole run, in memory and optionally on
disk.  The model's prediction is not stored: it costs microseconds to
recompute.

Keys are *content* hashes, not object identities or names: two
``ClusterSpec`` objects describing the same hardware hash identically,
and any change to a node's memory, a program's row count, or a
perturbation flag changes the key.  Hashing uses SHA-256 over a
canonical recursive encoding (dataclasses by field, numpy arrays by
shape/dtype/bytes), so keys are stable across processes and sessions —
``PYTHONHASHSEED`` never enters.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import math
import os
import sys
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.util.lru import LRUCache

__all__ = ["RunCache", "content_key", "default_run_cache"]

def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-encodable structure that captures content."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; float('nan') etc. included.
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.name]
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return [
            "ndarray",
            list(data.shape),
            str(data.dtype),
            hashlib.sha256(data.tobytes()).hexdigest(),
        ]
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            "dc",
            type(obj).__name__,
            [
                [f.name, _canonical(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [_canonical(v) for v in obj]]
    if isinstance(obj, dict):
        return [
            "map",
            sorted(
                ([_canonical(k), _canonical(v)] for k, v in obj.items()),
                key=json.dumps,
            ),
        ]
    # Last resort: a stable repr (covers simple value objects).
    return ["repr", type(obj).__name__, repr(obj)]


@contextlib.contextmanager
def _file_lock(path: Path) -> Iterator[None]:
    """Exclusive inter-process lock covering updates of ``path``.

    ``os.replace`` makes each write atomic, but the read-merge-replace
    in :meth:`RunCache.save` is not: two processes that both read
    before either replaces silently drop one side's entries.  An
    ``flock`` over the whole critical section serialises the merge.
    The lock is taken on the *parent directory's* fd: the data file's
    inode changes on every ``os.replace`` (locking it races), and a
    sidecar lock file would either litter the directory or race its
    own cleanup.  Platforms without ``fcntl`` fall back to the
    unserialised (but still atomic-per-write) behaviour.
    """
    try:
        import fcntl
    except ImportError:  # non-POSIX: keep the previous best effort
        yield
        return
    fd = os.open(str(path.parent), os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def _finite(value: Any) -> float:
    """``value`` as a float when it is a finite JSON number."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return float(value)


def _digest(tokens: Any) -> str:
    """SHA-256 hex digest of already-canonicalised tokens."""
    payload = json.dumps(tokens, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(payload.encode()).hexdigest()


def content_key(*objects: Any) -> str:
    """SHA-256 hex digest of the objects' canonical content encoding."""
    return _digest([_canonical(obj) for obj in objects])


# Identity-memoised partial digests for the run-cache hot path: a batch
# (or a hit-heavy loop) re-keys the same cluster/program objects over
# and over, and canonicalising a full ProgramStructure dominates the
# cost of a cache hit.  Keys are object identities guarded by weakrefs
# (a recycled id() after garbage collection must never alias), and the
# memo is tiny — a handful of live configurations at a time.
_KEY_BASE_MEMO: Dict[tuple, Tuple[tuple, str]] = {}
_KEY_BASE_MEMO_MAX = 128


def _weak_guards(objects: tuple) -> Optional[tuple]:
    """Weak references proving the memoised identities are still the
    same objects; ``None`` when any object is not weakref-able."""
    refs = []
    for obj in objects:
        if obj is None:
            refs.append(None)
            continue
        try:
            refs.append(weakref.ref(obj))
        except TypeError:
            return None
    return tuple(refs)


def _guards_hold(refs: tuple, objects: tuple) -> bool:
    return all(
        (ref is None and obj is None)
        or (ref is not None and ref() is obj)
        for ref, obj in zip(refs, objects)
    )


class RunCache:
    """Content-keyed memoisation of whole emulator ``RunResult``s.

    The cache keeps the full :class:`~repro.sim.executor.RunResult`
    (total, per-node times, iteration ends), so any layer that
    re-emulates an identical configuration — grid experiments sharing
    spectrum endpoints across panels, verification rounds, the adaptive
    runtime re-running its static baseline, repeat benchmark rounds —
    gets the stored run back instead.

    Keys follow the same content-hash discipline as :func:`content_key`
    everywhere else.  An in-memory cache is the same bounded LRU as the
    prediction table cache (:class:`repro.util.lru.LRUCache`), so long
    sweeps hold memory at a fixed ceiling.

    The stored payload is *frozen* — its mutable list fields are
    converted to tuples on :meth:`put` and fresh lists are rebuilt on
    :meth:`get` — so a caller mutating a returned result can never
    poison the cache, without the deep defensive copy the hit path
    used to pay.

    ``path`` adds an on-disk tier: loaded eagerly, persisted by
    :meth:`save` as an atomic read-merge-replace under the
    parent-directory file lock, so a fleet of processes shares one
    emulation history.  A cache with a path is the persistent record of
    every run put into it, so it is unbounded: an LRU would silently
    drop runs before they reach the file.  ``max_entries`` bounds
    in-memory caches only (default :attr:`DEFAULT_MAX_ENTRIES`).
    """

    DEFAULT_MAX_ENTRIES = 512

    def __init__(
        self,
        max_entries: Optional[int] = None,
        path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        if self.path is None:
            bound = (
                self.DEFAULT_MAX_ENTRIES if max_entries is None else max_entries
            )
        elif max_entries is None:
            bound = sys.maxsize
        else:
            raise ValueError(
                "a RunCache with a path keeps every run; max_entries "
                "bounds in-memory caches only"
            )
        self._store = LRUCache(bound)
        self._lock = threading.RLock()
        self.loaded_from_disk = 0
        if self.path is not None and self.path.exists():
            for k, result in self._read_disk().items():
                self._store.put(k, result)
                self.loaded_from_disk += 1

    @staticmethod
    def key_base(
        cluster,
        program,
        iterations: int,
        perturbation,
        *,
        instrumented: bool = False,
        fast_forward: bool = True,
        dynamics=None,
        io_mode: str = "auto",
        iteration_offset: int = 0,
    ) -> str:
        """Partial content hash over everything but the distribution.

        Memoised on object identity (weakref-guarded), because batched
        emulation and hit-heavy loops re-key the same cluster/program
        objects constantly and canonicalising them dominates a hit.

        ``dynamics``/``io_mode``/``iteration_offset`` contribute to the
        digest only when they differ from their static defaults, so
        every key minted before those keywords existed is reproduced
        byte-for-byte.
        """
        objects = (cluster, program, perturbation, dynamics)
        memo_key = (
            id(cluster), id(program), id(perturbation), id(dynamics),
            int(iterations), bool(instrumented), bool(fast_forward),
            str(io_mode), int(iteration_offset),
        )
        entry = _KEY_BASE_MEMO.get(memo_key)
        if entry is not None:
            refs, base = entry
            if _guards_hold(refs, objects):
                return base
        payload = [
            "run",
            _canonical(cluster),
            _canonical(program),
            int(iterations),
            _canonical(perturbation),
            bool(instrumented),
            bool(fast_forward),
        ]
        if dynamics is not None:
            payload.extend(["dynamics", _canonical(dynamics)])
        if io_mode != "auto":
            payload.extend(["io_mode", str(io_mode)])
        if iteration_offset:
            payload.extend(["offset", int(iteration_offset)])
        base = _digest(payload)
        refs = _weak_guards(objects)
        if refs is not None:
            if len(_KEY_BASE_MEMO) >= _KEY_BASE_MEMO_MAX:
                _KEY_BASE_MEMO.clear()
            _KEY_BASE_MEMO[memo_key] = (refs, base)
        return base

    @staticmethod
    def key_from_base(base: str, counts) -> str:
        """Full run key from a :meth:`key_base` digest plus the
        candidate's GEN_BLOCK row counts."""
        payload = base + "|" + ",".join(str(int(c)) for c in counts)
        return hashlib.sha256(payload.encode()).hexdigest()

    @staticmethod
    def key(
        cluster,
        program,
        distribution,
        iterations: int,
        perturbation,
        *,
        instrumented: bool = False,
        fast_forward: bool = True,
        dynamics=None,
        io_mode: str = "auto",
        iteration_offset: int = 0,
    ) -> str:
        """Content hash of everything an emulated run depends on.

        ``fast_forward`` is part of the key because the extrapolated
        tail matches full simulation only to ~1e-9 relative — a caller
        that explicitly asked for full simulation must never receive a
        fast-forwarded result (or vice versa).
        """
        return RunCache.key_from_base(
            RunCache.key_base(
                cluster,
                program,
                iterations,
                perturbation,
                instrumented=instrumented,
                fast_forward=fast_forward,
                dynamics=dynamics,
                io_mode=io_mode,
                iteration_offset=iteration_offset,
            ),
            distribution.counts,
        )

    # -- frozen payloads ------------------------------------------------------

    @staticmethod
    def _freeze(result):
        """Immutable-field copy safe to share from the cache."""
        if not hasattr(result, "per_node_seconds"):
            return result
        return dataclasses.replace(
            result,
            per_node_seconds=tuple(result.per_node_seconds),
            iteration_ends=tuple(
                tuple(ends) for ends in result.iteration_ends
            ),
        )

    @staticmethod
    def _thaw(result):
        """Fresh mutable-field copy handed to the caller."""
        if not hasattr(result, "per_node_seconds"):
            return result
        return dataclasses.replace(
            result,
            per_node_seconds=list(result.per_node_seconds),
            iteration_ends=[list(ends) for ends in result.iteration_ends],
        )

    def get(self, key: str):
        """A private mutable copy of the cached
        :class:`~repro.sim.executor.RunResult`, or ``None``."""
        hit = self._store.get(key)
        if hit is None:
            return None
        return self._thaw(hit)

    def put(self, key: str, result) -> None:
        self._store.put(key, self._freeze(result))

    def put_many(self, pairs: Iterable[Tuple[str, Any]]) -> None:
        """Store a whole batch of ``(key, result)`` pairs (one batched
        emulation pass lands its population in one call)."""
        for key, result in pairs:
            self.put(key, result)

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hits(self) -> int:
        return self._store.hits

    @property
    def misses(self) -> int:
        return self._store.misses

    @property
    def stats(self) -> dict:
        stats = self._store.stats
        stats["loaded_from_disk"] = self.loaded_from_disk
        return stats

    # -- on-disk tier ---------------------------------------------------------

    @staticmethod
    def _serialize(result) -> list:
        return [
            result.total_seconds,
            list(result.per_node_seconds),
            [list(ends) for ends in result.iteration_ends],
            [int(c) for c in result.distribution.counts],
            int(result.iterations),
            bool(result.fast_forwarded),
        ]

    @staticmethod
    def _deserialize(payload):
        """A frozen result from its JSON form; raises ``ValueError`` or
        ``TypeError`` on anything :meth:`_serialize` cannot have written."""
        from repro.distribution.genblock import GenBlock
        from repro.sim.executor import RunResult

        total, per_node, ends, counts, iterations, fast = payload
        if not (
            isinstance(per_node, list)
            and isinstance(ends, list)
            and isinstance(counts, list)
            and all(isinstance(row, list) for row in ends)
            and len(per_node) == len(ends) == len(counts) > 0
            and all(type(c) is int and 0 <= c < 2**31 for c in counts)
            and type(iterations) is int
            and iterations >= 0
            and isinstance(fast, bool)
        ):
            raise ValueError(f"malformed run-cache entry {payload!r}")
        return RunResult(
            total_seconds=_finite(total),
            per_node_seconds=tuple(_finite(v) for v in per_node),
            iteration_ends=tuple(
                tuple(_finite(v) for v in row) for row in ends
            ),
            distribution=GenBlock(tuple(counts)),
            iterations=iterations,
            fast_forwarded=fast,
        )

    def _read_disk(self) -> Dict[str, Any]:
        """Parse the on-disk file into frozen results.  A file that is
        unreadable, not a JSON object, or holds any malformed entry is
        treated as empty: a half-written or foreign file must not brick
        every later run, and a malformed entry must never be served."""
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
            if not isinstance(raw, dict):
                return {}
            return {k: self._deserialize(v) for k, v in raw.items()}
        except (OSError, ValueError, TypeError, RecursionError):
            return {}

    def save(self) -> None:
        """Persist to ``path`` (no-op for purely in-memory caches).

        The write is a read-merge-replace: entries another process wrote
        to the file since this cache loaded it are re-read and kept
        (this cache's runs win on key collisions — runs are
        deterministic, so colliding values agree anyway).  The whole
        read-merge-replace runs under an inter-process file lock and the
        merged payload lands via a same-directory temp file +
        :func:`os.replace`, so a crash mid-write can never leave a
        truncated file and two processes saving interleaved lose
        nothing.
        """
        if self.path is None:
            return
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with _file_lock(self.path):
                merged: Dict[str, Any] = {}
                if self.path.exists():
                    merged.update(self._read_disk())
                merged.update(self._store.items())
                payload = {
                    k: self._serialize(v) for k, v in sorted(merged.items())
                }
                fd, tmp = tempfile.mkstemp(
                    dir=self.path.parent, prefix=self.path.name,
                    suffix=".tmp",
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        fh.write(
                            json.dumps(payload, indent=0, sort_keys=True)
                            + "\n"
                        )
                    os.replace(tmp, self.path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise


#: Process-wide shared run cache used by :func:`repro.sim.executor.emulate`
#: when no explicit cache is passed.  Worker processes of a parallel
#: sweep each hold their own (caches do not cross ``fork``/``spawn``
#: boundaries usefully), which is still a win: a worker revisits the
#: same configurations across the tasks it is handed.
_DEFAULT_RUN_CACHE: Optional[RunCache] = None


def default_run_cache() -> RunCache:
    """The lazily created process-wide :class:`RunCache`."""
    global _DEFAULT_RUN_CACHE
    if _DEFAULT_RUN_CACHE is None:
        _DEFAULT_RUN_CACHE = RunCache()
    return _DEFAULT_RUN_CACHE
