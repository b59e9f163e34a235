"""Spans timed from outside the program, around each layer's public calls.

:func:`install` replaces the public entry points of the ``repro``
layers with thin wrappers that record one span per call: an id, the id
of the span that caused it, a name, start and end (monotonic seconds)
and a few attributes.  Spans stay in memory; :meth:`Tracer.dump` writes
them out once at the end.  Nothing inside ``src/`` changes: a function
imported by name into other modules (``from repro.sim.executor import
emulate``) is rebound in every ``repro`` module that holds it, and
methods are replaced on their class.

The parent of a span is taken from a context variable, so nesting is
right for plain calls, for asyncio tasks (each task copies its context)
and for executor threads (which start with an empty context, so their
spans are top level in that thread).

:func:`analyse` turns a span list into per-layer numbers: busy time,
self time (busy time minus the part covered by child spans) and the
share of a wall interval that no top-level span covers.  It needs no
``repro`` import, so ``run.py`` can call it too.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_now = time.monotonic

#: Layers, in the order reports list them.
LAYERS = ("experiments", "instrument", "core", "search", "sim",
          "parallel", "serve")

#: Metric name -> ``SearchAlgorithm.name`` of each searcher.
SEARCHERS = {"gbs": "gbs", "genetic": "genetic", "annealing": "annealing",
             "random": "random", "sweep": "spectrum-sweep"}

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """In-memory span store."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        #: ``[id, parent, name, start, end, attrs]`` per finished span.
        self.spans: List[list] = []

    def wrap(self, fn: Callable, name: Any,
             attrs: Optional[Callable] = None) -> Callable:
        """``name`` is a string or ``name(args, kwargs)``; ``attrs`` is
        ``attrs(args, kwargs, result) -> dict`` for span attributes."""
        spans = self.spans
        ids = self._ids

        def _open(args, kwargs):
            span_id = next(ids)
            label = name(args, kwargs) if callable(name) else name
            return span_id, label, _current.set(span_id), _now()

        def _close(span_id, label, token, start, args, kwargs, result):
            end = _now()
            _current.reset(token)  # back to the parent span's id
            extra = attrs(args, kwargs, result) if attrs is not None else None
            spans.append([span_id, _current.get(), label, start, end, extra])

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                opened = _open(args, kwargs)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    _close(*opened, args, kwargs, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = _open(args, kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                _close(*opened, args, kwargs, result)

        return wrapper

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "extra": extra or {}}, fh)


def _rebind(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module attribute holding ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def _n_candidates(args, kwargs) -> int:
    """How many distributions one ``MhetaModel.predict`` call scores."""
    if kwargs.get("batch"):
        return len(args[1] if len(args) > 1 else kwargs["distribution"])
    return 1


def _predict_attrs(args, kwargs, result):
    model = args[0]
    table = model.table_cache_stats
    return {"evals": _n_candidates(args, kwargs), "model": id(model),
            "misses": table["misses"], "evictions": table["evictions"]}


def _run_attrs(args, kwargs, result):
    return {"fast_forwarded": bool(getattr(result, "fast_forwarded", False))}


def _search_attrs(args, kwargs, result):
    return {"evals": int(getattr(result, "evaluations", 0))}


def _panel_name(args, kwargs) -> str:
    panel = args[0] if args else kwargs.get("panel", "all")
    return "experiments.fig9_" + ("prefetch" if panel == "jacobi-prefetch"
                                  else str(panel))


def _serve_op(args, kwargs) -> str:
    query = args[1] if len(args) > 1 else kwargs["query"]
    return f"serve.{query.op}"


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer.  Imports the whole
    ``repro`` package first so that every module holding a by-name
    import is rebound."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)

    from repro.core.model import MhetaModel
    from repro.experiments import accuracy, common
    from repro.instrument import collect
    from repro.parallel import runner, verify
    from repro.search.base import SearchAlgorithm
    from repro.serve.coordinator import ServeCoordinator
    from repro.sim import executor

    functions: Sequence[Tuple[Callable, Any, Optional[Callable]]] = (
        (collect.collect_inputs, "instrument.collect", None),
        (executor.emulate, "sim.emulate", None),
        (executor.emulate_many, "sim.emulate_many", None),
        (accuracy.fig9_accuracy, _panel_name, None),
        (common.run_spectrum, "experiments.run_spectrum", None),
        (common.build_model, "experiments.build_model", None),
        (verify.verify_distributions, "parallel.verify", None),
    )
    methods: Sequence[Tuple[type, str, Any, Optional[Callable]]] = (
        (MhetaModel, "__init__", "core.build", None),
        (MhetaModel, "predict", "core.predict", _predict_attrs),
        (SearchAlgorithm, "search",
         lambda a, k: f"search.{a[0].name}", _search_attrs),
        (executor.ClusterEmulator, "run", "sim.run", _run_attrs),
        (runner.ParallelRunner, "map", "parallel.map", None),
        (ServeCoordinator, "handle", _serve_op, None),
    )
    for fn, name, attrs in functions:
        if _rebind(fn, tracer.wrap(fn, name, attrs)) == 0:
            raise RuntimeError(f"no binding of {fn.__qualname__} to wrap")
    for cls, attr, name, attrs in methods:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, attrs))


# -- analysis (no repro import) ------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _clip(intervals, lo: float, hi: float) -> List[Tuple[float, float]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


class SpanIndex:
    """Parent/child lookups over one span list."""

    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: Dict[Any, List[list]] = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def ancestors(self, span: list):
        parent = self.by_id.get(span[1])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent[1])

    def self_intervals(self, span: list) -> List[Tuple[float, float]]:
        """The parts of ``span`` that none of its children cover."""
        out = []
        cursor = span[3]
        for lo, hi in sorted(_clip([(c[3], c[4]) for c in
                                    self.children.get(span[0], [])],
                                   span[3], span[4])):
            if lo > cursor:
                out.append((cursor, lo))
            cursor = max(cursor, hi)
        if span[4] > cursor:
            out.append((cursor, span[4]))
        return out

    def top_level(self) -> List[list]:
        return [s for s in self.spans if s[1] not in self.by_id]


def analyse(spans: List[list], wall: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer self time and coverage of the ``wall`` interval.

    ``share.<layer>_pct`` is the share of the wall interval during which
    some span of the layer runs its own code (no child span of it is
    open); ``trace.uncovered_pct`` is the share no top-level span
    covers.  On a single thread the shares add up to 100 minus the
    uncovered share.  On a server, requests overlap and work runs on an
    executor thread (whose spans are top level), so shares can overlap.
    """
    lo, hi = wall
    length = max(hi - lo, 1e-12)
    index = SpanIndex(spans)
    own: Dict[str, list] = {layer: [] for layer in LAYERS}
    for s in spans:
        if layer_of(s[2]) in own:
            own[layer_of(s[2])].extend(index.self_intervals(s))
    covered = _union(_clip([(s[3], s[4]) for s in index.top_level()], lo, hi))
    out = {f"share.{layer}_pct": 100.0 * _union(_clip(iv, lo, hi)) / length
           for layer, iv in own.items()}
    out["trace.uncovered_pct"] = 100.0 * (1.0 - covered / length)
    return out


def outermost(index: SpanIndex, prefix: str,
              exclude: Sequence[str] = ()) -> List[list]:
    """Spans named ``prefix*`` with no ancestor named ``prefix*`` or
    ``exclude*`` (so emulation inside an instrumented iteration is not
    counted as a ``sim`` call of its own)."""
    blocked = (prefix,) + tuple(exclude)
    out = []
    for s in index.spans:
        if not s[2].startswith(prefix):
            continue
        if any(a[2].startswith(blocked) for a in index.ancestors(s)):
            continue
        out.append(s)
    return out


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """The span-derived per-layer metrics (seconds and counts)."""
    index = SpanIndex(spans)

    def busy(items):
        return sum((s[4] - s[3] for s in items), 0.0)

    sim_calls = outermost(index, "sim.", exclude=("instrument.",))
    sim_runs = [s for s in index.spans if s[2] == "sim.run"
                and not any(a[2].startswith("instrument.")
                            for a in index.ancestors(s))]
    predicts = outermost(index, "core.predict")
    builds = outermost(index, "core.build")
    collects = outermost(index, "instrument.collect")
    out = {
        "sim.emulate_s": busy(sim_calls),
        "sim.emulate_runs": float(len(sim_runs)),
        "sim.fast_forwarded_runs": float(
            sum(1 for s in sim_runs if (s[5] or {}).get("fast_forwarded"))
        ),
        "experiments.fig9_all_s": busy(
            [s for s in index.spans if s[2] == "experiments.fig9_all"]),
        "experiments.fig9_prefetch_s": busy(
            [s for s in index.spans if s[2] == "experiments.fig9_prefetch"]),
        "core.predict_s": busy(predicts),
        "core.predict_evals": float(
            sum((s[5] or {}).get("evals", 0) for s in predicts)),
        "core.build_s": busy(builds),
        "instrument.collect_s": busy(collects),
        "instrument.calls": float(len(collects)),
    }
    runs = out["sim.emulate_runs"]
    out["sim.ms_per_run"] = 1000.0 * out["sim.emulate_s"] / runs if runs else 0.0
    evals = out["core.predict_evals"]
    out["core.us_per_eval"] = (
        1e6 * out["core.predict_s"] / evals if evals else 0.0
    )
    for algo, name in SEARCHERS.items():
        searches = [s for s in index.spans if s[2] == f"search.{name}"]
        out[f"search.{algo}_s"] = busy(searches)
        out[f"search.{algo}_evals"] = float(
            sum((s[5] or {}).get("evals", 0) for s in searches))
    return out
