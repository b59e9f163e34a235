"""MhetaModel: the assembled execution-time predictor.

``predict`` walks the program's parallel sections with per-node clocks:
stage times come from :class:`~repro.core.io_model.StageTimeModel`
(measured computation rescaled to the candidate distribution, plus
Equation 1/2 I/O from the out-of-core oracle), and section-closing
communication comes from :class:`~repro.core.comm.SectionTimeline`
(Equation 3/4 waits, reduction, allgather).  The predicted application
time is the slowest node's clock after the final iteration.

Two evaluation kernels produce those clocks:

* ``kernel="scalar"`` — the reference implementation: per-tile,
  per-stage, per-block Python loops, kept exactly as originally
  written so the fast path always has a bit-stable baseline to be
  checked against.
* ``kernel="plan"`` (default) — the model's compiled
  :class:`~repro.core.plan.EvaluationPlan`: each node's tiles x stages
  become closed-form array expressions
  (:meth:`StageTimeModel.section_tile_times`) in a flat row store, the
  sections fold into max-plus iteration matrices, and one vectorised
  steady-state walk scores single candidates and whole populations
  alike.  It agrees with the scalar reference to rounding (<= 1e-12
  relative, pinned by the golden equivalence suites in
  ``tests/test_kernel_equivalence.py`` and
  ``tests/test_batch_equivalence.py``).

Phase reports (``report=True``) and programs with an
``iteration_profile`` (no steady state to extrapolate) take the scalar
reference walk on either kernel; each iteration-profile fallback of a
plan model is counted as ``model/scalar_fallbacks``.

The per-node stage tables depend only on ``(node, rows)`` — not on what
the *other* nodes were assigned — so a bounded LRU inside the model
reuses them across *every* prediction: a hill-climb move changes two
nodes' row counts, so P-2 nodes hit the cache even through
single-candidate :meth:`predict` calls.

The model deliberately knows nothing about relative CPU powers, disk
bandwidths, page caches, or per-row work variation: everything
hardware- or application-specific enters through the measured
``MhetaInputs``, exactly as in the paper.  Only node *memory capacities*
are read from the cluster description, because the out-of-core heuristic
needs them (Section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.core.comm import SectionTimeline
from repro.core.io_model import StageTimeModel
from repro.core.oracle import OutOfCoreOracle
from repro.core.report import (
    NodePrediction,
    PredictionReport,
    SectionBreakdown,
)
from repro.distribution.genblock import GenBlock
from repro.exceptions import ModelError
from repro.instrument.inputs import MhetaInputs
from repro.obs import Recorder
from repro.program.sections import CommPattern, ParallelSection
from repro.program.structure import ProgramStructure
from repro.util.lru import LRUCache

__all__ = ["MhetaModel", "KERNELS", "DEFAULT_TABLE_CACHE_ENTRIES"]

#: Selectable evaluation kernels: the scalar reference and the compiled
#: :class:`repro.core.plan.EvaluationPlan` (the default).
KERNELS = ("scalar", "plan")

#: Default bound of the per-``(node, rows)`` table cache.  Generous for
#: any search (a 200-evaluation sweep over 8 nodes touches at most 1600
#: distinct keys) while keeping long unattended sweeps at a fixed memory
#: ceiling.
DEFAULT_TABLE_CACHE_ENTRIES = 4096


def _tile_rows(rows: int, tiles: int, tile: int) -> int:
    lo = (rows * tile) // tiles
    hi = (rows * (tile + 1)) // tiles
    return hi - lo


def _pattern_message_counts(
    pattern: CommPattern, n_nodes: int, tiles: int
) -> Tuple[List[int], List[int]]:
    """Per-node ``(sends, recvs)`` message counts for one section's
    closing communication, per iteration.

    Every pattern's schedule is data-independent, so the counts are a
    pure function of ``(pattern, P, tiles)``.  The reduction replays the
    binomial reduce-to-0 + broadcast schedule of
    :meth:`SectionTimeline._reduce_broadcast` (counting posts instead of
    advancing clocks); the others have closed forms.  Used by the
    telemetry phase breakdown to charge ``send_overhead``/
    ``recv_overhead`` seconds to the node that pays them.
    """
    P = n_nodes
    sends = [0] * P
    recvs = [0] * P
    if P <= 1 or pattern is CommPattern.NONE:
        return sends, recvs
    if pattern is CommPattern.NEAREST_NEIGHBOR:
        for n in range(P):
            neighbours = (1 if n > 0 else 0) + (1 if n < P - 1 else 0)
            sends[n] = neighbours
            recvs[n] = neighbours
        return sends, recvs
    if pattern is CommPattern.PIPELINE:
        for n in range(P):
            if n < P - 1:
                sends[n] = tiles
            if n > 0:
                recvs[n] = tiles
        return sends, recvs
    if pattern is CommPattern.ALLGATHER:
        for n in range(P):
            sends[n] = P - 1
            recvs[n] = P - 1
        return sends, recvs
    if pattern is CommPattern.REDUCTION:
        exited = [False] * P
        mask = 1
        while mask < P:
            for n in range(P):
                if not exited[n] and (n & mask):
                    sends[n] += 1
                    exited[n] = True
            for n in range(P):
                if not exited[n] and not (n & mask) and (n | mask) < P:
                    recvs[n] += 1
            mask <<= 1
        pot = 1
        while pot < P:
            pot <<= 1
        mask = pot >> 1
        while mask > 0:
            for n in range(P):
                if n % (2 * mask) == 0 and n + mask < P:
                    sends[n] += 1
                elif n % (2 * mask) == mask:
                    recvs[n] += 1
            mask >>= 1
        return sends, recvs
    raise ModelError(f"unknown communication pattern: {pattern}")


def _source_read(
    stage_model: StageTimeModel, n: int, section: ParallelSection, plan
) -> float:
    """Disk read charged for materialising one outgoing message."""
    src = section.comm.source_variable
    if (
        src is not None
        and section.comm.pattern is CommPattern.NEAREST_NEIGHBOR
    ):
        placement = plan.placements.get(src)
        if placement is not None and not placement.in_core:
            return stage_model.read_block_seconds(
                n, src, section.comm.message_bytes
            )
    return 0.0


def _node_tables_numpy(
    stage_model: StageTimeModel,
    sections: Sequence[ParallelSection],
    offsets: Sequence[int],
    n: int,
    rows: int,
    plan,
):
    """One node's stage tables as arrays — what the compiled plan's row
    store is filled from: one array kernel call per section instead of
    the reference path's tiles x stages Python loops.  Sections are
    packed along one flat tile axis (section ``si`` owns columns
    ``offsets[si]:offsets[si + 1]``).

    Single-tile sections go through the scalar per-stage accumulation:
    the closed-form array kernel only amortises its call overhead across
    many tiles, and the scalar path is exact against the reference by
    construction.
    """
    totals = np.empty(offsets[-1])
    computes = np.empty(offsets[-1])
    source_read = np.empty(len(sections))
    for si, section in enumerate(sections):
        lo, hi = offsets[si], offsets[si + 1]
        if section.tiles == 1:
            c_sum = 0.0
            t_sum = 0.0
            for stage in section.stages:
                st = stage_model.tile_stage_times(
                    n, rows, section, stage, rows, plan
                )
                c_sum += st.compute_seconds
                t_sum += st.total
            totals[lo] = t_sum
            computes[lo] = c_sum
        else:
            t, c = stage_model.section_tile_times(n, rows, section, plan)
            totals[lo:hi] = t
            computes[lo:hi] = c
        source_read[si] = _source_read(stage_model, n, section, plan)
    # Cached entries are shared across predictions; freeze them.
    totals.setflags(write=False)
    computes.setflags(write=False)
    source_read.setflags(write=False)
    return (totals, computes, source_read)


@dataclass(frozen=True)
class _SectionTables:
    """Precomputed per-section evaluation tables for one distribution
    (reference walk): per-node, per-tile stage-time lists, total and
    compute-only, plus each node's message source-read cost."""

    section: ParallelSection
    tile_totals: Sequence[List[float]]
    tile_compute: Sequence[List[float]]
    source_read: Sequence[float]


class MhetaModel:
    """Predict execution times for candidate distributions.

    Parameters
    ----------
    program, memories, inputs:
        As in the paper: the application structure, the per-node memory
        capacities (or the cluster they come from), and the measured
        internal MHETA file.
    kernel:
        ``"plan"`` (the compiled evaluation plan, default) or
        ``"scalar"`` (the reference implementation).
    table_cache:
        Bound of the persistent ``(node, rows) -> tables`` LRU shared by
        every prediction this model makes.  ``0`` disables cross-call
        reuse (each ``predict(batch="serial")`` call still shares a
        transient bounded memo).
    """

    def __init__(
        self,
        program: ProgramStructure,
        memories: Union[ClusterSpec, Sequence[int]],
        inputs: MhetaInputs,
        kernel: str = "plan",
        table_cache: int = DEFAULT_TABLE_CACHE_ENTRIES,
    ) -> None:
        if isinstance(memories, ClusterSpec):
            memory_list = [n.memory_bytes for n in memories.nodes]
        else:
            memory_list = [int(m) for m in memories]
        if len(memory_list) != inputs.n_nodes:
            raise ModelError(
                "memory capacities and instrumented inputs disagree on the "
                f"node count ({len(memory_list)} vs {inputs.n_nodes})"
            )
        if inputs.program_name != program.name:
            raise ModelError(
                f"inputs were collected for {inputs.program_name!r}, "
                f"not {program.name!r}"
            )
        if kernel not in KERNELS:
            raise ModelError(
                f"unknown kernel {kernel!r}; choose from {KERNELS}"
            )
        if table_cache < 0:
            raise ModelError("table_cache must be >= 0")
        self.program = program
        self.inputs = inputs
        self.kernel = kernel
        self.oracle = OutOfCoreOracle(program, memory_list)
        self.stage_model = StageTimeModel(program, inputs)
        self.timeline = SectionTimeline(inputs.micro, len(memory_list))
        self._tables_cache: Optional[LRUCache] = (
            LRUCache(table_cache) if table_cache > 0 else None
        )
        # Tile-axis layout of the flattened per-node array tables
        # (_node_tables_numpy): section ``si`` owns columns
        # ``offsets[si]:offsets[si + 1]``.
        tiles = [s.tiles for s in program.sections]
        self._tile_offsets = [0]
        for t in tiles:
            self._tile_offsets.append(self._tile_offsets[-1] + t)
        # Compiled evaluation plan (kernel="plan"): built lazily by
        # ensure_plan, owned by this model alone (the plan holds no
        # reference back, so both are freed by refcount together), and
        # dropped on pickling.
        self._plan = None

    @property
    def n_nodes(self) -> int:
        return self.oracle.n_nodes

    @property
    def table_cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the persistent table cache."""
        if self._tables_cache is None:
            return {"size": 0, "maxsize": 0, "hits": 0, "misses": 0,
                    "evictions": 0}
        return self._tables_cache.stats

    # -- compiled evaluation plan -----------------------------------------------

    def ensure_plan(self, telemetry: Optional[Recorder] = None):
        """This model's compiled evaluation plan, compiled on first use
        (under ``span/plan/compile``).  Public so long-lived holders —
        the serve coordinator's resident models — can warm the plan
        ahead of the first scoring pass."""
        if self._plan is None:
            from repro.core.plan import EvaluationPlan, compile_plan

            self._plan = compile_plan(lambda: EvaluationPlan(self), telemetry)
        return self._plan

    def __getstate__(self) -> dict:
        # Plans hold closures and scratch buffers; workers recompile
        # lazily after unpickling.
        state = self.__dict__.copy()
        state["_plan"] = None
        return state

    # -- prediction -------------------------------------------------------------

    def predict(
        self,
        distribution,
        iterations: Optional[int] = None,
        *,
        batch=False,
        report: bool = False,
        telemetry: Optional[Recorder] = None,
    ):
        """The consolidated prediction entry point.

        ``predict(dist)``
            predicted total seconds (``float``) — the search hot path.
        ``predict(dist, report=True)``
            full :class:`PredictionReport` with per-node, per-section
            breakdowns.
        ``predict(dists, batch=True)``
            an ``np.ndarray`` scoring a whole candidate population in
            one vectorized pass (``<= 1e-12`` relative vs. the serial
            path).
        ``predict(dists, batch="serial")``
            a ``List[float]`` from the bit-identical serial loop
            (what spectrum sweeps use: exact per-candidate equality
            with single calls).

        ``iterations`` overrides the program's iteration count and must
        be >= 1.  ``telemetry`` takes a :class:`repro.obs.Recorder`;
        with ``report=True`` it additionally records the per-node phase
        breakdown (comp / sync-I/O / prefetch-I/O / send+recv overhead /
        blocked) whose components sum exactly to each node's predicted
        total.  ``telemetry=None`` (default) costs one truthiness check.
        """
        if iterations is not None and iterations < 1:
            raise ModelError(f"iterations must be >= 1, got {iterations}")
        if batch:
            if report:
                raise ModelError(
                    "report=True is only available for single predictions"
                )
            dists = list(distribution)
            if batch == "serial":
                if telemetry:
                    telemetry.count("model/serial_batches")
                    telemetry.observe("model/serial_batch_size", len(dists))
                transient = (
                    LRUCache(DEFAULT_TABLE_CACHE_ENTRIES)
                    if self._tables_cache is None
                    else None
                )
                out = [
                    self._predict(
                        d, iterations, want_report=False,
                        table_cache=transient, telemetry=telemetry,
                    )
                    for d in dists
                ]
                if telemetry:
                    self._record_cache_gauges(telemetry)
                    telemetry.count("model/predictions", len(dists))
                return out
            out = self._predict_batch(dists, iterations, telemetry=telemetry)
            if telemetry:
                telemetry.count("model/batch_predictions")
                telemetry.observe("model/batch_size", len(dists))
                telemetry.count("model/predictions", len(dists))
                self._record_cache_gauges(telemetry)
            return out
        result = self._predict(
            distribution, iterations, want_report=report, telemetry=telemetry
        )
        if telemetry:
            telemetry.count("model/predictions")
            self._record_cache_gauges(telemetry)
        return result

    def _record_cache_gauges(self, rec: Recorder) -> None:
        stats = self.table_cache_stats
        rec.set("model/table_cache/size", stats["size"])
        rec.set("model/table_cache/hits", stats["hits"])
        rec.set("model/table_cache/misses", stats["misses"])
        rec.set("model/table_cache/evictions", stats["evictions"])
        if self.kernel == "plan":
            from repro.core.plan import record_plan_gauges

            record_plan_gauges(rec, 0 if self._plan is None else 1)

    def _batch_counts(self, dists: Sequence[GenBlock]) -> np.ndarray:
        """Stack and validate candidate row counts as ``(B, P)`` int64.

        Validation is vectorized (one shape check, one row-sum check);
        only on failure does it fall back to the per-candidate loop, so
        the error messages match the sequential path exactly."""
        P = self.n_nodes

        def _validate_loop() -> None:
            for d in dists:
                if d.n_nodes != P:
                    raise ModelError(
                        "distribution does not match the model's nodes"
                    )
                if d.n_rows != self.program.n_rows:
                    raise ModelError(
                        "distribution does not cover the program's rows"
                    )

        n_rows = self.program.n_rows
        counts = np.empty((len(dists), P), dtype=np.int64)
        try:
            # Row-assigning each candidate's cached int64 mirror is the
            # cheapest exact stacking; the explicit length check (a
            # length-1 array would broadcast silently) and the cached
            # row total validate each candidate in-loop.  Any mismatch
            # or a foreign distribution type falls back to the loop
            # whose messages match the sequential path.
            for i, d in enumerate(dists):
                mirror = d.counts_np
                if len(mirror) != P or d._n_rows != n_rows:
                    raise ValueError
                counts[i] = mirror
            return counts
        except (ValueError, TypeError, AttributeError):
            pass
        _validate_loop()
        return np.array([d.counts for d in dists], dtype=np.int64)

    def _predict_batch(
        self,
        distributions: Sequence[GenBlock],
        iterations: Optional[int] = None,
        telemetry: Optional[Recorder] = None,
    ) -> np.ndarray:
        """Score a whole candidate population in one vectorized pass.

        The candidates' GEN_BLOCK row counts stack into a ``(B, P)``
        matrix that the compiled plan scores in one gather, one matrix
        build and one steady-state walk over the candidate axis.
        Candidates never mix (no reduction crosses the batch axis), so
        entry ``b`` agrees with ``predict(distributions[b])`` (pinned by
        ``tests/test_batch_equivalence.py``).

        ``kernel="scalar"`` models and iteration-profile programs (no
        steady state to extrapolate) loop the scalar reference walk.
        """
        dists = list(distributions)
        if not dists:
            return np.empty(0)
        if self.kernel == "scalar" or self.program.iteration_profile is not None:
            return np.array(
                [
                    self._predict(
                        d, iterations, want_report=False, telemetry=telemetry
                    )
                    for d in dists
                ]
            )
        counts = self._batch_counts(dists)
        n_iter = iterations if iterations is not None else self.program.iterations
        plan = self._plan
        if plan is None:
            plan = self.ensure_plan(telemetry)
        return plan.execute(counts, n_iter)

    # -- reference tables and walk ----------------------------------------------

    def _node_tables(self, n: int, rows: int, plan):
        """Per section, for one node: tile stage-times (total and
        compute-only) plus the message source-read cost — scalar
        reference path."""
        out = []
        for section in self.program.sections:
            totals: List[float] = []
            computes: List[float] = []
            for tile in range(section.tiles):
                trows = _tile_rows(rows, section.tiles, tile)
                c_sum = 0.0
                t_sum = 0.0
                for stage in section.stages:
                    st = self.stage_model.tile_stage_times(
                        n, rows, section, stage, trows, plan
                    )
                    c_sum += st.compute_seconds
                    t_sum += st.total
                totals.append(t_sum)
                computes.append(c_sum)
            out.append(
                (totals, computes,
                 _source_read(self.stage_model, n, section, plan))
            )
        return out

    def _section_tables(
        self,
        distribution: GenBlock,
        table_cache: Optional[LRUCache] = None,
    ) -> List[_SectionTables]:
        """Precompute, per section: tile stage-times (split by compute
        and I/O) and per-node message source-read costs.  These are the
        same for every iteration, so the iteration loop only replays the
        communication timeline.  Per-``(node, rows)`` work is memoised
        in the model's bounded LRU (or the explicit ``table_cache``
        override), shared across every prediction; the entries are keyed
        apart from the plan's array tables for the same ``(node, rows)``."""
        P = self.n_nodes
        cache = table_cache if table_cache is not None else self._tables_cache
        counts = distribution.counts
        per_node = []
        for n in range(P):
            rows = counts[n]
            if cache is None:
                per_node.append(
                    self._node_tables(n, rows, self.oracle.plan(n, rows))
                )
            else:
                key = ("scalar", n, rows)
                entry = cache.get(key)
                if entry is None:
                    entry = self._node_tables(
                        n, rows, self.oracle.plan(n, rows)
                    )
                    cache.put(key, entry)
                per_node.append(entry)
        return [
            _SectionTables(
                section=section,
                tile_totals=[per_node[n][si][0] for n in range(P)],
                tile_compute=[per_node[n][si][1] for n in range(P)],
                source_read=[per_node[n][si][2] for n in range(P)],
            )
            for si, section in enumerate(self.program.sections)
        ]

    def _walk_scalar(
        self, tables: List[_SectionTables], n_iter: int
    ) -> Tuple[List[float], List[float]]:
        """Reference per-node clock walk (plain Python lists)."""
        P = self.n_nodes
        clocks = [0.0] * P
        iter_ends: List[List[float]] = []
        profile = self.program.iteration_profile
        if profile is None:
            # Iterations are identical in cost, but the per-node clocks
            # need a few iterations for their wait pattern to settle
            # (pipeline fill, neighbour-wait coupling).  Walk iterations
            # until the per-iteration increment vector repeats exactly,
            # then extrapolate the rest linearly; a cycle is guaranteed
            # quickly in practice, and the walk is capped by n_iter.
            prev_steady = None
            simulate = 0
            while simulate < n_iter:
                for t in tables:
                    clocks = self.timeline.advance(
                        t.section.comm.pattern,
                        clocks,
                        t.tile_totals,
                        t.section.comm.message_bytes,
                        t.source_read,
                    )
                iter_ends.append(list(clocks))
                simulate += 1
                if len(iter_ends) >= 2:
                    steady_now = [
                        iter_ends[-1][n] - iter_ends[-2][n] for n in range(P)
                    ]
                    if prev_steady is not None and all(
                        abs(a - b) <= 1e-12 + 1e-9 * abs(b)
                        for a, b in zip(steady_now, prev_steady)
                    ):
                        break
                    prev_steady = steady_now
            if n_iter == 1 or len(iter_ends) < 2:
                totals = iter_ends[0]
                steady = list(iter_ends[0])
            else:
                steady = [
                    iter_ends[-1][n] - iter_ends[-2][n] for n in range(P)
                ]
                totals = [
                    iter_ends[-1][n] + steady[n] * (n_iter - simulate)
                    for n in range(P)
                ]
            return totals, steady
        # Non-uniform iterations (paper Section 3.1's deferred case):
        # the instrumented iteration measured computation at the
        # profile's first multiplier; each later iteration scales its
        # computation share accordingly.  Every iteration is walked
        # explicitly — no steady state exists to extrapolate.
        m0 = self.program.iteration_multiplier(0)
        for it in range(n_iter):
            mult = (
                self.program.iteration_multiplier(it)
                if it < self.program.iterations
                else 1.0
            ) / m0
            for t in tables:
                scaled = [
                    [
                        total + (mult - 1.0) * compute
                        for total, compute in zip(
                            t.tile_totals[n], t.tile_compute[n]
                        )
                    ]
                    for n in range(P)
                ]
                clocks = self.timeline.advance(
                    t.section.comm.pattern,
                    clocks,
                    scaled,
                    t.section.comm.message_bytes,
                    t.source_read,
                )
            iter_ends.append(list(clocks))
        totals = iter_ends[-1]
        if n_iter >= 2:
            steady = [
                iter_ends[-1][n] - iter_ends[-2][n] for n in range(P)
            ]
        else:
            steady = list(iter_ends[0])
        return totals, steady

    def _predict(
        self,
        distribution: GenBlock,
        iterations: Optional[int],
        want_report: bool,
        table_cache: Optional[LRUCache] = None,
        telemetry: Optional[Recorder] = None,
    ):
        if distribution.n_nodes != self.n_nodes:
            raise ModelError("distribution does not match the model's nodes")
        if distribution.n_rows != self.program.n_rows:
            raise ModelError("distribution does not cover the program's rows")
        n_iter = (
            iterations if iterations is not None else self.program.iterations
        )
        if not want_report and self.kernel == "plan":
            if self.program.iteration_profile is None:
                plan = self._plan
                if plan is None:
                    plan = self.ensure_plan(telemetry)
                counts = np.array([distribution.counts], dtype=np.int64)
                return float(plan.execute(counts, n_iter)[0])
            if telemetry:
                telemetry.count("model/scalar_fallbacks")
        P = self.n_nodes
        tables = self._section_tables(distribution, table_cache)
        totals, steady = self._walk_scalar(tables, n_iter)
        if not want_report:
            return max(totals)

        nodes = []
        for n in range(P):
            sections = []
            for t in tables:
                compute = sum(t.tile_compute[n])
                io = sum(t.tile_totals[n]) - compute
                sections.append(
                    SectionBreakdown(
                        section=t.section.name,
                        compute_seconds=compute,
                        io_seconds=io,
                        comm_seconds=0.0,  # filled below
                    )
                )
            local = sum(s.compute_seconds + s.io_seconds for s in sections)
            # Attribute the communication residual to the sections that
            # actually communicate, proportionally to their messages.
            # The residual can dip below zero when the steady-state
            # iteration is cheaper than the summed local work (overlap);
            # a negative "communication time" is meaningless, so clamp.
            comm = max(float(steady[n]) - local, 0.0)
            comm_specs = [
                t.section.comm
                for t in tables
                if t.section.comm.pattern is not CommPattern.NONE
            ]
            total_bytes = sum(c.message_bytes for c in comm_specs)
            final_sections = []
            for s, t in zip(sections, tables):
                if t.section.comm.pattern is CommPattern.NONE:
                    share = 0.0
                elif total_bytes > 0:
                    share = comm * t.section.comm.message_bytes / total_bytes
                else:
                    # Zero-byte messages still synchronise; split evenly.
                    share = comm / len(comm_specs)
                final_sections.append(
                    SectionBreakdown(
                        section=s.section,
                        compute_seconds=s.compute_seconds,
                        io_seconds=s.io_seconds,
                        comm_seconds=share,
                    )
                )
            nodes.append(
                NodePrediction(
                    node=n,
                    iteration_seconds=float(steady[n]),
                    total_seconds=float(totals[n]),
                    sections=tuple(final_sections),
                )
            )
        if telemetry:
            self._record_phases(
                telemetry, distribution, tables, totals, steady, n_iter
            )
        return PredictionReport(
            program_name=self.program.name,
            distribution=distribution,
            iterations=n_iter,
            nodes=tuple(nodes),
        )

    # -- telemetry phase breakdown ----------------------------------------------

    def _record_phases(
        self,
        rec: Recorder,
        distribution: GenBlock,
        tables: List[_SectionTables],
        totals,
        steady,
        n_iter: int,
    ) -> None:
        """Record the per-node phase decomposition of a prediction.

        Five phases per node, over the whole ``n_iter``-iteration run:

        ``comp``
            measured computation, rescaled (Section 4.2.1) and summed
            over the iteration-profile multipliers when one exists;
        ``io_sync`` / ``io_prefetch``
            the Equation-1 vs. Equation-2 shares of the stage tables'
            I/O, plus the disk reads that materialise outgoing
            neighbour-exchange messages (sync, Equation 3's ``source
            read`` term);
        ``comm_overhead``
            per-message ``send_overhead``/``recv_overhead`` seconds
            charged to the node that pays them (message counts are a
            pure function of the section patterns);
        ``blocked``
            everything else — the residual of the node's predicted
            total clock, i.e. time spent waiting on neighbours,
            collectives, and pipeline fills.

        ``blocked`` is *defined* as the residual, so the five phases
        sum to the node's predicted total exactly (to float rounding),
        which is what the ``repro stats`` acceptance gate checks.
        """
        P = self.n_nodes
        micro = self.inputs.micro
        counts = distribution.counts
        sections = self.program.sections
        profile = self.program.iteration_profile
        if profile is None:
            comp_scale = float(n_iter)
        else:
            m0 = self.program.iteration_multiplier(0)
            comp_scale = sum(
                (
                    self.program.iteration_multiplier(it)
                    if it < self.program.iterations
                    else 1.0
                )
                / m0
                for it in range(n_iter)
            )
        sec_counts = [
            _pattern_message_counts(s.comm.pattern, P, s.tiles)
            for s in sections
        ]
        agg = {
            "comp": 0.0, "io_sync": 0.0, "io_prefetch": 0.0,
            "comm_overhead": 0.0, "blocked": 0.0, "total": 0.0,
        }
        bottleneck = 0
        for n in range(P):
            comp_iter = sum(sum(t.tile_compute[n]) for t in tables)
            local_iter = sum(sum(t.tile_totals[n]) for t in tables)
            io_iter = local_iter - comp_iter
            plan = self.oracle.plan(n, counts[n])
            prefetch_iter = sum(
                self.stage_model.node_prefetch_io_seconds(
                    n, counts[n], s, plan
                )
                for s in sections
            )
            sync_iter = io_iter - prefetch_iter
            sends = 0
            recvs = 0
            source_iter = 0.0
            for (sec_sends, sec_recvs), t in zip(sec_counts, tables):
                sends += sec_sends[n]
                recvs += sec_recvs[n]
                if t.section.comm.pattern is CommPattern.NEAREST_NEIGHBOR:
                    source_iter += sec_sends[n] * float(t.source_read[n])
            overhead_iter = (
                sends * micro.send_overhead + recvs * micro.recv_overhead
            )
            comp_total = comp_iter * comp_scale
            sync_total = sync_iter * n_iter + source_iter * n_iter
            prefetch_total = prefetch_iter * n_iter
            overhead_total = overhead_iter * n_iter
            node_total = float(totals[n])
            blocked = (
                node_total
                - comp_total
                - sync_total
                - prefetch_total
                - overhead_total
            )
            phases = {
                "comp": comp_total,
                "io_sync": sync_total,
                "io_prefetch": prefetch_total,
                "comm_overhead": overhead_total,
                "blocked": blocked,
                "total": node_total,
            }
            for name, value in phases.items():
                rec.set(f"model/phase/node{n}/{name}", value)
                agg[name] += value
            rec.count(f"model/messages/node{n}/sends", sends * n_iter)
            rec.count(f"model/messages/node{n}/recvs", recvs * n_iter)
            if node_total > float(totals[bottleneck]):
                bottleneck = n
        # Top-level gauges describe the bottleneck node — its clock *is*
        # the predicted application time — plus all-node phase sums.
        for name in ("comp", "io_sync", "io_prefetch", "comm_overhead",
                     "blocked", "total"):
            rec.set(
                f"model/phase/{name}",
                rec.gauges[f"model/phase/node{bottleneck}/{name}"],
            )
            rec.set(f"model/phase/allnodes/{name}", agg[name])
        rec.set("model/phase/bottleneck_node", bottleneck)
        rec.set("model/phase/iterations", n_iter)
        rec.set(
            "model/phase/steady_iteration_seconds",
            float(steady[bottleneck]),
        )
