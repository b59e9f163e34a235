"""Execute a program under a distribution on an emulated cluster.

One generator process per node runs the program's parallel sections
iteration by iteration: stages stream out-of-core variables through the
node's disk in ICLA-sized blocks (synchronously or with one-block-ahead
prefetching), and sections close with the emulated communication pattern
(boundary exchange, pipeline, binomial-tree allreduce, ring allgather).

The emulator is the reproduction's stand-in for the paper's real
cluster: its output is the "Actual" series of Figures 9-11.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.cluster.cluster import ClusterSpec
from repro.cluster.dynamics import DynamicsSpec, DynamicsTimeline
from repro.distribution.genblock import GenBlock
from repro.exceptions import SimulationError
from repro.placement import MemoryPlan
from repro.program.sections import CommPattern
from repro.program.stages import Stage
from repro.program.structure import ProgramStructure
from repro.sim.disk import DiskModel
from repro.sim.engine import Delay, Engine, Recv, Send
from repro.sim.memory import emulator_plan, plan_memory
from repro.sim.perturbation import PerturbationConfig, PerturbationModel
from repro.sim.steady import (
    PROBE_ITERATIONS,
    extrapolate_ends,
    fast_forwardable,
    steady_deltas,
)
from repro.sim.trace import (
    EventRecord,
    Observer,
    Op,
    PhaseAccumulator,
    chain_observers,
)

__all__ = [
    "ClusterEmulator",
    "RunResult",
    "emulate",
    "emulate_many",
    "run_cache_keys",
]

#: CPU cost of issuing one asynchronous read (system-call overhead).
PREFETCH_ISSUE_OVERHEAD = 20e-6

#: Valid ``io_mode`` values for the consolidated emulation API.
IO_MODES = ("auto", "sync", "prefetch", "instrumented")


def _resolve_io_mode(io_mode: str) -> Tuple[bool, Optional[bool]]:
    """``io_mode`` -> ``(instrumented, prefetch_override)``.

    * ``"auto"`` — follow the program (prefetch iff it was built with
      prefetching); the default and the only mode compiled emulation
      plans serve.
    * ``"sync"`` / ``"prefetch"`` — force the streaming style of
      out-of-core stages regardless of how the program was built.
    * ``"instrumented"`` — the paper's measurement iteration: every
      distributed variable forced out of core, prefetches blocking.
    """
    if io_mode not in IO_MODES:
        raise SimulationError(
            f"unknown io_mode {io_mode!r}; choose from {IO_MODES}"
        )
    if io_mode == "instrumented":
        return True, None
    overrides = {"auto": None, "sync": False, "prefetch": True}
    return False, overrides[io_mode]


def _resolve_dynamics(
    cluster: ClusterSpec, dynamics
) -> Optional[DynamicsSpec]:
    """Effective dynamics for a run: an explicit spec wins, ``None``
    falls back to whatever is attached to the cluster, ``False`` forces
    the static path.  Empty (stationary) specs collapse to ``None``."""
    if dynamics is False:
        return None
    spec = cluster.dynamics if dynamics is None else dynamics
    return spec if spec else None


def _tile_bounds(start: int, stop: int, tiles: int, tile: int) -> Tuple[int, int]:
    """Rows of ``[start, stop)`` handled by ``tile`` (even partition)."""
    count = stop - start
    lo = start + (count * tile) // tiles
    hi = start + (count * (tile + 1)) // tiles
    return lo, hi


@dataclass
class RunResult:
    """Outcome of one emulated run."""

    total_seconds: float  #: wall time of the timed iterations, whole job
    per_node_seconds: List[float]  #: each node's own finish time
    iteration_ends: List[List[float]]  #: [node][iteration] completion time
    distribution: GenBlock
    iterations: int
    #: True when the tail of the run was extrapolated from a detected
    #: steady-state cycle instead of simulated event by event.
    fast_forwarded: bool = False

    def iteration_durations(self, node: int) -> List[float]:
        """Per-iteration durations for ``node``."""
        ends = self.iteration_ends[node]
        outs = []
        prev = 0.0
        for e in ends:
            outs.append(e - prev)
            prev = e
        return outs


def _observe_noop(*_args, **_kwargs) -> None:
    """Stand-in for :meth:`_NodeCtx._observe` on unobserved runs: a
    plain function, so the hot path pays one no-op call instead of an
    attribute check plus record construction."""
    return None


class _NodeCtx:
    """Per-node mutable execution state and generator helpers."""

    __slots__ = (
        "rank",
        "spec",
        "net",
        "disk",
        "plan",
        "now",
        "observer",
        "observe",
        "perturb",
        "replicated_bytes",
        "iteration_ends",
        "dyn_compute",
    )

    def __init__(self, rank, spec, net, disk, plan, observer, perturb, replicated):
        self.rank = rank
        self.spec = spec
        self.net = net
        self.disk = disk
        self.plan: MemoryPlan = plan
        self.now = 0.0
        self.observer: Optional[Observer] = observer
        self.observe = self._observe if observer is not None else _observe_noop
        self.perturb: PerturbationModel = perturb
        self.replicated_bytes = replicated
        self.iteration_ends: List[float] = []
        #: Duration multiplier from cluster dynamics for the current
        #: iteration; exactly 1.0 on static runs (never touched).
        self.dyn_compute = 1.0

    # -- tracing -----------------------------------------------------------

    def _observe(self, op, it, section, tile, stage, variable, start, nbytes=0.0, rows=0):
        self.observer(
            EventRecord(
                op=op,
                node=self.rank,
                iteration=it,
                section=section,
                tile=tile,
                stage=stage,
                variable=variable,
                start=start,
                end=self.now,
                nbytes=nbytes,
                rows=rows,
            )
        )

    # -- primitive generators -------------------------------------------------

    def cpu(self, seconds):
        if seconds > 0.0:
            self.now = float((yield Delay(seconds)))

    def sync_read(self, var, nbytes, it, section, tile, stage, rows=0):
        start = self.now
        op = self.disk.submit_read(self.now, var, nbytes)
        yield from self.cpu(op.done - self.now)
        self.observe(Op.READ, it, section, tile, stage, var, start, nbytes, rows)

    def sync_write(self, var, nbytes, it, section, tile, stage, rows=0):
        start = self.now
        op = self.disk.submit_write(self.now, var, nbytes)
        yield from self.cpu(op.done - self.now)
        self.observe(Op.WRITE, it, section, tile, stage, var, start, nbytes, rows)

    def compute(self, seconds, it, section, tile, stage):
        start = self.now
        yield from self.cpu(seconds)
        self.observe(Op.COMPUTE, it, section, tile, stage, None, start)

    def compute_share(self, total, rows, tile_rows, it, section, tile, stage):
        """Compute one block: ``rows`` of a ``tile_rows``-row tile whose
        whole stage compute costs ``total`` seconds."""
        yield from self.compute(
            total * rows / tile_rows, it, section, tile, stage
        )

    def stage_seconds(self, nominal, working_set_bytes):
        """Perturbed compute seconds of one stage execution; draws the
        rank's noise stream once."""
        return self.perturb.perturb_compute(
            self.spec, nominal, working_set_bytes
        )

    def issue_read(self, var, nbytes):
        """Queue an asynchronous (prefetch) read; returns its DiskOp."""
        return self.disk.submit_read(self.now, var, nbytes)

    def wait_read(self, op):
        """Block until the asynchronous read ``op`` has landed."""
        if op.done > self.now:
            yield from self.cpu(op.done - self.now)

    def end_iteration(self, it):
        """Record the end of iteration ``it`` (a generator so that a
        recording context can mark the boundary in its stream)."""
        self.iteration_ends.append(self.now)
        self.observe(Op.ITERATION_END, it, "", 0, None, None, self.now)
        yield from ()

    def send_msg(self, dst, tag, nbytes, it, section, disk_source=None):
        # Materialise the message from disk when it lives in an
        # out-of-core array on this node (paper Section 4.2.2).
        if disk_source is not None:
            yield from self.sync_read(
                disk_source, nbytes, it, section, 0, None
            )
        start = self.now
        yield from self.cpu(self.net.send_overhead)
        yield Send(dst, tag, transfer=self.net.transfer_seconds(nbytes))
        self.observe(Op.SEND, it, section, 0, None, None, start, nbytes)

    def recv_msg(self, src, tag, it, section):
        start = self.now
        result = yield Recv(src, tag)
        self.now = float(result)
        yield from self.cpu(self.net.recv_overhead)
        self.observe(Op.RECV, it, section, 0, None, None, start)


class ClusterEmulator:
    """Emulate ``program`` on ``cluster``.

    Parameters
    ----------
    cluster, program:
        What to run and where.
    perturbation:
        Ground-truth effect configuration; defaults to all effects on
        (the honest emulator).  :meth:`PerturbationConfig.none` yields an
        idealised machine that matches MHETA's assumptions exactly.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        program: ProgramStructure,
        perturbation: Optional[PerturbationConfig] = None,
        dynamics=None,
    ) -> None:
        self.cluster = cluster
        self.program = program
        self.perturbation = (
            perturbation if perturbation is not None else PerturbationConfig()
        )
        #: Effective time-varying behaviour: an explicit spec, the
        #: cluster's attached one, or ``None`` (static).  ``False``
        #: forces static even on a dynamic cluster.
        self.dynamics = _resolve_dynamics(cluster, dynamics)
        # Resolved lazily and pinned: the plan LRU lookup hashes the
        # whole (cluster, program, perturbation) content on every call,
        # which would otherwise dominate a warm plan-served run.
        self._emulation_plan = None

    # -- public API ------------------------------------------------------------

    def run(
        self,
        distribution: GenBlock,
        *,
        iterations: Optional[int] = None,
        io_mode: str = "auto",
        fast_forward: bool = True,
        observer: Optional[Observer] = None,
        telemetry=None,
        iteration_offset: int = 0,
    ) -> RunResult:
        """Run the program and return timing.

        ``io_mode`` selects how out-of-core stages stream (see
        :data:`IO_MODES`): ``"auto"`` follows the program,
        ``"sync"``/``"prefetch"`` force a streaming style, and
        ``"instrumented"`` reproduces the paper's measurement iteration
        — every distributed variable forced out of core, prefetch
        issues turned into blocking reads (paper Figure 5).
        ``iterations`` overrides the program's iteration count (the
        instrumented run uses 1).

        ``fast_forward`` controls the compiled
        :class:`~repro.sim.plan_sim.EmulationPlan`; ``False`` forces
        full event-by-event simulation (the reference).  An eligible
        run — from iteration 0, unobserved, not instrumented, static
        (:meth:`_plan_eligible`) — ends in exactly one of three ways:
        a deterministic run whose probe settles is extrapolated from
        the plan's probe (:mod:`repro.sim.steady`, ``sim/plan_runs``);
        any other run, noisy ones included, is walked in full by the
        plan, bitwise equal to the engine and not ``fast_forwarded``
        (``sim/plan_walks``); or it runs the full engine, counted
        under ``sim/plan_fallbacks`` with its cause
        (``background_load``, ``iteration_profile``, ``io_mode`` or
        ``dead/<kind>``).  Ineligible runs (including any active
        cluster dynamics) always run the full engine.

        ``iteration_offset`` emulates a mid-run segment: iterations
        ``[offset, offset + n)`` of the global schedule.  Dynamics
        factors and iteration profiles are indexed globally, so a
        segment sees exactly the conditions those iterations of a
        continuous run would (modulo cold pipeline/page-cache state at
        the segment boundary).  Offset segments never fast-forward.

        ``telemetry`` takes a :class:`repro.obs.Recorder` and records
        per-node phase totals (a :class:`PhaseAccumulator` chained into
        ``_NodeCtx.observe``) plus the fast-forward decision.  The
        accumulator does not count as an *observer* for fast-forward
        gating — it rides along on whatever iterations the engine
        actually simulates (none, for a plan-served run), so enabling
        telemetry never changes the simulated timing or the decision.
        """
        instr, io_override = _resolve_io_mode(io_mode)
        if distribution.n_nodes != self.cluster.n_nodes:
            raise SimulationError(
                f"distribution has {distribution.n_nodes} blocks for "
                f"{self.cluster.n_nodes} nodes"
            )
        if distribution.n_rows != self.program.n_rows:
            raise SimulationError(
                f"distribution covers {distribution.n_rows} rows, program "
                f"has {self.program.n_rows}"
            )
        if iteration_offset < 0:
            raise SimulationError(
                f"iteration_offset must be >= 0, got {iteration_offset}"
            )
        n_iter = iterations if iterations is not None else self.program.iterations

        timeline: Optional[DynamicsTimeline] = None
        if self.dynamics is not None:
            timeline = self.dynamics.compile(
                self.cluster.n_nodes, n_iter, iteration_offset
            )

        phase: Optional[PhaseAccumulator] = None
        sim_observer = observer
        if telemetry:
            phase = PhaseAccumulator()
            sim_observer = chain_observers(phase, observer)

        result = None
        if self._plan_eligible(fast_forward, instr, iteration_offset, observer):
            result = self._plan_run(distribution, n_iter, io_override, telemetry)
        if result is None:
            result = self._simulate(
                distribution, sim_observer, instr, n_iter,
                timeline=timeline, offset=iteration_offset,
                io_override=io_override,
            )
        if telemetry:
            self._record_run_telemetry(telemetry, phase, result)
        return result

    def _plan_eligible(
        self,
        fast_forward: bool,
        instrumented: bool,
        iteration_offset: int,
        observer: Optional[Observer] = None,
    ) -> bool:
        """The one gate in front of the compiled plan, shared by
        :meth:`run` and :func:`emulate_many`: asked for, from iteration
        0, unobserved, not instrumented and static."""
        return (
            fast_forward
            and iteration_offset == 0
            and observer is None
            and not instrumented
            and self.dynamics is None
        )

    def _extrapolatable(self, n_iter: int) -> bool:
        """May a plan-eligible run be probed and extrapolated rather
        than walked in full?  Longer than the probe and structurally
        steady (:func:`fast_forwardable`: deterministic, uniform)."""
        return n_iter > PROBE_ITERATIONS and fast_forwardable(
            self.program, self.perturbation
        )

    def _engine_cause(self, io_override: Optional[bool]) -> Optional[str]:
        """Why a plan-eligible run must still take the engine — a
        counted fallback — or ``None``.  The plan lowers neither the
        background-load process nor iteration profiles, and is compiled
        for the program's own streaming style only."""
        if self.perturbation.background_load > 0.0:
            return "background_load"
        if self.program.iteration_profile is not None:
            return "iteration_profile"
        if io_override is not None and io_override != bool(self.program.prefetch):
            return "io_mode"
        return None

    def _plan_for(self, telemetry=None):
        """This configuration's :class:`EmulationPlan`."""
        if self._emulation_plan is None:
            from repro.sim.plan_sim import get_emulation_plan

            self._emulation_plan = get_emulation_plan(
                self.cluster, self.program, self.perturbation, telemetry
            )
        return self._emulation_plan

    @staticmethod
    def _record_run_telemetry(
        rec, phase: Optional[PhaseAccumulator], result: RunResult
    ) -> None:
        rec.count("sim/runs")
        rec.count(
            "sim/fast_forwarded" if result.fast_forwarded else "sim/full_runs"
        )
        rec.set("sim/iterations", result.iterations)
        rec.set("sim/total_seconds", result.total_seconds)
        if phase is not None:
            simulated = max(phase.iterations.values(), default=0)
            # A plan-served run simulates no events, so its phase
            # totals are empty and this count is 0.
            rec.set("sim/iterations_simulated", simulated)
            phase.record_into(rec)

    def _simulate(
        self,
        distribution: GenBlock,
        observer: Optional[Observer],
        instrumented: bool,
        n_iter: int,
        timeline: Optional[DynamicsTimeline] = None,
        offset: int = 0,
        io_override: Optional[bool] = None,
    ) -> RunResult:
        """Full event-by-event simulation of ``n_iter`` iterations."""
        engine = Engine()
        contexts = self._make_contexts(distribution, observer, instrumented)
        for ctx in contexts:
            engine.add_process(
                self._node_process(
                    ctx, contexts, distribution, n_iter, instrumented,
                    timeline, offset, io_override,
                ),
                node=ctx.rank,
            )
        total = engine.run()
        return RunResult(
            total_seconds=total,
            per_node_seconds=[
                ctx.iteration_ends[-1] if ctx.iteration_ends else 0.0
                for ctx in contexts
            ],
            iteration_ends=[list(ctx.iteration_ends) for ctx in contexts],
            distribution=distribution,
            iterations=n_iter,
        )

    def _plan_run(
        self,
        distribution: GenBlock,
        n_iter: int,
        io_override: Optional[bool],
        telemetry=None,
    ) -> Optional[RunResult]:
        """Serve a plan-eligible run from the compiled
        :class:`EmulationPlan`, or ``None`` when the full engine must —
        a miss counted under ``sim/plan_fallbacks`` and
        ``sim/plan_fallbacks/<cause>``.

        A deterministic run with a converged probe is extrapolated
        (``sim/plan_runs``); every other run is walked in full,
        bitwise equal to the engine (``sim/plan_walks``).
        """
        cause = self._engine_cause(io_override)
        if cause is None:
            plan = self._plan_for(telemetry)
            if self._extrapolatable(n_iter):
                probe_ends = plan.walk_ends(distribution, PROBE_ITERATIONS)
                deltas = None if probe_ends is None else steady_deltas(probe_ends)
                if deltas is not None:
                    if telemetry:
                        telemetry.count("sim/plan_runs")
                    return self._plan_result(
                        distribution,
                        [
                            extrapolate_ends(ends, delta, n_iter)
                            for ends, delta in zip(probe_ends, deltas)
                        ],
                        n_iter,
                        fast_forwarded=True,
                    )
            ends = plan.walk_ends(distribution, n_iter)
            if ends is not None:
                if telemetry:
                    telemetry.count("sim/plan_walks")
                return self._plan_result(distribution, ends, n_iter)
            # A retired plan's reason reads "<kind>: <detail>".
            cause = "dead/" + plan.dead.split(":", 1)[0]
        if telemetry:
            telemetry.count("sim/plan_fallbacks")
            telemetry.count("sim/plan_fallbacks/" + cause)
        return None

    @staticmethod
    def _plan_result(
        distribution: GenBlock,
        iteration_ends: List[List[float]],
        n_iter: int,
        fast_forwarded: bool = False,
    ) -> RunResult:
        """A plan-served run: walked, or extrapolated from its probe."""
        per_node = [ends[-1] if ends else 0.0 for ends in iteration_ends]
        return RunResult(
            total_seconds=max(per_node) if per_node else 0.0,
            per_node_seconds=per_node,
            iteration_ends=iteration_ends,
            distribution=distribution,
            iterations=n_iter,
            fast_forwarded=fast_forwarded,
        )

    # -- setup -------------------------------------------------------------------

    def _make_context(
        self,
        rank: int,
        rows: int,
        counts_label: str,
        observer: Optional[Observer],
        instrumented: bool,
        context: type = _NodeCtx,
    ) -> _NodeCtx:
        """Execution state for one node given its row count.

        Everything here but the perturbation model depends only on
        ``(rank, rows)`` — the compiled emulation plans
        (:mod:`repro.sim.plan_sim`) rely on this to lower single ranks
        standalone (as a ``context`` subclass that records instead of
        waiting).  ``counts_label`` — the whole distribution — seeds
        the rank's RNG streams (:meth:`_perturbation_model`), so noise
        is a per-run draw the plans take separately.
        """
        program = self.program
        spec = self.cluster.nodes[rank]
        if self.perturbation.runtime_overhead:
            plan = emulator_plan(
                spec, program, rows, forced_out_of_core=instrumented
            )
        else:
            plan = plan_memory(
                program,
                rows,
                spec.memory_bytes,
                forced_out_of_core=instrumented,
            )
        resident = plan.resident_bytes + program.replicated_bytes
        disk = DiskModel(
            spec,
            resident_bytes=resident,
            cache_enabled=self.perturbation.os_read_cache,
        )
        for name, placement in plan.placements.items():
            if not placement.in_core:
                disk.register_variable(name, placement.ocla_bytes)
        return context(
            rank,
            spec,
            self.cluster.network,
            disk,
            plan,
            observer,
            self._perturbation_model(rank, counts_label, instrumented),
            program.replicated_bytes,
        )

    def _perturbation_model(
        self, rank: int, counts_label: str, instrumented: bool
    ) -> PerturbationModel:
        """Rank ``rank``'s sampler; its streams are seeded per rank and
        per distribution, so each rank draws in its own program order."""
        return PerturbationModel(
            self.perturbation,
            run_labels=(
                self.cluster.name,
                self.program.name,
                counts_label,
                rank,
                "instr" if instrumented else "run",
            ),
        )

    def _make_contexts(
        self,
        distribution: GenBlock,
        observer: Optional[Observer],
        instrumented: bool,
    ) -> List[_NodeCtx]:
        label = "x".join(map(str, distribution.counts))
        return [
            self._make_context(
                rank, distribution[rank], label, observer, instrumented
            )
            for rank in range(self.cluster.n_nodes)
        ]

    # -- node program ---------------------------------------------------------------

    def _node_process(
        self, ctx, contexts, distribution, n_iter, instrumented,
        timeline=None, offset=0, io_override=None,
    ):
        program = self.program
        for local_it in range(n_iter):
            it = local_it + offset
            if timeline is not None:
                ctx.dyn_compute = timeline.compute_multiplier(ctx.rank, it)
                ctx.disk.slowdown = timeline.disk_slowdown(ctx.rank, it)
            for si, section in enumerate(program.sections):
                yield from self._run_section(
                    ctx, distribution, it, si, section, instrumented,
                    io_override,
                )
            yield from ctx.end_iteration(it)

    def _run_section(
        self, ctx, distribution, it, si, section, instrumented,
        io_override=None,
    ):
        pattern = section.comm.pattern
        rank = ctx.rank
        P = self.cluster.n_nodes

        if pattern is CommPattern.PIPELINE and P > 1:
            nbytes = section.comm.message_bytes
            for tile in range(section.tiles):
                if rank > 0:
                    yield from ctx.recv_msg(
                        rank - 1, (it, si, "pipe", tile), it, section.name
                    )
                yield from self._run_stages(
                    ctx, distribution, it, si, section, tile, instrumented,
                    io_override,
                )
                if rank < P - 1:
                    yield from ctx.send_msg(
                        rank + 1,
                        (it, si, "pipe", tile),
                        nbytes,
                        it,
                        section.name,
                    )
            return

        for tile in range(section.tiles):
            yield from self._run_stages(
                ctx, distribution, it, si, section, tile, instrumented,
                io_override,
            )

        if P == 1 or pattern is CommPattern.NONE:
            return
        if pattern is CommPattern.NEAREST_NEIGHBOR:
            yield from self._nearest_neighbor(ctx, it, si, section)
        elif pattern is CommPattern.REDUCTION:
            yield from self._reduce_bcast(ctx, it, si, section)
        elif pattern is CommPattern.ALLGATHER:
            yield from self._allgather(ctx, it, si, section)
        elif pattern is CommPattern.PIPELINE:
            return  # single node: nothing to pipe to
        else:  # pragma: no cover - exhaustiveness guard
            raise SimulationError(f"unknown pattern {pattern}")

    # -- communication patterns ---------------------------------------------------

    def _nn_disk_source(self, ctx, section) -> Optional[str]:
        """Disk source for boundary messages: the section's source
        variable, when it is out of core on this node."""
        src = section.comm.source_variable
        if src is None:
            return None
        placement = ctx.plan.placements.get(src)
        if placement is not None and not placement.in_core:
            return src
        return None

    def _nearest_neighbor(self, ctx, it, si, section):
        rank, P = ctx.rank, self.cluster.n_nodes
        nbytes = section.comm.message_bytes
        disk_source = self._nn_disk_source(ctx, section)
        neighbors = [r for r in (rank - 1, rank + 1) if 0 <= r < P]
        for nb in neighbors:
            yield from ctx.send_msg(
                nb, (it, si, "nn"), nbytes, it, section.name, disk_source
            )
        for nb in neighbors:
            yield from ctx.recv_msg(nb, (it, si, "nn"), it, section.name)

    def _reduce_bcast(self, ctx, it, si, section):
        """Binomial-tree reduce to node 0, binomial broadcast back."""
        rank, P = ctx.rank, self.cluster.n_nodes
        nbytes = section.comm.message_bytes
        start = ctx.now
        mask = 1
        while mask < P:
            if rank & mask:
                yield from ctx.send_msg(
                    rank - mask, (it, si, "red", mask), nbytes, it, section.name
                )
                break
            partner = rank | mask
            if partner < P:
                yield from ctx.recv_msg(
                    partner, (it, si, "red", mask), it, section.name
                )
            mask <<= 1
        pot = 1
        while pot < P:
            pot <<= 1
        mask = pot >> 1
        while mask > 0:
            if rank % (2 * mask) == 0:
                if rank + mask < P:
                    yield from ctx.send_msg(
                        rank + mask, (it, si, "bc", mask), nbytes, it, section.name
                    )
            elif rank % (2 * mask) == mask:
                yield from ctx.recv_msg(
                    rank - mask, (it, si, "bc", mask), it, section.name
                )
            mask >>= 1
        ctx.observe(
            Op.COLLECTIVE, it, section.name, 0, None, None, start, nbytes
        )

    def _allgather(self, ctx, it, si, section):
        """Ring allgather: P-1 steps, passing a fixed chunk around."""
        rank, P = ctx.rank, self.cluster.n_nodes
        nbytes = section.comm.message_bytes
        start = ctx.now
        right = (rank + 1) % P
        left = (rank - 1) % P
        for step in range(P - 1):
            yield from ctx.send_msg(
                right, (it, si, "ag", step), nbytes, it, section.name
            )
            yield from ctx.recv_msg(left, (it, si, "ag", step), it, section.name)
        ctx.observe(
            Op.COLLECTIVE, it, section.name, 0, None, None, start, nbytes
        )

    # -- stages -------------------------------------------------------------------

    def _stage_compute_seconds(
        self, ctx, it, section, stage, tile_lo, tile_hi, node_rows
    ) -> float:
        """Ground-truth (perturbed) compute seconds for one stage on one
        tile's rows during iteration ``it``.

        The stage's ``fixed_work`` is an aggregate cost distributed with
        the global rows (a zero-row node does none of it), keeping all
        ground-truth work in the row-proportional regime MHETA models.
        """
        program = self.program
        if self.perturbation.sparse_weights and program.row_weights is not None:
            weight = program.weight_of_rows(tile_lo, tile_hi)
        else:
            weight = float(tile_hi - tile_lo)
        row_fraction = (tile_hi - tile_lo) / program.n_rows
        work = stage.work_per_row * weight + stage.fixed_work * row_fraction
        if it < program.iterations:
            work *= program.iteration_multiplier(it)
        nominal = ctx.spec.compute_seconds(work)
        ws = self._working_set_bytes(ctx, stage)
        seconds = ctx.stage_seconds(nominal, ws)
        if ctx.dyn_compute != 1.0:
            seconds *= ctx.dyn_compute
        return seconds

    def _working_set_bytes(self, ctx, stage: Stage) -> float:
        ws = float(ctx.replicated_bytes)
        for name in stage.touched:
            placement = ctx.plan.placements.get(name)
            if placement is None:
                continue  # replicated, already counted
            ws += placement.local_bytes if placement.in_core else placement.icla_bytes
        return ws

    def _run_stages(
        self, ctx, distribution, it, si, section, tile, instrumented,
        io_override=None,
    ):
        start_row, stop_row = distribution.rows_of(ctx.rank)
        tile_lo, tile_hi = _tile_bounds(start_row, stop_row, section.tiles, tile)
        node_rows = stop_row - start_row
        for stage in section.stages:
            yield from self._run_stage(
                ctx, it, section, stage, tile, tile_lo, tile_hi, node_rows,
                instrumented, io_override,
            )

    def _run_stage(
        self, ctx, it, section, stage, tile, tile_lo, tile_hi, node_rows,
        instrumented, io_override=None,
    ):
        program = self.program
        total_compute = self._stage_compute_seconds(
            ctx, it, section, stage, tile_lo, tile_hi, node_rows
        )
        var_map = program.variable_map

        def _ooc(name: str) -> bool:
            p = ctx.plan.placements.get(name)
            return p is not None and not p.in_core

        reads_ooc = [v for v in stage.reads if _ooc(v)]
        writes_ooc = [v for v in stage.writes if _ooc(v)]
        primary = reads_ooc[0] if reads_ooc else None
        tile_rows = tile_hi - tile_lo

        # Secondary out-of-core reads: streamed synchronously up front.
        for name in reads_ooc[1:]:
            yield from self._stream_var(
                ctx, name, tile_rows, it, section.name, tile, stage.name, write=False
            )

        if primary is None or tile_rows == 0:
            yield from ctx.compute(
                total_compute, it, section.name, tile, stage.name
            )
        else:
            write_back = primary in stage.writes and var_map[primary].writes_back
            prefetch = (
                program.prefetch if io_override is None else io_override
            )
            use_prefetch = prefetch and not instrumented
            yield from self._primary_loop(
                ctx,
                primary,
                tile_rows,
                total_compute,
                write_back,
                use_prefetch,
                it,
                section.name,
                tile,
                stage.name,
            )

        # Remaining out-of-core writes stream out after the compute
        # (the primary read-write variable was written back block by block).
        for name in writes_ooc:
            if name == primary:
                continue
            yield from self._stream_var(
                ctx, name, tile_rows, it, section.name, tile, stage.name,
                write=True, read=False,
            )

    def _blocks(self, ctx, name: str, tile_rows: int) -> List[int]:
        """Row counts of the ICLA blocks streaming ``tile_rows`` of ``name``."""
        block_rows = ctx.plan.placements[name].block_rows
        blocks = []
        remaining = tile_rows
        while remaining > 0:
            take = min(block_rows, remaining)
            blocks.append(take)
            remaining -= take
        return blocks

    def _stream_var(
        self, ctx, name, tile_rows, it, section, tile, stage, *,
        write: bool, read: bool = True,
    ):
        """Synchronously stream a variable's tile share block by block."""
        if tile_rows == 0:
            return
        row_bytes = self.program.variable(name).row_bytes
        for rows in self._blocks(ctx, name, tile_rows):
            nbytes = rows * row_bytes
            if read:
                yield from ctx.sync_read(name, nbytes, it, section, tile, stage, rows)
            if write:
                yield from ctx.sync_write(name, nbytes, it, section, tile, stage, rows)

    def _primary_loop(
        self, ctx, name, tile_rows, total_compute, write_back, use_prefetch,
        it, section, tile, stage,
    ):
        """Stream the primary variable, interleaving the stage's compute.

        Synchronous: read block, compute its share, write it back.
        Prefetching: the unrolled loop of paper Figure 6 — read block 1,
        then issue the next read asynchronously while computing on the
        current block.
        """
        row_bytes = self.program.variable(name).row_bytes
        blocks = self._blocks(ctx, name, tile_rows)

        if not use_prefetch or len(blocks) == 1:
            for rows in blocks:
                nbytes = rows * row_bytes
                yield from ctx.sync_read(name, nbytes, it, section, tile, stage, rows)
                yield from ctx.compute_share(
                    total_compute, rows, tile_rows, it, section, tile, stage
                )
                if write_back:
                    yield from ctx.sync_write(
                        name, nbytes, it, section, tile, stage, rows
                    )
            return

        # Unrolled prefetch loop.
        nbytes0 = blocks[0] * row_bytes
        yield from ctx.sync_read(name, nbytes0, it, section, tile, stage, blocks[0])
        pending = None  # DiskOp for the block being prefetched
        for i in range(1, len(blocks)):
            nbytes = blocks[i] * row_bytes
            issue_start = ctx.now
            yield from ctx.cpu(PREFETCH_ISSUE_OVERHEAD)
            pending = ctx.issue_read(name, nbytes)
            ctx.observe(
                Op.PREFETCH_ISSUE, it, section, tile, stage, name,
                issue_start, nbytes, blocks[i],
            )
            # Overlapping computation on the previous block.
            yield from ctx.compute_share(
                total_compute, blocks[i - 1], tile_rows, it, section, tile,
                stage,
            )
            wait_start = ctx.now
            yield from ctx.wait_read(pending)
            ctx.observe(
                Op.PREFETCH_WAIT, it, section, tile, stage, name,
                wait_start, nbytes, blocks[i],
            )
            if write_back:
                prev_bytes = blocks[i - 1] * row_bytes
                yield from ctx.sync_write(
                    name, prev_bytes, it, section, tile, stage, blocks[i - 1]
                )
        yield from ctx.compute_share(
            total_compute, blocks[-1], tile_rows, it, section, tile, stage
        )
        if write_back:
            last_bytes = blocks[-1] * row_bytes
            yield from ctx.sync_write(
                name, last_bytes, it, section, tile, stage, blocks[-1]
            )


# -- module-level convenience ---------------------------------------------------


def _copy_result(result: RunResult) -> RunResult:
    """Fresh copy with private mutable lists (cache-safe to hand out)."""
    return dataclasses.replace(
        result,
        per_node_seconds=list(result.per_node_seconds),
        iteration_ends=[list(ends) for ends in result.iteration_ends],
    )


def run_cache_keys(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distributions,
    *,
    iterations: Optional[int] = None,
    io_mode: str = "auto",
    perturbation: Optional[PerturbationConfig] = None,
    dynamics=None,
    fast_forward: bool = True,
    iteration_offset: int = 0,
) -> List[str]:
    """The :class:`~repro.parallel.cache.RunCache` key of each
    distribution's run, for :func:`emulate` / :func:`emulate_many`
    called with the same keywords."""
    from repro.parallel.cache import RunCache

    instr, _ = _resolve_io_mode(io_mode)
    base = RunCache.key_base(
        cluster,
        program,
        iterations if iterations is not None else program.iterations,
        perturbation if perturbation is not None else PerturbationConfig(),
        instrumented=instr,
        fast_forward=fast_forward,
        dynamics=_resolve_dynamics(cluster, dynamics),
        io_mode=io_mode,
        iteration_offset=iteration_offset,
    )
    return [RunCache.key_from_base(base, d.counts) for d in distributions]


def emulate(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distribution: GenBlock,
    *,
    iterations: Optional[int] = None,
    io_mode: str = "auto",
    perturbation: Optional[PerturbationConfig] = None,
    dynamics=None,
    fast_forward: bool = True,
    run_cache: Union[None, bool, "object"] = None,
    telemetry=None,
    observer: Optional[Observer] = None,
    iteration_offset: int = 0,
) -> RunResult:
    """One emulated run, memoised in the shared content-keyed run cache.

    This is the single keyword-driven entry point for emulation (the
    emulator-side mirror of the consolidated ``predict()``):

    * ``io_mode`` — ``"auto"`` | ``"sync"`` | ``"prefetch"`` |
      ``"instrumented"`` (see :meth:`ClusterEmulator.run`);
    * ``dynamics`` — ``None`` honours whatever
      :class:`~repro.cluster.dynamics.DynamicsSpec` is attached to the
      cluster, an explicit spec overrides it, ``False`` forces the
      static path;
    * ``run_cache`` — ``None`` (default) uses the process-wide
      :func:`repro.parallel.cache.default_run_cache`, ``False``
      bypasses caching entirely, any
      :class:`repro.parallel.cache.RunCache` instance is used directly;
    * ``iteration_offset`` — emulate a mid-run segment (global
      iteration indexing; see :meth:`ClusterEmulator.run`).

    An emulated run is a pure function of ``(cluster, program,
    distribution, iterations, perturbation, dynamics, io_mode)`` — even
    the perturbed and dynamic ones, whose RNG streams are seeded from
    those labels — so identical configurations across experiment
    panels, benchmark repetitions and adaptive-runtime rounds share one
    simulation.  Observed runs always bypass the cache (the observer's
    callbacks are the point of the run).  Hits return a defensive copy,
    so callers may mutate the result freely.

    ``telemetry`` takes a :class:`repro.obs.Recorder`: run-cache
    hit/miss counters land under ``sim/run_cache/``, and cache misses
    record the run's phase telemetry (see :meth:`ClusterEmulator.run`).
    A hit performs no simulation, so only the counters move.
    """
    dyn = _resolve_dynamics(cluster, dynamics)
    # dyn is fully resolved; False stops the emulator's own
    # cluster-attached fallback from re-resolving a None.
    emulator = ClusterEmulator(
        cluster, program, perturbation, dynamics=dyn if dyn is not None else False
    )
    if observer is not None or run_cache is False:
        if telemetry:
            telemetry.count("sim/run_cache/bypasses")
        return emulator.run(
            distribution,
            iterations=iterations,
            io_mode=io_mode,
            fast_forward=fast_forward,
            observer=observer,
            telemetry=telemetry,
            iteration_offset=iteration_offset,
        )

    from repro.parallel.cache import default_run_cache

    store = default_run_cache() if run_cache is None else run_cache
    (key,) = run_cache_keys(
        cluster,
        program,
        [distribution],
        iterations=iterations,
        io_mode=io_mode,
        perturbation=emulator.perturbation,
        dynamics=dynamics,
        fast_forward=fast_forward,
        iteration_offset=iteration_offset,
    )
    # The store holds frozen (tuple-field) payloads and thaws on get,
    # so hits hand out private mutable lists without a deep copy.
    hit = store.get(key)
    if hit is not None:
        if telemetry:
            telemetry.count("sim/run_cache/hits")
        return hit
    result = emulator.run(
        distribution,
        iterations=iterations,
        io_mode=io_mode,
        fast_forward=fast_forward,
        telemetry=telemetry,
        iteration_offset=iteration_offset,
    )
    store.put(key, result)
    if telemetry:
        telemetry.count("sim/run_cache/misses")
        stats = store.stats
        telemetry.set("sim/run_cache/size", stats.get("size", 0))
        telemetry.set("sim/run_cache/evictions", stats.get("evictions", 0))
    return result


def emulate_many(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distributions,
    *,
    iterations: Optional[int] = None,
    io_mode: str = "auto",
    perturbation: Optional[PerturbationConfig] = None,
    dynamics=None,
    fast_forward: bool = True,
    run_cache: Union[None, bool, "object"] = None,
    telemetry=None,
    iteration_offset: int = 0,
) -> List[RunResult]:
    """Emulate a whole population of candidates in one batched pass.

    The results are bit-identical to looping :func:`emulate` over
    ``distributions`` (pinned by the golden batch suite): the pass
    resolves one emulator (and so one compiled
    :class:`~repro.sim.plan_sim.EmulationPlan`, whose rank tapes the
    candidates share) and serves each distinct candidate through
    :meth:`ClusterEmulator.run` — identical gating, walks,
    convergence checks and extrapolation.

    Keywords mirror :func:`emulate` (``io_mode``, ``dynamics``,
    ``iteration_offset``).  The run cache is consulted up front
    (duplicates inside the batch are deduplicated too) and all fresh
    results land back in one
    :meth:`~repro.parallel.cache.RunCache.put_many`.  ``run_cache``
    follows :func:`emulate`: ``None`` for the process-wide store,
    ``False`` to bypass, or an explicit
    :class:`~repro.parallel.cache.RunCache`.

    Telemetry: one ``sim/batch/passes`` count per call — the
    coalesced-round invariant the serve verify path asserts — plus
    candidate and cache-hit counters under ``sim/batch/``, with
    ``plan_runs`` counting the candidates extrapolated from a probe
    and ``fallbacks`` every other emulated one (walked or engine; see
    the per-run ``sim/plan_*`` counters).
    """
    _resolve_io_mode(io_mode)  # reject a bad mode even on an all-hit batch
    dyn = _resolve_dynamics(cluster, dynamics)
    distributions = list(distributions)
    emulator = ClusterEmulator(
        cluster, program, perturbation, dynamics=dyn if dyn is not None else False
    )
    n_iter = iterations if iterations is not None else program.iterations

    store = None
    if run_cache is not False:
        from repro.parallel.cache import default_run_cache

        store = default_run_cache() if run_cache is None else run_cache

    results: List[Optional[RunResult]] = [None] * len(distributions)
    keys: List[Optional[str]] = [None] * len(distributions)
    cache_hits = 0
    if store is not None:
        keys = run_cache_keys(
            cluster,
            program,
            distributions,
            iterations=n_iter,
            io_mode=io_mode,
            perturbation=emulator.perturbation,
            dynamics=dynamics,
            fast_forward=fast_forward,
            iteration_offset=iteration_offset,
        )
        for i, key in enumerate(keys):
            hit = store.get(key)
            if hit is not None:
                results[i] = hit
                cache_hits += 1

    # Deduplicate the remaining candidates: identical counts are one
    # emulation (runs are pure functions of their configuration).
    first_index: dict = {}
    pending: List[int] = []
    for i, dist in enumerate(distributions):
        if results[i] is not None:
            continue
        counts = tuple(dist.counts)
        if counts in first_index:
            continue
        first_index[counts] = i
        pending.append(i)

    extrapolated = 0
    if pending:
        for i in pending:
            results[i] = emulator.run(
                distributions[i],
                iterations=n_iter,
                io_mode=io_mode,
                fast_forward=fast_forward,
                telemetry=telemetry,
                iteration_offset=iteration_offset,
            )
            extrapolated += results[i].fast_forwarded
        if store is not None:
            store.put_many(
                (keys[i], results[i]) for i in pending if keys[i] is not None
            )

    # Fill batch-internal duplicates with private copies.
    for i, dist in enumerate(distributions):
        if results[i] is None:
            results[i] = _copy_result(results[first_index[tuple(dist.counts)]])

    if telemetry:
        telemetry.count("sim/batch/passes")
        telemetry.count("sim/batch/candidates", len(distributions))
        telemetry.count("sim/batch/cache_hits", cache_hits)
        telemetry.count("sim/batch/plan_runs", extrapolated)
        telemetry.count("sim/batch/fallbacks", len(pending) - extrapolated)
        if store is not None:
            telemetry.count("sim/run_cache/hits", cache_hits)
            telemetry.count("sim/run_cache/misses", len(pending))
    return results
