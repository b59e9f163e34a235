"""Compiled emulation plans: specialize the emulator per configuration.

The event-engine emulator re-interprets the program structure — section
loops, tile bounds, disk block streaming, message tags — on every run,
even though for a fixed ``(cluster, program, perturbation)`` the
*shape* of the computation never changes and only the per-segment
durations depend on the candidate distribution.  An
:class:`EmulationPlan` performs that interpretation once and lowers the
fast-forward probe into three reusable artifacts:

1. **Skeleton** — every rank's per-iteration sequence of communication
   operations (sends, receives, iteration ends).  Each message's
   endpoints, tag and in-flight transfer time depend only on the program
   structure and the cluster size, never on row counts (zero-row nodes
   still run every exchange and ``message_bytes`` is a section
   constant), so one skeleton serves every GEN_BLOCK candidate.
2. **Schedule** — a flat, dependency-ordered instruction list over the
   skeleton (computed by an advance-until-blocked sweep), so replaying a
   probe needs no event heap: a send deposits into its channel slot, a
   receive takes a ``max`` with it, and per-node clocks march forward.
3. **Duration profiles** — the local time between consecutive
   communication ops of one rank, obtained by driving the *actual*
   executor node generator standalone (no engine) and accumulating its
   ``Delay`` requests.  Every delay the generator yields is independent
   of absolute time (disk ``free_at`` never exceeds the node clock at a
   yield point), so the standalone drive reproduces the engine's
   durations bit for bit.  Profiles are memoised per ``(rank, rows)`` —
   or per ``(rank, start, stop)`` when sparse row weights make absolute
   positions matter — so candidate populations share them.

Replaying the probe is then a vectorised recurrence over ``(B, P)``
clock arrays (scalar for a single candidate, numpy for a batch),
followed by the ordinary :func:`repro.sim.steady.steady_deltas`
convergence check and closed-form extrapolation in the executor.  This
is the 1-D emulator's only fast path: a run the plan cannot serve runs
the full event engine.

Safety: plans engage only for runs :func:`fast_forwardable`
admits, the first compiled candidate is self-checked against a real
event-engine probe to <= 1e-9, and any broken assumption (skeleton
mismatch, unmatched message, deadlocked schedule) permanently retires
the plan so the engine takes over.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import Delay, Recv, Send
from repro.sim.steady import PROBE_ITERATIONS
from repro.util.lru import LRUCache

__all__ = [
    "EmulationPlan",
    "emulation_plan_key",
    "get_emulation_plan",
]

#: Instruction kinds of the compiled schedule.
_SEND, _RECV, _END = 0, 1, 2

#: Memoised duration profiles kept per plan (one per (rank, rows) seen).
PROFILE_CACHE_ENTRIES = 8192

#: Bound of the process-wide emulation-plan LRU.  Plans are small; the
#: bound exists so unattended services cycling through many (app,
#: cluster) pairs stay flat.
PLAN_CACHE_ENTRIES = 32

#: Iterations a profile drive must simulate before the stationarity
#: shortcut may replicate the rest of the probe (one cold pass plus two
#: comparable warm iterations).
_SHORTCUT_DRIVEN = 3

#: Self-check tolerance: the compiled walk must reproduce a real engine
#: probe of the first candidate to this relative accuracy, or the plan
#: retires itself.
_SELF_CHECK_RTOL = 1e-9


class _PlanUnsupported(Exception):
    """Raised internally when a structural assumption breaks; the plan
    is retired and the engine path handles the run.  Messages read
    ``"<kind>: <detail>"``; the kind names the fallback in telemetry."""


# -- keys and the process-wide plan LRU ---------------------------------------

_plan_cache = LRUCache(PLAN_CACHE_ENTRIES, threadsafe=True)


def emulation_plan_key(cluster, program, perturbation) -> str:
    """Content key of one emulation plan in the process-wide LRU."""
    from repro.parallel.cache import content_key

    return "emulate:" + content_key(cluster, program, perturbation)


def get_emulation_plan(cluster, program, perturbation,
                       telemetry=None) -> "EmulationPlan":
    """The process-wide :class:`EmulationPlan` for the configuration,
    compiled on first use (counted with the prediction plans' compiles,
    :func:`repro.core.plan.compile_plan`) and kept in a bounded LRU."""
    from repro.core.plan import compile_plan

    key = emulation_plan_key(cluster, program, perturbation)
    plan = _plan_cache.get(key)
    if plan is None:
        plan = compile_plan(
            lambda: EmulationPlan(cluster, program, perturbation), telemetry
        )
        _plan_cache.put(key, plan)
    return plan


# -- the plan -----------------------------------------------------------------


class EmulationPlan:
    """One compiled probe replayer for ``(cluster, program,
    perturbation)``; see the module docstring for the lowering.

    The constructor is cheap: skeleton discovery, schedule compilation
    and the engine self-check happen lazily on the first
    :meth:`probe_ends` call (they need a concrete candidate to drive).
    """

    def __init__(self, cluster, program, perturbation) -> None:
        self.cluster = cluster
        self.program = program
        self.perturbation = perturbation
        #: Why the plan retired itself (``"<kind>: <detail>"``), or
        #: ``None`` while it is live.
        self.dead: Optional[str] = None
        self._lock = threading.RLock()
        self._compiled = False
        self._emulator = None
        #: (rank, rows[,start,stop]) -> np.ndarray of segment durations.
        self._profiles = LRUCache(PROFILE_CACHE_ENTRIES, threadsafe=True)
        # Absolute row positions only matter when the ground truth
        # weighs rows non-uniformly.
        self._position_dependent = bool(
            perturbation.sparse_weights and program.row_weights is not None
        )
        # Compiled artifacts (filled by _compile).
        self._rank_ops: List[List[tuple]] = []
        self._sched: List[Tuple[int, int, int, int, float]] = []
        self._positions: List[np.ndarray] = []
        self._iter_slices: List[List[Tuple[int, int]]] = []
        self._shortcut_ok: List[bool] = []
        self._n_channels = 0
        # Diagnostics.
        self.executes = 0
        self.batch_executes = 0
        self.profile_hits = 0
        self.profile_misses = 0
        self.shortcut_drives = 0
        self.full_drives = 0

    # -- public API -----------------------------------------------------------

    def probe_ends(self, distribution) -> Optional[List[List[float]]]:
        """Replay the probe for one candidate; ``[node][iteration]``
        completion times, or ``None`` when the plan cannot serve it."""
        profs = self._prepare(distribution)
        if profs is None:
            return None
        self.executes += 1
        return self._walk_scalar(profs)

    def probe_ends_batch(self, distributions) -> Optional[np.ndarray]:
        """Replay the probe for a whole population in one pass; a
        ``(B, P, PROBE_ITERATIONS)`` array of completion times, or
        ``None`` when the plan cannot serve the batch."""
        all_profs = []
        for dist in distributions:
            profs = self._prepare(dist)
            if profs is None:
                return None
            all_profs.append(profs)
        if not all_profs:
            return None
        self.batch_executes += 1
        return self._walk_batch(all_profs)

    @property
    def stats(self) -> dict:
        return {
            "dead": self.dead or "",
            "executes": self.executes,
            "batch_executes": self.batch_executes,
            "profiles": len(self._profiles),
            "profile_hits": self.profile_hits,
            "profile_misses": self.profile_misses,
            "shortcut_drives": self.shortcut_drives,
            "full_drives": self.full_drives,
            "schedule_ops": len(self._sched),
            "channels": self._n_channels,
        }

    # -- profiling ------------------------------------------------------------

    def _prepare(self, distribution) -> Optional[List[np.ndarray]]:
        """Compile on first use, then gather the candidate's per-rank
        duration profiles (memoised).  ``None`` retires or skips."""
        if self.dead is not None:
            return None
        if not self._compiled:
            with self._lock:
                if not self._compiled and self.dead is None:
                    try:
                        self._compile(distribution)
                    except _PlanUnsupported as exc:
                        self.dead = str(exc)
                    self._compiled = True
        if self.dead is not None:
            return None
        try:
            return [
                self._rank_profile(rank, distribution)
                for rank in range(self.cluster.n_nodes)
            ]
        except _PlanUnsupported as exc:
            self.dead = str(exc)
            return None

    def _profile_key(self, rank: int, distribution) -> tuple:
        start, stop = distribution.rows_of(rank)
        if self._position_dependent:
            return (rank, start, stop)
        return (rank, stop - start)

    def _rank_profile(self, rank: int, distribution) -> np.ndarray:
        key = self._profile_key(rank, distribution)
        prof = self._profiles.get(key)
        if prof is not None:
            self.profile_hits += 1
            return prof
        self.profile_misses += 1
        ops, durs = self._drive_rank(rank, distribution, shortcut=True)
        if list(ops) != self._rank_ops[rank][: len(ops)]:
            raise _PlanUnsupported(
                f"skeleton: rank {rank} changed across candidates"
            )
        prof = self._finish_profile(rank, ops, durs)
        self._profiles.put(key, prof)
        return prof

    def _finish_profile(self, rank: int, ops: list,
                        durs: List[float]) -> np.ndarray:
        """Extend a (possibly shortcut) drive to the full probe length
        by replicating the last driven iteration's durations."""
        skeleton = self._rank_ops[rank]
        if len(ops) == len(skeleton):
            return np.asarray(durs, dtype=np.float64)
        lo, hi = self._iter_slices[rank][_SHORTCUT_DRIVEN - 1]
        cycle = durs[lo : hi + 1]
        out = list(durs)
        while len(out) < len(skeleton):
            out.extend(cycle)
        if len(out) != len(skeleton):
            raise _PlanUnsupported(
                f"skeleton: rank {rank} shortcut replication misaligned"
            )
        return np.asarray(out, dtype=np.float64)

    def _make_emulator(self):
        if self._emulator is None:
            from repro.sim.executor import ClusterEmulator

            self._emulator = ClusterEmulator(
                self.cluster, self.program, self.perturbation
            )
        return self._emulator

    def _drive_rank(self, rank: int, distribution, *,
                    shortcut: bool) -> Tuple[list, List[float]]:
        """Drive one rank's node generator standalone and split its
        timeline into (comm ops, preceding local durations).

        The driver answers every ``Delay`` with the advanced local
        clock and every ``Recv`` with the current clock (as if the
        message were already there) — legitimate because all yielded
        durations are independent of absolute time, so only the
        *segments between* communication points are being measured; the
        cross-node coupling is replayed later by the compiled walk.

        With ``shortcut`` enabled the drive stops after
        ``_SHORTCUT_DRIVEN`` iterations when (a) this rank's skeleton
        repeats structurally, (b) the last two driven iterations have
        bitwise-identical durations, and (c) no disk stream is still
        warming (a cold stream could cross its first-full-pass
        threshold in a later probe iteration and change durations, so
        it forces a full drive — mirroring what the engine probe would
        observe).
        """
        emulator = self._make_emulator()
        label = "x".join(map(str, distribution.counts))
        ctx = emulator._make_context(
            rank, distribution[rank], label, None, False
        )
        # The contexts argument of _node_process is unused by the body;
        # the generator only touches its own ctx and the distribution.
        gen = emulator._node_process(
            ctx, None, distribution, PROBE_ITERATIONS, False
        )
        ops: list = []
        durs: List[float] = []
        seg = 0.0
        t = 0.0
        ends_seen = 0
        may_stop = (
            shortcut
            and self._shortcut_ok[rank]
            and PROBE_ITERATIONS > _SHORTCUT_DRIVEN
        )
        try:
            req = next(gen)
            while True:
                while len(ctx.iteration_ends) > ends_seen:
                    ops.append(("E", ends_seen))
                    durs.append(seg)
                    seg = 0.0
                    ends_seen += 1
                    if may_stop and ends_seen == _SHORTCUT_DRIVEN:
                        if self._stationary(rank, ctx, durs):
                            gen.close()
                            self.shortcut_drives += 1
                            return ops, durs
                        may_stop = False
                kind = type(req)
                if kind is Delay:
                    seg += req.seconds
                    t += req.seconds
                    req = gen.send(t)
                elif kind is Send:
                    ops.append(("S", ctx.rank, req.dst, req.tag, req.transfer))
                    durs.append(seg)
                    seg = 0.0
                    req = gen.send(t)
                elif kind is Recv:
                    ops.append(("R", req.src, ctx.rank, req.tag))
                    durs.append(seg)
                    seg = 0.0
                    req = gen.send(t)
                else:
                    raise _PlanUnsupported(
                        f"request: unsupported {kind.__name__} from rank {rank}"
                    )
        except StopIteration:
            pass
        while len(ctx.iteration_ends) > ends_seen:
            ops.append(("E", ends_seen))
            durs.append(seg)
            seg = 0.0
            ends_seen += 1
        if ends_seen != PROBE_ITERATIONS:
            raise _PlanUnsupported(
                f"skeleton: rank {rank} produced {ends_seen} iteration ends, "
                f"expected {PROBE_ITERATIONS}"
            )
        self.full_drives += 1
        return ops, durs

    def _stationary(self, rank: int, ctx, durs: List[float]) -> bool:
        """May the remaining probe iterations be replicated from the
        last driven one?  See :meth:`_drive_rank`."""
        slices = self._iter_slices[rank]
        (lo1, hi1) = slices[_SHORTCUT_DRIVEN - 2]
        (lo2, hi2) = slices[_SHORTCUT_DRIVEN - 1]
        if durs[lo1 : hi1 + 1] != durs[lo2 : hi2 + 1]:
            return False
        disk = ctx.disk
        # Private DiskModel state, same package: a stream that has been
        # touched but is not yet warm may flip mid-probe.
        for name, streamed in disk._streamed.items():
            if streamed > 0 and not disk._warm.get(name, False):
                return False
        return True

    # -- compilation ----------------------------------------------------------

    def _compile(self, distribution) -> None:
        """Discover the skeleton from the first candidate, compile the
        dependency-ordered schedule, and self-check against a real
        engine probe."""
        emulator = self._make_emulator()
        P = self.cluster.n_nodes
        self._shortcut_ok = [False] * P  # no shortcut during discovery
        self._iter_slices = [[] for _ in range(P)]
        rank_ops: List[list] = []
        rank_durs: List[List[float]] = []
        for rank in range(P):
            ops, durs = self._drive_rank(rank, distribution, shortcut=False)
            rank_ops.append(ops)
            rank_durs.append(durs)
        self._rank_ops = rank_ops
        self._iter_slices = [self._slice_iterations(ops) for ops in rank_ops]
        self._shortcut_ok = [
            self._structurally_repeating(rank) for rank in range(P)
        ]
        self._compile_schedule()
        self._self_check(emulator, distribution, rank_durs)
        # The discovery drives double as the first candidate's profiles.
        for rank in range(P):
            self._profiles.put(
                self._profile_key(rank, distribution),
                np.asarray(rank_durs[rank], dtype=np.float64),
            )

    def _slice_iterations(self, ops: list) -> List[Tuple[int, int]]:
        """Per-iteration (first, last) op index ranges (END inclusive)."""
        slices = []
        start = 0
        for i, op in enumerate(ops):
            if op[0] == "E":
                slices.append((start, i))
                start = i + 1
        return slices

    def _iter_signature(self, ops: list, lo: int, hi: int) -> tuple:
        """Tag-free structural signature of one iteration's ops."""
        sig = []
        for op in ops[lo : hi + 1]:
            if op[0] == "S":
                sig.append(("S", op[2], op[4]))  # dst, transfer
            elif op[0] == "R":
                sig.append(("R", op[1]))  # src
            else:
                sig.append(("E",))
        return tuple(sig)

    def _structurally_repeating(self, rank: int) -> bool:
        """Do iterations ``_SHORTCUT_DRIVEN-1 .. probe-1`` share one
        op structure, making duration replication well defined?"""
        if PROBE_ITERATIONS <= _SHORTCUT_DRIVEN:
            return False
        ops = self._rank_ops[rank]
        slices = self._iter_slices[rank]
        ref = self._iter_signature(ops, *slices[_SHORTCUT_DRIVEN - 1])
        return all(
            self._iter_signature(ops, *slices[k]) == ref
            for k in range(_SHORTCUT_DRIVEN - 2, len(slices))
        )

    def _compile_schedule(self) -> None:
        """Lower the per-rank skeletons into one dependency-ordered
        instruction list plus dense channel slots."""
        P = len(self._rank_ops)
        channels: Dict[tuple, int] = {}
        sends: set = set()
        recvs: set = set()

        def chan_id(key: tuple) -> int:
            if key not in channels:
                channels[key] = len(channels)
            return channels[key]

        lowered: List[List[Tuple[int, int, float]]] = []
        for rank, ops in enumerate(self._rank_ops):
            row = []
            for op in ops:
                if op[0] == "S":
                    key = (op[1], op[2], op[3])  # (src, dst, tag)
                    if key in sends:
                        raise _PlanUnsupported(f"schedule: channel {key} sent twice")
                    sends.add(key)
                    row.append((_SEND, chan_id(key), op[4]))
                elif op[0] == "R":
                    key = (op[1], op[2], op[3])
                    if key in recvs:
                        raise _PlanUnsupported(
                            f"schedule: channel {key} received twice"
                        )
                    recvs.add(key)
                    row.append((_RECV, chan_id(key), 0.0))
                else:
                    row.append((_END, op[1], 0.0))
            lowered.append(row)
        if not recvs <= sends:
            raise _PlanUnsupported("schedule: receive without a matching send")
        self._n_channels = max(len(channels), 1)

        pos = [0] * P
        delivered: set = set()
        sched: List[Tuple[int, int, int, int, float]] = []
        total = sum(len(row) for row in lowered)
        while len(sched) < total:
            progress = False
            for rank in range(P):
                row = lowered[rank]
                while pos[rank] < len(row):
                    kind, a, transfer = row[pos[rank]]
                    if kind == _RECV and a not in delivered:
                        break
                    sched.append((rank, kind, a, pos[rank], transfer))
                    if kind == _SEND:
                        delivered.add(a)
                    pos[rank] += 1
                    progress = True
            if not progress:
                raise _PlanUnsupported("schedule: deadlocked")
        self._sched = sched
        self._positions = [
            np.fromiter(
                (i for i, s in enumerate(sched) if s[0] == rank),
                np.int64,
                len(lowered[rank]),
            )
            for rank in range(P)
        ]

    def _self_check(self, emulator, distribution,
                    rank_durs: List[List[float]]) -> None:
        """Compare the compiled walk against one real engine probe."""
        profs = [np.asarray(d, dtype=np.float64) for d in rank_durs]
        plan_ends = self._walk_scalar(profs)
        engine = emulator._simulate(
            distribution, None, False, PROBE_ITERATIONS
        )
        for plan_row, engine_row in zip(plan_ends, engine.iteration_ends):
            if len(plan_row) != len(engine_row):
                raise _PlanUnsupported("self_check: iteration count differs")
            for a, b in zip(plan_row, engine_row):
                scale = max(abs(a), abs(b), 1e-30)
                if abs(a - b) / scale > _SELF_CHECK_RTOL:
                    raise _PlanUnsupported(
                        f"self_check: plan {a!r} vs engine {b!r}"
                    )

    # -- walks ----------------------------------------------------------------

    def _walk_scalar(self, profs: Sequence[np.ndarray]) -> List[List[float]]:
        """Replay the probe for one candidate with plain floats.

        Bit-identical to one lane of :meth:`_walk_batch`: the op
        sequence is the same and every step is an IEEE double add or
        two-way max with no cross-lane interaction.
        """
        P = len(profs)
        durs = [p.tolist() for p in profs]
        clock = [0.0] * P
        deliver = [0.0] * self._n_channels
        ends: List[List[float]] = [
            [0.0] * PROBE_ITERATIONS for _ in range(P)
        ]
        for rank, kind, a, idx, transfer in self._sched:
            c = clock[rank] + durs[rank][idx]
            if kind == _SEND:
                deliver[a] = c + transfer
            elif kind == _RECV:
                d = deliver[a]
                if d > c:
                    c = d
            else:
                ends[rank][a] = c
            clock[rank] = c
        return ends

    def _walk_batch(
        self, all_profs: Sequence[Sequence[np.ndarray]]
    ) -> np.ndarray:
        """Replay the probe for ``B`` candidates over ``(B, P)`` clocks."""
        B = len(all_profs)
        P = len(self._positions)
        N = len(self._sched)
        durs = np.empty((B, N), dtype=np.float64)
        for rank in range(P):
            durs[:, self._positions[rank]] = np.stack(
                [all_profs[b][rank] for b in range(B)]
            )
        clock = np.zeros((B, P))
        deliver = np.zeros((B, self._n_channels))
        ends = np.zeros((B, P, PROBE_ITERATIONS))
        for i, (rank, kind, a, _idx, transfer) in enumerate(self._sched):
            col = clock[:, rank]
            col += durs[:, i]
            if kind == _SEND:
                deliver[:, a] = col + transfer
            elif kind == _RECV:
                np.maximum(col, deliver[:, a], out=col)
            else:
                ends[:, rank, a] = col
        return ends
