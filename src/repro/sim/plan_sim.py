"""Compiled emulation plans: lower the emulator per configuration.

The event-engine emulator re-interprets the program structure — section
loops, tile bounds, disk block streaming, message tags — through a stack
of generators and an event heap on every run, even though for a fixed
``(cluster, program, perturbation)`` a rank's operations depend only on
its own rows.  An :class:`EmulationPlan` lowers each rank once and
replays it:

1. **Tapes** — a rank's op sequence with every op's time-free inputs:
   CPU delay, disk service time, noise-free compute share, prefetch
   issue/wait, message channel.  It is recorded by driving the
   executor's own node generator standalone on a :class:`_TapeCtx`
   (one description of the node program), memoised per ``(rank,
   rows)`` — or per ``(rank, start, stop)`` when sparse row weights
   make absolute positions matter — and lowered only until two
   consecutive iterations are identical and no disk stream is still
   warming; the last iteration then repeats.
2. **Noise** — each rank's :class:`~repro.sim.perturbation.
   PerturbationModel` is seeded per rank and per distribution, so a
   rank draws its stage noise in its own program order and the whole
   run's noise is one draw per rank
   (:meth:`~repro.sim.perturbation.PerturbationModel.noise_factors`),
   never memoised.
3. **The walk** replays every op on absolute per-rank clocks with the
   engine's own float arithmetic, one add at a time: a disk op queues
   with ``start = max(now, free_at)``, ``free_at = start + dur`` and
   advances ``now + (free_at - now)``; a compute share is
   ``((base * noise) * rows) / tile_rows`` (``perturb_compute``'s
   order); a receive takes ``max(now, deliver)``, deliveries keyed by
   (channel, iteration) since ranks run iterations apart.  The walk is
   therefore bitwise equal to the engine, not merely close.

A deterministic run longer than the probe walks only its first
``PROBE_ITERATIONS`` iterations; the executor extrapolates the rest
when the deltas settle (:mod:`repro.sim.steady`).  Every other run the
plan serves — noisy runs, runs no longer than the probe, probes that
did not settle — is walked in full.  This is the 1-D emulator's only
fast path: a run the plan cannot serve runs the full event engine.

Safety: plans engage only for runs the executor's gate admits; the
first walked candidate of each plan is checked bitwise against an
engine run of its first ``min(n_iter, 2)`` iterations, and any broken
assumption (unsupported request, deadlocked walk, failed self-check)
permanently retires the plan so the engine takes over.
"""

from __future__ import annotations

import threading
from typing import List, NamedTuple, Optional, Sequence

from repro.sim.engine import Recv, Send
from repro.sim.executor import ClusterEmulator, _NodeCtx
from repro.util.lru import LRUCache

__all__ = [
    "EmulationPlan",
    "emulation_plan_key",
    "get_emulation_plan",
]

#: Memoised rank tapes kept per plan (one per (rank, rows) seen).
TAPE_CACHE_ENTRIES = 512

#: Bound of the process-wide emulation-plan LRU.  Plans are small; the
#: bound exists so unattended services cycling through many (app,
#: cluster) pairs stay flat.
PLAN_CACHE_ENTRIES = 32

#: Op codes of a rank tape (see :class:`_TapeCtx`).
(_T_CPU, _T_DISK, _T_ISSUE, _T_WAIT, _T_NOISE, _T_COMPUTE, _T_SHARE,
 _T_SEND, _T_RECV) = range(9)

#: Op codes whose ops do not depend on the rank's rows (overheads,
#: markers, message channels): tapes share one object per distinct op.
_ROW_FREE = frozenset((_T_CPU, _T_WAIT, _T_NOISE, _T_SEND, _T_RECV))

#: What a :class:`_TapeCtx` yields at the end of each iteration.
_ITERATION_END = object()


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


# -- rank tapes ---------------------------------------------------------------


class _TapeCtx(_NodeCtx):
    """A node context that records instead of waiting.

    The executor's node program runs unchanged on it; each
    time-touching primitive appends its time-free inputs to ``tape``
    (disk service times come from the node's own
    :class:`~repro.sim.disk.DiskModel`, advanced in program order) and
    yields nothing, so the generator only yields its ``Send``/``Recv``
    requests and one :data:`_ITERATION_END` per iteration.  Stage
    compute is recorded noise-free, after a ``_T_NOISE`` marker where
    the engine would draw.
    """

    __slots__ = ("tape",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.tape: list = []

    def cpu(self, seconds):
        if seconds > 0.0:
            self.tape.append((_T_CPU, seconds))
        yield from ()

    def sync_read(self, var, nbytes, it, section, tile, stage, rows=0):
        self.tape.append((_T_DISK, self.disk.read_service(var, nbytes)[0]))
        yield from ()

    def sync_write(self, var, nbytes, it, section, tile, stage, rows=0):
        self.tape.append((_T_DISK, self.disk.write_service(nbytes)))
        yield from ()

    def issue_read(self, var, nbytes):
        self.tape.append((_T_ISSUE, self.disk.read_service(var, nbytes)[0]))

    def wait_read(self, op):
        self.tape.append((_T_WAIT,))
        yield from ()

    def stage_seconds(self, nominal, working_set_bytes):
        self.tape.append((_T_NOISE,))
        return self.perturb.noise_free_compute(
            self.spec, nominal, working_set_bytes
        )

    def compute(self, seconds, it, section, tile, stage):
        self.tape.append((_T_COMPUTE, seconds))
        yield from ()

    def compute_share(self, total, rows, tile_rows, it, section, tile, stage):
        self.tape.append((_T_SHARE, total, rows, tile_rows))
        yield from ()

    def end_iteration(self, it):
        yield _ITERATION_END


class _Tape(NamedTuple):
    """One rank's lowered run: per-iteration op tuples and the number
    of noise draws in each.  With ``repeats`` the last iteration
    stands for every later one; otherwise only ``len(iterations)``
    iterations are covered."""

    iterations: List[tuple]
    draws: List[int]
    repeats: bool

    def covers(self, n_iter: int) -> bool:
        return self.repeats or len(self.iterations) >= n_iter

    def total_draws(self, n_iter: int) -> int:
        draws = self.draws
        if n_iter <= len(draws):
            return sum(draws[:n_iter])
        return sum(draws) + (n_iter - len(draws)) * draws[-1]


def _walk_rank(tape: _Tape, noise: List[float], n_iter: int,
               deliver: dict, ends: List[float]):
    """Replay one rank's tape on its absolute clock, appending each
    iteration's end to ``ends``.  A generator: it yields the
    ``(channel, iteration)`` key of a message not yet in ``deliver``
    and expects to be resumed once it is.  Every step repeats the
    engine's float operations in the engine's order (see the module
    docstring), so the clocks are bitwise the engine's."""
    iterations = tape.iterations
    last = len(iterations) - 1
    now = free = pending = 0.0
    factor = 1.0
    k = 0
    for it in range(n_iter):
        for op in iterations[it if it < last else last]:
            code = op[0]
            if code == _T_SHARE:
                now = now + op[1] * factor * op[2] / op[3]
            elif code == _T_DISK:
                start = free if free > now else now
                free = start + op[1]
                now = now + (free - now)
            elif code == _T_CPU:
                now = now + op[1]
            elif code == _T_NOISE:
                factor = noise[k]
                k += 1
            elif code == _T_ISSUE:
                start = free if free > now else now
                free = start + op[1]
                pending = free
            elif code == _T_WAIT:
                if pending > now:
                    now = now + (pending - now)
            elif code == _T_SEND:
                deliver[(op[1], it)] = now + op[2]
            elif code == _T_RECV:
                key = (op[1], it)
                if key not in deliver:
                    yield key
                arrived = deliver.pop(key)
                if arrived > now:
                    now = arrived
            else:  # _T_COMPUTE
                now = now + op[1] * factor
        ends.append(now)


# -- the plan -----------------------------------------------------------------


class EmulationPlan:
    """One compiled replayer for ``(cluster, program, perturbation)``;
    see the module docstring for the lowering.  The constructor is
    cheap: tapes are lowered on demand, per rank and row range."""

    def __init__(self, cluster, program, perturbation) -> None:
        self.cluster = cluster
        self.program = program
        self.perturbation = perturbation
        #: Why the plan retired itself (``"<kind>: <detail>"``), or
        #: ``None`` while it is live.
        self.dead: Optional[str] = None
        self._lock = threading.RLock()
        self._emulator = ClusterEmulator(
            cluster, program, perturbation, dynamics=False
        )
        #: (rank, rows[, start, stop]) -> the rank's :class:`_Tape`.
        self._tapes = LRUCache(TAPE_CACHE_ENTRIES, threadsafe=True)
        #: One shared object per distinct row-free op (most of a tape).
        self._shared_ops: dict = {}
        self._checked = False
        # Absolute row positions only matter when the ground truth
        # weighs rows non-uniformly.
        self._position_dependent = bool(
            perturbation.sparse_weights and program.row_weights is not None
        )
        # Diagnostics.
        self.walks = 0
        self.tape_hits = 0
        self.tape_drives = 0

    def walk_ends(self, distribution,
                  n_iter: int) -> Optional[List[List[float]]]:
        """Walk the first ``n_iter`` iterations of one candidate's run;
        ``[node][iteration]`` completion times bitwise equal to the
        event engine's, or ``None`` when the plan cannot serve it."""
        if self.dead is not None:
            return None
        try:
            tapes = [
                self._rank_tape(rank, distribution, n_iter)
                for rank in range(self.cluster.n_nodes)
            ]
            ends = self._walk(distribution, tapes, n_iter)
            if not self._checked and n_iter > 0:
                self._self_check(distribution, ends, n_iter)
        except _PlanUnsupported as exc:
            self.dead = str(exc)
            return None
        self.walks += 1
        return ends

    @property
    def stats(self) -> dict:
        return {
            "dead": self.dead or "",
            "walks": self.walks,
            "tapes": len(self._tapes),
            "tape_hits": self.tape_hits,
            "tape_drives": self.tape_drives,
        }

    # -- lowering -------------------------------------------------------------

    def _rank_tape(self, rank: int, distribution, n_iter: int) -> _Tape:
        start, stop = distribution.rows_of(rank)
        key = (rank, start, stop) if self._position_dependent else (
            rank, stop - start
        )
        tape = self._tapes.get(key)
        if tape is not None and tape.covers(n_iter):
            self.tape_hits += 1
            return tape
        tape = self._drive_tape(rank, distribution, n_iter)
        self._tapes.put(key, tape)
        return tape

    def _drive_tape(self, rank: int, distribution, n_iter: int) -> _Tape:
        """Lower one rank by driving its node generator on a
        :class:`_TapeCtx`, stopping once two consecutive iterations are
        identical and no disk stream was warming at the end of either
        (the disk state then repeats too, so every later iteration
        would record the same ops)."""
        self.tape_drives += 1
        emulator = self._emulator
        ctx = emulator._make_context(
            rank, distribution[rank], "", None, False, context=_TapeCtx
        )
        gen = emulator._node_process(ctx, None, distribution, n_iter, False)
        tape = ctx.tape
        share = self._shared_ops.setdefault
        iterations: List[tuple] = []
        draws: List[int] = []
        settled: List[bool] = []
        # A receive resumes with a time; the tape records no clock.
        req = next(gen, None)
        while req is not None:
            kind = type(req)
            if kind is Send:
                # Tags lead with the iteration; deliveries are keyed by
                # the rest plus the walk's own iteration counter.
                tape.append((_T_SEND, (rank, req.dst) + req.tag[1:], req.transfer))
            elif kind is Recv:
                tape.append((_T_RECV, (req.src, rank) + req.tag[1:]))
            elif req is _ITERATION_END:
                iterations.append(tuple(
                    share(op, op) if op[0] in _ROW_FREE else op for op in tape
                ))
                draws.append(sum(1 for op in tape if op[0] == _T_NOISE))
                settled.append(not ctx.disk.warming())
                tape.clear()
                if (len(iterations) >= 2 and settled[-1] and settled[-2]
                        and iterations[-1] == iterations[-2]):
                    gen.close()
                    iterations.pop()
                    draws.pop()
                    return _Tape(iterations, draws, True)
            else:
                raise _PlanUnsupported(
                    f"request: unsupported {kind.__name__} from rank {rank}"
                )
            try:
                req = gen.send(0.0)
            except StopIteration:
                req = None
        return _Tape(iterations, draws, False)

    # -- the walk -------------------------------------------------------------

    def _walk(self, distribution, tapes: Sequence[_Tape],
              n_iter: int) -> List[List[float]]:
        """Interleave the ranks' walks: each runs until it needs a
        message not yet sent, and a pass that moves no rank is a
        deadlock."""
        label = "x".join(map(str, distribution.counts))
        noisy = self.perturbation.compute_noise
        deliver: dict = {}
        ends: List[List[float]] = [[] for _ in tapes]
        walkers = []
        for rank, tape in enumerate(tapes):
            n = tape.total_draws(n_iter)
            if noisy:
                model = self._emulator._perturbation_model(rank, label, False)
                noise = model.noise_factors(n).tolist()
            else:
                noise = [1.0] * n
            walkers.append(_walk_rank(tape, noise, n_iter, deliver, ends[rank]))
        waiting: List[Optional[tuple]] = [None] * len(walkers)
        active = list(range(len(walkers)))
        while active:
            still = []
            moved = False
            for rank in active:
                key = waiting[rank]
                if key is None or key in deliver:
                    moved = True
                    try:
                        waiting[rank] = next(walkers[rank])
                    except StopIteration:
                        continue
                still.append(rank)
            if not moved:
                raise _PlanUnsupported("schedule: walk deadlocked")
            active = still
        return ends

    def _self_check(self, distribution, ends: List[List[float]],
                    n_iter: int) -> None:
        """Compare the first walked candidate, bitwise, with an engine
        run of its first ``min(n_iter, 2)`` iterations."""
        with self._lock:
            if self._checked:
                return
            m = min(n_iter, 2)
            engine = self._emulator._simulate(distribution, None, False, m)
            walked = [row[:m] for row in ends]
            if walked != engine.iteration_ends:
                raise _PlanUnsupported(
                    f"self_check: walk {walked!r} vs engine "
                    f"{engine.iteration_ends!r}"
                )
            self._checked = True
