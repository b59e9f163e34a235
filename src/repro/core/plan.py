"""Compiled evaluation plans: the model's one fast prediction path.

An :class:`EvaluationPlan` lowers one model's *(app structure, cluster
shape)* pair once into a flat program, then scores validated ``(B, P)``
candidate-count matrices — a single candidate or a whole population —
with one gather, a few array builds and one steady-state walk:

1. **Table store** — plan-resident ``(node, rows) -> row`` storage laid
   out column-wise per section: single-tile sections store their section
   total, nearest-neighbour sections store the three *pre-baked* band
   values (diag / from-left / from-right contributions of that node to
   the exchange's tridiagonal max-plus matrix), pipeline sections store
   the full per-tile table.  A dense index over the keys ``node *
   (n_rows + 1) + rows`` turns a whole ``(B, P)`` candidate matrix into
   one gather.  The distinct ``(node, rows)`` pairs a batch misses are
   built in one numpy pass across nodes — the oracle's placement for
   every lane (:class:`repro.placement.LanePlanner`), then every
   section's stage tables (:class:`repro.core.io_model.LaneStageTables`)
   — and their rows and index entries written at once.  A key is built
   at most once, so the store is bounded by ``P * (n_rows + 1)`` rows.
2. **Lowering** — consecutive sections fold at compile time through a
   small state machine (diagonal / tridiagonal-band / dense-plus-rank-1
   / materialized matrix): diagonal sections fold for free into their
   neighbours, a tridiagonal section folds into a following collective
   with a banded build (no generic ``(B, P, P, P)`` composition), chains
   of tridiagonal sections fold by banded matrix updates, and pipeline
   sections split the fold with a precomputed prefix-scan op.  The
   result is a short list of *builders* (run once per batch) and *walk
   ops* (run once per iteration).
3. **Steady-state walk** — the convergence rule of the scalar reference
   walk (:meth:`MhetaModel._walk_scalar`: identical tolerances and
   extrapolation arithmetic), applied per candidate, runs over
   preallocated rotating buffers; single-matrix programs take a fused
   walk loop.

Each model owns its plan (:meth:`MhetaModel.ensure_plan`).  The plan
keeps what it reads — the oracle and its compiled lane tables — and no
reference back to the model, so a model and its plan are freed by
refcount as soon as the caller drops the model.  A compile costs about a
millisecond, so equal models do not share plans.  :func:`compile_plan`
counts every compile (evaluation and emulation plans) for
:func:`plan_cache_stats`, ``repro stats`` and benchmark JSON.  The array
layout is deliberately flat and contiguous — ``(B, P)`` clocks,
``(B, P, P)`` matrices, one gather per batch.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.io_model import LaneStageTables
from repro.exceptions import ModelError
from repro.obs import Recorder
from repro.program.sections import CommPattern

__all__ = [
    "EvaluationPlan",
    "compile_plan",
    "plan_cache_stats",
    "record_plan_gauges",
    "reset_plan_cache",
]

#: Dense-index entry bound: above this the (P, n_rows + 1) map would be
#: unreasonably large and a dict index is used instead.
_MAX_DENSE_INDEX = 1 << 25

# Convergence tolerances of the steady-state walk — must match
# MhetaModel._walk_scalar exactly.
_ATOL = 1e-12
_RTOL = 1e-9

# Section kinds after classification (see _classify).
_DIAG = 0  # NONE pattern or P == 1: diagonal max-plus matrix
_TRI = 1  # nearest neighbour: tridiagonal matrix, stored as bands
_DENSE = 2  # reduction / allgather: constant base matrix + column add
_PIPE = 3  # pipeline: no clock-independent matrix, prefix-scan replay


# -- lowering state machine ---------------------------------------------------


class _TriState:
    """A pending tridiagonal max-plus matrix, held as band *expressions*.

    Each band is a list of ``(column, node_offset)`` terms over the
    gathered store columns; the band value at node index ``k`` is the
    ordered sum of ``g[:, k + offset, column]``.  Diagonal sections fold
    in as extra terms (a column add shifts the from-right band by one
    node, a row add shifts the from-left band), so no matrix is built
    until a collective, a second exchange, or the end of the program
    forces one.
    """

    __slots__ = ("dterms", "lterms", "rterms")

    def __init__(self, dcol: int, lcol: int, rcol: int) -> None:
        self.dterms: List[Tuple[int, int]] = [(dcol, 0)]
        self.lterms: List[Tuple[int, int]] = [(lcol, 0)]
        self.rterms: List[Tuple[int, int]] = [(rcol, 1)]

    def fold_inner_diag(self, cols: Sequence[int]) -> None:
        """Compose with ``diag(v)`` applied *before* the exchange
        (column add: entry ``[n, j] += v[j]``)."""
        for c in cols:
            self.dterms.append((c, 0))
            self.lterms.append((c, 0))
            self.rterms.append((c, 1))

    def fold_outer_diag(self, col: int) -> None:
        """Compose with ``diag(v)`` applied *after* the exchange
        (row add: entry ``[n, j] += v[n]``)."""
        self.dterms.append((col, 0))
        self.lterms.append((col, 1))
        self.rterms.append((col, 0))


def _band(g: np.ndarray, terms: Sequence[Tuple[int, int]],
          length: int) -> np.ndarray:
    """Evaluate one band expression over the gathered ``(B, P, C)``
    store rows; returns ``(B, length)``."""
    col, off = terms[0]
    v = g[:, off:off + length, col]
    for col, off in terms[1:]:
        v = v + g[:, off:off + length, col]
    return v


def _colsum(g: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Ordered sum of store columns (the composition of a run of
    diagonal sections); returns ``(B, P)``."""
    v = g[:, :, cols[0]]
    for c in cols[1:]:
        v = v + g[:, :, c]
    return v


class _Scratch(dict):
    """One batch size's scratch buffers, each built on first use (a plan
    registers buffers for lowering variants it may never run)."""

    __slots__ = ("_factories", "_B")

    def __init__(self, factories: List[Callable], B: int) -> None:
        super().__init__()
        self._factories = factories
        self._B = B

    def __missing__(self, i: int) -> object:
        buf = self[i] = self._factories[i](self._B)
        return buf


class EvaluationPlan:
    """A compiled evaluator for one model's (app structure, cluster
    shape) pair.

    Built once by :meth:`MhetaModel.ensure_plan`; :meth:`execute` then
    scores validated ``(B, P)`` candidate-count matrices.  Per-candidate
    results are bit-identical across batch sizes (no reduction crosses
    the candidate axis, and the steady-state freeze is per-candidate),
    so ``execute`` backs both the batched and the single-candidate
    ``kernel="plan"`` paths.

    Plans hold per-batch-size scratch buffers and are **not**
    thread-safe — exactly like the default table LRU.  The serving layer
    runs all model passes on one executor thread, which satisfies this.
    """

    def __init__(self, model) -> None:
        # Everything the plan needs from ``model`` is read here; keeping
        # no reference to the model itself lets the model (the plan's
        # only owner) and the plan die by refcount, with no cycle left
        # for the cyclic collector.
        self._timeline = model.timeline
        self._micro = model.inputs.micro
        self._oracle = model.oracle
        self.P = model.n_nodes
        self.n_rows = model.program.n_rows
        self.executes = 0
        #: ``(node, rows)`` lanes looked up (store rows are the builds).
        self.lanes = 0
        # -- store layout ----------------------------------------------
        sections = model.program.sections
        offsets = model._tile_offsets
        self._lane_tables = LaneStageTables(
            model.stage_model, sections, offsets
        )
        self._col_specs: List[tuple] = []
        col = 0
        kinds: List[int] = []
        for si, section in enumerate(sections):
            pattern = section.comm.pattern
            if self.P == 1 or pattern is CommPattern.NONE:
                kind = _DIAG
                ncols = 1
            elif pattern is CommPattern.PIPELINE:
                kind = _PIPE
                ncols = section.tiles
            elif pattern is CommPattern.NEAREST_NEIGHBOR:
                kind = _TRI
                ncols = 3
            elif pattern in (CommPattern.REDUCTION, CommPattern.ALLGATHER):
                kind = _DENSE
                ncols = 1
            else:
                raise ModelError(
                    f"unknown communication pattern: {pattern}"
                )
            kinds.append(kind)
            self._col_specs.append(
                (kind, si, offsets[si], offsets[si + 1], col)
            )
            col += ncols
        self.n_cols = col
        self._nn_consts = self._bake_nn_constants(sections, kinds)
        # -- store -----------------------------------------------------
        # Node ``n`` owning ``rows`` rows is store key ``n * (n_rows +
        # 1) + rows``: a flat index over every key, or a dict of the
        # keys built when that would be too large.
        self._key_base = np.arange(self.P) * (self.n_rows + 1)
        index_entries = self.P * (self.n_rows + 1)
        if index_entries <= _MAX_DENSE_INDEX:
            self._index: Optional[np.ndarray] = np.full(
                index_entries, -1, dtype=np.int32
            )
            self._index_dict: Optional[dict] = None
        else:
            self._index = None
            self._index_dict = {}
        self._data = np.empty((64, self.n_cols))
        self._used = 0
        # -- lowering --------------------------------------------------
        self._buf_factories: List[Callable[[int], object]] = []
        self._ctx_cache: dict = {}
        self._builders: List[Callable] = []
        self._op_makers: List[Callable] = []
        self._matrix_buf: Optional[int] = None
        self._ops_tmp: Optional[int] = None
        self._fuse_transposed: Optional[Callable] = None
        self._lower(sections, kinds)
        # Gather memo: store rows are immutable pure functions of
        # ``(node, rows)``, so a repeated candidate batch (steady-state
        # populations, benchmark reps, coalesced serve rounds) reuses
        # its gathered ``(B, P, C)`` block and skips the scattered
        # index/store touches entirely.
        self._g_memo: dict = {}
        # Walk scratch (matrix mode only; ops mode allocates per call).
        if self._matrix_buf is not None:
            P = self.P

            # Clock buffers carry their ``(P, B, 1)`` transposed view so
            # the per-iteration broadcast add never re-derives it.
            def _clock(B: int, P: int = P) -> tuple:
                c = np.empty((B, P))
                return c, c.T[:, :, None]

            self._walk_clocks = [
                self._register_buf(_clock) for _ in range(3)
            ]
            self._walk_bufs = [
                self._register_buf(lambda B, P=P: np.empty((B, P)))
                for _ in range(5)
            ]

            # Transposed scratch: the walk copies the built matrix
            # into ``(P, B, P)`` once per execute so every iteration's
            # broadcast add and max fold run over contiguous slices.
            # The per-``k`` row views ride along.
            def _tmp(B: int, P: int = P) -> tuple:
                t = np.empty((P, B, P))
                return t, tuple(t)

            self._walk_tmp = self._register_buf(_tmp)
            self._walk_mt = self._register_buf(
                lambda B, P=P: np.empty((P, B, P))
            )
            # When the whole build is one fused tri+dense step, swap in
            # its transposed twin: it writes ``_walk_mt`` directly and
            # the walk skips the per-execute transpose copy.
            self._matrix_transposed = False
            maker = self._fuse_transposed
            if len(self._builders) == 1 and maker is not None:
                self._builders = [maker(self._walk_mt)]
                self._matrix_transposed = True
        # The maker closes over this plan; dropping it leaves no cycle.
        self._fuse_transposed = None

    # -- compile-time helpers ------------------------------------------

    def _bake_nn_constants(self, sections, kinds) -> dict:
        """Per nearest-neighbour section: the node constants of the
        exchange's tridiagonal max-plus matrix, so store rows carry
        finished band values and the hot path does zero band arithmetic.

        The bands follow from distributing the receive overheads over
        the two receive steps of :meth:`SectionTimeline._nearest_neighbor`
        (sends posted left then right, each costing ``post = source read
        + o_s``; receives left then right).  With ``local = section
        total + posts * post`` (interior nodes post twice, the ends
        once), node ``n`` contributes ``local + receive overheads`` on
        the diagonal, ``local + X + o_r + [n + 1 receives from its
        right]`` towards ``end[n + 1]`` (its last post feeds the right
        neighbour's first receive), and ``(section total + post) + X +
        o_r`` towards ``end[n - 1]`` (its first post feeds the left
        neighbour's second receive)."""
        micro = self._micro
        P = self.P
        posts = np.ones(P)
        posts[1:-1] = 2.0
        or_ = micro.recv_overhead
        or1 = np.full(P, or_)
        or1[0] = 0.0  # no left neighbour to receive from
        or2 = np.full(P, or_)
        or2[-1] = 0.0  # no right neighbour to receive from
        or12 = or1 + or2
        or2_tail = or_ + or2[1:]
        out = {}
        for si, section in enumerate(sections):
            if kinds[si] != _TRI:
                continue
            x = self._timeline._transfer(section.comm.message_bytes)
            left_add = np.zeros(P)
            left_add[: P - 1] = x + or2_tail
            out[si] = {
                "os": micro.send_overhead,
                "post_mult": posts,
                "or12": or12,
                "left_add": left_add,
                "right_add": x + or_,
            }
        return out

    def _register_buf(self, factory: Callable[[int], object]) -> int:
        self._buf_factories.append(factory)
        return len(self._buf_factories) - 1

    def _ctx(self, B: int) -> "_Scratch":
        ctx = self._ctx_cache.get(B)
        if ctx is None:
            if len(self._ctx_cache) >= 8:
                self._ctx_cache.clear()
            ctx = self._ctx_cache[B] = _Scratch(self._buf_factories, B)
        return ctx

    def _neginf_buf(self) -> int:
        P = self.P
        return self._register_buf(
            lambda B, P=P: np.full((B, P, P), -np.inf)
        )

    def _tri_view_buf(self) -> int:
        """A -inf-prefilled matrix buffer plus strided views of its
        three bands (off-band cells are written once, at allocation)."""
        P = self.P

        def make(B: int, P: int = P):
            buf = np.full((B, P, P), -np.inf)
            flat = buf.reshape(B, P * P)
            return (
                buf,
                flat[:, :: P + 1],        # diagonal, P entries
                flat[:, P:: P + 1],       # sub-diagonal  A[k+1, k]
                flat[:, 1:: P + 1],       # super-diagonal A[k, k+1]
            )

        return self._register_buf(make)

    # -- lowering -------------------------------------------------------

    def _lower(self, sections, kinds) -> None:
        """Fold the section chain into builders + walk ops.

        The pending state tracks the max-plus matrix of the sections
        composed so far; every transition either folds the new section
        into the state for free (diagonals, banded builds) or flushes
        the state as a walk op.  Section matrices compose in program
        order ("apply the earlier section, then the later one"), so
        results stay within rounding of the scalar reference walk (the
        1e-12 contract).
        """
        state: object = None  # None | list[int] (diag cols) | _TriState
        state_kind = "empty"  # empty | diag | tri | densep | mat
        dense_base: Optional[np.ndarray] = None
        dense_cols: List[int] = []
        dense_rows: List[int] = []
        mat_buf: Optional[int] = None
        tri_fold_bufs: Optional[Tuple[int, int]] = None
        n_matrix_ops = 0
        tl = self._timeline

        def flush() -> None:
            nonlocal state, state_kind, dense_base, dense_cols, dense_rows
            nonlocal mat_buf, n_matrix_ops
            if state_kind == "empty":
                return
            if state_kind == "diag":
                cols = tuple(state)
                vbuf = self._register_buf(
                    lambda B, P=self.P: np.empty((B, P))
                )

                def build_vec(g, ctx, cols=cols, vbuf=vbuf):
                    ctx[vbuf][:] = _colsum(g, cols)

                self._builders.append(build_vec)
                self._op_makers.append(
                    lambda g, ctx, vbuf=vbuf:
                        (lambda clocks, v=ctx[vbuf]: clocks + v)
                )
            elif state_kind == "tri":
                buf = self._tri_view_buf()
                self._builders.append(self._make_tri_materialize(state, buf))
                self._emit_matrix_op(buf)
                n_matrix_ops += 1
                mat_buf = buf
            elif state_kind == "densep":
                buf = self._neginf_buf()
                self._builders.append(
                    self._make_dense_materialize(
                        dense_base, tuple(dense_cols), tuple(dense_rows), buf
                    )
                )
                self._emit_matrix_op(buf)
                n_matrix_ops += 1
                mat_buf = buf
            elif state_kind == "mat":
                self._emit_matrix_op(state)
                n_matrix_ops += 1
                mat_buf = state
            state = None
            state_kind = "empty"
            dense_base = None
            dense_cols = []
            dense_rows = []

        for si, section in enumerate(sections):
            kind = kinds[si]
            spec = self._col_specs[si]
            c0 = spec[4]
            if kind == _DIAG:
                if state_kind == "empty":
                    state = [c0]
                    state_kind = "diag"
                elif state_kind == "diag":
                    state.append(c0)
                elif state_kind == "tri":
                    state.fold_outer_diag(c0)
                elif state_kind == "densep":
                    dense_rows.append(c0)
                else:  # mat
                    buf = state

                    def fold_diag(g, ctx, buf=buf, c0=c0):
                        M = ctx[buf][0] if isinstance(ctx[buf], tuple) \
                            else ctx[buf]
                        M += g[:, :, c0][:, :, None]

                    self._builders.append(fold_diag)
            elif kind == _TRI:
                tri = _TriState(c0, c0 + 1, c0 + 2)
                if state_kind == "empty":
                    state = tri
                    state_kind = "tri"
                elif state_kind == "diag":
                    tri.fold_inner_diag(state)
                    state = tri
                    state_kind = "tri"
                elif state_kind == "tri":
                    # Materialize the pending exchange, then fold this
                    # one onto it with banded row updates.
                    buf = self._tri_view_buf()
                    self._builders.append(
                        self._make_tri_materialize(state, buf)
                    )
                    if tri_fold_bufs is None:
                        tri_fold_bufs = (
                            self._neginf_buf(), self._neginf_buf()
                        )
                    self._builders.append(
                        self._make_tri_fold(tri, buf, tri_fold_bufs)
                    )
                    state = buf
                    state_kind = "mat"
                elif state_kind == "mat":
                    if tri_fold_bufs is None:
                        tri_fold_bufs = (
                            self._neginf_buf(), self._neginf_buf()
                        )
                    self._builders.append(
                        self._make_tri_fold(tri, state, tri_fold_bufs)
                    )
                else:  # densep: no cheap banded fold onto a pending
                    # dense column structure — flush and restart.
                    flush()
                    state = tri
                    state_kind = "tri"
            elif kind == _DENSE:
                base = tl._maxplus_matrix(
                    section.comm.pattern, section.comm.message_bytes
                )
                if state_kind == "empty":
                    dense_base = base
                    dense_cols = [c0]
                    state_kind = "densep"
                elif state_kind == "diag":
                    dense_base = base
                    dense_cols = [c0] + list(state)
                    state = None
                    state_kind = "densep"
                elif state_kind == "tri":
                    buf = self._neginf_buf()
                    self._builders.append(
                        self._make_tri_dense_fuse(state, base, c0, buf)
                    )
                    state = buf
                    state_kind = "mat"
                else:  # densep or mat
                    flush()
                    dense_base = base
                    dense_cols = [c0]
                    state_kind = "densep"
            else:  # _PIPE
                flush()
                self._emit_pipe_op(section, spec)
        flush()
        if n_matrix_ops == 1 and len(self._op_makers) == 1:
            self._matrix_buf = mat_buf

    def _emit_matrix_op(self, buf: int) -> None:
        P = self.P
        if self._ops_tmp is None:
            # One (P, B, P) scratch shared by every matrix op: ops run
            # sequentially and each finishes with the scratch before
            # the next starts.
            self._ops_tmp = self._register_buf(
                lambda B, P=P: np.empty((P, B, P))
            )
        tmp_buf = self._ops_tmp
        # Each matrix op keeps its own transposed copy alive across
        # the whole walk (the shared scratch is overwritten per op).
        mt_buf = self._register_buf(lambda B, P=P: np.empty((P, B, P)))

        def make(g, ctx, buf=buf):
            entry = ctx[buf]
            M = entry[0] if isinstance(entry, tuple) else entry

            if P == 1:
                return lambda clocks: (M + clocks[:, None, :]).max(axis=2)

            # ``MT[k, b, n] = M[b, n, k]``: one strided copy per
            # execute; every iteration then adds and folds over
            # contiguous slices (see _walk_fused).
            MT = ctx[mt_buf]
            np.copyto(MT, M.transpose(2, 0, 1))
            tmp = ctx[tmp_buf]
            tviews = [tmp[k] for k in range(P)]

            def op(clocks):
                np.add(MT, clocks.T[:, :, None], out=tmp)
                # Unrolled k-axis max: identical fold order to
                # ``.max(axis=2)`` at a fraction of the dispatch cost.
                out = np.maximum(tviews[0], tviews[1])
                for k in range(2, P):
                    np.maximum(out, tviews[k], out=out)
                return out

            return op

        self._op_makers.append(make)

    def _emit_pipe_op(self, section, spec) -> None:
        """A pipeline walk op with the clock-independent prefix sums
        hoisted into the builder.

        It evaluates Equation 4's recurrence
        (:meth:`SectionTimeline._pipeline`) as a per-node prefix scan
        over tiles: node ``n``'s ``now_t = max(now_{t-1}, d_t) + c_t``
        (arrival ``d_t`` from upstream, local cost ``c_t``) has the
        closed form ``now_t = C_t + max(start, max_{j<=t}(d_j -
        C_{j-1}))`` with ``C`` the prefix sums of ``c`` — one
        ``maximum.accumulate`` per node instead of a tiles x nodes
        Python loop."""
        _, _, lo, hi, c0 = spec
        tiles = hi - lo
        P = self.P
        micro = self._micro
        os_ = micro.send_overhead
        or_ = micro.recv_overhead
        x = self._timeline._transfer(section.comm.message_bytes)
        pre_buf = self._register_buf(
            lambda B, P=P, tiles=tiles: np.empty((P, B, tiles))
        )
        off_buf = self._register_buf(
            lambda B, P=P, tiles=tiles: np.empty((P, B, tiles))
        )

        def build_prefix(g, ctx, c0=c0, tiles=tiles):
            prefix = ctx[pre_buf]
            offsets = ctx[off_buf]
            for n in range(P):
                cost = g[:, n, c0:c0 + tiles].astype(np.float64, copy=True)
                if n < P - 1:
                    cost += os_
                if n > 0:
                    cost += or_
                np.cumsum(cost, axis=1, out=prefix[n])
                offsets[n, :, 0] = 0.0
                offsets[n, :, 1:] = prefix[n, :, :-1]

        self._builders.append(build_prefix)

        def make_op(g, ctx):
            prefix = ctx[pre_buf]
            offsets = ctx[off_buf]

            def pipe(clocks):
                B = clocks.shape[0]
                end = np.empty((B, P))
                upstream = None
                for n in range(P):
                    if upstream is None:
                        now = clocks[:, n, None] + prefix[n]
                    else:
                        frontier = np.maximum.accumulate(
                            upstream - offsets[n], axis=1
                        )
                        now = prefix[n] + np.maximum(
                            clocks[:, n, None], frontier
                        )
                    if n < P - 1:
                        upstream = now + x
                    end[:, n] = now[:, -1]
                return end

            return pipe

        self._op_makers.append(make_op)

    def _make_tri_materialize(self, tri: _TriState, buf: int) -> Callable:
        P = self.P
        dterms = tuple(tri.dterms)
        lterms = tuple(tri.lterms)
        rterms = tuple(tri.rterms)

        def build(g, ctx):
            M, diag_v, sub_v, sup_v = ctx[buf]
            # Later folds mutate M in place, so the off-band cells must
            # be re-cleared on every build, not just at allocation.
            M.fill(-np.inf)
            diag_v[:] = _band(g, dterms, P)
            sub_v[:] = _band(g, lterms, P - 1)
            sup_v[:] = _band(g, rterms, P - 1)

        return build

    def _make_tri_fold(
        self, tri: _TriState, mbuf: int, scratch: Tuple[int, int]
    ) -> Callable:
        """Fold a tridiagonal section *onto* a materialized matrix:
        ``new[n, j] = max(D[n] + M[n, j], L[n-1] + M[n-1, j],
        R[n] + M[n+1, j])`` via three banded row updates (edge rows of
        the scratch buffers stay -inf from allocation)."""
        P = self.P
        dterms = tuple(tri.dterms)
        lterms = tuple(tri.lterms)
        rterms = tuple(tri.rterms)
        s1, s2 = scratch

        def build(g, ctx):
            entry = ctx[mbuf]
            M = entry[0] if isinstance(entry, tuple) else entry
            D = _band(g, dterms, P)
            L = _band(g, lterms, P - 1)
            R = _band(g, rterms, P - 1)
            t1 = ctx[s1]
            t2 = ctx[s2]
            np.add(M[:, :-1, :], L[:, :, None], out=t1[:, 1:, :])
            np.add(M[:, 1:, :], R[:, :, None], out=t2[:, :-1, :])
            np.add(M, D[:, :, None], out=M)
            np.maximum(M, t1, out=M)
            np.maximum(M, t2, out=M)

        return build

    def _make_tri_dense_fuse(
        self, tri: _TriState, base: np.ndarray, ts_col: int, buf: int
    ) -> Callable:
        """The fused collective-after-exchange build (e.g. Jacobi's
        reduction after its boundary exchange): the composed matrix's
        column ``j`` only sees the exchange matrix's three band values
        of node ``j``, so the ``(B, P, P, P)`` generic composition
        collapses to three broadcast adds and two maxima."""
        P = self.P
        dterms = tuple(tri.dterms)
        lterms = tuple(tri.lterms)
        rterms = tuple(tri.rterms)
        # Constant-fold the three base alignments into contiguous
        # copies, and pre-register the band work buffers with both
        # broadcast views (row-major and transposed): the hot build is
        # then six out= ufunc calls.
        def _wband(width: int) -> int:
            def f(B: int, width: int = width) -> tuple:
                w = np.empty((B, width))
                return w, w[:, None, :], w.T[:, :, None]

            return self._register_buf(f)

        w0buf = _wband(P)
        w1wbuf = _wband(P - 1)
        w2wbuf = _wband(P - 1)

        def make(out_buf, bases, view, edge, edges_of):
            """One layout's build: ``bases`` are the base matrix's three
            alignments, ``view`` picks the band buffers' broadcast view,
            and ``edges_of(M)`` the columns ``:P-1`` and ``1:`` the two
            off-diagonal terms reach (max with the -inf elsewhere is the
            identity, so their scratch ``edge`` holds just those)."""
            b3, bsup, bsub = (np.ascontiguousarray(x) for x in bases)
            t1buf = self._register_buf(edge)
            t2buf = self._register_buf(edge)

            def build(g, ctx):
                M = ctx[out_buf]
                t1 = ctx[t1buf]
                t2 = ctx[t2buf]
                w0 = ctx[w0buf]
                w1 = ctx[w1wbuf]
                w2 = ctx[w2wbuf]
                ts = g[:, :, ts_col]
                np.add(ts, _band(g, dterms, P), out=w0[0])
                np.add(ts[:, 1:], _band(g, lterms, P - 1), out=w1[0])
                np.add(ts[:, : P - 1], _band(g, rterms, P - 1), out=w2[0])
                np.add(b3, w0[view], out=M)
                np.add(bsup, w1[view], out=t1)
                np.add(bsub, w2[view], out=t2)
                left, right = edges_of(M)
                np.maximum(left, t1, out=left)
                np.maximum(right, t2, out=right)

            return build

        build = make(
            buf, (base[None, :, :], base[None, :, 1:], base[None, :, : P - 1]),
            1, lambda B, P=P: np.empty((B, P, P - 1)),
            lambda M: (M[:, :, : P - 1], M[:, :, 1:]),
        )

        def make_transposed(mt_buf: int) -> Callable:
            """Specialized variant writing the walk's ``(P, B, P)``
            transposed matrix directly — every output of the six ufunc
            calls is contiguous and the walk skips its transpose copy.
            Values are identical element for element (the same three
            pairwise maxima of the same sums), only the layout differs.
            """
            return make(
                mt_buf,
                (base.T[:, None, :], base.T[1:, None, :],
                 base.T[: P - 1, None, :]),
                2, lambda B, P=P: np.empty((P - 1, B, P)),
                lambda MT: (MT[: P - 1], MT[1:]),
            )

        self._fuse_transposed = make_transposed
        return build

    def _make_dense_materialize(
        self,
        base: np.ndarray,
        cols: Tuple[int, ...],
        rows: Tuple[int, ...],
        buf: int,
    ) -> Callable:
        def build(g, ctx):
            M = ctx[buf]
            np.add(base[None, :, :], _colsum(g, cols)[:, None, :], out=M)
            if rows:
                M += _colsum(g, rows)[:, :, None]

        return build

    # -- table store ----------------------------------------------------

    def _lookup(self, counts: np.ndarray) -> np.ndarray:
        keys = self._key_base + counts
        if self._index is not None:
            return self._index.take(keys)
        get = self._index_dict.get
        return np.array(
            [get(k, -1) for k in keys.ravel().tolist()], dtype=np.int64
        ).reshape(counts.shape)

    def _fill_missing(self, counts: np.ndarray, idx: np.ndarray) -> None:
        """Build the store rows of every distinct missed ``(node, rows)``
        lane of ``counts`` in one pass (oracle placement, then stage
        tables, then the baked band values) and index them."""
        if self._lane_tables.error:
            raise ModelError(self._lane_tables.error)
        keys = (self._key_base + counts)[idx < 0]
        if self._index is not None:
            # Mark each missed entry with a lane number: the lane whose
            # mark survives stands for its key, so repeats within the
            # batch are built once.
            lanes = np.arange(len(keys), dtype=np.int32)
            self._index[keys] = lanes
            keys = keys[self._index[keys] == lanes]
        else:
            keys = np.unique(keys)
        nodes, rows = np.divmod(keys, self.n_rows + 1)
        totals, source = self._lane_tables(
            nodes, rows, self._oracle.plan_lanes(nodes, rows)
        )
        start, stop = self._used, self._used + len(keys)
        if stop > self._data.shape[0]:
            grown = np.empty((max(2 * self._data.shape[0], stop), self.n_cols))
            grown[:start] = self._data[:start]
            self._data = grown
        vec = self._data[start:stop]
        for kind, si, lo, hi, c0 in self._col_specs:
            if kind == _TRI:
                consts = self._nn_consts[si]
                ts = totals[:, lo]
                post = source[:, si] + consts["os"]
                local = ts + consts["post_mult"][nodes] * post
                vec[:, c0] = local + consts["or12"][nodes]
                vec[:, c0 + 1] = local + consts["left_add"][nodes]
                vec[:, c0 + 2] = (ts + post) + consts["right_add"]
            elif kind == _PIPE:
                vec[:, c0:c0 + (hi - lo)] = totals[:, lo:hi]
            elif hi - lo == 1:
                vec[:, c0] = totals[:, lo]
            else:
                # P == 1 pipeline folded to a diagonal: section total is
                # the tile sum.
                vec[:, c0] = totals[:, lo:hi].sum(axis=1)
        if self._index is not None:
            self._index[keys] = np.arange(start, stop)
        else:
            self._index_dict.update(zip(keys.tolist(), range(start, stop)))
        self._used = stop

    # -- execution ------------------------------------------------------

    def execute(self, counts: np.ndarray, n_iter: int) -> np.ndarray:
        """Score a validated ``(B, P)`` int64 candidate matrix; returns
        the ``(B,)`` predicted totals (slowest node per candidate)."""
        B = counts.shape[0]
        self.executes += 1
        self.lanes += counts.size
        key = counts.tobytes()
        g = self._g_memo.get(key)
        if g is None:
            idx = self._lookup(counts)
            if idx.min() < 0:
                self._fill_missing(counts, idx)
                idx = self._lookup(counts)
            # ``mode="clip"`` skips bounds checks — every index is
            # valid after the fill above.
            g = self._data.take(idx, axis=0, mode="clip")
            if B <= 64:  # bound the memo's footprint
                if len(self._g_memo) >= 8:
                    self._g_memo.pop(next(iter(self._g_memo)))
                self._g_memo[key] = g
        ctx = self._ctx(B)
        for builder in self._builders:
            builder(g, ctx)
        if self._matrix_buf is not None:
            if self._matrix_transposed:
                M = None
            else:
                entry = ctx[self._matrix_buf]
                M = entry[0] if isinstance(entry, tuple) else entry
            totals = self._walk_fused(M, n_iter, ctx)
        else:
            ops = [make(g, ctx) for make in self._op_makers]
            totals = self._walk_ops(ops, n_iter, B)
        P = self.P
        if P == 1:
            return totals[:, 0].copy()
        # Pairwise-halving max over nodes (totals is walk scratch).
        m = P
        while m > 2:
            h = m // 2
            np.maximum(
                totals[:, : m - h], totals[:, h:m], out=totals[:, : m - h]
            )
            m -= h
        return np.maximum(totals[:, 0], totals[:, 1])

    def _walk_fused(self, M: np.ndarray, n_iter: int, ctx: list
                    ) -> np.ndarray:
        """Single-matrix steady-state walk over rotating buffers.

        Per-candidate freezing replays :meth:`_walk_ops` term for term:
        the same tolerance expression, the same ``last + steady * k``
        extrapolation, the same final fallback.
        """
        wb = self._walk_bufs
        cbufs = tuple(ctx[i] for i in self._walk_clocks)
        s0, s1 = ctx[wb[0]], ctx[wb[1]]
        absb, diffb, tolb = ctx[wb[2]], ctx[wb[3]], ctx[wb[4]]
        # ``MT[k, b, n] = M[b, n, k]``: one strided copy per execute
        # buys contiguous reads for every iteration's add and fold.
        # ``M is None`` means the transposed build already wrote it.
        MT = ctx[self._walk_mt]
        if M is not None:
            np.copyto(MT, M.transpose(2, 0, 1))
        P, B = MT.shape[0], MT.shape[1]
        tmp, tviews = ctx[self._walk_tmp]
        totals = np.empty((B, P))
        cur, curT = cbufs[0]
        cur.fill(0.0)
        last = None
        second_last = None
        steady_now = None
        prev_steady = None
        active: Optional[np.ndarray] = None
        ci = 0
        si = 0
        simulate = 0
        while simulate < n_iter:
            ci = (ci + 1) % 3
            nxt, nxtT = cbufs[ci]
            np.add(MT, curT, out=tmp)
            # Pairwise-halving k-axis max: numpy's reduce machinery
            # costs ~4x more than explicit maxima on these tiny
            # arrays, and halving folds P slabs in ceil(log2 P) calls
            # (max is exact, so any association is bit-identical).
            # Matrix mode implies P >= 2 (P == 1 lowers every section
            # to a diagonal column, never to a matrix).
            m = P
            while m > 2:
                h = m // 2
                np.maximum(tmp[: m - h], tmp[h:m], out=tmp[: m - h])
                m -= h
            np.maximum(tviews[0], tviews[1], out=nxt)
            second_last, last = last, nxt
            cur, curT = nxt, nxtT
            simulate += 1
            if second_last is None:
                continue
            steady_now = (s0, s1)[si]
            si ^= 1
            np.subtract(last, second_last, out=steady_now)
            if prev_steady is not None:
                np.subtract(steady_now, prev_steady, out=diffb)
                np.abs(diffb, out=diffb)
                # Certain-convergence shortcut: the tolerance is
                # ``_ATOL + _RTOL * |prev|`` >= ``_ATOL`` everywhere,
                # so a max abs diff within ``_ATOL`` proves every
                # candidate converged this iteration — same freeze
                # point, same extrapolation, without the elementwise
                # tolerance machinery.
                if active is None and diffb.max() <= _ATOL:
                    np.multiply(steady_now, n_iter - simulate, out=diffb)
                    np.add(last, diffb, out=totals)
                    return totals
                np.multiply(absb, _RTOL, out=tolb)
                tolb += _ATOL
                converged = (diffb <= tolb).all(axis=1)
                if converged.any():
                    if active is None and converged.all():
                        np.multiply(
                            steady_now, n_iter - simulate, out=diffb
                        )
                        np.add(last, diffb, out=totals)
                        return totals
                    if active is None:
                        active = np.ones(B, dtype=bool)
                    newly = active & converged
                    if newly.any():
                        totals[newly] = (
                            last[newly]
                            + steady_now[newly] * (n_iter - simulate)
                        )
                        active[newly] = False
                        if not active.any():
                            return totals
            prev_steady = steady_now
            np.abs(steady_now, out=absb)
        if active is None:
            totals[:] = last
        else:
            totals[active] = last[active]
        return totals

    def _walk_ops(self, ops, n_iter: int, B: int) -> np.ndarray:
        """Generic walk for multi-op plans (collective chains,
        pipelines): the scalar reference walk's convergence rule and
        extrapolation (:meth:`MhetaModel._walk_scalar`), applied to each
        candidate independently — the moment candidate ``b``'s increment
        vector repeats, its extrapolated totals are frozen while the
        rest keep walking."""
        P = self.P
        clocks = np.zeros((B, P))
        totals = np.empty((B, P))
        active = np.ones(B, dtype=bool)
        frozen_none = True
        second_last = None
        last = None
        prev_steady = None
        simulate = 0
        while simulate < n_iter:
            for op in ops:
                clocks = op(clocks)
            second_last, last = last, clocks
            simulate += 1
            if second_last is not None:
                steady_now = last - second_last
                if prev_steady is not None:
                    diff = np.abs(steady_now - prev_steady)
                    # Certain-convergence shortcut (see _walk_fused):
                    # a max abs diff within ``_ATOL`` converges every
                    # candidate at this same freeze point.
                    if frozen_none and diff.max() <= _ATOL:
                        totals[:] = last
                        totals += steady_now * (n_iter - simulate)
                        return totals
                    converged = (
                        diff <= _ATOL + _RTOL * np.abs(prev_steady)
                    ).all(axis=1)
                    newly = active & converged
                    if newly.any():
                        frozen_none = False
                        totals[newly] = (
                            last[newly]
                            + steady_now[newly] * (n_iter - simulate)
                        )
                        active[newly] = False
                        if not active.any():
                            return totals
                prev_steady = steady_now
        totals[active] = last[active]
        return totals

    @property
    def stats(self) -> dict:
        """Per-plan diagnostics (store occupancy, execute count)."""
        return {
            "mode": "matrix" if self._matrix_buf is not None else "ops",
            "store_rows": self._used,
            "executes": self.executes,
            "columns": self.n_cols,
        }


# -- compile counters ----------------------------------------------------------

_compiles = 0
_compile_seconds = 0.0


def compile_plan(build: Callable[[], object],
                 telemetry: Optional[Recorder] = None):
    """Run one plan compile (``build()``) under ``span/plan/compile``
    and count it in :func:`plan_cache_stats`.  Every compiled-plan kind
    goes through here: the 1-D and 2-D evaluation plans their models
    own, and the emulation plans of :mod:`repro.sim.plan_sim`."""
    global _compiles, _compile_seconds
    t0 = time.perf_counter()
    if telemetry:
        with telemetry.span("plan/compile"):
            plan = build()
    else:
        plan = build()
    _compiles += 1
    _compile_seconds += time.perf_counter() - t0
    if telemetry:
        telemetry.count("model/plan_cache/compiles")
    return plan


def plan_cache_stats() -> dict:
    """Process-wide plan compile counters."""
    return {"compiles": _compiles, "compile_seconds": _compile_seconds}


def record_plan_gauges(rec: Recorder, resident: int) -> None:
    """The ``model/plan_cache/*`` gauges of one model's prediction:
    ``resident`` is the number of compiled plans that model holds."""
    rec.set("model/plan_cache/size", resident)
    rec.set("model/plan_cache/compiles", _compiles)
    rec.set("model/plan_cache/compile_seconds", _compile_seconds)


def reset_plan_cache() -> None:
    """Zero the compile counters (tests and benchmarks)."""
    global _compiles, _compile_seconds
    _compiles = 0
    _compile_seconds = 0.0
