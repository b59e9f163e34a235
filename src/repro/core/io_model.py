"""Stage-time model: computation scaling plus Equations 1 and 2.

``sync_io_seconds`` and ``prefetch_io_seconds`` are the paper's closed
forms.  :class:`StageTimeModel` is what :class:`~repro.core.MhetaModel`
actually evaluates: the same equations applied block-by-block, mirroring
the runtime's ICLA streaming loop exactly (including the final partial
block and, for prefetching, the unrolled loop of paper Figure 6 where
the disk seek of a prefetched block hides inside the overlap window).
For equal-size blocks and ``To = 0`` both formulations coincide with
Equation 1; the unit tests pin that equivalence down.

Computation scales with assigned work: ``Tc' = Tc * W'/W`` where ``W``
is the row count the instrumented distribution assigned (Section 4.2.1).
MHETA has no per-row cost information — which is exactly why sparse CG
defeats it (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.instrument.inputs import MhetaInputs, NodeCosts
from repro.placement import MemoryPlan
from repro.program.sections import CommPattern, ParallelSection
from repro.program.stages import Stage
from repro.program.structure import ProgramStructure

__all__ = [
    "sync_io_seconds",
    "prefetch_io_seconds",
    "StageTimeModel",
    "StageTimes",
]


def sync_io_seconds(
    n_io: int,
    read_seek: float,
    read_icla_seconds: float,
    write_seek: float = 0.0,
    write_icla_seconds: float = 0.0,
) -> float:
    """Paper Equation 1: total synchronous I/O for one out-of-core array.

    ``TIO(v) = N_IO(v) * (rs + R_ICLA(v) + ws + W_ICLA(v))`` — the seek
    overheads and per-ICLA latencies paid once per pass.  Write terms are
    zero for read-only arrays; ``n_io == 0`` means in core.
    """
    if n_io < 0:
        raise ModelError("n_io must be non-negative")
    return n_io * (
        read_seek + read_icla_seconds + write_seek + write_icla_seconds
    )


def prefetch_io_seconds(
    n_io: int,
    read_seek: float,
    read_icla_seconds: float,
    overlap_seconds: float,
    write_seek: float = 0.0,
    write_icla_seconds: float = 0.0,
) -> float:
    """Paper Equation 2 (reconstructed): I/O with one-block-ahead
    prefetching.

    ``TIO(v) = N_IO*(rs + To + ws + W) + R + (N_IO - 1) * Re``, with the
    effective read latency ``Re = max(0, R - To)``.  The first ICLA read
    pays the full latency; the remaining ``N_IO - 1`` latencies are
    mitigated by the overlap computation ``To``, which is charged whether
    or not the prefetch succeeds ("prefetching can be more expensive than
    regular synchronous reads").  With ``To = 0`` this reduces exactly to
    Equation 1.
    """
    if n_io < 0:
        raise ModelError("n_io must be non-negative")
    if n_io == 0:
        return 0.0
    effective = max(0.0, read_icla_seconds - overlap_seconds)
    return (
        n_io * (read_seek + overlap_seconds + write_seek + write_icla_seconds)
        + read_icla_seconds
        + (n_io - 1) * effective
    )


@dataclass(frozen=True)
class StageTimes:
    """Predicted time for one stage on one tile of one node."""

    compute_seconds: float
    io_seconds: float

    @property
    def total(self) -> float:
        return self.compute_seconds + self.io_seconds


def _block_rows(tile_rows: int, block_rows: int) -> List[int]:
    """Row counts of the ICLA pieces streaming ``tile_rows`` (mirrors the
    runtime: full blocks then a final partial one)."""
    blocks = []
    remaining = tile_rows
    while remaining > 0:
        take = min(block_rows, remaining)
        blocks.append(take)
        remaining -= take
    return blocks


class StageTimeModel:
    """Predict per-stage computation + I/O time for a candidate
    distribution, from the instrumented measurements."""

    def __init__(
        self,
        program: ProgramStructure,
        inputs: MhetaInputs,
        prefetch_issue_overhead: Optional[float] = None,
    ) -> None:
        self._program = program
        self._inputs = inputs
        self._issue_overhead = (
            prefetch_issue_overhead
            if prefetch_issue_overhead is not None
            else inputs.micro.prefetch_issue_overhead
        )

    # -- measured-cost lookups -------------------------------------------------

    def _node_costs(self, node: int) -> NodeCosts:
        try:
            return self._inputs.nodes[node]
        except IndexError:
            raise ModelError(f"no instrumented costs for node {node}")

    def scaled_compute(
        self, node: int, section: ParallelSection, stage: Stage, rows: int
    ) -> float:
        """``Tc' = Tc * W'/W`` for the whole stage (all tiles)."""
        costs = self._node_costs(node)
        cost = costs.stage_cost(section.name, stage.name)
        if cost is None:
            raise ModelError(
                f"node {node}: stage {section.name}/{stage.name} was not "
                "measured during the instrumented iteration"
            )
        if costs.rows0 <= 0:
            raise ModelError(
                f"node {node}: instrumented distribution assigned no rows"
            )
        return cost.compute_seconds * (rows / costs.rows0)

    def _read_pb(self, node: int, variable: str) -> float:
        io = self._node_costs(node).io.get(variable)
        if io is not None and io.read_seconds_per_byte > 0:
            return io.read_seconds_per_byte
        return self._inputs.micro.disks[node].read_byte_latency

    def _write_pb(self, node: int, variable: str) -> float:
        io = self._node_costs(node).io.get(variable)
        if io is not None and io.write_seconds_per_byte > 0:
            return io.write_seconds_per_byte
        return self._inputs.micro.disks[node].write_byte_latency

    def read_block_seconds(self, node: int, variable: str, nbytes: float) -> float:
        disk = self._inputs.micro.disks[node]
        return disk.read_seek + nbytes * self._read_pb(node, variable)

    def write_block_seconds(self, node: int, variable: str, nbytes: float) -> float:
        disk = self._inputs.micro.disks[node]
        return disk.write_seek + nbytes * self._write_pb(node, variable)

    # -- stage assembly ----------------------------------------------------------

    def tile_stage_times(
        self,
        node: int,
        rows: int,
        section: ParallelSection,
        stage: Stage,
        tile_rows: int,
        plan: MemoryPlan,
    ) -> StageTimes:
        """Predicted computation + I/O for ``stage`` over one tile's
        ``tile_rows`` of ``rows`` total node rows."""
        compute_total = self.scaled_compute(node, section, stage, rows)
        tile_compute = (
            compute_total * (tile_rows / rows) if rows > 0 else 0.0
        )
        variables = self._program.variable_map

        def _ooc(name: str) -> bool:
            p = plan.placements.get(name)
            return p is not None and not p.in_core

        reads_ooc = [v for v in stage.reads if _ooc(v)]
        writes_ooc = [v for v in stage.writes if _ooc(v)]
        primary = reads_ooc[0] if reads_ooc else None

        if primary is None or tile_rows == 0:
            io = 0.0
            for name in writes_ooc:
                io += self._stream_seconds(
                    node, name, plan, tile_rows, read=False, write=True
                )
            return StageTimes(compute_seconds=tile_compute, io_seconds=io)

        io = 0.0
        for name in reads_ooc[1:]:
            io += self._stream_seconds(
                node, name, plan, tile_rows, read=True, write=False
            )
        write_back = (
            primary in stage.writes and variables[primary].writes_back
        )
        if self._program.prefetch:
            io += self._prefetch_loop_seconds(
                node, primary, plan, tile_rows, tile_compute, write_back
            )
        else:
            io += self._sync_loop_seconds(
                node, primary, plan, tile_rows, write_back
            )
        for name in writes_ooc:
            if name == primary:
                continue
            io += self._stream_seconds(
                node, name, plan, tile_rows, read=False, write=True
            )
        return StageTimes(compute_seconds=tile_compute, io_seconds=io)

    # -- streaming loops ------------------------------------------------------------

    def _stream_seconds(
        self, node, name, plan, tile_rows, *, read: bool, write: bool
    ) -> float:
        if tile_rows == 0:
            return 0.0
        placement = plan.placements[name]
        row_bytes = self._program.variable(name).row_bytes
        total = 0.0
        for rows in _block_rows(tile_rows, placement.block_rows):
            nbytes = rows * row_bytes
            if read:
                total += self.read_block_seconds(node, name, nbytes)
            if write:
                total += self.write_block_seconds(node, name, nbytes)
        return total

    def _sync_loop_seconds(self, node, name, plan, tile_rows, write_back) -> float:
        """Equation 1, block by block (reads plus optional write-backs)."""
        return self._stream_seconds(
            node, name, plan, tile_rows, read=True, write=write_back
        )

    def _prefetch_loop_seconds(
        self, node, name, plan, tile_rows, tile_compute, write_back
    ) -> float:
        """Equation 2 evaluated over the actual unrolled loop: the first
        read is cold; each later read hides behind the previous block's
        computation; write-backs are synchronous.

        Returns only the I/O-attributable seconds: total loop time minus
        the tile's computation (which the caller adds separately).
        """
        placement = plan.placements[name]
        row_bytes = self._program.variable(name).row_bytes
        blocks = _block_rows(tile_rows, placement.block_rows)
        if len(blocks) == 1:
            return self._sync_loop_seconds(node, name, plan, tile_rows, write_back)
        shares = [tile_compute * b / tile_rows for b in blocks]
        io = self.read_block_seconds(node, name, blocks[0] * row_bytes)
        for i in range(1, len(blocks)):
            read = self.read_block_seconds(node, name, blocks[i] * row_bytes)
            overlap = shares[i - 1]
            # Issue overhead, plus whatever latency the overlap fails to
            # hide (compute itself is accounted by the caller).
            io += self._issue_overhead + max(0.0, read - overlap)
            if write_back:
                io += self.write_block_seconds(
                    node, name, blocks[i - 1] * row_bytes
                )
        if write_back:
            io += self.write_block_seconds(node, name, blocks[-1] * row_bytes)
        return io

    # -- telemetry helpers -------------------------------------------------------

    def node_prefetch_io_seconds(
        self,
        node: int,
        rows: int,
        section: ParallelSection,
        plan: MemoryPlan,
    ) -> float:
        """The Equation-2 (prefetch-loop) share of this node's section
        I/O, summed over every tile and stage; zero for non-prefetching
        programs.

        Telemetry-only: the phase breakdown reports ``io_prefetch`` from
        this and ``io_sync`` as the remainder of the stage tables' I/O,
        so the two always sum to the table I/O exactly regardless of
        kernel.  Scalar replay of the same per-tile loop the reference
        kernel uses — cheap at report granularity, never on a hot path.
        """
        if not self._program.prefetch:
            return 0.0
        variables = self._program.variable_map
        placements = plan.placements

        def _ooc(name: str) -> bool:
            p = placements.get(name)
            return p is not None and not p.in_core

        tiles = section.tiles
        tile_rows_all = np.diff(rows * np.arange(tiles + 1) // tiles)
        total = 0.0
        for stage in section.stages:
            reads_ooc = [v for v in stage.reads if _ooc(v)]
            if not reads_ooc:
                continue
            primary = reads_ooc[0]
            write_back = (
                primary in stage.writes and variables[primary].writes_back
            )
            compute_total = self.scaled_compute(node, section, stage, rows)
            for trows in tile_rows_all.tolist():
                if trows == 0:
                    continue
                tile_compute = (
                    compute_total * (trows / rows) if rows > 0 else 0.0
                )
                total += self._prefetch_loop_seconds(
                    node, primary, plan, trows, tile_compute, write_back
                )
        return total


# -- batched lane tables ------------------------------------------------------


class LaneStageTables:
    """Stage tables for many ``(node, rows)`` lanes in one numpy pass
    (the compiled plan's row-store fill), from per-node constants
    gathered into arrays once: seeks, per-variable byte latencies, each
    stage's measured compute seconds, ``rows0``.

    What a stage streams depends on which variables a lane holds out of
    core, so each variable's contribution is computed over all lanes
    and masked in; adding an exact ``0.0`` leaves a sum unchanged, so
    every lane follows :meth:`StageTimeModel.tile_stage_times`' order of
    additions.  Single-tile sections and the source reads equal the
    scalar reference bitwise; multi-tile sections use closed forms over
    a ``(lanes, tiles)`` axis, within rounding of it.
    """

    def __init__(self, stage_model: StageTimeModel, sections, offsets) -> None:
        program = stage_model._program
        inputs = stage_model._inputs
        P = inputs.n_nodes
        dist = program.distributed_variables
        index = {v.name: i for i, v in enumerate(dist)}
        disks = inputs.micro.disks
        self._prefetch = program.prefetch
        self._issue = stage_model._issue_overhead
        self._offsets = list(offsets)
        self._row_bytes = [v.row_bytes for v in dist]
        self._read_seek = np.array([disks[n].read_seek for n in range(P)])
        self._write_seek = np.array([disks[n].write_seek for n in range(P)])
        self._read_pb, self._write_pb = (np.array([
            [pb(n, v.name) for n in range(P)] for v in dist
        ]).reshape(len(dist), P) for pb in (
            stage_model._read_pb, stage_model._write_pb
        ))
        self._rows0 = np.array([c.rows0 for c in inputs.nodes])
        # A node missing a stage measurement (or with no instrumented
        # rows) fails every prediction; ``error`` keeps the scalar
        # path's message for the first such node, for callers to raise
        # before building lanes.
        errors: dict = {}
        self._sections = []
        for section in sections:
            stages = []
            for stage in section.stages:
                compute = np.full(P, np.nan)  # measured seconds per node
                for n in range(P):
                    try:
                        compute[n] = stage_model.scaled_compute(
                            n, section, stage, inputs.nodes[n].rows0
                        )
                    except ModelError as exc:
                        errors.setdefault(n, str(exc))
                reads = [index[v] for v in stage.reads if v in index]
                writes = [index[v] for v in stage.writes if v in index]
                write_back = [v in writes and dist[v].writes_back
                              for v in reads]
                stages.append((compute, reads, writes, write_back))
            src = section.comm.source_variable
            nn = section.comm.pattern is CommPattern.NEAREST_NEIGHBOR
            source = ((index[src], section.comm.message_bytes)
                      if nn and src in index else None)
            self._sections.append((section.tiles, stages, source))
        self.error = errors[min(errors)] if errors else None

    def __call__(self, nodes: np.ndarray, rows: np.ndarray, placements
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """The lanes' ``(L, tiles)`` totals on the flat tile axis
        (section ``si`` owns columns ``offsets[si]:offsets[si + 1]``)
        and ``(L, sections)`` message source-read seconds."""
        lanes = _LanePass(self, nodes, rows, placements)
        offsets = self._offsets
        totals = np.empty((len(rows), offsets[-1]))
        source = np.zeros((len(rows), len(self._sections)))
        for si, (tiles, stages, src) in enumerate(self._sections):
            totals[:, offsets[si]:offsets[si + 1]] = lanes.section(
                tiles, stages
            )
            if src is not None and lanes.any_ooc[src[0]]:
                v, nbytes = src
                read = lanes.read_seek[:, 0] + nbytes * lanes.read_pb[v, :, 0]
                source[:, si] = np.where(lanes.ooc[:, v], read, 0.0)
        return totals, source


class _LanePass:
    """One batch of lanes through :class:`LaneStageTables`; every lane
    quantity is an ``(L, 1)`` column so single- and multi-tile sections
    share one ``(L, tiles)`` stage loop."""

    def __init__(self, tables: LaneStageTables, nodes, rows, placements):
        self.t = tables
        self.L = len(rows)
        self.nodes = nodes
        self.rows = rows[:, None]
        self.safe_rows = np.maximum(self.rows, 1)
        self.ratio = rows / tables._rows0[nodes]
        self.ooc = ~placements.in_core
        self.any_ooc = self.ooc.any(axis=0).tolist()
        self.block = placements.block_rows
        self.read_seek = tables._read_seek[nodes][:, None]
        self.write_seek = tables._write_seek[nodes][:, None]
        self.read_pb = tables._read_pb[:, nodes, None]  # (V, L, 1)
        self.write_pb = tables._write_pb[:, nodes, None]
        self._memo: dict = {}

    def _cached(self, key, build):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def section(self, tiles: int, stages) -> np.ndarray:
        """Stage tables of one section summed per tile, ``(L, tiles)``:
        :meth:`StageTimeModel.tile_stage_times` with each branch on
        which variables are out of core taken as a mask."""
        if tiles == 1:
            tile_rows, stream, loop = self.rows, self._stream, self._loop
        else:
            tile_rows = np.diff(
                (self.rows * np.arange(tiles + 1)) // tiles, axis=1
            )
            stream = lambda v, r, w: self._closed_stream(v, tile_rows, r, w)
            loop = lambda v, tc, wb: self._closed_loop(v, tile_rows, tc, wb)
        ooc = self.ooc
        totals = np.zeros((self.L, tiles))
        for compute, reads, writes, write_back in stages:
            # A whole-array tile takes ``compute * (rows / rows)``: the
            # compute itself, or 0 with no rows, as the scalar rule.
            tile_compute = (compute[self.nodes] * self.ratio)[:, None] * (
                tile_rows / self.safe_rows
            )
            io = np.zeros((self.L, tiles))
            # A lane's primary is its first out-of-core read; the other
            # out-of-core reads stream first, then the primary, then the
            # out-of-core writes that are not the primary.
            taken = np.zeros(self.L, dtype=bool)
            primaries = []
            for v, wb in zip(reads, write_back):
                if not self.any_ooc[v]:
                    continue
                first = ooc[:, v] & ~taken
                primaries.append((v, wb, first))
                rest = ooc[:, v] & taken
                if rest.any():
                    io = io + np.where(
                        rest[:, None], stream(v, True, False), 0.0
                    )
                taken = taken | first
            for v, wb, first in primaries:
                if first.any():
                    value = (loop(v, tile_compute, wb) if self.t._prefetch
                             else stream(v, True, wb))
                    io = io + np.where(first[:, None], value, 0.0)
            for v in writes:
                mask = ooc[:, v]
                for p, _, first in primaries:
                    if p == v:
                        mask = mask & ~first
                if self.any_ooc[v] and mask.any():
                    io = io + np.where(
                        mask[:, None], stream(v, False, True), 0.0
                    )
            totals = totals + (tile_compute + io)
        return totals

    # -- single tile: the block loops over block index ----------------
    #
    # A lane streams ``n_full`` full blocks, then a partial one when
    # ``rem > 0``.  Sorted by full-block count, the lanes having full
    # block ``k`` are a suffix, so block ``k`` adds its seconds to one
    # contiguous slice: each lane adds in the scalar loop's order (its
    # sums are bitwise equal), and the work is the blocks streamed.

    def _blocks(self, v: int):
        """Variable ``v``'s whole-array blocks, as 1-D lane arrays:
        block and remainder rows, the lane order by full-block count
        (in-core lanes count none), where each block index's suffix of
        lanes starts, and full/partial read and write seconds."""
        def build():
            rows = self.rows[:, 0]
            br = self.block[:, v]
            n_full = rows // br
            rem = rows - n_full * br
            rb = self.t._row_bytes[v]
            full, part = br * rb, rem * rb
            rpb, wpb = self.read_pb[v, :, 0], self.write_pb[v, :, 0]
            rs, ws = self.read_seek[:, 0], self.write_seek[:, 0]
            key = np.where(self.ooc[:, v], n_full, 0)
            starts = np.cumsum(np.bincount(key)[:-1]).tolist()
            return (br, rem, np.argsort(key), starts, rs + full * rpb,
                    rs + part * rpb, ws + full * wpb, ws + part * wpb)

        return self._cached(("blocks", v), build)

    def _walk(self, total, order, starts, terms, first: int = 0):
        """``total`` plus ``terms`` once per full block ``k >= first``
        on the lanes that have block ``k``, in lane order."""
        walked = total[order]
        terms = [t[order] for t in terms]
        for start in starts[first:]:
            seg = walked[start:]
            for t in terms:
                seg += t[start:]
        out = np.empty(self.L)
        out[order] = walked
        return out

    def _stream(self, v: int, read: bool, write: bool) -> np.ndarray:
        """:meth:`StageTimeModel._stream_seconds`: per block, the read
        then the write, in block order."""
        def build():
            (_, rem, order, starts,
             r_full, r_part, w_full, w_part) = self._blocks(v)
            total = self._walk(
                np.zeros(self.L), order, starts,
                [t for t, on in ((r_full, read), (w_full, write)) if on],
            )
            for t, on in ((r_part, read), (w_part, write)):
                if on:
                    total += np.where(rem > 0, t, 0.0)
            return total[:, None]

        return self._cached(("stream", v, read, write), build)

    def _loop(self, v: int, tile_compute, write_back: bool) -> np.ndarray:
        """:meth:`StageTimeModel._prefetch_loop_seconds`: a cold first
        read, then per later block the prefetched read (issue overhead
        plus what the previous full block's compute share fails to
        hide) and the previous block's write-back, then the last
        block's write-back.  With one block this is the synchronous
        stream, as in the scalar loop.  A whole local array holds at
        least one full block, so the first read is a full one."""
        (br, rem, order, starts,
         r_full, r_part, w_full, w_part) = self._blocks(v)
        issue = self.t._issue
        share = tile_compute[:, 0] * br / self.safe_rows[:, 0]
        terms = [issue + np.maximum(0.0, r_full - share)]
        if write_back:
            terms.append(w_full)
        total = self._walk(r_full, order, starts, terms, first=1)
        # A partial last block, prefetched behind the full ones.
        has = rem > 0
        total += np.where(has, issue + np.maximum(0.0, r_part - share), 0.0)
        if write_back:
            total += np.where(has, w_full, 0.0)
            total += np.where(has, w_part, w_full)
        return total[:, None]

    # -- multi-tile: closed forms over (lanes, tiles) -------------------
    #
    # Every block of a tile is full-sized except possibly the last, so
    # a tile's streaming loop collapses to a closed form in its number
    # of full blocks and its remainder.

    def _closed_seconds(self, v: int, tile_rows):
        """Per tile: block rows, full blocks (and as floats), whether a
        partial block follows, and full/partial read and write seconds."""
        def build():
            br = self.block[:, v][:, None]
            n_full = tile_rows // br
            rem = tile_rows - n_full * br
            rb = self.t._row_bytes[v]
            rpb, wpb = self.read_pb[v], self.write_pb[v]
            rs, ws = self.read_seek, self.write_seek
            return (br, n_full, n_full.astype(np.float64), rem > 0,
                    rs + (br * rb) * rpb, rs + (rem * rb) * rpb,
                    ws + (br * rb) * wpb, ws + (rem * rb) * wpb)

        return self._cached(("closed", v, tile_rows.shape[1]), build)

    def _closed_stream(self, v: int, tile_rows, read: bool, write: bool
                       ) -> np.ndarray:
        """Closed form of :meth:`StageTimeModel._stream_seconds` over
        every tile: ``n_full`` full blocks plus an optional partial one."""
        (_, _, n_full_f, has_rem,
         r_full, r_part, w_full, w_part) = self._closed_seconds(v, tile_rows)
        total = np.zeros(tile_rows.shape)
        if read:
            total = total + (n_full_f * r_full + has_rem * r_part)
        if write:
            total = total + (n_full_f * w_full + has_rem * w_part)
        return total

    def _closed_loop(self, v: int, tile_rows, tile_compute,
                     write_back: bool) -> np.ndarray:
        """Closed form of the prefetch loop over every tile: one cold
        read, ``K - 2`` full reads each overlapped by a full block's
        compute share, one last read (full or partial) overlapped the
        same way, plus synchronous write-backs of every block.  Tiles
        streaming one block take the synchronous form."""
        (br, n_full, n_full_f, has_rem,
         r_full, r_part, w_full, w_part) = self._closed_seconds(v, tile_rows)
        safe_rows = np.where(tile_rows > 0, tile_rows, 1)
        share_full = tile_compute * br / safe_rows
        issue = self.t._issue
        hidden_full = np.maximum(0.0, r_full - share_full)
        hidden_last = np.maximum(0.0, r_part - share_full)
        n_mid = np.maximum(n_full - 1, 0).astype(np.float64)
        prefetched = (
            r_full
            + n_mid * (issue + hidden_full)
            + has_rem * (issue + hidden_last)
        )
        if write_back:
            prefetched = prefetched + (n_full_f * w_full + has_rem * w_part)
        sync = self._closed_stream(v, tile_rows, True, write_back)
        return np.where(n_full + has_rem >= 2, prefetched, sync)
