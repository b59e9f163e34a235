"""Shared ICLA placement logic: which variables are in core, and how big
their in-core pieces are.

Both the emulator and MHETA's out-of-core oracle answer the same
question — given a node's available memory and the local rows a
distribution assigns, which distributed variables fit entirely in memory
(in core) and what ICLA size do the others stream through? — using the
same greedy rule, so the *only* systematic difference between them is the
amount of memory they believe is available:

* MHETA's heuristic assumes the full application memory is usable
  (paper: "MHETA currently uses a simple heuristic");
* the emulator's runtime reserves buffer/bookkeeping memory, which is
  precisely the misclassification window behind limitation 2 of paper
  Section 5.4.

Rule: replicated variables are resident everywhere.  Distributed
variables are considered smallest-first; each fits in core while memory
remains (keeping at least one block row per remaining variable); the
leftover memory is divided among the out-of-core variables pro rata to
their local sizes, giving each its ICLA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.program.structure import ProgramStructure
from repro.program.variables import Variable

__all__ = [
    "VariablePlacement",
    "MemoryPlan",
    "LanePlacements",
    "LanePlanner",
    "plan_memory",
]


@dataclass(frozen=True)
class VariablePlacement:
    """Placement of one distributed variable on one node."""

    name: str
    local_rows: int
    local_bytes: float
    in_core: bool
    icla_bytes: float  #: bytes per in-core piece (== local_bytes when in core)
    block_rows: int  #: rows per ICLA piece (== local_rows when in core)
    n_io: int  #: disk passes to stream the whole local array (1 if in core)

    @property
    def ocla_bytes(self) -> float:
        """Out-of-core local array size (0 when in core)."""
        return 0.0 if self.in_core else self.local_bytes


@dataclass(frozen=True)
class MemoryPlan:
    """Complete placement for one node under one distribution."""

    node_name: str
    local_rows: int
    available_bytes: float  #: memory usable for distributed data
    placements: Dict[str, VariablePlacement]

    def __getitem__(self, var: str) -> VariablePlacement:
        return self.placements[var]

    @property
    def any_out_of_core(self) -> bool:
        return any(not p.in_core for p in self.placements.values())

    @property
    def resident_bytes(self) -> float:
        """Bytes of distributed data resident in memory (full in-core
        arrays plus one ICLA per streamed variable)."""
        return sum(
            p.local_bytes if p.in_core else p.icla_bytes
            for p in self.placements.values()
        )


def plan_memory(
    program: ProgramStructure,
    local_rows: int,
    memory_bytes: float,
    *,
    reserved_bytes: float = 0.0,
    icla_reserved_bytes: float = 0.0,
    conservative_reserved_bytes: float = 0.0,
    forced_out_of_core: bool = False,
    variables: Optional[Sequence[Variable]] = None,
    order_policy: str = "size",
    share_policy: str = "prorata",
) -> MemoryPlan:
    """Compute variable placements for a node.

    Parameters
    ----------
    program:
        The application structure (provides variables and replicated
        sizes).
    local_rows:
        Rows assigned to this node by the distribution.
    memory_bytes:
        The node's application memory.
    reserved_bytes:
        Memory subtracted before the in-core determination.  Both the
        model's oracle and the emulated runtime pass 0 here: a local
        array that nominally fits in memory *is* kept in core (the
        runtime swaps buffer space for lazier double buffering rather
        than spilling a fitting array to disk).
    icla_reserved_bytes:
        Memory the runtime's buffers take away from the ICLAs of
        variables that are *already* out of core.  The model's oracle
        passes 0, so its predicted ICLA sizes (and hence ``N_IO``) are
        slightly optimistic — part of limitation 2 of paper Section 5.4.
    conservative_reserved_bytes:
        Extra headroom the runtime demands before keeping a *secondary*
        variable in core (the primary — largest — array's placement is
        never affected: the runtime pins its working set first).  The
        oracle passes 0, so near the boundary it occasionally declares a
        vector in core that the runtime actually streams — the paper's
        "occasionally placing what should be an out-of-core variable in
        the in-core variable set", with the bounded (~10%) cost the
        paper observed because only small variables flip.
    forced_out_of_core:
        Instrumented-iteration mode (paper Section 4.1.1): every
        distributed variable is forced to stream through disk so its I/O
        latencies can be measured, using an ICLA of at most half the
        local array.
    variables:
        Restrict planning to these variables (defaults to all distributed
        variables of the program).
    order_policy:
        Order in which variables are considered for in-core placement:
        ``"size"`` (smallest first — the model heuristic's assumption) or
        ``"declaration"`` (program order — what the runtime actually
        does).  The divergence between the two is part of why MHETA's
        out-of-core heuristic is "not sophisticated" (Section 5.4).
    share_policy:
        How leftover memory is split among out-of-core variables:
        ``"prorata"`` to local sizes (model) or ``"equal"`` (runtime).
    """
    if local_rows < 0:
        raise SimulationError("local_rows must be non-negative")
    if variables is None:
        variables = program.distributed_variables
    available = max(
        0.0, memory_bytes - program.replicated_bytes - reserved_bytes
    )

    locals_: Dict[str, float] = {
        v.name: v.local_bytes(local_rows) for v in variables
    }
    if order_policy == "size":
        order = sorted(variables, key=lambda v: locals_[v.name])
    elif order_policy == "declaration":
        order = list(variables)
    else:
        raise SimulationError(f"unknown order_policy {order_policy!r}")
    if share_policy not in ("prorata", "equal"):
        raise SimulationError(f"unknown share_policy {share_policy!r}")

    in_core: Dict[str, bool] = {}
    remaining = available
    pending = list(order)
    if forced_out_of_core:
        for v in order:
            in_core[v.name] = False
    else:
        largest = max(locals_.values(), default=0.0)
        for i, v in enumerate(order):
            size = locals_[v.name]
            # Keep at least one row's worth of memory for every variable
            # still to be placed, so ICLAs never collapse to zero.
            tail_reserve = sum(
                max(w.row_bytes, 1.0) for w in order[i + 1 :]
            )
            headroom = (
                0.0 if size >= largest else conservative_reserved_bytes
            )
            if size <= remaining - tail_reserve - headroom:
                in_core[v.name] = True
                remaining -= size
            else:
                in_core[v.name] = False
        pending = [v for v in order if not in_core[v.name]]

    # Divide what is left among the out-of-core variables (minus the
    # runtime's buffer reservation, which only squeezes ICLA sizes; on
    # very tight nodes the runtime shrinks its buffers rather than
    # letting ICLAs collapse into seek-thrashing slivers, so the
    # reservation never takes more than half of what is left).
    remaining = max(remaining - min(icla_reserved_bytes, 0.5 * remaining), 0.0)
    ooc_total = sum(locals_[v.name] for v in pending)
    placements: Dict[str, VariablePlacement] = {}
    for v in order:
        size = locals_[v.name]
        if in_core.get(v.name, False) or local_rows == 0 or size == 0.0:
            placements[v.name] = VariablePlacement(
                name=v.name,
                local_rows=local_rows,
                local_bytes=size,
                in_core=True,
                icla_bytes=size,
                block_rows=max(local_rows, 1),
                n_io=1,
            )
            continue
        if share_policy == "prorata":
            share = (
                remaining * (size / ooc_total) if ooc_total > 0 else remaining
            )
        else:  # equal split among out-of-core variables
            share = remaining / max(len(pending), 1)
        block_rows = max(1, int(share // max(v.row_bytes, 1e-12)))
        if forced_out_of_core:
            # At most half the local array per piece => at least 2 passes.
            block_rows = max(1, min(block_rows, local_rows // 2 or 1))
        block_rows = min(block_rows, local_rows)
        n_io = -(-local_rows // block_rows)  # ceil division
        placements[v.name] = VariablePlacement(
            name=v.name,
            local_rows=local_rows,
            local_bytes=size,
            in_core=False,
            icla_bytes=block_rows * v.row_bytes,
            block_rows=block_rows,
            n_io=n_io,
        )
    return MemoryPlan(
        node_name="",
        local_rows=local_rows,
        available_bytes=available,
        placements=placements,
    )


class LanePlacements(NamedTuple):
    """:class:`LanePlanner`'s ``(lanes, variables)`` arrays (columns in
    ``program.distributed_variables`` order)."""

    in_core: np.ndarray  #: bool
    block_rows: np.ndarray  #: int64 rows per ICLA piece
    rows: np.ndarray  #: ``(lanes, 1)`` int64 local rows

    @property
    def n_io(self) -> np.ndarray:
        """int64 disk passes (1 when in core)."""
        return np.where(self.in_core, 1, -(-self.rows // self.block_rows))


class LanePlanner:
    """:func:`plan_memory` at its defaults (the model's heuristic: size
    order, pro-rata ICLA shares, no reservations), compiled for one
    program and one set of node memories, then evaluated for many
    ``(node, rows)`` lanes at once.

    Local sizes are ``rows * row_bytes``, so every lane with rows sorts
    the variables alike (stably, by row bytes) and keeps the same tail
    reserve per greedy step; a zero-row lane is in core whatever the
    order.  Sizes, memories and reserves are whole byte counts, exact in
    float64 however summed, and the ICLA share repeats the scalar
    rule's float operations in order: each lane equals ``plan_memory``.
    """

    def __init__(self, program: ProgramStructure,
                 memory_bytes: Sequence[int]) -> None:
        variables = program.distributed_variables
        self._order = sorted(
            range(len(variables)), key=lambda i: variables[i].row_bytes
        )
        self._tails = [
            sum(max(variables[j].row_bytes, 1.0) for j in self._order[i + 1:])
            for i in range(len(self._order))
        ]
        self._row_bytes = np.array([float(v.row_bytes) for v in variables])
        self._total_row_bytes = float(sum(v.row_bytes for v in variables))
        self._divisor = np.maximum(self._row_bytes, 1e-12)
        self._available = np.array([
            max(0.0, m - program.replicated_bytes - 0.0)
            for m in memory_bytes
        ])

    def __call__(self, nodes: np.ndarray, rows: np.ndarray) -> LanePlacements:
        available = self._available[nodes]
        rows = rows[:, None]
        sizes = rows * self._row_bytes
        in_core = np.empty(sizes.shape, dtype=bool)
        remaining = available
        for v, tail in zip(self._order, self._tails):
            size = sizes[:, v]
            fit = size <= remaining - tail
            in_core[:, v] = fit
            remaining = remaining - np.where(fit, size, 0.0)
        # What did not fit: all local bytes less those placed in core.
        ooc_total = (
            rows[:, 0] * self._total_row_bytes - (available - remaining)
        )
        in_core |= sizes == 0.0
        # Out-of-core ICLA: a pro-rata share of what is left, in whole
        # rows.
        share = remaining[:, None] * (
            sizes / np.where(ooc_total > 0, ooc_total, 1.0)[:, None]
        )
        whole = np.floor_divide(share, self._divisor)
        block = np.where(in_core, np.maximum(rows, 1),
                         np.clip(whole, 1, rows).astype(np.int64))
        return LanePlacements(in_core, block, rows)
