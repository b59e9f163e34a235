"""The compiled plan's batched fill against the scalar per-pair build.

``EvaluationPlan`` builds every missed ``(node, rows)`` lane of a batch
in one numpy pass: the oracle's placement for all lanes at once
(:class:`repro.placement.LanePlanner`), then every section's stage
tables (:class:`repro.core.io_model.LaneStageTables`).  The scalar
build (``plan_memory`` and ``MhetaModel._node_tables``) stays as the
reference, and the pass must reproduce it lane by lane:

* the placement field by field (``in_core``, ``block_rows``, ``n_io``);
* single-tile sections and message source reads bitwise, because the
  Equation 1/2 block loops add each block's seconds in the scalar
  loop's order;
* multi-tile (pipeline) sections, which use closed forms over the tile
  axis, to ``1e-12`` relative.

Hypothesis draws random programs and clusters with 1-64 MiB memories
(so arrays stream in several ICLA passes), prefetching on and off,
pipeline tiles and zero-row lanes mixed into one batch; the golden grid
covers the paper's applications on the Table-1 configurations at two
scales.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps import paper_applications
from repro.cluster import table1_configs
from repro.core.io_model import LaneStageTables
from repro.core.model import MhetaModel
from repro.distribution import GenBlock, block, largest_remainder_round
from repro.experiments import build_model
from repro.instrument.collect import collect_inputs
from repro.placement import LanePlanner, plan_memory
from repro.program import ProgramBuilder

from tests.test_model_emulator_agreement import (
    IDEAL,
    PERFECT,
    cluster_strategy,
    make_cluster,
    program_strategy,
)

REL_TOL = 1e-12


def _boundary_memories(program, rows: int):
    """Node memories at which, for ``rows`` local rows, each variable in
    turn (in the rule's size order, every smaller one in core) fits with
    exactly no byte to spare: the in-core test's equality case."""
    variables = sorted(program.distributed_variables,
                       key=lambda v: v.row_bytes)
    out = []
    placed = 0
    for i, var in enumerate(variables):
        placed += rows * var.row_bytes
        tail = sum(max(w.row_bytes, 1) for w in variables[i + 1:])
        out.append(program.replicated_bytes + placed + tail)
    return out


def _check_placements(program, memories, nodes, rows) -> int:
    """Assert the batched placement of ``(nodes[l], rows[l])`` equals
    ``plan_memory`` field by field; returns how many out-of-core
    placements stream in several blocks, how many of them end on a
    whole block, and how many variables sit exactly at the in-core
    boundary."""
    placements = LanePlanner(program, memories)(nodes, rows)
    n_io = placements.n_io
    counts = np.zeros(3, dtype=int)
    for lane, (n, r) in enumerate(zip(nodes.tolist(), rows.tolist())):
        ref = plan_memory(program, r, memories[n])
        remaining = ref.available_bytes
        for v, var in enumerate(program.distributed_variables):
            want = ref.placements[var.name]
            got = (bool(placements.in_core[lane, v]),
                   int(placements.block_rows[lane, v]), int(n_io[lane, v]))
            assert got == (want.in_core, want.block_rows, want.n_io), (
                memories[n], r, var.name
            )
            if not want.in_core and want.n_io >= 2:
                counts[0] += 1
                counts[1] += r % want.block_rows == 0
        for i, var in enumerate(sorted(program.distributed_variables,
                                       key=lambda v: v.row_bytes)):
            tail = sum(max(w.row_bytes, 1) for w in
                       sorted(program.distributed_variables,
                              key=lambda v: v.row_bytes)[i + 1:])
            size = r * var.row_bytes
            counts[2] += r > 0 and size == remaining - tail
            if not ref.placements[var.name].in_core:
                break
            remaining -= size
    return counts


def _lanes(nodes, rows):
    return (np.asarray(nodes, dtype=np.int64),
            np.asarray(rows, dtype=np.int64))


def _check_tables(model: MhetaModel, nodes, rows) -> None:
    """Assert the batched stage tables of ``(nodes[l], rows[l])`` equal
    the scalar ``_node_tables``."""
    sections = model.program.sections
    offsets = model._tile_offsets
    totals, source = LaneStageTables(model.stage_model, sections, offsets)(
        nodes, rows, model.oracle.plan_lanes(nodes, rows)
    )
    for lane, (n, r) in enumerate(zip(nodes.tolist(), rows.tolist())):
        ref = model._node_tables(n, r, model.oracle.plan(n, r))
        for si, section in enumerate(sections):
            want_totals, _, want_source = ref[si]
            got = totals[lane, offsets[si]:offsets[si + 1]].tolist()
            assert source[lane, si] == want_source, (n, r, section.name)
            if section.tiles == 1:
                assert got == want_totals, (n, r, section.name)
            else:
                assert got == pytest.approx(
                    want_totals, rel=REL_TOL, abs=0.0
                ), (n, r, section.name)


def _pipelined_prefetch():
    """A prefetching pipeline whose 4 tiles each stream several ICLA
    blocks on a 1 MiB node: the multi-tile prefetch closed form."""
    b = ProgramBuilder("pipelined", n_rows=1024, iterations=2)
    b.distributed("big", cols=2048, access="read-write")
    b.distributed("vec", cols=1, access="read-write")
    b.section("s0", tiles=4)
    b.stage("st0", reads=["big", "vec"], writes=["big"], work_per_row=1e-6)
    b.pipeline(8.0)
    b.prefetching()
    return b.build()


def _whole_blocks(model: MhetaModel, nodes, rows):
    """Each lane's rows rounded down to a whole number of its smallest
    out-of-core block (so that variable's last block is a full one)."""
    placements = model.oracle.plan_lanes(nodes, rows)
    block = np.where(placements.in_core, rows[:, None],
                     placements.block_rows).min(axis=1)
    return np.maximum(block, 1) * (rows // np.maximum(block, 1))


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    cluster_spec=cluster_strategy,
    program=program_strategy(),
    shares=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
    lanes=st.lists(
        st.tuples(st.integers(0, 5), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=24,
    ),
    boundary=st.tuples(st.integers(0, 1), st.floats(0.0, 1.0)),
)
@example(
    cluster_spec=[(1.0, 1, 1.0), (0.5, 2, 2.0)],
    program=_pipelined_prefetch(),
    shares=[0.5] * 6,
    lanes=[(0, 0.3), (1, 0.6)],
    boundary=(1, 0.5),
)
def test_batched_fill_matches_scalar_build(cluster_spec, program, shares,
                                           lanes, boundary):
    cluster = make_cluster(cluster_spec)
    P = cluster.n_nodes
    d0 = GenBlock(largest_remainder_round(
        np.array(shares[:P]), program.n_rows, minimum=1
    ))
    inputs = collect_inputs(
        cluster, program, d0, perturbation=IDEAL, measurement=PERFECT
    )
    model = MhetaModel(program, cluster, inputs)
    # Drawn lanes, every node's zero-row and whole-problem lanes, a
    # sweep of each node's rows, and those rows cut to whole blocks,
    # all (repeats included) in one batch.
    sweep = np.linspace(0, program.n_rows, 9).astype(np.int64)
    nodes, rows = _lanes(
        [n % P for n, _ in lanes] + list(np.repeat(np.arange(P), 11)),
        [int(f * program.n_rows) for _, f in lanes]
        + [0, program.n_rows, *sweep] * P,
    )
    rows = np.concatenate([rows, _whole_blocks(model, nodes, rows)])
    nodes = np.concatenate([nodes, nodes])
    _check_placements(program, model.oracle._memory, nodes, rows)
    _check_tables(model, nodes, rows)
    # The in-core test at its equality case: a node whose memory leaves
    # a drawn variable (the smaller or the larger) exactly enough room
    # at a drawn row count.
    var, frac = boundary
    r = max(1, int(frac * program.n_rows))
    memory = _boundary_memories(program, r)[var]
    assert _check_placements(
        program, [memory], *_lanes([0, 0, 0], [r - 1, r, r + 1])
    )[2] >= 1


# -- golden grid ----------------------------------------------------------


@pytest.mark.parametrize("scale", [0.1, 1.0])
@pytest.mark.parametrize("config", sorted(table1_configs()))
def test_golden_grid(scale, config):
    """The paper's four applications, with and without prefetching, on
    one Table-1 configuration: every node at 33 row counts from zero to
    the whole problem and at its Blk share, those rows cut to whole
    blocks, and the in-core test's equality case at each Blk share."""
    cluster = table1_configs()[config]
    P = cluster.n_nodes
    counts = np.zeros(3, dtype=int)
    for app in paper_applications(scale):
        for prefetch in (False, True):
            program = app.structure.with_prefetch(prefetch)
            model = build_model(cluster, program)
            grid = np.linspace(0, program.n_rows, 33).astype(np.int64)
            blk = block(cluster, program.n_rows).counts
            nodes, rows = _lanes(
                np.repeat(np.arange(P), len(grid) + 1),
                np.concatenate([np.append(grid, blk[n]) for n in range(P)]),
            )
            rows = np.concatenate([rows, _whole_blocks(model, nodes, rows)])
            nodes = np.concatenate([nodes, nodes])
            counts += _check_placements(
                program, model.oracle._memory, nodes, rows
            )
            _check_tables(model, nodes, rows)
            for r in blk:
                memories = _boundary_memories(program, r)
                for n in range(len(memories)):
                    counts += _check_placements(
                        program, memories,
                        *_lanes([n] * 3, [r - 1, r, r + 1]),
                    )
    assert counts[2] > 0
    if config != "DC" and scale == 1.0:
        # The out-of-core configurations stream in several ICLA passes,
        # some ending on a whole block.
        assert counts[0] > 0 and counts[1] > 0
