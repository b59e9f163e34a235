"""Discrete-event emulator of a heterogeneous cluster ("actual" runs).

The paper measures MHETA against real executions on an emulated
heterogeneous cluster (eight Dell Quad servers, Solaris, LAM-MPI).  This
package is our substitute substrate: a deterministic discrete-event
simulator that executes :class:`~repro.program.ProgramStructure`
applications under a given data distribution on a
:class:`~repro.cluster.ClusterSpec`, with

* per-block disk I/O (seek + transfer) including an OS page-cache model,
* blocking message passing with per-message overheads and transfer time,
* pipelined sections, boundary exchanges, tree reductions, ring
  allgathers,
* one-block-ahead asynchronous prefetching,
* and perturbations MHETA does not model: computation noise,
  memory-hierarchy (cache) effects, runtime memory overhead, and sparse
  row-weight imbalance.

The emulator is deliberately finer-grained than MHETA so that the
model's reported ~98% accuracy — and its failure modes from paper
Section 5.4 — are measured, not assumed.
"""

from repro.sim.engine import Engine, Delay, Send, Recv, Spawn
from repro.sim.disk import DiskModel
from repro.sim.memory import MemoryPlan, VariablePlacement, plan_memory
from repro.sim.perturbation import PerturbationConfig, PerturbationModel
from repro.sim.steady import FastForwardPolicy, supports_fast_forward
from repro.sim.executor import (
    IO_MODES,
    ClusterEmulator,
    RunResult,
    emulate,
    emulate_many,
    fast_forward_default,
    run_cache_keys,
    set_fast_forward_default,
)
from repro.sim.plan_sim import EmulationPlan, get_emulation_plan
from repro.sim.analysis import NodeBreakdown, RunAnalysis, analyse_run

__all__ = [
    "Engine",
    "Delay",
    "Send",
    "Recv",
    "Spawn",
    "DiskModel",
    "MemoryPlan",
    "VariablePlacement",
    "plan_memory",
    "PerturbationConfig",
    "PerturbationModel",
    "FastForwardPolicy",
    "supports_fast_forward",
    "IO_MODES",
    "ClusterEmulator",
    "RunResult",
    "emulate",
    "emulate_many",
    "run_cache_keys",
    "EmulationPlan",
    "get_emulation_plan",
    "fast_forward_default",
    "set_fast_forward_default",
    "NodeBreakdown",
    "RunAnalysis",
    "analyse_run",
]
