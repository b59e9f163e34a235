"""Parallel emulator verification of search winners.

A distribution search returns the candidate MHETA *predicts* is
fastest; the honest experiment then runs the emulator on each winner to
see what it *actually* costs (benchmarks' ``search_comparison`` table,
the CLI's ``search --verify``).

Since the plan-compiled emulator, one verification round is one
*batched* :func:`~repro.sim.executor.emulate_many` pass: the whole
population shares a single compiled :class:`EmulationPlan` and its
memoised rank tapes.  ``jobs > 1``
serves what it can from the caller's run cache and shards the rest
round-robin, one batched pass per worker; the workers hand their runs
back, so they land in the caller's cache exactly as serial runs do.
Results are independent of ``jobs``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.distribution.genblock import GenBlock
from repro.obs import Recorder, as_recorder
from repro.parallel.runner import ParallelRunner
from repro.program.structure import ProgramStructure
from repro.sim.perturbation import PerturbationConfig

__all__ = ["verify_distributions"]


def _verify_batch_task(
    spec: Tuple[
        ClusterSpec,
        ProgramStructure,
        Optional[PerturbationConfig],
        object,
        Tuple[Tuple[int, ...], ...],
    ]
) -> list:
    """One worker's shard: its runs, for the parent's run cache."""
    from repro.sim.executor import emulate_many

    cluster, program, perturbation, dynamics, counts_batch = spec
    return emulate_many(
        cluster,
        program,
        [GenBlock(counts) for counts in counts_batch],
        perturbation=perturbation,
        dynamics=dynamics,
        run_cache=False,
    )


def verify_distributions(
    cluster: ClusterSpec,
    program: ProgramStructure,
    distributions: Sequence[GenBlock],
    jobs: int = 1,
    perturbation: Optional[PerturbationConfig] = None,
    *,
    dynamics=None,
    run_cache=None,
    telemetry: Optional[Recorder] = None,
) -> List[float]:
    """Actual (emulated) execution time of each distribution, in order.

    Every run seeds its RNG streams from ``(cluster, program,
    distribution, node)``, so the result is independent of ``jobs``.
    ``dynamics`` follows the :func:`emulate` convention (``None`` =
    use ``cluster.dynamics``, ``False`` = force static, or an explicit
    :class:`~repro.cluster.dynamics.DynamicsSpec`).  ``run_cache``
    follows :func:`emulate_many` (``None`` means the process default
    :class:`RunCache`, ``False`` disables caching); every fresh run
    lands in it, whichever process emulated it.
    """
    from repro.sim.executor import emulate_many, run_cache_keys

    rec = as_recorder(telemetry)
    if jobs == 1 or len(distributions) <= 1:
        with rec.span("parallel/verify"):
            results = [
                r.total_seconds
                for r in emulate_many(
                    cluster,
                    program,
                    distributions,
                    perturbation=perturbation,
                    dynamics=dynamics,
                    run_cache=run_cache,
                    telemetry=telemetry,
                )
            ]
        if rec:
            rec.count("verify/runs", len(results))
        return results

    store = None
    if run_cache is not False:
        from repro.parallel.cache import default_run_cache

        store = default_run_cache() if run_cache is None else run_cache
    seconds: List[float] = [0.0] * len(distributions)
    keys: List[Optional[str]] = [None] * len(distributions)
    if store is not None:
        keys = run_cache_keys(
            cluster, program, distributions,
            perturbation=perturbation, dynamics=dynamics,
        )
    # Misses grouped by row counts (a duplicate emulates once), in
    # first-seen order.
    missing: Dict[Tuple[int, ...], List[int]] = {}
    hits = 0
    for i, d in enumerate(distributions):
        hit = store.get(keys[i]) if store is not None else None
        if hit is not None:
            seconds[i] = hit.total_seconds
            hits += 1
        else:
            missing.setdefault(tuple(d.counts), []).append(i)
    pending = list(missing)
    runner = ParallelRunner(jobs, telemetry=telemetry)
    n_shards = min(runner.jobs, max(len(pending), 1))
    tasks = [
        (cluster, program, perturbation, dynamics, tuple(pending[s::n_shards]))
        for s in range(n_shards)
        if pending[s::n_shards]
    ]
    with rec.span("parallel/verify"):
        shard_runs = runner.map(_verify_batch_task, tasks)
    for s, runs in enumerate(shard_runs):
        for counts, run in zip(pending[s::n_shards], runs):
            indices = missing[counts]
            if store is not None:
                store.put(keys[indices[0]], run)
            for i in indices:
                seconds[i] = run.total_seconds
    if rec:
        rec.count("verify/runs", len(seconds))
        if store is not None:
            rec.count("sim/run_cache/hits", hits)
            rec.count("sim/run_cache/misses", len(pending))
    return seconds
