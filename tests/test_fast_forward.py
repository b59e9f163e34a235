"""Golden fast-forward equivalence suite plus run-cache semantics.

The steady-state fast path (`repro.sim.steady`) must be an *invisible*
optimisation: on every seed application x cluster combination, sync and
prefetching, the extrapolated ``RunResult`` has to match full
event-by-event simulation to <= 1e-9 relative on the total, every
node's finish time and every iteration end.  A plan-eligible run that
cannot be extrapolated (perturbed, short, non-converging) is walked in
full by the compiled plan, bit for bit; one the plan cannot lower
(background load, non-uniform iterations, forced io_mode) or an
observed/instrumented one runs the full simulation.
"""

import numpy as np
import pytest

import repro.sim.executor as executor_mod
import repro.sim.plan_sim as plan_sim
from repro.apps import (
    ConjugateGradientApp,
    JacobiApp,
    LanczosApp,
    MultigridApp,
    RnaPipelineApp,
)
from repro.cluster import table1_configs
from repro.distribution import GenBlock, block, spectrum
from repro.obs import Recorder
from repro.parallel.cache import RunCache
from repro.sim import (
    PROBE_ITERATIONS,
    ClusterEmulator,
    PerturbationConfig,
    emulate,
    fast_forwardable,
)
from repro.sim.steady import WARMUP, extrapolate_ends, steady_deltas
from repro.sim.trace import TraceCollector

SCALE = 0.05
ITERATIONS = 16  # > probe window (PROBE_ITERATIONS == 7)
WALK_ITERATIONS = 8  # enough for every rank tape to reach its repeat
APPS = {
    "jacobi": JacobiApp,
    "cg": ConjugateGradientApp,
    "lanczos": LanczosApp,
    "rna": RnaPipelineApp,
    "multigrid": MultigridApp,
}

#: Deterministic-but-rich ground truth: every iteration-invariant
#: effect stays on (cache effects, OS read cache, sparse weights,
#: runtime overhead); only the stochastic computation noise is off.
DETERMINISTIC = PerturbationConfig().without(compute_noise=False)


def _rel_close(a, b, tol=1e-9):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), 1e-300)
    return float(np.max(np.abs(a - b) / scale)) <= tol


def _run_pair(cluster, program, perturbation=DETERMINISTIC, telemetry=None):
    emulator = ClusterEmulator(cluster, program, perturbation)
    d = block(cluster, program.n_rows)
    full = emulator.run(d, fast_forward=False)
    fast = emulator.run(d, fast_forward=True, telemetry=telemetry)
    return full, fast


class TestGoldenEquivalence:
    """Fast-forward vs full simulation over the whole seed grid."""

    @pytest.mark.parametrize("config", ["DC", "IO", "HY1", "HY2"])
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("io_mode", ["sync", "prefetch"])
    def test_matches_full_simulation(self, config, app, io_mode):
        cluster = table1_configs()[config]
        application = APPS[app].paper(SCALE)
        program = (
            application.prefetching()
            if io_mode == "prefetch"
            else application.structure
        ).with_iterations(ITERATIONS)
        rec = Recorder()
        full, fast = _run_pair(cluster, program, telemetry=rec)

        assert not full.fast_forwarded
        assert fast.fast_forwarded, "fast path should engage on this grid"
        # The compiled EmulationPlan is the only 1-D fast-forward.
        assert rec.counters["sim/plan_runs"] == 1
        assert "sim/plan_fallbacks" not in rec.counters
        assert _rel_close(full.total_seconds, fast.total_seconds)
        assert _rel_close(full.per_node_seconds, fast.per_node_seconds)
        assert len(fast.iteration_ends) == len(full.iteration_ends)
        for full_ends, fast_ends in zip(
            full.iteration_ends, fast.iteration_ends
        ):
            assert len(fast_ends) == len(full_ends) == ITERATIONS
            assert _rel_close(full_ends, fast_ends)

    def test_total_is_max_of_per_node(self):
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        _, fast = _run_pair(cluster, program)
        assert fast.total_seconds == max(fast.per_node_seconds)
        assert fast.iterations == ITERATIONS


class TestNoisyWalkGolden:
    """The plan's full walk vs full simulation under the default noisy
    ground truth, on the whole seed grid at scale 0.1 and at paper scale
    (where the IO and hybrid configurations stream from disk): bitwise
    equal, every time."""

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    @pytest.mark.parametrize("config", ["DC", "IO", "HY1", "HY2"])
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("io_mode", ["sync", "prefetch"])
    def test_walk_is_bitwise_the_engine(self, scale, config, app, io_mode):
        cluster = table1_configs()[config]
        application = APPS[app].paper(scale)
        program = (
            application.prefetching()
            if io_mode == "prefetch"
            else application.structure
        ).with_iterations(WALK_ITERATIONS)
        emulator = ClusterEmulator(cluster, program, PerturbationConfig())
        skewed = spectrum(cluster, program, steps_per_leg=1)[1].distribution
        for d in (block(cluster, program.n_rows), skewed):
            rec = Recorder()
            walked = emulator.run(d, telemetry=rec)
            full = emulator.run(d, fast_forward=False)
            assert rec.counters["sim/plan_walks"] == 1
            assert not walked.fast_forwarded
            assert walked.iteration_ends == full.iteration_ends
            assert walked.total_seconds == full.total_seconds


    def test_sparse_weights_key_tapes_by_row_range(self):
        # CG's ground-truth row weights make a rank's cost depend on
        # where its rows sit, not only on how many: two candidates that
        # give the bottleneck rank 1 the same count at different
        # offsets must not share its lowered tape.
        cluster = table1_configs()["HY1"]
        program = ConjugateGradientApp.paper(SCALE).structure
        n = program.n_rows
        small = n // 32
        base = [small] * 8
        base[1] = n - 7 * small
        shifted = list(base)
        shifted[0] += small // 2
        shifted[2] -= small // 2
        emulator = ClusterEmulator(cluster, program, PerturbationConfig())
        for counts in (base, shifted):
            d = GenBlock(counts)
            walked = emulator.run(d)
            assert walked.iteration_ends == emulator.run(
                d, fast_forward=False
            ).iteration_ends


    def test_short_tape_is_relowered_for_a_longer_run(self):
        # A one-iteration run lowers only the cold first iteration; a
        # later, longer run of the same candidate must not replicate it.
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(1.0).structure
        emulator = ClusterEmulator(cluster, program, PerturbationConfig())
        d = block(cluster, program.n_rows)
        for iterations in (1, WALK_ITERATIONS):
            walked = emulator.run(d, iterations=iterations)
            full = emulator.run(d, iterations=iterations, fast_forward=False)
            assert walked.iteration_ends == full.iteration_ends


class TestFallbacks:
    """Runs the fast path must not touch fall back to full simulation."""

    def _cluster_program(self):
        cluster = table1_configs()["HY1"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        return cluster, program

    def test_perturbed_run_is_walked_bitwise(self):
        cluster, program = self._cluster_program()
        rec = Recorder()
        full, fast = _run_pair(
            cluster, program, PerturbationConfig(), telemetry=rec
        )
        # Walked, not extrapolated: every iteration was replayed.
        assert not fast.fast_forwarded
        assert rec.counters["sim/plan_walks"] == 1
        assert "sim/plan_fallbacks" not in rec.counters
        assert fast.total_seconds == full.total_seconds
        assert fast.per_node_seconds == full.per_node_seconds
        assert fast.iteration_ends == full.iteration_ends

    def test_background_load_bypasses(self):
        cluster, program = self._cluster_program()
        pert = DETERMINISTIC.without(background_load=0.2)
        assert not fast_forwardable(program, pert)
        rec = Recorder()
        full, fast = _run_pair(cluster, program, pert, telemetry=rec)
        assert not fast.fast_forwarded
        assert fast.iteration_ends == full.iteration_ends
        assert rec.counters["sim/plan_fallbacks"] == 1
        assert rec.counters["sim/plan_fallbacks/background_load"] == 1

    def test_observer_bypasses_and_sees_every_iteration(self):
        cluster, program = self._cluster_program()
        trace = TraceCollector()
        emulator = ClusterEmulator(cluster, program, DETERMINISTIC)
        result = emulator.run(block(cluster, program.n_rows), observer=trace)
        assert not result.fast_forwarded
        iterations = {r.iteration for r in trace.records}
        assert iterations == set(range(ITERATIONS))

    def test_instrumented_bypasses(self):
        cluster, program = self._cluster_program()
        assert not fast_forwardable(
            program, DETERMINISTIC, instrumented=True
        )

    def test_iteration_profile_bypasses(self):
        cluster, program = self._cluster_program()
        profile = np.linspace(1.0, 2.0, ITERATIONS)
        varying = program.with_iteration_profile(profile)
        rec = Recorder()
        full, fast = _run_pair(cluster, varying, telemetry=rec)
        assert not fast.fast_forwarded
        assert fast.total_seconds == full.total_seconds
        assert rec.counters["sim/plan_fallbacks"] == 1
        assert rec.counters["sim/plan_fallbacks/iteration_profile"] == 1

    def test_short_run_bypasses(self):
        cluster, program = self._cluster_program()
        emulator = ClusterEmulator(cluster, program, DETERMINISTIC)
        short = emulator.run(
            block(cluster, program.n_rows), iterations=PROBE_ITERATIONS
        )
        assert not short.fast_forwarded

    def test_non_converging_probe_is_walked(self, monkeypatch):
        cluster, program = self._cluster_program()
        monkeypatch.setattr(
            executor_mod, "steady_deltas", lambda ends: None
        )
        rec = Recorder()
        full, fast = _run_pair(cluster, program, telemetry=rec)
        assert not fast.fast_forwarded
        assert fast.iteration_ends == full.iteration_ends
        assert rec.counters["sim/plan_walks"] == 1
        assert "sim/plan_fallbacks" not in rec.counters

    def test_failed_walk_self_check_retires_the_plan(self, monkeypatch):
        cluster, program = self._cluster_program()
        real_walk = plan_sim._walk_rank

        def skewed_walk(tape, noise, n_iter, deliver, ends):
            yield from real_walk(tape, noise, n_iter, deliver, ends)
            ends[0] += 1e-9

        monkeypatch.setattr(plan_sim, "_walk_rank", skewed_walk)
        pert = PerturbationConfig()
        emulator = ClusterEmulator(cluster, program, pert)
        # A fresh plan, so its walk has not been self-checked yet.
        emulator._emulation_plan = plan_sim.EmulationPlan(
            cluster, program, pert
        )
        d = block(cluster, program.n_rows)
        rec = Recorder()
        walked = emulator.run(d, telemetry=rec)
        assert walked.iteration_ends == emulator.run(
            d, fast_forward=False
        ).iteration_ends
        assert emulator._emulation_plan.dead.startswith("self_check:")
        assert rec.counters["sim/plan_fallbacks"] == 1
        assert rec.counters["sim/plan_fallbacks/dead/self_check"] == 1
        assert "sim/plan_walks" not in rec.counters

    def test_forced_io_mode_runs_the_engine(self):
        # Plans are compiled for the program's own streaming style; a
        # forced other style is a counted fallback to the full engine.
        cluster, program = self._cluster_program()
        emulator = ClusterEmulator(cluster, program, DETERMINISTIC)
        d = block(cluster, program.n_rows)
        rec = Recorder()
        fast = emulator.run(d, io_mode="prefetch", telemetry=rec)
        full = emulator.run(d, io_mode="prefetch", fast_forward=False)
        assert not fast.fast_forwarded
        assert fast.iteration_ends == full.iteration_ends
        assert rec.counters["sim/plan_fallbacks/io_mode"] == 1

    def test_explicit_flag_and_process_default(self):
        cluster, program = self._cluster_program()
        emulator = ClusterEmulator(cluster, program, DETERMINISTIC)
        d = block(cluster, program.n_rows)
        assert not emulator.run(d, fast_forward=False).fast_forwarded
        # Fast-forward is on by default; there is no process-wide switch.
        assert emulator.run(d).fast_forwarded
        assert emulator.run(d, fast_forward=True).fast_forwarded


class TestSteadyDetection:
    """Unit-level checks of the cycle detector itself."""

    def test_constant_deltas_detected(self):
        ends = [[1.0 * (i + 1) for i in range(PROBE_ITERATIONS)]]
        assert steady_deltas(ends) == [1.0]

    def test_warmup_transient_is_forgiven(self):
        # Slow warm-up iterations, then exact steady state.
        ends, t = [], 0.0
        for i in range(PROBE_ITERATIONS):
            t += 5.0 if i < WARMUP else 2.0
            ends.append(t)
        assert steady_deltas([ends]) == [2.0]

    def test_unstable_tail_rejected(self):
        ends, t = [], 0.0
        for i in range(PROBE_ITERATIONS):
            t += 1.0 + 0.01 * i  # keeps drifting
            ends.append(t)
        assert steady_deltas([ends]) is None

    def test_one_unstable_node_rejects_all(self):
        n = PROBE_ITERATIONS
        stable = [1.0 * (i + 1) for i in range(n)]
        drifting = [sum(1.0 + 0.01 * j for j in range(i + 1)) for i in range(n)]
        assert steady_deltas([stable, drifting]) is None

    def test_short_probe_rejected(self):
        assert steady_deltas([[1.0, 2.0, 3.0]]) is None

    def test_zero_delta_node_extrapolates_flat(self):
        # A node with no work per iteration keeps a flat clock.
        assert extrapolate_ends([0.0, 0.0, 0.0], 0.0, 6) == [0.0] * 6

    def test_extrapolate_is_closed_form(self):
        ends = extrapolate_ends([1.0, 2.0], 0.5, 5)
        assert ends == [1.0, 2.0, 2.5, 3.0, 3.5]


class TestEmulateAndRunCache:
    """`emulate()` + the shared content-keyed run cache."""

    def _workload(self):
        cluster = table1_configs()["DC"]
        program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
        return cluster, program, block(cluster, program.n_rows)

    def test_hit_returns_equal_result(self):
        cluster, program, d = self._workload()
        cache = RunCache()
        first = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        second = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        assert cache.hits == 1 and cache.misses == 1
        assert second.total_seconds == first.total_seconds
        assert second.iteration_ends == first.iteration_ends

    def test_hit_is_a_defensive_copy(self):
        cluster, program, d = self._workload()
        cache = RunCache()
        first = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        first.iteration_ends[0][0] = -1.0
        first.per_node_seconds[0] = -1.0
        second = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        assert second.iteration_ends[0][0] != -1.0
        assert second.per_node_seconds[0] != -1.0

    def test_key_separates_iterations_and_perturbation(self):
        cluster, program, d = self._workload()
        base = RunCache.key(cluster, program, d, 10, DETERMINISTIC)
        assert base == RunCache.key(cluster, program, d, 10, DETERMINISTIC)
        assert base != RunCache.key(cluster, program, d, 11, DETERMINISTIC)
        assert base != RunCache.key(
            cluster, program, d, 10, PerturbationConfig()
        )
        assert base != RunCache.key(
            cluster, program, d, 10, DETERMINISTIC, fast_forward=False
        )
        assert base != RunCache.key(
            cluster, program, d, 10, DETERMINISTIC, instrumented=True
        )

    def test_fast_forward_mode_does_not_share_entries(self):
        cluster, program, d = self._workload()
        cache = RunCache()
        fast = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        full = emulate(
            cluster,
            program,
            d,
            perturbation=DETERMINISTIC,
            run_cache=cache,
            fast_forward=False,
        )
        assert cache.hits == 0 and cache.misses == 2
        assert fast.fast_forwarded and not full.fast_forwarded
        assert _rel_close(fast.total_seconds, full.total_seconds)

    def test_cache_false_bypasses(self):
        cluster, program, d = self._workload()
        cache = RunCache()
        emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=False
        )
        assert len(cache) == 0

    def test_observer_bypasses_cache(self):
        cluster, program, d = self._workload()
        cache = RunCache()
        emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=cache
        )
        trace = TraceCollector()
        emulate(
            cluster,
            program,
            d,
            perturbation=DETERMINISTIC,
            run_cache=cache,
            observer=trace,
        )
        # The observed run simulated for real: records exist and the
        # cache saw no second lookup.
        assert trace.records
        assert cache.hits == 0

    def test_bounded_lru_discipline(self):
        cache = RunCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("c") == 3
        assert cache.stats["evictions"] == 1
