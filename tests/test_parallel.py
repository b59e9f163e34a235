"""Tests for the fan-out execution layer (repro.parallel)."""

import pytest

from repro.cluster import config_dc, config_io
from repro.distribution import GenBlock, balanced, block
from repro.experiments import fig9_accuracy, run_spectrum
from repro.parallel import (
    ParallelRunner,
    RunCache,
    content_key,
    resolve_jobs,
    split_shards,
    verify_distributions,
)
from repro.apps import JacobiApp
from repro.sim import RunResult

SCALE = 0.02  # tiny problems: full protocol, milliseconds of wall time


def _square(x):
    return x * x


def _square_shard(shard):
    return [x * x for x in shard]


class TestParallelRunner:
    def test_serial_fallback_is_plain_map(self):
        assert ParallelRunner(1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert ParallelRunner(4).map(_square, items) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = [5, 2, 9, 4]
        assert ParallelRunner(3).map(_square, items) == ParallelRunner(1).map(
            _square, items
        )

    def test_empty_and_singleton(self):
        assert ParallelRunner(4).map(_square, []) == []
        assert ParallelRunner(4).map(_square, [7]) == [49]

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1  # one worker per CPU


class TestShards:
    def test_split_preserves_order_and_content(self):
        items = list(range(10))
        shards = split_shards(items, 3)
        assert [x for shard in shards for x in shard] == items
        assert [len(s) for s in shards] == [4, 3, 3]  # near-equal, large first

    def test_split_never_exceeds_item_count(self):
        assert split_shards([1, 2], 8) == [[1], [2]]
        assert split_shards([], 4) == []
        assert split_shards([1, 2, 3], 1) == [[1, 2, 3]]

    def test_map_shards_matches_flat_map(self):
        items = list(range(23))
        for jobs in (1, 3):
            got = ParallelRunner(jobs).map_shards(_square_shard, items)
            assert got == [x * x for x in items]


class TestContentKey:
    def test_equal_content_equal_key(self):
        a = config_dc()
        b = config_dc()
        assert a is not b
        assert content_key(a) == content_key(b)

    def test_different_content_different_key(self):
        assert content_key(config_dc()) != content_key(config_io())

    def test_distribution_changes_key(self):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d1 = block(cluster, program.n_rows)
        d2 = balanced(cluster, program.n_rows)
        k1 = RunCache.key(cluster, program, d1, program.iterations, None)
        k2 = RunCache.key(cluster, program, d2, program.iterations, None)
        assert (k1 == k2) == (d1.counts == d2.counts)

    def test_program_scale_changes_key(self):
        cluster = config_dc()
        small = JacobiApp.paper(scale=SCALE).structure
        big = JacobiApp.paper(scale=2 * SCALE).structure
        assert content_key(cluster, small) != content_key(cluster, big)


def _run(counts, total):
    """A stand-in emulated run (cache tests need no emulation)."""
    return RunResult(
        total_seconds=total,
        per_node_seconds=[total] * len(counts),
        iteration_ends=[[total] for _ in counts],
        distribution=GenBlock(counts),
        iterations=1,
    )


def _key(i):
    return f"{i:064x}"


class TestSweepCache:
    """The run cache in its sweep role: the persistent, content-keyed
    store that spectrum sweeps, accuracy panels and serve verify share."""

    def test_hit_and_miss_counters(self):
        cache = RunCache()
        assert cache.get(_key(1)) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(_key(1), _run((3, 4), 1.5))
        assert cache.get(_key(1)).total_seconds == 1.5
        assert (cache.hits, cache.misses) == (1, 1)

    def test_disk_round_trip(self, tmp_path):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        path = tmp_path / "run-cache.json"
        cache = RunCache(path=path)
        cold = run_spectrum(cluster, program, steps_per_leg=1, run_cache=cache)
        cache.save()
        reloaded = RunCache(path=path)
        assert len(reloaded) == len(cache) > 0
        warm = run_spectrum(
            cluster, program, steps_per_leg=1, run_cache=reloaded
        )
        assert _points(warm) == _points(cold)
        assert reloaded.misses == 0

    def test_perturbation_part_of_key(self):
        from repro.sim import PerturbationConfig

        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d = block(cluster, program.n_rows)
        it = program.iterations
        assert RunCache.key(
            cluster, program, d, it, PerturbationConfig()
        ) != RunCache.key(cluster, program, d, it, PerturbationConfig.none())

    def test_max_entries_bounds_store(self):
        cache = RunCache(max_entries=3)
        for i in range(6):
            cache.put(_key(i), _run((i, 6 - i), float(i)))
        assert len(cache) == 3
        # The three most recent survive; the oldest were evicted.
        assert cache.get(_key(5)).total_seconds == 5.0
        assert cache.get(_key(0)) is None

    def test_max_entries_round_trip_to_disk(self, tmp_path):
        # Regression: a disk-backed cache used to persist only what was
        # still in its in-memory LRU at save(), silently dropping runs.
        path = tmp_path / "runs.json"
        n = RunCache.DEFAULT_MAX_ENTRIES + 1
        cache = RunCache(path=path)
        for i in range(n):
            cache.put(_key(i), _run((i, n - i), float(i)))
        cache.save()
        reloaded = RunCache(path=path)
        assert reloaded.loaded_from_disk == n
        assert all(
            reloaded.get(_key(i)).total_seconds == float(i) for i in range(n)
        )
        with pytest.raises(ValueError):
            RunCache(max_entries=8, path=path)

    def test_interleaved_saves_merge_instead_of_clobbering(self, tmp_path):
        # Regression: save() used to overwrite the file with this
        # cache's view only, silently dropping entries a concurrent
        # process had written since load.  Two caches opened against
        # the same (empty) file stand in for two server processes.
        path = tmp_path / "fleet-cache.json"
        a = RunCache(path=path)
        b = RunCache(path=path)
        a.put(_key(1), _run((1, 2), 1.0))
        b.put(_key(2), _run((2, 1), 2.0))
        a.save()
        b.save()  # must re-read and keep a's entry
        merged = RunCache(path=path)
        assert merged.get(_key(1)).total_seconds == 1.0
        assert merged.get(_key(2)).total_seconds == 2.0
        # The atomic-replace path leaves no temp litter behind.
        assert [p.name for p in tmp_path.iterdir()] == ["fleet-cache.json"]

    def test_save_tolerates_corrupt_disk_file(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"half-written', encoding="utf-8")
        cache = RunCache(path=path)
        assert cache.loaded_from_disk == 0
        cache.put(_key(1), _run((1, 1), 1.0))
        cache.save()
        assert RunCache(path=path).get(_key(1)).total_seconds == 1.0

    def test_bounded_counters_single_source_of_truth(self):
        # The backing LRU's counters are the only ones, so `repro stats`
        # can never report two disagreeing figures for one cache.
        cache = RunCache(max_entries=4)
        cache.get(_key(1))                       # miss
        cache.put(_key(1), _run((1, 1), 1.0))
        cache.get(_key(1))                       # hit
        cache.get(_key(2))                       # miss
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.hits == cache._store.hits
        assert cache.misses == cache._store.misses
        stats = cache.stats
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 1, 2)

    def test_unbounded_counters_unchanged(self, tmp_path):
        cache = RunCache(path=tmp_path / "runs.json")
        cache.get(_key(1))
        cache.put(_key(1), _run((1, 1), 1.0))
        cache.get(_key(1))
        assert (cache.hits, cache.misses) == (1, 1)
        stats = cache.stats
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 1, 1)
        assert stats["evictions"] == 0


def _points(run):
    return [(p.label, p.actual_seconds, p.predicted_seconds) for p in run.points]


class TestSpectrumEquivalence:
    def test_run_spectrum_jobs_bit_identical(self):
        cluster = config_io()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        serial = run_spectrum(cluster, program, steps_per_leg=2, jobs=1)
        fanned = run_spectrum(cluster, program, steps_per_leg=2, jobs=4)
        assert _points(serial) == _points(fanned)

    def test_run_spectrum_cache_bit_identical(self):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        cache = RunCache()
        cold = run_spectrum(cluster, program, steps_per_leg=2, run_cache=cache)
        stored, misses = len(cache), cache.misses
        warm = run_spectrum(cluster, program, steps_per_leg=2, run_cache=cache)
        assert _points(cold) == _points(warm)
        assert stored > 0
        assert cache.misses == misses  # nothing re-emulated
        assert cache.hits >= stored

    def test_fig9_jobs_bit_identical(self):
        kwargs = dict(
            panel="all",
            architectures=[config_dc(), config_io()],
            scale=SCALE,
            steps_per_leg=1,
        )
        serial = fig9_accuracy(jobs=1, **kwargs)
        fanned = fig9_accuracy(jobs=4, **kwargs)
        assert serial.labels == fanned.labels
        assert serial.minimum == fanned.minimum
        assert serial.average == fanned.average
        assert serial.maximum == fanned.maximum
        for a, b in zip(serial.runs, fanned.runs):
            assert _points(a) == _points(b)


class TestVerifyDistributions:
    def test_matches_direct_emulation(self):
        from repro.sim import ClusterEmulator

        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        dists = [
            block(cluster, program.n_rows),
            balanced(cluster, program.n_rows),
        ]
        emulator = ClusterEmulator(cluster, program)
        direct = [emulator.run(d).total_seconds for d in dists]
        assert verify_distributions(cluster, program, dists, jobs=1) == direct
        assert verify_distributions(cluster, program, dists, jobs=2) == direct

    def test_jobs_runs_reach_the_callers_cache(self, tmp_path):
        from repro.obs import Recorder

        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        d = block(cluster, program.n_rows)
        dists = [d, balanced(cluster, program.n_rows), d.moved(0, 1, 3), d]
        path = tmp_path / "runs.json"
        first = RunCache(path=path)
        cold = verify_distributions(
            cluster, program, dists, jobs=2, run_cache=first
        )
        first.save()
        second = RunCache(path=path)
        assert second.loaded_from_disk == 3  # the duplicate emulated once
        rec = Recorder()
        warm = verify_distributions(
            cluster, program, dists, jobs=2, run_cache=second, telemetry=rec
        )
        assert warm == cold == verify_distributions(
            cluster, program, dists, jobs=1, run_cache=False
        )
        assert second.misses == 0
        assert rec.counters["sim/run_cache/hits"] == len(dists)
        assert rec.counters["sim/run_cache/misses"] == 0
