"""Bench P1: the fan-out execution layer (repro.parallel).

Claims under test:

* fanning a Figure-9 panel out over a process pool (``jobs=4``) is
  bit-identical to the serial run — per-run seeded RNG streams make the
  emulator runs order- and process-independent;
* a persistent content-keyed run cache makes a repeated invocation skip
  every spectrum emulation (only the one-iteration instrumented run
  behind each model and the microsecond predictions are redone), for a
  wall-clock speedup of at least 2x.

The parallel wall-clock ratio itself is recorded but not asserted: it
depends on how many CPU cores the machine actually has, which is the
one thing this deterministic suite cannot pin down.
"""

import time

from repro.experiments import fig9_accuracy
from repro.parallel import RunCache

PANEL = dict(panel="rna", steps_per_leg=3)


def _fingerprint(bands):
    """Every float of every run — equality here is bit-identity."""
    return [
        (
            run.cluster_name,
            run.app_name,
            tuple(
                (p.label, p.actual_seconds, p.predicted_seconds)
                for p in run.points
            ),
        )
        for run in bands.runs
    ]


def test_parallel_and_cached_sweep(benchmark, save_result, tmp_path):
    # The serial leg bypasses the process-wide run cache: benchmarks
    # earlier in the same pytest run may already hold these runs.
    t0 = time.perf_counter()
    serial = benchmark.pedantic(
        lambda: fig9_accuracy(run_cache=False, **PANEL),
        rounds=1, iterations=1,
    )
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    fanned = fig9_accuracy(jobs=4, **PANEL)
    t_parallel = time.perf_counter() - t0
    assert _fingerprint(serial) == _fingerprint(fanned)

    # Populate an on-disk cache, then repeat the invocation against it.
    cache_path = tmp_path / "run-cache.json"
    cache = RunCache(path=cache_path)
    populated = fig9_accuracy(run_cache=cache, **PANEL)
    cache.save()
    assert _fingerprint(serial) == _fingerprint(populated)

    warm = RunCache(path=cache_path)
    t0 = time.perf_counter()
    cached = fig9_accuracy(run_cache=warm, **PANEL)
    t_cached = time.perf_counter() - t0
    assert _fingerprint(serial) == _fingerprint(cached)
    assert warm.hits > 0 and warm.misses == 0 and len(warm) == len(cache)

    parallel_speedup = t_serial / t_parallel
    cache_speedup = t_serial / t_cached
    save_result(
        "parallel_speedup",
        "Fan-out/caching on the Fig 9 RNA panel "
        f"(17 architectures, {len(serial.runs)} runs):\n"
        f"serial (jobs=1):        {t_serial:8.2f}s\n"
        f"process pool (jobs=4):  {t_parallel:8.2f}s  "
        f"({parallel_speedup:.2f}x; cores decide this one)\n"
        f"warm on-disk cache:     {t_cached:8.2f}s  "
        f"({cache_speedup:.2f}x)\n"
        "all three modes bit-identical to serial execution",
    )
    assert cache_speedup >= 2.0


def test_cached_rerun_skips_all_emulation(save_result, tmp_path):
    """A warmed cache leaves no pending work: hits only, no growth."""
    cache = RunCache(path=tmp_path / "cache.json")
    fig9_accuracy(run_cache=cache, **PANEL)
    size, misses = len(cache), cache.misses
    hits_before = cache.hits
    fig9_accuracy(run_cache=cache, **PANEL)
    assert len(cache) == size and cache.misses == misses
    assert cache.hits > hits_before
    save_result(
        "parallel_cache_reuse",
        f"run cache after two RNA-panel invocations: {size} distinct "
        f"(cluster, program, distribution) runs, {cache.hits} hits, "
        f"{cache.misses} misses",
    )
