"""Bench N1: MHETA evaluation cost (paper: ~5.4 ms per distribution).

Two kernels share the model: the ``scalar`` reference (the seed
implementation, per-tile Python loops) and the compiled ``plan`` kernel
(closed-form stage tables in a row store, max-plus iteration matrices,
one vectorised steady-state walk).  This benchmark measures both —
*interleaved*, alternating kernels within each repetition so host noise
hits them equally — and writes the machine-readable scoreboard
``BENCH_model_speed.json`` at the repo root:

* ``evaluations_per_second`` for each kernel/cache configuration,
  through the serial call and through ``predict(batch=True)``,
* wall-time of a batched-GBS search per kernel,
* the headline speedups (plan, cached — the default configuration —
  over the scalar seed behaviour); the *search-level* speedup is the
  hard acceptance gate, asserted >= 3x;
* the cold leg: a fresh model scoring a seeded random population whose
  ``(node, rows)`` tables it has never built, against scoring it again
  warm, interleaved per rep and gated by their ratio (<= 3x).
"""

from __future__ import annotations

import itertools
import json
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro.cluster import config_hy1
from repro.core.model import MhetaModel
from repro.distribution import (
    GenBlock,
    block,
    largest_remainder_round,
    spectrum,
)
from repro.experiments import build_model, model_evaluation_timing
from repro.instrument.collect import collect_inputs
from repro.search import GeneralizedBinarySearch
from repro.apps import JacobiApp

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_model_speed.json"

#: Acceptance floor: the default plan kernel must carry a
#: ``predict``-driven search at least this much faster than the
#: scalar seed behaviour (uncached reference path).
REQUIRED_SPEEDUP = 3.0

#: Hard gate for the compiled-plan kernel: batched plan throughput must
#: beat the batched scalar seed by at least this factor.
REQUIRED_PLAN_SPEEDUP = 8.0

#: The batched numpy-cached figure this optimisation round started
#: from (BENCH_model_speed.json before the plan kernel landed); the
#: plan's 10x target is measured against it.
REFERENCE_NUMPY_CACHED_MS = 0.05790134706402052

#: Cold-leg gate: a fresh model may spend at most this many times the
#: warm per-evaluation cost on a population it has never seen.
COLD_WARM_MAX = 3.0

#: Size of the cold leg's seeded random population.
COLD_POPULATION = 3000

#: kernel/cache configurations measured.  ``scalar-uncached`` is the
#: seed behaviour; ``plan-cached`` is the compiled evaluation plan, the
#: default.
CONFIGS = {
    "scalar-uncached": dict(kernel="scalar", table_cache=0),
    "scalar-cached": dict(kernel="scalar"),
    "plan-cached": dict(kernel="plan"),
}


def _setup():
    from repro.core.plan import reset_plan_cache

    reset_plan_cache()  # clean compile/hit counters for the JSON report
    cluster = config_hy1()
    program = JacobiApp.paper().structure
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    models = {
        label: MhetaModel(program, cluster, inputs, **kwargs)
        for label, kwargs in CONFIGS.items()
    }
    candidates = [
        p.distribution for p in spectrum(cluster, program, steps_per_leg=4)
    ]
    return cluster, program, inputs, models, candidates


def _random_population(cluster, program, size, seed=2026):
    """``size`` seeded random GEN_BLOCKs: Dirichlet shares of the rows,
    rounded to whole rows."""
    rng = np.random.default_rng(seed)
    shares = rng.dirichlet(np.ones(cluster.n_nodes), size=size)
    return [
        GenBlock(largest_remainder_round(w, program.n_rows).tolist())
        for w in shares
    ]


def _cold_leg(cluster, program, inputs, reps=5):
    """Per-evaluation cost of one batched pass over a fresh random
    population on a fresh model (cold: its plan builds every ``(node,
    rows)`` table the population needs) and of the same pass again
    (warm: every table is in the row store).  Each rep compiles a new
    model's plan outside the timer, then times cold and warm back to
    back, so host noise hits both; the gate is the median per-rep
    ratio."""
    population = _random_population(cluster, program, COLD_POPULATION)
    cold, warm, ratios = [], [], []
    for _ in range(reps):
        model = MhetaModel(program, cluster, inputs)
        plan = model.ensure_plan()
        t0 = time.perf_counter()
        first = model.predict(population, batch=True)
        t1 = time.perf_counter()
        again = model.predict(population, batch=True)
        t2 = time.perf_counter()
        assert (first == again).all()
        cold.append(t1 - t0)
        warm.append(t2 - t1)
        ratios.append((t1 - t0) / (t2 - t1))
    n = len(population)
    return {
        "workload": "jacobi on HY1 at paper scale, a fresh model per rep",
        "population": n,
        "reps": reps,
        "cold_us_per_eval": statistics.median(cold) / n * 1e6,
        "warm_us_per_eval": statistics.median(warm) / n * 1e6,
        "cold_warm_ratio": statistics.median(ratios),
        "required_max": COLD_WARM_MAX,
        "store_rows": plan.stats["store_rows"],
    }


def _interleaved_throughput(models, candidates, reps=30):
    """Per-config evaluations/second, alternating configs each rep so a
    noisy host perturbs every kernel equally."""
    for model in models.values():  # warm caches and bytecode
        for d in candidates:
            model.predict(d)
    spent = {label: 0.0 for label in models}
    for _ in range(reps):
        for label, model in models.items():
            t0 = time.perf_counter()
            for d in candidates:
                model.predict(d)
            spent[label] += time.perf_counter() - t0
    evaluations = reps * len(candidates)
    return {
        label: {
            "evaluations_per_second": evaluations / seconds,
            "mean_ms": seconds / evaluations * 1e3,
            "evaluations": evaluations,
        }
        for label, seconds in spent.items()
    }


def _batched_throughput(models, candidates, reps=30, burst=3):
    """Per-config evaluations/second through ``predict(batch=True)``
    (the scalar configs loop internally — the honest baseline for the
    vectorized pass), interleaved like the serial loop.

    Each round times a short *burst* of consecutive calls per config:
    a single interleaved call mostly measures the cache refill forced
    by the other configs, which for a kernel an order of
    magnitude faster than the eviction interval drowns the kernel
    itself.  Search loops call the kernel back to back, so the burst
    is the representative shape; interleaving between bursts still
    spreads host noise across configs."""
    for model in models.values():  # warm caches and bytecode
        model.predict(candidates, batch=True)
    spent = {label: 0.0 for label in models}
    for _ in range(reps):
        for label, model in models.items():
            t0 = time.perf_counter()
            for _ in range(burst):
                model.predict(candidates, batch=True)
            spent[label] += time.perf_counter() - t0
    evaluations = reps * burst * len(candidates)
    return {
        label: {
            "evaluations_per_second": evaluations / seconds,
            "mean_ms": seconds / evaluations * 1e3,
            "evaluations": evaluations,
            "batch_size": len(candidates),
        }
        for label, seconds in spent.items()
    }


def _telemetry_overhead(model, candidates, trials=60):
    """Relative cost of passing a *disabled* recorder versus no
    telemetry at all, on the default model's serial hot path.

    Each trial times both sides once, and the side that goes first
    alternates from trial to trial (ABBA), so whatever favours the
    first or the second pass of a pair hits both sides equally; the
    figure is the median of the per-trial ratios.  The acceptance gate
    is <= 5% overhead, i.e. a disabled recorder must be near-free.
    """
    from repro.obs import Recorder

    disabled = Recorder(enabled=False)
    for d in candidates:  # warm
        model.predict(d)
        model.predict(d, telemetry=disabled)

    def timed(telemetry) -> float:
        t0 = time.perf_counter()
        for d in candidates:
            model.predict(d, telemetry=telemetry)
        return time.perf_counter() - t0

    bare = 0.0
    carried = 0.0
    ratios = []
    for trial in range(trials):
        if trial % 2:
            c = timed(disabled)
            b = timed(None)
        else:
            b = timed(None)
            c = timed(disabled)
        bare += b
        carried += c
        ratios.append(c / b)
    pct = (statistics.median(ratios) - 1.0) * 100.0
    return {
        "bare_seconds": bare,
        "disabled_recorder_seconds": carried,
        # The reported figure is clamped at 0 — a negative overhead is
        # host noise, not a real speedup, and recording it as-is lets
        # noise mask a later regression.  The raw value stays alongside
        # it and is what the gate asserts on.
        "overhead_pct": max(pct, 0.0),
        "overhead_pct_raw": pct,
        "trials": trials,
        "evaluations_per_side": trials * len(candidates),
    }


def _search_walltime(cluster, program, models, reps=5):
    """Wall-time of a full GBS search (the paper's Section 5 driver)
    through each kernel, interleaved like the throughput loop."""
    out = {}
    spent = {label: 0.0 for label in models}
    results = {}
    for label, model in models.items():  # warm table caches on the grid
        GeneralizedBinarySearch(model, cluster).search(budget=300)
    for _ in range(reps):
        for label, model in models.items():
            search = GeneralizedBinarySearch(model, cluster)
            t0 = time.perf_counter()
            result = search.search(budget=300)
            spent[label] += time.perf_counter() - t0
            results[label] = result
    for label, seconds in spent.items():
        result = results[label]
        out[label] = {
            "mean_seconds": seconds / reps,
            "evaluations": result.evaluations,
            "predicted_seconds": result.predicted_seconds,
        }
    # Both kernels must agree on what they searched for.
    preds = [r["predicted_seconds"] for r in out.values()]
    assert max(preds) - min(preds) <= 1e-9 * max(preds)
    return out


def test_kernel_throughput_and_search(benchmark, save_result):
    cluster, program, inputs, models, candidates = _setup()

    throughput = benchmark.pedantic(
        _interleaved_throughput, args=(models, candidates),
        rounds=1, iterations=1,
    )
    batched = _batched_throughput(models, candidates)
    search = _search_walltime(cluster, program, models)
    telemetry = _telemetry_overhead(models["plan-cached"], candidates)
    cold = _cold_leg(cluster, program, inputs)

    from repro.core.plan import plan_cache_stats

    baseline = throughput["scalar-uncached"]["evaluations_per_second"]
    default = throughput["plan-cached"]["evaluations_per_second"]
    eval_speedup = default / baseline
    search_speedup = (
        search["scalar-uncached"]["mean_seconds"]
        / search["plan-cached"]["mean_seconds"]
    )
    plan_vs_scalar = (
        batched["plan-cached"]["evaluations_per_second"]
        / batched["scalar-uncached"]["evaluations_per_second"]
    )
    plan_vs_reference = (
        REFERENCE_NUMPY_CACHED_MS / batched["plan-cached"]["mean_ms"]
    )

    payload = {
        "benchmark": "model_speed",
        "workload": "jacobi on HY1, spectrum candidates + batched GBS search",
        "paper_ms_per_evaluation": 5.4,
        "python": platform.python_version(),
        "throughput": throughput,
        "batched_throughput": batched,
        "search": search,
        "speedup": {
            "evaluations_plan_cached_vs_scalar_uncached": eval_speedup,
            "search_plan_cached_vs_scalar_uncached": search_speedup,
            "required": REQUIRED_SPEEDUP,
            "batched_plan_vs_scalar_uncached": plan_vs_scalar,
            "batched_plan_vs_reference_numpy_cached": plan_vs_reference,
            "reference_numpy_cached_ms": REFERENCE_NUMPY_CACHED_MS,
            "plan_required_vs_scalar": REQUIRED_PLAN_SPEEDUP,
        },
        "telemetry_overhead": telemetry,
        "cold": cold,
        "table_cache_stats": models["plan-cached"].table_cache_stats,
        "plan_cache_stats": plan_cache_stats(),
    }
    JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    lines = [
        "MHETA prediction-kernel speed (jacobi on HY1; paper reports "
        "~5.4 ms/eval on 2005 hardware):"
    ]
    for label, row in throughput.items():
        brow = batched[label]
        lines.append(
            f"  {label:16s} {row['evaluations_per_second']:8.0f} evals/s "
            f"({row['mean_ms']:.3f} ms) | batched "
            f"{brow['evaluations_per_second']:8.0f} evals/s "
            f"({brow['mean_ms']:.3f} ms)"
        )
    lines.append(
        f"  GBS search: scalar {search['scalar-uncached']['mean_seconds']*1e3:.1f} ms "
        f"-> plan {search['plan-cached']['mean_seconds']*1e3:.1f} ms"
    )
    lines.append(
        f"  speedup: {eval_speedup:.2f}x evaluations, "
        f"{search_speedup:.2f}x search "
        f"(search required >= {REQUIRED_SPEEDUP:.0f}x)"
    )
    lines.append(
        f"  plan kernel: "
        f"{plan_vs_scalar:.2f}x vs batched scalar seed "
        f"(required >= {REQUIRED_PLAN_SPEEDUP:.0f}x), "
        f"{plan_vs_reference:.2f}x vs the pre-plan numpy-cached figure "
        f"({REFERENCE_NUMPY_CACHED_MS:.4f} ms/eval; target 10x)"
    )
    lines.append(
        f"  disabled-telemetry overhead: {telemetry['overhead_pct']:.2f}% "
        f"(raw {telemetry['overhead_pct_raw']:.2f}%, median of "
        f"{telemetry['trials']} ABBA trials, required <= 5%)"
    )
    lines.append(
        f"  cold leg ({cold['population']} random GEN_BLOCKs, fresh "
        f"model): cold {cold['cold_us_per_eval']:.1f} us/eval, warm "
        f"{cold['warm_us_per_eval']:.2f} us/eval, "
        f"{cold['cold_warm_ratio']:.2f}x (required <= {COLD_WARM_MAX:.0f}x)"
    )
    save_result("model_speed", "\n".join(lines))

    # Usable on the fly (the paper's claim) for every configuration...
    for row in throughput.values():
        assert row["mean_ms"] < 10.0
    # ...and the batched default must beat the seed by the issue's bar on
    # the end-to-end workload it exists for: the search itself.
    assert search_speedup >= REQUIRED_SPEEDUP, (
        f"batched search speedup {search_speedup:.2f}x below required "
        f"{REQUIRED_SPEEDUP}x (evals {eval_speedup:.2f}x, "
        f"batched plan {plan_vs_scalar:.2f}x)"
    )
    # The compiled plan must hold its floor.
    assert plan_vs_scalar >= REQUIRED_PLAN_SPEEDUP, (
        f"batched plan speedup {plan_vs_scalar:.2f}x vs the scalar seed "
        f"is below the {REQUIRED_PLAN_SPEEDUP}x hard gate"
    )
    # A disabled recorder must be near-free on the hot path; the gate
    # uses the *unclamped* value so negative noise cannot hide drift.
    assert telemetry["overhead_pct_raw"] <= 5.0, (
        f"disabled-telemetry overhead {telemetry['overhead_pct_raw']:.2f}% "
        "exceeds the 5% budget"
    )
    # A fresh model must score a population it has never seen at close
    # to the warm cost: the batched fill builds every missed table in
    # one pass.
    assert cold["cold_warm_ratio"] <= COLD_WARM_MAX, (
        f"cold prediction costs {cold['cold_warm_ratio']:.2f}x warm "
        f"(required <= {COLD_WARM_MAX}x)"
    )


def test_single_evaluation_speed(benchmark):
    """The default model keeps single evaluations in single-digit ms."""
    cluster = config_hy1()
    program = JacobiApp.paper().structure
    model = build_model(cluster, program)
    candidates = itertools.cycle(
        [p.distribution for p in spectrum(cluster, program, steps_per_leg=4)]
    )

    def evaluate():
        return model.predict(next(candidates))

    result = benchmark(evaluate)
    assert result > 0
    assert benchmark.stats.stats.mean * 1e3 < 10.0


def test_timing_harness(benchmark, save_result):
    timing = benchmark.pedantic(
        model_evaluation_timing, rounds=1, iterations=1
    )
    save_result("model_speed_harness", timing.describe())
    assert timing.usable_on_the_fly
