"""Workload bodies, each run in a fresh interpreter by ``run.py``.

Usage::

    python3 perfbench/child.py TASK SEED [TRACE_PATH]

TASK is ``fig9``, ``advise``, ``setup-fig9``, ``setup-advise``,
``serve-rows`` or ``serve-check``.  A task prints ``READY`` once its
imports are done and its inputs are built (the end of set-up), then the
last line of its output is one JSON object.  With TRACE_PATH the layer
wrappers of ``tracer.py`` are installed before ``READY`` and the spans
are written to that path at the end.

The program sees only inputs generated here from SEED; the workload
code calls nothing but the public ``repro`` API.
"""

from __future__ import annotations

import json
import random
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import speed
import tracer

_now = time.monotonic

SCALE = 0.1
FIG9_STEPS = 2
#: (app, Table-1 config) pairs held resident by the serve workload.
SERVE_MODELS = (("jacobi", "HY1"), ("cg", "IO"), ("lanczos", "DC"),
                ("rna", "HY2"))
ALGORITHMS = tuple(tracer.SEARCHERS)
SEARCH_BUDGET = 150  # the CLI's default ``--budget``
#: Figure-9 suite architectures (node order seed-drawn) added to the
#: four Table-1 configs.
ADVISE_EXTRA_CLUSTERS = 7
#: Relative tolerances of the correctness checks.
IDEAL_RTOL = 1e-9
KERNEL_RTOL = 1e-12


def _ready() -> None:
    print("READY", flush=True)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class Checks:
    """Counts correctness checks; failures are described on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr, flush=True)

    def cold_regime(self) -> None:
        """No persistent cache tier may have been read."""
        from repro.parallel.cache import default_run_cache

        stats = default_run_cache().stats
        self.check(
            default_run_cache().path is None
            and stats["loaded_from_disk"] == 0,
            f"run cache read from disk: {stats}",
        )


def _install_tracer(trace_path: Optional[str]):
    """The tracer (``None`` untraced) and the speed probe to call; a
    traced probe is a top-level span of its own, outside every layer."""
    if trace_path is None:
        return None, speed.probe
    t = tracer.Tracer()
    tracer.install(t)
    return t, t.wrap(speed.probe, "bench.probe")


def _counters() -> Dict[str, Any]:
    """Cache counters the program exposes, read when the timed part
    ends (the correctness checks after it use the caches too)."""
    from repro.core.plan import plan_cache_stats
    from repro.parallel.cache import default_run_cache

    return {"run_cache": default_run_cache().stats,
            "plan_compiles": plan_cache_stats()["compiles"]}


def _finish(out: Dict[str, Any], t, trace_path: Optional[str]) -> None:
    if t is not None:
        t.dump(trace_path)
    print(json.dumps(out), flush=True)


# -- fig9-noisy --------------------------------------------------------------


def _fig9_inputs():
    from repro.apps import paper_applications
    from repro.cluster import architecture_suite, prefetch_suite

    apps = {a.name: a for a in paper_applications(SCALE)}
    units = [("all", arch, app.structure)
             for arch in architecture_suite() for app in apps.values()]
    units += [("jacobi-prefetch", arch, apps["jacobi"].prefetching())
              for arch in prefetch_suite()]
    return units


def fig9(seed: int, trace_path: Optional[str]) -> None:
    """Both no-prefetch and prefetch Figure-9 panels, one (architecture,
    application) spectrum at a time, under the default noisy emulator."""
    from repro.experiments import accuracy

    units = _fig9_inputs()
    t, probe = _install_tracer(trace_path)
    _ready()
    checks = Checks()
    latencies: List[float] = []
    runs: Dict[str, list] = {"all": [], "jacobi-prefetch": []}
    probes: List[float] = []
    start = _now()
    for panel, arch, program in units:
        probes.append(probe())
        t0 = _now()
        bands = accuracy.fig9_accuracy(
            panel, architectures=[arch], programs=[program],
            steps_per_leg=FIG9_STEPS, scale=SCALE,
        )
        latencies.append(_now() - t0)
        runs[panel].extend(bands.runs)
    end = _now()
    counters = _counters()

    errors = {p: [pt.error_percent for r in rs for pt in r.points]
              for p, rs in runs.items()}
    pooled = errors["all"] + errors["jacobi-prefetch"]
    checks.check(len(runs["all"]) == 68 and len(runs["jacobi-prefetch"]) == 12,
                 "Figure-9 panels have 68 and 12 spectrum runs")
    checks.check(all(0.0 <= e < 100.0 for e in pooled),
                 "every Figure-9 error is a finite percentage")
    _fig9_reference_checks(seed, units, runs, checks)
    checks.cold_regime()
    _finish({
        "wall": [start, end],
        "latencies": latencies,
        "probes": probes,
        "quality_pct": 100.0 - sum(pooled) / len(pooled),
        "accuracy_all_pct": 100.0 - sum(errors["all"]) / len(errors["all"]),
        "accuracy_prefetch_pct": 100.0 - sum(errors["jacobi-prefetch"])
        / len(errors["jacobi-prefetch"]),
        "units": len(units),
        "checks_attempted": checks.attempted,
        "checks_failed": checks.failed,
        **counters,
    }, t, trace_path)


def _fig9_reference_checks(seed, units, runs, checks: Checks,
                           n_ideal: int = 6, n_repeat: int = 2) -> None:
    """On seeded samples of spectrum points: the model built with every
    perturbation off and perfect timers equals the perturbation-free
    emulator; and a noisy point re-emulated without the run cache
    equals the figure's actual time."""
    from repro.core import MhetaModel
    from repro.distribution import GenBlock, block
    from repro.instrument.collect import MeasurementConfig, collect_inputs
    from repro.sim import PerturbationConfig, emulate

    rng = random.Random(f"fig9-check-{seed}")
    flat = []
    by_panel = {"all": iter(runs["all"]),
                "jacobi-prefetch": iter(runs["jacobi-prefetch"])}
    for panel, arch, program in units:
        run = next(by_panel[panel])
        for point in run.points:
            flat.append((arch, program, point))
    ideal = PerturbationConfig.none()
    for arch, program, point in rng.sample(flat, n_ideal):
        dist = GenBlock(point_counts(arch, program, point))
        inputs = collect_inputs(
            arch, program, block(arch, program.n_rows),
            perturbation=ideal, measurement=MeasurementConfig.perfect(),
        )
        predicted = MhetaModel(program, arch, inputs).predict(dist)
        actual = emulate(arch, program, dist, perturbation=ideal,
                         run_cache=False).total_seconds
        checks.check(_close(predicted, actual, IDEAL_RTOL),
                     f"ideal model {predicted!r} != emulator {actual!r} "
                     f"({program.name} on {arch.name}, {point.label})")
    for arch, program, point in rng.sample(flat, n_repeat):
        dist = GenBlock(point_counts(arch, program, point))
        again = emulate(arch, program, dist, run_cache=False).total_seconds
        checks.check(again == point.actual_seconds,
                     f"re-emulated {again!r} != figure {point.actual_seconds!r}")


def point_counts(arch, program, point) -> Tuple[int, ...]:
    """Counts of a Figure-9 point (a ``PointComparison`` keeps only its
    label and position, so the spectrum is regenerated to find it)."""
    from repro.distribution import spectrum

    for p in spectrum(arch, program, FIG9_STEPS, True):
        if p.label == point.label and p.position == point.position:
            return p.distribution.counts
    raise LookupError(f"no spectrum point {point.label!r}")


# -- advise-cold -------------------------------------------------------------


def _advise_inputs(seed: int):
    """The four Table-1 configs as printed, plus the first pseudo-random
    Figure-9 architectures with their nodes in a seed-drawn order.  Node
    order changes every distribution's layout, but not how heterogeneous
    a cluster is, which is what sets the gain a search can find; so the
    seed changes the inputs without changing the size of the task."""
    from repro.apps import paper_applications
    from repro.cluster import ClusterSpec, architecture_suite, table1_configs

    rng = random.Random(f"advise-{seed}")
    clusters = list(table1_configs().values())
    for arch in architecture_suite()[4:4 + ADVISE_EXTRA_CLUSTERS]:
        nodes = list(arch.nodes)
        rng.shuffle(nodes)
        clusters.append(ClusterSpec(name=f"{arch.name}-s{seed}",
                                    nodes=tuple(nodes), network=arch.network))
    apps = paper_applications(SCALE)
    return [(app.structure, cluster) for cluster in clusters for app in apps]


def advise(seed: int, trace_path: Optional[str]) -> None:
    """Instrument, build and run all five searchers per (app, cluster)
    pair; no emulation besides the instrumented iteration."""
    from repro import experiments
    from repro.distribution import block
    from repro.search import (GeneralizedBinarySearch, GeneticSearch,
                              RandomSearch, SimulatedAnnealingSearch,
                              SpectrumSweep)

    factories = dict(zip(ALGORITHMS, (
        GeneralizedBinarySearch, GeneticSearch, SimulatedAnnealingSearch,
        RandomSearch, SpectrumSweep)))
    pairs = _advise_inputs(seed)
    sampled = set(random.Random(f"advise-check-{seed}").sample(
        range(len(pairs)), 6))
    t, probe = _install_tracer(trace_path)
    _ready()
    checks = Checks()
    latencies: List[float] = []
    gains: List[float] = []
    kept = []
    probes: List[float] = []
    start = _now()
    for index, (program, cluster) in enumerate(pairs):
        probes.append(probe())
        t0 = _now()
        model = experiments.build_model(cluster, program)
        results = [
            factories[algo](model, cluster,
                            seed_label=f"{algo}-{seed}").search(
                budget=SEARCH_BUDGET)
            for algo in ALGORITHMS
        ]
        blk = model.predict(block(cluster, program.n_rows))
        latencies.append(_now() - t0)
        best = min(r.predicted_seconds for r in results)
        gains.append((1.0 - best / blk) * 100.0)
        if index in sampled:
            kept.append((model, cluster, [r.best for r in results]))
    end = _now()
    counters = _counters()

    _advise_kernel_checks(kept, checks)
    checks.check(all(g >= 0.0 for g in gains),
                 "no search advises a distribution worse than Blk")
    checks.cold_regime()
    _finish({
        "wall": [start, end],
        "latencies": latencies,
        "probes": probes,
        "quality_pct": sum(gains) / len(gains),
        "units": len(pairs),
        "checks_attempted": checks.attempted,
        "checks_failed": checks.failed,
        **counters,
    }, t, trace_path)


def _advise_kernel_checks(kept, checks: Checks) -> None:
    """Scalar, numpy and plan kernels agree on sampled searched
    candidates (each searcher's winner) to ``KERNEL_RTOL``."""
    from repro.core import MhetaModel

    for model, cluster, candidates in kept:
        others = [MhetaModel(model.program, cluster, model.inputs, kernel=k)
                  for k in ("scalar", "plan")]
        reference = [others[0].predict(d) for d in candidates]
        for kernel_model in [model, others[1]]:
            single = [kernel_model.predict(d) for d in candidates]
            batch = kernel_model.predict(candidates, batch=True)
            for ref, one, many in zip(reference, single, batch):
                checks.check(
                    _close(ref, one, KERNEL_RTOL)
                    and _close(ref, float(many), KERNEL_RTOL),
                    f"{kernel_model.kernel} kernel {one!r}/{many!r} != "
                    f"scalar {ref!r} ({model.program.name} on {cluster.name})",
                )


# -- set-up probes and serve helpers -----------------------------------------


def setup(workload: str, seed: int) -> None:
    """Import and build the workload's inputs, then stop: one sample of
    the set-up time."""
    if workload == "fig9":
        import repro.experiments.accuracy  # noqa: F401

        _fig9_inputs()
    else:
        import repro.experiments  # noqa: F401
        import repro.search  # noqa: F401

        _advise_inputs(seed)
    _ready()
    print(json.dumps({}), flush=True)


def serve_rows() -> None:
    from repro.apps import application_by_name

    print(json.dumps({
        f"{app}/{config}": application_by_name(app, SCALE).structure.n_rows
        for app, config in SERVE_MODELS
    }), flush=True)


def serve_check(path: str) -> None:
    """Every served answer against the one-shot library call: predict ==
    ``model.predict`` and search's answer == ``model.predict`` of its
    winner to ``KERNEL_RTOL``; verify == ``emulate``."""
    from repro.apps import application_by_name
    from repro.cluster import table1_configs
    from repro.distribution import GenBlock
    from repro.experiments import build_model
    from repro.sim import emulate

    with open(path, encoding="utf-8") as fh:
        answers = json.load(fh)
    checks = Checks()
    models = {}
    seen = set()
    for a in answers:
        key = (a["op"], a["app"], a["config"], tuple(a["counts"]))
        if key in seen:
            continue
        seen.add(key)
        mkey = (a["app"], a["config"])
        if mkey not in models:
            cluster = table1_configs()[a["config"]]
            program = application_by_name(a["app"], SCALE).structure
            models[mkey] = (build_model(cluster, program), cluster, program)
        model, cluster, program = models[mkey]
        dist = GenBlock(a["counts"])
        predicted = model.predict(dist)
        checks.check(_close(a["predicted"], predicted, KERNEL_RTOL),
                     f"served {a['op']} predicted {a['predicted']!r} != "
                     f"{predicted!r} for {mkey} {a['counts']}")
        if a["op"] == "verify":
            actual = emulate(cluster, program, dist).total_seconds
            checks.check(a["actual"] == actual,
                         f"served verify {a['actual']!r} != emulate "
                         f"{actual!r} for {mkey} {a['counts']}")
        if a["op"] == "search":
            checks.check(a["evaluations"] <= a["budget"],
                         f"search spent {a['evaluations']} > {a['budget']}")
    print(json.dumps({"checks_attempted": checks.attempted,
                      "checks_failed": checks.failed}), flush=True)


def main(argv: List[str]) -> int:
    task = argv[0]
    if task == "serve-rows":
        serve_rows()
    elif task == "serve-check":
        serve_check(argv[1])
    else:
        seed = int(argv[1])
        trace_path = argv[2] if len(argv) > 2 else None
        if task == "fig9":
            fig9(seed, trace_path)
        elif task == "advise":
            advise(seed, trace_path)
        elif task.startswith("setup-"):
            setup(task[len("setup-"):], seed)
        else:
            raise SystemExit(f"unknown task {task!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
