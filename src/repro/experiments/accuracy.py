"""Figure 9: min/avg/max percent difference across architecture suites.

The paper's four Figure-9 panels:

* top-left  — all four applications, seventeen architectures, no
  prefetching;
* top-right — Jacobi with prefetching, twelve architectures;
* bottom-left  — RNA alone (the best case);
* bottom-right — CG alone (the worst case).

Every panel plots, per spectrum position (Blk .. I-C .. I-C/Bal .. Bal
.. Blk), the minimum, average and maximum percent difference between
predicted and actual execution times over all (application,
architecture) pairs in the panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.cluster.configs import architecture_suite, prefetch_suite
from repro.apps import paper_applications
from repro.experiments.common import SpectrumRun, run_spectrum
from repro.parallel.runner import ParallelRunner
from repro.program.structure import ProgramStructure
from repro.util.tables import render_table

__all__ = ["AccuracyBands", "fig9_accuracy"]


@dataclass(frozen=True)
class AccuracyBands:
    """One Figure-9 panel: error bands per spectrum position."""

    title: str
    labels: Tuple[str, ...]  #: x axis (distribution labels)
    minimum: Tuple[float, ...]
    average: Tuple[float, ...]
    maximum: Tuple[float, ...]
    runs: Tuple[SpectrumRun, ...]

    @property
    def overall_average_percent(self) -> float:
        """The headline accuracy number: average error over every point
        of every run (the paper reports ~2%, i.e. ~98% accuracy)."""
        errors = [p.error_percent for run in self.runs for p in run.points]
        return sum(errors) / len(errors)

    @property
    def overall_accuracy_percent(self) -> float:
        return 100.0 - self.overall_average_percent

    def chart(self, height: int = 10, width: int = 64) -> str:
        """ASCII rendering of the min/avg/max bands (one Figure-9 panel)."""
        from repro.util.ascii_plot import ascii_plot

        return ascii_plot(
            list(self.labels),
            {
                "min": list(self.minimum),
                "avg": list(self.average),
                "max": list(self.maximum),
            },
            height=height,
            width=width,
            title=self.title + " (percent difference)",
        )

    def describe(self) -> str:
        rows = [
            [label, self.minimum[i], self.average[i], self.maximum[i]]
            for i, label in enumerate(self.labels)
        ]
        table = render_table(
            ["distribution", "min %", "avg %", "max %"],
            rows,
            float_fmt=".2f",
            title=self.title,
        )
        return (
            f"{table}\n"
            f"overall: {self.overall_average_percent:.2f}% average "
            f"difference ({self.overall_accuracy_percent:.1f}% accurate) "
            f"over {len(self.runs)} runs"
        )


def _aggregate(title: str, runs: Sequence[SpectrumRun]) -> AccuracyBands:
    if not runs:
        raise ValueError("no runs to aggregate")
    labels = tuple(p.label for p in runs[0].points)
    for run in runs:
        if tuple(p.label for p in run.points) != labels:
            raise ValueError("runs disagree on spectrum labels")
    minimum, average, maximum = [], [], []
    for i in range(len(labels)):
        errs = [run.points[i].error_percent for run in runs]
        minimum.append(min(errs))
        average.append(sum(errs) / len(errs))
        maximum.append(max(errs))
    return AccuracyBands(
        title=title,
        labels=labels,
        minimum=tuple(minimum),
        average=tuple(average),
        maximum=tuple(maximum),
        runs=tuple(runs),
    )


def _panel_task(
    spec: Tuple[ClusterSpec, ProgramStructure, int]
) -> SpectrumRun:
    """Process-pool task: one (architecture, application) spectrum run."""
    cluster, program, steps_per_leg = spec
    return run_spectrum(
        cluster, program, steps_per_leg=steps_per_leg, full_path=True
    )


def fig9_accuracy(
    panel: str = "all",
    *,
    architectures: Optional[Sequence[ClusterSpec]] = None,
    programs: Optional[Sequence[ProgramStructure]] = None,
    steps_per_leg: int = 3,
    scale: float = 1.0,
    jobs: int = 1,
    run_cache=None,
) -> AccuracyBands:
    """Regenerate one Figure-9 panel.

    ``panel``: ``"all"`` (top-left), ``"jacobi-prefetch"`` (top-right),
    ``"rna"`` (bottom-left) or ``"cg"`` (bottom-right).  ``scale``
    shrinks the applications for quick runs; ``architectures`` and
    ``programs`` override the suites for testing.  ``jobs`` fans the
    independent (architecture, application) runs out over a process
    pool; results are bit-identical to ``jobs=1``.  ``run_cache``
    follows :func:`~repro.experiments.common.run_spectrum`; an explicit
    :class:`~repro.parallel.RunCache` (e.g. one backed by a file) keeps
    every emulated run across invocations, and then ``jobs`` fans each
    spectrum's points out instead, so the runs reach that cache.
    """
    apps = {a.name: a for a in paper_applications(scale)}
    if panel == "all":
        if programs is None:
            programs = [app.structure for app in apps.values()]
        suite = architectures or architecture_suite()
        title = (
            "Fig 9 (top-left): % difference, all applications, "
            "no prefetching"
        )
    elif panel == "jacobi-prefetch":
        if programs is None:
            programs = [apps["jacobi"].prefetching()]
        suite = architectures or prefetch_suite()
        title = "Fig 9 (top-right): % difference, Jacobi with prefetching"
    elif panel == "rna":
        if programs is None:
            programs = [apps["rna"].structure]
        suite = architectures or architecture_suite()
        title = "Fig 9 (bottom-left): % difference, RNA"
    elif panel == "cg":
        if programs is None:
            programs = [apps["cg"].structure]
        suite = architectures or architecture_suite()
        title = "Fig 9 (bottom-right): % difference, CG"
    else:
        raise ValueError(f"unknown panel {panel!r}")

    tasks = [
        (cluster, program, steps_per_leg)
        for cluster in suite
        for program in programs
    ]
    if jobs > 1 and run_cache is None:
        runs = ParallelRunner(jobs).map(_panel_task, tasks)
    else:
        runs = [
            run_spectrum(
                cluster,
                program,
                steps_per_leg=steps,
                full_path=True,
                jobs=jobs,
                run_cache=run_cache,
            )
            for cluster, program, steps in tasks
        ]
    return _aggregate(title, runs)
