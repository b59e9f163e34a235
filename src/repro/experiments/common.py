"""Shared experiment plumbing: instrument, model, sweep, compare.

The paper's protocol (Section 5.1): instrument one iteration under the
``Blk`` distribution, feed the measurements to MHETA, then run both the
real application (here: the emulator) and MHETA over the candidate
distributions and compare.  Percent difference is "the absolute
difference divided by the minimum of each application's predicted and
actual execution times" (Section 5.2.1).

``run_spectrum`` is the primitive every sweep experiment reduces to.
It deduplicates spectrum points, predicts them in one batched
:meth:`~repro.core.model.MhetaModel.predict` call and emulates them
through :func:`~repro.parallel.verify_distributions`, which consults a
content-keyed :class:`~repro.parallel.RunCache` and optionally fans the
independent emulator runs out over a process pool.  All of that is
bit-identical to the plain serial loop: per-run seeded RNG streams make
emulator runs order- and process-independent, and results are
reassembled in point order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.core.model import MhetaModel
from repro.distribution.factories import block
from repro.distribution.genblock import GenBlock
from repro.distribution.spectrum import spectrum
from repro.exceptions import ExperimentError
from repro.instrument.collect import collect_inputs
from repro.obs import Recorder, as_recorder
from repro.parallel.verify import verify_distributions
from repro.program.structure import ProgramStructure
from repro.sim.perturbation import PerturbationConfig

__all__ = ["PointComparison", "SpectrumRun", "build_model", "run_spectrum"]


def percent_difference(actual: float, predicted: float) -> float:
    """The paper's error metric, as a percentage.

    Raises :class:`~repro.exceptions.ExperimentError` when either time
    is non-positive: the metric divides by ``min(actual, predicted)``,
    and a run that took zero (or negative) seconds is degenerate data
    that must not masquerade as a perfect prediction.
    """
    denom = min(actual, predicted)
    if denom <= 0:
        raise ExperimentError(
            "percent_difference needs positive execution times, got "
            f"actual={actual!r}, predicted={predicted!r} (degenerate run)"
        )
    return abs(actual - predicted) / denom * 100.0


@dataclass(frozen=True)
class PointComparison:
    """Actual vs predicted at one spectrum point."""

    label: str
    anchor: str
    position: float
    actual_seconds: float
    predicted_seconds: float

    @property
    def error_percent(self) -> float:
        return percent_difference(self.actual_seconds, self.predicted_seconds)

    @property
    def signed_error_percent(self) -> float:
        """Positive = over-prediction."""
        sign = 1.0 if self.predicted_seconds >= self.actual_seconds else -1.0
        return sign * self.error_percent


@dataclass(frozen=True)
class SpectrumRun:
    """One application on one architecture, swept over the spectrum."""

    app_name: str
    cluster_name: str
    points: Tuple[PointComparison, ...]

    @property
    def mean_error_percent(self) -> float:
        return sum(p.error_percent for p in self.points) / len(self.points)

    @property
    def max_error_percent(self) -> float:
        return max(p.error_percent for p in self.points)

    @property
    def best_actual(self) -> PointComparison:
        return min(self.points, key=lambda p: p.actual_seconds)

    @property
    def best_predicted(self) -> PointComparison:
        return min(self.points, key=lambda p: p.predicted_seconds)

    @property
    def spread(self) -> float:
        """Worst/best actual execution-time ratio over the spectrum."""
        times = [p.actual_seconds for p in self.points]
        return max(times) / min(times)

    def chart(self, height: int = 12, width: int = 64) -> str:
        """ASCII rendering of this run's actual-vs-predicted curves (one
        panel of the paper's Figures 10/11)."""
        from repro.util.ascii_plot import ascii_plot

        return ascii_plot(
            [p.label for p in self.points],
            {
                "actual": [p.actual_seconds for p in self.points],
                "predicted": [p.predicted_seconds for p in self.points],
            },
            height=height,
            width=width,
            title=(
                f"{self.app_name} on {self.cluster_name} (seconds; best "
                f"actual at {self.best_actual.label!r})"
            ),
        )


def build_model(
    cluster: ClusterSpec,
    program: ProgramStructure,
    perturbation: Optional[PerturbationConfig] = None,
    kernel: str = "numpy",
) -> MhetaModel:
    """Instrument one Blk iteration and construct the MHETA model.

    ``kernel`` selects the evaluation path (``"numpy"`` vectorised,
    ``"scalar"`` reference); the two agree to <= 1e-12 relative error.
    """
    d0 = block(cluster, program.n_rows)
    inputs = collect_inputs(cluster, program, d0, perturbation=perturbation)
    return MhetaModel(program, cluster, inputs, kernel=kernel)


def run_spectrum(
    cluster: ClusterSpec,
    program: ProgramStructure,
    steps_per_leg: int = 3,
    full_path: bool = False,
    perturbation: Optional[PerturbationConfig] = None,
    model: Optional[MhetaModel] = None,
    jobs: int = 1,
    run_cache=None,
    telemetry: Optional[Recorder] = None,
) -> SpectrumRun:
    """Compare actual vs predicted over the distribution spectrum.

    ``jobs`` fans the per-point emulator runs out over a process pool
    (``1`` = serial); ``run_cache`` memoises the emulated runs across
    calls, following :func:`~repro.parallel.verify_distributions`
    (``None`` = the process-wide cache, ``False`` = none, or a
    :class:`~repro.parallel.RunCache`, e.g. one backed by a file).
    Predictions are always recomputed: they cost microseconds.  Neither
    knob changes the numbers — only the wall clock.  ``telemetry`` (a
    :class:`repro.obs.Recorder`) receives sweep-level counters plus
    whatever the model, emulator and runner record.
    """
    rec = as_recorder(telemetry)
    points = list(spectrum(cluster, program, steps_per_leg, full_path))

    # Distinct distributions, in first-seen order (legs share endpoints).
    order: List[Tuple[int, ...]] = []
    for point in points:
        key = point.distribution.counts
        if key not in order:
            order.append(key)
    dists = [GenBlock(k) for k in order]

    if model is None:
        model = build_model(cluster, program, perturbation)
    predicted = model.predict(dists, batch="serial", telemetry=telemetry)
    actual = verify_distributions(
        cluster,
        program,
        dists,
        jobs=jobs,
        perturbation=perturbation,
        run_cache=run_cache,
        telemetry=telemetry,
    )
    pairs = dict(zip(order, zip(actual, predicted)))

    if rec:
        rec.count("sweep/runs")
        rec.count("sweep/points", len(points))
        rec.count("sweep/distinct_points", len(order))

    comparisons: List[PointComparison] = []
    for point in points:
        a, p = pairs[point.distribution.counts]
        comparisons.append(
            PointComparison(
                label=point.label,
                anchor=point.anchor,
                position=point.position,
                actual_seconds=a,
                predicted_seconds=p,
            )
        )
    return SpectrumRun(
        app_name=program.name,
        cluster_name=cluster.name,
        points=tuple(comparisons),
    )
