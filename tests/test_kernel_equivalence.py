"""Golden equivalence: the compiled plan kernel vs the scalar reference.

The plan kernel (closed-form stage tables in a row store, max-plus
iteration matrices, one vectorised steady-state walk) must reproduce
the scalar path to within floating-point re-association noise.  Every
optimisation in the plan is max-plus linear — only the *order* of
summations differs — so the contract is tight: ``REL_TOL = 1e-12``
relative error on every seed program, cluster, distribution family,
prefetch variant and iteration-profile program.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    ConjugateGradientApp,
    JacobiApp,
    LanczosApp,
    MultigridApp,
    RnaPipelineApp,
)
from repro.cluster import configs
from repro.core.model import KERNELS, MhetaModel
from repro.distribution import GenBlock, block, largest_remainder_round, spectrum
from repro.exceptions import ModelError
from repro.instrument.collect import collect_inputs

REL_TOL = 1e-12
SCALE = 0.05

#: The fast kernels pinned to the scalar reference.
FAST_KERNELS = [k for k in KERNELS if k != "scalar"]

APPS = {
    "jacobi": JacobiApp,
    "cg": ConjugateGradientApp,
    "rna": RnaPipelineApp,
    "lanczos": LanczosApp,
    "multigrid": MultigridApp,
}
CLUSTERS = {
    "DC": configs.config_dc,
    "IO": configs.config_io,
    "HY1": configs.config_hy1,
    "HY2": configs.config_hy2,
}


def _model_pair(cluster, program, kernel="plan"):
    """(scalar reference, fast kernel) over identical inputs."""
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    scalar = MhetaModel(program, cluster, inputs, kernel="scalar",
                        table_cache=0)
    vector = MhetaModel(program, cluster, inputs, kernel=kernel)
    return scalar, vector


def _assert_close(a: float, b: float) -> None:
    assert a > 0 and b > 0
    assert abs(a - b) <= REL_TOL * max(abs(a), abs(b)), (
        f"kernels diverge: scalar={a!r} fast={b!r} "
        f"rel={abs(a - b) / max(abs(a), abs(b)):.3e}"
    )


def _candidates(cluster, program):
    """Block plus the full spectrum walk — the shapes searches evaluate."""
    cands = [block(cluster, program.n_rows)]
    cands += [p.distribution
              for p in spectrum(cluster, program, steps_per_leg=3)]
    return cands


# -- golden sweep: every seed app on every seed cluster ----------------------


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_golden_equivalence(app_name, cluster_name, kernel):
    cluster = CLUSTERS[cluster_name]()
    program = APPS[app_name].paper(SCALE).structure
    scalar, vector = _model_pair(cluster, program, kernel)
    for dist in _candidates(cluster, program):
        _assert_close(scalar.predict(dist), vector.predict(dist))


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("cluster_name", ["IO", "HY1"])
@pytest.mark.parametrize("app_name", ["jacobi", "rna"])
def test_golden_equivalence_prefetch(app_name, cluster_name, kernel):
    """The prefetch I/O model (Equation 2) through both kernels."""
    cluster = CLUSTERS[cluster_name]()
    program = APPS[app_name].paper(SCALE).prefetching()
    scalar, vector = _model_pair(cluster, program, kernel)
    for dist in _candidates(cluster, program):
        _assert_close(scalar.predict(dist), vector.predict(dist))


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("cluster_name", ["DC", "HY2"])
def test_golden_equivalence_iteration_profile(cluster_name, kernel):
    """Per-iteration work profiles force the full iteration walk (no
    steady-state extrapolation); ``kernel="plan"`` models take the
    scalar reference walk for profile programs."""
    cluster = CLUSTERS[cluster_name]()
    base = JacobiApp.paper(SCALE).structure
    profile = 1.0 + 0.5 * np.sin(np.arange(base.iterations))
    program = base.with_iteration_profile(profile)
    scalar, vector = _model_pair(cluster, program, kernel)
    for dist in _candidates(cluster, program):
        _assert_close(scalar.predict(dist), vector.predict(dist))


def test_golden_equivalence_report_totals():
    """`predict` (full report) agrees across kernels, per node, and
    with the fast kernel's plain prediction."""
    cluster = configs.config_hy1()
    program = ConjugateGradientApp.paper(SCALE).structure
    scalar, vector = _model_pair(cluster, program)
    for dist in _candidates(cluster, program)[:4]:
        rs = scalar.predict(dist, report=True)
        rv = vector.predict(dist, report=True)
        _assert_close(rs.total_seconds, rv.total_seconds)
        for ns, nv in zip(rs.nodes, rv.nodes):
            _assert_close(ns.total_seconds, nv.total_seconds)
        _assert_close(rv.total_seconds, vector.predict(dist))


def test_predict_many_matches_serial_calls():
    """The batched path (shared LRU) is bit-identical to serial calls."""
    cluster = configs.config_hy1()
    program = JacobiApp.paper(SCALE).structure
    _, vector = _model_pair(cluster, program)
    cands = _candidates(cluster, program)
    serial = [vector.predict(d) for d in cands]
    assert vector.predict(cands, batch="serial") == serial


def test_table_cache_does_not_change_results():
    """Cached and cache-disabled models agree bit-for-bit, on every
    kernel; the scalar reference reuses its cached tables."""
    cluster = configs.config_io()
    program = LanczosApp.paper(SCALE).structure
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    for kernel in KERNELS:
        cached = MhetaModel(program, cluster, inputs, kernel=kernel)
        uncached = MhetaModel(program, cluster, inputs, kernel=kernel,
                              table_cache=0)
        for dist in _candidates(cluster, program):
            assert cached.predict(dist) == uncached.predict(dist)
        if kernel == "scalar":
            assert cached.table_cache_stats["hits"] > 0


# -- randomized distributions -------------------------------------------------

_JACOBI_FIXTURES = {}


def _jacobi_pair(cluster_name):
    if cluster_name not in _JACOBI_FIXTURES:
        cluster = CLUSTERS[cluster_name]()
        program = JacobiApp.paper(SCALE).structure
        scalar, plan = _model_pair(cluster, program)
        _JACOBI_FIXTURES[cluster_name] = (program, scalar, plan)
    return _JACOBI_FIXTURES[cluster_name]


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=8, max_size=8,
    ),
    cluster_name=st.sampled_from(sorted(CLUSTERS)),
)
def test_random_distributions_agree(weights, cluster_name):
    """Arbitrary GEN_BLOCK shapes — including wildly skewed ones a search
    would never visit — keep the kernels within tolerance."""
    program, scalar, plan = _jacobi_pair(cluster_name)
    counts = largest_remainder_round(
        np.array(weights), program.n_rows, minimum=1
    )
    dist = GenBlock(counts)
    _assert_close(scalar.predict(dist), plan.predict(dist))


# -- iteration-count validation ----------------------------------------------


@pytest.mark.parametrize("iterations", [0, -1])
@pytest.mark.parametrize("mode", ["single", "batch", "serial", "report"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_iterations_below_one_rejected(kernel, mode, iterations):
    """A run has at least one iteration: every kernel and entry point
    raises ModelError instead of returning nan or failing elsewhere."""
    cluster = configs.config_hy1()
    program = JacobiApp.paper(SCALE).structure
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    model = MhetaModel(program, cluster, inputs, kernel=kernel)
    dist = block(cluster, program.n_rows)
    calls = {
        "single": lambda: model.predict(dist, iterations),
        "batch": lambda: model.predict([dist], iterations, batch=True),
        "serial": lambda: model.predict([dist], iterations, batch="serial"),
        "report": lambda: model.predict(dist, iterations, report=True),
    }
    with pytest.raises(ModelError, match="iterations must be >= 1"):
        calls[mode]()
