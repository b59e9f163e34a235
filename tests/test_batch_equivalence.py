"""Golden equivalence: batched candidate scoring vs sequential calls.

``MhetaModel.predict(candidates, batch=True)`` evaluates a whole population of
GEN_BLOCK candidates in one vectorized pass — clocks become ``(B, P)``,
section matrices ``(B, P, P)``.  No reduction ever crosses the candidate
axis, so every candidate's figure must agree with a sequential
``predict`` call on the same model to within ``REL_TOL = 1e-12``
relative (in practice the compiled plan is bit-identical across batch
sizes) — on every seed app, every seed cluster, the prefetch variant,
iteration-profile programs (loop fallback), the scalar kernel (loop
fallback), and hypothesis-randomized batches.  The sharded fan-out must preserve the
same figures across process boundaries.
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

#: The vectorised kernels under test (the scalar kernel loops).
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


def _model(cluster, program, kernel="plan", **kwargs):
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    return MhetaModel(program, cluster, inputs, kernel=kernel, **kwargs)


def _candidates(cluster, program):
    """Block plus the full spectrum walk — the shapes searches batch."""
    cands = [block(cluster, program.n_rows)]
    cands += [p.distribution
              for p in spectrum(cluster, program, steps_per_leg=3)]
    return cands


def _assert_batch_matches_sequential(model, cands):
    batch = model.predict(cands, batch=True)
    assert isinstance(batch, np.ndarray)
    assert batch.shape == (len(cands),)
    for dist, got in zip(cands, batch):
        want = model.predict(dist)
        assert want > 0 and got > 0
        assert abs(got - want) <= REL_TOL * max(abs(got), abs(want)), (
            f"batch diverges from sequential for {dist.counts}: "
            f"sequential={want!r} batch={got!r} "
            f"rel={abs(got - want) / max(abs(got), abs(want)):.3e}"
        )


# -- golden sweep: every seed app on every seed cluster ----------------------


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_batch_equivalence(app_name, cluster_name, kernel):
    cluster = CLUSTERS[cluster_name]()
    program = APPS[app_name].paper(SCALE).structure
    model = _model(cluster, program, kernel=kernel)
    _assert_batch_matches_sequential(model, _candidates(cluster, program))


@pytest.mark.parametrize("cluster_name", ["IO", "HY1"])
@pytest.mark.parametrize("app_name", ["jacobi", "rna"])
def test_batch_equivalence_prefetch(app_name, cluster_name):
    """The prefetch I/O model (Equation 2) through the batched kernel."""
    cluster = CLUSTERS[cluster_name]()
    program = APPS[app_name].paper(SCALE).prefetching()
    model = _model(cluster, program)
    _assert_batch_matches_sequential(model, _candidates(cluster, program))


@pytest.mark.parametrize("cluster_name", ["DC", "HY2"])
def test_batch_equivalence_iteration_profile(cluster_name):
    """Iteration-profile programs take the loop fallback inside
    ``predict(batch=True)`` — same contract, same tolerance."""
    cluster = CLUSTERS[cluster_name]()
    base = JacobiApp.paper(SCALE).structure
    profile = 1.0 + 0.5 * np.sin(np.arange(base.iterations))
    program = base.with_iteration_profile(profile)
    model = _model(cluster, program)
    _assert_batch_matches_sequential(model, _candidates(cluster, program))


@pytest.mark.parametrize("kernel", FAST_KERNELS)
def test_batch_matches_scalar_kernel(kernel):
    """The batch must also satisfy the cross-kernel golden contract:
    within 1e-12 relative of the scalar reference."""
    cluster = configs.config_hy1()
    program = JacobiApp.paper(SCALE).structure
    scalar = _model(cluster, program, kernel="scalar", table_cache=0)
    vector = _model(cluster, program, kernel=kernel)
    cands = _candidates(cluster, program)
    batch = vector.predict(cands, batch=True)
    for dist, got in zip(cands, batch):
        want = scalar.predict(dist)
        assert abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def test_scalar_kernel_batch_is_loop_fallback():
    """``kernel='scalar'`` batches via a loop of scalar predictions —
    exactly equal to the sequential figures."""
    cluster = configs.config_io()
    program = LanczosApp.paper(SCALE).structure
    model = _model(cluster, program, kernel="scalar", table_cache=0)
    cands = _candidates(cluster, program)[:4]
    batch = model.predict(cands, batch=True)
    assert list(batch) == [model.predict(d) for d in cands]


@pytest.mark.parametrize("kernel", FAST_KERNELS)
def test_empty_batch(kernel):
    cluster = configs.config_dc()
    program = JacobiApp.paper(SCALE).structure
    model = _model(cluster, program, kernel=kernel)
    out = model.predict([], batch=True)
    assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("kernel", FAST_KERNELS)
def test_batch_validates_every_candidate(kernel):
    cluster = configs.config_dc()
    program = JacobiApp.paper(SCALE).structure
    model = _model(cluster, program, kernel=kernel)
    good = block(cluster, program.n_rows)
    bad = GenBlock((program.n_rows,))  # wrong node count
    with pytest.raises(ModelError, match="does not match the model"):
        model.predict([good, bad], batch=True)
    short = GenBlock(tuple(good.counts[:-1]) + (good.counts[-1] - 1,))
    with pytest.raises(ModelError, match="does not cover the program"):
        model.predict([good, short], batch=True)


@pytest.mark.parametrize("kernel", FAST_KERNELS)
def test_batch_iterations_override(kernel):
    cluster = configs.config_hy2()
    program = JacobiApp.paper(SCALE).structure
    model = _model(cluster, program, kernel=kernel)
    cands = _candidates(cluster, program)[:3]
    batch = model.predict(cands, iterations=7, batch=True)
    for dist, got in zip(cands, batch):
        want = model.predict(dist, iterations=7)
        assert abs(got - want) <= REL_TOL * max(abs(got), abs(want))


@pytest.mark.parametrize("kernel", FAST_KERNELS)
def test_duplicate_candidates_in_one_batch(kernel):
    """Duplicates inside one batch score identically (shared tables)."""
    cluster = configs.config_hy1()
    program = ConjugateGradientApp.paper(SCALE).structure
    model = _model(cluster, program, kernel=kernel)
    d = block(cluster, program.n_rows)
    batch = model.predict([d, d, d], batch=True)
    assert batch[0] == batch[1] == batch[2]


def test_batch_without_table_cache():
    """``table_cache=0`` builds transient tables; results unchanged."""
    cluster = configs.config_io()
    program = JacobiApp.paper(SCALE).structure
    cached = _model(cluster, program)
    uncached = _model(cluster, program, table_cache=0)
    cands = _candidates(cluster, program)
    a = cached.predict(cands, batch=True)
    b = uncached.predict(cands, batch=True)
    assert list(a) == list(b)


# -- randomized batches -------------------------------------------------------

_JACOBI_FIXTURES = {}


def _jacobi_model(cluster_name):
    if cluster_name not in _JACOBI_FIXTURES:
        cluster = CLUSTERS[cluster_name]()
        program = JacobiApp.paper(SCALE).structure
        _JACOBI_FIXTURES[cluster_name] = (program, _model(cluster, program))
    return _JACOBI_FIXTURES[cluster_name]


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    batch=st.lists(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=8, max_size=8,
        ),
        min_size=1, max_size=12,
    ),
    cluster_name=st.sampled_from(sorted(CLUSTERS)),
)
def test_random_batches_agree(batch, cluster_name):
    """Arbitrary GEN_BLOCK populations — skewed shapes, duplicates,
    any batch size — agree with sequential scoring."""
    program, model = _jacobi_model(cluster_name)
    cands = [
        GenBlock(largest_remainder_round(
            np.array(weights), program.n_rows, minimum=1
        ))
        for weights in batch
    ]
    _assert_batch_matches_sequential(model, cands)


