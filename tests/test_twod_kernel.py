"""Golden equivalence and plan-ownership contract for the 2-D kernel.

The 2-D analogue of ``test_kernel_equivalence.py`` + ``test_plan.py``:
the scalar reference loop and the compiled plan kernel must agree to
<= 1e-12 relative on any valid ``GenBlock2D``, across cluster
configurations (including heterogeneous memory where some tiles stream
out-of-core); batched scoring must be bitwise equal to the serial path;
and each model owns its compiled 2-D plans (one per grid shape), freed
with it exactly like its 1-D sibling.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import baseline_cluster, config_dc
from repro.core.model import KERNELS
from repro.core.plan import plan_cache_stats, reset_plan_cache
from repro.distribution import largest_remainder_round
from repro.exceptions import ModelError
from repro.instrument.collect import MeasurementConfig
from repro.obs import Recorder
from repro.sim import PerturbationConfig
from repro.twod import (
    GenBlock2D,
    Jacobi2DSpec,
    TwoDModel,
    block2d,
    build_2d_model,
    factor_pairs,
)
from repro.util.units import mib

IDEAL = PerturbationConfig.none()
PERFECT = MeasurementConfig.perfect()
REL_TOL = 1e-12

COMMON = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=30,
)


@pytest.fixture(autouse=True)
def _clean_plan_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


def _mixed_cluster():
    base = baseline_cluster()
    powers = [1.0, 0.5, 2.0, 1.0, 1.0, 1.5, 1.0, 1.0]
    memories = [96, 4, 96, 8, 96, 96, 4, 96]
    nodes = [
        n.with_(cpu_power=powers[i], memory_bytes=mib(memories[i]))
        for i, n in enumerate(base.nodes)
    ]
    return base.with_nodes(nodes, name="mixed2d")


CLUSTERS = {"mixed2d": _mixed_cluster, "DC": config_dc}

_MODEL_CACHE = {}


def _models(cluster_name="mixed2d"):
    """(scalar, plan) sibling models over identical inputs; the plan
    model is fresh on every call (no compiled plans yet)."""
    if cluster_name not in _MODEL_CACHE:
        cluster = CLUSTERS[cluster_name]()
        spec = Jacobi2DSpec(n_rows=512, n_cols=384, iterations=4)
        d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
        base = build_2d_model(
            cluster, spec, d0, perturbation=IDEAL, measurement=PERFECT
        )
        _MODEL_CACHE[cluster_name] = TwoDModel(
            cluster, spec, base.inputs, kernel="scalar"
        )
    scalar = _MODEL_CACHE[cluster_name]
    plan = TwoDModel(scalar.cluster, scalar.spec, scalar.inputs, kernel="plan")
    return scalar, plan


def _dists(scalar, rng_seed=0, per_shape=3):
    rng = np.random.RandomState(rng_seed)
    spec = scalar.spec
    out = []
    for shape in factor_pairs(scalar.n_nodes):
        R, C = shape
        out.append(block2d(spec.n_rows, spec.n_cols, shape))
        for _ in range(per_shape - 1):
            rows = largest_remainder_round(
                rng.uniform(0.5, 2.0, size=R), spec.n_rows, minimum=1
            )
            cols = largest_remainder_round(
                rng.uniform(0.5, 2.0, size=C), spec.n_cols, minimum=1
            )
            out.append(GenBlock2D(rows, cols))
    return out


# -- golden equivalence -------------------------------------------------------


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
def test_three_kernels_agree(cluster_name):
    """The scalar reference loop, the plan's single-layout path and its
    batched path agree on every grid shape."""
    scalar, plan = _models(cluster_name)
    dists = _dists(scalar)
    batched = plan.predict(dists, batch=True)
    for d, got in zip(dists, batched):
        want = scalar.predict(d)
        assert plan.predict(d) == pytest.approx(want, rel=REL_TOL)
        assert got == pytest.approx(want, rel=REL_TOL)


@COMMON
@given(
    shape_i=st.integers(0, 3),
    row_w=st.lists(
        st.floats(0.1, 10.0, allow_nan=False), min_size=8, max_size=8
    ),
    col_w=st.lists(
        st.floats(0.1, 10.0, allow_nan=False), min_size=8, max_size=8
    ),
)
def test_kernels_agree_on_generated_layouts(shape_i, row_w, col_w):
    scalar, plan = _models()
    spec = scalar.spec
    shapes = factor_pairs(scalar.n_nodes)
    R, C = shapes[shape_i % len(shapes)]
    d = GenBlock2D(
        largest_remainder_round(
            np.array(row_w[:R]), spec.n_rows, minimum=1
        ),
        largest_remainder_round(
            np.array(col_w[:C]), spec.n_cols, minimum=1
        ),
    )
    want = scalar.predict(d)
    assert plan.predict(d) == pytest.approx(want, rel=REL_TOL)


def test_batch_is_bitwise_equal_to_serial():
    _, plan = _models()
    dists = _dists(plan, rng_seed=1)
    batched = plan.predict(dists, batch=True)
    serial = plan.predict(dists, batch="serial")
    assert isinstance(batched, np.ndarray)
    assert batched.tolist() == serial


def test_single_call_is_bitwise_equal_to_batch_row():
    _, plan = _models()
    dists = _dists(plan, rng_seed=2)
    batched = plan.predict(dists, batch=True)
    for d, want in zip(dists, batched):
        assert plan.predict(d) == want


def test_report_totals_match_prediction():
    scalar, plan = _models()
    d = block2d(scalar.spec.n_rows, scalar.spec.n_cols, (4, 2))
    for model in (scalar, plan):
        rep = model.predict(d, report=True)
        assert len(rep.nodes) == model.n_nodes
        worst = max(n.total_seconds for n in rep.nodes)
        assert rep.total_seconds == pytest.approx(worst, rel=REL_TOL)
        assert rep.total_seconds == pytest.approx(
            model.predict(d), rel=REL_TOL
        )


def test_iterations_override_changes_result():
    _, plan = _models()
    d = block2d(plan.spec.n_rows, plan.spec.n_cols, (2, 4))
    full = plan.predict(d)
    short = plan.predict(d, iterations=1)
    assert 0 < short < full


# -- plan ownership -----------------------------------------------------------


def test_distinct_shapes_compile_distinct_plans():
    _, plan = _models()
    plans = {
        id(plan.ensure_plan(shape))
        for shape in factor_pairs(plan.n_nodes)
    }
    assert len(plans) == len(factor_pairs(plan.n_nodes))
    assert plan_cache_stats()["compiles"] == len(plans)
    # A model compiles each shape once.
    for shape in factor_pairs(plan.n_nodes):
        plan.ensure_plan(shape)
    assert plan_cache_stats()["compiles"] == len(plans)


def test_plan_model_is_freed_by_refcount():
    """2-D plans hold no reference back to their model, so dropping the
    model frees it and every plan it owns without cyclic collection."""
    _, plan = _models()
    plan.predict(_dists(plan, rng_seed=8, per_shape=2), batch=True)
    model_ref = weakref.ref(plan)
    plan_refs = [weakref.ref(p) for p in plan._plans.values()]
    assert plan_refs
    gc.disable()
    try:
        del plan
        assert model_ref() is None
        assert all(ref() is None for ref in plan_refs)
    finally:
        gc.enable()


def test_plan_results_survive_release_and_recompile():
    """Releasing plans with their model and compiling fresh ones for an
    equal model gives bit-identical results."""
    _, plan = _models()
    dists = _dists(plan, rng_seed=3)
    before = plan.predict(dists, batch=True)
    _, fresh = _models()
    del plan
    after = fresh.predict(dists, batch=True)
    assert (before == after).all()


def test_pickled_model_drops_plans_and_recompiles():
    _, plan = _models()
    dists = _dists(plan, rng_seed=4)
    want = plan.predict(dists, batch=True)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone._plans == {}
    got = clone.predict(dists, batch=True)
    assert (want == got).all()


def test_matrix_memo_is_bounded():
    _, plan = _models()
    spec = plan.spec
    rng = np.random.RandomState(11)
    compiled = plan.ensure_plan((2, 4))
    seen = set()
    while len(seen) < 12:
        rows = tuple(
            largest_remainder_round(
                rng.uniform(0.5, 2.0, size=2), spec.n_rows, minimum=1
            )
        )
        cols = tuple(
            largest_remainder_round(
                rng.uniform(0.5, 2.0, size=4), spec.n_cols, minimum=1
            )
        )
        if (rows, cols) in seen:
            continue
        seen.add((rows, cols))
        plan.predict([GenBlock2D(rows, cols)], batch=True)
    assert len(compiled._m_memo) <= 8


def test_plan_stats_shape():
    _, plan = _models()
    plan.predict(
        _dists(plan, rng_seed=5, per_shape=1), batch=True
    )
    stats = plan.ensure_plan((2, 4)).stats
    assert stats["mode"] == "matrix2d"
    assert stats["grid_shape"] == (2, 4)
    assert stats["executes"] >= 1


# -- errors -------------------------------------------------------------------


def test_unknown_kernel_rejected():
    _, plan = _models()
    for kernel in ("cuda", "numpy"):
        with pytest.raises(ModelError):
            TwoDModel(plan.cluster, plan.spec, plan.inputs, kernel=kernel)


@pytest.mark.parametrize("iterations", [0, -1])
@pytest.mark.parametrize("mode", ["single", "batch", "serial", "report"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_iterations_below_one_rejected(kernel, mode, iterations):
    """A run has at least one iteration: every kernel and entry point
    raises ModelError instead of failing elsewhere."""
    scalar, _ = _models()
    model = TwoDModel(scalar.cluster, scalar.spec, scalar.inputs,
                      kernel=kernel)
    d = block2d(model.spec.n_rows, model.spec.n_cols, (2, 4))
    calls = {
        "single": lambda: model.predict(d, iterations),
        "batch": lambda: model.predict([d], iterations, batch=True),
        "serial": lambda: model.predict([d], iterations, batch="serial"),
        "report": lambda: model.predict(d, iterations, report=True),
    }
    with pytest.raises(ModelError, match="iterations must be >= 1"):
        calls[mode]()


def test_wrong_coverage_rejected():
    _, plan = _models()
    with pytest.raises(ModelError):
        plan.predict(block2d(plan.spec.n_rows, plan.spec.n_cols, (2, 2)))
    with pytest.raises(ModelError):
        plan.ensure_plan((3, 3))


def test_report_plus_batch_rejected():
    _, plan = _models()
    d = block2d(plan.spec.n_rows, plan.spec.n_cols, (2, 4))
    with pytest.raises(ModelError):
        plan.predict([d], batch=True, report=True)


# -- telemetry ----------------------------------------------------------------


def test_batch_telemetry_and_plan_gauges():
    _, plan = _models()
    rec = Recorder()
    dists = _dists(plan, rng_seed=6, per_shape=1)
    plan.predict(dists, batch=True, telemetry=rec)
    assert rec.counters["model/predictions"] == len(dists)
    assert rec.counters["model/batch_predictions"] == 1
    assert rec.gauges["model/plan_cache/size"] >= 1
    assert rec.gauges["model/plan_cache/compiles"] >= 1
    flat = str(rec.snapshot())
    assert "plan/compile" in flat
