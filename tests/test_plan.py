"""Compiled evaluation plans: the specializer, its ownership, its contract.

``repro.core.plan`` lowers a model's (app structure, cluster shape)
pair once into a flat :class:`EvaluationPlan`; predictions then run as a
short sequence of vectorized ops.  These tests pin the behaviours around
the kernel itself (the golden numerical contract lives in
``test_kernel_equivalence.py`` / ``test_batch_equivalence.py``): one
plan per model, freed with it, compile telemetry, the gather memo, store
resets and pickling.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.apps import (
    ConjugateGradientApp,
    JacobiApp,
    MultigridApp,
    RnaPipelineApp,
)
from repro.cluster import configs
from repro.core import plan as planmod
from repro.core.model import MhetaModel
from repro.core.plan import plan_cache_stats, reset_plan_cache
from repro.distribution import (
    GenBlock,
    block,
    largest_remainder_round,
    spectrum,
)
from repro.instrument.collect import collect_inputs
from repro.obs import Recorder

SCALE = 0.05


@pytest.fixture(autouse=True)
def _clean_plan_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


def _setup(app=JacobiApp, config=configs.config_hy1, steps_per_leg=3):
    """(plan-kernel model, candidate distributions) for one triple."""
    cluster = config()
    program = app.paper(SCALE).structure
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    model = MhetaModel(program, cluster, inputs, kernel="plan")
    cands = [block(cluster, program.n_rows)]
    cands += [
        p.distribution
        for p in spectrum(cluster, program, steps_per_leg=steps_per_leg)
    ]
    return model, cands


def _model(app=JacobiApp, config=configs.config_hy1):
    return _setup(app, config)[0]


# -- plan ownership -----------------------------------------------------------


def test_distinct_triples_compile_distinct_plans():
    a = _model(JacobiApp, configs.config_hy1)
    b = _model(JacobiApp, configs.config_dc)
    c = _model(ConjugateGradientApp, configs.config_hy1)
    plans = {id(m.ensure_plan()) for m in (a, b, c)}
    assert len(plans) == 3
    stats = plan_cache_stats()
    assert stats["compiles"] == 3
    assert stats["compile_seconds"] > 0.0


def test_each_model_owns_its_plan():
    """Equal models compile one plan each (a compile costs about a
    millisecond); a model compiles only once."""
    a = _model()
    b = _model()
    assert a.ensure_plan() is not b.ensure_plan()
    assert a.ensure_plan() is a.ensure_plan()
    assert plan_cache_stats()["compiles"] == 2


@pytest.mark.parametrize("app", [JacobiApp, RnaPipelineApp, MultigridApp])
def test_plan_model_is_freed_by_refcount(app):
    """The plan holds no reference back to its model and no internal
    cycle, so dropping the model frees both at once — no cyclic
    garbage collection needed (matrix mode, ops mode, and an ops-mode
    plan with a fused exchange+collective build)."""
    model, cands = _setup(app)
    model.predict(cands, batch=True)
    model.predict(cands[0])
    model_ref = weakref.ref(model)
    plan_ref = weakref.ref(model.ensure_plan())
    gc.disable()
    try:
        del model
        assert model_ref() is None
        assert plan_ref() is None
    finally:
        gc.enable()


def test_plan_results_survive_release_and_recompile():
    """Releasing a plan with its model and compiling a fresh one for an
    equal model gives bit-identical results."""
    model, cands = _setup()
    before = model.predict(cands, batch=True)
    fresh = MhetaModel(model.program, configs.config_hy1(), model.inputs,
                       kernel="plan")
    del model
    after = fresh.predict(cands, batch=True)
    assert (before == after).all()
    assert plan_cache_stats()["compiles"] == 2


def test_pickled_model_drops_plan_and_recompiles():
    model, cands = _setup()
    want = model.predict(cands, batch=True)
    clone = pickle.loads(pickle.dumps(model))
    assert clone._plan is None
    got = clone.predict(cands, batch=True)
    assert (want == got).all()


# -- execution behaviours -----------------------------------------------------


def test_single_call_is_bitwise_equal_to_batch_row():
    model, cands = _setup(RnaPipelineApp)
    batch = model.predict(cands, batch=True)
    for d, want in zip(cands, batch):
        assert model.predict(d) == want


def test_repeated_batches_are_bitwise_stable():
    """The gather memo returns identical rows for a repeated
    population — results are bit-for-bit stable across calls."""
    model, cands = _setup()
    a = model.predict(cands, batch=True)
    b = model.predict(cands, batch=True)
    assert (a == b).all()
    plan = model.ensure_plan()
    assert plan._g_memo  # the repeated batch went through the memo


def test_gather_memo_is_bounded():
    model, cands = _setup()
    plan = model.ensure_plan()
    n_rows = sum(cands[0].counts)
    width = len(cands[0].counts)
    rng = np.random.RandomState(7)
    seen = set()
    while len(seen) < 12:
        counts = largest_remainder_round(
            rng.uniform(0.5, 2.0, size=width), n_rows, minimum=1
        )
        if tuple(counts) in seen:
            continue
        seen.add(tuple(counts))
        model.predict([GenBlock(counts)], batch=True)
    assert len(plan._g_memo) <= 8


def test_iterations_override_changes_result():
    model, cands = _setup()
    d = cands[0]
    full = model.predict(d)
    short = model.predict(d, iterations=3)
    assert 0 < short < full


def test_plan_stats_shape():
    model, cands = _setup()
    model.predict(cands, batch=True)
    stats = model.ensure_plan().stats
    assert stats["mode"] in ("matrix", "ops")
    assert stats["executes"] >= 1
    assert stats["store_rows"] > 0
    assert stats["store_resets"] == 0


def test_ops_mode_apps_compile_and_run():
    """Multi-op structures (collective chains, pipelines) lower to the
    generic ops walk rather than a single matrix."""
    model, cands = _setup(RnaPipelineApp)
    plan = model.ensure_plan()
    assert plan.stats["mode"] == "ops"
    out = model.predict(cands, batch=True)
    assert (out > 0).all()


def test_store_reset_keeps_results(monkeypatch):
    """Overflowing MAX_STORE_ROWS resets the store; warmth is lost but
    results are unchanged."""
    monkeypatch.setattr(planmod, "MAX_STORE_ROWS", 32)
    model, cands = _setup(steps_per_leg=4)
    first = model.predict(cands, batch=True)
    again = model.predict(cands, batch=True)
    assert (first == again).all()
    plan = model.ensure_plan()
    assert plan.stats["store_resets"] >= 1


# -- telemetry ----------------------------------------------------------------


def test_compile_span_and_counters_recorded():
    model, cands = _setup()
    rec = Recorder()
    model.predict(cands, batch=True, telemetry=rec)
    flat = str(rec.snapshot())
    assert "plan/compile" in flat
    assert "model/plan_cache/compiles" in flat


def test_plan_cache_stats_keys():
    stats = plan_cache_stats()
    assert set(stats) == {"compiles", "compile_seconds"}
