"""Randomised model-vs-emulator agreement.

The reproduction's central invariant: with all ground-truth
perturbations off and perfect timers, MHETA's analytical equations must
agree with the discrete-event emulator *exactly* — for arbitrary program
structures (any mix of communication patterns, tile counts, variable
shapes, prefetching) on arbitrary clusters (any CPU/memory/disk mix) and
arbitrary distributions.  Hypothesis generates the cases.

Its second invariant, the fast path against its reference, is drawn on
the same random programs at iteration counts long enough to reach the
steady-state walk and its extrapolation — and, under the default noisy
ground truth, as the emulation plan's full walk, bitwise against the
event engine.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, NetworkSpec, NodeSpec
from repro.core import MhetaModel
from repro.distribution import GenBlock, largest_remainder_round
from repro.instrument.collect import MeasurementConfig, collect_inputs
from repro.obs import Recorder
from repro.program import ProgramBuilder
from repro.sim import ClusterEmulator, PerturbationConfig, emulate
from repro.util.units import mib

IDEAL = PerturbationConfig.none()
PERFECT = MeasurementConfig.perfect()

# -- strategies -------------------------------------------------------------------

node_strategy = st.tuples(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),  # cpu power
    st.sampled_from([1, 2, 4, 16, 64]),  # memory MiB
    st.sampled_from([0.5, 1.0, 2.0]),  # io scale
)

cluster_strategy = st.lists(node_strategy, min_size=2, max_size=6)


@st.composite
def program_strategy(draw, iterations=st.integers(1, 4), weighted=st.just(False)):
    n_rows = draw(st.sampled_from([64, 256, 1024]))
    cols = draw(st.sampled_from([16, 256, 2048]))
    iterations = draw(iterations)
    prefetch = draw(st.booleans())
    builder = ProgramBuilder("random", n_rows=n_rows, iterations=iterations)
    if draw(weighted):
        # Sparse ground-truth row weights: the walk's lowered ranks
        # are then keyed by absolute row range, not row count.
        period = draw(st.sampled_from([3, 7, 64]))
        builder.weights(1.0 + np.arange(n_rows) % period)
    builder.distributed("big", cols=cols, access="read-write")
    builder.distributed("vec", cols=1, access="read-write")
    if draw(st.booleans()):
        builder.replicated("rep", elements=n_rows)
    patterns = draw(
        st.lists(
            st.sampled_from(["nn", "reduce", "allgather", "pipe", "none"]),
            min_size=1,
            max_size=3,
        )
    )
    for i, pattern in enumerate(patterns):
        if pattern == "pipe":
            tiles = draw(st.sampled_from([2, 4]))
            builder.section(f"s{i}", tiles=tiles)
        else:
            builder.section(f"s{i}")
        reads = draw(
            st.sampled_from([["big"], ["big", "vec"], ["vec"]])
        )
        writes = draw(st.sampled_from([[], ["big"], ["vec"]]))
        builder.stage(
            f"st{i}",
            reads=reads,
            writes=writes,
            work_per_row=draw(st.sampled_from([1e-8, 1e-6, 5e-5])),
            fixed_work=draw(st.sampled_from([0.0, 1e-5])),
        )
        nbytes = draw(st.sampled_from([8.0, 4096.0]))
        if pattern == "nn":
            source = draw(st.sampled_from([None, "big"]))
            builder.nearest_neighbor(nbytes, source_variable=source)
        elif pattern == "reduce":
            builder.reduction(nbytes)
        elif pattern == "allgather":
            builder.allgather(nbytes)
        elif pattern == "pipe":
            builder.pipeline(nbytes)
        else:
            builder.no_comm()
    if prefetch:
        builder.prefetching()
    return builder.build()


def make_cluster(spec) -> ClusterSpec:
    nodes = []
    for i, (power, mem, io) in enumerate(spec):
        nodes.append(
            NodeSpec(
                name=f"n{i}",
                cpu_power=power,
                memory_bytes=mib(mem),
                os_cache_bytes=mib(8),
            ).scaled_io(io)
        )
    return ClusterSpec(name="rand", nodes=tuple(nodes), network=NetworkSpec())


@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    cluster_spec=cluster_strategy,
    program=program_strategy(),
    shares=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
)
def test_exact_agreement_on_random_cases(cluster_spec, program, shares):
    cluster = make_cluster(cluster_spec)
    counts = largest_remainder_round(
        np.array(shares[: cluster.n_nodes]), program.n_rows, minimum=1
    )
    distribution = GenBlock(counts)

    inputs = collect_inputs(
        cluster,
        program,
        distribution,
        perturbation=IDEAL,
        measurement=PERFECT,
    )
    model = MhetaModel(program, cluster, inputs)
    emulator = ClusterEmulator(cluster, program, IDEAL)

    actual = emulator.run(distribution).total_seconds
    predicted = model.predict(distribution)
    assert predicted == pytest.approx(actual, rel=1e-9, abs=1e-12)


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    cluster_spec=cluster_strategy,
    program=program_strategy(),
    shares_a=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
    shares_b=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
)
def test_cross_distribution_prediction(cluster_spec, program, shares_a, shares_b):
    """Instrument under one distribution, predict a *different* one —
    the model's actual job — still exactly."""
    cluster = make_cluster(cluster_spec)
    d0 = GenBlock(
        largest_remainder_round(
            np.array(shares_a[: cluster.n_nodes]), program.n_rows, minimum=1
        )
    )
    target = GenBlock(
        largest_remainder_round(
            np.array(shares_b[: cluster.n_nodes]), program.n_rows, minimum=1
        )
    )
    inputs = collect_inputs(
        cluster, program, d0, perturbation=IDEAL, measurement=PERFECT
    )
    model = MhetaModel(program, cluster, inputs)
    emulator = ClusterEmulator(cluster, program, IDEAL)
    actual = emulator.run(target).total_seconds
    predicted = model.predict(target)
    assert predicted == pytest.approx(actual, rel=1e-9, abs=1e-12)


@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    cluster_spec=st.lists(node_strategy, min_size=1, max_size=6),
    program=program_strategy(iterations=st.integers(8, 30)),
    profiled=st.booleans(),
    population=st.lists(
        st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
        min_size=1,
        max_size=4,
    ),
)
def test_plan_kernel_matches_scalar_on_long_random_programs(
    cluster_spec, program, profiled, population
):
    """8-30 iterations engage the steady-state walk (and, with an
    iteration profile, the scalar fallback); the plan's single, batched
    and serial paths must all agree with the scalar reference, on any
    node count including one."""
    cluster = make_cluster(cluster_spec)
    if profiled:
        program = program.with_iteration_profile(
            1.0 + 0.5 * np.sin(np.arange(program.iterations))
        )
    dists = [
        GenBlock(
            largest_remainder_round(
                np.array(shares[: cluster.n_nodes]),
                program.n_rows,
                minimum=1,
            )
        )
        for shares in population
    ]
    inputs = collect_inputs(
        cluster, program, dists[0], perturbation=IDEAL, measurement=PERFECT
    )
    scalar = MhetaModel(program, cluster, inputs, kernel="scalar")
    plan = MhetaModel(program, cluster, inputs, kernel="plan")
    single = [plan.predict(d) for d in dists]
    batch = plan.predict(dists, batch=True)
    assert plan.predict(dists, batch="serial") == single
    for d, one, many in zip(dists, single, batch):
        want = scalar.predict(d)
        assert one == pytest.approx(want, rel=1e-12, abs=0.0)
        assert float(many) == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    cluster_spec=st.lists(node_strategy, min_size=1, max_size=6),
    program=program_strategy(
        iterations=st.integers(1, 30), weighted=st.booleans()
    ),
    shares=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
)
def test_noisy_walk_is_bitwise_the_engine(cluster_spec, program, shares):
    """Under the default noisy ground truth every eligible run is walked
    in full by the emulation plan, and must equal the event engine bit
    for bit — sync and prefetch, with and without row weights, at any
    iteration count."""
    cluster = make_cluster(cluster_spec)
    distribution = GenBlock(
        largest_remainder_round(
            np.array(shares[: cluster.n_nodes]), program.n_rows, minimum=1
        )
    )
    noisy = PerturbationConfig()
    rec = Recorder()
    walked = emulate(
        cluster, program, distribution,
        perturbation=noisy, run_cache=False, telemetry=rec,
    )
    engine = emulate(
        cluster, program, distribution,
        perturbation=noisy, fast_forward=False, run_cache=False,
    )
    assert rec.counters["sim/plan_walks"] == 1
    assert not walked.fast_forwarded
    assert walked.iteration_ends == engine.iteration_ends
    assert walked.total_seconds == engine.total_seconds
