"""Tests for the 2-D distribution extension (paper Section 5.1)."""

import pytest

from repro.cluster import baseline_cluster
from repro.exceptions import DistributionError, SimulationError
from repro.instrument.collect import MeasurementConfig
from repro.sim import PerturbationConfig
from repro.twod import (
    GenBlock2D,
    Jacobi2DSpec,
    TwoDEmulator,
    balanced2d,
    block2d,
    build_2d_model,
    factor_pairs,
    search_space_growth,
)
from repro.twod.search_space import one_d_candidates, two_d_candidates
from repro.util.units import mib

IDEAL = PerturbationConfig.none()
PERFECT = MeasurementConfig.perfect()


@pytest.fixture
def cluster2d():
    base = baseline_cluster()
    powers = [1.0, 0.5, 2.0, 1.0, 1.0, 1.5, 1.0, 1.0]
    memories = [96, 4, 96, 8, 96, 96, 4, 96]
    nodes = [
        n.with_(cpu_power=powers[i], memory_bytes=mib(memories[i]))
        for i, n in enumerate(base.nodes)
    ]
    return base.with_nodes(nodes, name="mixed2d")


class TestGenBlock2D:
    def test_grid_structure(self):
        d = GenBlock2D([10, 20], [5, 5, 10])
        assert d.grid_shape == (2, 3)
        assert d.n_nodes == 6
        assert d.n_rows == 30
        assert d.n_cols == 20

    def test_rank_coords_roundtrip(self):
        d = GenBlock2D([1, 1, 1], [1, 1])
        for rank in range(6):
            i, j = d.coords(rank)
            assert d.rank(i, j) == rank

    def test_tile_sizes(self):
        d = GenBlock2D([10, 20], [5, 15])
        assert d.tile(0) == (10, 5)
        assert d.tile(3) == (20, 15)
        assert d.tile_elements(3) == 300

    def test_neighbors_interior_and_corner(self):
        d = GenBlock2D([1, 1, 1], [1, 1, 1])  # 3x3
        centre = d.rank(1, 1)
        assert len(d.neighbors(centre)) == 4
        corner = d.rank(0, 0)
        directions = {direction for direction, _ in d.neighbors(corner)}
        assert directions == {"south", "east"}

    def test_halo_sizes(self):
        d = GenBlock2D([10, 20], [5, 15])
        assert d.halo_elements(0, "south") == 5  # a row of the tile
        assert d.halo_elements(0, "east") == 10  # a column of the tile

    def test_invalid_construction(self):
        with pytest.raises(DistributionError):
            GenBlock2D([], [1])
        with pytest.raises(DistributionError):
            GenBlock2D([-1], [1])

    def test_out_of_range_rank(self):
        d = GenBlock2D([1], [1])
        with pytest.raises(DistributionError):
            d.coords(1)


class TestFactories:
    def test_factor_pairs(self):
        assert factor_pairs(8) == [(1, 8), (2, 4), (4, 2), (8, 1)]
        assert factor_pairs(7) == [(1, 7), (7, 1)]

    def test_block2d_even(self):
        d = block2d(100, 200, (2, 4))
        assert set(d.row_counts) == {50}
        assert set(d.col_counts) == {50}

    def test_balanced2d_follows_powers(self, cluster2d):
        d = balanced2d(cluster2d, 1000, 1000, (2, 4))
        # Grid row 1 holds nodes 4-7 (total power 4.5) vs row 0 (4.5):
        # equal, so bands are even; columns follow column power sums.
        assert d.n_rows == 1000 and d.n_cols == 1000
        powers = cluster2d.cpu_powers.reshape(2, 4)
        col_weights = powers.sum(axis=0)
        heaviest = int(col_weights.argmax())
        assert d.col_counts[heaviest] == max(d.col_counts)

    def test_balanced2d_wrong_grid_raises(self, cluster2d):
        with pytest.raises(DistributionError):
            balanced2d(cluster2d, 100, 100, (3, 3))


class TestTwoDExactness:
    @pytest.mark.parametrize("shape", [(2, 4), (4, 2), (8, 1), (1, 8)])
    def test_model_matches_emulator(self, cluster2d, shape):
        spec = Jacobi2DSpec(n_rows=1024, n_cols=1024, iterations=3)
        d0 = block2d(spec.n_rows, spec.n_cols, shape)
        model = build_2d_model(
            cluster2d, spec, d0, perturbation=IDEAL, measurement=PERFECT
        )
        emulator = TwoDEmulator(cluster2d, spec, IDEAL)
        for dist in (
            d0,
            balanced2d(cluster2d, spec.n_rows, spec.n_cols, shape),
        ):
            actual = emulator.run(dist)
            assert model.predict(dist) == pytest.approx(actual, rel=1e-9)

    def test_cross_distribution_prediction(self, cluster2d):
        spec = Jacobi2DSpec(n_rows=1024, n_cols=1024, iterations=3)
        d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
        target = GenBlock2D([700, 324], [200, 300, 400, 124])
        model = build_2d_model(
            cluster2d, spec, d0, perturbation=IDEAL, measurement=PERFECT
        )
        actual = TwoDEmulator(cluster2d, spec, IDEAL).run(target)
        assert model.predict(target) == pytest.approx(actual, rel=1e-9)

    def test_out_of_core_tiles_stream(self, cluster2d):
        # Node 1 has 4 MiB; a 2048x512 tile of doubles is 8 MiB.
        spec = Jacobi2DSpec(n_rows=4096, n_cols=2048, iterations=2)
        d = block2d(spec.n_rows, spec.n_cols, (2, 4))
        small = TwoDEmulator(cluster2d, spec, IDEAL).run(d)
        roomy_cluster = cluster2d.with_nodes(
            [n.with_(memory_bytes=mib(512)) for n in cluster2d.nodes]
        )
        roomy = TwoDEmulator(roomy_cluster, spec, IDEAL).run(d)
        assert small > roomy  # streaming costs extra

    def test_accuracy_with_perturbations(self, cluster2d):
        spec = Jacobi2DSpec(n_rows=1024, n_cols=1024, iterations=5)
        d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
        model = build_2d_model(cluster2d, spec, d0)
        emulator = TwoDEmulator(cluster2d, spec)
        actual = emulator.run(d0)
        predicted = model.predict(d0)
        assert abs(predicted - actual) / actual < 0.10

    def test_wrong_coverage_raises(self, cluster2d):
        spec = Jacobi2DSpec(n_rows=1024, n_cols=1024, iterations=2)
        emulator = TwoDEmulator(cluster2d, spec, IDEAL)
        with pytest.raises(SimulationError):
            emulator.run(block2d(512, 1024, (2, 4)))
        with pytest.raises(SimulationError):
            emulator.run(block2d(1024, 1024, (2, 2)))


class TestTwoDBeatsOneD:
    def test_square_decomposition_cuts_halo_traffic(self):
        """The reason 2-D decomposition exists: on a homogeneous cluster
        a 2x4 grid exchanges less halo data than 1x8 strips, so a
        communication-heavy stencil runs faster."""
        cluster = baseline_cluster(name="homog2d")
        # Tiny per-element work and a slow network make halos dominate.
        slow_net = cluster.network.with_(latency_per_byte=2e-7)
        from repro.cluster import ClusterSpec

        cluster = ClusterSpec(
            name=cluster.name, nodes=cluster.nodes, network=slow_net
        )
        spec = Jacobi2DSpec(
            n_rows=2048, n_cols=2048, iterations=4, work_per_element=2e-9
        )
        emulator = TwoDEmulator(cluster, spec, IDEAL)
        strips = emulator.run(block2d(spec.n_rows, spec.n_cols, (8, 1)))
        grid = emulator.run(block2d(spec.n_rows, spec.n_cols, (2, 4)))
        assert grid < strips


class TestSearchSpace:
    def test_one_d_counts_are_compositions(self):
        # 8 units into 8 nodes: exactly one layout.
        assert one_d_candidates(8, 8) == 1
        # 16 units into 8 nodes: C(15, 7).
        assert one_d_candidates(8, 16) == 6435
        assert one_d_candidates(8, 4) == 0  # infeasible

    def test_two_d_always_larger(self):
        for g in (8, 16, 32):
            assert two_d_candidates(8, g) > one_d_candidates(8, g)

    def test_comparison_table(self):
        comparison = search_space_growth(granularities=(8, 16))
        assert comparison.worst_blowup > 100  # at natural granularity
        text = comparison.describe()
        assert "blow-up" in text
        assert "exhaustive" in text


class TestTwoDSearch:
    @pytest.fixture
    def model(self, cluster2d):
        spec = Jacobi2DSpec(n_rows=512, n_cols=512, iterations=3)
        d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
        return build_2d_model(
            cluster2d, spec, d0, perturbation=IDEAL, measurement=PERFECT
        )

    def test_search_beats_even_split(self, model):
        from repro.twod import TwoDGbs

        spec = model.spec
        result = TwoDGbs(model).search(budget=600)
        even = model.predict(block2d(spec.n_rows, spec.n_cols, (2, 4)))
        assert result.predicted_seconds < even
        assert result.best.n_rows == spec.n_rows
        assert result.best.n_cols == spec.n_cols

    def test_search_result_verified_by_emulator(self, cluster2d, model):
        from repro.twod import TwoDGbs

        result = TwoDGbs(model).search(budget=600)
        actual = TwoDEmulator(cluster2d, model.spec, IDEAL).run(result.best)
        assert actual == pytest.approx(result.predicted_seconds, rel=1e-9)

    def test_budget_respected_on_genuine_shapes(self, model):
        from repro.twod import TwoDGbs

        # Degenerate strip shapes ride the 1-D spectrum path outside
        # the move budget, so cap the check to genuinely 2-D shapes.
        result = TwoDGbs(model, shapes=[(2, 4), (4, 2)]).search(budget=30)
        assert result.evaluations <= 30

    def test_per_shape_reported(self, model):
        from repro.twod import TwoDGbs

        result = TwoDGbs(model).search(budget=600)
        assert set(result.per_shape) == set(factor_pairs(model.n_nodes))
        assert "grid" in str(result)

    def test_bad_budget_raises(self, model):
        from repro.exceptions import SearchError
        from repro.twod import TwoDGbs

        with pytest.raises(SearchError):
            TwoDGbs(model).search(budget=0)

    def test_unknown_family_raises(self, model):
        from repro.exceptions import SearchError
        from repro.twod import TwoDLayoutSearch

        with pytest.raises(SearchError):
            TwoDLayoutSearch(model, algorithm="bogo")

    def test_strips_match_direct_scoring(self, model):
        from repro.twod import is_degenerate, strip_candidates

        assert is_degenerate((1, 8)) and is_degenerate((8, 1))
        assert not is_degenerate((2, 4))
        for shape in ((8, 1), (1, 8)):
            candidates = strip_candidates(model, shape)
            assert candidates, shape
            for d in candidates:
                assert d.grid_shape == shape
            batched = model.predict(candidates, batch=True)
            for d, v in zip(candidates, batched):
                assert v == model.predict(d)

    @pytest.mark.parametrize(
        "algorithm", ["gbs", "genetic", "annealing", "random", "sweep"]
    )
    def test_all_families_run(self, model, algorithm):
        from repro.twod import TwoDLayoutSearch

        result = TwoDLayoutSearch(model, algorithm=algorithm).search(
            budget=120
        )
        assert result.algorithm == f"twod-{algorithm}"
        assert result.best.n_rows == model.spec.n_rows
        assert result.best.n_cols == model.spec.n_cols
        assert set(result.per_shape) == set(factor_pairs(model.n_nodes))
        # Every family must at least match the strip path's best (the
        # strips are scored outside the family's own search).
        strips_best = min(
            v
            for s, v in result.per_shape.items()
            if s[0] == 1 or s[1] == 1
        )
        assert result.predicted_seconds <= strips_best

    def test_adapter_roundtrip_and_repair(self, model):
        from repro.distribution.genblock import GenBlock
        from repro.twod.search2d import _ShapeAdapter

        adapter = _ShapeAdapter(model, (2, 4))
        d = block2d(model.spec.n_rows, model.spec.n_cols, (2, 4))
        joint = adapter.encode(d)
        assert adapter.decode(joint) == d
        # Any joint vector decodes to a valid layout of the same shape.
        mangled = GenBlock([1, 1000, 3, 3, 3, 3])
        repaired = adapter.decode(mangled)
        assert repaired.grid_shape == (2, 4)
        assert repaired.n_rows == model.spec.n_rows
        assert repaired.n_cols == model.spec.n_cols
        assert min(repaired.row_counts) >= 1
        assert min(repaired.col_counts) >= 1

    def test_search_telemetry(self, model):
        from repro.obs import Recorder
        from repro.twod import TwoDGbs

        rec = Recorder()
        TwoDGbs(model).search(budget=200, telemetry=rec)
        assert rec.counters["search/runs"] >= 1
        assert rec.counters["search/evaluations"] > 0
        assert any(
            name.startswith("span/search/twod") for name in rec.series
        )


class TestTwoDFastForward:
    """2-D emulator fast-forward: golden equivalence + 1-D gating rules."""

    SHAPES = {8: [(2, 4), (4, 2), (8, 1), (1, 8)]}

    def _spec(self):
        return Jacobi2DSpec(n_rows=400, n_cols=400, iterations=24)

    @pytest.mark.parametrize("config", ["DC", "IO", "HY1", "HY2"])
    @pytest.mark.parametrize("shape", [(2, 4), (4, 2), (8, 1), (1, 8)])
    @pytest.mark.parametrize("factory", ["block", "balanced"])
    def test_golden_equivalence(self, config, shape, factory):
        from repro.cluster import table1_configs
        from repro.obs import Recorder

        cluster = table1_configs()[config]
        spec = self._spec()
        deterministic = PerturbationConfig().without(compute_noise=False)
        dist = (
            block2d(spec.n_rows, spec.n_cols, shape)
            if factory == "block"
            else balanced2d(cluster, spec.n_rows, spec.n_cols, shape)
        )
        emulator = TwoDEmulator(cluster, spec, deterministic)
        full = emulator.run(dist, fast_forward=False)
        rec = Recorder()
        fast = emulator.run(dist, fast_forward=True, telemetry=rec)
        assert rec.counters["sim/twod/fast_forwards"] == 1
        assert abs(fast - full) / abs(full) <= 1e-9

    def test_perturbed_run_bypasses_bitwise(self):
        from repro.cluster import table1_configs

        cluster = table1_configs()["HY1"]
        spec = self._spec()
        dist = block2d(spec.n_rows, spec.n_cols, (2, 4))
        emulator = TwoDEmulator(cluster, spec, PerturbationConfig())
        full = emulator.run(dist, fast_forward=False)
        fast = emulator.run(dist, fast_forward=True)
        assert fast == full

    def test_short_run_and_collector_bypass(self):
        from repro.cluster import table1_configs
        from repro.obs import Recorder
        from repro.util.rng import stream

        cluster = table1_configs()["HY1"]
        spec = self._spec()
        deterministic = PerturbationConfig().without(compute_noise=False)
        dist = block2d(spec.n_rows, spec.n_cols, (2, 4))
        emulator = TwoDEmulator(cluster, spec, deterministic)
        rec = Recorder()
        # Too few iterations for the probe window.
        emulator.run(dist, iterations=3, fast_forward=True, telemetry=rec)
        assert "sim/twod/fast_forwards" not in rec.counters
        # A collector is an observer: it must see every iteration.
        from repro.twod.jacobi2d import _TwoDCollector

        collector = _TwoDCollector(PERFECT, stream("t2dff", 0))
        rec2 = Recorder()
        emulator.run(
            dist, fast_forward=True, observer=collector, telemetry=rec2
        )
        assert "sim/twod/fast_forwards" not in rec2.counters

    def test_respects_global_default(self):
        # Fast-forward is on by default; only fast_forward=False opts
        # out (there is no process-wide switch).
        from repro.cluster import table1_configs
        from repro.obs import Recorder

        cluster = table1_configs()["HY1"]
        spec = self._spec()
        deterministic = PerturbationConfig().without(compute_noise=False)
        dist = block2d(spec.n_rows, spec.n_cols, (2, 4))
        emulator = TwoDEmulator(cluster, spec, deterministic)
        rec = Recorder()
        emulator.run(dist, fast_forward=False, telemetry=rec)
        assert "sim/twod/fast_forwards" not in rec.counters
        rec2 = Recorder()
        emulator.run(dist, telemetry=rec2)
        assert rec2.counters["sim/twod/fast_forwards"] == 1
