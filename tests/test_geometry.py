"""Deployment geometry: regions, point processes, nearest-distance queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnet_handover import simengine
from hetnet_handover.geometry import ClusterConfig, Region, sample_ppp, sample_tcp


class TestRegion:
    def test_area_and_sides(self):
        r = Region(0.0, 5000.0, 0.0, 2000.0)
        assert r.area == pytest.approx(1e7)
        assert r.width == 5000.0
        assert r.height == 2000.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Region(0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            Region(0.0, 10.0, 5.0, 1.0)
        with pytest.raises(ValueError, match="area must be finite"):
            Region(0.0, 1e308, 0.0, 1e308)
        with pytest.raises(ValueError, match="area must be finite"):
            Region(-1e308, 1e308, 0.0, 1.0)

    def test_contains_is_closed(self):
        r = Region(0.0, 10.0, 0.0, 10.0)
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [5.0, 5.0], [10.0001, 5.0]])
        assert list(r.contains(pts)) == [True, True, True, False]

    def test_sample_uniform_inside_and_deterministic(self):
        r = Region(-100.0, 100.0, 50.0, 250.0)
        a = r.sample_uniform(1000, np.random.default_rng(7))
        b = r.sample_uniform(1000, np.random.default_rng(7))
        assert np.array_equal(a, b)
        assert np.all(r.contains(a))


class TestSamplePPP:
    def test_count_mean(self):
        region = Region(0.0, 10_000.0, 0.0, 10_000.0)
        rng = np.random.default_rng(1)
        counts = [len(sample_ppp(region, 1e-6, rng)) for _ in range(300)]
        # Poisson(100) mean over 300 reps: SE = sqrt(100/300) ~ 0.58.
        assert np.mean(counts) == pytest.approx(100.0, abs=3.0)

    def test_points_inside_and_shape(self):
        region = Region(0.0, 1000.0, 0.0, 1000.0)
        xy = sample_ppp(region, 1e-4, np.random.default_rng(2))
        assert xy.ndim == 2 and xy.shape[1] == 2 and len(xy) > 0
        assert np.all(region.contains(xy))
        empty = sample_ppp(region, 1e-12, np.random.default_rng(2))
        assert empty.shape == (0, 2)

    def test_invalid_density(self):
        region = Region(0.0, 1000.0, 0.0, 1000.0)
        with pytest.raises(ValueError):
            sample_ppp(region, 0.0, np.random.default_rng(0))


class TestClusterConfig:
    def test_implied_density(self):
        cfg = ClusterConfig(lambda_p=2e-6, sigma=150.0, mean_offspring=5.0)
        assert cfg.implied_density == pytest.approx(1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(lambda_p=0.0, sigma=150.0)
        with pytest.raises(ValueError):
            ClusterConfig(lambda_p=1e-6, sigma=-1.0)
        with pytest.raises(ValueError):
            ClusterConfig(lambda_p=1e-6, sigma=150.0, mean_offspring=0.0)


class TestSampleTCP:
    def test_parent_child_structure(self):
        region = Region(0.0, 5000.0, 0.0, 5000.0)
        cfg = ClusterConfig(lambda_p=2e-6, sigma=150.0, mean_offspring=5.0)
        parents, children, parent_index = sample_tcp(region, cfg, np.random.default_rng(3))
        assert parents.shape[1] == 2 and children.shape[1] == 2
        assert np.all(region.contains(parents))
        assert parent_index.shape == (len(children),)
        assert parent_index.min() >= 0
        assert parent_index.max() < len(parents)

    def test_children_outside_region_are_kept(self):
        # A tiny region with huge scatter guarantees out-of-region children.
        region = Region(0.0, 200.0, 0.0, 200.0)
        cfg = ClusterConfig(lambda_p=5e-4, sigma=500.0, mean_offspring=10.0)
        _, children, _ = sample_tcp(region, cfg, np.random.default_rng(4))
        assert len(children) > 0
        assert not np.all(region.contains(children))

    def test_offspring_count_and_scatter(self):
        region = Region(0.0, 20_000.0, 0.0, 20_000.0)
        cfg = ClusterConfig(lambda_p=1e-6, sigma=150.0, mean_offspring=5.0)
        rng = np.random.default_rng(5)
        totals, scatters = [], []
        for _ in range(50):
            parents, children, parent_index = sample_tcp(region, cfg, rng)
            if len(parents) == 0:
                continue
            totals.append(len(children) / len(parents))
            disp = children - parents[parent_index]
            scatters.append(np.std(disp))
        assert np.mean(totals) == pytest.approx(5.0, rel=0.05)
        assert np.mean(scatters) == pytest.approx(150.0, rel=0.05)

    def test_empty_offspring_edge(self):
        region = Region(0.0, 100.0, 0.0, 100.0)
        cfg = ClusterConfig(lambda_p=1e-9, sigma=10.0, mean_offspring=1.0)
        parents, children, parent_index = sample_tcp(region, cfg, np.random.default_rng(0))
        assert parents.shape == (0, 2)
        assert children.shape == (0, 2)
        assert parent_index.shape == (0,)


class TestNearest:
    # The simulator finds each target's nearest serving-tier BS through the
    # per-tier KD-trees of `simengine._kdtrees`.
    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 1000, (40, 2))
        q = np.array([300.0, 700.0])
        d, i = simengine._kdtrees([pts])[0].query(q)
        brute = np.linalg.norm(pts - q, axis=1)
        assert i == int(np.argmin(brute))
        assert d == pytest.approx(brute.min())

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1000, (25, 2))
        queries = rng.uniform(0, 1000, (30, 2))
        d_batch, i_batch = simengine._kdtrees([pts])[0].query(queries)
        for k, q in enumerate(queries):
            brute = np.linalg.norm(pts - q, axis=1)
            assert i_batch[k] == int(np.argmin(brute))
            assert d_batch[k] == pytest.approx(brute.min())

    def test_empty_targets_rejected(self):
        # An empty tier gets no tree, so no query can land on it.
        empty = np.zeros((0, 2))
        full = np.ones((1, 2))
        trees = simengine._kdtrees([empty, full])
        assert trees[0] is None and trees[1].n == 1


@given(
    w=st.floats(min_value=1.0, max_value=1e4),
    h=st.floats(min_value=1.0, max_value=1e4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_uniform_samples_always_inside(w, h, seed):
    region = Region(0.0, w, 0.0, h)
    pts = region.sample_uniform(64, np.random.default_rng(seed))
    assert np.all(region.contains(pts))
