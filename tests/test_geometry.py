"""Deployment geometry: regions, point processes, nearest-distance queries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hetnet_handover import simengine
from hetnet_handover.geometry import (_ONE_CELL, ClusterConfig, GridIndex, Region, sample_ppp,
                                      sample_tcp)


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
    # per-tier `GridIndex` of `simengine._nearest_indexes`.
    @staticmethod
    def distances(pts, q):
        dx, dy = q[0] - pts[:, 0], q[1] - pts[:, 1]
        return np.sqrt(dx * dx + dy * dy)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 1000, (400, 2))
        q = np.array([[300.0, 700.0]])
        d, i = simengine._nearest_indexes([pts])[0].query(q)
        brute = self.distances(pts, q[0])
        assert i.tolist() == [int(np.argmin(brute))]
        assert d.tolist() == [brute.min()]

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1000, (25, 2))
        queries = rng.uniform(0, 1000, (30, 2))
        index = simengine._nearest_indexes([pts])[0]
        d_batch, i_batch = index.query(queries)
        for k, q in enumerate(queries):
            brute = self.distances(pts, q)
            assert i_batch[k] == int(np.argmin(brute))
            assert d_batch[k] == brute.min()
            d, i = index.query(q[None])
            assert (d.tolist(), i.tolist()) == ([d_batch[k]], [i_batch[k]])

    def test_empty_targets_rejected(self):
        # An empty tier gets no index, so no query can land on it.
        empty = np.zeros((0, 2))
        full = np.ones((1, 2))
        indexes = simengine._nearest_indexes([empty, full])
        assert indexes[0] is None and indexes[1].n == 1


@st.composite
def _point_sets(draw):
    """``(points, queries)``: 1 to 5 000 points of one layout within
    ``[-2, 2]`` times a scale of 1e-9 to 1e150 m, and queries within
    ``[-4, 4]`` times it, mostly outside the points' box.  Layouts: uniform,
    Gaussian clusters with a spread of 1e-3 to 1e3 of the extent, and a line
    of any slope, axis-parallel ones included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5000) | st.integers(1, 2 * _ONE_CELL))
    layout = draw(st.sampled_from(("uniform", "clusters", "line")))
    if layout == "uniform":
        pts = rng.uniform(size=(n, 2))
    elif layout == "clusters":
        centres = rng.uniform(size=(draw(st.integers(1, 20)), 2))
        spread = 10.0 ** draw(st.floats(-3.0, 3.0))
        pts = centres[rng.integers(0, len(centres), n)] + spread * rng.standard_normal((n, 2))
    else:
        t = rng.uniform(size=n)
        slope = draw(st.sampled_from((0.0, math.inf)) | st.floats(-10.0, 10.0))
        pts = np.column_stack((0 * t, t) if slope == math.inf else (t, slope * t))
    scale = 10.0 ** draw(st.floats(-9.0, 150.0))
    pts = pts / np.abs(pts).max() if np.abs(pts).max() > 0 else pts
    offset = draw(st.floats(-1.0, 1.0))
    queries = rng.uniform(-3.0, 3.0, size=(draw(st.integers(1, 500)), 2))
    return (pts + offset) * scale, (queries + offset) * scale


@given(case=_point_sets())
@settings(max_examples=150, deadline=None)
def test_grid_index_equals_kdtree_bit_for_bit(case):
    # cKDTree is the oracle: on tie-free sets the index returns its
    # distances and indices bit for bit, in O(n) cells.
    pts, queries = case
    index = GridIndex(pts)
    assert index.cells <= 3 * len(pts) + 1
    assert index.cells == 1 or len(pts) > _ONE_CELL
    d, i = index.query(queries)
    d_ref, i_ref = cKDTree(pts).query(queries)
    assert np.array_equal(i, i_ref)
    assert np.array_equal(d, d_ref)


@pytest.mark.parametrize("n", [1, _ONE_CELL, _ONE_CELL + 1])
def test_grid_index_on_each_side_of_one_cell(n):
    # Up to `_ONE_CELL` points, a single one included, a query scans every
    # point; past it, blocks of cells.  Both return cKDTree's bits.
    rng = np.random.default_rng(n)
    pts = rng.uniform(0.0, 1000.0, (n, 2))
    queries = rng.uniform(-500.0, 1500.0, (300, 2))
    index = GridIndex(pts)
    assert (index.cells == 1) == (n <= _ONE_CELL)
    for got, want in zip(index.query(queries), cKDTree(pts).query(queries)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [5, 200])
def test_grid_index_duplicates_go_to_the_lowest_index(m):
    # Every location three times: the nearest is the copy of lowest index.
    # (cKDTree breaks such ties its own way, and is not asked here.)
    rng = np.random.default_rng(m)
    base = rng.uniform(0.0, 1000.0, (m, 2))
    pts = np.concatenate([base, base[::-1], base])
    queries = np.concatenate([rng.uniform(0.0, 1000.0, (100, 2)), base])
    d, i = GridIndex(pts).query(queries)
    for q, dq, iq in zip(queries, d, i):
        brute = TestNearest.distances(base, q)
        assert (dq, iq) == (brute.min(), int(np.argmin(brute)))


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
