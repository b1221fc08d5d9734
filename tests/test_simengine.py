"""Tests for the event-driven Monte Carlo engine.

The walk-through scenarios construct circle fields and trajectories by hand
so every expected count can be derived with pencil and paper.
"""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import hypothesis
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetnet_handover import simengine as se
from hetnet_handover.analytics import HandoverMetrics, HandoverThresholds, PairKind
from hetnet_handover.cli import ExperimentSpec, apply_sweep, cmd_simulate, cmd_validate, load_config
from hetnet_handover.fixtures import (
    default_hotspot_params,
    default_macro_params,
    default_mobility,
    default_small_params,
    default_thresholds,
)
from hetnet_handover.geometry import ClusterConfig, Region, sample_ppp, sample_tcp
from hetnet_handover.mobility import generate_trajectory
from hetnet_handover.radio import (
    DegenerateBoundaryError,
    boundary_domain,
    boundary_factors,
    erb_circle_arrays,
)
from hetnet_handover.simengine import (
    METRICS,
    EventCounts,
    PairCounts,
    PairEstimate,
    SimConfig,
    analytic_metrics,
    run_campaign,
    run_trial,
    summarize_trials,
)

from oracles import (
    candidate_pairs_brute,
    crossing_events_lexsort,
    fresh_python,
    pin,
    reference_config,
    serving_bs,
    walk_trajectory_loop,
)


def small_config(**overrides) -> SimConfig:
    """A deployment small enough for fast trials but with all tiers populated."""
    base = dict(
        region=Region(0.0, 2000.0, 0.0, 2000.0),
        macro=default_macro_params(),
        small=default_small_params(),
        hotspot=default_hotspot_params(),
        lambda_m=2e-6,
        lambda_s=2e-5,
        cluster=ClusterConfig(lambda_p=2e-6, sigma=150.0, mean_offspring=5.0),
        mobility=default_mobility(),
        thresholds=default_thresholds(),
        n_users=2,
        n_moves=15,
        n_trials=4,
        master_seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# SimConfig
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="lambda_m"):
        small_config(lambda_m=0.0)
    with pytest.raises(ValueError, match="lambda_s"):
        small_config(lambda_s=-1e-5)
    with pytest.raises(ValueError, match="n_users"):
        small_config(n_users=0)
    with pytest.raises(ValueError, match="n_trials"):
        small_config(n_trials=0)
    with pytest.raises(ValueError, match="master_seed"):
        small_config(master_seed=-1)
    with pytest.raises(ValueError, match="master_seed"):
        small_config(master_seed=2**64)


def test_with_default_ratios_ties_densities_to_small_cells():
    cfg = SimConfig.with_default_ratios(
        region=Region(0.0, 5000.0, 0.0, 5000.0),
        macro=default_macro_params(),
        small=default_small_params(),
        hotspot=default_hotspot_params(),
        lambda_s=2e-5,
        sigma=150.0,
        mobility=default_mobility(),
        thresholds=default_thresholds(),
        n_trials=3,
    )
    assert cfg.lambda_m == 2e-5 / 10.0
    assert cfg.cluster.lambda_p == 2e-5 / 10.0
    assert cfg.cluster.sigma == 150.0
    assert cfg.cluster.mean_offspring == 5.0
    assert cfg.n_trials == 3


# ---------------------------------------------------------------------------
# Segment-circle crossings (the walk's batched root kernel)
# ---------------------------------------------------------------------------

def kernel_crossings(p0, p1, center, radius):
    """Handover-circle crossings of one segment, from the walk's kernel.

    Returns the crossing positions as fractions of the segment and the
    length of the part of the segment inside the circle, derived from the
    entry/exit arclengths and whether the segment starts inside.
    """
    fld = one_circle_field(center, r_h=radius, r_f=radius / 2.0)
    wp = np.array([p0, p1], dtype=float)
    segs = se._segments(wp[None])
    leg, circle = next(se._candidate_groups(wp[None], fld))
    circle, segment, s, code = se._crossing_events(segs, leg, circle, fld)
    assert np.all(circle == 0) and np.all(segment == 0)
    length = float(segs.length[0])
    s_in = s[code == se._EV_H_IN].tolist()
    s_out = s[code == se._EV_H_OUT].tolist()
    assert len(s_in) <= 1 and len(s_out) <= 1
    starts_inside = (wp[0, 0] - center[0]) ** 2 + (wp[0, 1] - center[1]) ** 2 < radius**2
    if s_in:
        inside_from = s_in[0]
    else:
        inside_from = 0.0 if starts_inside else None
    chord = 0.0 if inside_from is None else (s_out[0] if s_out else length) - inside_from
    return tuple(x / length for x in sorted(s_in + s_out)), chord


def test_crossing_through_diameter():
    fractions, chord = kernel_crossings((-17.0, 4.0), (23.0, 4.0), (3.0, 4.0), 10.0)
    assert fractions == pytest.approx((0.25, 0.75))
    assert chord == pytest.approx(20.0)


def test_crossing_hand_solved_quadratic():
    # Unit circle, segment from (-2, 0) to (2, 0): roots at arclength 1 and 3.
    fractions, chord = kernel_crossings((-2.0, 0.0), (2.0, 0.0), (0.0, 0.0), 1.0)
    assert fractions == (0.25, 0.75)
    assert chord == 2.0


def test_crossing_tangent_is_no_crossing():
    # The kernel needs two distinct roots (disc > 0): a segment that only
    # touches the circle produces no event, so no residence starts.
    fractions, chord = kernel_crossings((-2.0, 1.0), (2.0, 1.0), (0.0, 0.0), 1.0)
    assert fractions == ()
    assert chord == 0.0


def test_crossing_miss():
    fractions, chord = kernel_crossings((-2.0, 2.0), (2.0, 2.0), (0.0, 0.0), 1.0)
    assert fractions == ()
    assert chord == 0.0


def test_crossing_start_inside_reports_exit_only():
    fractions, chord = kernel_crossings((0.0, 0.0), (20.0, 0.0), (0.0, 0.0), 10.0)
    assert fractions == pytest.approx((0.5,))
    assert chord == pytest.approx(10.0)


def test_crossing_segment_entirely_inside():
    fractions, chord = kernel_crossings((-5.0, 0.0), (5.0, 0.0), (0.0, 0.0), 100.0)
    assert fractions == ()
    assert chord == pytest.approx(10.0)


def test_crossing_equal_endpoints_rejected():
    with pytest.raises(ValueError, match="endpoints"):
        se._segments(np.array([[[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]]))


def test_chord_matches_point_sampling():
    # Independent route: the chord is the fraction of finely sampled points
    # strictly inside the circle, times the segment length.
    rng = np.random.default_rng(11)
    n = 200_000
    ts = (np.arange(n) + 0.5) / n
    for _ in range(20):
        center = rng.uniform(-50.0, 50.0, size=2)
        radius = rng.uniform(5.0, 80.0)
        p0 = rng.uniform(-150.0, 150.0, size=2)
        p1 = rng.uniform(-150.0, 150.0, size=2)
        length = float(np.hypot(*(p1 - p0)))
        if length < 1e-6:
            continue
        _, chord = kernel_crossings(p0, p1, center, radius)
        pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
        inside = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]) < radius
        approx = inside.mean() * length
        assert chord == pytest.approx(approx, abs=2.0 * length / n + 1e-9)


@settings(max_examples=150, deadline=None)
@given(
    cx=st.floats(-100, 100),
    cy=st.floats(-100, 100),
    r=st.floats(0.1, 100),
    x0=st.floats(-200, 200),
    y0=st.floats(-200, 200),
    x1=st.floats(-200, 200),
    y1=st.floats(-200, 200),
)
# A small circle far along a long segment: the discriminant must not cancel.
@example(cx=0.0, cy=0.0, r=0.109375, x0=-193.0, y0=-193.0, x1=1.0, y1=1.0)
def test_crossing_invariants(cx, cy, r, x0, y0, x1, y1):
    length = math.hypot(x1 - x0, y1 - y0)
    if length < 1e-9:
        return
    fractions, chord = kernel_crossings((x0, y0), (x1, y1), (cx, cy), r)
    assert 0.0 <= chord <= min(2.0 * r, length) * (1.0 + 1e-9)
    assert all(0.0 < p <= 1.0 for p in fractions)
    assert list(fractions) == sorted(fractions)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def test_pair_counts_merge_adds_fields():
    a = PairCounts(triggered=5, handovers=3, failures=1, pingpongs=2,
                   overlap=1, degenerate_skipped=4, enclosing_skipped=6)
    b = PairCounts(triggered=2, handovers=1, failures=1, pingpongs=0,
                   overlap=0, degenerate_skipped=1, enclosing_skipped=2)
    a.merge_in(b)
    assert (a.triggered, a.handovers, a.failures, a.pingpongs) == (7, 4, 2, 2)
    assert (a.overlap, a.degenerate_skipped, a.enclosing_skipped) == (1, 5, 8)
    a.validate()


def test_pair_counts_validate_rejects_inconsistencies():
    with pytest.raises(ValueError, match="handovers"):
        PairCounts(triggered=1, handovers=2).validate()
    with pytest.raises(ValueError, match="failures"):
        PairCounts(triggered=1, failures=2).validate()
    with pytest.raises(ValueError, match=">= 0"):
        PairCounts(triggered=-1).validate()
    with pytest.raises(ValueError, match="exposure_time"):
        EventCounts(exposure_time=-1.0).validate()


def test_pair_counts_validate_rejects_counts_beyond_their_residences():
    # Each ping-pong ends one triggered residence, and each overlap is one
    # residence counted as both a handover and a failure.
    with pytest.raises(ValueError, match="pingpongs"):
        PairCounts(triggered=1, pingpongs=2).validate()
    with pytest.raises(ValueError, match="overlap"):
        PairCounts(triggered=3, handovers=1, failures=2, overlap=2).validate()
    with pytest.raises(ValueError, match="overlap"):
        PairCounts(triggered=3, handovers=2, failures=1, overlap=2).validate()
    PairCounts(triggered=3, handovers=2, failures=2, pingpongs=3, overlap=2).validate()


def test_event_counts_merge():
    a = EventCounts()
    a.pairs[PairKind.SM].triggered = 3
    a.pairs[PairKind.SM].handovers = 2
    a.exposure_time = 100.0
    b = EventCounts()
    b.pairs[PairKind.SPS].triggered = 5
    b.exposure_time = 50.0
    a.merge_in(b)
    assert a.exposure_time == 150.0
    assert a.pairs[PairKind.SM].triggered == 3
    assert a.pairs[PairKind.SPS].triggered == 5

    expected = EventCounts(exposure_time=150.0)
    expected.pairs[PairKind.SM] = PairCounts(triggered=3, handovers=2)
    expected.pairs[PairKind.SPS] = PairCounts(triggered=5)
    assert a == expected


def test_event_counts_merge_refuses_other_pair_kinds():
    full, sps = EventCounts(), EventCounts.counting((PairKind.SPS,))
    sm_spm = EventCounts.counting((PairKind.SPM, PairKind.SM))
    assert list(sm_spm.pairs) == [PairKind.SM, PairKind.SPM]  # `_KIND_ORDER` order
    for a, b in ((full, sps), (sps, full), (sps, sm_spm)):
        with pytest.raises(ValueError, match="cannot merge counts of pair kinds"):
            a.merge_in(b)
    assert full == EventCounts() and sps == EventCounts.counting((PairKind.SPS,))


# ---------------------------------------------------------------------------
# Strongest-RSS map
# ---------------------------------------------------------------------------

def test_serving_map_matches_reference_association():
    rng = np.random.default_rng(3)
    region = Region(0.0, 3000.0, 0.0, 3000.0)
    macro = sample_ppp(region, 2e-6, rng)
    small = sample_ppp(region, 2e-5, rng)
    _, hotspot, _ = sample_tcp(
        region, ClusterConfig(lambda_p=2e-6, sigma=150.0, mean_offspring=5.0), rng
    )
    mp, sp, hp = default_macro_params(), default_small_params(), default_hotspot_params()
    smap = se._ServingMap(se._nearest_indexes((macro, small, hotspot)), (mp, sp, hp))
    deployment = [(macro, mp), (small, sp), (hotspot, hp)]
    points = region.sample_uniform(200, rng)
    tier_pos, idx = smap.query(points)
    for xy, t, i in zip(points, tier_pos.tolist(), idx.tolist()):
        assert (t, i) == serving_bs(xy, deployment)


def test_serving_map_on_bs_position_and_empty_tier():
    tiers = (np.empty((0, 2)), np.array([[10.0, 10.0], [50.0, 50.0]]))
    indexes = se._nearest_indexes(tiers)
    assert indexes[0] is None
    smap = se._ServingMap(indexes, (default_macro_params(), default_small_params()))
    tier_pos, idx = smap.query(np.array([[50.0, 50.0], [11.0, 10.0]]))
    assert tier_pos.tolist() == [1, 1]
    assert idx.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# Walk-through scenarios (hand-built circle fields)
# ---------------------------------------------------------------------------

def one_circle_field(center=(0.0, 0.0), r_h=100.0, r_f=50.0) -> se._CircleField:
    return se._CircleField(
        kind_index=np.array([0], dtype=np.intp),
        cx_h=np.array([center[0]]),
        cy_h=np.array([center[1]]),
        r2_h=np.array([r_h * r_h]),
        cx_f=np.array([center[0]]),
        cy_f=np.array([center[1]]),
        r2_f=np.array([r_f * r_f]),
        serving_tier=np.array([0], dtype=np.intp),
        serving_idx=np.array([0], dtype=np.intp),
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_serving_map_at_extreme_scales(scale):
    # A macro BS at the origin and a small cell at (scale, 0).  The received
    # powers of queries along the axis overflow (or underflow) a double at
    # the two extreme scales; the winner is taken in 50-digit arithmetic.
    import mpmath

    mp, sp = default_macro_params(), default_small_params()
    tiers = (np.array([[0.0, 0.0]]), np.array([[scale, 0.0]]))
    smap = se._ServingMap(se._nearest_indexes(tiers), (mp, sp))
    xs = scale * np.linspace(-0.5, 1.5, 41)
    tier_pos, _ = smap.query(np.column_stack([xs, np.zeros_like(xs)]))
    with mpmath.workdps(50):
        for x, got in zip(xs, tier_pos.tolist()):
            d_m, d_s = mpmath.mpf(abs(x)), mpmath.mpf(abs(x - scale))
            if d_s == 0:
                assert got == 1
                continue
            rss_m = mp.linear_prefactor * d_m ** -mp.pathloss_exponent if d_m else mpmath.inf
            assert got == int(sp.linear_prefactor * d_s ** -sp.pathloss_exponent > rss_m), x


def single_bs_map() -> se._ServingMap:
    macro = np.array([[-1000.0, 0.0]])
    return se._ServingMap(se._nearest_indexes([macro]), [default_macro_params()])


def walk(waypoints, thresholds, velocity=1.0, pause=0.0, fld=None) -> EventCounts:
    counts = EventCounts()
    se._walk_trajectories(
        np.asarray(waypoints, float)[None], velocity, pause,
        one_circle_field() if fld is None else fld, single_bs_map(), thresholds, counts,
    )
    counts.validate()
    return counts


def test_walk_slow_pass_completes_handover():
    # Straight through both circles at 1 m/s: 200 s inside the handover
    # circle easily clears a 1 s threshold, and the failure circle is only
    # reached 50 s after the trigger.
    th = HandoverThresholds(t_threshold=1.0, t_pingpong=4.0, q_out=0.5)
    counts = walk([[-200.0, 0.0], [200.0, 0.0]], th)
    pc = counts.pairs[PairKind.SM]
    assert (pc.triggered, pc.handovers, pc.failures, pc.pingpongs) == (1, 1, 0, 0)
    assert pc.overlap == 0


def test_walk_threshold_too_large_counts_failure():
    # Reaching the failure circle 50 s after the trigger with a 1000 s
    # threshold is a failure, and the 200 s sojourn completes no handover.
    th = HandoverThresholds(t_threshold=1000.0, t_pingpong=0.01, q_out=0.5)
    counts = walk([[-200.0, 0.0], [200.0, 0.0]], th)
    pc = counts.pairs[PairKind.SM]
    assert (pc.triggered, pc.handovers, pc.failures, pc.pingpongs) == (1, 0, 1, 0)


def test_walk_quick_exit_back_to_serving_is_pingpong():
    # With a huge ping-pong window the exit point (just outside x = +100) is
    # checked against the map; the lone BS there is the original server.
    th = HandoverThresholds(t_threshold=1000.0, t_pingpong=1000.0, q_out=0.5)
    counts = walk([[-200.0, 0.0], [200.0, 0.0]], th)
    pc = counts.pairs[PairKind.SM]
    assert pc.triggered == 1
    assert pc.pingpongs == 1
    assert pc.handovers == 0


def test_walk_chord_missing_failure_circle():
    # Passing at y = 75 m crosses the 100 m handover circle but stays clear
    # of the 50 m failure circle: no failure even with a huge threshold.
    th = HandoverThresholds(t_threshold=1000.0, t_pingpong=0.01, q_out=0.5)
    counts = walk([[-200.0, 75.0], [200.0, 75.0]], th)
    pc = counts.pairs[PairKind.SM]
    assert (pc.triggered, pc.failures) == (1, 0)
    assert pc.handovers == 0  # chord is ~132 s, below the 1000 s threshold


def test_walk_start_inside_is_untracked():
    th = HandoverThresholds(t_threshold=0.1, t_pingpong=1000.0, q_out=0.5)
    counts = walk([[0.0, 0.0], [300.0, 0.0]], th)
    pc = counts.pairs[PairKind.SM]
    assert (pc.triggered, pc.handovers, pc.failures, pc.pingpongs) == (0, 0, 0, 0)


def test_walk_pause_counts_toward_residence_and_overlap():
    # Trigger at t=1 s, failure-circle arrival at t=1.5 s (failure for a 5 s
    # threshold), 10 s waypoint pause inside, exit at t=13 s: the same
    # residence is both a failure and a completed handover.
    th = HandoverThresholds(t_threshold=5.0, t_pingpong=1.0, q_out=0.5)
    counts = walk(
        [[-200.0, 0.0], [0.0, 0.0], [200.0, 0.0]], th, velocity=100.0, pause=10.0
    )
    pc = counts.pairs[PairKind.SM]
    assert (pc.triggered, pc.handovers, pc.failures, pc.pingpongs) == (1, 1, 1, 0)
    assert pc.overlap == 1


def test_walk_open_residence_completes_at_trajectory_end():
    # The trajectory ends inside the circle.  Trigger at t=100 s; total time
    # 200 s travel + 50 s pause = 250 s, so 150 s accumulated: enough for a
    # 120 s threshold even though no exit event ever fires.
    th = HandoverThresholds(t_threshold=120.0, t_pingpong=1000.0, q_out=0.5)
    counts = walk([[-200.0, 0.0], [0.0, 0.0]], th, velocity=1.0, pause=50.0)
    pc = counts.pairs[PairKind.SM]
    assert (pc.triggered, pc.handovers, pc.pingpongs) == (1, 1, 0)


def test_walk_open_residence_below_threshold_not_counted():
    th = HandoverThresholds(t_threshold=200.0, t_pingpong=1000.0, q_out=0.5)
    counts = walk([[-200.0, 0.0], [0.0, 0.0]], th, velocity=1.0, pause=50.0)
    pc = counts.pairs[PairKind.SM]
    assert (pc.triggered, pc.handovers) == (1, 0)


def test_walk_empty_field_is_a_no_op():
    fld = se._CircleField(
        kind_index=np.empty(0, dtype=np.intp),
        cx_h=np.empty(0), cy_h=np.empty(0), r2_h=np.empty(0),
        cx_f=np.empty(0), cy_f=np.empty(0), r2_f=np.empty(0),
        serving_tier=np.empty(0, dtype=np.intp),
        serving_idx=np.empty(0, dtype=np.intp),
    )
    th = HandoverThresholds(t_threshold=1.0, t_pingpong=4.0, q_out=0.5)
    counts = walk([[-200.0, 0.0], [200.0, 0.0]], th, fld=fld)
    for pc in counts.pairs.values():
        assert (pc.triggered, pc.handovers, pc.failures, pc.pingpongs) == (0, 0, 0, 0)


def test_walk_reentry_counts_a_second_trigger():
    # Out and back: two separate residences, each triggered.
    th = HandoverThresholds(t_threshold=1.0, t_pingpong=0.01, q_out=0.5)
    counts = walk(
        [[-200.0, 0.0], [200.0, 0.0], [-200.0, 0.0]], th, velocity=1.0
    )
    pc = counts.pairs[PairKind.SM]
    assert pc.triggered == 2
    assert pc.handovers == 2


def two_circle_field(order=(0, 1)) -> se._CircleField:
    """Circle A (SM, r 100/50 m at the origin) and circle B (SpS, r 50/20 m
    at x = 300 m), listed in ``order``."""
    rows = [
        (0, 0.0, 0.0, 100.0, 50.0, 0, 0),
        (1, 300.0, 0.0, 50.0, 20.0, 1, 0),
    ]
    rows = [rows[j] for j in order]

    def col(j, dtype=float):
        return np.array([r[j] for r in rows], dtype=dtype)

    return se._CircleField(
        kind_index=col(0, np.intp),
        cx_h=col(1), cy_h=col(2), r2_h=col(3) ** 2,
        cx_f=col(1), cy_f=col(2), r2_f=col(4) ** 2,
        serving_tier=col(5, np.intp), serving_idx=col(6, np.intp),
    )


def test_walk_box_overlap_without_crossing_gives_no_events():
    # The segment's box [80, 200]^2 overlaps the circle's box [-100, 100]^2,
    # but the line x + y = 280 passes 198 m from the centre: the broad phase
    # lets the pair through and the root solve rejects it.
    wp = np.array([[80.0, 200.0], [200.0, 80.0]])
    fld = one_circle_field()
    seg, circle = next(se._candidate_groups(wp[None], fld))
    assert (seg.tolist(), circle.tolist()) == ([0], [0])
    assert all(len(a) == 0 for a in se._crossing_events(se._segments(wp[None]), seg, circle, fld))
    th = HandoverThresholds(t_threshold=1.0, t_pingpong=4.0, q_out=0.5)
    counts = walk(wp, th)
    assert counts.pairs[PairKind.SM] == PairCounts()


def random_field(rng, n) -> se._CircleField:
    """``n`` circle pairs scattered over a 600 m square, each failure circle
    inside its handover circle."""
    cx, cy = rng.uniform(-300.0, 300.0, (2, n))
    r_h = rng.uniform(5.0, 80.0, n)
    return se._CircleField(
        kind_index=np.zeros(n, dtype=np.intp),
        cx_h=cx, cy_h=cy, r2_h=r_h**2,
        cx_f=cx + 0.2 * r_h, cy_f=cy, r2_f=(0.5 * r_h) ** 2,
        serving_tier=np.zeros(n, dtype=np.intp), serving_idx=np.zeros(n, dtype=np.intp),
    )


@pytest.mark.parametrize("n_circles", [1, 7])
@pytest.mark.parametrize("walk_budget", [1, 10**9])
@pytest.mark.parametrize(
    "users_per_block", ["chunk", "chunk at boundary", 1, "1 at boundary", 2, "all"]
)
def test_candidate_groups_match_brute_force(monkeypatch, n_circles, walk_budget, users_per_block):
    # Five users of 40 legs (two 32-leg blocks each); user 2 walks far from
    # every circle and has no candidates.  User 0's first leg stops 1 mm
    # short of circle 0's box: outside its own slack, inside the slack that
    # user 2's coordinates would give.  The broad-phase budget is set
    # relative to the field's mask per user, fld.n * n_moves: a budget of
    # exactly k such masks gives blocks of k whole users, one element less
    # gives k - 1 (32-leg blocks at k = 1).  Each setting must give the
    # brute-force candidates of every user, array for array.
    rng = np.random.default_rng(26)
    fld = random_field(rng, n_circles)
    waypoints = rng.uniform(-320.0, 320.0, (5, 41, 2))
    waypoints[2] += 5000.0
    x_lo, _, y_lo, y_hi = fld.boxes
    waypoints[0, :2] = [[x_lo[0] - 50.0, (y_lo[0] + y_hi[0]) / 2]] * 2
    waypoints[0, 1, 0] = x_lo[0] - 1e-3
    n_users, n_moves = waypoints.shape[0], waypoints.shape[1] - 1
    mask = fld.n * n_moves
    budget, blocks = {
        "chunk": (0, 2 * n_users),
        "chunk at boundary": (mask - 1, 2 * n_users),
        1: (2 * mask - 1, n_users),
        "1 at boundary": (mask, n_users),
        2: (2 * mask, 3),
        "all": (10**9, 1),
    }[users_per_block]
    widths = []
    divmod_ = np.divmod  # called once per block
    monkeypatch.setattr(se, "_BROAD_BUDGET", budget)
    monkeypatch.setattr(se, "_WALK_BUDGET", walk_budget)
    monkeypatch.setattr(se.np, "divmod", lambda flat, n: widths.append(n) or divmod_(flat, n))
    groups = list(se._candidate_groups(waypoints, fld))
    monkeypatch.undo()
    assert len(widths) == blocks

    want = [candidate_pairs_brute(wp, fld) for wp in waypoints]
    assert len(want[2][0]) == 0 and all(len(k) for u, (k, _) in enumerate(want) if u != 2)
    assert 0 not in want[0][1][want[0][0] == 0]
    for got, expected in zip(
        (np.concatenate(a) for a in zip(*groups)),
        (np.concatenate(a) for a in zip(*((k + u * n_moves, i) for u, (k, i) in enumerate(want)))),
    ):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    users_per_group = [np.unique(k // n_moves).tolist() for k, _ in groups]
    if walk_budget == 1:
        # One group per user; user 2's is empty.
        assert users_per_group == [[0], [1], [], [3], [4]]
    else:
        assert len(groups) == 1


def test_walk_segment_ending_on_boundary():
    # The first segment ends exactly on the handover circle (root s = 100 =
    # length): the entry belongs to it, and the next segment, which starts
    # on the boundary (root s = 0), does not trigger again.
    th = HandoverThresholds(t_threshold=1.0, t_pingpong=0.01, q_out=0.5)
    counts = walk([[-200.0, 0.0], [-100.0, 0.0], [200.0, 0.0]], th)
    pc = counts.pairs[PairKind.SM]
    assert (pc.triggered, pc.handovers, pc.failures, pc.pingpongs) == (1, 1, 0, 0)
    # A path that stops on the boundary triggers once and, with no time
    # spent inside, completes nothing.
    counts = walk([[-200.0, 0.0], [-100.0, 0.0]], th)
    pc = counts.pairs[PairKind.SM]
    assert (pc.triggered, pc.handovers) == (1, 0)


def test_walk_two_circles_on_one_segment_are_independent_of_order():
    # One segment crosses both circles: A's residence lasts 200 s with a
    # failure-circle arrival 50 s after the trigger, B's lasts 100 s with an
    # arrival after 30 s.  A 40 s threshold fails B only; both complete.
    th = HandoverThresholds(t_threshold=40.0, t_pingpong=0.01, q_out=0.5)
    results = []
    for order in ((0, 1), (1, 0)):
        counts = walk([[-200.0, 0.0], [500.0, 0.0]], th, fld=two_circle_field(order))
        results.append(counts.pairs)
    assert results[0] == results[1]
    assert results[0][PairKind.SM] == PairCounts(triggered=1, handovers=1)
    assert results[0][PairKind.SPS] == PairCounts(
        triggered=1, handovers=1, failures=1, overlap=1
    )


#: Integer points on circles of integer radius: a waypoint built from one of
#: them lies exactly on that boundary, at any power-of-two scale.
_ON_CIRCLE = {
    5: ((3, 4), (4, 3), (5, 0)),
    13: ((5, 12), (12, 5), (13, 0)),
    25: ((7, 24), (15, 20), (24, 7), (25, 0)),
}

#: Relative offsets of a near-tangent leg from its circle (0 is tangent).
_TANGENT_GAPS = (0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-6, -1e-6)


def _boundary_point(draw, ox, oy, r) -> tuple:
    a, b = draw(st.sampled_from(_ON_CIRCLE[r]))
    if draw(st.booleans()):
        a, b = b, a
    return ox + draw(st.sampled_from((-a, a))), oy + draw(st.sampled_from((-b, b)))


def _transpose_about(points, cx, cy) -> list:
    """Mirror ``points`` in the diagonal through ``(cx, cy)``."""
    return [(cx + (y - cy), cy + (x - cx)) for x, y in points]


def _mixed_path(draw, rows) -> list:
    """Free points, boundary points, points near a failure-circle centre and
    near-tangent legs, in any order."""
    coord = st.floats(-60.0, 60.0, allow_nan=False)
    points = []
    for _ in range(draw(st.integers(1, 6))):
        cx, cy, r_h, fx, fy, r_f = draw(st.sampled_from(rows))
        piece = draw(st.sampled_from(("free", "boundary", "inside", "tangent")))
        if piece == "free":
            points.append((draw(coord), draw(coord)))
        elif piece == "boundary":
            circle = draw(st.sampled_from(((cx, cy, r_h), (fx, fy, r_f))))
            points.append(_boundary_point(draw, *circle))
        elif piece == "inside":
            jitter = st.floats(-r_f / 2.0, r_f / 2.0, allow_nan=False)
            points.append((fx + draw(jitter), fy + draw(jitter)))
        else:
            gap = draw(st.sampled_from(_TANGENT_GAPS))
            level = cy + draw(st.sampled_from((-1, 1))) * r_h * (1.0 + gap)
            reach = st.floats(0.5 * r_h, 3.0 * r_h, allow_nan=False)
            leg = [(cx - draw(reach), level), (cx + draw(reach), level)]
            if draw(st.booleans()):
                leg = _transpose_about(leg, cx, cy)
            points.extend(leg[:: draw(st.sampled_from((1, -1)))])
    return points


def _line_path(draw, rows) -> list:
    """Integer waypoints back and forth along one axis-parallel line that
    cuts a chosen circle at integer arclengths: every event time is exact,
    so a time difference can equal an integer threshold."""
    cx, cy, r_h, fx, fy, r_f = draw(st.sampled_from(rows))
    ox, oy, r = draw(st.sampled_from(((cx, cy, r_h), (fx, fy, r_f))))
    level = oy + draw(st.sampled_from((-1, 1))) * draw(
        st.sampled_from([0] + [a for a, _ in _ON_CIRCLE[r]])
    )
    xs = draw(st.lists(st.integers(ox - 2 * r, ox + 2 * r), min_size=2, max_size=6))
    points = [(x, level) for x in xs]
    return _transpose_about(points, ox, oy) if draw(st.booleans()) else points


def _field_rows(draw) -> list:
    """1-4 circle rows ``(cx, cy, r_h, fx, fy, r_f)`` with integer centres;
    a failure circle is concentric or slightly off its handover circle, and
    inside it, as the simulator's circles are."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        cx, cy = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
        r_h = draw(st.sampled_from(sorted(_ON_CIRCLE)))
        r_f = draw(st.sampled_from([r for r in _ON_CIRCLE if r <= r_h]))
        # The radii differ by at least 8, more than any offset's length.
        offset = st.one_of(st.just((0, 0)), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
        dx, dy = draw(offset) if r_f < r_h else (0, 0)
        rows.append((cx, cy, r_h, cx + dx, cy + dy, r_f))
    return rows


def _scene_path(draw, rows) -> list:
    """Waypoints through the field ``rows``: a `_mixed_path` or a
    `_line_path`, which may start inside a circle or within an ulp of a
    boundary point."""
    points = draw(st.sampled_from((_mixed_path, _line_path)))(draw, rows)
    cx, cy, r_h, *_ = draw(st.sampled_from(rows))
    start = draw(st.sampled_from(("as drawn", "inside", "on the boundary")))
    if start == "inside":
        points.insert(0, (cx + 0.25, cy - 0.5))
    elif start == "on the boundary":
        # The inside test and the root solve may disagree about such a start.
        x, y = _boundary_point(draw, cx, cy, r_h)
        nudge = 1.0 + draw(st.sampled_from((-2e-16, 0.0, 2e-16)))
        points.insert(0, (cx + (x - cx) * nudge, cy + (y - cy) * nudge))
    wp = [points[0]] + [q for p, q in zip(points, points[1:]) if q != p]
    hypothesis.assume(len(wp) >= 2)
    return wp


_SECONDS = st.one_of(st.integers(1, 12).map(float), st.floats(0.01, 30.0))
_VELOCITY = st.one_of(st.sampled_from((1.0, 2.0)), st.floats(0.5, 50.0))
_PAUSE = st.sampled_from((0.0, 0.5, 7.0))


def _scene_roles(draw, n) -> dict:
    """Pair kinds and ``(tier, index)`` servers of ``n`` circles, the
    thresholds and the length scale of a scene."""
    bit = st.integers(0, 1)
    return dict(
        kinds=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        serving=draw(st.lists(st.tuples(bit, bit), min_size=n, max_size=n)),
        t_threshold=draw(_SECONDS),
        t_pingpong=draw(_SECONDS),
        scale=draw(st.sampled_from((0.5, 1.0, 8.0))),
    )


@st.composite
def walk_scenes(draw):
    """A small random circle field, waypoints and motion parameters.

    Paths either mix free points, points exactly on a handover or failure
    boundary, points near a circle centre and near-tangent legs, or run
    along one line with exact event times (see `_line_path`).  A path may
    start inside a circle or within an ulp of a boundary point.  Speeds and
    thresholds are often small integers.
    """
    rows = _field_rows(draw)
    wp = _scene_path(draw, rows)
    return users_scene(
        rows, [wp], velocity=draw(_VELOCITY), pause=draw(_PAUSE), **_scene_roles(draw, len(rows))
    )


@st.composite
def multi_walk_scenes(draw):
    """One to four users on one small random field (as in `walk_scenes`),
    with one leg count, one speed and one pause.  A user may repeat an
    earlier user's path: the two then start inside the same circles and
    cross each circle at equal times.  The leg count is the longest path's;
    a shorter path is walked back and forth (`_retrace`)."""
    rows = _field_rows(draw)
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        if paths and draw(st.booleans()):
            paths.append(draw(st.sampled_from(paths)))
        else:
            paths.append(_scene_path(draw, rows))
    n_legs = max(len(wp) for wp in paths) - 1
    return users_scene(
        rows, [_retrace(wp, n_legs) for wp in paths], velocity=draw(_VELOCITY),
        pause=draw(_PAUSE), **_scene_roles(draw, len(rows)),
    )


def _retrace(wp, n_legs) -> list:
    """``n_legs + 1`` waypoints that walk ``wp`` to its end, back to its
    start, and so on."""
    period = 2 * (len(wp) - 1)
    return [wp[min(j % period, period - j % period)] for j in range(n_legs + 1)]


def users_scene(
    rows, paths, *, velocity, pause, kinds, serving, t_threshold, t_pingpong, scale=1.0
) -> tuple:
    """``(field, waypoints, velocity, pause, thresholds)`` from circle rows
    ``(cx, cy, r_h, fx, fy, r_f)``, their pair kinds and ``(tier, index)``
    servers, and one path per user, all of one leg count, walked at
    ``velocity`` with ``pause`` after each leg; every length is multiplied
    by ``scale``."""

    def col(j):
        return np.array([r[j] for r in rows], dtype=float) * scale

    tier, idx = np.array(serving, dtype=np.intp).reshape(-1, 2).T
    fld = se._CircleField(
        kind_index=np.array(kinds, dtype=np.intp),
        cx_h=col(0), cy_h=col(1), r2_h=col(2) ** 2,
        cx_f=col(3), cy_f=col(4), r2_f=col(5) ** 2,
        serving_tier=tier, serving_idx=idx,
    )
    waypoints = np.array(paths, dtype=float) * scale
    thresholds = HandoverThresholds(
        t_threshold=t_threshold, t_pingpong=t_pingpong, q_out=0.5
    )
    return fld, waypoints, velocity, pause, thresholds


def two_tier_map() -> se._ServingMap:
    """Two macro and two small BSs around the scene, so the serving BS at a
    quick exit is sometimes the circle's own server and sometimes not."""
    macro = np.array([[-300.0, 0.0], [300.0, 40.0]])
    small = np.array([[0.0, -250.0], [20.0, 260.0]])
    return se._ServingMap(
        se._nearest_indexes([macro, small]), [default_macro_params(), default_small_params()]
    )


#: One row: handover circle r 13 m and failure circle r 5 m at the origin.
_CONCENTRIC = [(0, 0, 13, 0, 0, 5)]

#: Single-user scenes pinned as examples, ``(rows, waypoints, roles)``.
_EDGE_SCENES = (
    # Start inside; the exit root on the leg that ends on the boundary at
    # (0, 1) rounds past the leg's end, so the user is next seen entering:
    # the start state says that entry changes nothing.
    ([(0, 6, 5, 0, 6, 5)], [(0, 6), (1, 6), (0, 1), (0, 0), (0, 6)],
     dict(kinds=[0], serving=[(0, 0)], t_threshold=1.0, t_pingpong=1.0)),
    # Trigger at t = 7 s, failure circle at 15 s: exactly the 8 s threshold,
    # so no failure.
    (_CONCENTRIC, [(-20, 0), (20, 0)],
     dict(kinds=[0], serving=[(0, 1)], t_threshold=8.0, t_pingpong=1.0)),
    # A 26 s sojourn completes a 26 s threshold, and with a 26 s ping-pong
    # window it is no quick exit, although the strongest BS at the exit
    # point is the circle's serving BS.
    (_CONCENTRIC, [(-20, 0), (20, 0)],
     dict(kinds=[0], serving=[(0, 1)], t_threshold=26.0, t_pingpong=26.0)),
)


def edge_scene_examples(scene_of):
    """Pin ``scene_of(rows, waypoints, roles)`` of each of `_EDGE_SCENES` as
    a hypothesis example."""

    def decorate(test):
        for rows, wp, roles in _EDGE_SCENES:
            test = example(scene=scene_of(rows, wp, roles))(test)
        return test

    return decorate


def _counts_dicts(counts: EventCounts) -> list:
    return [dataclasses.asdict(counts.pairs[kind]) for kind in se._KIND_ORDER]


def walk_trajectories_loop(waypoints, velocity, pause, fld, smap, thresholds, counts) -> None:
    """`walk_trajectory_loop` for each user of the block ``waypoints`` in turn."""
    for wp in waypoints:
        walk_trajectory_loop(wp, velocity, pause, fld, smap, thresholds, counts)


@given(scene=walk_scenes())
@settings(max_examples=300, deadline=None)
@edge_scene_examples(
    lambda rows, wp, roles: users_scene(rows, [wp], velocity=1.0, pause=0.0, **roles)
)
def test_walk_matches_event_loop_oracle(scene):
    fld, waypoints, velocity, pause, thresholds = scene
    smap = two_tier_map()
    results = []
    for walker in (se._walk_trajectories, walk_trajectories_loop):
        counts = EventCounts()
        for pc in counts.pairs.values():  # counts accumulate onto earlier ones
            pc.triggered, pc.handovers, pc.failures = 7, 5, 3
        walker(waypoints, velocity, pause, fld, smap, thresholds, counts)
        results.append(_counts_dicts(counts))
    assert results[0] == results[1]


def recording_crossing_events(tables: list):
    """A stand-in for `simengine._crossing_events` that records each call's
    arguments and result in ``tables``."""
    crossing_events = se._crossing_events

    def record(*args):
        result = crossing_events(*args)
        tables.append((args, result))
        return result

    return record


def assert_tables_match_lexsort(tables: list) -> None:
    """Every recorded event table equals the lexsort oracle row for row."""
    for args, result in tables:
        for got, want in zip(result, crossing_events_lexsort(*args)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@given(scene=multi_walk_scenes())
@settings(max_examples=200, deadline=None)
# Two users start inside the same circles; the second leaves, comes back
# through both and leaves again.
@example(scene=users_scene(
    _CONCENTRIC, [[(1, 1), (10, 0), (20, 0)], [(-2, 1), (-20, 0), (20, 0)]],
    velocity=1.0, pause=0.5, kinds=[1], serving=[(0, 1)], t_threshold=8.0, t_pingpong=30.0,
))
# Two users on crossing paths enter the handover circle at t = 7 s and the
# failure circle at t = 15 s, and leave them at equal times too.
@example(scene=users_scene(
    _CONCENTRIC, [[(-20, 0), (20, 0)], [(0, -20), (0, 20)]],
    velocity=1.0, pause=0.0, kinds=[2], serving=[(0, 1)], t_threshold=8.0, t_pingpong=26.0,
))
# The single-user edge scenes, each walked by two identical users: their
# identical handover and failure circles tie arclengths, broken by code.
@edge_scene_examples(
    lambda rows, wp, roles: users_scene(rows, [wp] * 2, velocity=1.0, pause=0.0, **roles)
)
def test_multi_user_walk_matches_per_user_loop(scene):
    # One event table per user (budget 1) and one for all users (budget
    # 10**9) must both give the per-user loop's counts, and each table must
    # be the lexsorted one.  So must either broad-phase regime: leg blocks
    # within one user (budget 0; the scenes' paths are shorter than 32 legs,
    # so the blocks are cut to 2 legs) and one block of every user (budget
    # 10**9).
    fld, waypoints, velocity, pause, thresholds = scene
    smap = two_tier_map()
    expected = EventCounts()
    walk_trajectories_loop(waypoints, velocity, pause, fld, smap, thresholds, expected)
    owner = np.repeat(np.arange(len(waypoints)), waypoints.shape[1] - 1)
    for budget, broad in itertools.product((1, 10**9), ((0, 2), (10**9, 32))):
        counts, tables = EventCounts(), []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(se, "_WALK_BUDGET", budget)
            mp.setattr(se, "_BROAD_BUDGET", broad[0])
            mp.setattr(se, "_BROAD_CHUNK", broad[1])
            mp.setattr(se, "_crossing_events", recording_crossing_events(tables))
            se._walk_trajectories(waypoints, velocity, pause, fld, smap, thresholds, counts)
        assert _counts_dicts(counts) == _counts_dicts(expected), (budget, broad)
        users_per_table = [len(set(owner[leg].tolist())) for (_, leg, _, _), _ in tables]
        if budget == 1:
            assert max(users_per_table) <= 1
        else:
            assert len(tables) == 1
        assert_tables_match_lexsort(tables)


@pytest.mark.parametrize("index", range(3))
def test_trial_event_tables_match_lexsort(index, monkeypatch):
    # The recorded reference trials below: every group's event table is the
    # lexsorted one.
    tables = []
    monkeypatch.setattr(se, "_crossing_events", recording_crossing_events(tables))
    run_trial(reference_config(0), index)
    assert tables and sum(len(result[0]) for _, result in tables) > 1000
    assert_tables_match_lexsort(tables)

# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def test_run_trial_deterministic_per_index():
    cfg = small_config()
    a = run_trial(cfg, 3)
    b = run_trial(cfg, 3)
    assert a == b
    c = run_trial(cfg, 4)
    assert a != c



@pytest.mark.parametrize("empty", ["hotspot", "macro"])
def test_trial_with_an_empty_tier_counts_none_of_its_pairs(monkeypatch, empty):
    # The emptied tier is drawn as usual and dropped afterwards, so the
    # deployment stream, the other tiers and the walk are unchanged: the
    # kinds that touch the empty tier count nothing, and the others count
    # what the full trial counts.
    cfg = reference_config(0)
    full = run_trial(cfg, 0)
    if empty == "hotspot":
        def drop(region, cluster, rng):
            parents, offspring, parent_index = sample_tcp(region, cluster, rng)
            return parents, offspring[:0], parent_index[:0]

        monkeypatch.setattr(se, "sample_tcp", drop)
    else:
        def drop(region, density, rng):
            xy = sample_ppp(region, density, rng)
            return xy[:0] if density == cfg.lambda_m else xy

        monkeypatch.setattr(se, "sample_ppp", drop)
    trial = run_trial(cfg, 0)
    assert trial.exposure_time == full.exposure_time
    emptied = se._TIERS.index(empty)
    for kind, tiers in se._PAIR_TIERS.items():
        if emptied in tiers:
            assert trial.pairs[kind] == PairCounts(), kind
        else:
            kept, before = trial.pairs[kind], full.pairs[kind]
            assert kept.triggered > 0, kind
            assert (kept.triggered, kept.handovers, kept.failures) == (
                before.triggered, before.handovers, before.failures
            ), kind

def test_run_trial_rejects_negative_index():
    with pytest.raises(ValueError, match="trial_index"):
        run_trial(small_config(), -1)


def test_run_trial_produces_consistent_counts():
    counts = run_trial(small_config(), 0)
    counts.validate()
    assert counts.exposure_time > 0.0
    total = sum(pc.triggered for pc in counts.pairs.values())
    assert total > 0  # dense small-cell tier: some boundary is always crossed


#: ``run_trial(reference_config(0), i)`` for i = 0, 1, 2, recorded when the
#: trajectories moved to their own stream and array draws; on the same
#: trajectories, ``oracles.walk_trajectory_loop`` gives the same counts and
#: the in-order sum of the users' clocks the same exposure.
_REFERENCE_SEED0_TRIALS = (
    (50763.287002096455, (7033, 7024, 139, 19, 138), (28, 28, 4, 0, 4), (21, 21, 0, 0, 0)),
    (51027.151672809254, (5202, 5191, 179, 23, 178), (12, 12, 0, 0, 0), (6, 6, 0, 0, 0)),
    (49042.6506330926, (10292, 10284, 93, 17, 92), (25, 25, 1, 0, 1), (10, 10, 0, 0, 0)),
)


@pytest.mark.parametrize("index", range(3))
def test_run_trial_reproduces_recorded_reference_counts(index):
    exposure, *per_kind = _REFERENCE_SEED0_TRIALS[index]
    assert run_trial(reference_config(0), index) == pinned_counts(exposure, per_kind)


def dense_config() -> SimConfig:
    """Default ratios at lambda_S = 1e-4 on a 10 km square, seed 0: ~20 000
    circle pairs and ~2 500 strongest-RSS queries per trial."""
    return SimConfig.with_default_ratios(
        region=Region(0.0, 10_000.0, 0.0, 10_000.0),
        macro=default_macro_params(),
        small=default_small_params(),
        hotspot=default_hotspot_params(),
        lambda_s=1e-4,
        sigma=150.0,
        mobility=default_mobility(),
        thresholds=default_thresholds(),
        master_seed=0,
    )


#: ``run_trial(dense_config(), i)`` for i = 0, 1 (exposure as ``float.hex``),
#: recorded and checked against the loop oracle as the reference trials are.
_DENSE_SEED0_TRIALS = (
    ("0x1.03086931c673dp+15", (1767, 1478, 1410, 572, 1280), (10779, 10774, 712, 3, 712),
     (917, 819, 739, 79, 700)),
    ("0x1.fcd51ed338f07p+14", (1768, 1499, 1424, 533, 1317), (10605, 10599, 800, 2, 800),
     (948, 819, 777, 121, 727)),
)


def pinned_counts(exposure: float, per_kind) -> EventCounts:
    expected = EventCounts(exposure_time=exposure)
    for kind, (trig, hand, fail, ping, overlap) in zip(se._KIND_ORDER, per_kind):
        expected.pairs[kind] = PairCounts(
            triggered=trig, handovers=hand, failures=fail, pingpongs=ping, overlap=overlap
        )
    return expected


@pytest.mark.parametrize("index", range(2))
def test_run_trial_reproduces_recorded_dense_counts(index):
    exposure, *per_kind = _DENSE_SEED0_TRIALS[index]
    got = run_trial(dense_config(), index)
    assert got.exposure_time.hex() == exposure
    assert got == pinned_counts(float.fromhex(exposure), per_kind)


@pytest.mark.parametrize(
    "name,index", [("reference", 0), ("reference", 1), ("reference", 2), ("dense", 0), ("dense", 1)]
)
def test_pair_scoped_trial_counts_as_the_full_trial_does(name, index):
    # A kind's circles are walked apart from the other kinds' circles, and
    # the association still sees every tier: scoping moves no count.
    cfg = reference_config(0) if name == "reference" else dense_config()
    full = run_trial(cfg, index)
    for kinds in [(kind,) for kind in se._KIND_ORDER] + [(PairKind.SPM, PairKind.SM)]:
        scoped = run_trial(cfg, index, kinds=kinds)
        assert list(scoped.pairs) == [k for k in se._KIND_ORDER if k in kinds]
        for kind, pc in scoped.pairs.items():
            assert dataclasses.asdict(pc) == dataclasses.asdict(full.pairs[kind]), kind
        assert scoped.exposure_time.hex() == full.exposure_time.hex()


@pytest.mark.parametrize("kinds", [(), ("SpS",), (PairKind.SPS, None)], ids=repr)
def test_run_trial_and_campaign_refuse_empty_or_unknown_kinds(kinds):
    with pytest.raises(ValueError, match="kind"):
        run_trial(small_config(), 0, kinds=kinds)
    with pytest.raises(ValueError, match="kind"):
        run_campaign(small_config(), kinds=kinds)


def trial_trajectories(cfg: SimConfig, index: int, kinds=se._KIND_ORDER) -> tuple:
    """``(counts, trajectories, walked)`` of ``run_trial(cfg, index, kinds)``:
    the trajectories recorded through the ``se.generate_trajectory`` hook,
    and the ``(waypoints, velocity, pause)`` that ``se._walk_trajectories``
    received."""
    trajs, walked = [], []
    walk = se._walk_trajectories

    def recording(*args):
        trajs.append(generate_trajectory(*args))
        return trajs[-1]

    def recording_walk(*args):
        walked.extend(args[:3])
        return walk(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(se, "generate_trajectory", recording)
        mp.setattr(se, "_walk_trajectories", recording_walk)
        counts = run_trial(cfg, index, kinds)
    return counts, trajs, tuple(walked)


@pytest.mark.parametrize(
    "name,index", [("reference", 0), ("reference", 1), ("reference", 2), ("dense", 0), ("dense", 1)]
)
def test_exposure_is_measured_from_the_trajectories(name, index):
    # The walk receives the drawn trajectories as one block, with the
    # config's speed and pause.  A user's exposure is their walk clock's end
    # time: travel time plus one pause per movement, accumulated leg by leg
    # in walking order; the users' times are added in user order.
    # Recomputed here from the trajectories the trial draws.
    cfg = reference_config(0) if name == "reference" else dense_config()
    got, trajs, (waypoints, velocity, pause) = trial_trajectories(cfg, index)
    assert len(trajs) == cfg.n_users
    assert waypoints.tobytes() == np.stack([t.waypoints for t in trajs]).tobytes()
    assert waypoints.shape == (cfg.n_users, cfg.n_moves + 1, 2)
    assert (velocity, pause) == (cfg.mobility.velocity, cfg.mobility.pause)
    exposure = 0.0
    for traj in trajs:
        deltas = np.diff(traj.waypoints, axis=0)
        clock = 0.0
        legs = np.hypot(deltas[:, 0], deltas[:, 1]) / cfg.mobility.velocity + cfg.mobility.pause
        for leg in legs.tolist():
            clock += leg
        exposure += clock
    assert got.exposure_time.hex() == exposure.hex()


def test_trajectories_do_not_depend_on_the_deployment():
    # The trajectories draw from their own stream of the trial, so configs
    # that differ only in the small-cell density (which changes how many
    # deployment draws there are), the cluster spread or a tier's transmit
    # power count different events on the same trajectories, byte for byte.
    base = reference_config(0)
    variants = [
        dataclasses.replace(base, lambda_s=3.0 * base.lambda_s),
        dataclasses.replace(base, cluster=dataclasses.replace(base.cluster, sigma=250.0)),
        dataclasses.replace(base, small=dataclasses.replace(base.small, tx_power=24.0)),
    ]
    expected_counts, expected, _ = trial_trajectories(base, 1, (PairKind.SPS,))
    for cfg in variants:
        counts, trajs, _ = trial_trajectories(cfg, 1, (PairKind.SPS,))
        assert counts != expected_counts
        assert [t.waypoints.tobytes() for t in trajs] == [t.waypoints.tobytes() for t in expected]


def sampled_deployment(cfg: SimConfig, trial_index: int) -> tuple:
    """The deployment ``run_trial`` draws, in its draw order:
    ``(macro, small, parents, hotspot, parent_index)``."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, trial_index]))
    macro = sample_ppp(cfg.region, cfg.lambda_m, rng)
    small = sample_ppp(cfg.region, cfg.lambda_s, rng)
    return (macro, small, *sample_tcp(cfg.region, cfg.cluster, rng))


def per_pair_field(cfg, macro, small, parents, hotspot, parent_index) -> tuple:
    """Field columns and skip counts from one pair at a time, serving BSs
    found by brute-force nearest neighbour: `boundary_factors`, then
    `boundary_domain`, then the circle formula of a kept pair."""

    def nearest(points, queries):
        d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    rows, skipped = [], {k: [0, 0] for k in se._KIND_ORDER}
    m_of_small = nearest(macro, small)
    s_of_parent = nearest(small, parents)
    m_of_parent = nearest(macro, parents)
    jobs = [
        (0, cfg.macro, cfg.small, macro[m], small[i], 0, m)
        for i, m in enumerate(m_of_small)
    ]
    for kind_pos, serving, tier_pos, of_parent in (
        (1, (small, cfg.small), 1, s_of_parent),
        (2, (macro, cfg.macro), 0, m_of_parent),
    ):
        for j in range(len(hotspot)):
            b = of_parent[parent_index[j]]
            jobs.append((kind_pos, serving[1], cfg.hotspot, serving[0][b],
                         hotspot[j], tier_pos, b))
    for kind_pos, sp, tp, sxy, txy, tier_pos, b in jobs:
        kind = se._KIND_ORDER[kind_pos]
        d = txy - sxy
        u, u_f = boundary_factors(sp, tp, d[:1], d[1:], cfg.thresholds.q_out)
        degenerate, encloses = boundary_domain(u, u_f)
        if degenerate[0]:
            skipped[kind][0] += 1
            continue
        if encloses[0]:
            skipped[kind][1] += 1
            continue
        norm = np.hypot(d[:1], d[1:])
        h = erb_circle_arrays(d[:1], d[1:], norm, u)
        f = erb_circle_arrays(d[:1], d[1:], norm, u_f)
        rows.append((kind_pos, sxy[0] + h.cx[0], sxy[1] + h.cy[0],
                     h.radius[0] * h.radius[0], sxy[0] + f.cx[0], sxy[1] + f.cy[0],
                     f.radius[0] * f.radius[0], tier_pos, b))
    dtypes = (np.intp, float, float, float, float, float, float, np.intp, np.intp)
    columns = [np.array([r[c] for r in rows], dtype=dt) for c, dt in enumerate(dtypes)]
    return columns, skipped


def _field_configs():
    ref = reference_config(0)
    default = SimConfig.with_default_ratios(
        region=Region(0.0, 3000.0, 0.0, 3000.0),
        macro=default_macro_params(), small=default_small_params(),
        hotspot=default_hotspot_params(), lambda_s=1e-4, sigma=150.0,
        mobility=default_mobility(), thresholds=default_thresholds(), master_seed=5,
    )
    cases = [
        ("reference-0", ref, 0),
        ("reference-1", ref, 1),
        ("default-ratios", default, 0),
        # Hotspot radio equal to the small cells: every SpS pair is degenerate.
        ("hotspot-as-small", dataclasses.replace(default, hotspot=default.small), 0),
        # Hotspot radio equal to the macro tier: SpM pairs are degenerate and
        # SpS circles surround their serving small cell.
        ("hotspot-as-macro", dataclasses.replace(default, hotspot=default.macro), 0),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


# The hotspot-as-small and hotspot-as-macro cases drop every kind of pair: no
# circle formula may meet a degenerate factor on either side.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("label,cfg,index", _field_configs())
def test_circle_field_matches_per_pair_construction(label, cfg, index):
    deployment = sampled_deployment(cfg, index)
    macro, small, parents, hotspot, parent_index = deployment
    tiers = (macro, small, hotspot)
    counts = EventCounts()
    fld = se._build_circle_field(cfg, tiers, parents, parent_index, se._nearest_indexes(tiers), counts)
    columns, skipped = per_pair_field(cfg, *deployment)
    names = [f.name for f in dataclasses.fields(se._CircleField)]
    for name, expected in zip(names, columns):
        got = getattr(fld, name)
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
    for kind in se._KIND_ORDER:
        pc = counts.pairs[kind]
        assert [pc.degenerate_skipped, pc.enclosing_skipped] == skipped[kind], kind
        # A field scoped to one kind holds that kind's rows of the full field.
        scoped = EventCounts.counting((kind,))
        part = se._build_circle_field(
            cfg, tiers, parents, parent_index, se._nearest_indexes(tiers), scoped
        )
        rows = fld.kind_index == se._KIND_ORDER.index(kind)
        for name in names:
            assert getattr(part, name).tobytes() == getattr(fld, name)[rows].tobytes(), name
        degenerate, enclosing = skipped[kind]
        assert scoped.pairs == {
            kind: PairCounts(degenerate_skipped=degenerate, enclosing_skipped=enclosing)
        }
    if label == "hotspot-as-small":
        assert skipped[PairKind.SPS][0] == len(hotspot) > 0
    if label == "hotspot-as-macro":
        assert skipped[PairKind.SPM][0] > 0 and skipped[PairKind.SPS][1] > 0


def _nesting_configs() -> list:
    sweep = load_config(Path(__file__).resolve().parent.parent / "demos" / "sigma_sweep.ini")
    cases = [("reference", reference_config(0)), ("dense", dense_config())] + [
        (f"sigma-{v:g}", apply_sweep(sweep.base, "sigma", v)) for v in sweep.sweep_values
    ]
    return [pytest.param(cfg, id=label) for label, cfg in cases]


@pytest.mark.parametrize("cfg", _nesting_configs())
def test_failure_circle_lies_inside_handover_circle(cfg):
    # The broad-phase boxes bound the handover circle alone, which covers the
    # failure circle only while the two are nested.
    for index in range(3):
        macro, small, parents, hotspot, parent_index = sampled_deployment(cfg, index)
        tiers = (macro, small, hotspot)
        fld = se._build_circle_field(
            cfg, tiers, parents, parent_index, se._nearest_indexes(tiers), EventCounts()
        )
        assert fld.n > 0
        r_h, r_f = np.sqrt(fld.r2_h), np.sqrt(fld.r2_f)
        scale = np.abs(fld.cx_h) + np.abs(fld.cy_h) + r_h
        excess = np.hypot(fld.cx_f - fld.cx_h, fld.cy_f - fld.cy_h) + r_f - r_h
        assert np.all(excess <= 1e-9 * scale), excess.max()


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def two_hand_trials():
    t1 = EventCounts(exposure_time=100.0)
    t1.pairs[PairKind.SM] = PairCounts(triggered=4, handovers=2, failures=1, pingpongs=1)
    t2 = EventCounts(exposure_time=300.0)
    t2.pairs[PairKind.SM] = PairCounts(triggered=6, handovers=3, failures=0, pingpongs=1)
    return [t1, t2]


def test_summarize_pooled_rates_hand_check():
    # A third trial without triggers enters H_f as (0, 0): it leaves the
    # pooled failure ratio as it is but counts toward its half-width.
    est = summarize_trials([*two_hand_trials(), EventCounts(exposure_time=200.0)])
    sm = est.pairs[PairKind.SM]
    assert sm.rates.pair is PairKind.SM
    assert sm.rates.triggered_rate == 10 / 600.0
    assert sm.rates.handover_rate == 5 / 600.0
    assert sm.rates.failure_rate == 1 / 10
    assert sm.rates.pingpong_rate == 2 / 600.0
    # Half-widths of the ratio estimator, in METRICS order:
    # 1.96 sqrt(sum (y_i - R x_i)^2 / (n (n - 1))) / mean(x).
    assert [name for name, _ in METRICS] == ["H_t", "H", "H_f", "H_p"]

    def halfwidth(y, x):
        r, n = sum(y) / sum(x), len(y)
        spread = sum((a - r * b) ** 2 for a, b in zip(y, x))
        return 1.96 * math.sqrt(spread / (n * (n - 1))) / (sum(x) / n)

    exposure = [100.0, 300.0, 200.0]
    assert sm.halfwidths == pytest.approx((
        halfwidth([4, 6, 0], exposure),
        halfwidth([2, 3, 0], exposure),
        halfwidth([1, 0, 0], [4, 6, 0]),
        halfwidth([1, 1, 0], exposure),
    ), rel=1e-12)
    # By hand for H_f: R = 0.1, residuals 0.6, -0.6 and 0, mean trigger 10/3.
    assert sm.halfwidths[2] == pytest.approx(1.96 * math.sqrt(0.72 / 6) / (10 / 3), rel=1e-12)
    assert est.n_trials == 3
    assert est.counts.exposure_time == 600.0


def test_summarize_rejects_empty_and_zero_exposure():
    with pytest.raises(ValueError, match="no trials"):
        summarize_trials([])
    with pytest.raises(ValueError, match="exposure"):
        summarize_trials([EventCounts()])


def test_summarize_single_trial_has_nan_halfwidths():
    t = EventCounts(exposure_time=100.0)
    t.pairs[PairKind.SM] = PairCounts(triggered=4, handovers=2)
    est = summarize_trials([t])
    sm = est.pairs[PairKind.SM]
    assert sm.rates.triggered_rate == pytest.approx(0.04)
    assert math.isnan(sm.halfwidths[0])
    assert math.isnan(sm.halfwidths[2])


def test_summarize_failure_ratio_nan_without_triggers():
    t1 = EventCounts(exposure_time=100.0)
    t2 = EventCounts(exposure_time=100.0)
    est = summarize_trials([t1, t2])
    assert math.isnan(est.pairs[PairKind.SM].rates.failure_rate)


def test_summarize_scoped_counts_reports_only_the_counted_kinds():
    t = EventCounts.counting((PairKind.SPM,))
    t.exposure_time = 100.0
    t.pairs[PairKind.SPM] = PairCounts(triggered=4, handovers=2)
    est = summarize_trials([t, t])
    assert list(est.pairs) == list(est.counts.pairs) == [PairKind.SPM]
    assert est.pairs[PairKind.SPM].rates.triggered_rate == pytest.approx(0.04)
    assert est.counts.exposure_time == 200.0
    with pytest.raises(ValueError, match="pair kinds"):
        summarize_trials([t, EventCounts(exposure_time=100.0)])


def test_halfwidth_shrinks_with_more_trials():
    base = two_hand_trials()
    est2 = summarize_trials(base)
    est8 = summarize_trials(base * 4)
    assert (
        est8.pairs[PairKind.SM].halfwidths[0]
        < est2.pairs[PairKind.SM].halfwidths[0]
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_summarize_nan_paths_divide_nothing_by_zero():
    # NumPy warns on 0/0; every NaN here must come from a check instead.
    def trial(**sps):
        t = EventCounts.counting((PairKind.SPS,))
        t.exposure_time = 100.0
        t.pairs[PairKind.SPS] = PairCounts(**sps)
        return t

    one = summarize_trials([trial(triggered=4, failures=1)]).pairs[PairKind.SPS]
    assert one.rates.failure_rate == 0.25
    assert all(math.isnan(h) for h in one.halfwidths)

    sparse = summarize_trials([trial(triggered=4, failures=1), trial(triggered=2), trial()])
    sps = sparse.pairs[PairKind.SPS]
    assert sps.rates.failure_rate == 1 / 6
    # Residuals 1/3, -1/3 and 0 over a mean trigger count of 2.
    assert sps.halfwidths[2] == pytest.approx(1.96 * math.sqrt(2 / 9 / 6) / 2, rel=1e-12)

    never = summarize_trials([trial(), trial()]).pairs[PairKind.SPS]
    assert [never.rates.triggered_rate, never.halfwidths[0]] == [0.0, 0.0]
    assert math.isnan(never.rates.failure_rate) and math.isnan(never.halfwidths[2])


def test_summarize_halfwidths_cover_known_rates():
    # Synthetic campaigns of 50 trials: triggers are Poisson over uniform
    # random exposures, handovers and failures binomial per trigger and
    # ping-pongs Poisson.  Each metric's 95% interval must cover its true
    # value in 93-97% of campaigns; the normal interval at 50 trials covers
    # about 94%.  Half-widths from the spread of per-trial ratios cover over
    # 97% of these campaigns, as unequal exposures widen that spread.
    rng = np.random.default_rng(0)
    campaigns, n = 2000, 50
    rate, p_handover, p_failure, rate_pingpong = 0.2, 0.9, 0.2, 0.05
    exposure = rng.uniform(10.0, 190.0, size=(campaigns, n))
    triggered = rng.poisson(rate * exposure)
    counts = np.stack([
        triggered,
        rng.binomial(triggered, p_handover),
        rng.binomial(triggered, p_failure),
        rng.poisson(rate_pingpong * exposure),
    ], axis=-1)
    truth = np.array([rate, rate * p_handover, p_failure, rate_pingpong])
    covered = np.zeros(len(METRICS))
    for times, rows in zip(exposure.tolist(), counts.tolist()):
        trials = [
            EventCounts(pairs={PairKind.SPS: PairCounts(*row)}, exposure_time=t)
            for t, row in zip(times, rows)
        ]
        est = summarize_trials(trials).pairs[PairKind.SPS]
        rates = np.array([getattr(est.rates, name) for _, name in METRICS])
        covered += np.abs(rates - truth) <= est.halfwidths
    coverage = covered / campaigns
    assert np.all((coverage >= 0.93) & (coverage <= 0.97)), coverage


def test_pair_estimate_rejects_negative_rates():
    # A campaign's rates are a HandoverMetrics, checked by its invariants.
    with pytest.raises(ValueError, match="triggered_rate"):
        PairEstimate(
            rates=HandoverMetrics(
                pair=PairKind.SM, triggered_rate=-1.0, handover_rate=0.0,
                failure_rate=0.0, pingpong_rate=0.0,
            ),
            halfwidths=(0.0, 0.0, 0.0, 0.0),
        )
    # NaN entries are legitimate (single-trial half-widths, 0/0 ratios).
    PairEstimate(
        rates=HandoverMetrics(
            pair=PairKind.SM, triggered_rate=0.0, handover_rate=0.0,
            failure_rate=math.nan, pingpong_rate=0.0,
        ),
        halfwidths=(math.nan,) * 4,
    )


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def test_campaign_worker_count_does_not_change_results():
    cfg = small_config(n_trials=4)
    for kinds in (se._KIND_ORDER, (PairKind.SPS,)):
        serial = run_campaign(cfg, workers=1, kinds=kinds)
        parallel = run_campaign(cfg, workers=2, kinds=kinds)
        assert list(serial.pairs) == list(parallel.counts.pairs) == list(kinds)
        assert serial.counts == parallel.counts
        assert (serial.n_trials, serial.counts.exposure_time) == (
            parallel.n_trials, parallel.counts.exposure_time
        )
        for kind in serial.pairs:
            # Bitwise equal, NaN half-widths included.
            np.testing.assert_array_equal(
                [*dataclasses.astuple(serial.pairs[kind].rates)[1:], *serial.pairs[kind].halfwidths],
                [*dataclasses.astuple(parallel.pairs[kind].rates)[1:],
                 *parallel.pairs[kind].halfwidths],
            )


def test_campaign_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="workers"):
        run_campaign(small_config(), workers=0)


def test_campaign_workers_bounded_by_trial_count(monkeypatch):
    # A fork-based pool starts every worker up front, so the pool must not
    # be larger than the campaign.  The recorder runs the trials inline.
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(se, "ProcessPoolExecutor", InlinePool)
    estimate = run_campaign(small_config(n_trials=2), workers=5000)
    assert started == [2]
    assert estimate.n_trials == 2
    run_campaign(small_config(n_trials=1), workers=5000)
    assert started == [2]  # one trial runs in-process: no pool at all



@pytest.mark.parametrize("error", [OSError, PermissionError])
def test_campaign_falls_back_to_one_worker_without_a_process_pool(monkeypatch, error):
    # A sandbox that forbids the pool's semaphores or processes refuses the
    # pool with an OSError (PermissionError is one); the campaign then runs
    # its trials in-process, with the same counts.
    class NoPool:
        def __init__(self, max_workers):
            raise error("no process pool here")

    cfg = small_config(n_trials=2)
    serial = run_campaign(cfg, workers=1)
    monkeypatch.setattr(se, "ProcessPoolExecutor", NoPool)
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        fallback = run_campaign(cfg, workers=2)
    assert fallback.counts == serial.counts

def test_kdtree_class_is_a_deferred_patchable_attribute(monkeypatch):
    # The benchmark's span tracer subclasses `simengine.cKDTree`, so it still
    # reads as the class; scipy.spatial loads on that first read, in a fresh
    # interpreter ...
    code = (
        "import sys; from hetnet_handover import simengine as se; "
        "cold = 'scipy.spatial' not in sys.modules; "
        "from scipy.spatial import cKDTree; print(cold, se.cKDTree is cKDTree)"
    )
    assert fresh_python(code) == "True True\n"
    with pytest.raises(AttributeError, match="no_such_name"):
        se.no_such_name
    # ... yet a trial reads no KD-tree: it builds one nearest-BS index per
    # tier, all through `_nearest_indexes`.
    def no_kdtree(*args):
        raise AssertionError("a trial built a KD-tree")

    built = []
    nearest_indexes = se._nearest_indexes

    def recording(tiers):
        built.append([len(xy) for xy in tiers])
        return nearest_indexes(tiers)

    monkeypatch.setattr(se, "cKDTree", no_kdtree)
    monkeypatch.setattr(se, "_nearest_indexes", recording)
    run_trial(reference_config(0), 0)
    assert len(built) == 1
    assert len(built[0]) == len(se._TIERS) and min(built[0]) > 0


def test_campaign_csv_shape():
    cfg = small_config(n_trials=2, n_users=1, n_moves=10)
    for kind in (PairKind.SM, PairKind.SPS, PairKind.SPM):
        text = cmd_simulate(ExperimentSpec(base=cfg, pair=kind))
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[2].split(",")[0] == kind.value
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Analytic side-by-side
# ---------------------------------------------------------------------------

def test_analytic_metrics_match_pinned_reference():
    cfg = reference_config()
    rate = analytic_metrics(cfg)[PairKind.SPS].triggered_rate
    pinned = pin("analytic_triggered_rate_sps_reference")
    assert rate == pytest.approx(pinned, rel=1e-12)


#: Refusals of ``analytic_pair_metrics``, recorded before the boundary
#: factors moved to Python floats: the hotspot tier at the small-cell power
#: (SpS bisector), the hotspot tier with the macro radio (SpS circle around
#: the serving BS, SpM bisector) and a 90 dBm small tier (SM circle around
#: the serving BS).
DOMAIN_ERROR_PIN = (
    ("small_power_hotspot", PairKind.SPS, DegenerateBoundaryError,
     "SpS pair, tiers [hotspot] and [small]: equal-RSS boundary is a perpendicular bisector "
     "(lam*xi == 1); no circular approximation exists; keep the biased RSS of [hotspot] below "
     "that of [small] by changing tx_power_dbm, antenna_gain_dbi, bias_db or the path loss in "
     "[hotspot] or [small]"),
    ("macro_radio_hotspot", PairKind.SPS, ValueError,
     "SpS pair, tiers [hotspot] and [small]: the handover circle at the mean pair distance "
     "encloses the serving BS (lam_star * xi = 65.89222183907846 > 1); keep the biased RSS of "
     "[hotspot] below that of [small] by changing tx_power_dbm, antenna_gain_dbi, bias_db or "
     "the path loss in [hotspot] or [small]"),
    ("macro_radio_hotspot", PairKind.SPM, DegenerateBoundaryError,
     "SpM pair, tiers [hotspot] and [macro]: equal-RSS boundary is a perpendicular bisector "
     "(lam*xi == 1); no circular approximation exists; keep the biased RSS of [hotspot] below "
     "that of [macro] by changing tx_power_dbm, antenna_gain_dbi, bias_db or the path loss in "
     "[hotspot] or [macro]"),
    ("strong_small", PairKind.SM, ValueError,
     "SM pair, tiers [small] and [macro]: the handover circle at the mean pair distance "
     "encloses the serving BS (lam_star * xi = 28.083474953318767 > 1); keep the biased RSS of "
     "[small] below that of [macro] by changing tx_power_dbm, antenna_gain_dbi, bias_db or the "
     "path loss in [small] or [macro]"),
)


def test_analytic_domain_error_text_pinned():
    base = reference_config(0)
    configs = {
        "small_power_hotspot": dataclasses.replace(
            base, hotspot=dataclasses.replace(base.hotspot, tx_power=base.small.tx_power)
        ),
        "macro_radio_hotspot": dataclasses.replace(base, hotspot=base.macro),
        "strong_small": dataclasses.replace(
            base, small=dataclasses.replace(base.small, tx_power=90.0)
        ),
    }
    for name, kind, exc_type, text in DOMAIN_ERROR_PIN:
        with pytest.raises(exc_type) as info:
            se.analytic_pair_metrics(configs[name], kind)
        assert str(info.value) == text, (name, kind)


def test_analytic_metrics_structure():
    out = analytic_metrics(small_config())
    assert set(out) == {PairKind.SM, PairKind.SPS, PairKind.SPM}
    for metrics in out.values():
        assert metrics.triggered_rate > 0.0
        assert 0.0 < metrics.handover_rate <= metrics.triggered_rate
        assert metrics.failure_rate >= 0.0
        assert metrics.pingpong_rate >= 0.0


def test_compare_rows_cover_every_pair_and_metric():
    # validate writes one record per pair and metric as a CSV row.
    cfg = small_config(n_trials=2, n_users=1, n_moves=10)
    csv_text, summary = cmd_validate(ExperimentSpec(base=cfg))
    header, *lines = csv_text.splitlines()[1:]
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 12
    seen = [(r["pair"], r["metric"]) for r in rows]
    assert seen == [
        (k.value, m)
        for k in (PairKind.SM, PairKind.SPS, PairKind.SPM)
        for m in ("H_t", "H", "H_f", "H_p")
    ]
    for r in rows:
        assert r["flag"] == ""  # no agreement criterion is defined yet
        analytic, simulated = float(r["analytic"]), float(r["simulated"])
        if analytic > 0 and not math.isnan(simulated):
            assert float(r["ratio"]) == pytest.approx(simulated / analytic)
        elif analytic <= 0:
            assert math.isnan(float(r["ratio"]))

    assert "pair" in summary and "sim/ana" in summary

