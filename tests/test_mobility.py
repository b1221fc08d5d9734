"""Waypoint mobility: transition law, region clamping, trajectory bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnet_handover import simengine as se
from hetnet_handover.analytics import movement_time_per_meter
from hetnet_handover.fixtures import default_thresholds
from hetnet_handover.geometry import Region
from hetnet_handover.mobility import (
    MobilityConfig,
    Trajectory,
    generate_trajectory,
    mean_transition_length,
)

from oracles import mrwp_waypoints_loop, strip_occupancy


def _cfg(**kw) -> MobilityConfig:
    base = dict(sigma_rwp=300.0, p_z=0.3, sigma_z=300.0, velocity=60.0 / 3.6, pause=5.0)
    base.update(kw)
    return MobilityConfig(**base)


REGION = Region(0.0, 5000.0, 0.0, 5000.0)


def _legs(traj: Trajectory) -> np.ndarray:
    """Length of each movement of ``traj``."""
    deltas = np.diff(traj.waypoints, axis=0)
    return np.hypot(deltas[:, 0], deltas[:, 1])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _cfg(sigma_rwp=0.0)
        with pytest.raises(ValueError):
            _cfg(p_z=-0.1)
        with pytest.raises(ValueError):
            _cfg(p_z=1.1)
        with pytest.raises(ValueError):
            _cfg(velocity=0.0)
        with pytest.raises(ValueError):
            _cfg(pause=-1.0)
        with pytest.raises(ValueError):
            _cfg(sigma_z=0.0)

    def test_pure_random_waypoint_allows_zero_mixture(self):
        cfg = _cfg(p_z=0.0)
        assert cfg.p_z == 0.0


class TestTransitionLength:
    def test_mean_formula(self):
        cfg = _cfg()
        expected = math.sqrt(math.pi / 2.0) * (300.0 + 0.3 * 300.0)
        assert mean_transition_length(cfg) == pytest.approx(expected, rel=1e-12)

    def test_empirical_mean_matches(self):
        # In a region far wider than the walk's spread no move is clamped,
        # so the segment lengths are the drawn transition lengths.
        cfg = _cfg()
        side = 1e8
        traj = generate_trajectory(
            np.array([side / 2, side / 2]), 50_000, Region(0.0, side, 0.0, side),
            cfg, np.random.default_rng(11),
        )
        lengths = _legs(traj)
        assert lengths.mean() == pytest.approx(mean_transition_length(cfg), rel=0.01)

    def test_movement_time_includes_pause(self):
        cfg = _cfg()
        expected = mean_transition_length(cfg) / cfg.velocity + cfg.pause
        per_movement = movement_time_per_meter(cfg) * mean_transition_length(cfg)
        assert per_movement == pytest.approx(expected, rel=1e-12)


class ScriptedDraws:
    """A generator stand-in whose ``rayleigh`` and ``random`` return fixed
    values in order, whatever the scale: the next value, or an array of the
    next ``size`` values for a sized draw."""

    def __init__(self, lengths, turns) -> None:
        self.lengths = list(lengths)
        self.turns = list(turns)

    @staticmethod
    def _take(values: list, size):
        if size is None:
            return values.pop(0)
        taken = np.array(values[:size])
        del values[:size]
        return taken

    def rayleigh(self, scale, size=None):
        return self._take(self.lengths, size)

    def random(self, size=None):
        return self._take(self.turns, size)


def scripted_move(start, lengths, turns) -> tuple:
    """``(segment length, end point, stub)`` of one move from ``start`` when
    the walk draws the transition ``lengths`` and the direction ``turns``
    (fractions of a full turn), one pair per attempt: the first pair as the
    move's sized draws, any further pair as a redraw's scalar draws;
    ``p_z = 0``, so no coin is drawn."""
    draws = ScriptedDraws(lengths, turns)
    traj = generate_trajectory(np.array(start), 1, REGION, _cfg(p_z=0.0), draws)
    return float(_legs(traj)[0]), traj.waypoints[1], draws


class TestClamp:
    """The slab clamp of a move, driven through ``generate_trajectory``."""

    def test_unobstructed_keeps_length(self):
        length, _, _ = scripted_move([2500.0, 2500.0], [100.0], [0.0])
        assert length == pytest.approx(100.0)

    def test_wall_hit_truncates(self):
        length, end, _ = scripted_move([4900.0, 2500.0], [500.0], [0.0])
        assert length == pytest.approx(100.0)
        assert end[0] == 5000.0  # snapped onto the wall

    def test_diagonal_corner(self):
        # A turn of 1/8 heads along the diagonal: x wall at 100/cos(45)
        # ~ 141.42; y wall at 200/cos(45) ~ 282.84.
        length, _, _ = scripted_move([4900.0, 4800.0], [1e4], [0.125])
        assert length == pytest.approx(100.0 * math.sqrt(2.0))

    def test_not_shorter_than_needed(self):
        # From the corner (0, 0) heading in -x the clamped step is 0, so the
        # move is redrawn: the waypoint comes from the second, scalar draw
        # (50 m in +y), and both scripted draws are consumed.
        length, end, draws = scripted_move([0.0, 0.0], [50.0, 50.0], [0.5, 0.25])
        assert length == pytest.approx(50.0)
        assert end == pytest.approx([0.0, 50.0])
        assert draws.lengths == [] and draws.turns == []


class TestNextWaypoint:
    """Every waypoint a trajectory draws stays inside the closed region."""

    def test_inside_closed_region(self):
        traj = generate_trajectory(
            np.array([2500.0, 2500.0]), 2000, REGION, _cfg(), np.random.default_rng(12)
        )
        assert np.all(REGION.contains(traj.waypoints))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stays_inside_from_boundary_starts(self, seed):
        cfg = _cfg(sigma_rwp=2000.0, sigma_z=2000.0)  # long hops stress the walls
        start = np.array([0.0, 5000.0])  # a corner
        traj = generate_trajectory(start, 30, REGION, cfg, np.random.default_rng(seed))
        assert np.all(REGION.contains(traj.waypoints))
        assert np.all(_legs(traj) > 0)

    def test_region_without_a_long_enough_move_refused(self):
        # The shortest move is 64 ulps of the largest |coordinate|: 5.8e-11 m
        # at 5 km and 7.5e-9 m at 1e6 m.  A base scale at it is refused even
        # where the extension alone could carry the walk, and so is a region
        # with a side of at most twice it: a 5e-9 m square at 1e6 m, and a
        # 5 km strip 1e-13 m high, where only directions within ~2e-3 rad of
        # its length reach beyond the shortest move although half its
        # diagonal is 2.5 km.
        shortest = 64 * math.ulp(5000.0)
        far = Region(1e6, 1e6 + 5e-9, -1e6 - 5e-9, -1e6)
        strip = Region(0.0, 5000.0, 0.0, 1e-13)
        for region, cfg in ((REGION, _cfg(sigma_rwp=shortest)),
                            (REGION, _cfg(sigma_rwp=1e-300, p_z=1.0)),
                            (far, _cfg()),
                            (strip, _cfg())):
            start = np.array([region.x_min, region.y_min])
            with pytest.raises(ValueError, match=r"^\[mobility\] sigma_rwp_m = .* and \[region\]"):
                generate_trajectory(start, 1, region, cfg, np.random.default_rng(1))
        traj = generate_trajectory(
            np.zeros(2), 50, REGION, _cfg(sigma_rwp=2.0 * shortest, p_z=0.0),
            np.random.default_rng(1),
        )
        assert np.all(_legs(traj) > shortest)

    def test_smallest_walkable_region_walks(self):
        # The floor is relative: a 5e-10 m square at the origin resolves
        # moves of 64 ulps of 5e-10 m (6.6e-24 m), and every leg is longer.
        square = Region(0.0, 5e-10, 0.0, 5e-10)
        for start in ([2.5e-10, 2.5e-10], [0.0, 0.0]):
            traj = generate_trajectory(
                np.array(start), 20, square, _cfg(), np.random.default_rng(2)
            )
            assert np.all(square.contains(traj.waypoints))
            assert np.all(_legs(traj) > 64 * math.ulp(5e-10))

    def test_outside_current_rejected(self):
        rng = np.random.default_rng(3)
        for outside in ([-1.0, 2500.0], [2500.0, 5000.5]):
            with pytest.raises(ValueError, match="outside the region"):
                generate_trajectory(np.array(outside), 1, REGION, _cfg(), rng)


#: ``generate_trajectory`` from the corner (0, 5000) of REGION, 8 moves with
#: long hops (sigma_rwp = sigma_z = 2000 m), seed 21, as ``float.hex`` pairs,
#: and the generator's next ``random()`` after it.  Recorded from
#: ``oracles.mrwp_waypoints_loop``, which replays the documented draw order
#: one move at a time.  Starting on walls, its 8 moves take 8 redraws.
_PINNED_CORNER_TRAJECTORY = (
    ("0x0.0p+0", "0x1.3880000000000p+12"),
    ("0x1.65b7debcb2d2bp+10", "0x1.1e00fd87686e5p+12"),
    ("0x1.220c8b54c543dp+10", "0x1.3880000000000p+12"),
    ("0x0.0p+0", "0x1.1fd27a5500974p+12"),
    ("0x1.5c2ac0a24aed5p+11", "0x1.83a4fd8ebdfc8p+11"),
    ("0x0.0p+0", "0x1.065d75e063b73p+12"),
    ("0x1.3880000000000p+12", "0x1.06e26a2efca19p+12"),
    ("0x1.354c61879d713p+12", "0x1.3880000000000p+12"),
    ("0x1.14b2249b9d1c7p+12", "0x1.7d5d4584e9589p+11"),
)
_PINNED_NEXT_DRAW = "0x1.3a51dbf777c38p-4"


class TestStream:
    def test_pinned_corner_trajectory(self):
        cfg = _cfg(sigma_rwp=2000.0, sigma_z=2000.0)
        rng, replay = np.random.default_rng(21), np.random.default_rng(21)
        start = np.array([0.0, 5000.0])
        traj = generate_trajectory(start, 8, REGION, cfg, rng)
        got = tuple((x.hex(), y.hex()) for x, y in traj.waypoints.tolist())
        assert got == _PINNED_CORNER_TRAJECTORY
        expected = mrwp_waypoints_loop(start, 8, REGION, cfg, replay)
        assert traj.waypoints.tobytes() == expected.tobytes()
        assert rng.random().hex() == replay.random().hex() == _PINNED_NEXT_DRAW

    @pytest.mark.parametrize("p_z", [0.0, 0.3, 1.0])
    def test_one_call_consumes_exactly_its_documented_draws(self, p_z):
        # In a region far wider than the walk no move is clamped or redrawn:
        # the call leaves the generator where its sized draws do.
        cfg = _cfg(p_z=p_z)
        side = 1e8
        rng, replay = np.random.default_rng(31), np.random.default_rng(31)
        wide = Region(0.0, side, 0.0, side)
        generate_trajectory(np.array([side / 2, side / 2]), 40, wide, cfg, rng)
        replay.rayleigh(cfg.sigma_rwp, 40)
        if p_z > 0:
            replay.rayleigh(cfg.sigma_z, np.count_nonzero(replay.random(40) < p_z))
        replay.random(40)
        assert rng.bit_generator.state == replay.bit_generator.state

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_move_by_move_oracle(self, seed):
        # From a corner with long hops many moves clamp and some redraw; the
        # waypoints and the generator state after the call match the oracle.
        cfg = _cfg(sigma_rwp=2000.0, sigma_z=2000.0)
        start = np.array([0.0, 5000.0])
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        traj = generate_trajectory(start, 30, REGION, cfg, rng)
        expected = mrwp_waypoints_loop(start, 30, REGION, cfg, replay)
        assert traj.waypoints.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == replay.bit_generator.state


class TestTrajectory:
    def test_shapes_and_time(self):
        cfg = _cfg()
        rng = np.random.default_rng(13)
        start = np.array([2500.0, 2500.0])
        traj = generate_trajectory(start, 40, REGION, cfg, rng)
        assert traj.waypoints.shape == (41, 2)
        assert np.all(REGION.contains(traj.waypoints))
        lengths = _legs(traj)
        assert lengths.shape == (40,)
        assert np.all(lengths > 0)
        # The simulator's exposure: travel time plus one pause per movement.
        no_circles = se._CircleField(
            np.empty(0, dtype=np.intp), *[np.empty(0)] * 6, *[np.empty(0, dtype=np.intp)] * 2
        )
        counts = se.EventCounts()
        se._walk_trajectories(
            traj.waypoints[None], cfg.velocity, cfg.pause, no_circles, None,
            default_thresholds(), counts,
        )
        assert counts.exposure_time == pytest.approx(
            lengths.sum() / cfg.velocity + 40 * cfg.pause
        )

    def test_deterministic_given_seed(self):
        cfg = _cfg()
        start = np.array([100.0, 100.0])
        t1 = generate_trajectory(start, 20, REGION, cfg, np.random.default_rng(9))
        t2 = generate_trajectory(start, 20, REGION, cfg, np.random.default_rng(9))
        assert np.array_equal(t1.waypoints, t2.waypoints)

    def test_outside_start_rejected(self):
        with pytest.raises(ValueError, match="outside the region"):
            generate_trajectory(np.array([5000.0, -0.1]), 5, REGION, _cfg(), np.random.default_rng(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(waypoints=np.zeros((1, 2)))  # need at least one move
        with pytest.raises(ValueError, match="n_moves"):
            generate_trajectory(np.array([100.0, 100.0]), 0, REGION, _cfg(), np.random.default_rng(4))


class TestOccupancy:
    def test_boundary_mixture_raises_strip_occupancy(self):
        # Same seed with and without the boundary-biased length extension:
        # extended hops clamp to the walls more often, so the mixture puts
        # more waypoint mass in narrow border strips.  (The full-size check
        # lives in the acceptance suite; this is a fast scaled-down version.)
        occ = {}
        for p_z in (0.0, 0.3):
            cfg = _cfg(p_z=p_z)
            rng = np.random.default_rng(42)
            trajs = [
                generate_trajectory(
                    REGION.sample_uniform(1, rng)[0], 500, REGION, cfg, rng
                )
                for _ in range(30)
            ]
            occ[p_z] = strip_occupancy(trajs, REGION, 0.05)
        assert occ[0.3] > occ[0.0]
