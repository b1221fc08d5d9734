"""RSS model and boundary-circle geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnet_handover.fixtures import (
    default_macro_params,
    default_small_params,
    fixture_value,
)
from hetnet_handover.geometry import TIER_MACRO, TIER_SMALL, PointSet
from hetnet_handover.radio import (
    Circle,
    DegenerateBoundaryError,
    ErbPair,
    TierRadioParams,
    dl_rss,
    erb_circle,
    lambda_star,
    make_erb_pair,
    xi_factor,
    xi_failure_factor,
)

from oracles import serving_bs


def _tier(p_dbm: float, alpha: float, gain: float = 0.0, bias: float = 0.0):
    return TierRadioParams(
        tx_power=p_dbm,
        antenna_gain=gain,
        bias=bias,
        pathloss_intercept=1.0,
        pathloss_exponent=alpha,
    )


class TestTierRadioParams:
    def test_prefactor_matches_manual_arithmetic(self):
        t = TierRadioParams(
            tx_power=46.0,
            antenna_gain=14.0,
            bias=0.0,
            pathloss_intercept=10.0 ** (-1.53),
            pathloss_exponent=3.76,
        )
        manual = 10.0 ** ((46.0 - 30.0) / 10.0) * 10.0 ** (14.0 / 10.0) * 10.0 ** (-1.53)
        assert t.linear_prefactor == pytest.approx(manual, rel=1e-12)

    def test_macro_pathloss_at_1km_is_128_1_db(self):
        macro = default_macro_params()
        pl_db = -10.0 * math.log10(
            macro.pathloss_intercept * 1000.0 ** (-macro.pathloss_exponent)
        )
        assert pl_db == pytest.approx(128.1, abs=1e-9)

    def test_small_pathloss_at_1km_is_140_7_db(self):
        small = default_small_params()
        pl_db = -10.0 * math.log10(
            small.pathloss_intercept * 1000.0 ** (-small.pathloss_exponent)
        )
        assert pl_db == pytest.approx(140.7, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            _tier(30.0, alpha=2.0)
        with pytest.raises(ValueError):
            TierRadioParams(30.0, 0.0, 0.0, pathloss_intercept=0.0, pathloss_exponent=4.0)


class TestRss:
    def test_decreasing_in_distance(self):
        t = _tier(30.0, 3.67)
        d = np.linspace(10.0, 1000.0, 50)
        rss = dl_rss(t, d)
        assert np.all(np.diff(rss) < 0)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            dl_rss(_tier(30.0, 3.67), 0.0)


class TestXiFactors:
    def test_pinned_6db_alpha4(self):
        serving = _tier(30.0, 4.0)
        target = _tier(24.0, 4.0)
        assert xi_factor(serving, target) == pytest.approx(
            fixture_value("xi_6db_alpha4"), rel=1e-12
        )

    def test_pinned_failure_scale(self):
        scale = xi_failure_factor(1.0, 10.0 ** (-0.3), 3.67)
        assert scale == pytest.approx(
            fixture_value("xi_failure_scale_3db_alpha367"), rel=1e-12
        )

    def test_failure_factor_shrinks_xi(self):
        assert xi_failure_factor(0.7, 0.5, 3.67) < 0.7

    def test_invalid_q_out(self):
        with pytest.raises(ValueError):
            xi_failure_factor(0.7, 0.0, 3.67)

    def test_lambda_star_equal_exponents_is_one(self):
        assert lambda_star(np.array([123.0, -45.0]), 1.0) == 1.0

    def test_lambda_star_origin_rejected(self):
        with pytest.raises(ValueError):
            lambda_star(np.array([0.0, 0.0]), 0.9)


def _boundary_points(circle: Circle, n: int = 360) -> np.ndarray:
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return circle.center + circle.radius * np.stack(
        [np.cos(ang), np.sin(ang)], axis=1
    )


class TestErbCircle:
    def test_equal_exponent_boundary_is_exact(self):
        # Apollonius case: biased RSS of serving and target agree everywhere
        # on the circle when the exponents match.
        serving = _tier(30.0, 3.67, gain=5.0, bias=4.0)
        target = _tier(24.0, 3.67, gain=5.0, bias=4.0)
        pos = np.array([210.0, -140.0])
        pair = make_erb_pair(serving, target, pos, q_out_linear=10.0 ** (-0.3))
        pts = _boundary_points(pair.handover_circle)
        rss_serving = dl_rss(serving, np.linalg.norm(pts, axis=1))
        rss_target = dl_rss(target, np.linalg.norm(pts - pos, axis=1))
        assert np.max(np.abs(rss_serving - rss_target) / rss_serving) < 1e-9

    def test_failure_circle_nested_inside_handover_circle(self):
        serving = _tier(30.0, 3.67)
        target = _tier(24.0, 3.67)
        pair = make_erb_pair(
            serving, target, np.array([300.0, 0.0]), q_out_linear=10.0 ** (-0.3)
        )
        h, f = pair.handover_circle, pair.failure_circle
        center_gap = float(np.linalg.norm(h.center - f.center))
        assert center_gap + f.radius <= h.radius + 1e-9
        assert f.radius < h.radius

    def test_weaker_target_circle_covers_target_not_serving(self):
        pair = make_erb_pair(
            _tier(30.0, 3.67), _tier(24.0, 3.67), np.array([300.0, 0.0]), 0.5
        )
        c = pair.handover_circle
        assert not c.encloses_serving
        assert c.contains(np.array([300.0, 0.0]))
        assert not c.contains(np.array([0.0, 0.0]))

    def test_stronger_target_circle_encloses_serving(self):
        pair = make_erb_pair(
            _tier(24.0, 3.67), _tier(30.0, 3.67), np.array([300.0, 0.0]), 0.5
        )
        c = pair.handover_circle
        assert c.encloses_serving
        assert c.contains(np.array([0.0, 0.0]))
        assert not c.contains(np.array([300.0, 0.0]))

    def test_degenerate_equal_parameters(self):
        t = _tier(30.0, 3.67)
        with pytest.raises(DegenerateBoundaryError):
            erb_circle(np.array([100.0, 0.0]), xi=1.0, lam_star=1.0)
        with pytest.raises(DegenerateBoundaryError):
            make_erb_pair(t, t, np.array([100.0, 0.0]), 0.5)

    def test_center_and_radius_closed_form(self):
        xi, lam = 0.47, 1.0
        pos = np.array([200.0, 0.0])
        c = erb_circle(pos, xi, lam)
        u = lam * xi
        assert np.allclose(c.center, pos / (1.0 - u))
        assert c.radius == pytest.approx(math.sqrt(u) * 200.0 / (1.0 - u))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            erb_circle(np.array([100.0, 0.0]), xi=-0.5, lam_star=1.0)
        with pytest.raises(ValueError):
            erb_circle(np.array([0.0, 0.0]), xi=0.5, lam_star=1.0)

    @given(
        xi=st.floats(min_value=0.05, max_value=0.95),
        x=st.floats(min_value=-500.0, max_value=500.0),
        y=st.floats(min_value=-500.0, max_value=500.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_exponent_rss_match_is_universal(self, xi, x, y):
        # For any xi expressible by a power offset, the circle is exact.
        if math.hypot(x, y) < 1.0:
            return
        pos = np.array([x, y])
        circle = erb_circle(pos, xi, 1.0)
        alpha = 3.5
        # xi = (P_t/P_s)^(2/alpha)  =>  P_t/P_s = xi^(alpha/2)
        ratio = xi ** (alpha / 2.0)
        pts = _boundary_points(circle, 32)
        rss_s = np.linalg.norm(pts, axis=1) ** (-alpha)
        rss_t = ratio * np.linalg.norm(pts - pos, axis=1) ** (-alpha)
        assert np.max(np.abs(rss_s - rss_t) / rss_s) < 1e-7


class TestErbPair:
    def test_factor_products(self):
        serving = default_small_params()
        target = TierRadioParams(
            tx_power=24.0,
            antenna_gain=5.0,
            bias=4.0,
            pathloss_intercept=serving.pathloss_intercept,
            pathloss_exponent=serving.pathloss_exponent,
        )
        pair = make_erb_pair(serving, target, np.array([250.0, 0.0]), 10.0 ** (-0.3))
        assert pair.lam_xi == pytest.approx(pair.lam_star * pair.xi)
        assert pair.lam_xi_f == pytest.approx(pair.lam_star * pair.xi_f)
        assert pair.lam_xi_f < pair.lam_xi

    def test_unequal_exponents_use_distance_factor(self):
        macro = default_macro_params()
        small = default_small_params()
        r = 400.0
        pair = make_erb_pair(macro, small, np.array([r, 0.0]), 0.5)
        expected_lam = (r * r) ** (macro.pathloss_exponent / small.pathloss_exponent - 1.0)
        assert pair.lam_star == pytest.approx(expected_lam, rel=1e-12)


class TestServingBs:
    def test_strongest_wins(self):
        macro = default_macro_params()
        small = default_small_params()
        macros = PointSet(tier=TIER_MACRO, points=np.array([[0.0, 0.0]]))
        smalls = PointSet(tier=TIER_SMALL, points=np.array([[1000.0, 0.0], [60.0, 0.0]]))
        dep = [(macros, macro), (smalls, small)]
        # Right next to a small BS the small tier wins despite lower power.
        assert serving_bs(np.array([61.0, 0.0]), dep) == (TIER_SMALL, 1)
        # Far from every small BS the macro wins.
        assert serving_bs(np.array([500.0, 500.0]), dep) == (TIER_MACRO, 0)

    def test_exact_bs_position_associates_there(self):
        small = default_small_params()
        smalls = PointSet(tier=TIER_SMALL, points=np.array([[10.0, 10.0], [20.0, 20.0]]))
        assert serving_bs(np.array([20.0, 20.0]), [(smalls, small)]) == (TIER_SMALL, 1)

    def test_tie_breaks_to_earlier_tier_then_lower_index(self):
        params = _tier(30.0, 3.6)
        a = PointSet(tier=TIER_MACRO, points=np.array([[-50.0, 0.0]]))
        b = PointSet(tier=TIER_SMALL, points=np.array([[50.0, 0.0], [0.0, 50.0]]))
        # Equidistant from all three BSs with identical radio parameters.
        assert serving_bs(np.array([0.0, 0.0]), [(a, params), (b, params)]) == (
            TIER_MACRO,
            0,
        )
        assert serving_bs(np.array([0.0, 0.0]), [(b, params)]) == (TIER_SMALL, 0)

    def test_empty_deployment_rejected(self):
        with pytest.raises(ValueError):
            serving_bs(np.array([0.0, 0.0]), [])
        empty = PointSet(tier=TIER_SMALL, points=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            serving_bs(np.array([0.0, 0.0]), [(empty, _tier(30.0, 3.6))])
