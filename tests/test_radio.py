"""RSS model and boundary-circle geometry."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnet_handover.fixtures import (
    default_hotspot_params,
    default_macro_params,
    default_small_params,
    default_thresholds,
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

    def test_degenerate_failure_boundary(self):
        # A target 3 dB stronger with q_out = -3 dB: the failure boundary
        # (xi_f = 1 up to rounding) is a bisector, the handover circle is not.
        with pytest.raises(DegenerateBoundaryError):
            make_erb_pair(_tier(30.0, 3.67), _tier(33.0, 3.67), np.array([100.0, 0.0]), 10.0 ** -0.3)
        erb = make_erb_pair(_tier(30.0, 3.67), _tier(33.0, 3.67), np.array([100.0, 0.0]), 0.4)
        assert erb.encloses_serving

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


#: ``make_erb_pair`` for the default SM, SpS and SpM tiers at q_out = -3 dB,
#: recorded before the factors moved to Python floats: (pair, target
#: position, float.hex of (xi, xi_f, lam_star, handover centre x and y,
#: handover radius, failure centre x and y, failure radius), handover and
#: failure ``encloses_serving``).
ERB_PIN = (
    ("SM", (1.0, 0.0), ("0x1.588bff35df782p-7", "0x1.d8ec52651e72dp-8", "0x1.0000000000000p+0", "0x1.02b86a9690acbp+0", "0x0.0p+0", "0x1.a87905299f151p-4", "0x1.01dc5c545f1d5p+0", "0x0.0p+0", "0x1.5e7a555af487dp-4"), False, False),
    ("SM", (37.5, 0.0), ("0x1.588bff35df782p-7", "0x1.d8ec52651e72dp-8", "0x1.31cd53e909d31p+0", "0x1.2fd0e602227c2p+5", "0x0.0p+0", "0x1.10654456fbdacp+2", "0x1.2e9bc7315ea72p+5", "0x0.0p+0", "0x1.c1872484be51bp+1"), False, False),
    ("SM", (218.73, 0.0), ("0x1.588bff35df782p-7", "0x1.d8ec52651e72dp-8", "0x1.4d6debbd80a53p+0", "0x1.bb88c1995358ep+7", "0x0.0p+0", "0x1.9f3d354b3fbf5p+4", "0x1.b99c5242fc42ep+7", "0x0.0p+0", "0x1.56814009e8f59p+4"), False, False),
    ("SM", (1200.0, -350.0), ("0x1.588bff35df782p-7", "0x1.d8ec52651e72dp-8", "0x1.6b303d3488711p+0", "0x1.308aff780f0c6p+10", "-0x1.634cd4b6bc392p+8", "0x1.35f703fc2d8a2p+7", "0x1.2f1a6379445cfp+10", "-0x1.619ec962cfc1cp+8", "0x1.ff2402bb61bd0p+6"), False, False),
    ("SM", (10000.0, 0.0), ("0x1.588bff35df782p-7", "0x1.d8ec52651e72dp-8", "0x1.922f36adb2bd2p+0", "0x1.3dbfb76f09bbbp+13", "0x0.0p+0", "0x1.46b66bb3e2af6p+10", "0x1.3c155af77eadep+13", "0x0.0p+0", "0x1.0d3d73bd27b6ep+10"), False, False),
    ("SpS", (1.0, 0.0), ("0x1.e24eda1f61701p-2", "0x1.4b01b4ef71cdcp-2", "0x1.0000000000000p+0", "0x1.e3ef7f3305b21p+0", "0x0.0p+0", "0x1.4c1fa623b395cp+0", "0x1.7a471e86cfcf7p+0", "0x0.0p+0", "0x1.ae23b19356d70p-1"), False, False),
    ("SpS", (37.5, 0.0), ("0x1.e24eda1f61701p-2", "0x1.4b01b4ef71cdcp-2", "0x1.0000000000000p+0", "0x1.1b8e5487e5566p+6", "0x0.0p+0", "0x1.853516b1d6738p+5", "0x1.bb4b57c5fb871p+5", "0x0.0p+0", "0x1.f811d418a9c3ep+4"), False, False),
    ("SpS", (218.73, 0.0), ("0x1.e24eda1f61701p-2", "0x1.4b01b4ef71cdcp-2", "0x1.0000000000000p+0", "0x1.9d7b3830dd376p+8", "0x0.0p+0", "0x1.1bc566bdec828p+8", "0x1.4334b48d67b23p+8", "0x0.0p+0", "0x1.6f8465ac4c779p+7"), False, False),
    ("SpS", (1200.0, -350.0), ("0x1.e24eda1f61701p-2", "0x1.4b01b4ef71cdcp-2", "0x1.0000000000000p+0", "0x1.1b8e5487e5566p+11", "-0x1.4ad0b7f3e0e4cp+9", "0x1.956ca24e94b85p+10", "0x1.bb4b57c5fb871p+10", "-0x1.02969dde280edp+9", "0x1.068949222dc0cp+10"), False, False),
    ("SpS", (10000.0, 0.0), ("0x1.e24eda1f61701p-2", "0x1.4b01b4ef71cdcp-2", "0x1.0000000000000p+0", "0x1.275eed62e439fp+14", "0x0.0p+0", "0x1.956ca24e94b85p+13", "0x1.cdc3d0c390acbp+13", "0x0.0p+0", "0x1.068949222dc0cp+13"), False, False),
    ("SpM", (1.0, 0.0), ("0x1.4490db5e524afp-8", "0x1.bd7f4f0b5a760p-9", "0x1.0000000000000p+0", "0x1.01462e66a9dcep+0", "0x0.0p+0", "0x1.21afa080d8edbp-4", "0x1.00df8221b3407p+0", "0x0.0p+0", "0x1.df38a9758b8c5p-5"), False, False),
    ("SpM", (37.5, 0.0), ("0x1.4490db5e524afp-8", "0x1.bd7f4f0b5a760p-9", "0x1.31cd53e909d31p+0", "0x1.2dc90c2ff8d97p+5", "0x0.0p+0", "0x1.7363bfc7f6dadp+1", "0x1.2d39160578d31p+5", "0x0.0p+0", "0x1.3318e4008d2c7p+1"), False, False),
    ("SpM", (218.73, 0.0), ("0x1.4490db5e524afp-8", "0x1.bd7f4f0b5a760p-9", "0x1.4d6debbd80a53p+0", "0x1.b84cd430870f1p+7", "0x0.0p+0", "0x1.1ae6457d14387p+4", "0x1.b767bb2e4d515p+7", "0x0.0p+0", "0x1.d3c5c36790b31p+3"), False, False),
    ("SpM", (1200.0, -350.0), ("0x1.4490db5e524afp-8", "0x1.bd7f4f0b5a760p-9", "0x1.6b303d3488711p+0", "0x1.2e1f6c62f7ff5p+10", "-0x1.6079fe7376a9ep+8", "0x1.a61333fd26932p+6", "0x1.2d741fbc99997p+10", "-0x1.5fb22506b3330p+8", "0x1.5ce2aba06b7b9p+6"), False, False),
    ("SpM", (10000.0, 0.0), ("0x1.4490db5e524afp-8", "0x1.bd7f4f0b5a760p-9", "0x1.922f36adb2bd2p+0", "0x1.3af3526434e2bp+13", "0x0.0p+0", "0x1.bc7e940401519p+9", "0x1.3a2d79090c970p+13", "0x0.0p+0", "0x1.6f5446b0d00f7p+9"), False, False),
)


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

    def test_fields_pinned(self):
        tiers = {
            "SM": (default_macro_params(), default_small_params()),
            "SpS": (default_small_params(), default_hotspot_params()),
            "SpM": (default_macro_params(), default_hotspot_params()),
        }
        q_out = default_thresholds().q_out
        for pair, pos, values, h_encloses, f_encloses in ERB_PIN:
            erb = make_erb_pair(*tiers[pair], np.array(pos), q_out)
            h, f = erb.handover_circle, erb.failure_circle
            got = (erb.xi, erb.xi_f, erb.lam_star, *h.center, h.radius, *f.center, f.radius)
            assert tuple(float(v).hex() for v in got) == values, (pair, pos)
            assert (h.encloses_serving, f.encloses_serving) == (h_encloses, f_encloses)
            assert erb.encloses_serving is h.encloses_serving
            assert erb.q_out == q_out

    def test_circles_built_once_on_first_read(self):
        erb = make_erb_pair(
            default_small_params(), default_hotspot_params(), np.array([218.73, 0.0]), 0.5
        )
        assert {f.name for f in dataclasses.fields(erb)}.isdisjoint(
            {"handover_circle", "failure_circle"}
        )
        assert erb.handover_circle is erb.handover_circle
        assert erb.failure_circle is erb.failure_circle
        assert erb.failure_circle.radius < erb.handover_circle.radius

    def test_stronger_target_flags_enclosure_without_building_circles(self):
        erb = make_erb_pair(
            _tier(24.0, 3.67), _tier(30.0, 3.67), np.array([300.0, 0.0]), 0.5
        )
        assert erb.encloses_serving and erb.lam_xi > 1.0
        assert "handover_circle" not in vars(erb)
        assert erb.handover_circle.encloses_serving

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
