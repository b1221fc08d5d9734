"""RSS model and boundary-circle geometry."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetnet_handover.fixtures import (
    default_hotspot_params,
    default_macro_params,
    default_small_params,
    default_thresholds,
)
from hetnet_handover.radio import (
    CircleArrays,
    TierRadioParams,
    boundary_domain,
    boundary_factors,
    erb_circle_arrays,
    make_erb_pair,
)

from oracles import pin, serving_bs


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
        # A linear prefactor that overflows (in a dB conversion or in the
        # product) or underflows to 0.
        for args in ((5000.0, 0.0, 0.0, 1.0), (30.0, 0.0, 5000.0, 1.0),
                     (200.0, 200.0, 0.0, 1e300), (-5000.0, 0.0, 0.0, 1.0)):
            with pytest.raises(ValueError, match="positive and finite"):
                TierRadioParams(*args, pathloss_exponent=4.0)


def _factors(serving, target, pos, q_out) -> tuple:
    """``(u, u_f)`` of one target at ``pos``, as Python floats."""
    u, u_f = boundary_factors(serving, target, np.array(pos[:1]), np.array(pos[1:]), q_out)
    return float(u[0]), float(u_f[0])


class TestXiFactors:
    # With equal exponents the flattening factor is exactly 1, so u = xi;
    # with equal tiers xi is exactly 1 too, so u_f = q_out^(2/alpha).
    def test_pinned_6db_alpha4(self):
        u, _ = _factors(_tier(30.0, 4.0), _tier(24.0, 4.0), (123.0, -45.0), 0.5)
        assert u == pytest.approx(pin("xi_6db_alpha4"), rel=1e-12)

    def test_pinned_failure_scale(self):
        t = _tier(30.0, 3.67)
        u, u_f = _factors(t, t, (123.0, -45.0), 10.0 ** (-0.3))
        assert u == 1.0
        assert u_f == pytest.approx(pin("xi_failure_scale_3db_alpha367"), rel=1e-12)

    def test_failure_factor_shrinks_xi(self):
        u, u_f = boundary_factors(
            default_macro_params(), default_small_params(),
            np.array([1.0, 37.5, 1200.0]), np.array([0.0, 0.0, -350.0]), 0.5,
        )
        assert np.all(u_f < u)

    def test_invalid_q_out(self):
        with pytest.raises(ValueError):
            _factors(_tier(30.0, 3.67), _tier(24.0, 3.67), (100.0, 0.0), 0.0)

    def test_lambda_star_equal_exponents_is_one(self):
        t = _tier(30.0, 3.67)
        assert _factors(t, t, (123.0, -45.0), 0.5)[0] == 1.0

    def test_lambda_star_origin_rejected(self):
        with pytest.raises(ValueError):
            _factors(_tier(24.0, 3.76), _tier(30.0, 3.67), (0.0, 0.0), 0.5)


def _rss(tier: TierRadioParams, distance: np.ndarray) -> np.ndarray:
    return tier.linear_prefactor * distance ** (-tier.pathloss_exponent)


def _circles(serving, target, pos, q_out) -> tuple:
    """Handover and failure circles of one target at ``pos``, from the
    simulator's factors and circle formula."""
    tx, ty = np.array(pos[:1]), np.array(pos[1:])
    u, u_f = boundary_factors(serving, target, tx, ty, q_out)
    norm = np.hypot(tx, ty)
    return erb_circle_arrays(tx, ty, norm, u), erb_circle_arrays(tx, ty, norm, u_f)


def _domain(serving, target, pos, q_out) -> tuple:
    """``(degenerate, encloses)`` of one target at ``pos``, as the simulator
    decides it: `boundary_domain` over the arrays of `boundary_factors`."""
    u, u_f = boundary_factors(serving, target, np.array(pos[:1]), np.array(pos[1:]), q_out)
    return tuple(bool(flag[0]) for flag in boundary_domain(u, u_f))


def _scalar_domain(serving, target, pos, q_out) -> tuple:
    """``(degenerate, encloses)`` of one target at ``pos`` through the
    closed forms' route, after checking it against the simulator's:
    `make_erb_pair` returns the factors of `boundary_factors` bit for bit,
    and `boundary_domain` of those floats gives the arrays' flags."""
    u, u_f = make_erb_pair(serving, target, np.array(pos, dtype=float), q_out)
    assert (u.hex(), u_f.hex()) == tuple(v.hex() for v in _factors(serving, target, pos, q_out))
    flags = boundary_domain(u, u_f)
    assert flags == _domain(serving, target, pos, q_out), (pos, u, u_f)
    return flags


def _circle(pos, u: float) -> CircleArrays:
    tx, ty = np.array(pos[:1]), np.array(pos[1:])
    return erb_circle_arrays(tx, ty, np.hypot(tx, ty), np.full(1, u))


def _contains(c: CircleArrays, point) -> bool:
    return bool(np.hypot(point[0] - c.cx[0], point[1] - c.cy[0]) < c.radius[0])


def _boundary_points(c: CircleArrays, n: int = 360) -> np.ndarray:
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.array([c.cx[0], c.cy[0]]) + c.radius[0] * np.stack(
        [np.cos(ang), np.sin(ang)], axis=1
    )


#: ``(u, u_f, degenerate, encloses)``: each side of DEGENERACY_TOL = 1e-12, a
#: degenerate failure boundary, a failure factor above 1, and a degenerate
#: failure boundary behind an enclosing handover circle (degenerate only).
DOMAIN_TABLE = (
    (0.5, 0.25, False, False),
    (1.0 - 0.5e-12, 0.5, True, False),
    (1.0 + 0.5e-12, 0.5, True, False),
    (1.0 - 2e-12, 0.5, False, False),
    (1.0 + 2e-12, 0.5, False, True),
    (0.5, 1.0, True, False),
    (0.5, 1.5, False, True),
    (2.0, 1.0 + 0.5e-12, True, False),
    (2.0, 0.5, False, True),
)


def test_boundary_domain_table():
    for u, u_f, degenerate, encloses in DOMAIN_TABLE:
        assert boundary_domain(u, u_f) == (degenerate, encloses), (u, u_f)
    # The same rule over arrays, as the simulator applies it.
    u, u_f, degenerate, encloses = (np.array(column) for column in zip(*DOMAIN_TABLE))
    got = boundary_domain(u, u_f)
    assert np.array_equal(got[0], degenerate) and np.array_equal(got[1], encloses)


class TestErbCircle:
    def test_equal_exponent_boundary_is_exact(self):
        # Apollonius case: biased RSS of serving and target agree everywhere
        # on the circle when the exponents match.
        serving = _tier(30.0, 3.67, gain=5.0, bias=4.0)
        target = _tier(24.0, 3.67, gain=5.0, bias=4.0)
        pos = np.array([210.0, -140.0])
        h, _ = _circles(serving, target, pos, 10.0 ** (-0.3))
        pts = _boundary_points(h)
        rss_serving = _rss(serving, np.linalg.norm(pts, axis=1))
        rss_target = _rss(target, np.linalg.norm(pts - pos, axis=1))
        assert np.max(np.abs(rss_serving - rss_target) / rss_serving) < 1e-9

    def test_failure_circle_nested_inside_handover_circle(self):
        serving = _tier(30.0, 3.67)
        target = _tier(24.0, 3.67)
        h, f = _circles(serving, target, (300.0, 0.0), 10.0 ** (-0.3))
        center_gap = float(np.hypot(h.cx[0] - f.cx[0], h.cy[0] - f.cy[0]))
        assert center_gap + f.radius[0] <= h.radius[0] + 1e-9
        assert f.radius[0] < h.radius[0]

    def test_weaker_target_circle_covers_target_not_serving(self):
        c, _ = _circles(_tier(30.0, 3.67), _tier(24.0, 3.67), (300.0, 0.0), 0.5)
        assert _domain(_tier(30.0, 3.67), _tier(24.0, 3.67), (300.0, 0.0), 0.5) == (False, False)
        assert _contains(c, (300.0, 0.0))
        assert not _contains(c, (0.0, 0.0))

    def test_stronger_target_circle_encloses_serving(self):
        c, _ = _circles(_tier(24.0, 3.67), _tier(30.0, 3.67), (300.0, 0.0), 0.5)
        assert _domain(_tier(24.0, 3.67), _tier(30.0, 3.67), (300.0, 0.0), 0.5) == (False, True)
        assert _contains(c, (0.0, 0.0))
        assert not _contains(c, (300.0, 0.0))

    def test_degenerate_equal_parameters(self):
        # make_erb_pair converts a bisector's factors like any other pair's;
        # boundary_domain flags it on both routes.
        t = _tier(30.0, 3.67)
        assert _scalar_domain(t, t, (100.0, 0.0), 0.5) == (True, False)
        assert make_erb_pair(t, t, np.array([100.0, 0.0]), 0.5)[0] == 1.0

    def test_degenerate_failure_boundary(self):
        # A target 3 dB stronger with q_out = -3 dB: the failure boundary
        # (xi_f = 1 up to rounding) is a bisector, the handover circle is not.
        # The handover circle encloses the serving BS too, but the pair
        # counts as degenerate only.
        stronger = (_tier(30.0, 3.67), _tier(33.0, 3.67), (100.0, 0.0))
        assert _scalar_domain(*stronger, 10.0 ** -0.3) == (True, False)
        assert _scalar_domain(*stronger, 0.4) == (False, True)

    def test_center_and_radius_closed_form(self):
        u = 0.47
        pos = (200.0, 0.0)
        c = _circle(pos, u)
        assert c.cx[0] == pytest.approx(200.0 / (1.0 - u))
        assert c.cy[0] == 0.0
        assert c.radius[0] == pytest.approx(math.sqrt(u) * 200.0 / (1.0 - u))

    def test_invalid_arguments(self):
        # A target on the serving BS has no boundary.
        t = _tier(30.0, 3.67)
        with pytest.raises(ValueError):
            _circles(_tier(24.0, 3.76), t, (0.0, 0.0), 0.5)
        with pytest.raises(ValueError):
            make_erb_pair(_tier(24.0, 3.76), t, np.array([0.0, 0.0]), 0.5)

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
        circle = _circle(pos, xi)  # equal exponents: u = xi
        alpha = 3.5
        # xi = (P_t/P_s)^(2/alpha)  =>  P_t/P_s = xi^(alpha/2)
        ratio = xi ** (alpha / 2.0)
        pts = _boundary_points(circle, 32)
        rss_s = np.linalg.norm(pts, axis=1) ** (-alpha)
        rss_t = ratio * np.linalg.norm(pts - pos, axis=1) ** (-alpha)
        assert np.max(np.abs(rss_s - rss_t) / rss_s) < 1e-7


#: ``make_erb_pair`` and the simulator's handover and failure circles for the
#: default SM, SpS and SpM tiers at q_out = -3 dB, recorded before the factors
#: moved to Python floats: (pair, target position, float.hex of (xi, xi_f,
#: lam_star, handover centre x and y, handover radius, failure centre x and
#: y, failure radius), whether the handover and the failure circle enclose
#: the serving BS).
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
        q_out = 10.0 ** (-0.3)
        u, u_f = make_erb_pair(serving, target, np.array([250.0, 0.0]), q_out)
        power = 2.0 / target.pathloss_exponent
        xi = (target.linear_prefactor / serving.linear_prefactor) ** power
        assert u == pytest.approx(xi)
        assert u_f == pytest.approx(xi * q_out**power)
        assert u_f < u

    def test_fields_pinned(self):
        tiers = {
            "SM": (default_macro_params(), default_small_params()),
            "SpS": (default_small_params(), default_hotspot_params()),
            "SpM": (default_macro_params(), default_hotspot_params()),
        }
        q_out = default_thresholds().q_out
        for pair, pos, values, h_encloses, f_encloses in ERB_PIN:
            u, u_f = make_erb_pair(*tiers[pair], np.array(pos), q_out)
            xi, xi_f, lam_star = (float.fromhex(v) for v in values[:3])
            assert (u.hex(), u_f.hex()) == ((lam_star * xi).hex(), (lam_star * xi_f).hex()), (
                pair, pos,
            )
            assert _factors(*tiers[pair], pos, q_out) == (u, u_f)
            h, f = _circles(*tiers[pair], pos, q_out)
            got = (h.cx[0], h.cy[0], h.radius[0], f.cx[0], f.cy[0], f.radius[0])
            assert tuple(float(v).hex() for v in got) == values[3:], (pair, pos)
            assert (u > 1.0, u_f > 1.0) == (h_encloses, f_encloses)
            assert _domain(*tiers[pair], pos, q_out) == (False, h_encloses or f_encloses)

    def test_stronger_target_flags_enclosure_without_building_circles(self):
        u, _ = make_erb_pair(
            _tier(24.0, 3.67), _tier(30.0, 3.67), np.array([300.0, 0.0]), 0.5
        )
        assert u > 1.0
        assert _domain(_tier(24.0, 3.67), _tier(30.0, 3.67), (300.0, 0.0), 0.5) == (False, True)

    def test_unequal_exponents_use_distance_factor(self):
        macro = default_macro_params()
        small = default_small_params()
        r = 400.0
        u, _ = make_erb_pair(macro, small, np.array([r, 0.0]), 0.5)
        expected_lam = (r * r) ** (macro.pathloss_exponent / small.pathloss_exponent - 1.0)
        xi = (small.linear_prefactor / macro.linear_prefactor) ** (2.0 / small.pathloss_exponent)
        assert u == pytest.approx(expected_lam * xi, rel=1e-12)

    @given(
        p_serving=st.floats(min_value=0.0, max_value=60.0),
        p_target=st.floats(min_value=0.0, max_value=60.0),
        a_serving=st.floats(min_value=2.5, max_value=4.5),
        a_target=st.floats(min_value=2.5, max_value=4.5),
        x=st.floats(min_value=-2000.0, max_value=2000.0),
        y=st.floats(min_value=-2000.0, max_value=2000.0),
        q_out=st.floats(min_value=0.05, max_value=0.95, exclude_min=True, exclude_max=True),
    )
    # Equal tiers: the handover boundary is the bisector.
    @example(30.0, 30.0, 3.67, 3.67, 100.0, 0.0, 0.5)
    # A target 3 dB stronger at q_out = -3 dB: the failure boundary is.
    @example(30.0, 33.0, 3.67, 3.67, 100.0, 0.0, 10.0 ** -0.3)
    @settings(max_examples=200, deadline=None)
    def test_scalar_and_array_routes_agree(
        self, p_serving, p_target, a_serving, a_target, x, y, q_out
    ):
        # make_erb_pair returns the simulator's factors bit for bit for every
        # pair, degenerate ones included, so boundary_domain sets aside the
        # same pairs on both routes.
        if math.hypot(x, y) < 1.0:
            return
        serving, target = _tier(p_serving, a_serving), _tier(p_target, a_target)
        degenerate, encloses = _scalar_domain(serving, target, (x, y), q_out)
        if not degenerate:
            u, _ = make_erb_pair(serving, target, np.array([x, y]), q_out)
            assert encloses == (u > 1.0)


class TestServingBs:
    def test_strongest_wins(self):
        macro = default_macro_params()
        small = default_small_params()
        macros = np.array([[0.0, 0.0]])
        smalls = np.array([[1000.0, 0.0], [60.0, 0.0]])
        dep = [(macros, macro), (smalls, small)]
        # Right next to a small BS the small tier wins despite lower power.
        assert serving_bs(np.array([61.0, 0.0]), dep) == (1, 1)
        # Far from every small BS the macro wins.
        assert serving_bs(np.array([500.0, 500.0]), dep) == (0, 0)

    def test_exact_bs_position_associates_there(self):
        small = default_small_params()
        smalls = np.array([[10.0, 10.0], [20.0, 20.0]])
        assert serving_bs(np.array([20.0, 20.0]), [(smalls, small)]) == (0, 1)

    def test_tie_breaks_to_earlier_tier_then_lower_index(self):
        params = _tier(30.0, 3.6)
        a = np.array([[-50.0, 0.0]])
        b = np.array([[50.0, 0.0], [0.0, 50.0]])
        # Equidistant from all three BSs with identical radio parameters.
        assert serving_bs(np.array([0.0, 0.0]), [(a, params), (b, params)]) == (0, 0)
        assert serving_bs(np.array([0.0, 0.0]), [(b, params)]) == (0, 0)

    def test_empty_deployment_rejected(self):
        with pytest.raises(ValueError):
            serving_bs(np.array([0.0, 0.0]), [])
        empty = np.zeros((0, 2))
        with pytest.raises(ValueError):
            serving_bs(np.array([0.0, 0.0]), [(empty, _tier(30.0, 3.6))])
