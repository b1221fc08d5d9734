"""Distance laws and closed-form handover rates, each checked by a second route."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from hetnet_handover import analytics
from hetnet_handover.analytics import (
    ClampDiagnostics,
    HandoverMetrics,
    HandoverThresholds,
    PairKind,
    _sojourn_tails,
    compute_metrics,
    mean_cluster_distance_numeric,
    mean_pair_distance,
    mean_r_sm,
    movement_time_per_meter,
)
from hetnet_handover.fixtures import (
    default_hotspot_params,
    default_macro_params,
    default_mobility,
    default_small_params,
    default_thresholds,
)
from hetnet_handover.geometry import Region
from hetnet_handover.radio import DegenerateBoundaryError, make_erb_pair
from hetnet_handover.simengine import SimConfig, analytic_metrics
from hetnet_handover.specfun import marcum_q1

from oracles import (
    cluster_mean_rician_mixture,
    mean_cluster_distance_expsum,
    mean_cluster_distance_ub,
    pin,
    reference_config,
    rician_cdf,
    rician_mean,
    rician_pdf,
)

MOBILITY = default_mobility()
THRESHOLDS = default_thresholds()


def _sps_factors(distance: float = 218.73):
    """``(u, u_f)`` of the default SpS pair at ``distance``."""
    return make_erb_pair(
        default_small_params(),
        default_hotspot_params(),
        np.array([distance, 0.0]),
        THRESHOLDS.q_out,
    )


def _g(u: float) -> float:
    return math.sqrt(u) / (1.0 - u)


def _sps_metrics(thresholds=THRESHOLDS, **kwargs):
    """Closed-form SpS metrics at the reference distance, 10 BSs in 1e8 m^2."""
    return compute_metrics(
        PairKind.SPS, thresholds, 218.73, *_sps_factors(), 1e8, 10.0, MOBILITY,
        2e-5, 150.0, **kwargs,
    )


def _tail(pair, t, velocity, u, lam, sigma) -> float:
    """``P(S >= t | u)`` of one ``(t, u)``."""
    return _sojourn_tails(pair, ((t, u),), velocity, lam, sigma)[0]


def _sps_tail(t: float, u: float) -> float:
    return _tail(PairKind.SPS, t, MOBILITY.velocity, u, 2e-5, 150.0)


def _envelope_config(lambda_s, sigma, v_kmh, t, t_p) -> SimConfig:
    """A default-ratio deployment on 5 km x 5 km, as the closed forms see it."""
    return SimConfig.with_default_ratios(
        region=Region(0.0, 5000.0, 0.0, 5000.0),
        macro=default_macro_params(),
        small=default_small_params(),
        hotspot=default_hotspot_params(),
        lambda_s=lambda_s,
        sigma=sigma,
        mobility=dataclasses.replace(MOBILITY, velocity=v_kmh / 3.6),
        thresholds=HandoverThresholds(t_threshold=t, t_pingpong=t_p, q_out=THRESHOLDS.q_out),
    )


def _rayleigh_pdf(r: float, lam: float) -> float:
    """Nearest-BS distance density of a uniform tier of density ``lam``."""
    return 2.0 * math.pi * lam * r * math.exp(-math.pi * lam * r * r)


class TestNearestDistanceLaw:
    def test_pdf_integrates_to_one(self):
        val, _ = integrate.quad(lambda r: _rayleigh_pdf(r, 1e-6), 0.0, np.inf)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_cdf_matches_pdf_quadrature(self):
        # The SM sojourn tail is the Rayleigh tail P(R > r) of the pair
        # distance at r = 2 T V (1 - u) / (pi sqrt(u)).
        lam, v, u = 2e-6, 16.7, 0.4
        for t in (0.5, 4.0, 12.0):
            r = 2.0 * t * v * (1.0 - u) / (math.pi * math.sqrt(u))
            cdf, _ = integrate.quad(lambda x: _rayleigh_pdf(x, lam), 0.0, r)
            assert _tail(PairKind.SM, t, v, u, lam, 150.0) == pytest.approx(1.0 - cdf, rel=1e-10)

    def test_mean_closed_form(self):
        lam = 2e-6
        assert mean_r_sm(lam) == pytest.approx(1.0 / (2.0 * math.sqrt(lam)), rel=1e-12)
        assert mean_r_sm(2e-6) == pytest.approx(353.5533905932738, rel=1e-12)
        mean, _ = integrate.quad(lambda r: r * _rayleigh_pdf(r, lam), 0.0, np.inf)
        assert mean_r_sm(lam) == pytest.approx(mean, rel=1e-9)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            mean_r_sm(0.0)


class TestConditionalDistanceLaw:
    def test_pdf_integrates_to_one(self):
        for w, sigma in ((50.0, 100.0), (200.0, 150.0), (0.0, 80.0)):
            val, _ = integrate.quad(
                lambda r: rician_pdf(r, w, sigma), 0.0, w + 14.0 * sigma, limit=200
            )
            assert val == pytest.approx(1.0, rel=1e-8)

    def test_cdf_is_marcum_complement(self):
        # Q1(a, b) is the tail of a noncentral chi-square with 2 degrees of
        # freedom and noncentrality a^2 at b^2, here by scipy's own route.
        r, w, sigma = 120.0, 90.0, 70.0
        assert rician_cdf(r, w, sigma) == pytest.approx(
            stats.ncx2.cdf((r / sigma) ** 2, 2, (w / sigma) ** 2), rel=1e-12
        )

    def test_pinned_cdf_value(self):
        assert rician_cdf(1.0, 1.0, 1.0) == pytest.approx(
            1.0 - pin("marcum_q1_at_1_1"), rel=1e-9
        )

    def test_cdf_matches_pdf_quadrature_grid(self):
        # Arbitration check between the density and the tail expression:
        # they must be two faces of one law everywhere, not just at a point.
        for w in (0.0, 40.0, 150.0):
            for sigma in (60.0, 150.0):
                for r in (30.0, 120.0, 400.0):
                    quad_val, _ = integrate.quad(
                        lambda x: rician_pdf(x, w, sigma), 0.0, r, limit=200
                    )
                    assert rician_cdf(r, w, sigma) == pytest.approx(
                        quad_val, abs=1e-6
                    ), (w, sigma, r)

    def test_mean_matches_quadrature(self):
        for w, sigma in ((0.0, 50.0), (75.0, 50.0), (300.0, 150.0)):
            val, _ = integrate.quad(
                lambda r: r * rician_pdf(r, w, sigma), 0.0, w + 14.0 * sigma, limit=200
            )
            assert rician_mean(w, sigma) == pytest.approx(val, rel=1e-10)


class TestClusterMeanDistance:
    def test_pinned_against_independent_quadrature(self):
        assert mean_cluster_distance_numeric(2e-5, 150.0) == pytest.approx(
            pin("cluster_mean_numeric_lam2e-5_sigma150"), rel=1e-7
        )

    def test_monte_carlo_cross_check(self):
        # The center-to-nearest distance law is Rayleigh-type with scale
        # 1/sqrt(2 pi lam) (void probability), so the mixture can be sampled
        # exactly without building point fields.
        lam, sigma = 2e-5, 150.0
        rng = np.random.default_rng(123)
        n = 200_000
        w = rng.rayleigh(1.0 / math.sqrt(2.0 * math.pi * lam), size=n)
        child = sigma * rng.standard_normal((n, 2))
        child[:, 0] += w
        dist = np.hypot(child[:, 0], child[:, 1])
        se = dist.std(ddof=1) / math.sqrt(n)
        assert mean_cluster_distance_numeric(lam, sigma) == pytest.approx(
            dist.mean(), abs=4.0 * se
        )

    def test_closed_form_matches_rician_mixture_quadrature(self):
        # The Rician mean averaged over the Rayleigh center distance is the
        # exact mean: the closed form must agree with that quadrature.
        for lam in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
            for sigma in (1.0, 5.0, 50.0, 250.0, 1000.0):
                assert mean_cluster_distance_numeric(lam, sigma) == pytest.approx(
                    cluster_mean_rician_mixture(lam, sigma), rel=1e-11
                ), (lam, sigma)

    def test_analytic_path_runs_without_quadrature(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("scipy.integrate.quad called on the analytic path")

        monkeypatch.setattr(integrate, "quad", no_quad)
        metrics = analytic_metrics(reference_config(0))
        assert set(metrics) == set(PairKind)

    # The four test_ub_* tests pin the paper's exponential-sum expression,
    # `mean_cluster_distance_expsum`; the proven bound is tested below them.
    def test_ub_pinned(self):
        assert mean_cluster_distance_expsum(2e-5, 150.0) == pytest.approx(
            pin("cluster_mean_ub_lam2e-5_sigma150"), rel=1e-12
        )

    def test_ub_dominates_numeric_in_validity_range(self):
        for lam, sigma in ((2e-5, 150.0), (5e-5, 100.0), (1e-4, 300.0), (1e-5, 200.0)):
            q = math.pi * lam * sigma * sigma
            assert q >= 0.06, "test point outside the expression's validity range"
            assert mean_cluster_distance_expsum(
                lam, sigma
            ) >= mean_cluster_distance_numeric(lam, sigma)

    def test_ub_warns_below_validity_floor(self):
        with pytest.warns(UserWarning, match="not a true upper bound"):
            mean_cluster_distance_expsum(1e-6, 50.0)

    def test_ub_rejects_unstable_interval(self):
        # The second coefficient block carries b = -163.4, which breaks the
        # positivity precondition 2q + 1 - b^2 > 0 for any physical q.
        with pytest.raises(ValueError):
            mean_cluster_distance_expsum(2e-5, 150.0, interval=1)

    def test_bound_dominates_numeric_without_warning(self):
        # The sparse grid corner, where the paper's expression undershoots,
        # and the fixture point.
        for lam, sigma in ((1e-6, 50.0), (2e-5, 150.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bound = mean_cluster_distance_ub(lam, sigma)
            assert bound >= mean_cluster_distance_numeric(lam, sigma)

    def test_bound_rejects_nonpositive_inputs(self):
        for lam, sigma in ((0.0, 150.0), (-1e-5, 150.0), (2e-5, 0.0), (2e-5, -1.0)):
            for mean_distance in (mean_cluster_distance_ub, mean_cluster_distance_numeric):
                with pytest.raises(ValueError):
                    mean_distance(lam, sigma)

    def test_bound_is_rayleigh_second_moment(self):
        # The hotspot-to-serving distance is exactly Rayleigh, so the Jensen
        # bound sqrt(E[R^2]) is 2/sqrt(pi) times the mean at every point.
        for lam, sigma in ((1e-6, 50.0), (2e-5, 150.0), (1e-4, 300.0), (3e-6, 120.0)):
            ratio = mean_cluster_distance_ub(lam, sigma) / mean_cluster_distance_numeric(
                lam, sigma
            )
            assert ratio == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-9)

    def test_mean_pair_distance_dispatch(self):
        lam_m, lam_s, sigma = 2e-6, 2e-5, 150.0
        assert mean_pair_distance(PairKind.SM, lam_m, sigma) == mean_r_sm(lam_m)
        assert mean_pair_distance(
            PairKind.SPS, lam_s, sigma
        ) == mean_cluster_distance_numeric(lam_s, sigma)
        assert mean_pair_distance(
            PairKind.SPM, lam_m, sigma
        ) == mean_cluster_distance_numeric(lam_m, sigma)


class TestThresholdsAndMetrics:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            HandoverThresholds(t_threshold=-1.0, t_pingpong=4.0, q_out=0.5)
        with pytest.raises(ValueError):
            HandoverThresholds(t_threshold=1.0, t_pingpong=0.0, q_out=0.5)
        with pytest.raises(ValueError):
            HandoverThresholds(t_threshold=1.0, t_pingpong=4.0, q_out=1.5)

    def test_metrics_validation(self):
        with pytest.raises(ValueError):
            HandoverMetrics(
                pair=PairKind.SM,
                triggered_rate=1.0,
                handover_rate=1.5,  # exceeds triggered
                failure_rate=0.1,
                pingpong_rate=0.0,
            )
        with pytest.raises(ValueError, match="failure_rate"):
            HandoverMetrics(
                pair=PairKind.SM,
                triggered_rate=1.0,
                handover_rate=0.5,
                failure_rate=1.5,  # a per-trigger ratio above 1
                pingpong_rate=0.0,
            )


class TestRates:
    def test_movement_time_per_meter(self):
        expected = 1.0 / MOBILITY.velocity + MOBILITY.pause / (
            math.sqrt(math.pi / 2.0) * (300.0 + 0.3 * 300.0)
        )
        assert movement_time_per_meter(MOBILITY) == pytest.approx(expected, rel=1e-12)

    def test_triggered_rate_manual_assembly(self):
        u, _ = _sps_factors()
        mean_d, area, n_bs = 218.73, 1e8, 10.0
        manual = (2.0 / area) * _g(u) * n_bs * mean_d / movement_time_per_meter(
            MOBILITY
        )
        assert _sps_metrics().triggered_rate == pytest.approx(manual, rel=1e-12)

    def test_sojourn_tail_at_zero_threshold_is_one(self):
        assert _tail(PairKind.SM, 0.0, 16.7, 0.3, 2e-6, 150.0) == 1.0

    def test_sojourn_tail_sm_branch(self):
        u, lam_m, v, t = 0.4, 2e-6, 16.7, 1.5
        manual = math.exp(-4.0 * lam_m * v * v * t * t * (1.0 - u) ** 2 / (math.pi * u))
        assert _tail(PairKind.SM, t, v, u, lam_m, 150.0) == pytest.approx(manual, rel=1e-12)

    def test_sojourn_tail_hotspot_branches(self):
        u, lam, sigma, v, t = 0.47, 2e-5, 150.0, 16.7, 1.0
        a = 1.0 / (2.0 * sigma * math.sqrt(lam))
        b = 2.0 * t * v * (1.0 - u) / (math.pi * sigma * math.sqrt(u))
        manual = float(marcum_q1(a, b))
        # Both hotspot pairs use the serving-tier density in the same formula.
        for pair in (PairKind.SPS, PairKind.SPM):
            assert _tail(pair, t, v, u, lam, sigma) == pytest.approx(
                manual, rel=1e-12
            )

    def test_sojourn_tail_requires_density(self):
        with pytest.raises(ValueError):
            _tail(PairKind.SM, 1.0, 16.7, 0.4, 0.0, 150.0)
        with pytest.raises(ValueError):
            _tail(PairKind.SPS, 1.0, 16.7, 0.4, 2e-5, 0.0)

    @given(
        t1=st.floats(min_value=0.0, max_value=30.0),
        dt=st.floats(min_value=0.1, max_value=30.0),
        u=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_sojourn_tail_decreasing_in_threshold(self, t1, dt, u):
        p1 = _tail(PairKind.SPS, t1, 16.7, u, 2e-5, 150.0)
        p2 = _tail(PairKind.SPS, t1 + dt, 16.7, u, 2e-5, 150.0)
        assert p2 <= p1 + 1e-12
        assert 0.0 <= p2 <= 1.0

    def test_handover_rate_is_triggered_times_tail(self):
        m = _sps_metrics()
        p = _sps_tail(THRESHOLDS.t_threshold, _sps_factors()[0])
        assert m.handover_rate == pytest.approx(m.triggered_rate * p, rel=1e-12)

    def test_failure_rate_manual_reduction(self):
        u, u_f = _sps_factors()
        p_le = 1.0 - _sps_tail(THRESHOLDS.t_threshold, u_f)
        manual = _g(u_f) / _g(u) * p_le
        assert _sps_metrics().failure_rate == pytest.approx(manual, rel=1e-12)

    def test_pingpong_rate_manual_bracket(self):
        u, u_f = _sps_factors()
        m = _sps_metrics()
        bracket = _sps_tail(THRESHOLDS.t_threshold, u) - _sps_tail(THRESHOLDS.t_pingpong, u_f)
        assert bracket > 0.0
        assert m.pingpong_rate == pytest.approx(m.triggered_rate * bracket, rel=1e-12)

    def test_pingpong_clamp_records_and_warns(self):
        diag = ClampDiagnostics()
        # A huge completion threshold with a tiny return window forces the
        # bracket negative: P(S >= T at u) ~ 0 while P(S >= T_p at u_f) ~ 1.
        thresholds = HandoverThresholds(t_threshold=60.0, t_pingpong=0.01, q_out=0.5)
        with pytest.warns(UserWarning, match="clamped"):
            m = _sps_metrics(thresholds, diagnostics=diag)
        assert m.pingpong_rate == 0.0
        assert diag.count == 1
        assert diag.last_value < 0.0

    def test_pingpong_roundoff_clamp_records_without_warning(self, monkeypatch):
        # Tails P(S >= T | u) = 0.5 and P(S >= T_p | u_f) one ulp above it:
        # the bracket is -1.1e-16, roundoff rather than a real event.
        tails = (0.5, 0.25, math.nextafter(0.5, 1.0))
        monkeypatch.setattr(analytics, "marcum_q1", lambda a, bs: tails)
        diag = ClampDiagnostics()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = _sps_metrics(diagnostics=diag)
        assert m.pingpong_rate == 0.0
        assert diag.count == 1
        assert -analytics.PINGPONG_CLAMP_TOL < diag.last_value < 0.0

    def test_real_config_roundoff_clamp_is_silent(self):
        # lambda_S = 2e-6, sigma = 10 m: the SpS bracket comes out at -2.2e-16.
        cfg = _envelope_config(2e-6, 10.0, 60.0, 1.0, 4.0)
        diag = analytics.PINGPONG_CLAMP_DIAGNOSTICS
        before = diag.count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics = analytic_metrics(cfg)
        assert diag.count == before + 1
        assert -analytics.PINGPONG_CLAMP_TOL < diag.last_value < 0.0
        assert metrics[PairKind.SPS].pingpong_rate == 0.0

    def test_compute_metrics_consistency(self):
        m = _sps_metrics()
        assert m.pair is PairKind.SPS
        assert m.handover_rate <= m.triggered_rate
        assert 0.0 <= m.failure_rate <= 1.0
        assert m.pingpong_rate >= 0.0

    def test_compute_metrics_validates_inputs(self):
        args = (PairKind.SPS, THRESHOLDS, 218.73, *_sps_factors(), 1e8, 10.0, MOBILITY, 2e-5, 150.0)
        for pos, bad in ((2, -1.0), (5, 0.0), (6, 0.0), (8, 0.0), (9, 0.0)):
            with pytest.raises(ValueError):
                compute_metrics(*args[:pos], bad, *args[pos + 1:])
        # A target tier at least as strong as its serving tier: u = lam_star * xi >= 1.
        with pytest.raises(ValueError, match="lam_star"):
            compute_metrics(*args[:3], 2.0, *args[4:])

    def test_each_marcum_tail_evaluated_once(self, monkeypatch):
        # P(S >= T | u), P(S >= T | u_f) and P(S >= T_p | u_f): one Marcum-Q
        # call with three distinct b per hotspot pair, none for the Rayleigh
        # pair.
        calls = []

        def counting(a, bs):
            calls.append((a, bs))
            return marcum_q1(a, bs)

        monkeypatch.setattr(analytics, "marcum_q1", counting)
        _sps_metrics()
        assert len(calls) == 1
        _a, bs = calls[0]
        assert len(bs) == 3
        assert len(set(bs)) == 3
        calls.clear()
        sm_factors = make_erb_pair(
            default_macro_params(), default_small_params(),
            np.array([353.55, 0.0]), THRESHOLDS.q_out,
        )
        compute_metrics(
            PairKind.SM, THRESHOLDS, 353.55, *sm_factors, 1e8, 10.0, MOBILITY, 2e-6, 150.0
        )
        assert calls == []

    @given(
        mean_d=st.floats(min_value=10.0, max_value=2000.0),
        tx_power=st.floats(min_value=5.0, max_value=28.0),
        n_bs=st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_triggered_rate_nonnegative_and_scales(self, mean_d, tx_power, n_bs):
        # The target power sweeps u = lam_star * xi across (0, 1).
        hotspot = dataclasses.replace(default_hotspot_params(), tx_power=tx_power)
        u, u_f = make_erb_pair(
            default_small_params(), hotspot, np.array([mean_d, 0.0]), THRESHOLDS.q_out
        )

        def metrics(n):
            return compute_metrics(
                PairKind.SPS, THRESHOLDS, mean_d, u, u_f, 25e6, n, MOBILITY, 2e-5, 150.0
            )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # ping-pong clamps
            single, double = metrics(n_bs), metrics(2.0 * n_bs)
        for name in ("triggered_rate", "handover_rate", "failure_rate", "pingpong_rate"):
            assert getattr(single, name) >= 0.0
        assert double.triggered_rate == pytest.approx(2.0 * single.triggered_rate, rel=1e-9)
        assert double.handover_rate == pytest.approx(2.0 * single.handover_rate, rel=1e-9)
        assert double.pingpong_rate == pytest.approx(2.0 * single.pingpong_rate, rel=1e-9)
        assert double.failure_rate == single.failure_rate


#: float.hex of ``analytic_metrics`` at every 42nd point of the 504-point
#: envelope grid (lambda_S, sigma, V km/h, T, T_p), recorded before the
#: hotspot tails shared one Marcum-Q call: per point the SM, SpS and SpM
#: rows of (H_t, H, H_f, H_p).
ENVELOPE_PIN = (
    ((1e-06, 5.0, 5.0, 0.5, 2.0), (
        "0x1.1b2e07246c22fp-11", "0x1.1b2dbde3bf1f0p-11", "0x1.414845d428d39p-18", "0x1.9cb9c9b6da5bbp-25",
        "0x1.d1c5f6fe1225ap-11", "0x1.d1c5f6fe1225ap-11", "0x0.0p+0", "0x0.0p+0",
        "0x1.8191b297c9865p-13", "0x1.8191b297c9865p-13", "0x0.0p+0", "0x0.0p+0",
    )),
    ((1e-06, 100.0, 120.0, 0.5, 2.0), (
        "0x1.414309595716fp-7", "0x1.408843ea841d2p-7", "0x1.68d701926e9b1p-9", "0x1.002c8f81d1da3p-11",
        "0x1.105b92e251464p-6", "0x1.105b92a8447c6p-6", "0x1.5a00b7528d78bp-26", "0x1.faa29a6c61413p-27",
        "0x1.b6d2bf03a44f0p-9", "0x1.b6d2bf03a44e9p-9", "0x1.a734b9aacdf92p-51", "0x0.0p+0",
    )),
    ((2e-06, 20.0, 60.0, 0.5, 2.0), (
        "0x1.01fc3ecc5e7ddp-7", "0x1.01afe2b166798p-7", "0x1.6f7cb22d0629cp-10", "0x1.a85fd71029e39p-13",
        "0x1.ad1b4d1991eadp-7", "0x1.ad1b4d1991ea4p-7", "0x1.74fe7d99d67e5p-51", "0x0.0p+0",
        "0x1.5f66ad095baacp-9", "0x1.5f66ad095ba5cp-9", "0x1.7f8b8c3448df6p-47", "0x0.0p+0",
    )),
    ((5e-06, 5.0, 5.0, 0.5, 2.0), (
        "0x1.363be602cd584p-10", "0x1.363a441c58cf4p-10", "0x1.a22eb2a1eedecp-16", "0x1.2625d6f8e275ap-21",
        "0x1.0474fb952e52fp-9", "0x1.0474fb952e498p-9", "0x1.7f5ae4a538e56p-46", "0x0.0p+0",
        "0x1.a68d63b96b874p-12", "0x1.a68d63b96b874p-12", "0x0.0p+0", "0x0.0p+0",
    )),
    ((5e-06, 100.0, 120.0, 0.5, 2.0), (
        "0x1.5ff44c9ed0113p-6", "0x1.5bcfdab76b1abp-6", "0x1.d263f296e4a6fp-7", "0x1.45b92d0af8b3dp-8",
        "0x1.52997d51de860p-5", "0x1.5281a25a928c7p-5", "0x1.bf2d04c8ffd24p-12", "0x1.e46763a620304p-12",
        "0x1.e70442df62adcp-8", "0x1.e70442d446dd5p-8", "0x1.96769dcc76713p-28", "0x1.3e51230f1d128p-10",
    )),
    ((1e-05, 20.0, 60.0, 0.5, 2.0), (
        "0x1.1aa2a7e12f0fap-6", "0x1.18f016ae0b26ap-6", "0x1.dc9d1237f056fp-8", "0x1.1d31dad7cbbe2p-9",
        "0x1.e487ecf604ee4p-6", "0x1.e487ecf604ed5p-6", "0x1.4b8ce16c4ce21p-49", "0x1.86992f1ee7439p-43",
        "0x1.817e209b86b1dp-8", "0x1.817e209b86b16p-8", "0x1.3d71a03345958p-50", "0x1.817e209b86b1dp-60",
    )),
    ((2e-05, 5.0, 5.0, 0.5, 2.0), (
        "0x1.30daeae7fc3a7p-9", "0x1.30d445dde14cep-9", "0x1.b0fb35f00d771p-14", "0x1.2b00e44cb42aap-18",
        "0x1.04c36d4aedb46p-8", "0x1.04c36d4aedb41p-8", "0x1.f153522273532p-51", "0x0.0p+0",
        "0x1.9f62911f7f148p-11", "0x1.9f62911f7f148p-11", "0x0.0p+0", "0x0.0p+0",
    )),
    ((2e-05, 100.0, 120.0, 0.5, 2.0), (
        "0x1.59da244d93c6dp-5", "0x1.494cad2e41ab5p-5", "0x1.d5fcdecfced83p-5", "0x1.b85e112cb4f44p-6",
        "0x1.bbb43394904f9p-4", "0x1.bae8ff0bbbc95p-4", "0x1.69c9c51519f2dp-9", "0x1.cc88fdfef58e7p-8",
        "0x1.f4a2796392c11p-7", "0x1.f14c564511127p-7", "0x1.891b5be35bc62p-7", "0x1.ef219398384bbp-7",
    )),
    ((5e-05, 20.0, 60.0, 0.5, 2.0), (
        "0x1.35a5d3d2cc07cp-5", "0x1.2c15d7060f8a1p-5", "0x1.30786e616bb2fp-5", "0x1.300454c4d5638p-6",
        "0x1.1bd4e70863cb8p-4", "0x1.1bd1ced8cea66p-4", "0x1.286b4c8a132a8p-14", "0x1.b3c6e8a7837a0p-12",
        "0x1.a8a07deb3f77bp-7", "0x1.a8a07deb3f771p-7", "0x1.2a0a97b0a14c2p-43", "0x1.a8a04f303be26p-7",
    )),
    ((0.0001, 5.0, 5.0, 0.5, 2.0), (
        "0x1.4dfe8d91208b6p-8", "0x1.4dd8a7593be57p-8", "0x1.19b1bc2fc72d5p-11", "0x1.a8697e7633781p-15",
        "0x1.255cdb7198335p-7", "0x1.255cdb7198331p-7", "0x1.221b453ec345dp-51", "0x0.0p+0",
        "0x1.c783ef53cc861p-10", "0x1.c783ef53cc856p-10", "0x1.a74ed9696e026p-51", "0x0.0p+0",
    )),
    ((0.0001, 100.0, 120.0, 0.5, 2.0), (
        "0x1.7ae8f33ee97dep-4", "0x1.2583ca8d038c0p-4", "0x1.0850e18b3fbb1p-2", "0x1.24947beec8899p-4",
        "0x1.bd9a5d2843444p-2", "0x1.bc4a2ea33d9f6p-2", "0x1.29a6a47427deep-8", "0x1.71538a4d62bfdp-5",
        "0x1.4b7394b5df856p-5", "0x1.ecba3e1b7f5c8p-6", "0x1.387d8ce79e869p-2", "0x1.ecb9f0682f586p-6",
    )),
    ((0.0004, 20.0, 60.0, 0.5, 2.0), (
        "0x1.aa96c5e855c22p-4", "0x1.4776c8ae2a813p-4", "0x1.0ffa41df06baap-2", "0x1.469cbacfe10bap-4",
        "0x1.0be0013a3b6e4p-2", "0x1.095145043df64p-2", "0x1.e18e3b244cbd8p-7", "0x1.53b798c9fd94ep-4",
        "0x1.315d186a6aa9bp-5", "0x1.d4a9b98d5b2bep-6", "0x1.a2cbd60838081p-2", "0x1.d4a9b98d5b2bep-6",
    )),
)


class TestEnvelope:
    """The closed forms over the documented envelope: lambda_S in [1e-6, 4e-4],
    sigma in [5, 250] m, V in [5, 120] km/h, T in [0.5, 2] s, T_p in [2, 8] s,
    default tier ratios and radio parameters."""

    @given(
        lambda_s=st.floats(min_value=-6.0, max_value=math.log10(4e-4)).map(lambda e: 10.0**e),
        sigma=st.floats(min_value=5.0, max_value=250.0),
        v_kmh=st.floats(min_value=5.0, max_value=120.0),
        t=st.floats(min_value=0.5, max_value=2.0),
        t_p=st.floats(min_value=2.0, max_value=8.0),
    )
    # Configs whose sojourn tails need a = 1/(2 sigma sqrt(lam)) above ~37.4.
    @example(lambda_s=1e-6, sigma=20.0, v_kmh=60.0, t=1.0, t_p=4.0)
    @example(lambda_s=2e-6, sigma=10.0, v_kmh=60.0, t=1.0, t_p=4.0)
    @example(lambda_s=1e-5, sigma=5.0, v_kmh=60.0, t=1.0, t_p=4.0)
    # Large finite arguments: b^2/2 overflows in the Marcum tails (1e160), the
    # SM exponent overflows (1e200), b itself overflows (1e308), and a^2/2
    # overflows (sigma = 1e-300).
    @example(lambda_s=2e-5, sigma=150.0, v_kmh=60.0, t=1e160, t_p=4.0)
    @example(lambda_s=2e-5, sigma=150.0, v_kmh=60.0, t=1e200, t_p=4.0)
    @example(lambda_s=2e-5, sigma=150.0, v_kmh=60.0, t=1e308, t_p=4.0)
    @example(lambda_s=2e-5, sigma=1e-300, v_kmh=60.0, t=1.0, t_p=4.0)
    @settings(max_examples=200, deadline=None)
    def test_metrics_valid_or_named_domain_error(self, lambda_s, sigma, v_kmh, t, t_p):
        cfg = _envelope_config(lambda_s, sigma, v_kmh, t, t_p)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # real ping-pong clamps
                metrics = analytic_metrics(cfg)
        except DegenerateBoundaryError:
            return
        assert set(metrics) == set(PairKind)
        for m in metrics.values():
            values = (m.triggered_rate, m.handover_rate, m.failure_rate, m.pingpong_rate)
            assert all(math.isfinite(v) for v in values), m
            dataclasses.replace(m)  # re-runs the HandoverMetrics invariants

    def test_subnormal_sigma_takes_the_small_sigma_limit(self):
        # Below sigma ~ 1e-306 a = 1/(2 sigma sqrt(lam)) overflows, and at
        # 5e-324 2 sigma sqrt(lam) underflows to 0; the hotspot tails take the
        # sigma -> 0 limit that sigma = 1e-305 reaches inside marcum_q1.  At
        # 1e-10 and 1e-6 (a above 400, every b far from it) marcum_q1 takes
        # that limit too, with no O(a) window.
        def at(sigma):
            return analytic_metrics(_envelope_config(2e-5, sigma, 60.0, 1.0, 4.0))

        limit = at(1e-305)
        sps, spm = limit[PairKind.SPS], limit[PairKind.SPM]
        assert sps.handover_rate == sps.triggered_rate
        assert sps.failure_rate == sps.pingpong_rate == 0.0
        assert spm.handover_rate == spm.pingpong_rate == spm.triggered_rate
        assert spm.failure_rate == 0.0
        for sigma in (1e-6, 1e-10, 1e-307, 1e-320, 5e-324):
            assert at(sigma) == limit, sigma

    def test_metrics_bits_pinned(self):
        for point, rows in ENVELOPE_PIN:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # real ping-pong clamps
                metrics = analytic_metrics(_envelope_config(*point))
            got = tuple(
                v.hex()
                for kind in (PairKind.SM, PairKind.SPS, PairKind.SPM)
                for v in dataclasses.astuple(metrics[kind])[1:]
            )
            assert got == rows, point
