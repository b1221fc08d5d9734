"""The pinned regression constants, each recomputed by its oracle, and the
default parameter sets of ``hetnet_handover.fixtures``."""

import math

import pytest

from hetnet_handover import fixtures
from hetnet_handover.analytics import PairKind
from hetnet_handover.radio import TierRadioParams, db_to_linear
from hetnet_handover.simengine import analytic_metrics

from oracles import (
    PINS,
    cluster_mean_rician_mixture,
    i0_approx_max_rel_err,
    marcum_q1_mpmath,
    marcum_q1_quadrature,
    mean_cluster_distance_expsum,
)

#: The pin that needs a full 200-trial campaign; the acceptance check of the
#: simulated trigger rate recomputes it.
SLOW_PIN = "sim_triggered_rate_sps_reference_seed0"

#: The oracle of every other pin.
PIN_ORACLES = {
    "marcum_q1_at_1_1": lambda: marcum_q1_quadrature(1.0, 1.0),
    "marcum_q1_at_79_80": lambda: marcum_q1_mpmath(79.0, 80.0),
    "xi_6db_alpha4": lambda: 10.0 ** ((-6.0 / 10.0) * (2.0 / 4.0)),
    "xi_failure_scale_3db_alpha367": lambda: (10.0 ** (-3.0 / 10.0)) ** (2.0 / 3.67),
    "cluster_mean_numeric_lam2e-5_sigma150": lambda: cluster_mean_rician_mixture(2e-5, 150.0),
    "cluster_mean_ub_lam2e-5_sigma150": lambda: mean_cluster_distance_expsum(2e-5, 150.0),
    "analytic_triggered_rate_sps_reference": lambda: analytic_metrics(
        fixtures.reference_sim_config()
    )[PairKind.SPS].triggered_rate,
    "i0_approx_max_rel_err_interval0": lambda: i0_approx_max_rel_err(0),
    "i0_approx_max_rel_err_interval1": lambda: i0_approx_max_rel_err(1),
    "i0_approx_max_rel_err_interval2": lambda: i0_approx_max_rel_err(2),
}


def test_every_fixture_has_an_oracle_and_vice_versa():
    assert set(PINS) == set(PIN_ORACLES) | {SLOW_PIN}
    for entry in PINS.values():
        assert math.isfinite(entry["value"])
        assert 0 < entry["rel_tolerance"] < 1
        assert entry["oracle"]


@pytest.mark.parametrize("name", sorted(PIN_ORACLES))
def test_pin_matches_its_oracle(name):
    entry = PINS[name]
    assert PIN_ORACLES[name]() == pytest.approx(entry["value"], rel=entry["rel_tolerance"])


def test_default_builders_are_self_consistent():
    macro = fixtures.default_macro_params()
    small = fixtures.default_small_params()
    hotspot = fixtures.default_hotspot_params()
    # Urban path-loss intercepts: 128.1 dB and 140.7 dB at 1 km.
    pl_m = -10.0 * math.log10(macro.pathloss_intercept * 1000.0 ** -macro.pathloss_exponent)
    pl_s = -10.0 * math.log10(small.pathloss_intercept * 1000.0 ** -small.pathloss_exponent)
    assert pl_m == pytest.approx(128.1, abs=1e-9)
    assert pl_s == pytest.approx(140.7, abs=1e-9)
    # The hotspot tier shares the small-cell propagation model but transmits
    # at lower power, which keeps every boundary circle well-defined.
    assert hotspot.pathloss_exponent == small.pathloss_exponent
    assert hotspot.tx_power < small.tx_power
    # Field by field, the cached prefactor included: the small tier 6 dB down.
    assert hotspot == TierRadioParams(24.0, 5.0, 4.0, db_to_linear(-30.6), 3.67)
    assert hotspot.linear_prefactor == pytest.approx(db_to_linear(-6.0) * small.linear_prefactor)

    mob = fixtures.default_mobility()
    assert mob.velocity == pytest.approx(60.0 / 3.6)
    thr = fixtures.default_thresholds()
    assert thr.q_out == pytest.approx(10.0 ** (-0.3))


def test_reference_config_is_reproducible():
    a = fixtures.reference_sim_config()
    b = fixtures.reference_sim_config()
    assert a == b
    assert a.n_trials == 200
    assert a.master_seed == 0
    c = fixtures.reference_sim_config(master_seed=1)
    assert c.master_seed == 1
