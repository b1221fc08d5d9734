"""The default parameter sets and the reference validation campaign.

``cli.default_spec`` builds its defaults from the ``default_*`` functions.
``reference_sim_config`` is the fixed campaign behind the pinned simulation
constants and the 15 % acceptance window; ``perfbench/`` imports it, and the
tests read it from ``demos/reference.ini``.
"""

from __future__ import annotations

import dataclasses

from .analytics import HandoverThresholds
from .geometry import ClusterConfig, Region
from .mobility import MobilityConfig
from .radio import TierRadioParams, db_to_linear
from .simengine import SimConfig


# ---------------------------------------------------------------------------
# Default radio/tier parameters (urban macro / small-cell path loss at 1 m)
# ---------------------------------------------------------------------------

def default_macro_params() -> TierRadioParams:
    return TierRadioParams(
        tx_power=46.0,
        antenna_gain=14.0,
        bias=0.0,
        pathloss_intercept=db_to_linear(-15.3),
        pathloss_exponent=3.76,
    )


def default_small_params() -> TierRadioParams:
    return TierRadioParams(
        tx_power=30.0,
        antenna_gain=5.0,
        bias=4.0,
        pathloss_intercept=db_to_linear(-30.6),
        pathloss_exponent=3.67,
    )


def default_hotspot_params() -> TierRadioParams:
    """The small tier 6 dB down: ``tx_power`` 24 dBm, the rest equal."""
    # Equal parameters would make every hotspot/small boundary degenerate (a
    # straight line), so the hotspot tier defaults to a lower transmit power.
    return dataclasses.replace(default_small_params(), tx_power=24.0)


def default_mobility() -> MobilityConfig:
    return MobilityConfig(
        sigma_rwp=300.0,
        p_z=0.3,
        sigma_z=300.0,
        velocity=60.0 / 3.6,
        pause=5.0,
    )


def default_thresholds() -> HandoverThresholds:
    return HandoverThresholds(
        t_threshold=1.0,
        t_pingpong=4.0,
        q_out=db_to_linear(-3.0),
    )


def reference_sim_config(master_seed: int = 0) -> SimConfig:
    """The fixed validation campaign behind the pinned simulation constants.

    A 10 km x 10 km region with one expected hotspot child per parent keeps
    the expected hotspot count at 10 while making the trial-count estimator
    variance and the finite-region border deficit small enough for a 15%
    analytic-vs-simulated acceptance window.
    """
    return SimConfig(
        region=Region(0.0, 10_000.0, 0.0, 10_000.0),
        macro=default_macro_params(),
        small=default_small_params(),
        hotspot=default_hotspot_params(),
        lambda_m=1e-7,
        lambda_s=2e-5,
        cluster=ClusterConfig(lambda_p=1e-7, sigma=150.0, mean_offspring=1.0),
        mobility=default_mobility(),
        thresholds=default_thresholds(),
        n_users=10,
        n_moves=150,
        n_trials=200,
        master_seed=master_seed,
    )
