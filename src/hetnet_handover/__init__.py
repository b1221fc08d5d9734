"""Handover analysis toolkit for two-tier cellular networks with hotspots.

The package pairs closed-form handover metrics (triggered, completed,
failed, and ping-pong handover rates under a boundary-crossing model) with
an event-driven Monte Carlo simulator, so every analytic expression can be
checked against a measurement of the same quantity.

Modules
-------
geometry   Rectangular regions, Poisson and clustered base-station layouts.
mobility   Random-waypoint motion with a boundary-biased waypoint mixture.
radio      Per-tier radio parameters and exact cell-boundary circles.
specfun    The Marcum-Q function of the hotspot sojourn tails.
analytics  Distance laws and the closed-form handover rate expressions.
simengine  Event-driven simulator, campaigns and a configuration's closed forms.
fixtures   Default parameter sets and the reference validation campaign.
cli        ``hetnet-handover`` command line front end.
"""

from .analytics import (
    HandoverMetrics,
    HandoverThresholds,
    PairKind,
    compute_metrics,
    mean_cluster_distance_numeric,
    mean_pair_distance,
    mean_r_sm,
)
from .geometry import ClusterConfig, Region, sample_ppp, sample_tcp
from .mobility import (
    MobilityConfig,
    Trajectory,
    generate_trajectory,
    mean_transition_length,
)
from .radio import (
    DegenerateBoundaryError,
    TierRadioParams,
    make_erb_pair,
)
from .simengine import (
    EventCounts,
    MetricsEstimate,
    SimConfig,
    analytic_metrics,
    run_campaign,
    run_trial,
    summarize_trials,
)
from .specfun import marcum_q1

__version__ = "0.1.0"

__all__ = [
    "HandoverMetrics",
    "HandoverThresholds",
    "PairKind",
    "compute_metrics",
    "mean_cluster_distance_numeric",
    "mean_pair_distance",
    "mean_r_sm",
    "ClusterConfig",
    "Region",
    "sample_ppp",
    "sample_tcp",
    "MobilityConfig",
    "Trajectory",
    "generate_trajectory",
    "mean_transition_length",
    "DegenerateBoundaryError",
    "TierRadioParams",
    "make_erb_pair",
    "EventCounts",
    "MetricsEstimate",
    "SimConfig",
    "analytic_metrics",
    "run_campaign",
    "run_trial",
    "summarize_trials",
    "marcum_q1",
    "__version__",
]
