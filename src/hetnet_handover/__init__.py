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
specfun    Bessel and Marcum-Q special functions used by the closed forms.
analytics  Distance laws and the closed-form handover rate expressions.
simengine  Event-driven trajectory simulator and analytic/simulated tables.
cli        ``hetnet-handover`` command line front end.
"""

from .analytics import (
    HandoverMetrics,
    HandoverThresholds,
    PairKind,
    compute_metrics,
    mean_cluster_distance_expsum,
    mean_cluster_distance_numeric,
    mean_cluster_distance_ub,
    mean_pair_distance,
    mean_r_sm,
    prob_sojourn_ge,
    rician_cdf,
    rician_pdf,
)
from .geometry import (
    TIER_HOTSPOT,
    TIER_MACRO,
    TIER_SMALL,
    ClusterConfig,
    PointSet,
    Region,
    nearest_point_batch,
    partition_five,
    sample_ppp,
    sample_tcp,
)
from .mobility import (
    MobilityConfig,
    Trajectory,
    empirical_occupancy,
    generate_trajectory,
    mean_transition_length,
)
from .radio import (
    Circle,
    DegenerateBoundaryError,
    ErbPair,
    TierRadioParams,
    erb_circle,
    make_erb_pair,
)
from .simengine import (
    ComparisonTable,
    EventCounts,
    MetricsEstimate,
    SimConfig,
    analytic_metrics,
    compare_to_analytics,
    run_campaign,
    run_trial,
    summarize_trials,
)
from .specfun import i0_exp_approx, i0_series, marcum_q1, marcum_q1_quadrature

__version__ = "0.1.0"

__all__ = [
    "HandoverMetrics",
    "HandoverThresholds",
    "PairKind",
    "compute_metrics",
    "mean_cluster_distance_expsum",
    "mean_cluster_distance_numeric",
    "mean_cluster_distance_ub",
    "mean_pair_distance",
    "mean_r_sm",
    "prob_sojourn_ge",
    "rician_cdf",
    "rician_pdf",
    "TIER_HOTSPOT",
    "TIER_MACRO",
    "TIER_SMALL",
    "ClusterConfig",
    "PointSet",
    "Region",
    "nearest_point_batch",
    "partition_five",
    "sample_ppp",
    "sample_tcp",
    "MobilityConfig",
    "Trajectory",
    "empirical_occupancy",
    "generate_trajectory",
    "mean_transition_length",
    "Circle",
    "DegenerateBoundaryError",
    "ErbPair",
    "TierRadioParams",
    "erb_circle",
    "make_erb_pair",
    "ComparisonTable",
    "EventCounts",
    "MetricsEstimate",
    "SimConfig",
    "analytic_metrics",
    "compare_to_analytics",
    "run_campaign",
    "run_trial",
    "summarize_trials",
    "i0_exp_approx",
    "i0_series",
    "marcum_q1",
    "marcum_q1_quadrature",
    "__version__",
]
