"""Closed-form handover analytics.

Distance laws
-------------
For a uniformly deployed target tier (density ``lam``), the distance from a
random point to its nearest BS is Rayleigh with

    pdf f(r) = 2 pi lam r exp(-pi lam r^2),   mean 1/(2 sqrt(lam)).

For a hotspot (cluster) BS whose cluster center sits at distance ``w`` from
the serving BS, the hotspot-to-serving distance is Rician:

    f(r | w) = (r / sigma^2) exp(-(r^2 + w^2) / (2 sigma^2)) I0(w r / sigma^2)
    F(r | w) = 1 - Q1(w / sigma, r / sigma)

Averaged over the Rayleigh-distributed ``w`` the distance is itself
Rayleigh, so `mean_cluster_distance_numeric` is the exact closed form
``sqrt(1/(4 lam) + pi sigma^2 / 2)``.  The sojourn tails of `_sojourn_tails`
inherit these laws: a Rayleigh tail for ``SM`` and a Marcum-Q tail for the
hotspot pairs.

Rates
-----
With ``u = lam_star * xi`` the boundary-circle radius scales as
``g(u) = sqrt(u) / (1 - u)`` times the pair distance, and the triggered rate
over a region of area ``A`` containing ``N`` target BSs on average is

    H_t = (2 / A) * g(u) * N * E[R] / (1/V + pause/E[L'])

Multiplying by the probability that the in-circle sojourn exceeds the
threshold gives the handover rate; failure and ping-pong rates follow the
same pattern with the failure-boundary factor ``u_f = lam_star * xi_f``.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass

from .mobility import MobilityConfig, mean_transition_length
from .specfun import marcum_q1


class PairKind(enum.Enum):
    """Handover pair: target tier first, serving tier second.

    ``SM``  — uniform small cell entered while served by a macro BS;
    ``SPS`` — hotspot small cell entered while served by a uniform small cell;
    ``SPM`` — hotspot small cell entered while served by a macro BS.
    """

    SM = "SM"
    SPS = "SpS"
    SPM = "SpM"


@dataclass(frozen=True)
class HandoverThresholds:
    t_threshold: float  # minimum in-circle sojourn for a successful handover, s
    t_pingpong: float  # return-time window that classifies a ping-pong, s
    q_out: float  # linear outage offset defining the failure boundary

    def __post_init__(self) -> None:
        if self.t_threshold < 0:
            raise ValueError(f"t_threshold must be >= 0, got {self.t_threshold}")
        if self.t_pingpong <= 0:
            raise ValueError(f"t_pingpong must be positive, got {self.t_pingpong}")
        if not (0.0 < self.q_out < 1.0):
            raise ValueError(
                f"q_out must be a linear ratio in (0, 1), got {self.q_out}"
            )


#: The four handover metrics, in column order: column name and
#: `HandoverMetrics` field.
METRICS = (
    ("H_t", "triggered_rate"),
    ("H", "handover_rate"),
    ("H_f", "failure_rate"),
    ("H_p", "pingpong_rate"),
)


@dataclass(frozen=True)
class HandoverMetrics:
    pair: PairKind
    triggered_rate: float  # boundary-circle entries per second
    handover_rate: float  # completed handovers per second
    failure_rate: float  # failures per triggered event (dimensionless)
    pingpong_rate: float  # ping-pongs per second

    def __post_init__(self) -> None:
        for _, name in METRICS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.handover_rate > self.triggered_rate * (1 + 1e-12):
            raise ValueError("handover_rate cannot exceed triggered_rate")
        if self.failure_rate > 1 + 1e-12:
            raise ValueError("failure_rate is a per-trigger ratio and cannot exceed 1")


# ---------------------------------------------------------------------------
# Distance distributions
# ---------------------------------------------------------------------------

def mean_r_sm(lambda_m: float) -> float:
    """Mean nearest-BS distance of a uniform tier: ``1 / (2 sqrt(lambda))``."""
    if lambda_m <= 0:
        raise ValueError(f"lambda_m must be positive, got {lambda_m}")
    return 1.0 / (2.0 * math.sqrt(lambda_m))


def mean_cluster_distance_numeric(lam: float, sigma: float) -> float:
    """Mean hotspot-to-serving distance, in exact closed form.

    The offset from the serving BS to the cluster center has a Rayleigh
    length of scale ``1/sqrt(2 pi lam)`` and a uniform direction, so it is an
    isotropic 2-D Gaussian with per-axis variance ``1/(2 pi lam)``.  The
    child displacement adds ``sigma^2`` per axis, so the distance is
    Rayleigh with mean

        sqrt(1/(4 lam) + pi sigma^2 / 2).

    It equals the Rician mean averaged over the Rayleigh center distance;
    the tests check it against that quadrature and against Monte Carlo.
    """
    if lam <= 0 or sigma <= 0:
        raise ValueError("lam and sigma must be positive")
    return math.sqrt(1.0 / (4.0 * lam) + math.pi * sigma * sigma / 2.0)


def mean_pair_distance(pair: PairKind, lam: float, sigma: float) -> float:
    """Mean target-to-serving distance for a pair kind.

    ``lam`` is the serving tier's density.  ``SM`` uses the uniform-tier
    mean; the hotspot pairs use the Rayleigh mean of the Rician law of
    scatter ``sigma`` mixed over the serving tier (``SPS`` the small-cell
    density, ``SPM`` the macro density).  Both are closed forms.
    """
    if pair is PairKind.SM:
        return mean_r_sm(lam)
    return mean_cluster_distance_numeric(lam, sigma)


# ---------------------------------------------------------------------------
# Rate formulas
# ---------------------------------------------------------------------------

@dataclass
class ClampDiagnostics:
    """Counts ping-pong evaluations whose raw bracket came out negative."""

    count: int = 0
    last_value: float | None = None

    def record(self, value: float) -> None:
        self.count += 1
        self.last_value = value


PINGPONG_CLAMP_DIAGNOSTICS = ClampDiagnostics()

#: A negative ping-pong bracket above ``-PINGPONG_CLAMP_TOL`` is roundoff in
#: the difference of two tails near 1 (the envelope's clamps all lie within
#: a few ulps of zero); it is clamped and recorded but not warned about.
PINGPONG_CLAMP_TOL = 1e-12


def _radius_gain(lam_xi: float) -> float:
    """``g(u) = sqrt(u) / (1 - u)``: boundary radius per unit pair distance."""
    if not (0.0 < lam_xi < 1.0):
        raise ValueError(f"lam_star * xi must lie in (0, 1), got {lam_xi}")
    return math.sqrt(lam_xi) / (1.0 - lam_xi)


def movement_time_per_meter(mobility: MobilityConfig) -> float:
    """``1/V + pause/E[L']``: seconds of wall clock per meter traveled."""
    return 1.0 / mobility.velocity + mobility.pause / mean_transition_length(mobility)


def _rayleigh_tail(lam: float, velocity: float, t: float, u: float) -> float:
    """The ``SM`` sojourn tail of `_sojourn_tails`; 0 where its exponent
    overflows."""
    try:
        return math.exp(-4.0 * lam * velocity**2 * t**2 * (1.0 - u) ** 2 / (math.pi * u))
    except OverflowError:
        return 0.0


def _sojourn_tails(pair, tails, velocity, lam, sigma) -> tuple:
    """``P(S >= t | u)``, the probability that the in-circle sojourn is at
    least ``t``, for each ``(t, u)`` of ``tails``.

    The circle radius is proportional to the (random) pair distance, so the
    sojourn tail inherits the pair's distance law over the serving-tier
    density ``lam``: the ``SM`` branch is the Rayleigh tail in closed
    exponential form, and the hotspot branches are Marcum-Q tails of the
    Rician mixture with scatter ``sigma``,

        SM      :  exp(-4 lam V^2 t^2 (1-u)^2 / (pi u))
        SPS, SPM:  Q1( 1/(2 sigma sqrt(lam)), 2 t V (1-u) / (pi sigma sqrt(u)) )

    with ``V = velocity``; ``t = 0`` gives exactly 1.  The Marcum tails of a
    hotspot pair share ``a`` and are taken in one :func:`marcum_q1` call.
    Only ``lam`` and ``sigma`` are checked here: `compute_metrics` has
    checked each ``u``, and its thresholds and mobility refuse a negative
    ``t`` and a non-positive ``velocity``.

    Where ``a`` overflows (a tiny ``sigma``), each hotspot tail is the limit
    that `marcum_q1` returns where ``a^2/2`` overflows: 1, 0 or 1/2 as
    ``b/a = 4 t V (1-u) sqrt(lam) / (pi sqrt(u))``, which does not depend on
    ``sigma``, is below, above or equal to 1.
    """
    if lam <= 0 or sigma <= 0:
        raise ValueError("lam and sigma must be positive")
    scale = 2.0 * sigma * math.sqrt(lam)
    a = 1.0 / scale if scale > 0.0 else math.inf
    if pair is PairKind.SM:
        q = tuple(_rayleigh_tail(lam, velocity, t, u) for t, u in tails)
    elif a == math.inf:
        ratios = (4.0 * t * velocity * (1.0 - u) * math.sqrt(lam) / (math.pi * math.sqrt(u))
                  for t, u in tails)
        q = tuple(0.5 if r == 1.0 else 1.0 if r < 1.0 else 0.0 for r in ratios)
    else:
        # A b that overflows is past where Q1 reaches its b -> inf limit, 0,
        # which marcum_q1 returns at the largest float.
        bs = (2.0 * t * velocity * (1.0 - u) / (math.pi * sigma * math.sqrt(u)) for t, u in tails)
        q = marcum_q1(a, tuple(min(b, sys.float_info.max) for b in bs))
    return tuple(1.0 if t == 0.0 else q_k for (t, _u), q_k in zip(tails, q))


def compute_metrics(
    pair: PairKind,
    thresholds: HandoverThresholds,
    mean_distance: float,
    u: float,
    u_f: float,
    region_area: float,
    n_bs_mean: float,
    mobility: MobilityConfig,
    lam: float,
    sigma: float,
    diagnostics: ClampDiagnostics = PINGPONG_CLAMP_DIAGNOSTICS,
) -> HandoverMetrics:
    """All four closed-form metrics for one pair kind.

    ``u`` and ``u_f`` are the handover and failure boundary factors
    ``lam_star * xi`` and ``lam_star * xi_f`` of `radio.make_erb_pair` for a
    pair that `radio.boundary_domain` keeps, ``lam`` is the serving-tier
    density and ``sigma`` the hotspot scatter.
    With the sojourn tail ``P(S >= t | u)`` of :func:`_sojourn_tails`, each
    factor is evaluated once, and a hotspot pair's three Marcum-Q tails in one
    :func:`marcum_q1` call that shares their Poisson(x) series:

        H_t = (2 / A) g(u) N E[R] / (1/V + pause/E[L'])
        H   = H_t P(S >= T | u)
        H_f = [g(u_f) / g(u)] (1 - P(S >= T | u_f))
        H_p = H_t [P(S >= T | u) - P(S >= T_p | u_f)]

    ``H_f`` is per triggered event: the failure-boundary entry rate differs
    from the triggered rate only in the radius gain, so the mean distance,
    region area and BS count cancel, and the gap sojourn is the complement
    of the tail at ``u_f``.  The ping-pong bracket deliberately compares the
    handover boundary (``u``) with the failure boundary (``u_f``), which can
    drive it negative for small ``T_p``; a negative bracket is clamped to
    zero, since a negative rate is meaningless, and recorded on
    ``diagnostics``.  It is warned about only below ``-PINGPONG_CLAMP_TOL``,
    where it is not roundoff.
    """
    if mean_distance < 0:
        raise ValueError(f"mean_distance must be >= 0, got {mean_distance}")
    if region_area <= 0 or n_bs_mean <= 0:
        raise ValueError("region_area and n_bs_mean must be positive")
    gain = _radius_gain(u)
    gain_f = _radius_gain(u_f)
    h_t = (
        (2.0 / region_area)
        * gain
        * n_bs_mean
        * mean_distance
        / movement_time_per_meter(mobility)
    )
    t, t_p = thresholds.t_threshold, thresholds.t_pingpong
    p_t, p_t_f, p_tp_f = _sojourn_tails(
        pair, ((t, u), (t, u_f), (t_p, u_f)), mobility.velocity, lam, sigma
    )
    bracket = p_t - p_tp_f
    if bracket < 0.0:
        diagnostics.record(bracket)
        if bracket < -PINGPONG_CLAMP_TOL:
            warnings.warn(
                f"ping-pong bracket negative ({bracket:.3e}) for {pair.value} at "
                f"T={thresholds.t_threshold}, Tp={thresholds.t_pingpong}; clamped to 0",
                UserWarning,
                stacklevel=2,
            )
        bracket = 0.0
    return HandoverMetrics(
        pair=pair,
        triggered_rate=h_t,
        handover_rate=h_t * p_t,
        failure_rate=gain_f / gain * (1.0 - p_t_f),
        pingpong_rate=h_t * bracket,
    )
