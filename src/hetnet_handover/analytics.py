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
``sqrt(1/(4 lam) + pi sigma^2 / 2)``.  `mean_cluster_distance_ub` is the
Jensen bound ``sqrt(1/(pi lam) + 2 sigma^2)``, ``2/sqrt(pi)`` times it;
`mean_cluster_distance_expsum` is the paper's exponential-sum expression,
which exceeds the exact mean only for ``q = pi lam sigma^2`` roughly above
0.05 — see the function docstrings.

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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .mobility import MobilityConfig, mean_transition_length
from .radio import ErbPair
from .specfun import BesselApproxTable, DEFAULT_BESSEL_TABLE, marcum_q1

#: Below this cluster-size parameter q = pi*lam*sigma^2 the paper's
#: exponential-sum expression for the mean cluster distance falls below the
#: exact mean (measured crossover q ~ 0.052); a UserWarning is emitted.
UB_VALIDITY_Q_FLOOR = 0.06


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


@dataclass(frozen=True)
class HandoverMetrics:
    pair: PairKind
    triggered_rate: float  # boundary-circle entries per second
    handover_rate: float  # completed handovers per second
    failure_rate: float  # failures per triggered event (dimensionless)
    pingpong_rate: float  # ping-pongs per second

    def __post_init__(self) -> None:
        for name in ("triggered_rate", "handover_rate", "failure_rate", "pingpong_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.handover_rate > self.triggered_rate * (1 + 1e-12):
            raise ValueError("handover_rate cannot exceed triggered_rate")
        if self.failure_rate > 1 + 1e-12:
            raise ValueError("failure_rate is a per-trigger ratio and cannot exceed 1")


# ---------------------------------------------------------------------------
# Distance distributions
# ---------------------------------------------------------------------------

def pdf_r_sm(r, lambda_m: float):
    """Nearest-BS distance density for a uniform tier of density ``lambda_m``."""
    if lambda_m <= 0:
        raise ValueError(f"lambda_m must be positive, got {lambda_m}")
    r_arr = np.asarray(r, dtype=float)
    out = 2.0 * math.pi * lambda_m * r_arr * np.exp(-math.pi * lambda_m * r_arr**2)
    out = np.where(r_arr < 0, 0.0, out)
    return float(out) if np.ndim(r) == 0 else out


def cdf_r_sm(r, lambda_m: float):
    if lambda_m <= 0:
        raise ValueError(f"lambda_m must be positive, got {lambda_m}")
    r_arr = np.asarray(r, dtype=float)
    out = 1.0 - np.exp(-math.pi * lambda_m * np.clip(r_arr, 0.0, None) ** 2)
    return float(out) if np.ndim(r) == 0 else out


def mean_r_sm(lambda_m: float) -> float:
    """Mean nearest-BS distance of a uniform tier: ``1 / (2 sqrt(lambda))``."""
    if lambda_m <= 0:
        raise ValueError(f"lambda_m must be positive, got {lambda_m}")
    return 1.0 / (2.0 * math.sqrt(lambda_m))


def rician_pdf(r, w: float, sigma: float):
    """Density of the hotspot-to-serving distance given center distance ``w``.

    Evaluated in the scaled form ``(r/sigma^2) i0e(wr/sigma^2)
    exp(-(r-w)^2 / (2 sigma^2))``, which stays finite for large arguments.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if w < 0:
        raise ValueError(f"w must be >= 0, got {w}")
    r_arr = np.asarray(r, dtype=float)
    z = w * r_arr / sigma**2
    out = (
        (r_arr / sigma**2)
        * _sp.i0e(z)
        * np.exp(-((r_arr - w) ** 2) / (2.0 * sigma**2))
    )
    out = np.where(r_arr < 0, 0.0, out)
    return float(out) if np.ndim(r) == 0 else out


def rician_cdf(r, w: float, sigma: float):
    """CDF of the conditional hotspot-to-serving distance: ``1 - Q1(w/sigma, r/sigma)``."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if w < 0:
        raise ValueError(f"w must be >= 0, got {w}")
    r_arr = np.asarray(r, dtype=float)
    out = 1.0 - marcum_q1(w / sigma, np.clip(r_arr, 0.0, None) / sigma)
    out = np.where(r_arr < 0, 0.0, out)
    return float(out) if np.ndim(r) == 0 else out


def mean_cluster_distance_numeric(lam: float, sigma: float) -> float:
    """Mean hotspot-to-serving distance, in exact closed form.

    The offset from the serving BS to the cluster center is an isotropic
    2-D Gaussian with per-axis variance ``1/(2 pi lam)`` (see
    `mean_cluster_distance_ub`), and the child displacement adds ``sigma^2``
    per axis, so the distance is Rayleigh with mean

        sqrt(1/(4 lam) + pi sigma^2 / 2).

    It equals the Rician mean averaged over the Rayleigh center distance;
    the tests check it against that quadrature and against Monte Carlo.
    """
    if lam <= 0 or sigma <= 0:
        raise ValueError("lam and sigma must be positive")
    return math.sqrt(1.0 / (4.0 * lam) + math.pi * sigma * sigma / 2.0)


def mean_cluster_distance_ub(lam: float, sigma: float) -> float:
    """Proven closed-form upper bound on the mean hotspot-to-serving distance.

    The offset from the serving BS to the cluster center has a Rayleigh
    length of scale ``1/sqrt(2 pi lam)`` and a uniform direction, so it is an
    isotropic 2-D Gaussian vector with per-axis variance ``1/(2 pi lam)``.
    Adding the independent child displacement (per-axis variance
    ``sigma^2``) gives ``E[R^2] = 1/(pi lam) + 2 sigma^2``, and Jensen's
    inequality gives ``E[R] <= sqrt(E[R^2])``.  Since ``R`` is in fact
    exactly Rayleigh, the bound is ``2/sqrt(pi) ~ 1.128`` times
    `mean_cluster_distance_numeric` for every ``lam`` and ``sigma``.
    """
    if lam <= 0 or sigma <= 0:
        raise ValueError("lam and sigma must be positive")
    return math.sqrt(1.0 / (math.pi * lam) + 2.0 * sigma * sigma)


def mean_cluster_distance_expsum(
    lam: float,
    sigma: float,
    table: BesselApproxTable = DEFAULT_BESSEL_TABLE,
    interval: int = 0,
) -> float:
    """The paper's exponential-sum expression for the mean hotspot distance.

    With ``q = pi lam sigma^2`` and the exponential-sum coefficients
    ``(a_k, b_k)`` of the chosen table interval:

        sqrt(2 pi) q sigma * sum_k a_k [ 2/(2q+1-b_k^2)
                                         + b_k/(2q+1)^(3/2)
                                         + 4 b_k^2/(2q+1-b_k^2)^2 ]

    Kept for reproducing the paper; it is not a bound.  It integrates the
    interval-0 fit of I0 (fitted on [0, 11.5)) over every argument
    ``w r / sigma^2``, and that fit's largest exponent ``b = 0.9736 < 1``
    falls exponentially below I0 where ``w >> sigma``: below ``q ~ 0.052``
    the value undershoots `mean_cluster_distance_numeric` (a UserWarning
    flags ``q < UB_VALIDITY_Q_FLOOR``), above it the value exceeds it
    (420.4 m vs 218.7 m at ``lam = 2e-5``, ``sigma = 150``).  A coefficient
    with ``b_k^2 >= 2q+1`` puts the formula outside its validity range
    entirely and raises ``ValueError``.
    """
    if lam <= 0 or sigma <= 0:
        raise ValueError("lam and sigma must be positive")
    q = math.pi * lam * sigma * sigma
    coeffs = table.coefficients[interval]
    for _a, b in coeffs:
        if 2.0 * q + 1.0 - b * b <= 0.0:
            raise ValueError(
                f"coefficient b={b} violates 2q+1-b^2 > 0 at q={q:.4g}; "
                "closed-form bound out of validity range"
            )
    if q < UB_VALIDITY_Q_FLOOR:
        warnings.warn(
            f"closed-form mean-distance bound is not a true upper bound for "
            f"q = pi*lam*sigma^2 = {q:.4g} < {UB_VALIDITY_Q_FLOOR}",
            UserWarning,
            stacklevel=2,
        )
    total = 0.0
    for a, b in coeffs:
        d1 = 2.0 * q + 1.0 - b * b
        total += a * (2.0 / d1 + b / (2.0 * q + 1.0) ** 1.5 + 4.0 * b * b / (d1 * d1))
    return math.sqrt(2.0 * math.pi) * q * sigma * total


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

    def reset(self) -> None:
        self.count = 0
        self.last_value = None


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


def _sojourn_tails(pair, tails, velocity, lam, sigma) -> tuple:
    """``P(S >= t | u)`` for each ``(t, u)`` of ``tails``; see
    :func:`prob_sojourn_ge`.  The Marcum tails of a hotspot pair share ``a``
    and are taken in one :func:`marcum_q1` call."""
    if velocity <= 0:
        raise ValueError(f"velocity must be positive, got {velocity}")
    for t, u in tails:
        if t < 0:
            raise ValueError(f"t_threshold must be >= 0, got {t}")
        if not (0.0 < u < 1.0):
            raise ValueError(f"lam_star * xi must lie in (0, 1), got {u}")
    if lam <= 0 or sigma <= 0:
        raise ValueError("lam and sigma must be positive")
    if pair is PairKind.SM:
        q = tuple(
            math.exp(-4.0 * lam * velocity**2 * t**2 * (1.0 - u) ** 2 / (math.pi * u))
            for t, u in tails
        )
    else:
        a = 1.0 / (2.0 * sigma * math.sqrt(lam))
        q = marcum_q1(a, tuple(
            2.0 * t * velocity * (1.0 - u) / (math.pi * sigma * math.sqrt(u)) for t, u in tails
        ))
    return tuple(1.0 if t == 0.0 else q_k for (t, _u), q_k in zip(tails, q))


def prob_sojourn_ge(
    pair: PairKind,
    t_threshold: float,
    velocity: float,
    lam_xi: float,
    lam: float,
    sigma: float,
) -> float:
    """Probability that the in-circle sojourn is at least ``t_threshold``.

    The circle radius is proportional to the (random) pair distance, so the
    sojourn tail inherits the pair's distance law over the serving-tier
    density ``lam``: the ``SM`` branch is the Rayleigh tail in closed
    exponential form, and the hotspot branches are Marcum-Q tails of the
    Rician mixture with scatter ``sigma``,

        SM      :  exp(-4 lam V^2 T^2 (1-u)^2 / (pi u))
        SPS, SPM:  Q1( 1/(2 sigma sqrt(lam)), 2 T V (1-u) / (pi sigma sqrt(u)) )

    with ``u = lam_xi``; ``T = 0`` gives exactly 1.
    """
    return _sojourn_tails(pair, ((t_threshold, lam_xi),), velocity, lam, sigma)[0]


def compute_metrics(
    pair: PairKind,
    thresholds: HandoverThresholds,
    mean_distance: float,
    erb: ErbPair,
    region_area: float,
    n_bs_mean: float,
    mobility: MobilityConfig,
    lam: float,
    sigma: float,
    diagnostics: ClampDiagnostics = PINGPONG_CLAMP_DIAGNOSTICS,
) -> HandoverMetrics:
    """All four closed-form metrics for one pair kind.

    ``lam`` is the serving-tier density and ``sigma`` the hotspot scatter.
    With ``u = erb.lam_xi``, ``u_f = erb.lam_xi_f`` and the sojourn tail
    ``P(S >= t | u)`` of :func:`prob_sojourn_ge`, each factor is evaluated
    once, and a hotspot pair's three Marcum-Q tails in one
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
    u, u_f = erb.lam_xi, erb.lam_xi_f
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
