"""Pinned regression constants and the oracles that recompute them.

Every nontrivial numeric constant asserted by the test suite is stored in
``data/fixtures.json`` together with the identity of the *independent*
oracle that produced it (quadrature, alternative series, explicit
arithmetic, or a fixed-seed simulation campaign).  ``recompute_all`` reruns
each oracle and reports drift, which is what the ``fixtures`` CLI
subcommand does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy import integrate

from .analytics import HandoverThresholds, PairKind, rician_pdf
from .geometry import ClusterConfig, Region
from .mobility import MobilityConfig
from .radio import TierRadioParams
from .simengine import SimConfig, analytic_metrics, run_campaign
from .specfun import (
    DEFAULT_BESSEL_TABLE,
    i0_exp_approx,
    i0_series,
    marcum_q1_quadrature,
)

FIXTURES_RESOURCE = "fixtures.json"


def load_fixtures() -> dict:
    """The pinned constants: ``name -> {value, rel_tolerance, oracle}``."""
    text = (
        resources.files("hetnet_handover")
        .joinpath("data")
        .joinpath(FIXTURES_RESOURCE)
        .read_text(encoding="utf-8")
    )
    payload = json.loads(text)
    return payload["fixtures"]


def fixture_value(name: str) -> float:
    return float(load_fixtures()[name]["value"])


# ---------------------------------------------------------------------------
# Default radio/tier parameters (urban macro / small-cell path loss at 1 m)
# ---------------------------------------------------------------------------

def default_macro_params() -> TierRadioParams:
    return TierRadioParams(
        tx_power=46.0,
        antenna_gain=14.0,
        bias=0.0,
        pathloss_intercept=10.0 ** (-15.3 / 10.0),
        pathloss_exponent=3.76,
    )


def default_small_params() -> TierRadioParams:
    return TierRadioParams(
        tx_power=30.0,
        antenna_gain=5.0,
        bias=4.0,
        pathloss_intercept=10.0 ** (-30.6 / 10.0),
        pathloss_exponent=3.67,
    )


def default_hotspot_params() -> TierRadioParams:
    # 6 dB below the uniform small tier: equal parameters would make every
    # hotspot/small boundary degenerate (a straight line), so the hotspot
    # tier defaults to a lower transmit power.
    return TierRadioParams(
        tx_power=24.0,
        antenna_gain=5.0,
        bias=4.0,
        pathloss_intercept=10.0 ** (-30.6 / 10.0),
        pathloss_exponent=3.67,
    )


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
        q_out=10.0 ** (-3.0 / 10.0),
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


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_i0_quadrature(z: float = 1.0) -> float:
    """I0 via its integral representation (independent of the power series)."""
    val, _ = integrate.quad(lambda t: math.exp(z * math.cos(t)), 0.0, math.pi)
    return val / math.pi


def oracle_erf_series(x: float = 1.0) -> float:
    """erf via its Maclaurin series (independent of scipy)."""
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def oracle_marcum_q1_mpmath(a: float = 79.0, b: float = 80.0) -> float:
    """Poisson-mixture series of the Marcum Q function in 50-digit arithmetic.

    With ``x = a^2/2`` and ``y = b^2/2`` the sum covers the indices
    ``x +- (14 sqrt(x) + 30)``, which leave out less than 1e-40 of the
    mixture; the pmfs and the incomplete-gamma cdf at the first index are
    formed directly in 50 digits and carried upward by the exact
    recurrences.  Needs ``mpmath`` (installed with the ``test`` extra).
    """
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpf(a) ** 2 / 2
        y = mpmath.mpf(b) ** 2 / 2
        half = int(14 * mpmath.sqrt(x)) + 30
        j0 = max(0, int(x) - half)
        pmf_x = mpmath.exp(-x + j0 * mpmath.log(x) - mpmath.loggamma(j0 + 1))
        pmf_y = mpmath.exp(-y + j0 * mpmath.log(y) - mpmath.loggamma(j0 + 1))
        cdf_y = mpmath.gammainc(j0 + 1, y, regularized=True)
        total = pmf_x * cdf_y
        for j in range(j0 + 1, int(x) + half + 1):
            pmf_x = pmf_x * x / j
            pmf_y = pmf_y * y / j
            cdf_y += pmf_y
            total += pmf_x * cdf_y
        return float(total)


def oracle_rician_cdf_quadrature(r: float = 1.0, w: float = 1.0, sigma: float = 1.0) -> float:
    """CDF by direct quadrature of the conditional-distance density."""
    val, _ = integrate.quad(lambda x: rician_pdf(x, w, sigma), 0.0, r, limit=200)
    return val


def oracle_xi_6db_alpha4() -> float:
    """Boundary factor for a 6 dB weaker target at path-loss exponent 4."""
    return 10.0 ** ((-6.0 / 10.0) * (2.0 / 4.0))


def oracle_xi_failure_scale() -> float:
    """Failure-to-handover boundary factor at a -3 dB outage offset, alpha=3.67."""
    return (10.0 ** (-3.0 / 10.0)) ** (2.0 / 3.67)


def oracle_cluster_mean_2d_quadrature(lam: float = 2e-5, sigma: float = 150.0) -> float:
    """Mean hotspot-to-serving distance by direct 2-D quadrature.

    Integrates r * f(r | w) against the center-distance density without
    going through the closed-form conditional mean, so it is an independent
    route to the same number as `mean_cluster_distance_numeric`.
    """

    def inner(w: float) -> float:
        val, _ = integrate.quad(
            lambda r: r * rician_pdf(r, w, sigma),
            0.0,
            w + 12.0 * sigma,
            limit=200,
        )
        return val

    def outer(w: float) -> float:
        return 2.0 * math.pi * lam * w * math.exp(-math.pi * lam * w * w) * inner(w)

    val, _ = integrate.quad(outer, 0.0, np.inf, limit=200, epsrel=1e-9)
    return val


def oracle_cluster_mean_ub_arithmetic(lam: float = 2e-5, sigma: float = 150.0) -> float:
    """The paper's exponential-sum mean-distance expression, assembled from
    scratch (guards `mean_cluster_distance_expsum` and the I0 table)."""
    q = math.pi * lam * sigma * sigma
    coeffs = ((0.1682, 0.7536), (0.1472, 0.9736), (0.4450, -0.715), (0.2382, 0.2343))
    total = 0.0
    for a, b in coeffs:
        d1 = 2.0 * q + 1.0 - b * b
        total += a * (2.0 / d1 + b / (2.0 * q + 1.0) ** 1.5 + 4.0 * b * b / d1 / d1)
    return math.sqrt(2.0 * math.pi) * q * sigma * total


def oracle_analytic_triggered_rate_sps() -> float:
    """Closed-form triggered rate of the reference campaign (hotspot-small pair)."""
    return analytic_metrics(reference_sim_config())[PairKind.SPS].triggered_rate


def oracle_sim_triggered_rate_sps(workers: int = 1) -> float:
    """Measured triggered rate of the reference campaign (seed 0, 200 trials)."""
    est = run_campaign(reference_sim_config(master_seed=0), workers=workers)
    return est.pairs[PairKind.SPS].triggered_rate


def _i0_interval_grid(interval: int, n: int = 2001) -> np.ndarray:
    edges = DEFAULT_BESSEL_TABLE.edges
    lo = edges[interval]
    hi = edges[interval + 1]
    # Stay strictly inside the half-open interval.
    return np.linspace(lo, hi, n, endpoint=False)


def oracle_i0_approx_max_rel_err(interval: int) -> float:
    """Largest relative error of the exponential-sum I0 fit on one interval."""
    z = _i0_interval_grid(interval)
    exact = i0_series(z)
    approx = i0_exp_approx(z)
    return float(np.max(np.abs(approx - exact) / exact))


ORACLES = {
    "i0_at_1": oracle_i0_quadrature,
    "erf_at_1": oracle_erf_series,
    "marcum_q1_at_1_1": lambda: marcum_q1_quadrature(1.0, 1.0),
    "marcum_q1_at_79_80": oracle_marcum_q1_mpmath,
    "rician_cdf_at_1_1_1": oracle_rician_cdf_quadrature,
    "xi_6db_alpha4": oracle_xi_6db_alpha4,
    "xi_failure_scale_3db_alpha367": oracle_xi_failure_scale,
    "cluster_mean_numeric_lam2e-5_sigma150": oracle_cluster_mean_2d_quadrature,
    "cluster_mean_ub_lam2e-5_sigma150": oracle_cluster_mean_ub_arithmetic,
    "analytic_triggered_rate_sps_reference": oracle_analytic_triggered_rate_sps,
    "sim_triggered_rate_sps_reference_seed0": oracle_sim_triggered_rate_sps,
    "i0_approx_max_rel_err_interval0": lambda: oracle_i0_approx_max_rel_err(0),
    "i0_approx_max_rel_err_interval1": lambda: oracle_i0_approx_max_rel_err(1),
    "i0_approx_max_rel_err_interval2": lambda: oracle_i0_approx_max_rel_err(2),
}

#: Oracles that run a full simulation campaign (seconds to minutes).
SLOW_ORACLES = frozenset({"sim_triggered_rate_sps_reference_seed0"})


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    stored: float
    recomputed: float
    rel_error: float
    tolerance: float
    ok: bool


def recompute(name: str, workers: int = 1) -> float:
    oracle = ORACLES[name]
    if name in SLOW_ORACLES:
        return float(oracle(workers=workers))
    return float(oracle())


def recompute_all(workers: int = 1, include_slow: bool = True) -> list:
    """Rerun every oracle against the stored constants."""
    stored = load_fixtures()
    checks = []
    for name, entry in stored.items():
        if not include_slow and name in SLOW_ORACLES:
            continue
        value = float(entry["value"])
        tol = float(entry["rel_tolerance"])
        recomputed = recompute(name, workers=workers)
        denom = max(abs(value), 1e-300)
        rel = abs(recomputed - value) / denom
        checks.append(
            FixtureCheck(
                name=name,
                stored=value,
                recomputed=recomputed,
                rel_error=rel,
                tolerance=tol,
                ok=rel <= tol,
            )
        )
    return checks


def checks_to_text(checks) -> str:
    header = f"{'fixture':<42} {'stored':>18} {'recomputed':>18} {'rel_err':>10} status"
    lines = [header, "-" * len(header)]
    for c in checks:
        status = "OK" if c.ok else "DRIFT"
        lines.append(
            f"{c.name:<42} {c.stored:>18.12g} {c.recomputed:>18.12g} "
            f"{c.rel_error:>10.2e} {status}"
        )
    return "\n".join(lines) + "\n"
