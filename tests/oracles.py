"""Independent second routes that the tests check the program against.

None of these is on a production path: each one recomputes, by a slower or
more direct method, a number that the package computes another way.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy import special as sp

from hetnet_handover.geometry import PointSet
from hetnet_handover.radio import TierRadioParams


def rician_mean(w: float, sigma: float) -> float:
    """Mean of the Rician law via the exponentially scaled Bessel identity.

    ``E[R | w] = sigma sqrt(pi/2) [(1 + nu) i0e(nu/2) + nu i1e(nu/2)]`` with
    ``nu = w^2 / (2 sigma^2)``.  Exact and overflow-free for all ``w``.
    """
    nu = w * w / (2.0 * sigma * sigma)
    return float(
        sigma
        * math.sqrt(math.pi / 2.0)
        * ((1.0 + nu) * sp.i0e(nu / 2.0) + nu * sp.i1e(nu / 2.0))
    )


def cluster_mean_rician_mixture(lam: float, sigma: float) -> float:
    """Mean hotspot-to-serving distance as the Rician mean averaged over the
    Rayleigh center distance, by adaptive quadrature.

    Substituting ``u = pi lam w^2`` turns the Rayleigh weight into
    ``e^-u du`` on [0, inf), a well-conditioned integrand.
    """

    def integrand(u: float) -> float:
        w = math.sqrt(u / (math.pi * lam))
        return math.exp(-u) * rician_mean(w, sigma)

    value, abserr = integrate.quad(
        integrand, 0.0, np.inf, limit=300, epsabs=0.0, epsrel=1e-10
    )
    if not math.isfinite(value) or value <= 0 or abserr / value > 1e-6:
        raise RuntimeError(
            f"mean-distance quadrature did not converge: value={value}, abserr={abserr}"
        )
    return value


def serving_bs(
    location: np.ndarray,
    deployment: list[tuple[PointSet, TierRadioParams]],
) -> tuple[str, int]:
    """Strongest-RSS association by a scan over every BS:
    ``(tier label, index within that tier)``.

    Ties break toward the earlier tier in ``deployment`` and then the lower
    index.  A query placed exactly on a BS position associates to that BS
    (the RSS power law diverges there).
    """
    if not deployment or all(len(ps) == 0 for ps, _ in deployment):
        raise ValueError("no BS deployed anywhere")
    loc = np.asarray(location, dtype=float)
    best: tuple[str, int] | None = None
    best_rss = -math.inf
    for point_set, params in deployment:
        if len(point_set) == 0:
            continue
        d2 = np.sum((point_set.points - loc) ** 2, axis=1)
        zero = d2 == 0.0
        if np.any(zero):
            return point_set.tier, int(np.argmax(zero))
        rss = params.linear_prefactor * d2 ** (-params.pathloss_exponent / 2.0)
        idx = int(np.argmax(rss))
        # strict > keeps the first (earlier-tier, lower-index) maximum
        if rss[idx] > best_rss:
            best_rss = float(rss[idx])
            best = (point_set.tier, idx)
    assert best is not None
    return best
