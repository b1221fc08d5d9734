"""Numeric special functions used by the closed-form handover analytics.

The two building blocks are the modified Bessel function ``I0`` (an
oracle-grade power series plus a fast piecewise exponential-sum
approximation) and the first-order Marcum Q function.

``marcum_q1`` is implemented from scratch as the canonical Poisson-mixture
series so that the adaptive-quadrature route (``marcum_q1_quadrature``) stays
an independent cross-check rather than a re-statement of the implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import special as _sp


# ---------------------------------------------------------------------------
# Modified Bessel function I0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesselApproxTable:
    """Coefficients of the piecewise approximation I0(z) ~ sum_k a_k exp(b_k z).

    ``edges`` are the interval break points; interval ``k`` is
    [edges[k], edges[k+1]) with the last interval open-ended.  Each interval
    carries exactly four (a, b) pairs.
    """

    edges: tuple[float, ...]
    coefficients: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.edges):
            raise ValueError("one coefficient block per interval required")
        if any(len(block) != 4 for block in self.coefficients):
            raise ValueError("each interval must carry exactly 4 (a, b) pairs")

    def interval_index(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.clip(
            np.searchsorted(np.asarray(self.edges), z, side="right") - 1,
            0,
            len(self.edges) - 1,
        )


# The canonical coefficient set, kept exactly as tabulated (including the
# tiny 2.4e-9 and negative entries; the b = -163.4 term is numerically inert
# on its interval because exp(-163.4 z) underflows for z >= 11.5).
DEFAULT_BESSEL_TABLE = BesselApproxTable(
    edges=(0.0, 11.5, 20.0, 37.25),
    coefficients=(
        ((0.1682, 0.7536), (0.1472, 0.9736), (0.4450, -0.715), (0.2382, 0.2343)),
        ((0.2667, 0.4710), (0.4916, -163.4), (0.1110, 0.9852), (0.1304, 0.8554)),
        ((0.1121, 0.9807), (0.1055, 0.8672), (-1.8e-4, 1.0795), (0.0033, 1.0385)),
        ((2.4e-9, 1.144), (0.0675, 0.995), (0.0547, 0.567), (0.0787, 0.946)),
    ),
)


def i0_series(z) -> np.ndarray | float:
    """I0(z) via the ascending power series ``sum_k (z^2/4)^k / (k!)^2``.

    Every term is positive, so there is no cancellation; the series is summed
    until the running term falls below 1e-17 of the partial sum, which keeps
    the relative error at or below ~1e-15 for z <= 50 (comfortably inside the
    1e-12 budget the analytics need).  Negative arguments are rejected rather
    than symmetrized so that calling code states its intent.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0):
        raise ValueError("i0_series requires z >= 0 (I0 is even; reflect explicitly)")
    x = z_arr * z_arr / 4.0
    term = np.ones_like(x)
    out = np.ones_like(x)
    # At z=50 the series needs ~90 terms; 200 is a safe hard stop.
    for k in range(1, 200):
        term = term * x / (k * k)
        out += term
        if np.all(term <= 1e-17 * out):
            break
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out


def i0_exp_approx(z, table: BesselApproxTable = DEFAULT_BESSEL_TABLE):
    """Piecewise exponential-sum approximation of I0.

    Evaluates ``sum_k a_k exp(b_k z)`` with the coefficient block of the
    interval containing ``z``.  The approximation is intentionally kept
    verbatim from its tabulated source: it is fast and integrates in closed
    form, but it is only a few-percent accurate and is *not* continuous at
    interval joins.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0):
        raise ValueError("i0_exp_approx requires z >= 0")
    idx = np.atleast_1d(table.interval_index(z_arr))
    flat = np.atleast_1d(z_arr).ravel()
    out = np.zeros_like(flat)
    for k, block in enumerate(table.coefficients):
        mask = idx.ravel() == k
        if not np.any(mask):
            continue
        zz = flat[mask]
        acc = np.zeros_like(zz)
        for a, b in block:
            # exp() of very negative arguments underflows to 0, which is the
            # correct limit for the inert large-negative-b entries.
            with np.errstate(under="ignore", over="ignore"):
                acc += a * np.exp(b * zz)
        out[mask] = acc
    out = out.reshape(np.shape(z_arr))
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Marcum Q1
# ---------------------------------------------------------------------------

def marcum_q1(a, b):
    """First-order Marcum Q function ``Q1(a, b)``.

    Computed as the Poisson mixture

        Q1(a, b) = sum_{j>=0} e^{-a^2/2} (a^2/2)^j / j! * P[Poisson(b^2/2) <= j],

    which is the tail probability of a noncentral chi-square with 2 degrees
    of freedom.  All terms are positive and the truncation error is bounded
    by the unaccumulated Poisson mass, which the loop drives below 1e-15.
    Vectorized over ``b`` (and broadcast against ``a``).
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise ValueError("marcum_q1 requires a >= 0 and b >= 0")
    a_b, b_b = np.broadcast_arrays(a_arr, b_arr)
    shape = a_b.shape
    x = (a_b.ravel() ** 2) / 2.0  # Poisson mean of the mixture index
    y = (b_b.ravel() ** 2) / 2.0

    if np.any(x > 700):
        # e^{-x} underflows; outside the operating envelope of this model.
        raise ValueError("marcum_q1 series limited to a <= ~37; got larger")

    pois = np.exp(-x)  # Poisson(x) pmf at j
    pois_cum = pois.copy()
    term_b = np.exp(-y)  # Poisson(y) pmf at j
    cdf_b = term_b.copy()  # P[Poisson(y) <= j]
    q = pois * cdf_b
    # 8 standard deviations past both Poisson modes covers the mass.
    j_max = int(np.ceil(max(x.max(), y.max()) + 8.0 * math.sqrt(max(x.max(), y.max())) + 25))
    for j in range(1, j_max + 1):
        pois = pois * x / j
        term_b = term_b * y / j
        cdf_b += term_b
        q += pois * cdf_b
        pois_cum += pois
        if np.all(1.0 - pois_cum < 1e-15):
            break
    out = np.clip(q.reshape(shape), 0.0, 1.0)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out


def marcum_q1_quadrature(a: float, b: float) -> float:
    """Independent adaptive-quadrature evaluation of Q1.

    Integrates the defining density with the numerically stable scaling
    ``x * i0e(a x) * exp(-(x - a)^2 / 2)`` from ``b`` to infinity, where
    ``i0e(t) = e^{-t} I0(t)``.  Used as the reference route in tests; the
    production path is the series in :func:`marcum_q1`.
    """
    if a < 0 or b < 0:
        raise ValueError("marcum_q1_quadrature requires a >= 0 and b >= 0")

    def integrand(x: float) -> float:
        return x * _sp.i0e(a * x) * math.exp(-0.5 * (x - a) ** 2)

    val, _err = integrate.quad(integrand, b, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12)
    return min(1.0, max(0.0, val))

