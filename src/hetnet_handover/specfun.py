"""Numeric special functions used by the closed-form handover analytics.

The two building blocks are the modified Bessel function ``I0`` (an
oracle-grade power series plus a fast piecewise exponential-sum
approximation) and the first-order Marcum Q function.

``marcum_q1`` is implemented from scratch as the canonical Poisson-mixture
series so that the adaptive-quadrature route (``marcum_q1_quadrature``) stays
an independent cross-check rather than a re-statement of the implementation.
One recurrence serves every input: scalars run it in Python floats (the
closed forms make thousands of scalar calls), arrays run it vectorised, and
large arguments sum only the window of indices where the Poisson mixture
has its mass, so the function is defined for every finite ``a, b >= 0``.
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

#: The j = 0 start of the series needs e^{-x} and e^{-y} as normal floats.
_SERIES_MAX_EXPONENT = 700.0
#: The series stops once the Poisson(x) mass still unaccumulated is below this.
_SERIES_TOL = 1e-15
#: For b >= a, Q1(a, b) <= exp(-(b - a)^2 / 2) (a Chernoff bound), which is
#: below _SERIES_TOL once b - a exceeds this gap.
_NEGLIGIBLE_GAP = math.sqrt(-2.0 * math.log(_SERIES_TOL))
#: Half-width of the large-a window in Poisson(x) standard deviations: the
#: Poisson(x) mass outside [x - 10 sqrt(x), x + 10 sqrt(x) + 25] is below 1e-23
#: for every x >= 400.
_WINDOW_SIGMAS = 10.0


def _mixture_sum(x, y, j, j_max, pois, term_b, cdf_b, converged):
    """Sum ``pmf_x(i) * P[Poisson(y) <= i]`` for ``i`` from ``j`` to at most ``j_max``.

    ``pois``, ``term_b`` and ``cdf_b`` are the Poisson(x) pmf, the Poisson(y)
    pmf and the Poisson(y) cdf at index ``j``.  The recurrence is written once
    for Python floats and NumPy arrays alike; ``converged`` is called on the
    Poisson(x) mass accumulated so far and ends the sum early.
    """
    q = pois * cdf_b
    pois_cum = pois
    for i in range(j + 1, j_max + 1):
        pois = pois * x / i
        term_b = term_b * y / i
        cdf_b = cdf_b + term_b
        q = q + pois * cdf_b
        pois_cum = pois_cum + pois
        if converged(pois_cum):
            break
    return q


def _float_converged(pois_cum: float) -> bool:
    return 1.0 - pois_cum < _SERIES_TOL


def _array_converged(pois_cum: np.ndarray) -> bool:
    return bool(np.all(1.0 - pois_cum < _SERIES_TOL))


def _never_converged(_pois_cum: float) -> bool:
    return False


def _log_poisson_pmf(j: int, mean: float) -> float:
    """``log P[Poisson(mean) = j]`` for ``j >= 15`` and ``mean > 0``.

    Loader's saddle-point form ``-bd0 - log(2 pi j)/2 - stirlerr(j)`` with
    ``bd0 = j log(j/mean) + mean - j`` and the Stirling-series remainder
    ``stirlerr(j) = log(j!) - log(sqrt(2 pi j) (j/e)^j)``.  It avoids the
    cancellation of ``-mean + j log(mean) - lgamma(j + 1)``, whose terms grow
    like ``mean log(mean)``: the absolute error of the logarithm stays near
    ``|j - mean|`` ulps instead of ``mean log(mean)`` ulps.
    """
    d = j - mean
    bd0 = j * math.log1p(d / mean) - d
    inv2 = 1.0 / (j * j)
    stirlerr = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0))) / j
    return -bd0 - 0.5 * math.log(2.0 * math.pi * j) - stirlerr


def _marcum_q1_windowed(x: float, y: float) -> float:
    """The Poisson mixture over the window where Poisson(x) has its mass.

    The sum starts at ``j0 = floor(x - 10 sqrt(x))`` with both pmfs from
    :func:`_log_poisson_pmf` and ``P[Poisson(y) <= j0]`` from the regularized
    upper incomplete gamma function, then runs the series recurrence up to
    ``x + 10 sqrt(x) + 25``: O(sqrt(x)) terms.  Callers route here only with
    ``x > 400``, so ``j0 >= 200``.
    """
    half_width = _WINDOW_SIGMAS * math.sqrt(x)
    j0 = math.floor(x - half_width)
    j_end = math.ceil(x + half_width + 25.0)
    pois = math.exp(_log_poisson_pmf(j0, x))
    term_b = math.exp(_log_poisson_pmf(j0, y)) if y > 0.0 else 0.0
    cdf_b = float(_sp.gammaincc(j0 + 1, y))
    return _mixture_sum(x, y, j0, j_end, pois, term_b, cdf_b, _never_converged)


def _needs_window(a, b, x, y):
    """Where the j = 0 series would start from a subnormal or zero pmf and
    ``Q1`` is not negligible; elementwise on arrays."""
    return (x > _SERIES_MAX_EXPONENT) | ((y > _SERIES_MAX_EXPONENT) & (b - a < _NEGLIGIBLE_GAP))


def _series_j_max(m: float) -> int:
    # 8 standard deviations past both Poisson modes covers the mass.
    return math.ceil(m + 8.0 * math.sqrt(m) + 25)


def _marcum_q1_scalar(a: float, b: float) -> float:
    x = a * a / 2.0  # Poisson mean of the mixture index
    y = b * b / 2.0
    if _needs_window(a, b, x, y):
        q = _marcum_q1_windowed(x, y)
    else:
        # NumPy's exp, not math.exp: the two may differ in the last ulp, and
        # this route is bit-identical to the array route on one element.
        pois = float(np.exp(-x))
        term_b = float(np.exp(-y))
        q = _mixture_sum(x, y, 0, _series_j_max(max(x, y)), pois, term_b, term_b, _float_converged)
    return min(max(q, 0.0), 1.0)


def marcum_q1(a, b):
    """First-order Marcum Q function ``Q1(a, b)``.

    Computed as the Poisson mixture

        Q1(a, b) = sum_{j>=0} e^{-a^2/2} (a^2/2)^j / j! * P[Poisson(b^2/2) <= j],

    which is the tail probability of a noncentral chi-square with 2 degrees
    of freedom.  All terms are positive.  With ``x = a^2/2`` and
    ``y = b^2/2`` there are two routes:

    * **Series from j = 0**, while ``e^{-x}`` and ``e^{-y}`` are normal
      floats (``x, y <= 700``).  It stops once the Poisson(x) mass not yet
      accumulated is below 1e-15, which bounds the truncation error.  The
      same route serves ``y > 700`` when ``b - a`` exceeds ~8.3, where
      ``Q1 <= exp(-(b - a)^2 / 2) < 1e-15``.
    * **Windowed series** for the rest (``a`` above ~37.4, or ``b`` above
      ~37.4 within ~8.3 of ``a``): the sum runs only over the
      ``+-10 sqrt(x)`` window of Poisson(x) indices, started from log-domain
      pmfs and an incomplete-gamma cdf.  Its error is below 2e-12 relative
      where ``Q1 >= 1e-10`` and below 1e-15 absolute elsewhere (checked
      against ``scipy.stats.ncx2.sf`` and a 50-digit ``mpmath`` series up
      to ``a = 400``).

    Scalar ``a`` and ``b`` run in Python floats and return a float.  Arrays
    broadcast against each other and run one vectorised series from j = 0,
    stopped when every element has converged; if any element needs the
    windowed route, every element is evaluated as a scalar instead.
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        a, b = float(a), float(b)
        if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
            raise ValueError("marcum_q1 requires finite a >= 0 and b >= 0")
        return _marcum_q1_scalar(a, b)
    a_b, b_b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a_b.shape
    a_flat, b_flat = a_b.ravel(), b_b.ravel()
    if not np.all((0.0 <= a_flat) & (a_flat < np.inf) & (0.0 <= b_flat) & (b_flat < np.inf)):
        raise ValueError("marcum_q1 requires finite a >= 0 and b >= 0")
    x = a_flat**2 / 2.0
    y = b_flat**2 / 2.0
    if np.any(_needs_window(a_flat, b_flat, x, y)):
        out = [_marcum_q1_scalar(ai, bi) for ai, bi in zip(a_flat.tolist(), b_flat.tolist())]
        return np.array(out).reshape(shape)
    pois = np.exp(-x)
    term_b = np.exp(-y)
    j_max = _series_j_max(max(x.max(), y.max()))
    q = _mixture_sum(x, y, 0, j_max, pois, term_b, term_b, _array_converged)
    return np.clip(q.reshape(shape), 0.0, 1.0)


def marcum_q1_quadrature(a: float, b: float) -> float:
    """Independent adaptive-quadrature evaluation of Q1.

    Integrates the defining density with the numerically stable scaling
    ``x * i0e(a x) * exp(-(x - a)^2 / 2)`` from ``b`` to infinity, where
    ``i0e(t) = e^{-t} I0(t)``.  Used as the reference route in tests and as
    the oracle of the pinned ``marcum_q1_at_1_1``; the production path is the
    series in :func:`marcum_q1`.
    """
    if a < 0 or b < 0:
        raise ValueError("marcum_q1_quadrature requires a >= 0 and b >= 0")

    def integrand(x: float) -> float:
        return x * _sp.i0e(a * x) * math.exp(-0.5 * (x - a) ** 2)

    val, _err = integrate.quad(integrand, b, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12)
    return min(1.0, max(0.0, val))

