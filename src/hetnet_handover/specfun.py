"""Numeric special functions used by the closed-form handover analytics.

The two building blocks are the modified Bessel function ``I0`` (an
oracle-grade power series plus a fast piecewise exponential-sum
approximation) and the first-order Marcum Q function.

``marcum_q1`` is implemented from scratch as the canonical Poisson-mixture
series so that the adaptive-quadrature route (``marcum_q1_quadrature``) stays
an independent cross-check rather than a re-statement of the implementation.
One recurrence serves every input: it carries three lanes of ``b`` that
share the Poisson(x) series of ``a``.  Scalars and tuples of ``b`` run it in
Python floats (the closed forms take a hotspot pair's three tails in one
call), arrays run it vectorised, and large arguments sum only the window of
indices where the Poisson mixture has its mass, so the function is defined
for every finite ``a, b >= 0``.
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


def _mixture_sums(x, ys, j, j_maxes, pois, term_bs, cdf_bs, converged):
    """Sum ``pmf_x(i) * P[Poisson(y_k) <= i]`` for ``i`` from ``j`` to at most
    ``j_maxes[k]``, for three lanes ``k`` that share ``x``.

    ``pois`` is the Poisson(x) pmf at ``j``; ``term_bs`` and ``cdf_bs`` hold
    each lane's Poisson(y_k) pmf and cdf there.  The lanes share the Poisson(x)
    recurrence, its running mass and its stopping point, and are unrolled: a
    loop over a list of lanes is slower than three separate sums.  The
    recurrence is written once for Python floats and NumPy arrays alike.
    ``converged(pois, pois_cum)`` ends every lane; otherwise the loop runs to
    the smallest ``j_max``, records the lanes that end there and resumes from
    its state up to the next; ``None`` runs every lane to its ``j_max``.
    """
    y1, y2, y3 = ys
    t1, t2, t3 = term_bs
    c1, c2, c3 = cdf_bs
    q1, q2, q3 = pois * c1, pois * c2, pois * c3
    pois_cum = pois
    sums = [None, None, None]
    i = j
    for stop in sorted(set(j_maxes)):
        done = False
        for i in range(i + 1, stop + 1):
            pois = pois * x / i
            t1 = t1 * y1 / i
            c1 = c1 + t1
            q1 = q1 + pois * c1
            t2 = t2 * y2 / i
            c2 = c2 + t2
            q2 = q2 + pois * c2
            t3 = t3 * y3 / i
            c3 = c3 + t3
            q3 = q3 + pois * c3
            pois_cum = pois_cum + pois
            if converged is not None and converged(pois, pois_cum):
                done = True
                break
        for k, q in enumerate((q1, q2, q3)):
            if sums[k] is None and (done or j_maxes[k] == stop):
                sums[k] = q
        if done:
            break
    return sums


def _float_converged(pois: float, pois_cum: float) -> bool:
    # Once the pmf has underflowed to 0 every later term adds exactly 0, so
    # stopping there changes no bit.  It ends the sums whose unaccumulated
    # mass stalls above the tolerance from rounding.
    return pois == 0.0 or 1.0 - pois_cum < _SERIES_TOL


def _array_converged(pois: np.ndarray, pois_cum: np.ndarray) -> bool:
    return bool(np.all(1.0 - pois_cum < _SERIES_TOL)) or not pois.any()


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


def _needs_window(a, b, x, y):
    """Where the j = 0 series would start from a subnormal or zero pmf and
    ``Q1`` is not negligible; elementwise on arrays."""
    return (x > _SERIES_MAX_EXPONENT) | ((y > _SERIES_MAX_EXPONENT) & (b - a < _NEGLIGIBLE_GAP))


def _series_j_max(m: float) -> int:
    # 8 standard deviations past both Poisson modes covers the mass.
    return math.ceil(m + 8.0 * math.sqrt(m) + 25)


def _marcum_q1_lanes(a: float, bs: tuple, windowed: bool) -> list:
    """``Q1(a, b)`` for up to three ``b`` of one route, in one shared recurrence.

    Fewer than three ``b`` are padded by repeating the last; each lane's bits
    equal those of a call with that ``b`` alone.  The windowed route sums the
    window where Poisson(x) has its mass: it starts at
    ``j0 = floor(x - 10 sqrt(x))`` with both pmfs from
    :func:`_log_poisson_pmf` and ``P[Poisson(y) <= j0]`` from the regularized
    upper incomplete gamma function, and runs up to ``x + 10 sqrt(x) + 25``:
    O(sqrt(x)) terms.  It is taken only with ``x > 400``, so ``j0 >= 200``.
    """
    x = a * a / 2.0  # Poisson mean of the mixture index
    ys = [b * b / 2.0 for b in bs + bs[-1:] * (3 - len(bs))]
    if windowed:
        half_width = _WINDOW_SIGMAS * math.sqrt(x)
        j0 = math.floor(x - half_width)
        j_end = math.ceil(x + half_width + 25.0)
        pois = math.exp(_log_poisson_pmf(j0, x))
        term_bs = [math.exp(_log_poisson_pmf(j0, y)) if y > 0.0 else 0.0 for y in ys]
        cdf_bs = [float(_sp.gammaincc(j0 + 1, y)) for y in ys]
        sums = _mixture_sums(x, ys, j0, (j_end,) * 3, pois, term_bs, cdf_bs, None)
    else:
        # NumPy's exp, not math.exp: the two may differ in the last ulp, and
        # this route is bit-identical to the array route on one element.
        pois = float(np.exp(-x))
        term_bs = [float(np.exp(-y)) for y in ys]
        j_maxes = [_series_j_max(max(x, y)) for y in ys]
        sums = _mixture_sums(x, ys, 0, j_maxes, pois, term_bs, term_bs, _float_converged)
    return [min(max(q, 0.0), 1.0) for q in sums[: len(bs)]]


def _marcum_q1_floats(a: float, bs: tuple) -> tuple:
    """``Q1(a, b)`` for every ``b`` of ``bs``: three at a time when they take
    the same route, one at a time otherwise."""
    x = a * a / 2.0
    out = []
    for k in range(0, len(bs), 3):
        chunk = bs[k : k + 3]
        routes = [_needs_window(a, b, x, b * b / 2.0) for b in chunk]
        if all(r == routes[0] for r in routes):
            out += _marcum_q1_lanes(a, chunk, routes[0])
        else:
            for b, windowed in zip(chunk, routes):
                out += _marcum_q1_lanes(a, (b,), windowed)
    return tuple(out)


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

    The series also stops once the Poisson(x) pmf has underflowed to 0,
    after which every term adds exactly 0: where rounding stalls the
    unaccumulated mass above 1e-15, it would otherwise run to ``j_max``,
    which grows like ``b^2``.

    Scalar ``a`` and ``b`` run in Python floats and return a float.  A
    scalar ``a`` with a tuple of ``b`` returns a tuple: up to three ``b`` of
    one route share one Poisson(x) recurrence, and each element is
    bit-identical to the call with that ``b`` alone (the closed forms take
    a hotspot pair's three sojourn tails this way).  Arrays broadcast
    against each other and run one vectorised series from j = 0, stopped
    when every element has converged; if any element needs the windowed
    route, every element is evaluated in Python floats instead, as the
    tuple of its ``b`` with its ``a``.
    """
    if np.ndim(a) == 0 and (isinstance(b, tuple) or np.ndim(b) == 0):
        bs = tuple(map(float, b)) if isinstance(b, tuple) else (float(b),)
        a = float(a)
        if not (0.0 <= a < math.inf and all(0.0 <= b_k < math.inf for b_k in bs)):
            raise ValueError("marcum_q1 requires finite a >= 0 and b >= 0")
        out = _marcum_q1_floats(a, bs)
        return out if isinstance(b, tuple) else out[0]
    a_b, b_b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a_b.shape
    a_flat, b_flat = a_b.ravel(), b_b.ravel()
    if not np.all((0.0 <= a_flat) & (a_flat < np.inf) & (0.0 <= b_flat) & (b_flat < np.inf)):
        raise ValueError("marcum_q1 requires finite a >= 0 and b >= 0")
    x = a_flat**2 / 2.0
    y = b_flat**2 / 2.0
    if np.any(_needs_window(a_flat, b_flat, x, y)):
        # Elements with one ``a`` share lanes, three ``b`` at a time.
        out = np.empty(a_flat.size)
        for a_k in np.unique(a_flat).tolist():
            at = np.flatnonzero(a_flat == a_k)
            out[at] = _marcum_q1_floats(a_k, tuple(b_flat[at].tolist()))
        return out.reshape(shape)
    pois = np.exp(-x)
    term_b = np.exp(-y)
    j_max = _series_j_max(max(x.max(), y.max()))
    # Lanes two and three are float placeholders that no caller reads.
    q = _mixture_sums(
        x, (y, 0.0, 0.0), 0, (j_max,) * 3, pois, (term_b, 0.0, 0.0), (term_b, 0.0, 0.0),
        _array_converged,
    )[0]
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

