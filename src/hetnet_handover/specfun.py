"""The first-order Marcum Q function of the closed-form handover analytics.

``marcum_q1`` is implemented from scratch as the canonical Poisson-mixture
series, so the tests' adaptive-quadrature and 50-digit routes stay
independent cross-checks rather than re-statements of the implementation.
Moderate arguments take one recurrence in Python floats that carries three
lanes of ``b`` sharing the Poisson(x) series of ``a`` (the closed forms take
a hotspot pair's three tails in one call).  Large arguments sum only the
window of indices where the Poisson mixture has its mass, in NumPy chunks of
bounded size, with every Poisson pmf and cdf formed in-house (no incomplete
gamma function); where ``Q1`` is near 1 they sum its complement.  The function
is defined for every finite ``a, b >= 0``.
"""

from __future__ import annotations

import math

import numpy as np


#: The j = 0 start of the series needs e^{-x} and e^{-y} as normal floats.
_SERIES_MAX_EXPONENT = 700.0
#: The series stops once the Poisson(x) mass still unaccumulated is below this.
_SERIES_TOL = 1e-15
#: For b >= a, Q1(a, b) <= exp(-(b - a)^2 / 2) (a Chernoff bound), which is
#: below _SERIES_TOL once b - a exceeds this gap.
_NEGLIGIBLE_GAP = math.sqrt(-2.0 * math.log(_SERIES_TOL))
#: The windowed route is checked against 50-digit sums up to this ``a``;
#: above it a ``b`` farther than _NEGLIGIBLE_GAP from ``a`` takes the limit.
_WINDOW_CHECKED_A = 400.0
#: Half-width of the large-a window in Poisson(x) standard deviations: the
#: Poisson(x) mass outside [x - 12 sqrt(x), x + 12 sqrt(x) + 25] is below 4e-33
#: for every x >= 400.
_WINDOW_SIGMAS = 12.0
#: A windowed lane's Poisson(y) run covers ``[y - 12 sqrt(y), y + 12 sqrt(y)
#: + 25]``: the Chernoff and Bernstein bounds put the mass it leaves out below
#: e^-70 for ``y >= 176``.
_RUN_SIGMAS = 12.0
#: Indices per NumPy step of the windowed route, which bounds its memory for
#: any ``a``; one step covers every envelope window (at most ~5 400).
_WINDOW_CHUNK = 8192


def _mixture_sums(x, ys, j_maxes, pois, term_bs):
    """Sum ``pmf_x(i) * P[Poisson(y_k) <= i]`` for ``i`` from 0 to at most
    ``j_maxes[k]``, for three lanes ``k`` that share ``x``.

    ``pois`` is the Poisson(x) pmf at 0 and ``term_bs`` each lane's
    Poisson(y_k) pmf there, which is also its cdf.  The lanes share the
    Poisson(x) recurrence, its running mass and its stopping point, and are
    unrolled: a loop over a list of lanes is slower than three separate sums.
    ``_float_converged(pois, pois_cum)`` ends every lane; otherwise the loop
    runs to the smallest ``j_max``, records the lanes that end there and
    resumes from its state up to the next.
    """
    converged = _float_converged
    y1, y2, y3 = ys
    t1, t2, t3 = term_bs
    c1, c2, c3 = term_bs
    q1, q2, q3 = pois * c1, pois * c2, pois * c3
    pois_cum = pois
    sums = [None, None, None]
    i = 0
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
            if converged(pois, pois_cum):
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


def _log_poisson_pmf(j: int, mean: float) -> float:
    """``log P[Poisson(mean) = j]`` for ``j >= 15`` and ``mean > 0``.

    Loader's saddle-point form ``-bd0 - log(2 pi j)/2 - stirlerr(j)`` with
    ``bd0 = j log(j/mean) + mean - j`` and the Stirling-series remainder
    ``stirlerr(j) = log(j!) - log(sqrt(2 pi j) (j/e)^j)``.  It avoids the
    cancellation of ``-mean + j log(mean) - lgamma(j + 1)``, whose terms grow
    like ``mean log(mean)``: the absolute error of the logarithm stays near
    ``|j - mean|`` ulps instead of ``mean log(mean)`` ulps.  Below half the
    mean ``log(j/mean)`` replaces ``log1p(d/mean)``, whose argument rounds to
    -1 once ``mean`` exceeds ``j`` by 2^53.
    """
    d = j - mean
    bd0 = j * (math.log1p(d / mean) if 2 * j > mean else math.log(j / mean)) - d
    inv2 = 1.0 / (j * j)
    stirlerr = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0))) / j
    return -bd0 - 0.5 * math.log(2.0 * math.pi * j) - stirlerr


def _route(a: float, b: float, x: float, y: float):
    """``None`` (the limit) where ``x`` or ``y`` overflows, or where ``a``
    exceeds _WINDOW_CHECKED_A and ``b`` is farther than _NEGLIGIBLE_GAP
    from it; else whether the j = 0 series would start from a subnormal or
    zero pmf while ``Q1`` is not negligible (the windowed route)."""
    if max(x, y) == math.inf or (a > _WINDOW_CHECKED_A and abs(b - a) > _NEGLIGIBLE_GAP):
        return None
    return x > _SERIES_MAX_EXPONENT or (y > _SERIES_MAX_EXPONENT and b - a < _NEGLIGIBLE_GAP)


def _series_j_max(m: float) -> int:
    # 8 standard deviations past both Poisson modes covers the mass.
    return math.ceil(m + 8.0 * math.sqrt(m) + 25)


def _pmf_steps(mean: float, start: int):
    """``step(idx)``: the Poisson(mean) pmf at ``idx``, consecutive indices
    that continue the previous call's, the first call's from ``start``.

    The pmf at ``start`` is ``exp`` of :func:`_log_poisson_pmf` (0 for
    ``mean = 0``); every later value is a ``cumprod`` of the ratios
    ``mean / i``, carried from one call to the next.
    """
    last = None

    def step(idx):
        nonlocal last
        ratios = mean / idx
        if last is None:
            ratios[0] = math.exp(_log_poisson_pmf(start, mean)) if mean > 0.0 else 0.0
        else:
            ratios[0] *= last
        pmf = np.cumprod(ratios)
        last = pmf[-1]
        return pmf

    return step


def _index_chunks(lo: int, hi: int):
    """The indices ``lo .. hi - 1`` as float arrays of at most _WINDOW_CHUNK."""
    for start in range(lo, hi, _WINDOW_CHUNK):
        yield np.arange(start, min(start + _WINDOW_CHUNK, hi), dtype=np.float64)


def _run_sum(step, lo: int, hi: int) -> float:
    """The sum of ``step``'s pmf over the indices ``lo .. hi - 1``."""
    return sum(float(np.sum(step(idx))) for idx in _index_chunks(lo, hi))


def _windowed_sums(x: float, ys: list) -> list:
    """``Q1`` for each ``y`` of ``ys`` from the window of Poisson(x) indices
    ``[j0, j_end] = [x - 12 sqrt(x), x + 12 sqrt(x) + 25]``, in NumPy.

    The weights ``w_j`` are the Poisson(x) pmf of :func:`_pmf_steps`, and every
    sum is divided by their total: the window leaves out less than 4e-33 of
    the mass, so the division cancels the error of the log-domain start.
    With ``F`` and ``sf = 1 - F`` the Poisson(y) cdf and upper tail:

    * a lane with ``y > j0`` sums ``w_j F(j)``.  Its pmf run covers the window
      and ``y -+ 12 sqrt(y)``, and ``F`` is divided by the run's total, which
      cancels the error of its log-domain start too (that start is above
      e^-663, a normal float, even where it is ``j0``).  Where ``y - 12 sqrt(y)``
      lies above ``j_end``, ``Q1`` is below 1e-31: the run covers the window
      alone and is not divided, which bounds its length;
    * a lane with ``y <= j0``, where ``Q1`` is near 1, returns
      ``1 - sum_j w_j sf(j)``, summed as ``sum_k pmf_y(k) W(k - 1)`` with ``W``
      the running weight, so that nothing cancels.  Its run starts at ``j0``
      and stops at ``j_end``; the upper tail past it is below e^-200.

    Every run goes in chunks of _WINDOW_CHUNK indices, carrying its pmf, cdf
    and running weight, so memory stays bounded for any ``x``.
    """
    half_width = _WINDOW_SIGMAS * math.sqrt(x)
    j0 = math.floor(x - half_width)
    j_end = math.ceil(x + half_width + 25.0)
    weights = _pmf_steps(x, j0)
    complement = [y <= j0 for y in ys]
    starts = [j0 if c else min(j0, math.floor(y - _RUN_SIGMAS * math.sqrt(y)))
              for y, c in zip(ys, complement)]
    pmfs = [_pmf_steps(y, start) for y, start in zip(ys, starts)]
    cdfs = [_run_sum(pmf, start, j0) for pmf, start in zip(pmfs, starts)]
    sums = [0.0] * len(ys)
    w_cum = 0.0
    for idx in _index_chunks(j0, j_end + 1):
        w = weights(idx)
        w_cums = w_cum + np.cumsum(w)
        for k, pmf in enumerate(pmfs):
            p = pmf(idx)
            if complement[k]:
                sums[k] += float(p[0]) * w_cum + float(np.sum(p[1:] * w_cums[:-1]))
            else:
                run = cdfs[k] + np.cumsum(p)
                cdfs[k] = float(run[-1])
                sums[k] += float(np.sum(w * run))
        w_cum = float(w_cums[-1])
    out = []
    for y, c, pmf, cdf, q in zip(ys, complement, pmfs, cdfs, sums):
        if c:
            out.append(1.0 - q / w_cum)
        elif y - _RUN_SIGMAS * math.sqrt(y) > j_end:
            out.append(q / w_cum)
        else:
            run_end = math.ceil(y + _RUN_SIGMAS * math.sqrt(y) + 25.0)
            out.append(q / (w_cum * (cdf + _run_sum(pmf, j_end + 1, run_end + 1))))
    return out


def _marcum_q1_lanes(a: float, bs: tuple, windowed: bool | None) -> list:
    """``Q1(a, b)`` for up to three ``b`` of one route; each lane's bits equal
    those of a call with that ``b`` alone.

    The series route shares one Poisson(x) recurrence: fewer than three ``b``
    are padded by repeating the last.  The windowed route,
    :func:`_windowed_sums`, is taken only with ``x > 423`` (``b - a`` below
    _NEGLIGIBLE_GAP where ``y > 700``), so ``j0 >= 176`` and every pmf run
    starts at an index of at least 16, as :func:`_log_poisson_pmf` needs.
    ``windowed`` is ``None`` on the limit route of :func:`_route`.
    """
    if windowed is None:
        # Either |a - b| exceeds _NEGLIGIBLE_GAP, and the Chernoff bounds fix
        # Q1 to 0 or 1 within 1e-15, or a or b exceeds 1.3e154, whose ulp
        # exceeds 1e138, and a == b, where Q1(a, a) tends to 1/2.
        return [0.5 if a == b else 1.0 if a > b else 0.0 for b in bs]
    x = a * a / 2.0  # Poisson mean of the mixture index
    if windowed:
        sums = _windowed_sums(x, [b * b / 2.0 for b in bs])
    else:
        ys = [b * b / 2.0 for b in bs + bs[-1:] * (3 - len(bs))]
        # NumPy's exp, not math.exp: the two may differ in the last ulp, and
        # every tail's recorded bits were taken with NumPy's.
        pois = float(np.exp(-x))
        term_bs = [float(np.exp(-y)) for y in ys]
        j_maxes = [_series_j_max(max(x, y)) for y in ys]
        sums = _mixture_sums(x, ys, j_maxes, pois, term_bs)
    return [min(max(q, 0.0), 1.0) for q in sums[: len(bs)]]


def _marcum_q1_floats(a: float, bs: tuple) -> tuple:
    """``Q1(a, b)`` for every ``b`` of ``bs``: three at a time when they take
    the same route, one at a time otherwise."""
    x = a * a / 2.0
    out = []
    for k in range(0, len(bs), 3):
        chunk = bs[k : k + 3]
        routes = [_route(a, b, x, b * b / 2.0) for b in chunk]
        if all(r == routes[0] for r in routes):
            out += _marcum_q1_lanes(a, chunk, routes[0])
        else:
            for b, windowed in zip(chunk, routes):
                out += _marcum_q1_lanes(a, (b,), windowed)
    return tuple(out)


def marcum_q1(a: float, b):
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
      ``+-12 sqrt(x)`` window of Poisson(x) indices, in NumPy chunks of
      bounded size.  Every pmf starts in the log domain and runs on by
      ``cumprod``; every cdf is a ``cumsum`` of a pmf run, with no incomplete
      gamma function.  Where ``y`` lies below the window, ``Q1`` is near 1
      and the route sums ``1 - Q1 = sum_j pmf_x(j) P[Poisson(y) > j]``
      instead, which does not cancel.  Its error is below 1.2e-12 relative
      where ``Q1 >= 1e-10`` and below 1.3e-23 absolute elsewhere (checked
      against ``scipy.stats.ncx2.sf`` and a 50-digit ``mpmath`` series up
      to ``a = 400``).

    The series also stops once the Poisson(x) pmf has underflowed to 0,
    after which every term adds exactly 0: where rounding stalls the
    unaccumulated mass above 1e-15, it would otherwise run to ``j_max``,
    which grows like ``b^2``.  Where ``a^2/2`` or ``b^2/2`` overflows, and
    where ``a > 400`` and ``|b - a|`` exceeds ~8.3, ``Q1`` is its limit 0, 1
    or 1/2 (``b > a``, ``a > b``, ``a == b``), which the Chernoff bounds fix
    to within 1e-15.  Only ``b`` within ~8.3 of a large ``a`` still takes
    O(a) work, in bounded memory.

    ``a`` is a float.  A float ``b`` returns a float; a tuple of ``b``
    returns a tuple: up to three ``b`` of one route share one Poisson(x)
    recurrence, and each element is bit-identical to the call with that
    ``b`` alone (the closed forms take a hotspot pair's three sojourn tails
    this way).
    """
    bs = tuple(map(float, b)) if isinstance(b, tuple) else (float(b),)
    a = float(a)
    if not (0.0 <= a < math.inf and all(0.0 <= b_k < math.inf for b_k in bs)):
        raise ValueError("marcum_q1 requires finite a >= 0 and b >= 0")
    out = _marcum_q1_floats(a, bs)
    return out if isinstance(b, tuple) else out[0]
