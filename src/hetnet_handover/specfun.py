"""The first-order Marcum Q function of the closed-form handover analytics.

``marcum_q1`` is implemented from scratch as the canonical Poisson-mixture
series, so the tests' adaptive-quadrature and 50-digit routes stay
independent cross-checks rather than re-statements of the implementation.
It sums only the window of indices where the Poisson mixture has its mass, in
NumPy chunks of bounded size that carry the Poisson(x) weights and every
``b`` of a call as rows of one array, with every Poisson pmf and cdf formed
in-house (no incomplete gamma function); where ``Q1`` is near 1 it sums its
complement.  The function is defined for every finite ``a, b >= 0``.  The
NumPy work is only ``+``, ``*``, ``/``, ``cumsum``, ``cumprod`` and pairwise
``sum``, all correctly rounded or in a fixed order, so the bits do not depend
on the SIMD code that NumPy dispatches on the CPU; ``exp`` and ``log`` are
libm's, from ``math``.
"""

from __future__ import annotations

import math

import numpy as np


#: For b >= a, Q1(a, b) <= exp(-(b - a)^2 / 2) (a Chernoff bound), which is
#: below 1e-15 once b - a exceeds this gap.
_NEGLIGIBLE_GAP = math.sqrt(-2.0 * math.log(1e-15))
#: The sum is checked against 50-digit sums up to this ``a``; above it a
#: ``b`` farther than _NEGLIGIBLE_GAP from ``a`` takes the limit.
_WINDOW_CHECKED_A = 400.0
#: Half-width of every Poisson run in standard deviations: the Chernoff bounds
#: put the Poisson(m) mass outside [m - 12 sqrt(m), m + 12 sqrt(m) + 25] below
#: e^-70 for every mean m.
_RUN_SIGMAS = 12.0
#: :func:`_log_poisson_pmf` needs ``j >= 15``: a run that would start below
#: this index starts at 0 from ``e^{-mean}`` instead.
_LOG_START_MIN = 16
#: Indices per NumPy step, which bounds the memory for any ``a``; one step
#: covers every envelope window (at most ~5 400).
_WINDOW_CHUNK = 8192


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


def _span(mean: float) -> tuple:
    """``(lo, hi)``, the Poisson(mean) run ``[mean - 12 sqrt(mean), mean +
    12 sqrt(mean) + 25]``, with ``lo`` moved to 0 where it falls below
    _LOG_START_MIN."""
    half = _RUN_SIGMAS * math.sqrt(mean)
    lo = math.floor(mean - half)
    return (lo if lo >= _LOG_START_MIN else 0), math.ceil(mean + half + 25.0)


def _pmf_at(j: int, mean: float) -> float:
    """The Poisson(mean) pmf at a run's start ``j``, which is 0 or at least
    _LOG_START_MIN: ``e^{-mean}`` at 0, else ``exp`` of
    :func:`_log_poisson_pmf` (0 for ``mean = 0``)."""
    if j == 0:
        return math.exp(-mean)
    return math.exp(_log_poisson_pmf(j, mean)) if mean > 0.0 else 0.0


def _pmf_chunks(means, firsts, lo: int, hi: int):
    """Yield ``(start, pmf)``: the Poisson pmf of each row of the column
    ``means`` over the indices ``lo .. hi - 1``, in chunks of at most
    _WINDOW_CHUNK columns, the first at ``start = lo``.

    ``firsts`` are the rows' values at ``lo``; every later value is a
    ``cumprod`` of the ratios ``mean / i``, carried from one chunk to the
    next, so a row's bits depend on its own mean and first value alone.
    """
    last = None
    for start in range(lo, hi, _WINDOW_CHUNK):
        idx = np.arange(start, min(start + _WINDOW_CHUNK, hi), dtype=np.float64)
        if start == 0:
            idx[0] = 1.0  # its ratio is replaced by ``firsts``
        ratios = means / idx
        if last is None:
            ratios[:, 0] = firsts
        else:
            ratios[:, 0] *= last
        pmf = ratios.cumprod(axis=1)
        last = pmf[:, -1]
        yield start, pmf


def _windowed_sums(x: float, ys: list) -> list:
    """``Q1`` for each ``y`` of ``ys`` from the window ``[j0, j_end]`` of
    Poisson(x) indices that :func:`_span` gives.

    The weights ``w_j`` are the Poisson(x) pmf, and every sum is divided by
    their total: the window leaves out less than e^-70 of the mass, so the
    division cancels the error of a log-domain start.  With ``F`` and
    ``sf = 1 - F`` the Poisson(y) cdf and upper tail:

    * a lane with ``y > j0`` sums ``w_j F(j)``.  Its pmf run covers the window
      and ``_span(y)``, and ``F`` is divided by the run's total, which cancels
      the error of its log-domain start too (that start is above e^-663, a
      normal float, even where it is ``j0``; from index 0, ``y`` is below
      671).  Where ``_span(y)`` starts above ``j_end``, ``Q1`` is below
      1e-31: the run covers the window alone and is not divided, which bounds
      its length;
    * a lane with ``y <= j0``, where ``Q1`` is near 1, returns
      ``1 - sum_j w_j sf(j)``, summed as ``sum_k pmf_y(k) W(k - 1)`` with ``W``
      the running weight, so that nothing cancels.  Its run starts at ``j0``
      and stops at ``j_end``; the upper tail past it is below e^-200.

    The weights and every lane are rows of one array, walked from ``j0`` in
    chunks to the last index that any lane needs, and each lane reduces over
    its own columns: its bits do not depend on the other ``ys``.  A lane's
    run below ``j0`` is walked alone first.
    """
    j0, j_end = _span(x)
    firsts, cdfs, divides, ends = [_pmf_at(j0, x)], [], [], []
    for y in ys:
        lo, hi = _span(y)
        cdf = 0.0
        if y > j0 and lo < j0:
            for _start, pmf in _pmf_chunks(np.array([[y]]), [_pmf_at(lo, y)], lo, j0):
                cdf += float(pmf.sum())
            firsts.append(y / j0 * float(pmf[0, -1]))
        else:
            firsts.append(_pmf_at(j0, y))
        cdfs.append(cdf)
        divides.append(y > j0 and lo <= j_end)
        ends.append(max(j_end, hi) if divides[-1] else j_end)
    # Per lane: its last index and whether it sums the complement.
    lanes = [(end, y <= j0) for y, end in zip(ys, ends)]
    sums = [0.0] * len(ys)
    w_cum = 0.0
    means = np.array([x, *ys])[:, None]
    for start, pmf in _pmf_chunks(means, firsts, j0, max(ends) + 1):
        w = pmf[0, : max(j_end + 1 - start, 0)]
        w_cums = w.cumsum()
        if w_cum:  # adding the first chunk's carry, +0.0, changes no bit
            w_cums += w_cum
        for k, (end, complement) in enumerate(lanes):
            n = end + 1 - start
            if n <= 0:
                continue
            p = pmf[k + 1, :n]
            if complement:
                sums[k] += float(p[0]) * w_cum + float((p[1:] * w_cums[:-1]).sum())
            else:
                run = p.cumsum()
                if cdfs[k]:  # likewise a lane's cdf before its first index
                    run += cdfs[k]
                cdfs[k] = float(run[-1])
                sums[k] += float((w * run[: len(w)]).sum())
        if len(w):
            w_cum = float(w_cums[-1])
    out = []
    for y, cdf, divide, q in zip(ys, cdfs, divides, sums):
        if y <= j0:
            q = 1.0 - q / w_cum
        else:
            q = q / (w_cum * cdf) if divide else q / w_cum
        out.append(min(max(q, 0.0), 1.0))
    return out


def _limit(a: float, b: float, x: float, y: float):
    """``Q1``'s limit 0, 1 or 1/2 (``b > a``, ``a > b``, ``a == b``) where
    ``x`` or ``y`` overflows, or where ``a`` exceeds _WINDOW_CHECKED_A and
    ``b`` is farther than _NEGLIGIBLE_GAP from it; else ``None``.

    Either |a - b| exceeds _NEGLIGIBLE_GAP, and the Chernoff bounds fix Q1
    to 0 or 1 within 1e-15, or a or b exceeds 1.3e154, whose ulp exceeds
    1e138, and a == b, where Q1(a, a) tends to 1/2.
    """
    if max(x, y) == math.inf or (a > _WINDOW_CHECKED_A and abs(b - a) > _NEGLIGIBLE_GAP):
        return 0.5 if a == b else 1.0 if a > b else 0.0
    return None


def marcum_q1(a: float, b):
    """First-order Marcum Q function ``Q1(a, b)``.

    Computed as the Poisson mixture

        Q1(a, b) = sum_{j>=0} e^{-a^2/2} (a^2/2)^j / j! * P[Poisson(b^2/2) <= j],

    which is the tail probability of a noncentral chi-square with 2 degrees
    of freedom.  All terms are positive.  With ``x = a^2/2`` and
    ``y = b^2/2`` the sum runs only over the window
    ``[x - 12 sqrt(x), x + 12 sqrt(x) + 25]`` of Poisson(x) indices (from 0
    where it would start below 16), in NumPy chunks of bounded size.  Every
    pmf starts in the log domain, or from ``e^{-mean}`` at index 0, and runs
    on by ``cumprod``; every cdf is a ``cumsum`` of a pmf run, with no
    incomplete gamma function.  Where ``y`` lies at or below the window's
    start, ``Q1`` is near 1 and the sum is
    ``1 - Q1 = sum_j pmf_x(j) P[Poisson(y) > j]`` instead, which does not
    cancel.  Its error is below 1.2e-12 relative where ``Q1 >= 1e-10`` and
    below 1.3e-23 absolute elsewhere (checked against ``scipy.stats.ncx2.sf``
    and a 50-digit ``mpmath`` series for ``a`` up to 400).

    Where ``a^2/2`` or ``b^2/2`` overflows, and where ``a > 400`` and
    ``|b - a|`` exceeds ~8.3, ``Q1`` is its limit 0, 1 or 1/2 (``b > a``,
    ``a > b``, ``a == b``), which the Chernoff bounds fix to within 1e-15.
    Only ``b`` within ~8.3 of a large ``a`` still takes O(a) work, in
    bounded memory.

    ``a`` is a float.  A float ``b`` returns a float; a tuple of ``b``
    returns a tuple: every ``b`` shares one walk of the Poisson(x) weights,
    and each element is bit-identical to the call with that ``b`` alone (the
    closed forms take a hotspot pair's three sojourn tails this way).
    """
    bs = tuple(map(float, b)) if isinstance(b, tuple) else (float(b),)
    a = float(a)
    if not (0.0 <= a < math.inf and all(0.0 <= b_k < math.inf for b_k in bs)):
        raise ValueError("marcum_q1 requires finite a >= 0 and b >= 0")
    x = a * a / 2.0  # Poisson mean of the mixture index
    limits = [_limit(a, b_k, x, b_k * b_k / 2.0) for b_k in bs]
    ys = [b_k * b_k / 2.0 for b_k, limit in zip(bs, limits) if limit is None]
    sums = iter(_windowed_sums(x, ys) if ys else ())
    out = tuple(next(sums) if limit is None else limit for limit in limits)
    return out if isinstance(b, tuple) else out[0]
