"""Independent second routes that the tests check the program against, and
the pinned regression constants (``fixtures.json``).

None of these is on a production path.  Most recompute, by a slower or more
direct method, a number that the package computes another way.  The rest are
the reference expressions that acceptance checks measure the program
against: the paper's exponential-sum I0 fit and mean-distance expression,
the Jensen bound on that mean and the border-strip occupancy of a walk.
`fresh_python` runs the package in a new interpreter, for the checks of what
it imports and when, which this process (having loaded scipy) cannot make.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy import special as sp

from hetnet_handover import simengine as se
from hetnet_handover.geometry import Region
from hetnet_handover.radio import TierRadioParams
from hetnet_handover.specfun import marcum_q1

#: The pinned regression constants: ``name -> {value, rel_tolerance, oracle}``.
PINS = json.loads(Path(__file__).with_name("fixtures.json").read_text(encoding="utf-8"))[
    "fixtures"
]


def pin(name: str) -> float:
    return float(PINS[name]["value"])


def fresh_python(code: str, *argv: str, timeout: float | None = None) -> str:
    """Standard output of ``python -c code *argv`` in a new interpreter that
    imports the package under test; past ``timeout`` seconds it is killed
    and `subprocess.TimeoutExpired` raised."""
    src = str(Path(se.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True,
        timeout=timeout,
    )
    return run.stdout


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

#: Break points of the paper's piecewise fit I0(z) ~ sum_k a_k exp(b_k z):
#: interval k is [edges[k], edges[k+1]), the last one open-ended.
I0_EXP_EDGES = (0.0, 11.5, 20.0, 37.25)
#: Four (a, b) pairs per interval, kept exactly as tabulated (including the
#: tiny 2.4e-9 and negative entries; the b = -163.4 term is numerically inert
#: on its interval because exp(-163.4 z) underflows for z >= 11.5).
I0_EXP_COEFFICIENTS = (
    ((0.1682, 0.7536), (0.1472, 0.9736), (0.4450, -0.715), (0.2382, 0.2343)),
    ((0.2667, 0.4710), (0.4916, -163.4), (0.1110, 0.9852), (0.1304, 0.8554)),
    ((0.1121, 0.9807), (0.1055, 0.8672), (-1.8e-4, 1.0795), (0.0033, 1.0385)),
    ((2.4e-9, 1.144), (0.0675, 0.995), (0.0547, 0.567), (0.0787, 0.946)),
)


def i0_exp_approx(z) -> np.ndarray:
    """The paper's piecewise exponential-sum approximation of I0 at ``z >= 0``.

    Only a few-percent accurate and not continuous at interval joins; it
    exists because it integrates in closed form (see
    `mean_cluster_distance_expsum`).
    """
    z = np.asarray(z, dtype=float)
    block = np.array(I0_EXP_COEFFICIENTS)[np.searchsorted(I0_EXP_EDGES, z, side="right") - 1]
    with np.errstate(under="ignore", over="ignore"):
        return np.sum(block[..., 0] * np.exp(block[..., 1] * z[..., None]), axis=-1)


def i0_approx_max_rel_err(interval: int) -> float:
    """Largest relative error of `i0_exp_approx` against ``scipy.special.i0``
    on 2001 points of one finite interval."""
    z = np.linspace(I0_EXP_EDGES[interval], I0_EXP_EDGES[interval + 1], 2001, endpoint=False)
    exact = sp.i0(z)
    return float(np.max(np.abs(i0_exp_approx(z) - exact) / exact))


def marcum_q1_quadrature(a: float, b: float) -> float:
    """Q1 by adaptive quadrature of its defining density.

    Integrates ``x * i0e(a x) * exp(-(x - a)^2 / 2)`` from ``b`` to infinity,
    where ``i0e(t) = e^{-t} I0(t)`` keeps the integrand finite.
    """

    def integrand(x: float) -> float:
        return x * sp.i0e(a * x) * math.exp(-0.5 * (x - a) ** 2)

    val, _err = integrate.quad(integrand, b, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12)
    return min(1.0, max(0.0, val))


def marcum_q1_mpmath(a: float, b: float) -> float:
    """Poisson-mixture series of the Marcum Q function in 50-digit arithmetic.

    With ``x = a^2/2`` and ``y = b^2/2`` the sum covers the indices
    ``x +- (14 sqrt(x) + 30)``, which leave out less than 1e-40 of the
    mixture; the pmfs and the incomplete-gamma cdf at the first index are
    formed directly in 50 digits and carried upward by the exact
    recurrences.
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


# ---------------------------------------------------------------------------
# Distance laws
# ---------------------------------------------------------------------------

def rician_pdf(r: float, w: float, sigma: float) -> float:
    """Density of the hotspot-to-serving distance ``r >= 0`` given the centre
    distance ``w``, in the scaled form
    ``(r/sigma^2) i0e(wr/sigma^2) exp(-(r-w)^2 / (2 sigma^2))``, which stays
    finite for large arguments."""
    return float(
        (r / sigma**2) * sp.i0e(w * r / sigma**2) * math.exp(-((r - w) ** 2) / (2.0 * sigma**2))
    )


def rician_cdf(r, w: float, sigma: float):
    """CDF of the conditional hotspot-to-serving distance at ``r >= 0``:
    ``1 - Q1(w/sigma, r/sigma)``, one `marcum_q1` call over the tuple of
    every ``r``."""
    r_arr = np.asarray(r, dtype=float)
    q = marcum_q1(w / sigma, tuple((r_arr / sigma).ravel().tolist()))
    out = 1.0 - np.array(q).reshape(r_arr.shape)
    return float(out) if out.ndim == 0 else out


def mean_cluster_distance_ub(lam: float, sigma: float) -> float:
    """Proven closed-form upper bound on the mean hotspot-to-serving distance.

    The centre offset is an isotropic 2-D Gaussian with per-axis variance
    ``1/(2 pi lam)``; adding the child displacement (per-axis ``sigma^2``)
    gives ``E[R^2] = 1/(pi lam) + 2 sigma^2``, and Jensen's inequality gives
    ``E[R] <= sqrt(E[R^2])``.  Since ``R`` is exactly Rayleigh, the bound is
    ``2/sqrt(pi) ~ 1.128`` times the exact mean for every ``lam`` and
    ``sigma``.
    """
    if lam <= 0 or sigma <= 0:
        raise ValueError("lam and sigma must be positive")
    return math.sqrt(1.0 / (math.pi * lam) + 2.0 * sigma * sigma)


#: Below this cluster-size parameter q = pi*lam*sigma^2 the paper's
#: exponential-sum expression for the mean cluster distance falls below the
#: exact mean (measured crossover q ~ 0.052); a UserWarning is emitted.
UB_VALIDITY_Q_FLOOR = 0.06


def mean_cluster_distance_expsum(lam: float, sigma: float, interval: int = 0) -> float:
    """The paper's exponential-sum expression for the mean hotspot distance.

    With ``q = pi lam sigma^2`` and the coefficients ``(a_k, b_k)`` of one
    interval of `i0_exp_approx`:

        sqrt(2 pi) q sigma * sum_k a_k [ 2/(2q+1-b_k^2)
                                         + b_k/(2q+1)^(3/2)
                                         + 4 b_k^2/(2q+1-b_k^2)^2 ]

    It is not a bound.  It integrates the interval-0 fit of I0 (fitted on
    [0, 11.5)) over every argument ``w r / sigma^2``, and that fit's largest
    exponent ``b = 0.9736 < 1`` falls exponentially below I0 where
    ``w >> sigma``: below ``q ~ 0.052`` the value undershoots the exact mean
    (a UserWarning flags ``q < UB_VALIDITY_Q_FLOOR``), above it the value
    exceeds it (420.4 m vs 218.7 m at ``lam = 2e-5``, ``sigma = 150``).  A
    coefficient with ``b_k^2 >= 2q+1`` puts the formula outside its validity
    range entirely and raises ``ValueError``.
    """
    q = math.pi * lam * sigma * sigma
    coeffs = I0_EXP_COEFFICIENTS[interval]
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
    deployment: list[tuple[np.ndarray, TierRadioParams]],
) -> tuple[int, int]:
    """Strongest-RSS association by a scan over every BS of ``deployment``
    (one ``(N, 2)`` position array and its radio parameters per tier):
    ``(tier position in deployment, index within that tier)``, as
    ``simengine._ServingMap.query`` returns it.

    Ties break toward the earlier tier in ``deployment`` and then the lower
    index.  A query placed exactly on a BS position associates to that BS
    (the RSS power law diverges there).
    """
    if not deployment or all(len(xy) == 0 for xy, _ in deployment):
        raise ValueError("no BS deployed anywhere")
    loc = np.asarray(location, dtype=float)
    best: tuple[int, int] | None = None
    best_rss = -math.inf
    for tier_pos, (xy, params) in enumerate(deployment):
        if len(xy) == 0:
            continue
        d2 = np.sum((xy - loc) ** 2, axis=1)
        zero = d2 == 0.0
        if np.any(zero):
            return tier_pos, int(np.argmax(zero))
        rss = params.linear_prefactor * d2 ** (-params.pathloss_exponent / 2.0)
        idx = int(np.argmax(rss))
        # strict > keeps the first (earlier-tier, lower-index) maximum
        if rss[idx] > best_rss:
            best_rss = float(rss[idx])
            best = (tier_pos, idx)
    assert best is not None
    return best


def mrwp_waypoints_loop(start, n_moves: int, region: Region, cfg, rng) -> np.ndarray:
    """`mobility.generate_trajectory`'s waypoints, replayed one move at a
    time from its documented draw order: ``n_moves`` base lengths, then
    (``p_z > 0``) as many coins and one extension per coin below ``p_z``,
    then ``n_moves`` turns; a move whose clamped step is not above 64 ulps
    of the region's largest |coordinate| is replaced by scalar draws in the
    same order.  The clamp is the smallest of the drawn length and the
    distances along the ray to the walls it heads for."""
    lengths = rng.rayleigh(cfg.sigma_rwp, n_moves).tolist()
    if cfg.p_z > 0:
        coins = rng.random(n_moves).tolist()
        extension = iter(rng.rayleigh(cfg.sigma_z, sum(c < cfg.p_z for c in coins)).tolist())
        lengths = [ln + next(extension) if c < cfg.p_z else ln for ln, c in zip(lengths, coins)]
    turns = 2.0 * math.pi * rng.random(n_moves)
    moves = zip(lengths, np.cos(turns).tolist(), np.sin(turns).tolist())

    def redrawn() -> tuple:
        length = rng.rayleigh(cfg.sigma_rwp)
        if cfg.p_z > 0 and rng.random() < cfg.p_z:
            length += rng.rayleigh(cfg.sigma_z)
        turn = 2.0 * math.pi * rng.random()
        return length, math.cos(turn), math.sin(turn)

    lows, highs = (region.x_min, region.y_min), (region.x_max, region.y_max)

    def clamped(p: list, move: tuple) -> float:
        length, *u = move
        walls = [
            ((hi if d > 0 else lo) - c) / d
            for c, d, lo, hi in zip(p, u, lows, highs)
            if abs(d) > 1e-300
        ]
        return min([length] + walls)

    shortest = 64 * math.ulp(max(abs(c) for c in (*lows, *highs)))
    p = [float(start[0]), float(start[1])]
    out = [tuple(p)]
    for move in moves:
        while (step := clamped(p, move)) <= shortest:
            move = redrawn()
        p = [min(max(c + step * d, lo), hi) for c, d, lo, hi in zip(p, move[1:], lows, highs)]
        out.append(tuple(p))
    return np.array(out)


def strip_occupancy(trajectories, region: Region, border_fraction: float) -> float:
    """Fraction of all waypoints in the border strips of ``region``: outside
    the closed central rectangle inset by ``border_fraction`` of each side."""
    pts = np.concatenate([t.waypoints for t in trajectories])
    bx, by = border_fraction * region.width, border_fraction * region.height
    central = Region(region.x_min + bx, region.x_max - bx, region.y_min + by, region.y_max - by)
    return np.count_nonzero(~central.contains(pts)) / len(pts)


def crossing_events_lexsort(segs, leg, circle, fld) -> tuple:
    """`simengine._crossing_events` by one ``np.lexsort`` over every
    crossing of the candidate (``leg``, ``circle``) pairs: the order the
    production merge must reproduce row for row."""
    args = (segs.x0[leg], segs.y0[leg], segs.ux[leg], segs.uy[leg])
    length = segs.length[leg]
    s1h, s2h, has_h = se._segment_roots(
        *args, fld.cx_h[circle], fld.cy_h[circle], fld.r2_h[circle]
    )
    s1f, s2f, has_f = se._segment_roots(
        *args, fld.cx_f[circle], fld.cy_f[circle], fld.r2_f[circle]
    )
    roots = ((s1h, has_h, se._EV_H_IN), (s2h, has_h, se._EV_H_OUT),
             (s1f, has_f, se._EV_F_IN), (s2f, has_f, se._EV_F_OUT))
    masks = [has & (s > 0.0) & (s <= length) for s, has, _ in roots]
    circle = np.concatenate([circle[m] for m in masks])
    leg = np.concatenate([leg[m] for m in masks])
    arclength = np.concatenate([s[m] for m, (s, _, _) in zip(masks, roots)])
    code = np.concatenate(
        [np.full(np.count_nonzero(m), c, dtype=np.intp) for m, (_, _, c) in zip(masks, roots)]
    )
    order = np.lexsort((code, arclength, leg, circle))
    return circle[order], leg[order], arclength[order], code[order]


def candidate_pairs_brute(wp, fld) -> tuple:
    """`simengine._candidate_groups`' broad phase for one user's
    ``(n_moves + 1, 2)`` waypoints: every leg's box against every box of
    ``fld`` in one full mask.  Returns the ``(leg, circle)`` index arrays of
    the overlapping pairs, by leg and then by circle."""
    x, y = wp[:, 0], wp[:, 1]
    slack = se._BOX_SLACK * float(np.max(np.abs(x) + np.abs(y)))
    x_lo, x_hi, y_lo, y_hi = fld.boxes
    hit = (np.maximum(x[:-1], x[1:]) + slack)[:, None] >= x_lo
    hit &= (np.minimum(x[:-1], x[1:]) - slack)[:, None] <= x_hi
    hit &= (np.maximum(y[:-1], y[1:]) + slack)[:, None] >= y_lo
    hit &= (np.minimum(y[:-1], y[1:]) - slack)[:, None] <= y_hi
    return np.nonzero(hit)


def walk_trajectory_loop(wp, velocity, pause, fld, smap, thresholds, counts) -> None:
    """`simengine._walk_trajectories` for one user's ``(n_moves + 1, 2)``
    waypoints, as an event-by-event loop over the user's lexsorted event
    table (`crossing_events_lexsort`), keeping per-circle inside flags and a
    dict of tracked residences.  Its times, sojourns and exit points use the
    same float operations, so the counts must agree exactly.
    """
    if fld.n == 0:
        return
    t_min = thresholds.t_threshold
    t_pp = thresholds.t_pingpong
    pcs = [counts.pairs[k] for k in se._KIND_ORDER]
    kind = fld.kind_index.tolist()

    segs = se._segments(wp[None])
    events = crossing_events_lexsort(segs, *candidate_pairs_brute(wp, fld), fld)
    x0, y0, ux, uy, length = (a.tolist() for a in segs)
    t_base = list(
        itertools.accumulate((ln / velocity + pause for ln in length), initial=0.0)
    )

    p = wp[0]
    inside_h = (((p[0] - fld.cx_h) ** 2 + (p[1] - fld.cy_h) ** 2) < fld.r2_h).tolist()
    inside_f = (((p[0] - fld.cx_f) ** 2 + (p[1] - fld.cy_f) ** 2) < fld.r2_f).tolist()
    # circle -> [t_enter, fail_checked, failed]; a start inside is untracked.
    tracked = {}
    quick_exits = []  # (circle, x, y) of exits within t_pingpong of the trigger

    for i, k, s, code in zip(*(a.tolist() for a in events)):
        t = t_base[k] + s / velocity
        if code == se._EV_H_IN:
            if inside_h[i]:
                continue
            inside_h[i] = True
            tracked[i] = [t, False, False]
            pcs[kind[i]].triggered += 1
        elif code == se._EV_F_IN:
            if inside_f[i]:
                continue
            inside_f[i] = True
            res = tracked.get(i)
            if res is not None and not res[1]:
                res[1] = True
                if t - res[0] < t_min:
                    res[2] = True
                    pcs[kind[i]].failures += 1
        elif code == se._EV_F_OUT:
            inside_f[i] = False
        else:  # _EV_H_OUT
            if not inside_h[i]:
                continue
            inside_h[i] = False
            res = tracked.pop(i, None)
            if res is not None:
                pc = pcs[kind[i]]
                sojourn = t - res[0]
                if sojourn >= t_min:
                    pc.handovers += 1
                    if res[2]:
                        pc.overlap += 1
                if sojourn < t_pp:
                    s_out = min(s + se._EXIT_NUDGE * length[k], length[k])
                    quick_exits.append((i, x0[k] + ux[k] * s_out, y0[k] + uy[k] * s_out))

    for i, (t_enter, _, failed) in tracked.items():
        if t_base[-1] - t_enter >= t_min:
            pc = pcs[kind[i]]
            pc.handovers += 1
            if failed:
                pc.overlap += 1

    if quick_exits:
        circle, ex, ey = (np.array(c) for c in zip(*quick_exits))
        tier, idx = smap.query(np.column_stack((ex, ey)))
        back = (tier == fld.serving_tier[circle]) & (idx == fld.serving_idx[circle])
        per_kind = np.bincount(fld.kind_index[circle[back]], minlength=len(pcs))
        for pc, n in zip(pcs, per_kind.tolist()):
            pc.pingpongs += n
