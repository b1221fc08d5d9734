"""Independent second routes that the tests check the program against.

None of these is on a production path: each one recomputes, by a slower or
more direct method, a number that the package computes another way.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate
from scipy import special as sp

from hetnet_handover import simengine as se
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


def walk_trajectory_loop(traj, fld, smap, thresholds, counts) -> None:
    """`simengine._walk_trajectories` for one user, as an event-by-event
    loop over the user's lexsorted event table (`crossing_events_lexsort`),
    keeping per-circle inside flags and a dict of tracked residences.  Its
    times, sojourns and exit points use the same float operations, so the
    counts must agree exactly.
    """
    if fld.n == 0:
        return
    wp = traj.waypoints
    velocity = traj.velocity
    t_min = thresholds.t_threshold
    t_pp = thresholds.t_pingpong
    pcs = [counts.pairs[k] for k in se._KIND_ORDER]
    kind = fld.kind_index.tolist()

    segs = se._segments([wp])
    events = crossing_events_lexsort(segs, *se._candidate_pairs(wp, fld), fld)
    x0, y0, ux, uy, length = (a.tolist() for a in segs)
    t_base = list(
        itertools.accumulate((ln / velocity + traj.pause for ln in length), initial=0.0)
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
