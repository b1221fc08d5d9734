"""Event-driven Monte Carlo cross-check of the closed-form handover metrics.

One trial deploys a single realization of the three-tier network (uniform
macro tier, uniform small-cell tier, clustered hotspot tier) as one position
array per tier in `_TIERS` order, builds the handover and failure boundary
circles for every (target BS, serving BS) pair of the pair kinds it counts,
and walks one waypoint block of all users, at one speed and pause, through
the static circle field.  A trial that counts one pair kind builds and walks
only that kind's circles; the strongest-RSS association still sees every
tier.  Each leg is measured once; a user's exposure is their clock's end time.
Segment-circle intersections are solved in closed form (quadratic roots), so
event times carry no time-step discretization error.  A bounding-box test
picks the (segment, circle) pairs worth solving, in blocks of legs sized by
the field: whole users per block when their overlap mask fits a fixed
budget, 32 legs of one user otherwise.  Consecutive users whose pairs fit a
second budget share one event table, which holds their crossings grouped by
circle and user and time-ordered within each.  The state machine below is
evaluated on that table with array operations: which events change a
circle's inside state, where each residence starts and ends, and which
failure-circle entry falls inside it.

Events, per boundary circle:

* **triggered** — each crossing from outside to inside the handover circle;
* **handover** — the residence that started at a trigger accumulates at
  least ``t_threshold`` seconds before the user leaves the circle.
  Residence counts travel time and waypoint pauses spent inside, across as
  many segments as the user lingers;
* **failure** — the user reaches the failure circle (nested inside the
  handover circle) less than ``t_threshold`` seconds after the trigger;
* **ping-pong** — the user exits the handover circle less than
  ``t_pingpong`` seconds after the trigger and the strongest-RSS cell at
  the exit point is the original serving BS again.

Handover and failure are evaluated independently per residence (one episode
can legitimately count as both; `PairCounts.overlap` counts those episodes,
and no CLI output reports it yet).

Determinism: each trial owns a private generator seeded from
``(master_seed, trial_index)``, so campaign results are bit-identical for
any number of workers and any execution order.
"""

from __future__ import annotations

import importlib
import itertools
import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .analytics import (
    METRICS,
    HandoverMetrics,
    HandoverThresholds,
    PairKind,
    compute_metrics,
    mean_pair_distance,
)
from .geometry import ClusterConfig, Region, sample_ppp, sample_tcp
from .mobility import MobilityConfig, generate_trajectory
from .radio import (DegenerateBoundaryError, TierRadioParams, boundary_domain,
                    boundary_factors, erb_circle_arrays, make_erb_pair)

#: The three tiers, in the tie-break order of the strongest-RSS map (ties go
#: to the earlier tier).  Each name is both the `SimConfig` attribute holding
#: the tier's radio parameters and the tier's config section.  A trial's
#: deployment is one ``(N, 2)`` position array per tier, in this order.
_TIERS = ("macro", "small", "hotspot")

_HOTSPOT = _TIERS.index("hotspot")  # the clustered tier

#: Classes imported on first use, not with the package: the closed forms
#: build no KD-tree and no process pool.  Each stays a module attribute
#: (PEP 562 ``__getattr__``) that can be read and replaced before any trial.
_DEFERRED = {"cKDTree": "scipy.spatial", "ProcessPoolExecutor": "concurrent.futures"}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_DEFERRED[name]), name)
    return value


def _deferred(name: str):
    """The module attribute ``name``: a replaced one as it stands, otherwise
    imported through `__getattr__` on first use."""
    return globals().get(name) or __getattr__(name)


#: (serving, target) positions in `_TIERS` of each pair kind; the key order
#: is the array layout and CSV row order of the pairs.
_PAIR_TIERS = {
    PairKind.SM: (0, 1),
    PairKind.SPS: (1, 2),
    PairKind.SPM: (0, 2),
}

_KIND_ORDER = tuple(_PAIR_TIERS)

#: Standard deviations that bound a hotspot offset in `SimConfig`'s
#: float-range check; no standard-normal draw comes near it.
_OFFSET_SIGMAS = 64.0


def _scope(kinds) -> tuple:
    """``kinds`` in `_KIND_ORDER` order; refuses an empty or unknown kind."""
    kinds = tuple(kinds)
    unknown = [k for k in kinds if k not in _PAIR_TIERS]
    if unknown:
        raise ValueError(f"unknown pair kinds {unknown!r}; expected PairKind members")
    if not kinds:
        raise ValueError("kinds must name at least one pair kind")
    return tuple(k for k in _KIND_ORDER if k in kinds)


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation campaign needs.

    Densities are per square meter.  ``with_default_ratios`` builds the
    default deployment where the macro and cluster-parent densities are one
    tenth of the small-cell density.
    """

    region: Region
    macro: TierRadioParams
    small: TierRadioParams
    hotspot: TierRadioParams
    lambda_m: float
    lambda_s: float
    cluster: ClusterConfig
    mobility: MobilityConfig
    thresholds: HandoverThresholds
    n_users: int = 10
    n_moves: int = 100
    n_trials: int = 100
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.lambda_m <= 0:
            raise ValueError(f"lambda_m must be positive, got {self.lambda_m}")
        if self.lambda_s <= 0:
            raise ValueError(f"lambda_s must be positive, got {self.lambda_s}")
        for name in ("n_users", "n_moves", "n_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        mob, sigma, region = self.mobility, self.cluster.sigma, self.region
        diagonal = math.hypot(region.width, region.height)
        # The circle field squares target-serving offsets, which span the region.
        if not math.isfinite(2.0 * diagonal * diagonal):
            raise ValueError(
                f"[region] width_m = {region.width!r} and height_m = {region.height!r}: "
                "twice the squared diagonal overflows"
            )
        # No leg is longer than the diagonal, and a campaign's exposure sums
        # every user's walk clock of every trial.
        legs = self.n_trials * self.n_users * self.n_moves
        if not math.isfinite(legs * (diagonal / mob.velocity + mob.pause)):
            raise ValueError(
                f"[mobility] velocity_mps = {mob.velocity!r} and pause_s = {mob.pause!r}: the "
                "worst-case exposure n_trials * n_users * n_moves * (diagonal / velocity_mps "
                "+ pause_s) is not finite"
            )
        # A target-serving offset spans at most the region and two hotspot
        # offsets per axis, and the circle field squares it.
        reach = diagonal + 2.0 * _OFFSET_SIGMAS * sigma
        if not math.isfinite(2.0 * reach * reach):
            raise ValueError(
                f"[deployment] sigma_m = {sigma!r}: hotspot offsets of up to "
                f"{_OFFSET_SIGMAS:g} sigma overflow when squared"
            )

    @classmethod
    def with_default_ratios(cls, *, lambda_s: float, sigma: float, **parts) -> "SimConfig":
        """Deployment driven by the small-cell density alone: the macro and
        cluster-parent densities are ``lambda_s / 10`` (10:1:1 ratios) and the
        cluster spread is ``sigma``.

        ``parts`` are the other fields by name: ``region``, ``macro``,
        ``small``, ``hotspot``, ``mobility`` and ``thresholds``, and
        optionally the counts and ``master_seed``.
        """
        return cls(
            lambda_m=lambda_s / 10.0,
            lambda_s=lambda_s,
            cluster=ClusterConfig(lambda_p=lambda_s / 10.0, sigma=sigma),
            **parts,
        )


@dataclass
class PairCounts:
    triggered: int = 0
    handovers: int = 0
    failures: int = 0
    pingpongs: int = 0
    overlap: int = 0  # residences that counted as both handover and failure
    degenerate_skipped: int = 0  # pairs whose boundary is a straight line
    enclosing_skipped: int = 0  # pairs whose circle surrounds the serving BS

    def merge_in(self, other: "PairCounts") -> None:
        for name in _COUNT_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def validate(self) -> None:
        for name in _COUNT_NAMES:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.handovers > self.triggered:
            raise ValueError("handovers cannot exceed triggered events")
        if self.failures > self.triggered:
            raise ValueError("failures cannot exceed triggered events")
        # A ping-pong ends, and an overlap is, one triggered residence.
        if self.pingpongs > self.triggered:
            raise ValueError("pingpongs cannot exceed triggered events")
        if self.overlap > min(self.handovers, self.failures):
            raise ValueError("overlap cannot exceed handovers or failures")


#: `PairCounts`' field names, read once rather than on every merge.
_COUNT_NAMES = tuple(f.name for f in fields(PairCounts))


@dataclass
class EventCounts:
    """Per-pair event counters plus the shared exposure time of one or more trials.

    ``pairs`` holds the counted pair kinds only, in `_KIND_ORDER` order
    (every kind by default; see `counting`).
    """

    pairs: dict = field(default_factory=lambda: {k: PairCounts() for k in _KIND_ORDER})
    exposure_time: float = 0.0  # seconds of user motion + pauses, summed over users

    @classmethod
    def counting(cls, kinds) -> "EventCounts":
        """Zero counts of the pair kinds ``kinds`` (see `_scope`)."""
        return cls(pairs={k: PairCounts() for k in _scope(kinds)})

    def merge_in(self, other: "EventCounts") -> None:
        if list(other.pairs) != list(self.pairs):
            raise ValueError(
                f"cannot merge counts of pair kinds {[k.value for k in other.pairs]} "
                f"into counts of {[k.value for k in self.pairs]}"
            )
        for kind, pc in self.pairs.items():
            pc.merge_in(other.pairs[kind])
        self.exposure_time += other.exposure_time

    def validate(self) -> None:
        if self.exposure_time < 0:
            raise ValueError("exposure_time must be >= 0")
        for pc in self.pairs.values():
            pc.validate()


# ---------------------------------------------------------------------------
# Trial internals
# ---------------------------------------------------------------------------

@dataclass
class _CircleField:
    """Flat arrays of every counted boundary-circle pair in one deployment."""

    kind_index: np.ndarray  # (N,) position into _KIND_ORDER
    cx_h: np.ndarray
    cy_h: np.ndarray
    r2_h: np.ndarray
    cx_f: np.ndarray
    cy_f: np.ndarray
    r2_f: np.ndarray
    serving_tier: np.ndarray  # (N,) position into _TIERS
    serving_idx: np.ndarray  # (N,) row within that tier's point set

    @property
    def n(self) -> int:
        return len(self.kind_index)

    @cached_property
    def boxes(self) -> tuple:
        """Broad-phase boxes ``(x_lo, x_hi, y_lo, y_hi)``, one per pair.

        Each box bounds both circles of the pair, so one test covers both,
        and carries a slack of ``_BOX_SLACK`` times the pair's coordinate
        scale.
        """
        r_h = np.sqrt(self.r2_h)
        r_f = np.sqrt(self.r2_f)
        slack = _BOX_SLACK * (np.abs(self.cx_h) + np.abs(self.cy_h) + r_h)
        return (
            np.minimum(self.cx_h - r_h, self.cx_f - r_f) - slack,
            np.maximum(self.cx_h + r_h, self.cx_f + r_f) + slack,
            np.minimum(self.cy_h - r_h, self.cy_f - r_f) - slack,
            np.maximum(self.cy_h + r_h, self.cy_f + r_f) + slack,
        )


class _ServingMap:
    """Strongest biased-RSS association over the full deployment.

    Within a tier the prefactor is constant, so the strongest BS of a tier
    is simply the nearest one; the overall winner maximizes
    ``prefactor * d**-alpha`` across tiers.  Ties break toward the earlier
    tier, and a query on a BS position associates to that BS.  The tests
    check it against a brute-force scan over every BS.
    """

    def __init__(self, trees, params) -> None:
        """``trees`` (``None`` for an empty tier) and ``params`` run over the
        tiers in `_TIERS` order."""
        self._entries = [
            None if tree is None else (tree, p.linear_prefactor, p.pathloss_exponent)
            for tree, p in zip(trees, params)
        ]

    def query(self, xy: np.ndarray) -> tuple:
        """``(tier position, index)`` arrays of the serving BS of each row of
        ``xy`` (shape ``(n, 2)``)."""
        best_rss = np.full(len(xy), -math.inf)
        best_tier = np.full(len(xy), -1, dtype=np.intp)
        best_idx = np.full(len(xy), -1, dtype=np.intp)
        for tier_pos, entry in enumerate(self._entries):
            if entry is None:
                continue
            tree, prefactor, alpha = entry
            d, idx = tree.query(xy)
            with np.errstate(divide="ignore"):  # d = 0 on a BS: rss = inf
                rss = prefactor * d ** (-alpha)
            better = rss > best_rss
            best_rss[better] = rss[better]
            best_tier[better] = tier_pos
            best_idx[better] = idx[better]
        return best_tier, best_idx


def _kdtrees(tiers) -> list:
    """One KD-tree per tier position array, ``None`` for an empty tier."""
    kdtree = _deferred("cKDTree")
    return [kdtree(xy) if len(xy) > 0 else None for xy in tiers]


def _build_circle_field(
    cfg: SimConfig,
    tiers,
    parents: np.ndarray,
    parent_index: np.ndarray,
    trees,
    counts: EventCounts,
) -> _CircleField:
    """One circle pair per (target BS, its serving BS) of each pair kind
    that ``counts`` holds.

    ``tiers`` holds the position array of each tier in `_TIERS` order and
    ``trees`` their `_kdtrees`.  A pair's serving BS is the serving-tier BS
    nearest to the target, or, for a hotspot target, nearest to its *cluster
    center* (row ``parent_index`` of ``parents``), where its users congregate.
    """
    params = [getattr(cfg, name) for name in _TIERS]
    empty_int, empty = np.empty(0, dtype=np.intp), np.empty(0)
    blocks = [[empty_int] + [empty] * 6 + [empty_int] * 2]
    for kind, pc in counts.pairs.items():
        s, t = _PAIR_TIERS[kind]
        target, tree = tiers[t], trees[s]
        if tree is None or len(target) == 0:
            continue
        if t == _HOTSPOT:
            _, b_of_parent = tree.query(parents)
            b = b_of_parent[parent_index]
        else:
            _, b = tree.query(target)
        serving_xy = tiers[s][b]
        sx, sy = serving_xy[:, 0], serving_xy[:, 1]
        tx, ty = target[:, 0] - sx, target[:, 1] - sy
        u, u_f = boundary_factors(params[s], params[t], tx, ty, cfg.thresholds.q_out)
        # Degenerate pairs (straight-line boundary) and pairs whose circle
        # surrounds the serving BS are counted and dropped before any circle
        # is built: the entry-event logic assumes the target area is the
        # interior.
        degenerate, enclosing = boundary_domain(u, u_f)
        pc.degenerate_skipped += int(np.count_nonzero(degenerate))
        pc.enclosing_skipped += int(np.count_nonzero(enclosing))
        keep = ~(degenerate | enclosing)
        tx, ty, sx, sy, b = tx[keep], ty[keep], sx[keep], sy[keep], b[keep]
        norm = np.hypot(tx, ty)
        h = erb_circle_arrays(tx, ty, norm, u[keep])
        f = erb_circle_arrays(tx, ty, norm, u_f[keep])
        blocks.append([
            np.full(len(tx), _KIND_ORDER.index(kind), dtype=np.intp),
            sx + h.cx,
            sy + h.cy,
            h.radius * h.radius,
            sx + f.cx,
            sy + f.cy,
            f.radius * f.radius,
            np.full(len(tx), s, dtype=np.intp),
            b,
        ])
    return _CircleField(*(np.concatenate(column) for column in zip(*blocks)))


def _segment_roots(px, py, ux, uy, cx, cy, r2):
    """Vectorized arclength roots of one segment against many circles."""
    fx = px - cx
    fy = py - cy
    half_b = fx * ux + fy * uy
    # half_b² − (|f|² − r²) for a unit direction, written as r² − (f × u)²,
    # which does not cancel when the circle is small and the start far away.
    cross = fx * uy - fy * ux
    disc = r2 - cross * cross
    has = disc > 0.0
    root = np.sqrt(np.where(has, disc, 0.0))
    return -half_b - root, -half_b + root, has


# Event codes, ordered so that simultaneous events process sensibly:
# handover-circle entry first, handover-circle exit last.
_EV_H_IN, _EV_F_IN, _EV_F_OUT, _EV_H_OUT = 0, 1, 2, 3

#: Fraction of the segment length used to nudge an exit point off the
#: boundary before asking which BS is strongest there.
_EXIT_NUDGE = 1e-6

#: Overlap-mask elements (leg x circle) per broad-phase block of whole users.
_BROAD_BUDGET = 32768

#: Legs per broad-phase block of a field too large for one whole user: the
#: block's overlap mask holds at most this many bytes per circle.
_BROAD_CHUNK = 32

#: Broad-phase candidates per event table: consecutive users are walked as
#: one table while their (segment, circle) candidates fit this budget, so the
#: table's memory is bounded whatever ``n_users`` is.
_WALK_BUDGET = 8192

#: Relative slack of the broad-phase boxes.  A root of a near-tangent segment
#: is accurate only to about sqrt(machine epsilon) times the coordinate scale,
#: so the boxes grow by 1e-6 of that scale and never drop a pair whose roots
#: the exact solve would accept.
_BOX_SLACK = 1e-6


class _Segments(NamedTuple):
    """Start points, unit directions and lengths of a waypoint block's legs."""

    x0: np.ndarray
    y0: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    length: np.ndarray


def _segments(waypoints: np.ndarray) -> _Segments:
    """The legs of a waypoint block, user by user in walking order."""
    x0 = waypoints[:, :-1, 0].ravel()
    y0 = waypoints[:, :-1, 1].ravel()
    dx = waypoints[:, 1:, 0].ravel() - x0
    dy = waypoints[:, 1:, 1].ravel() - y0
    length = np.hypot(dx, dy)
    if not np.all(length > 0.0):
        raise ValueError("segment endpoints must differ")
    return _Segments(x0, y0, dx / length, dy / length, length)


def _candidate_groups(waypoints: np.ndarray, fld: _CircleField):
    """Broad-phase ``(leg, circle)`` candidates of consecutive users of the
    waypoint block, one group at a time: the pairs whose boxes overlap, by
    leg and then by circle.

    Users go in spans of k when k >= 1 whole users fit `_BROAD_BUDGET` mask
    elements (``fld.n * n_moves * k``), and one at a time otherwise.  The
    leg boxes of a span are built at once, each with a slack of
    ``_BOX_SLACK`` times its user's coordinate scale.  A span's legs go in
    blocks: circles are first tested against the box of the whole block,
    then the block's legs against the circles that pass.  A block is the
    whole span of k users, or `_BROAD_CHUNK` legs of the one user; the
    candidates are the same either way.

    A group holds at most `_WALK_BUDGET` candidates unless one user alone
    has more; a user is never split.  A group is yielded once its users'
    span is done.
    """
    n_users, n_moves = waypoints.shape[0], waypoints.shape[1] - 1
    x_lo, x_hi, y_lo, y_hi = fld.boxes
    users = _BROAD_BUDGET // (fld.n * n_moves)
    span = max(users, 1)
    step = span * n_moves if users else _BROAD_CHUNK
    legs, circles, size = [], [], 0
    for first in range(0, n_users, span):
        x, y = waypoints[first:first + span, :, 0], waypoints[first:first + span, :, 1]
        slack = _BOX_SLACK * np.max(np.abs(x) + np.abs(y), axis=1, keepdims=True)
        sx_lo = (np.minimum(x[:, :-1], x[:, 1:]) - slack).ravel()
        sx_hi = (np.maximum(x[:, :-1], x[:, 1:]) + slack).ravel()
        sy_lo = (np.minimum(y[:, :-1], y[:, 1:]) - slack).ravel()
        sy_hi = (np.maximum(y[:, :-1], y[:, 1:]) + slack).ravel()
        segs, hits = [], []
        for lo in range(0, len(sx_lo), step):
            blk = slice(lo, lo + step)
            near = x_lo <= sx_hi[blk].max()
            near &= x_hi >= sx_lo[blk].min()
            near &= y_lo <= sy_hi[blk].max()
            near &= y_hi >= sy_lo[blk].min()
            near = np.flatnonzero(near)
            hit = sx_hi[blk, None] >= x_lo[near]
            hit &= sx_lo[blk, None] <= x_hi[near]
            hit &= sy_hi[blk, None] >= y_lo[near]
            hit &= sy_lo[blk, None] <= y_hi[near]
            seg, j = np.divmod(np.flatnonzero(hit), len(near))
            seg += lo + first * n_moves
            segs.append(seg)
            hits.append(near[j])
        leg, circle = np.concatenate(segs), np.concatenate(hits)
        # Freed before the caller walks a group: only the candidates stay.
        del sx_lo, sx_hi, sy_lo, sy_hi, segs, hits, hit, near, seg, j
        # The span's users, in order, each with its candidates leg[a:b].
        cut = np.searchsorted(leg, np.arange(first, first + len(x) + 1) * n_moves).tolist()
        for u, a, b in zip(itertools.count(first), cut, cut[1:]):
            if u and size + b - a > _WALK_BUDGET:
                yield np.concatenate(legs), np.concatenate(circles)
                legs, circles, size = [], [], 0
            legs.append(leg[a:b])
            circles.append(circle[a:b])
            size += b - a
    yield np.concatenate(legs), np.concatenate(circles)


def _count(*masks) -> np.ndarray:
    """How many of ``masks`` hold, element by element."""
    return sum(m.view(np.int8) for m in masks)


def _crossing_events(
    segs: _Segments, leg: np.ndarray, circle: np.ndarray, fld: _CircleField
) -> tuple:
    """Boundary crossings of the candidate (``leg``, ``circle``) pairs.

    Returns ``(circle, leg, arclength, code)`` arrays in the order of
    ``np.lexsort((code, arclength, leg, circle))``: legs of one path are
    numbered in walking order, so each circle's events are grouped per path
    and time-ordered within it.  A crossing counts when the quadratic has
    two distinct roots (``disc > 0``: a tangent touch is no crossing) and
    the root lies in ``(0, length]`` of its leg, so a boundary point shared
    by two legs belongs to the one that ends there.

    The candidates are sorted once, on the unique key ``circle * n_legs +
    leg``; the at most four events of each are then merged by (arclength,
    code).
    """
    order = np.argsort(circle * len(segs.length) + leg)
    leg, circle = leg[order], circle[order]
    args = (segs.x0[leg], segs.y0[leg], segs.ux[leg], segs.uy[leg])
    length = segs.length[leg]
    s1h, s2h, has_h = _segment_roots(*args, fld.cx_h[circle], fld.cy_h[circle], fld.r2_h[circle])
    s1f, s2f, has_f = _segment_roots(*args, fld.cx_f[circle], fld.cy_f[circle], fld.r2_f[circle])
    h_in, h_out, f_in, f_out = (
        has & (s > 0.0) & (s <= length)
        for s, has in ((s1h, has_h), (s2h, has_h), (s1f, has_f), (s2f, has_f))
    )
    # Rank of each event among its candidate's events.  On one boundary
    # s1 <= s2 (the roots are -b -/+ sqrt(disc), and rounding is monotonic)
    # and the entry has the smaller code, so an entry precedes its own exit:
    # only events on different boundaries need comparing.
    events = (
        (_EV_H_IN, s1h, h_in, _count(f_in & (s1f < s1h), f_out & (s2f < s1h))),
        (_EV_F_IN, s1f, f_in, _count(h_in & (s1h <= s1f), h_out & (s2h < s1f))),
        (_EV_F_OUT, s2f, f_out, _count(f_in, h_in & (s1h <= s2f), h_out & (s2h < s2f))),
        (_EV_H_OUT, s2h, h_out, _count(h_in, f_in & (s1f <= s2h), f_out & (s2f <= s2h))),
    )
    n_events = _count(h_in, h_out, f_in, f_out)
    first = np.cumsum(n_events) - n_events
    arclength = np.empty(int(n_events.sum()))
    code = np.empty(len(arclength), dtype=np.intp)
    for c, s, valid, rank in events:
        at = (first + rank)[valid]
        arclength[at] = s[valid]
        code[at] = c
    return np.repeat(circle, n_events), np.repeat(leg, n_events), arclength, code


def _effective(pos, circle, run, entering, start, cx, cy, r2) -> np.ndarray:
    """Mask of the events at ``pos``, all on one kind of boundary (circles
    ``cx, cy, r2``), that change the inside state.

    An entry changes it when the user was outside, an exit when inside.  The
    state before an event is the direction of the previous event of its kind
    in the same run (one user on one circle); before the first, it is
    whether the user's start (``start``, one ``(x, y)`` row per event) lies
    inside the circle.
    """
    r, e = run[pos], entering[pos]
    first = np.ones(len(pos), dtype=bool)
    first[1:] = r[1:] != r[:-1]
    p = pos[first]
    c = circle[p]
    before = np.empty(len(pos), dtype=bool)
    before[1:] = e[:-1]
    before[first] = (start[0][p] - cx[c]) ** 2 + (start[1][p] - cy[c]) ** 2 < r2[c]
    return e != before


def _walk_trajectories(
    waypoints: np.ndarray,
    velocity: float,
    pause: float,
    fld: _CircleField,
    smap: _ServingMap,
    thresholds: HandoverThresholds,
    counts: EventCounts,
) -> None:
    """Add the users' exposure time to ``counts`` and run the event state
    machine for every user over the static circle field.

    ``waypoints`` is the trial's ``(n_users, n_moves + 1, 2)`` block, walked
    at ``velocity`` with ``pause`` after each leg.  Each row's walk clock
    sums its leg times in walking order; its end time is the user's
    exposure.  Consecutive users are walked together, one `_candidate_groups`
    group at a time, each as one event table evaluated with array
    operations; ``tests/oracles.py`` keeps the event-by-event loop, one user
    at a time, that the tests check it against.  The events of one user on
    one circle (a *run*) are contiguous in the table and in walking order.
    A residence runs from an effective handover-circle entry to the run's
    next effective exit, or to the end of the user's trajectory; effective
    events of one run alternate, so that exit is the next effective event of
    the run.  The first effective failure-circle entry inside a residence
    decides failure.  The quick exits of all groups go to one association
    query.
    """
    n_users, n_moves = waypoints.shape[0], waypoints.shape[1] - 1
    segs = _segments(waypoints)
    # clock[u, j]: when user u leaves waypoint j; the last column ends the walk.
    clock = np.zeros((n_users, n_moves + 1))
    np.cumsum(segs.length.reshape(n_users, n_moves) / velocity + pause, axis=1, out=clock[:, 1:])
    # Added one at a time in user order: np.sum adds pairwise and, from
    # Python 3.12, sum() of floats compensates; either moves the last bits.
    for t in clock[:, -1].tolist():
        counts.exposure_time += t
    if fld.n == 0:
        return
    t_leg = clock[:, :-1].ravel()
    start_xy = waypoints[:, 0].T

    # Rows: triggered, handovers, failures, overlap; columns: `_KIND_ORDER`.
    tally = np.zeros((4, len(_KIND_ORDER)), dtype=np.intp)
    exits = []
    for k, i in _candidate_groups(waypoints, fld):
        circle, leg, arclength, code = _crossing_events(segs, k, i, fld)
        user = leg // n_moves
        run = circle * n_users + user
        start = start_xy[:, user]
        t = t_leg[leg] + arclength / velocity

        h_pos = np.flatnonzero((code == _EV_H_IN) | (code == _EV_H_OUT))
        h_eff = h_pos[_effective(
            h_pos, circle, run, code == _EV_H_IN, start, fld.cx_h, fld.cy_h, fld.r2_h
        )]
        f_pos = np.flatnonzero((code == _EV_F_IN) | (code == _EV_F_OUT))
        f_eff = f_pos[_effective(
            f_pos, circle, run, code == _EV_F_IN, start, fld.cx_f, fld.cy_f, fld.r2_f
        )]
        f_in = f_eff[code[f_eff] == _EV_F_IN]

        # Residences.  A user who *starts* inside a circle never produced an
        # entry event, so that residence is untracked and produces no counts.
        opens = np.flatnonzero(code[h_eff] == _EV_H_IN)
        enter = h_eff[opens]
        leave = h_eff[np.minimum(opens + 1, len(h_eff) - 1)]
        closed = (opens + 1 < len(h_eff)) & (run[leave] == run[enter])

        # Open residence of each failure-circle entry: the latest effective
        # handover-circle event before it in its run, if that is an entry.
        latest = np.full(len(code), -1)
        latest[h_eff] = h_eff
        res = np.maximum.accumulate(latest)[f_in]
        # (res = -1, no effective event yet, wraps to the last row; the
        # first test rejects it.)
        in_res = (res >= 0) & (run[res] == run[f_in]) & (code[res] == _EV_H_IN)
        f_in, res = f_in[in_res], res[in_res]
        # Only the first failure-circle arrival of a residence can decide
        # failure, but event times never decrease along a run, so a later
        # arrival within the threshold implies that the first one was.
        failed_at = np.zeros(len(code), dtype=bool)
        failed_at[res[t[f_in] - t[res] < thresholds.t_threshold]] = True
        failed = failed_at[enter]

        # A residence still open when the trajectory ends completed its
        # handover if the accumulated time (through the final pause) already
        # reached the threshold; with no exit there is nothing to classify
        # as ping-pong.
        sojourn = np.where(closed, t[leave], clock[user[enter], -1]) - t[enter]
        handover = sojourn >= thresholds.t_threshold
        quick = leave[closed & (sojourn < thresholds.t_pingpong)]
        exits.append((leg[quick], arclength[quick], circle[quick]))
        for row, pos in enumerate(
            (enter, enter[handover], enter[failed], enter[handover & failed])
        ):
            tally[row] += np.bincount(fld.kind_index[circle[pos]], minlength=len(_KIND_ORDER))

    # A quick exit is a ping-pong when the original serving BS is again the
    # strongest at the exit point: one association query for all of them.
    leg, arclength, circle = (np.concatenate(a) for a in zip(*exits))
    if len(leg):
        length = segs.length[leg]
        s_out = np.minimum(arclength + _EXIT_NUDGE * length, length)
        tier, idx = smap.query(np.column_stack(
            (segs.x0[leg] + segs.ux[leg] * s_out, segs.y0[leg] + segs.uy[leg] * s_out)
        ))
        circle = circle[(tier == fld.serving_tier[circle]) & (idx == fld.serving_idx[circle])]
    pingpongs = np.bincount(fld.kind_index[circle], minlength=len(_KIND_ORDER))

    for name, per_kind in zip(
        ("triggered", "handovers", "failures", "overlap", "pingpongs"),
        tally.tolist() + [pingpongs.tolist()],
    ):
        for kind, pc in counts.pairs.items():
            setattr(pc, name, getattr(pc, name) + per_kind[_KIND_ORDER.index(kind)])


def run_trial(cfg: SimConfig, trial_index: int, kinds=_KIND_ORDER) -> EventCounts:
    """One independent deployment + mobility realization, counted for the
    pair kinds ``kinds`` (an iterable of `PairKind`; all three by default).

    The deployment draws from ``SeedSequence([master_seed, trial_index])``,
    the users' starts and trajectories from its first spawned child, so the
    trajectories depend on no deployment or radio parameter.  Neither stream
    depends on ``kinds``; each kind's counts equal the all-kinds trial's.
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    counts = EventCounts.counting(kinds)
    seed = np.random.SeedSequence([cfg.master_seed, trial_index])
    rng = np.random.default_rng(seed)
    macro = sample_ppp(cfg.region, cfg.lambda_m, rng)
    small = sample_ppp(cfg.region, cfg.lambda_s, rng)
    parents, hotspot, parent_index = sample_tcp(cfg.region, cfg.cluster, rng)

    tiers = (macro, small, hotspot)
    trees = _kdtrees(tiers)
    fld = _build_circle_field(cfg, tiers, parents, parent_index, trees, counts)
    smap = _ServingMap(trees, [getattr(cfg, name) for name in _TIERS])
    walk_rng = np.random.default_rng(seed.spawn(1)[0])
    waypoints = np.stack([
        generate_trajectory(start, cfg.n_moves, cfg.region, cfg.mobility, walk_rng).waypoints
        for start in cfg.region.sample_uniform(cfg.n_users, walk_rng)
    ])
    mob = cfg.mobility
    _walk_trajectories(waypoints, mob.velocity, mob.pause, fld, smap, cfg.thresholds, counts)
    counts.validate()
    return counts


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

@dataclass
class PairEstimate:
    """Pooled rates and their 95% half-widths in `METRICS` order; see `summarize_trials`."""

    rates: HandoverMetrics
    halfwidths: tuple


@dataclass
class MetricsEstimate:
    pairs: dict  # PairKind -> PairEstimate
    n_trials: int
    counts: EventCounts


#: The `PairCounts` numerator and denominator of each of `METRICS` (``None``: exposure).
_RATIOS = (
    ("triggered", None),
    ("handovers", None),
    ("failures", "triggered"),
    ("pingpongs", None),
)


def summarize_trials(trials) -> MetricsEstimate:
    """Pool trial counts into each metric's rate and 95% half-width.

    Each metric is a ratio R = Σy/Σx of the n trials' counts (`_RATIOS`),
    so a trial without triggers enters ``H_f`` as (0, 0).  R divides the
    merged counts; its half-width is the ratio estimator's
    1.96·√(Σ(yᵢ − R·xᵢ)² / (n(n − 1))) / x̄ (Cochran, *Sampling Techniques*,
    ch. 6), NaN below two trials or, like R, where Σx = 0.
    """
    trials = list(trials)
    if not trials:
        raise ValueError("no trials to summarize")
    merged = EventCounts.counting(trials[0].pairs)
    for t in trials:
        merged.merge_in(t)
    if merged.exposure_time <= 0.0:
        raise ValueError("campaign accumulated zero exposure time; config is invalid")
    n, pairs = len(trials), {}
    # A ratio term's campaign total, then its value in each trial.
    exposure = [c.exposure_time for c in (merged, *trials)]
    for kind in merged.pairs:
        counts = [c.pairs[kind] for c in (merged, *trials)]
        rates, halfwidths = {}, []
        for (_, attr), terms in zip(METRICS, _RATIOS):
            (total_y, *y), (total_x, *x) = (
                exposure if name is None else [getattr(c, name) for c in counts] for name in terms
            )
            rates[attr] = halfwidth = math.nan
            if total_x > 0:
                rate = rates[attr] = total_y / total_x
                if n > 1:
                    residual = np.array(y, dtype=float) - rate * np.array(x, dtype=float)
                    halfwidth = 1.96 * math.sqrt(residual @ residual / (n * (n - 1))) / (total_x / n)
            halfwidths.append(halfwidth)
        pairs[kind] = PairEstimate(HandoverMetrics(pair=kind, **rates), tuple(halfwidths))
    return MetricsEstimate(pairs=pairs, n_trials=n, counts=merged)


def run_campaign(cfg: SimConfig, workers: int = 1, kinds=_KIND_ORDER) -> MetricsEstimate:
    """``n_trials`` independent trials, counted for the pair kinds ``kinds``
    (all three by default) and summarized.

    Results are identical for any ``workers`` value: trials are seeded by
    index and merged in index order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    kinds = _scope(kinds)
    # A fork-based pool starts all of its workers at once.
    workers = min(workers, cfg.n_trials)
    if workers == 1:
        results = [run_trial(cfg, i, kinds) for i in range(cfg.n_trials)]
    else:
        try:
            with _deferred("ProcessPoolExecutor")(max_workers=workers) as pool:
                results = list(
                    pool.map(
                        run_trial,
                        itertools.repeat(cfg, cfg.n_trials),
                        range(cfg.n_trials),
                        itertools.repeat(kinds, cfg.n_trials),
                        chunksize=max(1, cfg.n_trials // (4 * workers)),
                    )
                )
        except OSError as exc:
            warnings.warn(
                f"process pool unavailable ({exc}); falling back to one worker",
                RuntimeWarning,
                stacklevel=2,
            )
            results = [run_trial(cfg, i, kinds) for i in range(cfg.n_trials)]
    return summarize_trials(results)


# ---------------------------------------------------------------------------
# Analytic side-by-side
# ---------------------------------------------------------------------------

def _pair_domain_message(kind: PairKind, problem: str, relation: str = "below") -> str:
    """A closed-form refusal naming the pair and its two config sections.

    Only a target tier strictly weaker than its serving tier has a boundary
    circle around the target, so the remedy keeps the target's RSS
    ``relation`` the serving tier's: below it, or nearer it where the
    circle's factor underflows.
    """
    serving, target = (_TIERS[p] for p in _PAIR_TIERS[kind])
    return (
        f"{kind.value} pair, tiers [{target}] and [{serving}]: {problem}; keep the "
        f"biased RSS of [{target}] {relation} that of [{serving}] by changing tx_power_dbm, "
        f"antenna_gain_dbi, bias_db or the path loss in [{target}] or [{serving}]"
    )


def analytic_pair_metrics(cfg: SimConfig, kind: PairKind) -> HandoverMetrics:
    """Closed-form metrics of one pair kind for this configuration.

    The boundary factor of the unequal-exponent pairs depends on the pair
    distance; it is evaluated at the mean distance.  One `boundary_domain`
    call decides the pair: a bisector raises `DegenerateBoundaryError`, and a
    handover circle around the serving BS (the target tier is the stronger
    one) `ValueError`, as does a factor that underflows to 0 (a zero-radius
    circle); every message names the pair and the two tiers.
    """
    s, t = _PAIR_TIERS[kind]
    density = (cfg.lambda_m, cfg.lambda_s, cfg.cluster.implied_density)
    lam, sigma = density[s], cfg.cluster.sigma
    mean_distance = mean_pair_distance(kind, lam, sigma)
    u, u_f = make_erb_pair(getattr(cfg, _TIERS[s]), getattr(cfg, _TIERS[t]),
                           np.array([mean_distance, 0.0]), cfg.thresholds.q_out)
    degenerate, encloses = boundary_domain(u, u_f)
    if degenerate:
        raise DegenerateBoundaryError(_pair_domain_message(
            kind, "equal-RSS boundary is a perpendicular bisector (lam*xi == 1); no circular "
            "approximation exists",
        ))
    if encloses:
        # q_out < 1 keeps u_f below u, so u is the factor that exceeds 1.
        raise ValueError(_pair_domain_message(
            kind,
            f"the handover circle at the mean pair distance encloses the serving "
            f"BS (lam_star * xi = {u!r} > 1)",
        ))
    if u <= 0.0 or u_f <= 0.0:
        raise ValueError(_pair_domain_message(
            kind,
            f"the boundary factors at the mean pair distance underflow (lam_star * xi = "
            f"{u!r}, failure factor {u_f!r}), so a circle has zero radius",
            "nearer",
        ))
    return compute_metrics(
        kind,
        cfg.thresholds,
        mean_distance,
        u,
        u_f,
        cfg.region.area,
        density[t] * cfg.region.area,
        cfg.mobility,
        lam,
        sigma,
    )


def analytic_metrics(cfg: SimConfig) -> dict:
    """`analytic_pair_metrics` of every pair kind, keyed by kind."""
    return {kind: analytic_pair_metrics(cfg, kind) for kind in _KIND_ORDER}
