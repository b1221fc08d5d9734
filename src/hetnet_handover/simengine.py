"""Event-driven Monte Carlo cross-check of the closed-form handover metrics.

One trial deploys a single realization of the three-tier network (uniform
macro tier, uniform small-cell tier, clustered hotspot tier), builds the
handover and failure boundary circles for every (target BS, serving BS)
pair, and walks waypoint trajectories through the static circle field.
Segment-circle intersections are solved in closed form (quadratic roots), so
event times carry no time-step discretization error.

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
can legitimately count as both; the overlap is reported separately).

Determinism: each trial owns a private generator seeded from
``(master_seed, trial_index)``, so campaign results are bit-identical for
any number of workers and any execution order.
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.spatial import cKDTree

from .analytics import (
    HandoverMetrics,
    HandoverThresholds,
    PairKind,
    compute_metrics,
    mean_pair_distance,
)
from .geometry import (
    TIER_MACRO,
    TIER_SMALL,
    ClusterConfig,
    PointSet,
    Region,
    sample_ppp,
    sample_tcp,
)
from .mobility import MobilityConfig, Trajectory, generate_trajectory
from .radio import (
    Circle,
    DegenerateBoundaryError,
    TierRadioParams,
    make_erb_pair,
)

#: Fixed pair-kind ordering used for array layouts and CSV row order.
_KIND_ORDER = (PairKind.SM, PairKind.SPS, PairKind.SPM)

#: Tier ordering of the strongest-RSS map; ties break toward lower index.
_TIER_ORDER = (TIER_MACRO, TIER_SMALL, "Sp")


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

    @classmethod
    def with_default_ratios(
        cls,
        *,
        region: Region,
        macro: TierRadioParams,
        small: TierRadioParams,
        hotspot: TierRadioParams,
        lambda_s: float,
        sigma: float,
        mean_offspring: float = 5.0,
        mobility: MobilityConfig,
        thresholds: HandoverThresholds,
        **counts,
    ) -> "SimConfig":
        """Deployment driven by the small-cell density alone (10:1:1 ratios)."""
        return cls(
            region=region,
            macro=macro,
            small=small,
            hotspot=hotspot,
            lambda_m=lambda_s / 10.0,
            lambda_s=lambda_s,
            cluster=ClusterConfig(
                lambda_p=lambda_s / 10.0, sigma=sigma, mean_offspring=mean_offspring
            ),
            mobility=mobility,
            thresholds=thresholds,
            **counts,
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
        self.triggered += other.triggered
        self.handovers += other.handovers
        self.failures += other.failures
        self.pingpongs += other.pingpongs
        self.overlap += other.overlap
        self.degenerate_skipped += other.degenerate_skipped
        self.enclosing_skipped += other.enclosing_skipped

    def validate(self) -> None:
        for name in (
            "triggered",
            "handovers",
            "failures",
            "pingpongs",
            "overlap",
            "degenerate_skipped",
            "enclosing_skipped",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.handovers > self.triggered:
            raise ValueError("handovers cannot exceed triggered events")
        if self.failures > self.triggered:
            raise ValueError("failures cannot exceed triggered events")


@dataclass
class EventCounts:
    """Per-pair event counters plus the shared exposure time of one or more trials."""

    pairs: dict = field(default_factory=lambda: {k: PairCounts() for k in _KIND_ORDER})
    exposure_time: float = 0.0  # seconds of user motion + pauses, summed over users

    def merge_in(self, other: "EventCounts") -> None:
        for kind in _KIND_ORDER:
            self.pairs[kind].merge_in(other.pairs[kind])
        self.exposure_time += other.exposure_time

    def validate(self) -> None:
        if self.exposure_time < 0:
            raise ValueError("exposure_time must be >= 0")
        for pc in self.pairs.values():
            pc.validate()


# ---------------------------------------------------------------------------
# Crossing geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentCrossing:
    """Boundary crossings of one segment against one circle.

    ``params`` holds the crossing positions as fractions of the segment in
    [0, 1] (0, 1, or 2 of them — a tangent contributes a single touching
    parameter); ``chord_length`` is the geometric length of the part of the
    segment inside the circle, in meters.
    """

    params: tuple
    chord_length: float


def segment_circle_crossings(
    p0: np.ndarray, p1: np.ndarray, circle: Circle
) -> SegmentCrossing:
    """Exact quadratic line-circle intersection restricted to the segment."""
    a = np.asarray(p0, dtype=float)
    b = np.asarray(p1, dtype=float)
    dx, dy = b[0] - a[0], b[1] - a[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        raise ValueError("segment endpoints must differ")
    ux, uy = dx / length, dy / length
    fx, fy = a[0] - circle.center[0], a[1] - circle.center[1]
    half_b = fx * ux + fy * uy
    c0 = fx * fx + fy * fy - circle.radius**2
    disc = half_b * half_b - c0
    if disc < 0.0:
        return SegmentCrossing(params=(), chord_length=0.0)
    if disc == 0.0:
        s = -half_b
        params = (s / length,) if 0.0 <= s <= length else ()
        return SegmentCrossing(params=params, chord_length=0.0)
    root = math.sqrt(disc)
    s1, s2 = -half_b - root, -half_b + root
    params = tuple(s / length for s in (s1, s2) if 0.0 <= s <= length)
    chord = max(0.0, min(s2, length) - max(s1, 0.0))
    return SegmentCrossing(params=params, chord_length=chord)


# ---------------------------------------------------------------------------
# Trial internals
# ---------------------------------------------------------------------------

@dataclass
class _CircleField:
    """Flat arrays of every boundary-circle pair in one deployment."""

    kind_index: np.ndarray  # (N,) position into _KIND_ORDER
    cx_h: np.ndarray
    cy_h: np.ndarray
    r2_h: np.ndarray
    cx_f: np.ndarray
    cy_f: np.ndarray
    r2_f: np.ndarray
    serving_tier: np.ndarray  # (N,) position into _TIER_ORDER
    serving_idx: np.ndarray  # (N,) row within that tier's point set

    @property
    def n(self) -> int:
        return len(self.kind_index)


class _ServingMap:
    """Strongest biased-RSS association over the full deployment.

    Within a tier the prefactor is constant, so the strongest BS of a tier
    is simply the nearest one; the overall winner maximizes
    ``prefactor * d**-alpha`` across tiers.  Ties break toward the earlier
    tier, matching `radio.serving_bs`.
    """

    def __init__(self, tiers) -> None:
        self._entries = []
        for points, params in tiers:
            if len(points) == 0:
                self._entries.append(None)
            else:
                self._entries.append(
                    (cKDTree(points), params.linear_prefactor, params.pathloss_exponent)
                )

    def query(self, xy) -> tuple:
        best_rss = -math.inf
        best = (-1, -1)
        for tier_pos, entry in enumerate(self._entries):
            if entry is None:
                continue
            tree, prefactor, alpha = entry
            d, idx = tree.query(xy)
            rss = math.inf if d == 0.0 else prefactor * d ** (-alpha)
            if rss > best_rss:
                best_rss = rss
                best = (tier_pos, int(idx))
        return best


def _append_pair(
    store: dict,
    pc: PairCounts,
    kind_pos: int,
    serving_params: TierRadioParams,
    target_params: TierRadioParams,
    serving_xy: np.ndarray,
    target_xy: np.ndarray,
    serving_tier_pos: int,
    serving_bs_idx: int,
    q_out: float,
) -> None:
    try:
        erb = make_erb_pair(
            serving_params, target_params, target_xy - serving_xy, q_out
        )
    except DegenerateBoundaryError:
        pc.degenerate_skipped += 1
        return
    if erb.handover_circle.encloses_serving or erb.failure_circle.encloses_serving:
        # The circle would bound the *serving* area; the entry-event logic
        # below assumes the target area is the interior, so skip and count.
        pc.enclosing_skipped += 1
        return
    store["kind"].append(kind_pos)
    store["chx"].append(serving_xy[0] + erb.handover_circle.center[0])
    store["chy"].append(serving_xy[1] + erb.handover_circle.center[1])
    store["rh"].append(erb.handover_circle.radius)
    store["cfx"].append(serving_xy[0] + erb.failure_circle.center[0])
    store["cfy"].append(serving_xy[1] + erb.failure_circle.center[1])
    store["rf"].append(erb.failure_circle.radius)
    store["stier"].append(serving_tier_pos)
    store["sidx"].append(serving_bs_idx)


def _build_circle_field(
    cfg: SimConfig,
    macro: PointSet,
    small: PointSet,
    parents: PointSet,
    children: PointSet,
    counts: EventCounts,
) -> _CircleField:
    """One circle pair per (target BS, its serving BS).

    Uniform small cells are served by their nearest macro BS.  Hotspot
    children are served by the small cell / macro BS nearest to their
    *cluster center*, which is where their users congregate.
    """
    store = {k: [] for k in ("kind", "chx", "chy", "rh", "cfx", "cfy", "rf", "stier", "sidx")}
    q_out = cfg.thresholds.q_out

    if len(small) > 0 and len(macro) > 0:
        _, nearest_m = cKDTree(macro.points).query(small.points)
        pc = counts.pairs[PairKind.SM]
        for i in range(len(small)):
            m = int(nearest_m[i])
            _append_pair(
                store, pc, 0, cfg.macro, cfg.small,
                macro.points[m], small.points[i], 0, m, q_out,
            )

    if len(children) > 0:
        if len(small) > 0:
            _, s_of_parent = cKDTree(small.points).query(parents.points)
            pc = counts.pairs[PairKind.SPS]
            for j in range(len(children)):
                s = int(s_of_parent[children.parent_index[j]])
                _append_pair(
                    store, pc, 1, cfg.small, cfg.hotspot,
                    small.points[s], children.points[j], 1, s, q_out,
                )
        if len(macro) > 0:
            _, m_of_parent = cKDTree(macro.points).query(parents.points)
            pc = counts.pairs[PairKind.SPM]
            for j in range(len(children)):
                m = int(m_of_parent[children.parent_index[j]])
                _append_pair(
                    store, pc, 2, cfg.macro, cfg.hotspot,
                    macro.points[m], children.points[j], 0, m, q_out,
                )

    rh = np.asarray(store["rh"], dtype=float)
    rf = np.asarray(store["rf"], dtype=float)
    return _CircleField(
        kind_index=np.asarray(store["kind"], dtype=np.intp),
        cx_h=np.asarray(store["chx"], dtype=float),
        cy_h=np.asarray(store["chy"], dtype=float),
        r2_h=rh * rh,
        cx_f=np.asarray(store["cfx"], dtype=float),
        cy_f=np.asarray(store["cfy"], dtype=float),
        r2_f=rf * rf,
        serving_tier=np.asarray(store["stier"], dtype=np.intp),
        serving_idx=np.asarray(store["sidx"], dtype=np.intp),
    )


def _segment_roots(px, py, ux, uy, cx, cy, r2):
    """Vectorized arclength roots of one segment against many circles."""
    fx = px - cx
    fy = py - cy
    half_b = fx * ux + fy * uy
    c0 = fx * fx + fy * fy - r2
    disc = half_b * half_b - c0
    has = disc > 0.0
    root = np.sqrt(np.where(has, disc, 0.0))
    return -half_b - root, -half_b + root, has


# Event codes, ordered so that simultaneous events process sensibly:
# handover-circle entry first, handover-circle exit last.
_EV_H_IN, _EV_F_IN, _EV_F_OUT, _EV_H_OUT = 0, 1, 2, 3

#: Fraction of the segment length used to nudge an exit point off the
#: boundary before asking which BS is strongest there.
_EXIT_NUDGE = 1e-6


def _walk_trajectory(
    traj: Trajectory,
    fld: _CircleField,
    smap: _ServingMap,
    thresholds: HandoverThresholds,
    counts: EventCounts,
) -> None:
    """Run the event state machine for one user over the static circle field."""
    if fld.n == 0:
        return
    wp = traj.waypoints
    velocity = traj.velocity
    pause = traj.pause
    t_min = thresholds.t_threshold
    t_pp = thresholds.t_pingpong
    pcs = [counts.pairs[k] for k in _KIND_ORDER]

    p = wp[0]
    inside_h = ((p[0] - fld.cx_h) ** 2 + (p[1] - fld.cy_h) ** 2) < fld.r2_h
    inside_f = ((p[0] - fld.cx_f) ** 2 + (p[1] - fld.cy_f) ** 2) < fld.r2_f
    # A user who *starts* inside a circle never produced an entry event, so
    # that residence is untracked (active=False) and produces no counts.
    active = np.zeros(fld.n, dtype=bool)
    t_enter = np.zeros(fld.n, dtype=float)
    fail_checked = np.zeros(fld.n, dtype=bool)
    failed = np.zeros(fld.n, dtype=bool)

    t_base = 0.0
    for k in range(len(wp) - 1):
        x0, y0 = wp[k]
        x1, y1 = wp[k + 1]
        dx, dy = x1 - x0, y1 - y0
        length = math.hypot(dx, dy)
        ux, uy = dx / length, dy / length

        s1h, s2h, has_h = _segment_roots(x0, y0, ux, uy, fld.cx_h, fld.cy_h, fld.r2_h)
        s1f, s2f, has_f = _segment_roots(x0, y0, ux, uy, fld.cx_f, fld.cy_f, fld.r2_f)
        ev_h = has_h & (((s1h > 0.0) & (s1h <= length)) | ((s2h > 0.0) & (s2h <= length)))
        ev_f = has_f & (((s1f > 0.0) & (s1f <= length)) | ((s2f > 0.0) & (s2f <= length)))
        for i in np.nonzero(ev_h | ev_f)[0]:
            events = []
            if has_h[i]:
                if 0.0 < s1h[i] <= length:
                    events.append((float(s1h[i]), _EV_H_IN))
                if 0.0 < s2h[i] <= length:
                    events.append((float(s2h[i]), _EV_H_OUT))
            if has_f[i]:
                if 0.0 < s1f[i] <= length:
                    events.append((float(s1f[i]), _EV_F_IN))
                if 0.0 < s2f[i] <= length:
                    events.append((float(s2f[i]), _EV_F_OUT))
            events.sort()
            pc = pcs[fld.kind_index[i]]
            for s, code in events:
                t = t_base + s / velocity
                if code == _EV_H_IN:
                    if inside_h[i]:
                        continue
                    inside_h[i] = True
                    active[i] = True
                    t_enter[i] = t
                    fail_checked[i] = False
                    failed[i] = False
                    pc.triggered += 1
                elif code == _EV_F_IN:
                    if inside_f[i]:
                        continue
                    inside_f[i] = True
                    if active[i] and not fail_checked[i]:
                        # Only the first failure-circle arrival of a
                        # residence can decide failure: later arrivals are
                        # necessarily past the threshold.
                        fail_checked[i] = True
                        if t - t_enter[i] < t_min:
                            failed[i] = True
                            pc.failures += 1
                elif code == _EV_F_OUT:
                    inside_f[i] = False
                else:  # _EV_H_OUT
                    if not inside_h[i]:
                        continue
                    inside_h[i] = False
                    if active[i]:
                        sojourn = t - t_enter[i]
                        completed = sojourn >= t_min
                        if completed:
                            pc.handovers += 1
                            if failed[i]:
                                pc.overlap += 1
                        if sojourn < t_pp:
                            s_out = min(s + _EXIT_NUDGE * length, length)
                            exit_xy = (x0 + ux * s_out, y0 + uy * s_out)
                            winner = smap.query(exit_xy)
                            if winner == (fld.serving_tier[i], fld.serving_idx[i]):
                                pc.pingpongs += 1
                        active[i] = False
                        failed[i] = False
        t_base += length / velocity + pause

    # Trajectory over: residences still open completed their handover if the
    # accumulated time (through the final pause) already reached the
    # threshold; with no exit there is nothing to classify as ping-pong.
    for i in np.nonzero(active & inside_h)[0]:
        if t_base - t_enter[i] >= t_min:
            pc = pcs[fld.kind_index[i]]
            pc.handovers += 1
            if failed[i]:
                pc.overlap += 1


def run_trial(cfg: SimConfig, trial_index: int) -> EventCounts:
    """One independent deployment + mobility realization, fully counted."""
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, trial_index])
    )
    macro = sample_ppp(cfg.region, cfg.lambda_m, rng, tier=TIER_MACRO)
    small = sample_ppp(cfg.region, cfg.lambda_s, rng, tier=TIER_SMALL)
    parents, children = sample_tcp(cfg.region, cfg.cluster, rng)

    counts = EventCounts()
    fld = _build_circle_field(cfg, macro, small, parents, children, counts)
    smap = _ServingMap(
        [
            (macro.points, cfg.macro),
            (small.points, cfg.small),
            (children.points, cfg.hotspot),
        ]
    )
    for _ in range(cfg.n_users):
        start = cfg.region.sample_uniform(1, rng)[0]
        traj = generate_trajectory(start, cfg.n_moves, cfg.region, cfg.mobility, rng)
        counts.exposure_time += traj.total_time()
        _walk_trajectory(traj, fld, smap, cfg.thresholds, counts)
    counts.validate()
    return counts


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

@dataclass
class PairEstimate:
    """Point estimates with 95% half-widths; NaN half-width when n_trials < 2."""

    triggered_rate: float
    triggered_halfwidth: float
    handover_rate: float
    handover_halfwidth: float
    failure_ratio: float
    failure_halfwidth: float
    pingpong_rate: float
    pingpong_halfwidth: float

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isnan(v) and v < 0:
                raise ValueError(f"{f.name} must be >= 0")


@dataclass
class MetricsEstimate:
    pairs: dict  # PairKind -> PairEstimate
    n_trials: int
    exposure_time: float
    counts: EventCounts


def _halfwidth(values: np.ndarray) -> float:
    """95% normal-approximation half-width over per-trial values (NaN-aware)."""
    finite = values[~np.isnan(values)]
    if len(finite) < 2:
        return math.nan
    return float(1.96 * np.std(finite, ddof=1) / math.sqrt(len(finite)))


def summarize_trials(trials) -> MetricsEstimate:
    """Pool trial counts into rates; half-widths from per-trial spread.

    Point estimates are pooled ratios (total counts over total exposure,
    failures over total triggers); confidence half-widths use the spread of
    the per-trial values.
    """
    trials = list(trials)
    if not trials:
        raise ValueError("no trials to summarize")
    merged = EventCounts()
    for t in trials:
        merged.merge_in(t)
    if merged.exposure_time <= 0.0:
        raise ValueError("campaign accumulated zero exposure time; config is invalid")
    exposure = np.array([t.exposure_time for t in trials], dtype=float)
    pairs = {}
    for kind in _KIND_ORDER:
        trig = np.array([t.pairs[kind].triggered for t in trials], dtype=float)
        hand = np.array([t.pairs[kind].handovers for t in trials], dtype=float)
        fail = np.array([t.pairs[kind].failures for t in trials], dtype=float)
        ping = np.array([t.pairs[kind].pingpongs for t in trials], dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            per_trial_failure = np.where(trig > 0, fail / trig, np.nan)
        total = merged.pairs[kind]
        pairs[kind] = PairEstimate(
            triggered_rate=total.triggered / merged.exposure_time,
            triggered_halfwidth=_halfwidth(trig / exposure),
            handover_rate=total.handovers / merged.exposure_time,
            handover_halfwidth=_halfwidth(hand / exposure),
            failure_ratio=(
                total.failures / total.triggered if total.triggered > 0 else math.nan
            ),
            failure_halfwidth=_halfwidth(per_trial_failure),
            pingpong_rate=total.pingpongs / merged.exposure_time,
            pingpong_halfwidth=_halfwidth(ping / exposure),
        )
    return MetricsEstimate(
        pairs=pairs,
        n_trials=len(trials),
        exposure_time=merged.exposure_time,
        counts=merged,
    )


def run_campaign(cfg: SimConfig, workers: int = 1) -> MetricsEstimate:
    """``n_trials`` independent trials, summarized.

    Results are identical for any ``workers`` value: trials are seeded by
    index and merged in index order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        results = [run_trial(cfg, i) for i in range(cfg.n_trials)]
    else:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(
                        run_trial,
                        itertools.repeat(cfg, cfg.n_trials),
                        range(cfg.n_trials),
                        chunksize=max(1, cfg.n_trials // (4 * workers)),
                    )
                )
        except (OSError, PermissionError) as exc:
            warnings.warn(
                f"process pool unavailable ({exc}); falling back to one worker",
                RuntimeWarning,
                stacklevel=2,
            )
            results = [run_trial(cfg, i) for i in range(cfg.n_trials)]
    return summarize_trials(results)


# ---------------------------------------------------------------------------
# Analytic side-by-side
# ---------------------------------------------------------------------------

def _pair_setup(cfg: SimConfig, kind: PairKind):
    """(serving params, target params, serving-tier density, mean target
    count) for one pair kind."""
    area = cfg.region.area
    if kind is PairKind.SM:
        return cfg.macro, cfg.small, cfg.lambda_m, cfg.lambda_s * area
    if kind is PairKind.SPS:
        return cfg.small, cfg.hotspot, cfg.lambda_s, cfg.cluster.implied_density * area
    return cfg.macro, cfg.hotspot, cfg.lambda_m, cfg.cluster.implied_density * area


def analytic_metrics(cfg: SimConfig) -> dict:
    """Closed-form metrics per pair kind for this configuration.

    The boundary factor of the unequal-exponent pairs depends on the pair
    distance; it is evaluated at the mean distance.
    """
    sigma = cfg.cluster.sigma
    out = {}
    for kind in _KIND_ORDER:
        serving_params, target_params, lam, n_bs = _pair_setup(cfg, kind)
        mean_distance = mean_pair_distance(kind, lam, sigma)
        erb = make_erb_pair(
            serving_params,
            target_params,
            np.array([mean_distance, 0.0]),
            cfg.thresholds.q_out,
        )
        out[kind] = compute_metrics(
            kind,
            cfg.thresholds,
            mean_distance,
            erb,
            cfg.region.area,
            n_bs,
            cfg.mobility,
            lam,
            sigma,
        )
    return out


@dataclass(frozen=True)
class ComparisonRow:
    pair: PairKind
    metric: str
    analytic: float
    simulated: float
    ci_halfwidth: float
    ratio: float  # simulated / analytic
    flag: str


_METRIC_MAP = (
    ("H_t", "triggered_rate", "triggered_rate", "triggered_halfwidth"),
    ("H", "handover_rate", "handover_rate", "handover_halfwidth"),
    ("H_f", "failure_rate", "failure_ratio", "failure_halfwidth"),
    ("H_p", "pingpong_rate", "pingpong_rate", "pingpong_halfwidth"),
)

@dataclass
class ComparisonTable:
    rows: list

    def summary(self) -> str:
        header = (
            f"{'pair':<5} {'metric':<6} {'analytic':>14} {'simulated':>14} "
            f"{'+/-95%':>12} {'sim/ana':>9} flag"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.pair.value:<5} {r.metric:<6} {r.analytic:>14.6g} "
                f"{r.simulated:>14.6g} {r.ci_halfwidth:>12.3g} {r.ratio:>9.4g} {r.flag}"
            )
        return "\n".join(lines) + "\n"


def compare_to_analytics(
    cfg: SimConfig,
    workers: int = 1,
    estimate: MetricsEstimate | None = None,
) -> ComparisonTable:
    """Analytic vs. simulated metrics, row per (pair, metric).

    Pass a precomputed ``estimate`` to avoid re-running the campaign.  The
    ``flag`` of every row is empty: no agreement criterion is defined yet.
    """
    if estimate is None:
        estimate = run_campaign(cfg, workers=workers)
    analytic = analytic_metrics(cfg)
    rows = []
    for kind in _KIND_ORDER:
        ana = analytic[kind]
        sim = estimate.pairs[kind]
        for metric, ana_attr, sim_attr, hw_attr in _METRIC_MAP:
            a = getattr(ana, ana_attr)
            s = getattr(sim, sim_attr)
            rows.append(
                ComparisonRow(
                    pair=kind,
                    metric=metric,
                    analytic=a,
                    simulated=s,
                    ci_halfwidth=getattr(sim, hw_attr),
                    ratio=s / a if a > 0 else math.nan,
                    flag="",
                )
            )
    return ComparisonTable(rows=rows)
