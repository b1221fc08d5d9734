"""Span recording for the traced run, from outside the program.

Wrappers go on the names the program resolves at call time (for example
``simengine.make_erb_pair``), so no file under ``src/`` changes.  Spans carry
a name, start and end (``perf_counter_ns``), the index of the enclosing span
and a run id (the index of the timed call: one ``simulate`` campaign or one
pass over the envelope).  They are kept in flat arrays in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from hetnet_handover import analytics, cli, simengine


class Tracer:
    """Nested spans in flat arrays, plus counters keyed by run id."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list = []
        self.run_id = 0
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.trial: dict = {}

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, n: float = 1.0) -> None:
        self.counts[self.run_id][key] += n

    def arrays(self) -> dict:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
            "run_id": np.array(self.run, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before()
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result)
        return result

    return traced


def _points_in(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def _kdtree_class(tracer: Tracer, base):
    class TracedKDTree(base):
        def __init__(self, *args, **kwargs):
            with tracer.span("simengine.kdtree_build"):
                super().__init__(*args, **kwargs)

        def query(self, x, *args, **kwargs):
            with tracer.span("simengine.kdtree_query"):
                result = super().query(x, *args, **kwargs)
            if tracer.trial.get("walking"):
                # After the trial's first trajectory only strongest-RSS
                # association (ping-pong exits) queries the trees.
                tracer.count("simengine.assoc_query_points", _points_in(x))
            return result

    return TracedKDTree


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""

    def trial_start():
        tracer.trial = {"segments": 0, "erb_returned": 0, "walking": False}

    def trial_end(counts):
        counts.validate()
        trial = tracer.trial
        enclosing = 0
        for pc in counts.pairs.values():
            for field in ("triggered", "handovers", "failures", "pingpongs",
                          "degenerate_skipped", "enclosing_skipped"):
                tracer.count(f"simengine.{field}", getattr(pc, field))
            enclosing += pc.enclosing_skipped
        circles = trial["erb_returned"] - enclosing
        tracer.count("simengine.segment_circle_pairs", trial["segments"] * circles)
        tracer.count("simengine.trials")

    def sampled_ppp(points):
        tracer.count("geometry.bs_sampled", len(points))

    def sampled_tcp(result):
        tracer.count("geometry.bs_sampled", len(result[1]))

    def trajectory(traj):
        tracer.count("mobility.waypoints", len(traj.waypoints))
        tracer.trial["segments"] = tracer.trial.get("segments", 0) + len(traj.waypoints) - 1
        tracer.trial["walking"] = True

    def erb_pair(_):
        tracer.trial["erb_returned"] = tracer.trial.get("erb_returned", 0) + 1

    patches = [
        (simengine, "sample_ppp", "geometry.sample_ppp", None, sampled_ppp),
        (simengine, "sample_tcp", "geometry.sample_tcp", None, sampled_tcp),
        (simengine, "generate_trajectory", "mobility.generate_trajectory", None, trajectory),
        (simengine, "make_erb_pair", "radio.make_erb_pair", None, erb_pair),
        (simengine, "run_trial", "simengine.run_trial", trial_start, trial_end),
        (cli, "run_campaign", "simengine.run_campaign", None, None),
        (analytics, "marcum_q1", "specfun.marcum_q1", None, None),
        (analytics, "mean_cluster_distance_numeric", "analytics.mean_cluster_distance_numeric",
         None, None),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in patches]
    originals.append((simengine, "cKDTree", simengine.cKDTree))
    try:
        for mod, attr, name, before, after in patches:
            setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr), before, after))
        simengine.cKDTree = _kdtree_class(tracer, simengine.cKDTree)
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

class SpanTable:
    """Durations and self times of a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name_id = a["name_id"]
        self.start = a["start_ns"]
        self.end = a["end_ns"]
        self.parent = a["parent"]
        self.run = a["run_id"]
        self.duration = (self.end - self.start).astype(float) * 1e-9
        has_parent = self.parent >= 0
        # Siblings run one after another on one thread (``problems`` checks
        # that they do not overlap), so the part of a span its children cover
        # is the sum of their durations.
        covered = np.zeros(len(self.start), dtype=float)
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.start), dtype=bool)
        return self.name_id == self.names.index(name)

    def per_run(self, values: np.ndarray, mask: np.ndarray, runs) -> list:
        return [float(values[mask & (self.run == r)].sum()) for r in runs]

    def problems(self) -> list:
        """Ways in which the span tree is not well formed."""
        found = []
        if np.any(self.end < 0):
            found.append("unclosed span")
        if np.any(self.end < self.start):
            found.append("span ends before it starts")
        idx = np.arange(len(self.start))
        has_parent = self.parent >= 0
        par = self.parent[has_parent]
        if np.any(par >= idx[has_parent]):
            found.append("parent recorded after child")
        if np.any(self.start[has_parent] < self.start[par]) or np.any(
            self.end[has_parent] > self.end[par]
        ):
            found.append("child span outside its parent")
        if np.any(self.run[has_parent] != self.run[par]):
            found.append("child span in another run than its parent")
        order = np.lexsort((self.start, self.parent))
        same_parent = self.parent[order][1:] == self.parent[order][:-1]
        if np.any(same_parent & (self.start[order][1:] < self.end[order][:-1])):
            found.append("sibling spans overlap")
        # Self time below -1 ns can only come from children outside the parent.
        if np.any(self.self_time < -1e-9):
            found.append("negative self time")
        return found
