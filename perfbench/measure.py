"""Timed calls, output checks and metrics of one benchmark run.

Imported by ``run.py`` once the checkout's ``src`` directory is on
``sys.path``; importing it imports ``hetnet_handover``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy
import scipy

import calibrate
import hetnet_handover
import tracing
import workloads
from hetnet_handover import analytics

SRC = Path(hetnet_handover.__file__).resolve().parent.parent
ROOT = SRC.parent


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hetnet_handover").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode())
            src_hash.update(path.read_bytes())
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "package_version": hetnet_handover.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def timed_calls(call, seconds: float, started: float) -> list:
    """Call ``call()`` until another call would overrun ``seconds``."""
    outcomes = []
    while True:
        t0 = time.perf_counter()
        outcomes.append(call())
        now = time.perf_counter()
        if (now - started) + (now - t0) > seconds:
            return outcomes


def percentile_summary(samples) -> tuple:
    """``(p50, tail, tail_pct)``: the tail is the highest listed percentile
    with at least ten samples beyond it; below 20 samples it is the maximum
    (``tail_pct`` 100)."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)

    def pct(p):
        pos = (n - 1) * p / 100.0
        lo = math.floor(pos)
        hi = min(lo + 1, n - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    tail_pct = next(
        (p for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0) if n * (1.0 - p / 100.0) >= 10),
        100.0,
    )
    return pct(50.0), pct(tail_pct), tail_pct


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# Checking outcomes
# ---------------------------------------------------------------------------

def check_sim(wl, outcomes) -> dict:
    """Per-call checks; all calls of one run must write the same CSV bytes."""
    first = outcomes[0]["csv"]
    ok_calls, problems, failed, row = [], [], 0, None
    for out in outcomes:
        out_row, found = wl.check_call(out)
        if out["csv"] != first:
            found.append("simulate CSV differs between calls at one seed")
        if found:
            problems.extend(found)
            failed += wl.trials
        else:
            ok_calls.append(out)
            row = out_row
    return {
        "row": row,
        "ok_calls": ok_calls,
        "problems": problems,
        "attempted": wl.trials * len(outcomes),
        "failed": failed,
        "csv_sha256": hashlib.sha256(first).hexdigest(),
    }


def check_envelope(wl, outcomes) -> dict:
    """Raising or invalid points fail; every pass must give the same digests."""
    first = outcomes[0]["digests"]
    problems, failed, ok_counts = [], 0, []
    for out in outcomes:
        bad = {k for k, d in out["digests"].items() if ":" in d}
        changed = {k for k, d in out["digests"].items() if d != first[k]}
        if changed:
            problems.append(f"{len(changed)} point digests differ between passes")
        invalid = [k for k in bad if out["digests"][k].startswith("invalid:")]
        problems.extend(f"{k}: {out['digests'][k]}" for k in invalid)
        n_failed = len(bad | changed)
        failed += n_failed
        ok_counts.append(len(wl.points) - n_failed)
    return {
        "ok_points_per_pass": statistics.median(ok_counts),
        "problems": problems,
        "attempted": len(wl.points) * len(outcomes),
        "failed": failed,
        "digest": workloads.digest_of(first),
        "point_digests": first,
        "errors_by_type": dict(Counter(outcomes[0]["errors"].values())),
    }


# ---------------------------------------------------------------------------
# Untraced and traced runs
# ---------------------------------------------------------------------------

def run_untraced(wl, seed, seconds, started, out_dir) -> tuple:
    if isinstance(wl, workloads.SimWorkload):
        calibrated = calibrate.Calibrated(repeats=5)
        outcomes = timed_calls(lambda: calibrated(wl.call), seconds, started)
        checked = check_sim(wl, outcomes)
        ok = checked["ok_calls"]
        wall = statistics.median(o["wall_s"] for o in ok) if ok else math.inf
        nominal = statistics.median(o["nominal_s"] for o in ok) if ok else math.inf
        ops_per_wall_s, ops = wl.trials / wall, wl.trials / nominal
        record = {}
        if ok:
            accuracy = wl.accuracy_factor(checked["row"])
            record["sps_ht_s_to_5pct"] = wall * accuracy
            record["sps_ht_trials_to_5pct"] = wl.trials * accuracy
            if wl.name == "sim-reference":
                record["reference_ratio"] = workloads.reference_ratio(wl.cfg, checked["row"])
    else:
        calibrated = calibrate.Calibrated(repeats=1)

        def one_pass():
            first = len(calibrated.kernel_samples_s) - 1
            out = wl.call(on_chunk=calibrated.sample)
            kernel = calibrated.kernel_samples_s[first:]
            out["point_nominal_s"] = [
                calibrate.nominal(t, kernel[i // workloads.ENVELOPE_CHUNK],
                                  kernel[i // workloads.ENVELOPE_CHUNK + 1])
                for i, t in enumerate(out["point_s"])
            ]
            return out

        outcomes = timed_calls(one_pass, seconds, started)
        checked = check_envelope(wl, outcomes)
        # A slow spell of the machine hits a few points of one pass; the
        # median of each point over the passes drops it.  Their sum is the
        # pass time.
        pass_s = numpy.median([o["point_s"] for o in outcomes], axis=0).sum()
        pass_nominal_s = numpy.median([o["point_nominal_s"] for o in outcomes], axis=0).sum()
        ops_per_wall_s = checked["ok_points_per_pass"] / pass_s
        ops = checked["ok_points_per_pass"] / pass_nominal_s
        record = {}
    record.update(
        call_walls_s=[o["wall_s"] for o in outcomes],
        kernel_samples_s=calibrated.kernel_samples_s,
        ops_ok_per_wall_s=ops_per_wall_s,
    )
    return {"ops_ok_per_s": metric(ops, "1/s")}, checked, record


def layer_metrics(wl, tracer, untraced, outcomes, checked) -> dict:
    table = tracing.SpanTable(tracer)
    runs = sorted({o["run_id"] for o in outcomes})

    def per_call_s(*names):
        mask = numpy.logical_or.reduce([table.mask(n) for n in names])
        return statistics.median(table.per_run(table.duration, mask, runs))

    def self_s(name):
        return statistics.median(table.per_run(table.self_time, table.mask(name), runs))

    def calls(name):
        return float(table.mask(name).sum()) / len(runs)

    def counted(key):
        return tracer.counts[runs[0]].get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    trial_ms = (table.duration[table.mask("simengine.run_trial")] * 1e3).tolist()
    point_ms = (table.duration[table.mask("analytics.point")] * 1e3).tolist()
    t50, ttail, tpct = percentile_summary(trial_ms)
    p50, ptail, ppct = percentile_summary(point_ms)
    traced_s = statistics.median(o["nominal_s"] for o in outcomes)
    untraced_s = statistics.median(o["nominal_s"] for o in untraced)
    sps_trials = 0.0
    if isinstance(wl, workloads.SimWorkload) and checked.get("row") is not None:
        sps_trials = wl.trials * wl.accuracy_factor(checked["row"])
    m = {
        "geometry.sample_s": metric(per_call_s("geometry.sample_ppp", "geometry.sample_tcp"), "s"),
        "geometry.bs_sampled": metric(counted("geometry.bs_sampled"), "count"),
        "mobility.generate_trajectory_s": metric(per_call_s("mobility.generate_trajectory"), "s"),
        "mobility.waypoints": metric(counted("mobility.waypoints"), "count"),
        "radio.make_erb_pair_s": metric(per_call_s("radio.make_erb_pair"), "s"),
        "radio.make_erb_pair_calls": metric(calls("radio.make_erb_pair"), "count"),
        "simengine.run_trial_ms_p50": metric(t50, "ms"),
        "simengine.run_trial_ms_tail": metric(ttail, "ms"),
        "simengine.run_trial_tail_pct": metric(tpct, "%"),
        "simengine.run_trial_samples": metric(len(trial_ms), "count"),
        "simengine.trial_self_s": metric(self_s("simengine.run_trial"), "s"),
        "simengine.kdtree_build_s": metric(per_call_s("simengine.kdtree_build"), "s"),
        "simengine.kdtree_query_s": metric(per_call_s("simengine.kdtree_query"), "s"),
        "simengine.kdtree_query_calls": metric(calls("simengine.kdtree_query"), "count"),
        "simengine.assoc_query_points": metric(counted("simengine.assoc_query_points"), "count"),
        "simengine.pingpong_query_yield": metric(
            ratio(counted("simengine.pingpongs"), counted("simengine.assoc_query_points")),
            "ratio",
        ),
        "simengine.segment_circle_pairs": metric(counted("simengine.segment_circle_pairs"), "count"),
        "simengine.trigger_yield": metric(
            ratio(counted("simengine.triggered"), counted("simengine.segment_circle_pairs")),
            "ratio",
        ),
    }
    for field in ("triggered", "handovers", "failures", "pingpongs",
                  "degenerate_skipped", "enclosing_skipped"):
        m[f"simengine.{field}"] = metric(counted(f"simengine.{field}"), "count")
    m.update({
        "simengine.sps_ht_trials_to_5pct": metric(sps_trials, "count"),
        "analytics.point_ms_p50": metric(p50, "ms"),
        "analytics.point_ms_tail": metric(ptail, "ms"),
        "analytics.point_tail_pct": metric(ppct, "%"),
        "analytics.points": metric(len(point_ms), "count"),
        "analytics.mean_cluster_distance_numeric_s": metric(
            per_call_s("analytics.mean_cluster_distance_numeric"), "s"
        ),
        "analytics.mean_cluster_distance_numeric_calls": metric(
            calls("analytics.mean_cluster_distance_numeric"), "count"
        ),
        "analytics.pingpong_clamps": metric(counted("analytics.pingpong_clamps"), "count"),
        "analytics.domain_errors": metric(counted("analytics.domain_errors"), "count"),
        "specfun.marcum_q1_s": metric(per_call_s("specfun.marcum_q1"), "s"),
        "specfun.marcum_q1_calls": metric(calls("specfun.marcum_q1"), "count"),
        "cli.self_s": metric(self_s("cli.main"), "s"),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        "trace.overhead_pct": metric(100.0 * (traced_s / untraced_s - 1.0), "%"),
    })
    problems = table.problems()
    for r in runs[1:]:
        if dict(tracer.counts[r]) != dict(tracer.counts[runs[0]]):
            problems.append(f"layer counts of call {r} differ from call {runs[0]}")
    return m, problems, table


def run_traced(wl, seed, seconds, started, out_dir) -> tuple:
    """Alternate untraced and traced calls; layer metrics come from the
    traced ones, the tracing overhead from the difference."""
    tracer = tracing.Tracer()
    clamps = getattr(analytics, "PINGPONG_CLAMP_DIAGNOSTICS", None)
    calibrated = calibrate.Calibrated(repeats=5)
    untraced, traced = [], []

    def traced_call():
        with tracing.instrument(tracer):
            return wl.call(span=tracer.span)

    def pair():
        untraced.append(calibrated(wl.call))
        tracer.run_id = len(traced)
        before = clamps.count if clamps is not None else 0
        out = calibrated(traced_call)
        if clamps is not None:
            tracer.count("analytics.pingpong_clamps", clamps.count - before)
        if "errors" in out:
            tracer.count("analytics.domain_errors", len(out["errors"]))
        out["run_id"] = tracer.run_id
        traced.append(out)

    timed_calls(pair, seconds, started)
    check = check_sim if isinstance(wl, workloads.SimWorkload) else check_envelope
    checked = check(wl, untraced + traced)
    metrics, span_problems, table = layer_metrics(wl, tracer, untraced, traced, checked)
    checked["problems"].extend(span_problems)
    tracer.save(out_dir / f"{wl.name}-seed{seed}-spans.npz")
    runs = [o["run_id"] for o in traced]
    record = {
        "untraced_walls_s": [o["wall_s"] for o in untraced],
        "traced_walls_s": [o["wall_s"] for o in traced],
        "kernel_samples_s": calibrated.kernel_samples_s,
        "spans": len(table.start),
        "self_s_by_span": {
            name: statistics.median(table.per_run(table.self_time, table.mask(name), runs))
            for name in table.names
        },
    }
    return metrics, checked, record


def run(wl, seed: int, seconds: float, trace: int, setup, out_dir: Path):
    """``(result, record, lines)`` for one prepared workload: the benchmark's
    JSON object, the full record for ``out_dir`` and human-readable lines."""
    # The closed forms warn on every clamped ping-pong bracket; the traced run
    # counts clamps instead, and the warnings would flood standard error.
    warnings.simplefilter("ignore", UserWarning)
    config_problems = workloads.config_problems(wl, seed)
    started = time.perf_counter()
    runner = run_traced if trace else run_untraced
    metrics, checked, record = runner(wl, seed, seconds, started, out_dir)
    if not trace:
        metrics["setup_s"] = metric(statistics.median(setup["nominal_s"]), "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = metric(rss_kib / 1024.0, "MB")

    problems = config_problems + checked["problems"]
    result = {
        "correct": not problems,
        "attempted": checked["attempted"],
        "failed": checked["attempted"] if config_problems else checked["failed"],
        "metrics": metrics,
    }
    record.update(
        workload=wl.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        provenance=provenance(),
        config_sha256=wl.config_sha256,
        setup_samples=setup,
        problems=problems,
        result=result,
        **{k: v for k, v in checked.items() if k not in ("row", "problems", "ok_calls")},
    )
    lines = [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if "csv_sha256" in checked:
        lines.append(f"simulate csv sha256 = {checked['csv_sha256']}")
    if "digest" in checked:
        lines.append(f"envelope digest = {checked['digest']} errors = {checked['errors_by_type']}")
    lines.extend(f"PROBLEM: {p}" for p in problems[:20])
    return result, record, lines
