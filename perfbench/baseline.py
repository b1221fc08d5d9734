"""Run every workload untraced and traced, each in a fresh interpreter, and
record the results.

    python3 perfbench/baseline.py --seed 1 --seconds 30 --record perfbench/out/baseline.json

Prints every end-to-end metric by name and unit, then each workload's layer
shares (per-layer time over the traced call's wall time) and tracing
overhead, and writes one JSON record with provenance, CSV sha256 / envelope
digest and all metrics.  Exits 1 if any run fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

#: Layer timings reported as a share of the traced call's wall time.
SHARE_OF_CALL = (
    "simengine.trial_self_s",
    "mobility.generate_trajectory_s",
    "radio.make_erb_pair_s",
    "simengine.kdtree_build_s",
    "simengine.kdtree_query_s",
    "geometry.sample_s",
    "cli.self_s",
    "specfun.marcum_q1_s",
    "analytics.mean_cluster_distance_numeric_s",
)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}")
    record_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--record", type=Path, default=OUT / "baseline.json")
    args = parser.parse_args(argv)

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        untraced = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        layers = traced["result"]["metrics"]
        call_s = sorted(traced["traced_walls_s"])[len(traced["traced_walls_s"]) // 2]
        shares = {
            name: layers[name]["value"] / call_s
            for name in SHARE_OF_CALL
            if layers[name]["value"] > 0
        }
        record.setdefault("provenance", untraced["provenance"])
        entry = {
            "end_to_end": untraced["result"],
            "per_layer": traced["result"],
            "traced_call_s": call_s,
            "share_of_traced_call": shares,
            "untraced_record": {k: v for k, v in untraced.items() if k not in (
                "result", "provenance", "point_digests")},
            "traced_record": {k: v for k, v in traced.items() if k not in (
                "result", "provenance", "point_digests")},
        }
        if "point_digests" in untraced:
            entry["point_digests"] = untraced["point_digests"]
        record["workloads"][workload] = entry
        all_correct &= untraced["result"]["correct"] and traced["result"]["correct"]

        print(f"== {workload}: attempted {untraced['result']['attempted']}, "
              f"failed {untraced['result']['failed']}, correct {untraced['result']['correct']}")
        for name, m in untraced["result"]["metrics"].items():
            print(f"  {name:<14} {m['value']:>12.6g} {m['unit']}")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  share {name:<44} {100 * share:6.1f} %")
        print(f"  tracing overhead {layers['trace.overhead_s']['value']:.3f} s per call "
              f"({layers['trace.overhead_pct']['value']:.1f} %)")

    args.record.parent.mkdir(parents=True, exist_ok=True)
    args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.record}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
