"""Smoke check of the benchmark harness at tiny size (about 30 s).

    python3 perfbench/smoke.py

Runs each workload once untraced and once traced on two trials (simulator
campaigns) or a dozen grid points (closed-form envelope), then asserts that
the outputs pass their checks, that the metric names are exactly those of
``BENCHMARK.json``, and that the saved span tree is well formed: every child
lies inside its parent and every self time is at least zero.  Exits 1 on the
first failed assertion.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def tiny_workloads(out_dir: Path) -> list:
    return [
        workloads.SimWorkload(
            "sim-reference", workloads.fixtures.reference_sim_config(SEED), 2, out_dir
        ),
        workloads.SimWorkload("sim-dense", workloads.dense_sim_config(SEED), 2, out_dir),
        workloads.EnvelopeWorkload(SEED, points=workloads.envelope_points()[::42]),
    ]


def check_span_file(path: Path) -> None:
    spans = np.load(path)
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    assert len(start) > 0, f"{path.name}: no spans"
    child_time = np.zeros(len(start), dtype=np.int64)
    for i, p in enumerate(parent.tolist()):
        assert start[i] <= end[i], f"{path.name}: span {i} ends before it starts"
        if p >= 0:
            assert start[p] <= start[i] and end[i] <= end[p], (
                f"{path.name}: span {i} lies outside its parent {p}"
            )
            child_time[p] += end[i] - start[i]
    assert np.all(end - start - child_time >= 0), f"{path.name}: negative self time"


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out_dir = Path(tmp)
        for wl in tiny_workloads(out_dir):
            for trace, names in ((0, end_to_end), (1, per_layer)):
                result, record, _ = measure.run(
                    wl, SEED, 1e-3, trace, {"wall_s": [0.5], "nominal_s": [0.5]}, out_dir
                )
                assert result["correct"], f"{wl.name} trace {trace}: {record['problems']}"
                assert set(result["metrics"]) == names, (
                    f"{wl.name} trace {trace}: metric names differ from BENCHMARK.json: "
                    f"{sorted(set(result['metrics']) ^ names)}"
                )
            check_span_file(out_dir / f"{wl.name}-seed{SEED}-spans.npz")
            print(f"{wl.name}: ok ({record['spans']} spans)")
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    try:
        code = main()
    except AssertionError as exc:
        print(f"FAILED: {exc}")
        code = 1
    print(f"smoke check done in {time.perf_counter() - t0:.1f} s")
    sys.exit(code)
