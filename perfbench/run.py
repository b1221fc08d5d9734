"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-reference --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from the ``src`` directory next to
this one.  ``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the program's public functions and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(provenance, CSV sha256, per-point digests, span file) goes to
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sim-reference", "sim-dense", "analytic-envelope")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int) -> dict:
    """Seconds for ``import hetnet_handover`` plus the workload's set-up, each
    in a fresh interpreter, in wall and in nominal seconds."""
    import calibrate

    probe_dir = OUT / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    calibrated = calibrate.Calibrated(repeats=5)

    def probe() -> dict:
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(probe_dir)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        return {"wall_s": float(done.stdout.strip().splitlines()[-1])}

    samples = [calibrated(probe) for _ in range(SETUP_SAMPLES)]
    return {
        "wall_s": [p["wall_s"] for p in samples],
        "nominal_s": [p["nominal_s"] for p in samples],
        "kernel_samples_s": calibrated.kernel_samples_s,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hetnet_handover" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program to benchmark at {SRC / 'hetnet_handover'}\n")
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    seed = args.seed % 2**64
    setup = None if args.trace else measure_setup(args.workload, seed)

    sys.path.insert(0, str(SRC))
    import measure

    if not Path(measure.hetnet_handover.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: imported {measure.hetnet_handover.__file__}, not the checkout's\n")
        return 2
    wl = measure.workloads.prepare(args.workload, seed, OUT)
    result, record, lines = measure.run(wl, seed, args.seconds, args.trace, setup, OUT)
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    for line in lines:
        print(f"{args.workload} {line}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
