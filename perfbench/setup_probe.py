"""Time one set-up in this fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir>

Set-up is ``import hetnet_handover`` plus building the workload's config and
writing its INI file, up to where the first timed call would start.
"""

import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - T0)
