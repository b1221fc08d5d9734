"""Closed-form handover metrics across the main operating parameters.

Prints four sweep tables for the hotspot-to-small-cell pair using the
closed-form engine only (no simulation): cluster spread, user speed, dwell
threshold, and small-cell density.  The directions to look for:

* wider clusters => longer boundary chords => more completed handovers;
* faster users => shorter in-circle dwell => more failures;
* a longer dwell threshold trades handovers for failures;
* densifying small cells saturates the failure rate.
"""

from hetnet_handover import PairKind, analytic_metrics
from hetnet_handover.cli import apply_sweep, default_spec


def table(title: str, axis: str, values, unit: str) -> None:
    base = default_spec().base
    print(f"\n{title}")
    header = (f"{'value':>12} {'triggered/s':>12} {'handover/s':>12} "
              f"{'failure':>10} {'pingpong/s':>12}")
    print(header)
    print("-" * len(header))
    for v in values:
        m = analytic_metrics(apply_sweep(base, axis, v))[PairKind.SPS]
        print(f"{f'{v:g} {unit}':>12} {m.triggered_rate:>12.4e} "
              f"{m.handover_rate:>12.4e} {m.failure_rate:>10.4e} "
              f"{m.pingpong_rate:>12.4e}")


def main() -> None:
    print("closed-form metrics, hotspot-to-small-cell pair, defaults elsewhere")
    table("cluster spread sweep", "sigma", (50, 100, 150, 200, 250), "m")
    table("user speed sweep", "velocity", (15, 30, 60, 90, 120), "km/h")
    table("dwell threshold sweep", "T", (0.5, 1.0, 2.0, 4.0), "s")
    table("small-cell density sweep", "lambda_s",
          (5e-6, 1e-5, 2e-5, 4e-5, 8e-5), "/m2")


if __name__ == "__main__":
    main()
