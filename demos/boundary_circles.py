"""Inspect the handover and failure boundary circles of each cell pair.

For a target BS at distance d from its serving BS, the points where the
biased received signal strengths tie form (approximately) a circle around
the target; a second, nested circle marks where the serving signal has
additionally dropped by the outage offset.  This script prints both circles
for the three tier pairings over a range of separations, and shows what
happens in the degenerate equal-parameter case, which the closed forms
refuse.
"""

import dataclasses
from pathlib import Path

import numpy as np

from hetnet_handover import DegenerateBoundaryError, PairKind
from hetnet_handover.cli import default_spec, load_config
from hetnet_handover.radio import boundary_factors, erb_circle_arrays
from hetnet_handover.simengine import analytic_pair_metrics


def main() -> None:
    defaults = default_spec().base
    macro, small, hotspot = defaults.macro, defaults.small, defaults.hotspot
    q_out = defaults.thresholds.q_out

    pairs = (
        ("small target / macro serving", macro, small),
        ("hotspot target / small serving", small, hotspot),
        ("hotspot target / macro serving", macro, hotspot),
    )
    print(f"outage offset: {10 * np.log10(q_out):.1f} dB\n")
    header = (f"{'pair':<32} {'d [m]':>7} {'r_handover':>11} "
              f"{'r_failure':>10} {'gap to target':>14}")
    print(header)
    print("-" * len(header))
    for name, serving, target in pairs:
        for d in (100.0, 300.0, 1000.0):
            tx, ty = np.array([d]), np.zeros(1)
            u, u_f = boundary_factors(serving, target, tx, ty, q_out)
            norm = np.hypot(tx, ty)
            h, f = erb_circle_arrays(tx, ty, norm, u), erb_circle_arrays(tx, ty, norm, u_f)
            # Near-side gap between the two boundaries along the approach axis.
            near_h = np.hypot(h.cx[0] - d, h.cy[0]) - h.radius[0]
            near_f = np.hypot(f.cx[0] - d, f.cy[0]) - f.radius[0]
            print(f"{name:<32} {d:>7.0f} {h.radius[0]:>11.1f} {f.radius[0]:>10.1f} "
                  f"{abs(near_f) - abs(near_h):>14.1f}")

    print("\nfailure circle sits inside the handover circle: a user must cross")
    print("the outer boundary first, and reaching the inner one too quickly")
    print("(before the dwell threshold) is what the simulator counts as failure.")

    print("\nequal parameters on both sides (small cells with the macro radio):")
    cfg = load_config(Path(__file__).with_name("reference.ini")).base
    try:
        analytic_pair_metrics(dataclasses.replace(cfg, small=cfg.macro), PairKind.SM)
    except DegenerateBoundaryError as exc:
        print(f"  DegenerateBoundaryError: {exc}")
    print("  (the tie line is straight, not a circle; the simulator skips and")
    print("  counts such pairs instead of building a boundary)")


if __name__ == "__main__":
    main()
