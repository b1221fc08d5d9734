"""Cross-check the closed-form metrics against the event-driven simulator.

Runs a scaled-down Monte Carlo campaign (same construction as the full
reference validation, fewer trials) and prints the side-by-side table for
all three cell pairs.  What to expect:

* triggered (H_t) and handover (H) rates agree within ~15%, typically with
  the simulator a touch low (finite region; trajectories that end inside a
  boundary circle never book the exit);
* the simulated failure column (H_f) runs far hotter than the closed form:
  the event definition fires whenever the inner boundary is reached within
  the dwell threshold of the trigger — a narrow near-side gap crossed in a
  fraction of a second — while the closed form asks the much weaker
  question of finishing the entire inner chord within the threshold;
* the closed-form ping-pong column (H_p) runs hotter than the simulator,
  which additionally requires the strongest cell at the exit point to be
  the original server before booking a return.

The triggered/handover agreement is the release gate; the failure and
ping-pong columns compare two deliberately different definitions and are
shown for orientation, not for equality.
"""

import argparse
import dataclasses
import time

from hetnet_handover import ComparisonTable, analytic_metrics, run_campaign
from hetnet_handover.fixtures import reference_sim_config


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    cfg = dataclasses.replace(
        reference_sim_config(master_seed=args.seed), n_trials=args.trials
    )
    print(f"{args.trials} trials, {cfg.n_users} users x {cfg.n_moves} moves each, "
          f"{cfg.region.width/1000:.0f} x {cfg.region.height/1000:.0f} km region")
    t0 = time.perf_counter()
    table = ComparisonTable.of(analytic_metrics(cfg), run_campaign(cfg, workers=args.workers))
    print(f"campaign finished in {time.perf_counter() - t0:.1f} s\n")
    print(table.summary())


if __name__ == "__main__":
    main()
