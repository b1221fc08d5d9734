"""Acceptance suite: one test per release criterion, one verdict line each.

Every test measures its own wall-clock time against the criterion's runtime
budget and reports ``PASS``/``FAIL`` with the decisive numbers.  The lines
are replayed in a terminal-summary block (see ``conftest.py``).

The cluster mean-distance bound check evaluates `mean_cluster_distance_ub`,
the proven bound ``sqrt(1/(pi lam) + 2 sigma**2)``, on the full 10x10 grid,
sparse corner included.  It reports any counterexamples rather than
shrinking the grid to hide them.  The paper's exponential-sum expression,
which undershoots wherever ``pi * lam * sigma**2`` falls below about 0.052,
is `mean_cluster_distance_expsum` and is tested in ``test_analytics.py``.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import scipy.special as sp
from scipy.spatial import cKDTree
from scipy.stats import kstest, ncx2

import conftest
from hetnet_handover.analytics import (
    PairKind,
    mean_cluster_distance_numeric,
    mean_r_sm,
)
from hetnet_handover.cli import apply_sweep, default_spec, main
from hetnet_handover.fixtures import (
    default_macro_params,
    default_small_params,
)
from hetnet_handover.geometry import Region, sample_ppp
from hetnet_handover.mobility import (
    MobilityConfig,
    generate_trajectory,
)
from hetnet_handover.radio import TierRadioParams, boundary_factors, erb_circle_arrays
from hetnet_handover.simengine import analytic_metrics, run_campaign
from hetnet_handover.specfun import marcum_q1

from oracles import (
    I0_EXP_EDGES,
    PINS,
    i0_exp_approx,
    marcum_q1_quadrature,
    mean_cluster_distance_ub,
    reference_config,
    strip_occupancy,
)


def verdict(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    ok = ok and elapsed <= budget
    line = (
        f"{'PASS' if ok else 'FAIL'}  {name}: {detail} "
        f"[{elapsed:.1f}s of {budget:.0f}s budget]"
    )
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def test_flattening_factor_matches_grid_search():
    # The circle construction for unequal path-loss exponents replaces
    # r^(2 alpha_ratio) by lambda * r^2.  A grid search for the lambda that
    # minimizes the L1 deviation over [0, q] must land within one grid step
    # of the closed-form factor q^(2 (alpha_ratio - 1)), read as the boundary
    # factor u of two tiers with equal prefactors (xi = 1, so u = lambda).
    t0 = time.perf_counter()
    lam_grid = np.linspace(50.0 / 1000.0, 50.0, 1000)
    step = float(lam_grid[1] - lam_grid[0])
    worst = 0.0
    target = TierRadioParams(30.0, 0.0, 0.0, 1.0, 4.0)
    for alpha_ratio in (0.98, 1.0, 1.02):
        serving = dataclasses.replace(target, pathloss_exponent=4.0 * alpha_ratio)
        for q in (100.0, 500.0, 1000.0):
            r = (np.arange(10_000) + 0.5) * (q / 10_000.0)
            deviation = np.abs(
                r[None, :] ** (2.0 * alpha_ratio)
                - lam_grid[:, None] * (r * r)[None, :]
            ).sum(axis=1)
            lam_hat = float(lam_grid[np.argmin(deviation)])
            closed = float(boundary_factors(serving, target, np.array([q]), np.zeros(1), 0.5)[0][0])
            worst = max(worst, abs(lam_hat - closed))
    verdict(
        "flattening-factor grid search",
        worst <= step,
        f"max |grid argmin - closed form| = {worst:.4f} <= grid step {step:.4f} "
        "over 9 (exponent ratio, radius) combinations",
        time.perf_counter() - t0,
        10.0,
    )


def test_equal_exponent_boundary_is_exact():
    # With equal path-loss exponents the equal-RSS boundary is exactly a
    # circle; the biased RSS of both cells must agree along it to float
    # precision, power/gain/bias offsets included.
    t0 = time.perf_counter()
    serving = default_macro_params()
    target = default_small_params()
    target = dataclasses.replace(
        target, pathloss_exponent=serving.pathloss_exponent
    )
    target_xy = np.array([800.0, 600.0])
    tx, ty = target_xy[:1], target_xy[1:]
    u, _ = boundary_factors(serving, target, tx, ty, 0.5)
    circle = erb_circle_arrays(tx, ty, np.hypot(tx, ty), u)
    theta = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    pts = np.array([circle.cx[0], circle.cy[0]]) + circle.radius[0] * np.column_stack(
        (np.cos(theta), np.sin(theta))
    )
    d_serving = np.hypot(pts[:, 0], pts[:, 1])
    d_target = np.hypot(pts[:, 0] - target_xy[0], pts[:, 1] - target_xy[1])
    rss_serving = serving.linear_prefactor * d_serving ** -serving.pathloss_exponent
    rss_target = target.linear_prefactor * d_target ** -target.pathloss_exponent
    mismatch = float(np.max(np.abs(rss_target / rss_serving - 1.0)))
    verdict(
        "equal-exponent boundary exactness",
        mismatch <= 1e-9,
        f"max relative RSS mismatch over 360 boundary samples = {mismatch:.2e} <= 1e-9",
        time.perf_counter() - t0,
        1.0,
    )


def test_offspring_serving_distance_follows_rician_law():
    # A cluster member displaced by an isotropic Gaussian from a parent at
    # distance w from its serving BS sits at a Rician-distributed distance
    # from that BS; the empirical CDF must match 1 - Q1(w/sigma, r/sigma).
    # (r/sigma)^2 is then noncentral chi-square with 2 degrees of freedom
    # and noncentrality (w/sigma)^2, so scipy's ncx2 gives that CDF apart
    # from the Marcum-Q kernel under test in test_analytics.
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 100_000
    worst = 0.0
    details = []
    for sigma, w in ((100.0, 50.0), (150.0, 200.0)):
        offspring = np.array([w, 0.0]) + rng.normal(0.0, sigma, (n, 2))
        distances = np.hypot(offspring[:, 0], offspring[:, 1])
        stat = kstest(
            distances, lambda r: ncx2.cdf((r / sigma) ** 2, 2, (w / sigma) ** 2)
        ).statistic
        worst = max(worst, float(stat))
        details.append(f"KS(sigma={sigma:g}, w={w:g})={stat:.4f}")
    verdict(
        "clustered-offspring distance law",
        worst < 0.01,
        "; ".join(details) + f"; all < 0.01 at {n} samples",
        time.perf_counter() - t0,
        30.0,
    )


def test_mean_nearest_macro_distance():
    # Monte Carlo mean nearest-macro distance vs the closed form
    # 1/(2 sqrt(lambda)) at lambda = 1e-6 per m^2 (= 500 m).
    t0 = time.perf_counter()
    lam = 1e-6
    rng = np.random.default_rng(12)
    region = Region(0.0, 6000.0, 0.0, 6000.0)  # 2750 m margin around queries
    samples = []
    while len(samples) < 2000:
        field = sample_ppp(region, lam, rng)
        if len(field) == 0:
            continue
        queries = rng.uniform(2750.0, 3250.0, (50, 2))
        d, _ = cKDTree(field).query(queries)
        samples.append(d)
    mc_mean = float(np.concatenate(samples).mean())
    closed = mean_r_sm(lam)
    rel = abs(mc_mean - closed) / closed
    verdict(
        "mean nearest-macro distance",
        rel <= 0.01,
        f"MC mean {mc_mean:.2f} m vs closed form {closed:.1f} m "
        f"(rel dev {rel:.3%} <= 1%) at 1e5 samples",
        time.perf_counter() - t0,
        10.0,
    )


def test_cluster_mean_distance_bound_and_quadrature():
    # Two clauses on a 10x10 (density, spread) grid: the closed-form bound
    # must dominate the quadrature mean everywhere, and the quadrature mean
    # must track an independent Monte Carlo construction within 2%.
    #
    # The grid corner lam=1e-6, sigma=50 (pi*lam*sigma^2 ~ 0.008) is where
    # the paper's exponential-sum expression undershoots the true mean; the
    # bound checked here is the Jensen bound of mean_cluster_distance_ub,
    # 2/sqrt(pi) times the true mean.  Counterexamples are reported, not
    # hidden.
    t0 = time.perf_counter()
    lams = np.logspace(-6, -4, 10)
    sigmas = np.linspace(50.0, 300.0, 10)
    rng = np.random.default_rng(2024)
    n = 200_000
    violations = []
    worst_mc = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for lam in lams:
            for sigma in sigmas:
                ub = mean_cluster_distance_ub(lam, sigma)
                numeric = mean_cluster_distance_numeric(lam, sigma)
                if ub < numeric:
                    violations.append((lam, sigma, ub, numeric))
                w = rng.rayleigh(1.0 / math.sqrt(2.0 * math.pi * lam), n)
                disp = rng.normal(0.0, sigma, (n, 2))
                mc = float(np.hypot(w + disp[:, 0], disp[:, 1]).mean())
                worst_mc = max(worst_mc, abs(numeric - mc) / mc)
    bound_ok = not violations
    mc_ok = worst_mc <= 0.02
    if violations:
        lam, sigma, ub, numeric = violations[0]
        bound_text = (
            f"bound < quadrature at {len(violations)}/100 grid points "
            f"(first: lam={lam:.1e}, sigma={sigma:.0f}: "
            f"{ub:.1f} < {numeric:.1f} m)"
        )
    else:
        bound_text = "bound >= quadrature at all 100 grid points"
    verdict(
        "cluster mean-distance bound and quadrature",
        bound_ok and mc_ok,
        f"{bound_text}; quadrature vs MC worst rel dev {worst_mc:.3%} <= 2%",
        time.perf_counter() - t0,
        120.0,
    )


def test_special_function_accuracy():
    # Series Marcum Q1 vs adaptive quadrature on a 20x20 grid, and the
    # piecewise exponential-sum I0 within 5% of the series on each finite
    # interval (max error reported per interval).
    t0 = time.perf_counter()
    a_grid = np.linspace(0.05, 10.0, 20)
    b_grid = np.linspace(0.05, 12.0, 20)
    worst_q = 0.0
    for a in a_grid:
        quad_vals = np.array([marcum_q1_quadrature(a, b) for b in b_grid])
        series = np.array(marcum_q1(a, tuple(b_grid)))
        worst_q = max(worst_q, float(np.max(np.abs(series - quad_vals))))

    edges = I0_EXP_EDGES
    interval_errors = []
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        z = lo + (hi - lo) * np.arange(2001) / 2001.0  # [lo, hi)
        exact = sp.i0(z)
        rel = np.max(np.abs(i0_exp_approx(z) - exact) / exact)
        interval_errors.append((lo, hi, float(rel)))
    i0_ok = all(err <= 0.05 for _, _, err in interval_errors)
    i0_text = ", ".join(
        f"[{lo:g},{hi:g}): {err:.2%}" for lo, hi, err in interval_errors
    )
    verdict(
        "special-function accuracy",
        worst_q <= 1e-8 and i0_ok,
        f"Marcum Q1 series vs quadrature max |diff| = {worst_q:.1e} <= 1e-8 "
        f"on 20x20 grid; I0 exp-sum max rel err per interval: {i0_text} (all <= 5%)",
        time.perf_counter() - t0,
        30.0,
    )


def test_boundary_biased_mobility_lifts_edge_occupancy():
    # With the Bernoulli length extension active (p_z = 0.3, sigma_z =
    # sigma_rwp), clamped overshoots pile waypoints into the border strips;
    # occupancy there must strictly exceed the plain-waypoint run under a
    # paired seed.
    t0 = time.perf_counter()
    region = Region(0.0, 5000.0, 0.0, 5000.0)
    occupancy = {}
    for p_z in (0.0, 0.3):
        cfg = MobilityConfig(
            sigma_rwp=300.0, p_z=p_z, sigma_z=300.0, velocity=60.0 / 3.6, pause=5.0
        )
        rng = np.random.default_rng(42)
        trajectories = [
            generate_trajectory(
                region.sample_uniform(1, rng)[0], 1000, region, cfg, rng
            )
            for _ in range(100)
        ]
        occupancy[p_z] = strip_occupancy(trajectories, region, border_fraction=0.05)
    verdict(
        "boundary-biased mobility edge occupancy",
        occupancy[0.3] > occupancy[0.0],
        f"strip occupancy {occupancy[0.3]:.4f} (biased) > {occupancy[0.0]:.4f} "
        f"(plain) over 1.001e5 paired waypoints",
        time.perf_counter() - t0,
        30.0,
    )


def test_simulated_trigger_rate_tracks_closed_form():
    # Event-driven campaign vs closed form at the reference operating point
    # (10 expected hotspot cells, 60 km/h): the small-cell-to-hotspot
    # triggered rate must agree within 15%, and the simulated handover rate
    # must not exceed the closed-form one (finite region and in-circle
    # trajectory ends can only lose events).  The campaign is the seed-0
    # reference one, so its triggered rate must also reproduce the pinned
    # simulator constant.
    t0 = time.perf_counter()
    cfg = reference_config()
    estimate = run_campaign(cfg, workers=4)
    analytic = analytic_metrics(cfg)[PairKind.SPS]
    sim = estimate.pairs[PairKind.SPS].rates
    ratio = sim.triggered_rate / analytic.triggered_rate
    direction_ok = sim.handover_rate <= analytic.handover_rate
    pin = PINS["sim_triggered_rate_sps_reference_seed0"]
    pin_err = abs(sim.triggered_rate - pin["value"]) / pin["value"]
    verdict(
        "simulated vs closed-form trigger rate",
        0.85 <= ratio <= 1.15 and direction_ok and pin_err <= pin["rel_tolerance"],
        f"simulated/analytic triggered = {ratio:.4f} in [0.85, 1.15] "
        f"({cfg.n_trials} trials, CI +/-{estimate.pairs[PairKind.SPS].halfwidths[0]:.2e}); "
        f"simulated handover rate {sim.handover_rate:.3e} <= "
        f"analytic {analytic.handover_rate:.3e}; "
        f"seed-0 pin rel err {pin_err:.1e} <= {pin['rel_tolerance']:g}",
        time.perf_counter() - t0,
        300.0,
    )


def test_closed_form_trend_directions():
    # Six directional sweeps of the closed-form engine for the hotspot pair,
    # each on >= 4 points.
    t0 = time.perf_counter()
    base = default_spec().base

    def sweep(axis, values, attr):
        return np.array(
            [
                getattr(analytic_metrics(apply_sweep(base, axis, v))[PairKind.SPS], attr)
                for v in values
            ]
        )

    checks = {}
    h_sigma = sweep("sigma", (50.0, 100.0, 150.0, 200.0, 250.0), "handover_rate")
    checks["handover rate rises with cluster spread"] = np.all(np.diff(h_sigma) > 0)
    h_t = sweep("T", (0.5, 1.0, 2.0, 4.0), "handover_rate")
    checks["handover rate falls with dwell threshold"] = np.all(np.diff(h_t) < 0)
    hf_v = sweep("velocity", (15.0, 30.0, 60.0, 90.0, 120.0), "failure_rate")
    checks["failure rate rises with speed"] = np.all(np.diff(hf_v) > 0)
    hf_sigma = sweep("sigma", (100.0, 150.0, 200.0, 250.0), "failure_rate")
    checks["failure rate falls with cluster spread"] = np.all(np.diff(hf_sigma) < 0)
    hf_lam = sweep("lambda_s", (5e-6, 1e-5, 2e-5, 4e-5, 8e-5), "failure_rate")
    d = np.diff(hf_lam)
    checks["failure rate saturates with small-cell density"] = bool(
        np.all(d > 0) and np.all(np.diff(d) < 0) and d[-1] < 0.5 * d[0]
    )
    hp_tp = sweep("T_p", (2.0, 5.0, 10.0, 20.0, 40.0, 60.0), "pingpong_rate")
    d = np.diff(hp_tp)
    checks["ping-pong rate rises then saturates with its window"] = bool(
        np.all(d > 0) and d[-1] < 0.1 * d.max()
    )

    failed = [name for name, ok in checks.items() if not ok]
    verdict(
        "closed-form trend directions",
        not failed,
        f"6/6 directional sweeps hold" if not failed else f"failed: {failed}",
        time.perf_counter() - t0,
        60.0,
    )


def test_simulate_csv_deterministic_across_workers(tmp_path):
    # Identical config and seed must give byte-identical CSV, run to run,
    # at 1 worker and at 4 workers.
    t0 = time.perf_counter()
    config = tmp_path / "experiment.ini"
    config.write_text(
        "[region]\nwidth_m = 2500\nheight_m = 2500\n\n"
        "[experiment]\nn_users = 2\nn_moves = 25\nn_trials = 4\nmaster_seed = 11\n",
        encoding="utf-8",
    )
    outputs = {}
    for workers in (1, 4):
        runs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"w{workers}{attempt}.csv"
            rc = main(
                [
                    "simulate",
                    "--config", str(config),
                    "--workers", str(workers),
                    "--out", str(out),
                ]
            )
            assert rc == 0
            runs.append(out.read_bytes())
        outputs[workers] = runs
    same_1 = outputs[1][0] == outputs[1][1]
    same_4 = outputs[4][0] == outputs[4][1]
    cross = outputs[1][0] == outputs[4][0]
    verdict(
        "campaign CSV determinism",
        same_1 and same_4 and cross,
        f"repeat runs byte-identical at 1 worker: {same_1}, at 4 workers: "
        f"{same_4}; 1-worker and 4-worker output identical: {cross}",
        time.perf_counter() - t0,
        120.0,
    )
