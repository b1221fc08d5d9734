"""The benchmark's workloads, their inputs and the checks on their outputs.

Importing this module imports ``hetnet_handover``; the caller puts the
checkout's ``src`` directory on ``sys.path`` first.  Every workload drives the
program only through what users run: ``cli.main(["simulate", ...])`` for the
two simulator campaigns and ``analytic_metrics`` for the closed-form grid.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import time
from pathlib import Path

from hetnet_handover import cli, fixtures
from hetnet_handover.analytics import HandoverThresholds, PairKind
from hetnet_handover.cli import ExperimentSpec
from hetnet_handover.geometry import Region
from hetnet_handover.simengine import SimConfig, analytic_metrics

#: Trials per ``simulate`` call.  The reference INI keeps its 200 trials and
#: the call passes ``--trials``; trials are seeded by index, so the call runs
#: exactly the first trials of the named campaign.  Calls are short so that
#: a run repeats the same campaign many times and reports the median: on a
#: shared machine the same call varies by up to 30 % from one ten-second
#: window to the next.
REFERENCE_TRIALS = 10
DENSE_TRIALS = 2

#: The closed-form envelope: lambda_S x sigma x V x (T, T_p), 504 points.
ENVELOPE_LAMBDA_S = (1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 4e-4)
ENVELOPE_SIGMA_M = (5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 250.0)
ENVELOPE_VELOCITY_KMH = (5.0, 60.0, 120.0)
ENVELOPE_THRESHOLDS_S = ((0.5, 2.0), (1.0, 4.0), (2.0, 8.0))
ENVELOPE_REGION_M = 5000.0

#: Points between two samples of the calibration kernel in an untraced pass:
#: about half a second of work, shorter than the machine's speed spells.
ENVELOPE_CHUNK = 42

#: The acceptance window on simulated / closed-form SpS ``H_t``.
ACCEPTANCE_WINDOW = 0.15

#: Target relative 95 % half-width behind the time-to-accuracy figure.
ACCURACY_TARGET = 0.05

_PAIRS = (PairKind.SM, PairKind.SPS, PairKind.SPM)


def _default_ratio_config(region_side, lambda_s, sigma, mobility, thresholds, **counts):
    return SimConfig.with_default_ratios(
        region=Region(0.0, region_side, 0.0, region_side),
        macro=fixtures.default_macro_params(),
        small=fixtures.default_small_params(),
        hotspot=fixtures.default_hotspot_params(),
        lambda_s=lambda_s,
        sigma=sigma,
        mobility=mobility,
        thresholds=thresholds,
        **counts,
    )


def dense_sim_config(seed: int) -> SimConfig:
    return _default_ratio_config(
        10_000.0,
        1e-4,
        150.0,
        fixtures.default_mobility(),
        fixtures.default_thresholds(),
        n_trials=DENSE_TRIALS,
        master_seed=seed,
    )


def envelope_points() -> list:
    """``(label, SimConfig)`` for every grid point, in grid order."""
    points = []
    base_mobility = fixtures.default_mobility()
    q_out = fixtures.default_thresholds().q_out
    for lam, sigma, v_kmh, (t, t_p) in itertools.product(
        ENVELOPE_LAMBDA_S, ENVELOPE_SIGMA_M, ENVELOPE_VELOCITY_KMH, ENVELOPE_THRESHOLDS_S
    ):
        cfg = _default_ratio_config(
            ENVELOPE_REGION_M,
            lam,
            sigma,
            dataclasses.replace(base_mobility, velocity=v_kmh / 3.6),
            HandoverThresholds(t_threshold=t, t_pingpong=t_p, q_out=q_out),
        )
        points.append((f"{lam!r}/{sigma!r}/{v_kmh!r}/{t!r}/{t_p!r}", cfg))
    return points


def _no_span(name: str):
    return contextlib.nullcontext()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Simulator campaigns
# ---------------------------------------------------------------------------

class SimWorkload:
    """``hetnet-handover simulate`` on an INI file this benchmark writes."""

    def __init__(self, name: str, cfg: SimConfig, trials: int, out_dir: Path) -> None:
        if trials < 2:
            raise ValueError("a campaign needs at least 2 trials for its half-widths")
        self.name = name
        self.cfg = cfg
        self.trials = trials
        self.ini_text = cli.emit_config(ExperimentSpec(base=cfg))
        self.config_sha256 = sha256_text(self.ini_text)
        self.ini_path = out_dir / f"{name}.ini"
        self.csv_path = out_dir / f"{name}.csv"
        self.ini_path.write_text(self.ini_text, encoding="utf-8")
        self.argv = [
            "simulate",
            "--config", str(self.ini_path),
            "--workers", "1",
            "--trials", str(trials),
            "--out", str(self.csv_path),
        ]

    def check_config(self, expected: SimConfig) -> list:
        """Problems with the INI loading back as anything but ``expected``."""
        spec = cli.load_config(self.ini_path)
        problems = []
        if spec.base != expected:
            problems.append(f"{self.ini_path.name} does not load back equal to its SimConfig")
        if spec.pair is not PairKind.SPS or spec.sweep_axis is not None:
            problems.append(f"{self.ini_path.name} is not a single SpS point")
        return problems

    def call(self, span=_no_span) -> dict:
        """Run one ``simulate`` call; return its wall time and CSV bytes."""
        self.csv_path.unlink(missing_ok=True)
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), span("cli.main"):
            code = cli.main(self.argv)
        wall = time.perf_counter() - t0
        data = self.csv_path.read_bytes() if self.csv_path.exists() else b""
        return {"wall_s": wall, "exit_code": code, "csv": data}

    def check_call(self, outcome: dict) -> tuple:
        """``(sps_row, problems)`` for one call's CSV."""
        if outcome["exit_code"] != 0:
            return None, [f"simulate exited with {outcome['exit_code']}"]
        text = outcome["csv"].decode("utf-8")
        rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
        problems = []
        if len(rows) != 1 or rows[0].get("pair") != PairKind.SPS.value:
            return None, [f"expected one SpS row, got {len(rows)} rows"]
        row = rows[0]
        try:
            n_trials = int(row["n_trials"])
            exposure = float(row["exposure_s"])
            counts = {k: int(row[k]) for k in ("triggered", "handovers", "failures", "pingpongs")}
            rates = {k: float(row[k]) for k in ("H_t", "H_t_ci", "H", "H_ci", "H_p", "H_p_ci")}
        except (KeyError, ValueError) as exc:
            return None, [f"unreadable simulate CSV: {exc!r}"]
        if n_trials != self.trials:
            problems.append(f"n_trials {n_trials} != {self.trials}")
        if min(counts.values()) < 0 or exposure <= 0:
            problems.append("negative count or non-positive exposure")
        if counts["handovers"] > counts["triggered"] or counts["failures"] > counts["triggered"]:
            problems.append("handovers or failures exceed triggered events")
        if not all(math.isfinite(v) and v >= 0 for v in rates.values()):
            problems.append("non-finite or negative rate")
        if not math.isclose(rates["H_t"], counts["triggered"] / exposure, rel_tol=1e-9):
            problems.append("H_t is not triggered / exposure")
        if rates["H_t"] <= 0 or rates["H_t_ci"] <= 0:
            problems.append("SpS H_t or its half-width is zero; accuracy undefined")
        return row, problems

    def accuracy_factor(self, row) -> float:
        """``(H_t_ci / (0.05 H_t))**2``: campaigns of this size needed for a
        5 % half-width on SpS ``H_t``."""
        return (float(row["H_t_ci"]) / (ACCURACY_TARGET * float(row["H_t"]))) ** 2


def reference_ratio(cfg: SimConfig, row) -> dict:
    """Simulated / closed-form SpS ``H_t`` beside the acceptance window."""
    analytic = analytic_metrics(cfg)[PairKind.SPS].triggered_rate
    ratio = float(row["H_t"]) / analytic
    return {
        "sim_over_closed_form": ratio,
        "window": ACCEPTANCE_WINDOW,
        "inside_window": abs(ratio - 1.0) <= ACCEPTANCE_WINDOW,
    }


# ---------------------------------------------------------------------------
# Closed-form envelope
# ---------------------------------------------------------------------------

class EnvelopeWorkload:
    """``analytic_metrics`` over the fixed grid, in a seeded order."""

    name = "analytic-envelope"

    def __init__(self, seed: int, points=None) -> None:
        points = envelope_points() if points is None else points
        self.points = list(points)
        random.Random(seed).shuffle(self.points)
        grid = {
            "lambda_s": ENVELOPE_LAMBDA_S,
            "sigma_m": ENVELOPE_SIGMA_M,
            "velocity_kmh": ENVELOPE_VELOCITY_KMH,
            "T_Tp_s": ENVELOPE_THRESHOLDS_S,
            "region_m": ENVELOPE_REGION_M,
            "labels": sorted(label for label, _ in self.points),
        }
        self.config_sha256 = sha256_text(json.dumps(grid, sort_keys=True))

    def call(self, span=_no_span, on_chunk=None) -> dict:
        """One pass over the grid; ``on_chunk()`` runs after every
        ``ENVELOPE_CHUNK`` points and after the last, outside point timings."""
        digests, errors, point_s = {}, {}, []
        t0 = time.perf_counter()
        for i, (label, cfg) in enumerate(self.points):
            p0 = time.perf_counter()
            try:
                with span("analytics.point"):
                    metrics = analytic_metrics(cfg)
            except Exception as exc:  # noqa: BLE001 - a raising point is a failed operation
                metrics = None
                errors[label] = type(exc).__name__
            point_s.append(time.perf_counter() - p0)
            digests[label] = _point_digest(metrics, errors.get(label))
            if on_chunk is not None and ((i + 1) % ENVELOPE_CHUNK == 0 or i + 1 == len(self.points)):
                on_chunk()
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "digests": digests, "errors": errors, "point_s": point_s}

    @staticmethod
    def check_point(metrics) -> list:
        problems = []
        for kind in _PAIRS:
            m = metrics[kind]
            values = (m.triggered_rate, m.handover_rate, m.failure_rate, m.pingpong_rate)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{kind.value}: non-finite metric")
            try:
                dataclasses.replace(m)  # re-runs the HandoverMetrics invariants
            except ValueError as exc:
                problems.append(f"{kind.value}: {exc}")
        return problems


def _point_digest(metrics, error) -> str:
    if metrics is None:
        return f"error:{error}"
    problems = EnvelopeWorkload.check_point(metrics)
    if problems:
        return "invalid:" + "; ".join(problems)
    text = "|".join(
        f"{k.value}:{m.triggered_rate!r},{m.handover_rate!r},{m.failure_rate!r},{m.pingpong_rate!r}"
        for k, m in ((k, metrics[k]) for k in _PAIRS)
    )
    return sha256_text(text)[:16]


def digest_of(digests: dict) -> str:
    return sha256_text(json.dumps(digests, sort_keys=True))


def prepare(name: str, seed: int, out_dir: Path):
    """Build the workload's config and write its INI file: the set-up."""
    if name == "sim-reference":
        return SimWorkload(name, fixtures.reference_sim_config(seed), REFERENCE_TRIALS, out_dir)
    if name == "sim-dense":
        return SimWorkload(name, dense_sim_config(seed), DENSE_TRIALS, out_dir)
    if name == "analytic-envelope":
        return EnvelopeWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


def config_problems(wl, seed: int) -> list:
    """The written INI must load back as exactly the named campaign."""
    if wl.name == "sim-reference":
        return wl.check_config(fixtures.reference_sim_config(seed))
    if wl.name == "sim-dense":
        return wl.check_config(dense_sim_config(seed))
    return []
