"""``hetnet-handover`` command line front end.

Subcommands
-----------
analyze    closed-form metrics only; one CSV row per sweep point.
simulate   Monte Carlo campaigns only; one summary row per sweep point.
validate   both, side by side, with ratio/flag columns and a text summary.
fixtures   recompute the pinned regression constants with their oracles.

Configuration is a flat INI file.  Every key carries its unit in its name
(``sigma_m``, ``velocity_kmh``, ``tx_power_dbm``); decibel quantities are
converted to linear form exactly once, at load time.  Velocity may be given
as ``velocity_kmh`` (the conventional figure unit) or ``velocity_mps``; it
is stored in m/s internally.  An empty or absent config file yields the
full default experiment: a 5 km x 5 km region, macro/small/hotspot tiers at
46/30/24 dBm with 14/5/5 dBi gains and 0/4/4 dB biases, path-loss exponents
3.76/3.67/3.67 (128.1 and 140.7 dB at 1 km), small-cell density 2e-5 per
m^2 with macro and hotspot-center densities one tenth of it, hotspot
scatter 150 m with 5 expected members, 60 km/h motion with 5 s pauses and a
0.3-probability boundary-biased waypoint mixture, and 1 s / 4 s / -3 dB
handover thresholds.

Sweeps replace one quantity per run. Axis units match the config keys:
``lambda_s`` per m^2, ``sigma`` m, ``velocity`` km/h, ``tx_power_sprime``
dBm, ``T`` and ``T_p`` s.  A ``lambda_s`` sweep scales the macro and
hotspot-center densities proportionally, preserving the configured density
ratios.

Exit status is 0 iff no error occurred.  All CSV output starts with a
``# schema_version`` comment and a header row and ends with a newline.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .analytics import HandoverMetrics, HandoverThresholds, PairKind
from . import fixtures
from .fixtures import (
    checks_to_text,
    default_mobility,
    default_thresholds,
    recompute_all,
)
from .geometry import ClusterConfig, Region
from .mobility import MobilityConfig
from .radio import TierRadioParams
from .simengine import (
    _TIERS,
    SimConfig,
    analytic_pair_metrics,
    compare_to_analytics,
    run_campaign,
)

SCHEMA_VERSION = 1

SWEEP_AXES = ("lambda_s", "sigma", "velocity", "tx_power_sprime", "T", "T_p")

METRICS_CSV_HEADER = "pair,lambda_s,sigma,V_mps,T_s,Tp_s,H_t,H,H_f,H_p"

SIMULATE_CSV_HEADER = (
    "pair,lambda_s,sigma,V_mps,T_s,Tp_s,n_trials,exposure_s,"
    "triggered,handovers,failures,pingpongs,"
    "H_t,H_t_ci,H,H_ci,H_f,H_f_ci,H_p,H_p_ci"
)

VALIDATE_CSV_HEADER = (
    "pair,metric,lambda_s,sigma,V_mps,T_s,Tp_s,"
    "analytic,simulated,ci_halfwidth,ratio,flag"
)


class ConfigError(Exception):
    """Invalid configuration; the message lists every problem found."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: base configuration plus optional sweep.

    ``pair`` selects which handover pair the analyze/simulate tables report
    (validate always reports all three).  ``sweep_values`` are in the axis
    unit documented in the module docstring and must be strictly increasing.
    """

    base: SimConfig
    pair: PairKind = PairKind.SPS
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    output_path: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.pair, PairKind):
            raise ValueError(f"pair must be a PairKind, got {self.pair!r}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise ValueError(
                    f"sweep axis {self.sweep_axis!r} not in {SWEEP_AXES}"
                )
            if not self.sweep_values:
                raise ValueError("sweep axis set but no sweep values given")
        elif self.sweep_values:
            raise ValueError("sweep values given but no sweep axis")
        values = tuple(float(v) for v in self.sweep_values)
        if any(not math.isfinite(v) for v in values):
            raise ValueError("sweep values must be finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"sweep values must be strictly increasing: {values}")
        object.__setattr__(self, "sweep_values", values)


def apply_sweep(cfg: SimConfig, axis: str, value: float) -> SimConfig:
    """``cfg`` with one swept quantity replaced (see module docstring for units)."""
    if axis == "lambda_s":
        scale = value / cfg.lambda_s
        return dataclasses.replace(
            cfg,
            lambda_s=value,
            lambda_m=cfg.lambda_m * scale,
            cluster=dataclasses.replace(
                cfg.cluster, lambda_p=cfg.cluster.lambda_p * scale
            ),
        )
    if axis == "sigma":
        return dataclasses.replace(
            cfg, cluster=dataclasses.replace(cfg.cluster, sigma=value)
        )
    if axis == "velocity":
        return dataclasses.replace(
            cfg, mobility=dataclasses.replace(cfg.mobility, velocity=value / 3.6)
        )
    if axis == "tx_power_sprime":
        return dataclasses.replace(
            cfg, hotspot=dataclasses.replace(cfg.hotspot, tx_power=value)
        )
    if axis == "T":
        return dataclasses.replace(
            cfg, thresholds=dataclasses.replace(cfg.thresholds, t_threshold=value)
        )
    if axis == "T_p":
        return dataclasses.replace(
            cfg, thresholds=dataclasses.replace(cfg.thresholds, t_pingpong=value)
        )
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep_points(spec: ExperimentSpec) -> list:
    """The configurations an experiment visits (just the base if no sweep)."""
    if spec.sweep_axis is None:
        return [spec.base]
    return [apply_sweep(spec.base, spec.sweep_axis, v) for v in spec.sweep_values]


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_TIER_KEYS = frozenset(
    {
        "tx_power_dbm",
        "antenna_gain_dbi",
        "bias_db",
        "pathloss_exponent",
        "pathloss_db_at_1km",
        "pathloss_intercept",
    }
)

_SECTION_KEYS = {
    "region": frozenset({"width_m", "height_m"}),
    **dict.fromkeys(_TIERS, _TIER_KEYS),
    "deployment": frozenset(
        {
            "lambda_s_per_m2",
            "lambda_m_per_m2",
            "lambda_p_per_m2",
            "sigma_m",
            "mean_offspring",
        }
    ),
    "mobility": frozenset(
        {"sigma_rwp_m", "p_z", "sigma_z_m", "velocity_kmh", "velocity_mps", "pause_s"}
    ),
    "thresholds": frozenset(
        {"t_threshold_s", "t_pingpong_s", "q_out_db", "q_out_linear"}
    ),
    "experiment": frozenset({"n_users", "n_moves", "n_trials", "master_seed", "pair"}),
    "sweep": frozenset({"axis", "values"}),
    "output": frozenset({"path"}),
}

#: Radio parameters of each tier when its section leaves a key out; tier
#: ``<name>`` defaults to ``fixtures.default_<name>_params()``.
_TIER_DEFAULTS = {name: getattr(fixtures, f"default_{name}_params")() for name in _TIERS}

_DEFAULT_MOBILITY = default_mobility()
_DEFAULT_THRESHOLDS = default_thresholds()

_DEFAULT_LAMBDA_S = 2e-5
_DEFAULT_SIGMA = 150.0
_DEFAULT_MEAN_OFFSPRING = 5.0
_DEFAULT_REGION_SIDE = 5000.0


def default_spec() -> ExperimentSpec:
    """The full-default experiment (see module docstring)."""
    return ExperimentSpec(
        base=SimConfig(
            region=Region(0.0, _DEFAULT_REGION_SIDE, 0.0, _DEFAULT_REGION_SIDE),
            **_TIER_DEFAULTS,
            lambda_m=_DEFAULT_LAMBDA_S / 10.0,
            lambda_s=_DEFAULT_LAMBDA_S,
            cluster=ClusterConfig(
                lambda_p=_DEFAULT_LAMBDA_S / 10.0,
                sigma=_DEFAULT_SIGMA,
                mean_offspring=_DEFAULT_MEAN_OFFSPRING,
            ),
            mobility=_DEFAULT_MOBILITY,
            thresholds=_DEFAULT_THRESHOLDS,
        )
    )


class _SectionReader:
    """Typed key access over one config section with error accumulation."""

    def __init__(self, section: str, raw: dict, errors: list) -> None:
        self.section = section
        self.raw = raw
        self.errors = errors

    def _parse(self, key: str, default, caster, kind: str):
        if key not in self.raw:
            return default
        text = self.raw[key]
        try:
            return caster(text)
        except ValueError:
            self.errors.append(
                f"[{self.section}] {key}: expected {kind}, got {text!r}"
            )
            return default

    def get_float(self, key: str, default: float | None) -> float | None:
        return self._parse(key, default, float, "a number")

    def get_int(self, key: str, default: int | None) -> int | None:
        return self._parse(key, default, int, "an integer")

    def exactly_one(self, *keys: str) -> None:
        present = [k for k in keys if k in self.raw]
        if len(present) > 1:
            self.errors.append(
                f"[{self.section}] keys {present} are mutually exclusive; give one"
            )


def _build_tier(
    section: str, raw: dict, defaults: TierRadioParams, errors: list
) -> TierRadioParams:
    r = _SectionReader(section, raw, errors)
    r.exactly_one("pathloss_db_at_1km", "pathloss_intercept")
    alpha = r.get_float("pathloss_exponent", defaults.pathloss_exponent)
    if "pathloss_db_at_1km" in raw:
        pl_1km = r.get_float("pathloss_db_at_1km", None)
        intercept = (
            10.0 ** ((30.0 * alpha - pl_1km) / 10.0) if pl_1km is not None else None
        )
    elif "pathloss_intercept" in raw:
        intercept = r.get_float("pathloss_intercept", None)
    else:
        intercept = defaults.pathloss_intercept
    try:
        return TierRadioParams(
            tx_power=r.get_float("tx_power_dbm", defaults.tx_power),
            antenna_gain=r.get_float("antenna_gain_dbi", defaults.antenna_gain),
            bias=r.get_float("bias_db", defaults.bias),
            pathloss_intercept=(
                intercept if intercept is not None else defaults.pathloss_intercept
            ),
            pathloss_exponent=alpha,
        )
    except (ValueError, TypeError) as exc:
        errors.append(f"[{section}] {exc}")
        return defaults


def _parse_sweep_values(text: str) -> tuple:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    return tuple(float(p) for p in parts)


def load_config(path) -> ExperimentSpec:
    """Parse and validate a config file; absent keys get the defaults.

    Raises ``ConfigError`` whose message lists *every* problem found:
    unknown sections/keys by name, malformed values with their text, and
    constraint violations per section.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        interpolation=None,
        inline_comment_prefixes=("#", ";"),
        delimiters=("=",),
        strict=True,
    )
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    errors: list = []
    sections: dict = {}
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            errors.append(
                f"unknown section [{name}]; known sections: "
                + ", ".join(sorted(_SECTION_KEYS))
            )
            continue
        sections[name] = dict(parser.items(name))
        unknown = sorted(set(sections[name]) - _SECTION_KEYS[name])
        for key in unknown:
            errors.append(
                f"unknown key [{name}] {key}; known keys: "
                + ", ".join(sorted(_SECTION_KEYS[name]))
            )

    # Region
    r = _SectionReader("region", sections.get("region", {}), errors)
    width = r.get_float("width_m", _DEFAULT_REGION_SIDE)
    height = r.get_float("height_m", _DEFAULT_REGION_SIDE)
    try:
        region = Region(0.0, width, 0.0, height)
    except ValueError as exc:
        errors.append(f"[region] {exc}")
        region = Region(0.0, _DEFAULT_REGION_SIDE, 0.0, _DEFAULT_REGION_SIDE)

    # Tiers
    tiers = {
        name: _build_tier(name, sections.get(name, {}), _TIER_DEFAULTS[name], errors)
        for name in _TIERS
    }

    # Deployment densities; macro/hotspot-center default to a tenth of the
    # (possibly overridden) small-cell density.
    r = _SectionReader("deployment", sections.get("deployment", {}), errors)
    lambda_s = r.get_float("lambda_s_per_m2", _DEFAULT_LAMBDA_S)
    lambda_m = r.get_float("lambda_m_per_m2", lambda_s / 10.0)
    lambda_p = r.get_float("lambda_p_per_m2", lambda_s / 10.0)
    sigma = r.get_float("sigma_m", _DEFAULT_SIGMA)
    mean_offspring = r.get_float("mean_offspring", _DEFAULT_MEAN_OFFSPRING)
    try:
        cluster = ClusterConfig(
            lambda_p=lambda_p, sigma=sigma, mean_offspring=mean_offspring
        )
    except ValueError as exc:
        errors.append(f"[deployment] {exc}")
        cluster = ClusterConfig(
            lambda_p=_DEFAULT_LAMBDA_S / 10.0,
            sigma=_DEFAULT_SIGMA,
            mean_offspring=_DEFAULT_MEAN_OFFSPRING,
        )

    # Mobility
    r = _SectionReader("mobility", sections.get("mobility", {}), errors)
    r.exactly_one("velocity_kmh", "velocity_mps")
    raw_mob = sections.get("mobility", {})
    if "velocity_mps" in raw_mob:
        velocity = r.get_float("velocity_mps", _DEFAULT_MOBILITY.velocity)
    elif "velocity_kmh" in raw_mob:
        kmh = r.get_float("velocity_kmh", _DEFAULT_MOBILITY.velocity * 3.6)
        velocity = kmh / 3.6 if kmh is not None else _DEFAULT_MOBILITY.velocity
    else:
        velocity = _DEFAULT_MOBILITY.velocity
    try:
        mobility = MobilityConfig(
            sigma_rwp=r.get_float("sigma_rwp_m", _DEFAULT_MOBILITY.sigma_rwp),
            p_z=r.get_float("p_z", _DEFAULT_MOBILITY.p_z),
            sigma_z=r.get_float("sigma_z_m", _DEFAULT_MOBILITY.sigma_z),
            velocity=velocity,
            pause=r.get_float("pause_s", _DEFAULT_MOBILITY.pause),
        )
    except ValueError as exc:
        errors.append(f"[mobility] {exc}")
        mobility = _DEFAULT_MOBILITY

    # Thresholds; q_out converted from dB exactly once, here.
    r = _SectionReader("thresholds", sections.get("thresholds", {}), errors)
    r.exactly_one("q_out_db", "q_out_linear")
    raw_thr = sections.get("thresholds", {})
    if "q_out_linear" in raw_thr:
        q_out = r.get_float("q_out_linear", _DEFAULT_THRESHOLDS.q_out)
    elif "q_out_db" in raw_thr:
        q_db = r.get_float("q_out_db", None)
        q_out = 10.0 ** (q_db / 10.0) if q_db is not None else _DEFAULT_THRESHOLDS.q_out
    else:
        q_out = _DEFAULT_THRESHOLDS.q_out
    try:
        thresholds = HandoverThresholds(
            t_threshold=r.get_float("t_threshold_s", _DEFAULT_THRESHOLDS.t_threshold),
            t_pingpong=r.get_float("t_pingpong_s", _DEFAULT_THRESHOLDS.t_pingpong),
            q_out=q_out,
        )
    except ValueError as exc:
        errors.append(f"[thresholds] {exc}")
        thresholds = _DEFAULT_THRESHOLDS

    # Experiment
    r = _SectionReader("experiment", sections.get("experiment", {}), errors)
    n_users = r.get_int("n_users", 10)
    n_moves = r.get_int("n_moves", 100)
    n_trials = r.get_int("n_trials", 100)
    master_seed = r.get_int("master_seed", 0)
    pair = PairKind.SPS
    raw_pair = sections.get("experiment", {}).get("pair")
    if raw_pair is not None:
        try:
            pair = PairKind(raw_pair)
        except ValueError:
            valid = ", ".join(k.value for k in PairKind)
            errors.append(f"[experiment] pair: {raw_pair!r} not one of {valid}")

    # Sweep
    sweep_axis = None
    sweep_values: tuple = ()
    raw_sweep = sections.get("sweep", {})
    if raw_sweep:
        sweep_axis = raw_sweep.get("axis")
        if sweep_axis is None:
            errors.append("[sweep] axis is required when a sweep section is given")
        elif sweep_axis not in SWEEP_AXES:
            errors.append(
                f"[sweep] axis: {sweep_axis!r} not one of {', '.join(SWEEP_AXES)}"
            )
        if "values" in raw_sweep:
            try:
                sweep_values = _parse_sweep_values(raw_sweep["values"])
            except ValueError:
                errors.append(
                    f"[sweep] values: expected numbers, got {raw_sweep['values']!r}"
                )
        else:
            errors.append("[sweep] values is required when a sweep section is given")

    output_path = sections.get("output", {}).get("path")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    try:
        base = SimConfig(
            region=region,
            **tiers,
            lambda_m=lambda_m,
            lambda_s=lambda_s,
            cluster=cluster,
            mobility=mobility,
            thresholds=thresholds,
            n_users=n_users,
            n_moves=n_moves,
            n_trials=n_trials,
            master_seed=master_seed,
        )
        return ExperimentSpec(
            base=base,
            pair=pair,
            sweep_axis=sweep_axis,
            sweep_values=sweep_values,
            output_path=output_path,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid config:\n  {exc}") from exc


def emit_config(spec: ExperimentSpec) -> str:
    """Render a spec as config text such that ``load_config`` reproduces it.

    Floats are written with ``repr`` precision and in the internal unit
    (``velocity_mps``, linear ``q_out``/``pathloss_intercept``) so the round
    trip is bit-exact.
    """
    cfg = spec.base
    lines = []

    def section(name: str, *pairs) -> None:
        lines.append(f"[{name}]")
        for key, value in pairs:
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        lines.append("")

    section(
        "region",
        ("width_m", cfg.region.x_max - cfg.region.x_min),
        ("height_m", cfg.region.y_max - cfg.region.y_min),
    )
    for name in _TIERS:
        tier = getattr(cfg, name)
        section(
            name,
            ("tx_power_dbm", tier.tx_power),
            ("antenna_gain_dbi", tier.antenna_gain),
            ("bias_db", tier.bias),
            ("pathloss_exponent", tier.pathloss_exponent),
            ("pathloss_intercept", tier.pathloss_intercept),
        )
    section(
        "deployment",
        ("lambda_s_per_m2", cfg.lambda_s),
        ("lambda_m_per_m2", cfg.lambda_m),
        ("lambda_p_per_m2", cfg.cluster.lambda_p),
        ("sigma_m", cfg.cluster.sigma),
        ("mean_offspring", cfg.cluster.mean_offspring),
    )
    section(
        "mobility",
        ("sigma_rwp_m", cfg.mobility.sigma_rwp),
        ("p_z", cfg.mobility.p_z),
        ("sigma_z_m", cfg.mobility.sigma_z),
        ("velocity_mps", cfg.mobility.velocity),
        ("pause_s", cfg.mobility.pause),
    )
    section(
        "thresholds",
        ("t_threshold_s", cfg.thresholds.t_threshold),
        ("t_pingpong_s", cfg.thresholds.t_pingpong),
        ("q_out_linear", cfg.thresholds.q_out),
    )
    section(
        "experiment",
        ("n_users", cfg.n_users),
        ("n_moves", cfg.n_moves),
        ("n_trials", cfg.n_trials),
        ("master_seed", cfg.master_seed),
        ("pair", spec.pair.value),
    )
    if spec.sweep_axis is not None:
        section(
            "sweep",
            ("axis", spec.sweep_axis),
            ("values", ", ".join(repr(v) for v in spec.sweep_values)),
        )
    if spec.output_path is not None:
        section("output", ("path", spec.output_path))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _render_csv(header: str, rows) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}", header, *rows]
    return "\n".join(lines) + "\n"


def _point_columns(cfg: SimConfig) -> str:
    return ",".join(
        f"{v:.12g}"
        for v in (
            cfg.lambda_s,
            cfg.cluster.sigma,
            cfg.mobility.velocity,
            cfg.thresholds.t_threshold,
            cfg.thresholds.t_pingpong,
        )
    )


def format_metrics_row(metrics: HandoverMetrics, cfg: SimConfig) -> str:
    """One ``METRICS_CSV_HEADER`` row: the sweep point, then the metrics."""
    values = (
        cfg.lambda_s,
        cfg.cluster.sigma,
        cfg.mobility.velocity,
        cfg.thresholds.t_threshold,
        cfg.thresholds.t_pingpong,
        metrics.triggered_rate,
        metrics.handover_rate,
        metrics.failure_rate,
        metrics.pingpong_rate,
    )
    return ",".join([metrics.pair.value, *(f"{v:.10g}" for v in values)])


def cmd_analyze(spec: ExperimentSpec) -> str:
    """Closed-form metrics of the selected pair, one CSV row per sweep point."""
    rows = [
        format_metrics_row(analytic_pair_metrics(cfg, spec.pair), cfg)
        for cfg in sweep_points(spec)
    ]
    return _render_csv(METRICS_CSV_HEADER, rows)


def cmd_simulate(spec: ExperimentSpec, workers: int = 1) -> str:
    """Campaign summaries of the selected pair, one CSV row per sweep point."""
    rows = []
    for cfg in sweep_points(spec):
        est = run_campaign(cfg, workers=workers)
        pe = est.pairs[spec.pair]
        pc = est.counts.pairs[spec.pair]
        stats = (
            f"{est.n_trials},{est.exposure_time:.12g},"
            f"{pc.triggered},{pc.handovers},{pc.failures},{pc.pingpongs},"
            f"{pe.triggered_rate:.12g},{pe.triggered_halfwidth:.12g},"
            f"{pe.handover_rate:.12g},{pe.handover_halfwidth:.12g},"
            f"{pe.failure_ratio:.12g},{pe.failure_halfwidth:.12g},"
            f"{pe.pingpong_rate:.12g},{pe.pingpong_halfwidth:.12g}"
        )
        rows.append(f"{spec.pair.value},{_point_columns(cfg)},{stats}")
    return _render_csv(SIMULATE_CSV_HEADER, rows)


def cmd_validate(spec: ExperimentSpec, workers: int = 1) -> tuple:
    """Analytic-vs-simulated comparison for every pair at every sweep point.

    Returns ``(csv_text, summary_text)``.
    """
    rows = []
    summaries = []
    points = sweep_points(spec)
    for i, cfg in enumerate(points):
        table = compare_to_analytics(cfg, workers=workers)
        cols = _point_columns(cfg)
        for row in table.rows:
            rows.append(
                f"{row.pair.value},{row.metric},{cols},"
                f"{row.analytic:.12g},{row.simulated:.12g},"
                f"{row.ci_halfwidth:.12g},{row.ratio:.12g},{row.flag}"
            )
        label = (
            f"point {i + 1}/{len(points)}"
            + (f" ({spec.sweep_axis} = {spec.sweep_values[i]:g})" if spec.sweep_axis else "")
        )
        summaries.append(f"== {label} ==\n{table.summary()}")
    return _render_csv(VALIDATE_CSV_HEADER, rows), "\n".join(summaries) + "\n"


def cmd_fixtures(workers: int = 1) -> tuple:
    """Recompute every pinned constant with its oracle.

    Returns ``(report_text, ok)``.
    """
    checks = recompute_all(workers=workers)
    return checks_to_text(checks), all(c.ok for c in checks)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common_flags(sub: argparse.ArgumentParser, *, workers: bool) -> None:
    sub.add_argument("--config", metavar="PATH", help="experiment config file")
    sub.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    sub.add_argument("--seed", type=int, metavar="U64", help="override master seed")
    sub.add_argument("--trials", type=int, metavar="N", help="override trial count")
    if workers:
        sub.add_argument(
            "--workers", type=int, default=1, metavar="N", help="parallel trial workers"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetnet-handover",
        description=(
            "Closed-form and Monte Carlo handover metrics for two-tier "
            "cellular networks with hotspot clusters."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common_flags(
        sub.add_parser("analyze", help="closed-form metrics per sweep point"),
        workers=False,
    )
    _add_common_flags(
        sub.add_parser("simulate", help="Monte Carlo campaign per sweep point"),
        workers=True,
    )
    _add_common_flags(
        sub.add_parser("validate", help="simulated vs closed-form, side by side"),
        workers=True,
    )
    fix = sub.add_parser("fixtures", help="recompute pinned constants with oracles")
    fix.add_argument("--out", metavar="PATH", help="write report here as well")
    fix.add_argument(
        "--workers", type=int, default=1, metavar="N", help="parallel trial workers"
    )
    return parser


def _load_spec(args) -> ExperimentSpec:
    spec = load_config(args.config) if args.config else default_spec()
    base = spec.base
    if args.seed is not None:
        base = dataclasses.replace(base, master_seed=args.seed)
    if args.trials is not None:
        base = dataclasses.replace(base, n_trials=args.trials)
    out = args.out if args.out is not None else spec.output_path
    return dataclasses.replace(spec, base=base, output_path=out)


def _deliver(csv_text: str, path: str | None, summary: str | None = None) -> None:
    if path is not None:
        Path(path).write_text(csv_text, encoding="utf-8")
        if summary is not None:
            sys.stdout.write(summary)
        sys.stdout.write(f"wrote {path}\n")
    else:
        sys.stdout.write(csv_text)
        if summary is not None:
            sys.stderr.write(summary)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            spec = _load_spec(args)
            _deliver(cmd_analyze(spec), spec.output_path)
        elif args.command == "simulate":
            spec = _load_spec(args)
            _deliver(cmd_simulate(spec, workers=args.workers), spec.output_path)
        elif args.command == "validate":
            spec = _load_spec(args)
            csv_text, summary = cmd_validate(spec, workers=args.workers)
            _deliver(csv_text, spec.output_path, summary)
        elif args.command == "fixtures":
            report, ok = cmd_fixtures(workers=args.workers)
            sys.stdout.write(report)
            if args.out is not None:
                Path(args.out).write_text(report, encoding="utf-8")
            if not ok:
                sys.stderr.write("fixture drift detected\n")
                return 1
        return 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report, not crash
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
