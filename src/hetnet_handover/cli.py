"""``hetnet-handover`` command line front end.

Subcommands
-----------
analyze    closed-form metrics only; one CSV row per sweep point.
simulate   Monte Carlo campaigns only; one summary row per sweep point.
validate   both, side by side, with ratio/flag columns and a text summary.

Configuration is a flat INI file.  Every key carries its unit in its name
(``sigma_m``, ``velocity_kmh``, ``tx_power_dbm``); decibel quantities are
converted to linear form exactly once, at load time.  Velocity, the outage
offset and the path loss at 1 m may each be given in a conventional unit
(``velocity_kmh``, ``q_out_db``, ``pathloss_db_at_1km``) or in the internal
one (``velocity_mps``, ``q_out_linear``, ``pathloss_intercept``), not both.
One table, ``_FIELDS``, lists every key with the field it sets and, for a
conventional unit, its conversion; the loader, the emitter, the known-key
check and the sweep axes all read it.

Defaults live in ``default_spec()``, which an empty or absent config file
yields: a 5 km x 5 km region, small-cell density 2e-5 per m^2 and hotspot
scatter 150 m are written there; the macro and hotspot-center densities (a
tenth of the small-cell density) come from ``SimConfig.with_default_ratios``,
the 5 expected hotspot members from ``ClusterConfig``, the tier radios,
mobility and handover thresholds from ``fixtures.default_*``, and the trial
counts from ``SimConfig``.  A key a file leaves out keeps its
``default_spec()`` value, except that absent macro and hotspot-center
densities follow a configured small-cell density at the default ratios.

Sweeps replace one quantity per run.  Each axis but ``lambda_s`` is read as
a config key: ``sigma`` as ``sigma_m``, ``velocity`` as ``velocity_kmh``,
``tx_power_sprime`` as ``[hotspot] tx_power_dbm``, ``T`` and ``T_p`` as
``t_threshold_s`` and ``t_pingpong_s``.  A ``lambda_s`` sweep (per m^2)
scales the macro and hotspot-center densities proportionally, preserving the
configured density ratios.

Exit status is 0 iff no error occurred.  All CSV output starts with a
``# schema_version`` comment and a header row and ends with a newline;
numbers have 10 significant digits in ``analyze`` and 12 elsewhere.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import operator
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .analytics import PairKind
from . import fixtures
from .geometry import Region
from .radio import db_to_linear
from .simengine import (
    _TIERS,
    METRICS,
    SimConfig,
    analytic_metrics,
    analytic_pair_metrics,
    run_campaign,
)

SCHEMA_VERSION = 1

#: Each sweep axis but ``lambda_s``: the `SimConfig` part it replaces and
#: the config section and key its values are read as.
_SWEPT_KEYS = {
    "sigma": ("cluster", "deployment", "sigma_m"),
    "velocity": ("mobility", "mobility", "velocity_kmh"),
    "tx_power_sprime": ("hotspot", "hotspot", "tx_power_dbm"),
    "T": ("thresholds", "thresholds", "t_threshold_s"),
    "T_p": ("thresholds", "thresholds", "t_pingpong_s"),
}

SWEEP_AXES = ("lambda_s", *_SWEPT_KEYS)

#: The sweep point's CSV columns: name and `SimConfig` attribute path.
_POINT_COLUMNS = (
    ("lambda_s", "lambda_s"),
    ("sigma", "cluster.sigma"),
    ("V_mps", "mobility.velocity"),
    ("T_s", "thresholds.t_threshold"),
    ("Tp_s", "thresholds.t_pingpong"),
)

#: The `PairCounts` fields ``simulate`` reports, one column each.
_COUNT_COLUMNS = ("triggered", "handovers", "failures", "pingpongs")

_POINT_NAMES = [name for name, _ in _POINT_COLUMNS]

METRICS_CSV_HEADER = ",".join(["pair", *_POINT_NAMES, *(name for name, _ in METRICS)])

SIMULATE_CSV_HEADER = ",".join([
    "pair", *_POINT_NAMES, "n_trials", "exposure_s", *_COUNT_COLUMNS,
    *(column for name, _ in METRICS for column in (name, f"{name}_ci")),
])

#: The numbers of a ``validate`` record, in column order: CSV name, summary
#: heading, and the summary's alignment and width and its precision.
_COMPARISON_COLUMNS = (
    ("analytic", "analytic", ">14", ".6g"),
    ("simulated", "simulated", ">14", ".6g"),
    ("ci_halfwidth", "+/-95%", ">12", ".3g"),
    ("ratio", "sim/ana", ">9", ".4g"),
)

VALIDATE_CSV_HEADER = ",".join([
    "pair", "metric", *_POINT_NAMES, *(name for name, *_ in _COMPARISON_COLUMNS), "flag",
])


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
    """``cfg`` with one swept quantity replaced (see module docstring for
    units); a value the axis's config key refuses raises ``ValueError``."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if axis == "lambda_s":
        scale = value / cfg.lambda_s
        cluster = dataclasses.replace(cfg.cluster, lambda_p=cfg.cluster.lambda_p * scale)
        return dataclasses.replace(
            cfg, lambda_s=value, lambda_m=cfg.lambda_m * scale, cluster=cluster
        )
    part, section, key = _SWEPT_KEYS[axis]
    errors: list = []
    changes = _SectionReader(section, {key: repr(float(value))}, errors).fields(
        *_parts(ExperimentSpec(base=cfg))[section]
    )
    if errors:
        raise ValueError("; ".join(errors))
    return dataclasses.replace(cfg, **{part: dataclasses.replace(getattr(cfg, part), **changes)})


def _at_points(spec: ExperimentSpec, run) -> list:
    """``run(cfg)`` at every point of the experiment, in order (just the base
    if no sweep).  Every point's config is built before any point runs; a
    refusal at a sweep point, from either stage, keeps its type and names
    the sweep axis and value."""
    if spec.sweep_axis is None:
        return [run(spec.base)]
    points, results = [], []
    try:
        for value in spec.sweep_values:
            points.append(apply_sweep(spec.base, spec.sweep_axis, value))
        for value, cfg in zip(spec.sweep_values, points):
            results.append(run(cfg))
    except ValueError as exc:
        raise type(exc)(f"[sweep] {spec.sweep_axis} = {value!r}: {exc}") from exc
    return results


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

#: Every key of each section, in the order it is parsed and written:
#: ``(key, field)``, the field of the section's objects (see ``_parts``) that
#: it sets, in the internal unit; or ``(key, field, convert)`` for a
#: conventional unit, whose ``convert`` gets the value and a lookup of the
#: section's other fields.
_FIELDS = {
    "region": (("width_m", "x_max"), ("height_m", "y_max")),
    **dict.fromkeys(
        _TIERS,
        (
            ("tx_power_dbm", "tx_power"),
            ("antenna_gain_dbi", "antenna_gain"),
            ("bias_db", "bias"),
            ("pathloss_exponent", "pathloss_exponent"),
            ("pathloss_db_at_1km", "pathloss_intercept",
             lambda pl_1km, field: db_to_linear(30.0 * field("pathloss_exponent") - pl_1km)),
            ("pathloss_intercept", "pathloss_intercept"),
        ),
    ),
    "deployment": (
        ("lambda_s_per_m2", "lambda_s"),
        ("lambda_m_per_m2", "lambda_m"),
        ("lambda_p_per_m2", "lambda_p"),
        ("sigma_m", "sigma"),
        ("mean_offspring", "mean_offspring"),
    ),
    "mobility": (
        ("sigma_rwp_m", "sigma_rwp"),
        ("p_z", "p_z"),
        ("sigma_z_m", "sigma_z"),
        ("velocity_kmh", "velocity", lambda kmh, field: kmh / 3.6),
        ("velocity_mps", "velocity"),
        ("pause_s", "pause"),
    ),
    "thresholds": (
        ("t_threshold_s", "t_threshold"),
        ("t_pingpong_s", "t_pingpong"),
        ("q_out_db", "q_out", lambda q_db, field: db_to_linear(q_db)),
        ("q_out_linear", "q_out"),
    ),
    "experiment": (
        ("n_users", "n_users"),
        ("n_moves", "n_moves"),
        ("n_trials", "n_trials"),
        ("master_seed", "master_seed"),
        ("pair", "pair"),
    ),
    "sweep": (("axis", "sweep_axis"), ("values", "sweep_values")),
    "output": (("path", "output_path"),),
}

_SECTION_KEYS = {
    section: frozenset(key for key, *_ in rows) for section, rows in _FIELDS.items()
}


def _sweep_axis(text: str) -> str:
    if text not in SWEEP_AXES:
        raise ValueError(text)
    return text


class _NotFinite(ValueError):
    """A number that parses but is nan or infinite."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _NotFinite(text)
    return value


def _parse_sweep_values(text: str) -> tuple:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    return tuple(_finite(p) for p in parts)


#: Parser and error message of a numeric key: an integer where the field is
#: declared ``int``, a float otherwise.
_INTEGER = (int, "expected an integer, got {!r}")
_NUMBER = (_finite, "expected a number, got {!r}")

#: Parser and error message of each non-numeric field.
_PARSERS = {
    "pair": (PairKind, "{!r} not one of " + ", ".join(k.value for k in PairKind)),
    "sweep_axis": (_sweep_axis, "{!r} not one of " + ", ".join(SWEEP_AXES)),
    "sweep_values": (_parse_sweep_values, "expected numbers, got {!r}"),
    "output_path": (str, ""),
}


def _parts(spec: ExperimentSpec) -> dict:
    """The objects that hold each section's fields in ``spec``."""
    cfg = spec.base
    return {
        # A file gives the region's size; the region is loaded at the origin.
        "region": (Region(0.0, cfg.region.width, 0.0, cfg.region.height),),
        **{name: (getattr(cfg, name),) for name in (*_TIERS, "mobility", "thresholds")},
        "deployment": (cfg, cfg.cluster),
        "experiment": (cfg, spec),
        "sweep": (spec,),
        "output": (spec,),
    }


def _attr(objs, field: str):
    """``field`` of the first of ``objs`` that has it."""
    return next(getattr(obj, field) for obj in objs if hasattr(obj, field))


def _declared_int(objs, field: str) -> bool:
    """Whether ``field`` is declared ``int`` in the first of ``objs`` that has
    it; its value may be any number the dataclass accepts."""
    obj = next(obj for obj in objs if hasattr(obj, field))
    return next(f.type for f in dataclasses.fields(obj) if f.name == field) in (int, "int")


def _default_config(lambda_s: float = 2e-5) -> SimConfig:
    """The default configuration at small-cell density ``lambda_s``."""
    return SimConfig.with_default_ratios(
        region=Region(0.0, 5000.0, 0.0, 5000.0),
        macro=fixtures.default_macro_params(),
        small=fixtures.default_small_params(),
        hotspot=fixtures.default_hotspot_params(),
        lambda_s=lambda_s,
        sigma=150.0,
        mobility=fixtures.default_mobility(),
        thresholds=fixtures.default_thresholds(),
    )


def default_spec() -> ExperimentSpec:
    """The full-default experiment (see module docstring)."""
    return ExperimentSpec(base=_default_config())


class _SectionReader:
    """One config section's keys, parsed and checked with every error collected."""

    def __init__(self, section: str, raw: dict, errors: list) -> None:
        self.section = section
        self.raw = raw
        self.errors = errors

    def fields(self, *objs, required: bool = False) -> dict:
        """``field -> value`` of the keys this section gives, in internal units.

        A number parses as its field's declared type in ``objs``; a key with
        a conversion is then converted, and a malformed key sets nothing.  Keys that set the same field are mutually exclusive; given
        together, the section is refused and each is still parsed, so that
        every malformed value is listed.  A ``required`` section that is given
        at all must give every key.
        """
        values = {}

        def field_value(field: str):
            return values[field] if field in values else _attr(objs, field)

        given: dict = {}
        for key, field, *_ in _FIELDS[self.section]:
            if key in self.raw:
                given.setdefault(field, []).append(key)
        for keys in given.values():
            if len(keys) > 1:
                self.errors.append(f"[{self.section}] keys {keys} are mutually exclusive; give one")
        for key, field, *convert in _FIELDS[self.section]:
            if key in self.raw:
                text = self.raw[key]
                parse, expected = _PARSERS.get(field) or (
                    _INTEGER if _declared_int(objs, field) else _NUMBER
                )
                try:
                    value = parse(text)
                    values[field] = convert[0](value, field_value) if convert else value
                except (ValueError, OverflowError) as exc:
                    if isinstance(exc, OverflowError):
                        expected = "{!r} overflows in linear units"
                    elif isinstance(exc, _NotFinite):
                        expected = "must be finite, got {!r}"
                    self.errors.append(f"[{self.section}] {key}: " + expected.format(text))
            elif required and self.raw:
                self.errors.append(
                    f"[{self.section}] {key} is required when a {self.section} "
                    "section is given"
                )
        return values

    def build(self, obj, changes: dict):
        """``obj`` with ``changes``, checked by its own constructor; on
        refusal the error is collected and ``obj`` returned."""
        try:
            return dataclasses.replace(obj, **changes)
        except ValueError as exc:
            self.errors.append(f"[{self.section}] {exc}")
            return obj


def load_config(path) -> ExperimentSpec:
    """Parse and validate a config file; absent keys keep ``default_spec()``.

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

    default = default_spec()
    cfg = default.base
    parts = _parts(default)
    readers = {
        name: _SectionReader(name, sections.get(name, {}), errors) for name in _FIELDS
    }

    def read(name: str):
        return readers[name].build(parts[name][0], readers[name].fields(*parts[name]))

    base = {name: read(name) for name in ("region", *_TIERS)}
    # Macro and hotspot-center densities not given follow the (possibly
    # overridden) small-cell density at the default ratios.
    given = readers["deployment"].fields(*parts["deployment"])
    base["lambda_s"] = given.pop("lambda_s", cfg.lambda_s)
    try:
        ratios = _default_config(base["lambda_s"])
    except ValueError:  # lambda_s <= 0: SimConfig refuses it below
        ratios = cfg
    base["lambda_m"] = given.pop("lambda_m", ratios.lambda_m)
    base["cluster"] = readers["deployment"].build(ratios.cluster, given)
    base.update((name, read(name)) for name in ("mobility", "thresholds"))
    base.update(readers["experiment"].fields(*parts["experiment"]))
    spec = {
        "pair": base.pop("pair", default.pair),
        **readers["sweep"].fields(*parts["sweep"], required=True),
        **readers["output"].fields(*parts["output"]),
    }

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    try:
        return dataclasses.replace(default, base=dataclasses.replace(cfg, **base), **spec)
    except ValueError as exc:
        raise ConfigError(f"invalid config:\n  {exc}") from exc


def _text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_text(v) for v in value)
    if isinstance(value, PairKind):
        return value.value
    return repr(float(value)) if isinstance(value, float) else str(value)


def emit_config(spec: ExperimentSpec) -> str:
    """Render a spec as config text such that ``load_config`` reproduces it.

    Floats are written with ``repr`` precision and in the internal unit (the
    rows of ``_FIELDS`` without a conversion) so the round trip is bit-exact.
    The sweep and output sections appear when set.
    """
    lines = []
    parts = _parts(spec)
    for section, rows in _FIELDS.items():
        values = [(key, _attr(parts[section], field)) for key, field, *conv in rows if not conv]
        # Unset is None or (), tested without ``==``, which a NumPy scalar broadcasts.
        values = [(k, v) for k, v in values if v is not None and (type(v) is not tuple or v)]
        if values:
            lines += [f"[{section}]", *(f"{k} = {_text(v)}" for k, v in values), ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _render_csv(header: str, rows) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}", header, *rows]
    return "\n".join(lines) + "\n"


def _numbers(values, spec: str) -> list:
    """Each of ``values`` formatted with the format spec ``spec``."""
    return [format(v, spec) for v in values]


def _point(cfg: SimConfig) -> list:
    """The sweep point's column values, in `_POINT_COLUMNS` order."""
    return [operator.attrgetter(path)(cfg) for _, path in _POINT_COLUMNS]


def cmd_analyze(spec: ExperimentSpec) -> str:
    """Closed-form metrics of the selected pair, one CSV row per sweep point."""

    def row(cfg: SimConfig) -> str:
        metrics = analytic_pair_metrics(cfg, spec.pair)
        values = _point(cfg) + [getattr(metrics, name) for _, name in METRICS]
        return ",".join([spec.pair.value, *_numbers(values, ".10g")])

    return _render_csv(METRICS_CSV_HEADER, _at_points(spec, row))


def cmd_simulate(spec: ExperimentSpec, workers: int = 1) -> str:
    """Campaign summaries of the selected pair, one CSV row per sweep point;
    the campaigns count that pair alone."""

    def row(cfg: SimConfig) -> str:
        est = run_campaign(cfg, workers=workers, kinds=(spec.pair,))
        pe = est.pairs[spec.pair]
        pc = est.counts.pairs[spec.pair]
        rates = [
            v for (_, name), hw in zip(METRICS, pe.halfwidths) for v in (getattr(pe.rates, name), hw)
        ]
        return ",".join([
            spec.pair.value,
            *_numbers(_point(cfg), ".12g"),
            str(est.n_trials),
            *_numbers([est.counts.exposure_time], ".12g"),
            *(str(getattr(pc, name)) for name in _COUNT_COLUMNS),
            *_numbers(rates, ".12g"),
        ])

    return _render_csv(SIMULATE_CSV_HEADER, _at_points(spec, row))


def _summary_line(pair: str, metric: str, cells, flag: str) -> str:
    return " ".join([f"{pair:<5} {metric:<6}", *cells, flag])


_SUMMARY_HEADING = _summary_line(
    "pair", "metric", (format(head, width) for _, head, width, _ in _COMPARISON_COLUMNS), "flag"
)


def cmd_validate(spec: ExperimentSpec, workers: int = 1) -> tuple:
    """Analytic-vs-simulated comparison for every pair at every sweep point.

    Every point's closed forms run before any campaign, so a refused point
    costs no simulation.  Each (point, pair, metric) is one record, written
    as a CSV row and as a summary line; its ``ratio`` is simulated/analytic
    (NaN where the closed form is not positive) and its ``flag`` is empty, as
    no agreement criterion is defined yet.  Returns ``(csv_text,
    summary_text)``.
    """
    analytic = iter(_at_points(spec, analytic_metrics))

    def records(cfg: SimConfig) -> tuple:
        closed, estimate = next(analytic), run_campaign(cfg, workers=workers)
        out = []
        for kind, sim in estimate.pairs.items():
            for (metric, name), halfwidth in zip(METRICS, sim.halfwidths):
                a, s = getattr(closed[kind], name), getattr(sim.rates, name)
                ratio = s / a if a > 0 else math.nan
                out.append((kind.value, metric, (a, s, halfwidth, ratio), ""))
        return _point(cfg), out

    points = _at_points(spec, records)
    rows, blocks = [], []
    for i, (point, point_records) in enumerate(points):
        label = (
            f"point {i + 1}/{len(points)}"
            + (f" ({spec.sweep_axis} = {spec.sweep_values[i]:g})" if spec.sweep_axis else "")
        )
        lines = [f"== {label} ==", _SUMMARY_HEADING, "-" * len(_SUMMARY_HEADING)]
        for pair, metric, numbers, flag in point_records:
            rows.append(",".join([pair, metric, *_numbers([*point, *numbers], ".12g"), flag]))
            cells = (
                format(v, width + digits)
                for v, (*_, width, digits) in zip(numbers, _COMPARISON_COLUMNS)
            )
            lines.append(_summary_line(pair, metric, cells, flag))
        blocks.append("\n".join(lines) + "\n")
    return _render_csv(VALIDATE_CSV_HEADER, rows), "\n".join(blocks) + "\n"


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
        spec = _load_spec(args)
        if args.command == "analyze":
            _deliver(cmd_analyze(spec), spec.output_path)
        elif args.command == "simulate":
            _deliver(cmd_simulate(spec, workers=args.workers), spec.output_path)
        else:
            csv_text, summary = cmd_validate(spec, workers=args.workers)
            _deliver(csv_text, spec.output_path, summary)
        return 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report, not crash
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
