"""Tests for config parsing, sweeps, and the command-line entry point."""

import contextlib
import dataclasses
import hashlib
import math
import os
import re
import signal
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hetnet_handover
from hetnet_handover import cli, simengine
from hetnet_handover.analytics import PairKind
from hetnet_handover.cli import (
    METRICS_CSV_HEADER,
    SIMULATE_CSV_HEADER,
    SWEEP_AXES,
    VALIDATE_CSV_HEADER,
    ConfigError,
    ExperimentSpec,
    apply_sweep,
    cmd_analyze,
    cmd_simulate,
    cmd_validate,
    default_spec,
    emit_config,
    load_config,
    main,
)
from hetnet_handover.fixtures import (
    default_hotspot_params,
    default_macro_params,
    default_mobility,
    default_small_params,
    default_thresholds,
)
from hetnet_handover.geometry import ClusterConfig, Region
from hetnet_handover.radio import DegenerateBoundaryError
from hetnet_handover.simengine import SimConfig, analytic_pair_metrics
from oracles import fresh_python, reference_config


DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


def write(tmp_path, text: str):
    p = tmp_path / "experiment.ini"
    p.write_text(text, encoding="utf-8")
    return p


SMALL_INI = """
[region]
width_m = 2000
height_m = 2000

[experiment]
n_users = 2
n_moves = 10
n_trials = 2
"""


# ---------------------------------------------------------------------------
# ExperimentSpec validation
# ---------------------------------------------------------------------------

def test_spec_validates_sweep_combinations():
    base = default_spec().base
    with pytest.raises(ValueError, match="not in"):
        ExperimentSpec(base=base, sweep_axis="bogus", sweep_values=(1.0,))
    with pytest.raises(ValueError, match="no sweep values"):
        ExperimentSpec(base=base, sweep_axis="sigma")
    with pytest.raises(ValueError, match="no sweep axis"):
        ExperimentSpec(base=base, sweep_values=(1.0, 2.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentSpec(base=base, sweep_axis="sigma", sweep_values=(100.0, 50.0))
    with pytest.raises(ValueError, match="finite"):
        ExperimentSpec(base=base, sweep_axis="sigma", sweep_values=(1.0, math.inf))
    with pytest.raises(ValueError, match="pair"):
        ExperimentSpec(base=base, pair="SpS")


def test_apply_sweep_each_axis():
    cfg = default_spec().base
    ratio_m = cfg.lambda_m / cfg.lambda_s
    ratio_p = cfg.cluster.lambda_p / cfg.lambda_s

    swept = apply_sweep(cfg, "lambda_s", 8e-5)
    assert swept.lambda_s == 8e-5
    assert swept.lambda_m / swept.lambda_s == pytest.approx(ratio_m)
    assert swept.cluster.lambda_p / swept.lambda_s == pytest.approx(ratio_p)

    assert apply_sweep(cfg, "sigma", 250.0).cluster.sigma == 250.0
    assert apply_sweep(cfg, "velocity", 90.0).mobility.velocity == 90.0 / 3.6

    hot = apply_sweep(cfg, "tx_power_sprime", 30.0)
    assert hot.hotspot.tx_power == 30.0
    assert hot.hotspot.linear_prefactor != cfg.hotspot.linear_prefactor

    assert apply_sweep(cfg, "T", 2.0).thresholds.t_threshold == 2.0
    assert apply_sweep(cfg, "T_p", 20.0).thresholds.t_pingpong == 20.0

    with pytest.raises(ValueError, match="axis"):
        apply_sweep(cfg, "nope", 1.0)


@pytest.mark.parametrize(
    "axis, section, key, value",
    [
        ("sigma", "deployment", "sigma_m", 87.5),
        ("velocity", "mobility", "velocity_kmh", 47.3),
        ("tx_power_sprime", "hotspot", "tx_power_dbm", 27.1),
        ("T", "thresholds", "t_threshold_s", 2.3),
        ("T_p", "thresholds", "t_pingpong_s", 6.7),
        # The demos sweep ints; a NumPy scalar is what an array of values yields.
        ("sigma", "deployment", "sigma_m", 72),
        ("velocity", "mobility", "velocity_kmh", np.float64(72.0)),
    ],
)
def test_sweep_point_equals_config_that_sets_the_key(tmp_path, axis, section, key, value):
    # A sweep axis and its config key convert the same value to the same bits.
    base = load_config(write(tmp_path, SMALL_INI)).base
    direct = load_config(write(tmp_path, SMALL_INI + f"\n[{section}]\n{key} = {float(value)!r}\n"))
    assert apply_sweep(base, axis, value) == direct.base


@pytest.mark.parametrize("axis", [a for a in SWEEP_AXES if a != "lambda_s"])
def test_apply_sweep_refuses_what_the_config_key_refuses(axis):
    # A keyed axis is read as its config key, so a value the key refuses is
    # refused with the key's message instead of leaving the base value.
    with pytest.raises(ValueError, match=r"^\[\w+\] \w+: must be finite, got 'nan'$"):
        apply_sweep(default_spec().base, axis, math.nan)


def test_sweep_points_visit_every_value():
    spec = default_spec()
    assert cli._at_points(spec, lambda c: c) == [spec.base]
    swept = dataclasses.replace(
        spec, sweep_axis="sigma", sweep_values=(50.0, 100.0, 150.0)
    )
    points = cli._at_points(swept, lambda c: c)
    assert [c.cluster.sigma for c in points] == [50.0, 100.0, 150.0]
    assert all(c.lambda_s == spec.base.lambda_s for c in points)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def test_empty_file_equals_defaults(tmp_path):
    p = write(tmp_path, "")
    assert load_config(p) == default_spec()


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config("/no/such/file.ini")
    # A file that is there but is not INI (a key before any section header).
    with pytest.raises(ConfigError, match="^parse error: "):
        load_config(write(tmp_path, "sigma_m = 150\n[deployment]\n"))


def _numpy_scalar_spec() -> ExperimentSpec:
    base = default_spec().base
    return ExperimentSpec(base=dataclasses.replace(
        base,
        lambda_s=np.float64(3e-5),
        cluster=dataclasses.replace(base.cluster, sigma=np.float64(212.5)),
        mobility=dataclasses.replace(base.mobility, velocity=np.float64(12.5)),
        n_users=np.int64(3),
    ))


def test_round_trip_default(tmp_path):
    for spec in (default_spec(), _numpy_scalar_spec()):
        p = write(tmp_path, emit_config(spec))
        assert load_config(p) == spec


def test_apply_sweep_reads_fields_of_any_number_type():
    # A swept key parses as its field's declared type, not its value's.
    base = _numpy_scalar_spec().base
    assert apply_sweep(base, "sigma", 80.0).cluster.sigma == 80.0
    assert apply_sweep(base, "velocity", 90.0).mobility.velocity == 90.0 / 3.6
    base = dataclasses.replace(base, cluster=dataclasses.replace(base.cluster, sigma=150))
    assert apply_sweep(base, "sigma", 80).cluster.sigma == 80.0


def test_round_trip_custom_everything(tmp_path):
    base = default_spec().base
    base = dataclasses.replace(
        base,
        region=Region(0.0, 3333.0, 0.0, 1234.5),
        lambda_s=7.77e-5,
        lambda_m=3.3e-6,
        cluster=dataclasses.replace(
            base.cluster, lambda_p=4.4e-6, sigma=212.3, mean_offspring=2.5
        ),
        hotspot=dataclasses.replace(base.hotspot, tx_power=27.5, bias=1.25),
        mobility=dataclasses.replace(
            base.mobility, velocity=17.321, p_z=0.45, sigma_z=123.4
        ),
        thresholds=dataclasses.replace(
            base.thresholds, t_threshold=1.5, q_out=0.123456789
        ),
        n_users=3,
        n_moves=42,
        n_trials=9,
        master_seed=123456789,
    )
    spec = ExperimentSpec(
        base=base,
        pair=PairKind.SM,
        sweep_axis="T",
        sweep_values=(0.5, 1.0, 2.0, 4.0),
        output_path="results.csv",
    )
    p = write(tmp_path, emit_config(spec))
    assert load_config(p) == spec


@settings(max_examples=25, deadline=None)
@given(
    lambda_s=st.floats(1e-6, 1e-4, allow_subnormal=False),
    sigma=st.floats(10.0, 500.0),
    velocity=st.floats(0.5, 60.0),
    t_threshold=st.floats(0.1, 10.0),
    q_out=st.floats(0.05, 0.95),
    master_seed=st.integers(0, 2**63),
    sweep_start=st.floats(0.5, 50.0),
    sweep_step=st.floats(0.1, 10.0),
    axis=st.sampled_from((None,) + tuple(a for a in SWEEP_AXES if a != "lambda_s")),
)
def test_round_trip_property(
    lambda_s, sigma, velocity, t_threshold, q_out, master_seed,
    sweep_start, sweep_step, axis,
):
    spec = default_spec()
    base = dataclasses.replace(
        spec.base,
        lambda_s=lambda_s,
        lambda_m=lambda_s / 10.0,
        cluster=dataclasses.replace(
            spec.base.cluster, lambda_p=lambda_s / 10.0, sigma=sigma
        ),
        mobility=dataclasses.replace(spec.base.mobility, velocity=velocity),
        thresholds=dataclasses.replace(
            spec.base.thresholds, t_threshold=t_threshold, q_out=q_out
        ),
        master_seed=master_seed,
    )
    values = () if axis is None else (sweep_start, sweep_start + sweep_step)
    spec = ExperimentSpec(base=base, sweep_axis=axis, sweep_values=values)
    path = os.path.join(tempfile.gettempdir(), f"hetnet-roundtrip-{os.getpid()}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_config(spec))
    assert load_config(path) == spec


def test_errors_are_listed_exhaustively(tmp_path):
    p = write(
        tmp_path,
        """
[nonsense]
a = 2

[deployment]
bogus = 1
lambda_s_per_m2 = abc

[mobility]
velocity_kmh = 30
velocity_mps = 10
""",
    )
    with pytest.raises(ConfigError) as err:
        load_config(p)
    msg = str(err.value)
    assert "unknown section [nonsense]" in msg
    assert "unknown key [deployment] bogus" in msg
    assert "expected a number, got 'abc'" in msg
    assert "mutually exclusive" in msg


def test_q_out_mutual_exclusion(tmp_path):
    p = write(tmp_path, "[thresholds]\nq_out_db = -3\nq_out_linear = 0.5\n")
    with pytest.raises(ConfigError, match="mutually exclusive"):
        load_config(p)


def test_db_keys_convert_once(tmp_path):
    p = write(
        tmp_path,
        """
[thresholds]
q_out_db = -3

[mobility]
velocity_kmh = 72

[macro]
pathloss_exponent = 4.0
pathloss_db_at_1km = 130.0
""",
    )
    spec = load_config(p)
    assert spec.base.thresholds.q_out == pytest.approx(10.0 ** (-0.3))
    assert spec.base.mobility.velocity == pytest.approx(20.0)
    # 10^((30*alpha - PL)/10) at alpha=4, PL=130 dB.
    assert spec.base.macro.pathloss_intercept == pytest.approx(10.0 ** (-1.0))


def test_sweep_section_parsing(tmp_path):
    p = write(tmp_path, "[sweep]\naxis = sigma\nvalues = 50, 100 150\n")
    spec = load_config(p)
    assert spec.sweep_axis == "sigma"
    assert spec.sweep_values == (50.0, 100.0, 150.0)

    p2 = write(tmp_path, "[sweep]\naxis = sigma\nvalues = 150, 50\n")
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_config(p2)

    p3 = write(tmp_path, "[sweep]\naxis = bogus\nvalues = 1, 2\n")
    with pytest.raises(ConfigError, match="axis"):
        load_config(p3)

    p4 = write(tmp_path, "[sweep]\nvalues = 1, 2\n")
    with pytest.raises(ConfigError, match="axis is required"):
        load_config(p4)


def test_pair_selection(tmp_path):
    p = write(tmp_path, "[experiment]\npair = SM\n")
    assert load_config(p).pair is PairKind.SM
    p2 = write(tmp_path, "[experiment]\npair = XX\n")
    with pytest.raises(ConfigError, match="pair"):
        load_config(p2)


def test_comments_and_inline_comments_ignored(tmp_path):
    p = write(
        tmp_path,
        "# full-line comment\n[deployment]\nsigma_m = 200  # meters\n",
    )
    assert load_config(p).base.cluster.sigma == 200.0


# ---------------------------------------------------------------------------
# Schema oracles: defaults, key sets, error text and emitted bytes, each
# recorded from the loader and emitter as they stood before the schema table
# ---------------------------------------------------------------------------

# The hand-built default configuration; the macro and hotspot-center
# densities are a tenth of the small-cell density, divided as the loader does.
HAND_DEFAULT = SimConfig(
    region=Region(0.0, 5000.0, 0.0, 5000.0),
    macro=default_macro_params(),
    small=default_small_params(),
    hotspot=default_hotspot_params(),
    lambda_m=2e-5 / 10.0,
    lambda_s=2e-5,
    cluster=ClusterConfig(lambda_p=2e-5 / 10.0, sigma=150.0, mean_offspring=5.0),
    mobility=default_mobility(),
    thresholds=default_thresholds(),
    n_users=10,
    n_moves=100,
    n_trials=100,
    master_seed=0,
)

TIER_KEYS = frozenset(
    {
        "tx_power_dbm",
        "antenna_gain_dbi",
        "bias_db",
        "pathloss_exponent",
        "pathloss_db_at_1km",
        "pathloss_intercept",
    }
)

SECTION_KEYS = {
    "region": frozenset({"width_m", "height_m"}),
    "macro": TIER_KEYS,
    "small": TIER_KEYS,
    "hotspot": TIER_KEYS,
    "deployment": frozenset(
        {"lambda_s_per_m2", "lambda_m_per_m2", "lambda_p_per_m2", "sigma_m", "mean_offspring"}
    ),
    "mobility": frozenset(
        {"sigma_rwp_m", "p_z", "sigma_z_m", "velocity_kmh", "velocity_mps", "pause_s"}
    ),
    "thresholds": frozenset({"t_threshold_s", "t_pingpong_s", "q_out_db", "q_out_linear"}),
    "experiment": frozenset({"n_users", "n_moves", "n_trials", "master_seed", "pair"}),
    "sweep": frozenset({"axis", "values"}),
    "output": frozenset({"path"}),
}

#: name -> (config text, full ConfigError message).
ERROR_TEXT = {
    'velocity_pair_mps_bad': (
        '[mobility]\nvelocity_kmh = 30\nvelocity_mps = slow\n',
        "invalid config:\n  [mobility] keys ['velocity_kmh', 'velocity_mps'] are mutually exclusive; give one\n  [mobility] velocity_mps: expected a number, got 'slow'",
    ),
    'q_out_pair_linear_bad': (
        '[thresholds]\nq_out_db = -3\nq_out_linear = half\n',
        "invalid config:\n  [thresholds] keys ['q_out_db', 'q_out_linear'] are mutually exclusive; give one\n  [thresholds] q_out_linear: expected a number, got 'half'",
    ),
    'pathloss_pair_db_bad': (
        '[macro]\npathloss_db_at_1km = loud\npathloss_intercept = 1e-13\n',
        "invalid config:\n  [macro] keys ['pathloss_db_at_1km', 'pathloss_intercept'] are mutually exclusive; give one\n  [macro] pathloss_db_at_1km: expected a number, got 'loud'",
    ),
    'pathloss_pair_bad_exponent': (
        '[macro]\npathloss_exponent = steep\npathloss_db_at_1km = loud\npathloss_intercept = 1e-13\n',
        "invalid config:\n  [macro] keys ['pathloss_db_at_1km', 'pathloss_intercept'] are mutually exclusive; give one\n  [macro] pathloss_exponent: expected a number, got 'steep'\n  [macro] pathloss_db_at_1km: expected a number, got 'loud'",
    ),
    'exponent_bad': (
        '[small]\npathloss_exponent = steep\n',
        "invalid config:\n  [small] pathloss_exponent: expected a number, got 'steep'",
    ),
    'exponent_bad_with_db': (
        '[small]\npathloss_exponent = steep\npathloss_db_at_1km = 140.7\n',
        "invalid config:\n  [small] pathloss_exponent: expected a number, got 'steep'",
    ),
    'region_refusal': (
        '[region]\nwidth_m = -100\n',
        'invalid config:\n  [region] degenerate region: x [0.0, -100.0], y [0.0, 5000.0]',
    ),
    'region_malformed': (
        '[region]\nwidth_m = wide\nheight_m = 0\n',
        "invalid config:\n  [region] width_m: expected a number, got 'wide'\n  [region] degenerate region: x [0.0, 5000.0], y [0.0, 0.0]",
    ),
    'tier_refusal': (
        '[hotspot]\npathloss_exponent = 1.5\n',
        'invalid config:\n  [hotspot] pathloss_exponent must exceed 2, got 1.5',
    ),
    'tier_refusal_intercept': (
        '[small]\npathloss_intercept = -1\n',
        'invalid config:\n  [small] pathloss_intercept must be positive, got -1.0',
    ),
    'deployment_refusal': (
        '[deployment]\nsigma_m = -5\n',
        'invalid config:\n  [deployment] sigma must be positive, got -5.0',
    ),
    'deployment_offspring_refusal': (
        '[deployment]\nmean_offspring = 0\nlambda_p_per_m2 = 1e-6\n',
        'invalid config:\n  [deployment] mean_offspring must be positive, got 0.0',
    ),
    'deployment_lambda_s_negative_all_given': (
        '[deployment]\nlambda_s_per_m2 = -1e-5\nlambda_p_per_m2 = 1e-6\nlambda_m_per_m2 = 1e-6\n',
        'invalid config:\n  lambda_s must be positive, got -1e-05',
    ),
    'deployment_lambda_m_negative': (
        '[deployment]\nlambda_m_per_m2 = -1e-6\n',
        'invalid config:\n  lambda_m must be positive, got -1e-06',
    ),
    'deployment_malformed': (
        '[deployment]\nlambda_s_per_m2 = abc\nsigma_m = wide\n',
        "invalid config:\n  [deployment] lambda_s_per_m2: expected a number, got 'abc'\n  [deployment] sigma_m: expected a number, got 'wide'",
    ),
    'mobility_refusal': (
        '[mobility]\np_z = 1.5\n',
        'invalid config:\n  [mobility] p_z must lie in [0, 1], got 1.5',
    ),
    'mobility_velocity_refusal': (
        '[mobility]\nvelocity_kmh = -5\n',
        'invalid config:\n  [mobility] velocity must be positive, got -1.3888888888888888',
    ),
    'thresholds_refusal': (
        '[thresholds]\nq_out_linear = 1.5\n',
        'invalid config:\n  [thresholds] q_out must be a linear ratio in (0, 1), got 1.5',
    ),
    'thresholds_db_refusal': (
        '[thresholds]\nq_out_db = 3\nt_pingpong_s = 0\n',
        'invalid config:\n  [thresholds] t_pingpong must be positive, got 0.0',
    ),
    'experiment_counts_refusal': (
        '[experiment]\nn_trials = 0\n',
        'invalid config:\n  n_trials must be >= 1, got 0',
    ),
    'experiment_seed_refusal': (
        '[experiment]\nmaster_seed = -1\n',
        'invalid config:\n  master_seed must fit in an unsigned 64-bit integer',
    ),
    'experiment_int_malformed': (
        '[experiment]\nn_users = 2.5\nn_moves = many\n',
        "invalid config:\n  [experiment] n_users: expected an integer, got '2.5'\n  [experiment] n_moves: expected an integer, got 'many'",
    ),
    'pair_refusal': (
        '[experiment]\npair = XY\n',
        "invalid config:\n  [experiment] pair: 'XY' not one of SM, SpS, SpM",
    ),
    'sweep_refusal': (
        '[sweep]\naxis = sigma\nvalues = 150, 50\n',
        'invalid config:\n  sweep values must be strictly increasing: (150.0, 50.0)',
    ),
    'sweep_bad_axis_no_values': (
        '[sweep]\naxis = speed\n',
        "invalid config:\n  [sweep] axis: 'speed' not one of lambda_s, sigma, velocity, tx_power_sprime, T, T_p\n  [sweep] values is required when a sweep section is given",
    ),
    'sweep_no_axis_bad_values': (
        '[sweep]\nvalues = 1, x\n',
        "invalid config:\n  [sweep] axis is required when a sweep section is given\n  [sweep] values: expected numbers, got '1, x'",
    ),
    'everything_wrong': (
        '[nonsense]\na = 1\n[region]\nheight_m = tall\nbogus = 2\n[macro]\ntx_power_dbm = hot\npathloss_exponent = 2\n[deployment]\nlambda_s_per_m2 = abc\nmean_offspring = -1\n[mobility]\nvelocity_kmh = 30\nvelocity_mps = 10\npause_s = -1\n[thresholds]\nt_threshold_s = soon\n[experiment]\nn_users = x\npair = QQ\n[sweep]\naxis = nope\nvalues = 1, b\n',
        "invalid config:\n  unknown section [nonsense]; known sections: deployment, experiment, hotspot, macro, mobility, output, region, small, sweep, thresholds\n  unknown key [region] bogus; known keys: height_m, width_m\n  [region] height_m: expected a number, got 'tall'\n  [macro] tx_power_dbm: expected a number, got 'hot'\n  [macro] pathloss_exponent must exceed 2, got 2.0\n  [deployment] lambda_s_per_m2: expected a number, got 'abc'\n  [deployment] mean_offspring must be positive, got -1.0\n  [mobility] keys ['velocity_kmh', 'velocity_mps'] are mutually exclusive; give one\n  [mobility] pause must be non-negative, got -1.0\n  [thresholds] t_threshold_s: expected a number, got 'soon'\n  [experiment] n_users: expected an integer, got 'x'\n  [experiment] pair: 'QQ' not one of SM, SpS, SpM\n  [sweep] axis: 'nope' not one of lambda_s, sigma, velocity, tx_power_sprime, T, T_p\n  [sweep] values: expected numbers, got '1, b'",
    ),
}

#: Messages that changed on purpose with the schema table: a quantity given in
#: both units lists the parse error of each; parse errors within a section
#: follow the section's key order; a non-positive small-cell density is named
#: as such instead of through the densities derived from it.  A decibel key
#: whose linear value overflows and a nan or infinite number are named with
#: their section and key; they used to raise a bare ``OverflowError`` or load.
#: A tier whose linear prefactor overflows or underflows and a region whose
#: area overflows are refused by their section; they used to raise a bare
#: ``OverflowError`` or ``ZeroDivisionError``, or print nan.  An exposure or
#: hotspot offsets that overflow are refused by the keys that set them; they
#: used to print an infinite exposure or overflow in the circle field.  A
#: region whose area underflows to 0, or whose squared diagonal overflows, is
#: refused by [region]; it used to run an empty deployment, or blame sigma_m.
#: A small-cell density whose followed macro and hotspot-center densities
#: underflow to 0 is refused by name; they used to keep 2e-6 per m^2.
CHANGED_ERROR_TEXT = {
    'tier_prefactor_overflows': (
        '[macro]\ntx_power_dbm = 5000\n',
        "invalid config:\n  [macro] the linear prefactor of tx_power, antenna_gain, bias and pathloss_intercept must be positive and finite, got inf",
    ),
    'tier_bias_overflows': (
        '[hotspot]\nbias_db = 5000\n',
        "invalid config:\n  [hotspot] the linear prefactor of tx_power, antenna_gain, bias and pathloss_intercept must be positive and finite, got inf",
    ),
    'tier_prefactor_underflows': (
        '[small]\ntx_power_dbm = -5000\n',
        "invalid config:\n  [small] the linear prefactor of tx_power, antenna_gain, bias and pathloss_intercept must be positive and finite, got 0.0",
    ),
    'region_area_overflows': (
        '[region]\nwidth_m = 1e308\n',
        "invalid config:\n  [region] area must be finite, got inf",
    ),
    'pathloss_db_overflows': (
        '[macro]\npathloss_db_at_1km = -5000\n',
        "invalid config:\n  [macro] pathloss_db_at_1km: '-5000' overflows in linear units",
    ),
    'q_out_db_overflows': (
        '[thresholds]\nq_out_db = 5000\n',
        "invalid config:\n  [thresholds] q_out_db: '5000' overflows in linear units",
    ),
    'deployment_non_finite': (
        '[deployment]\nsigma_m = nan\nlambda_s_per_m2 = inf\n',
        "invalid config:\n  [deployment] lambda_s_per_m2: must be finite, got 'inf'\n  [deployment] sigma_m: must be finite, got 'nan'",
    ),
    'sweep_values_non_finite': (
        '[sweep]\naxis = sigma\nvalues = 50, -inf\n',
        "invalid config:\n  [sweep] values: must be finite, got '50, -inf'",
    ),
    'velocity_pair_both_bad': (
        '[mobility]\nvelocity_kmh = fast\nvelocity_mps = slow\n',
        "invalid config:\n  [mobility] keys ['velocity_kmh', 'velocity_mps'] are mutually exclusive; give one\n  [mobility] velocity_kmh: expected a number, got 'fast'\n  [mobility] velocity_mps: expected a number, got 'slow'",
    ),
    'velocity_pair_kmh_bad': (
        '[mobility]\nvelocity_kmh = fast\nvelocity_mps = 10\n',
        "invalid config:\n  [mobility] keys ['velocity_kmh', 'velocity_mps'] are mutually exclusive; give one\n  [mobility] velocity_kmh: expected a number, got 'fast'",
    ),
    'q_out_pair_both_bad': (
        '[thresholds]\nq_out_db = low\nq_out_linear = half\n',
        "invalid config:\n  [thresholds] keys ['q_out_db', 'q_out_linear'] are mutually exclusive; give one\n  [thresholds] q_out_db: expected a number, got 'low'\n  [thresholds] q_out_linear: expected a number, got 'half'",
    ),
    'pathloss_pair_both_bad': (
        '[macro]\npathloss_db_at_1km = loud\npathloss_intercept = tiny\n',
        "invalid config:\n  [macro] keys ['pathloss_db_at_1km', 'pathloss_intercept'] are mutually exclusive; give one\n  [macro] pathloss_db_at_1km: expected a number, got 'loud'\n  [macro] pathloss_intercept: expected a number, got 'tiny'",
    ),
    'pathloss_pair_overflows': (
        '[macro]\npathloss_db_at_1km = -5000\npathloss_intercept = 1e-3\n',
        "invalid config:\n  [macro] keys ['pathloss_db_at_1km', 'pathloss_intercept'] are mutually exclusive; give one\n  [macro] pathloss_db_at_1km: '-5000' overflows in linear units",
    ),
    'exponent_bad_tx_bad': (
        '[small]\ntx_power_dbm = strong\npathloss_exponent = steep\n',
        "invalid config:\n  [small] tx_power_dbm: expected a number, got 'strong'\n  [small] pathloss_exponent: expected a number, got 'steep'",
    ),
    'deployment_lambda_s_negative': (
        '[deployment]\nlambda_s_per_m2 = -1e-5\n',
        'invalid config:\n  lambda_s must be positive, got -1e-05',
    ),
    'exposure_overflows': (
        '[mobility]\npause_s = 1e308\n',
        "invalid config:\n  [mobility] velocity_mps = 16.666666666666668 and pause_s = 1e+308: the worst-case exposure n_trials * n_users * n_moves * (diagonal / velocity_mps + pause_s) is not finite",
    ),
    'hotspot_offsets_overflow': (
        '[deployment]\nsigma_m = 1e300\n',
        "invalid config:\n  [deployment] sigma_m = 1e+300: hotspot offsets of up to 64 sigma overflow when squared",
    ),
    'region_area_underflows': (
        '[region]\nwidth_m = 1e-200\nheight_m = 1e-200\n',
        "invalid config:\n  [region] area must be positive, got 0.0",
    ),
    'region_diagonal_overflows': (
        '[region]\nwidth_m = 1e154\nheight_m = 1e-10\n',
        "invalid config:\n  [region] width_m = 1e+154 and height_m = 1e-10: twice the squared diagonal overflows",
    ),
    'deployment_lambda_s_negative_p_given': (
        '[deployment]\nlambda_s_per_m2 = -1e-5\nlambda_p_per_m2 = 1e-6\n',
        'invalid config:\n  lambda_s must be positive, got -1e-05',
    ),
    'followed_densities_underflow': (
        '[deployment]\nlambda_s_per_m2 = 5e-324\n',
        "invalid config:\n  [deployment] lambda_s_per_m2 = 5e-324: the macro and hotspot-center densities that follow it underflow to 0; give lambda_m_per_m2 and lambda_p_per_m2",
    ),
}


def test_default_spec_equals_hand_built_defaults(tmp_path):
    assert default_spec() == ExperimentSpec(base=HAND_DEFAULT)
    assert load_config(write(tmp_path, "")).base == HAND_DEFAULT


def test_absent_densities_follow_the_small_cell_density(tmp_path):
    base = load_config(write(tmp_path, "[deployment]\nlambda_s_per_m2 = 3e-5\n")).base
    assert base.lambda_s == 3e-5
    assert base.lambda_m == 3e-5 / 10.0
    assert base.cluster.lambda_p == 3e-5 / 10.0


#: Small-cell densities that the absent macro and hotspot-center densities
#: used to ignore: the region is far from the default square in scale, or
#: the tenth of the density underflows to 0.
TINY_REGION_DENSE = {"region": {"width_m": 1e-82, "height_m": 1e-82},
                     "deployment": {"lambda_s_per_m2": 1e164}}
UNDERFLOWING_TENTH = {"deployment": {"lambda_s_per_m2": 5e-324}}


def test_absent_densities_follow_on_any_region(tmp_path):
    # They used to keep the absolute defaults of 2e-6 per m^2: no macro tier.
    base = load_config(write(tmp_path, _ini(TINY_REGION_DENSE))).base
    assert base.lambda_m == 1e164 / 10.0
    assert base.cluster.lambda_p == 1e164 / 10.0
    # Given both, nothing follows, so a tenth that underflows is not refused
    # (CHANGED_ERROR_TEXT has the refusal).
    given = {**UNDERFLOWING_TENTH["deployment"], "lambda_m_per_m2": 1e-6, "lambda_p_per_m2": 1e-6}
    base = load_config(write(tmp_path, _ini({"deployment": given}))).base
    assert (base.lambda_s, base.lambda_m, base.cluster.lambda_p) == (5e-324, 1e-6, 1e-6)


def test_section_keys_are_derived_from_the_table():
    assert cli._SECTION_KEYS == SECTION_KEYS


@pytest.mark.parametrize("name", sorted({**ERROR_TEXT, **CHANGED_ERROR_TEXT}))
def test_config_error_text(tmp_path, name):
    text, message = {**ERROR_TEXT, **CHANGED_ERROR_TEXT}[name]
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert str(err.value) == message


def test_benchmark_ini_bytes_are_pinned():
    # perfbench hashes this INI as its config_sha256.
    def sha(spec):
        return hashlib.sha256(emit_config(spec).encode("utf-8")).hexdigest()

    assert sha(ExperimentSpec(base=reference_config(1))) == (
        "66fbb1fb56d7f34c63543a0e836be4fe497f7fa3ff7d2318967046a9481a1085"
    )
    assert sha(default_spec()) == (
        "132150e4b6e4a2d49b6a231dc015551231b0b0dc75658b0bd0a7d5d54f39c15d"
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def small_spec(**experiment) -> ExperimentSpec:
    base = default_spec().base
    base = dataclasses.replace(
        base,
        region=Region(0.0, 2000.0, 0.0, 2000.0),
        n_users=2,
        n_moves=10,
        n_trials=2,
        **experiment,
    )
    return ExperimentSpec(base=base)


def test_metrics_csv_row_format():
    spec = default_spec()
    m = analytic_pair_metrics(spec.base, PairKind.SPS)
    row = cmd_analyze(spec).splitlines()[2].split(",")
    assert row[0] == "SpS"
    assert len(row) == len(METRICS_CSV_HEADER.split(","))
    assert row[2] == "150"  # sigma column, .10g
    assert row[6:] == [
        format(v, ".10g")
        for v in (m.triggered_rate, m.handover_rate, m.failure_rate, m.pingpong_rate)
    ]


def test_analyze_emits_one_row_per_sweep_point():
    spec = dataclasses.replace(
        default_spec(), sweep_axis="sigma", sweep_values=(50.0, 100.0, 150.0, 200.0)
    )
    text = cmd_analyze(spec)
    lines = text.splitlines()
    assert lines[0] == "# schema_version=2"
    assert lines[1] == METRICS_CSV_HEADER
    assert len(lines) == 6
    assert text.endswith("\n")

    sigma_col = [float(ln.split(",")[2]) for ln in lines[2:]]
    assert sigma_col == [50.0, 100.0, 150.0, 200.0]
    handover_col = [float(ln.split(",")[7]) for ln in lines[2:]]
    assert all(b > a for a, b in zip(handover_col, handover_col[1:]))


def test_simulate_shape_and_determinism():
    spec = small_spec()
    text1 = cmd_simulate(spec, workers=1)
    text2 = cmd_simulate(spec, workers=2)
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[1] == SIMULATE_CSV_HEADER
    assert len(lines) == 3
    row = lines[2].split(",")
    assert row[0] == "SpS"
    assert int(row[6]) == 2  # n_trials column


def test_validate_reports_all_pairs():
    spec = small_spec()
    csv_text, summary = cmd_validate(spec, workers=1)
    lines = csv_text.splitlines()
    assert lines[1] == VALIDATE_CSV_HEADER
    assert len(lines) == 2 + 12  # 3 pairs x 4 metrics
    assert {ln.split(",")[0] for ln in lines[2:]} == {"SM", "SpS", "SpM"}
    assert "point 1/1" in summary
    assert "sim/ana" in summary


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_command_output_bytes_are_pinned(tmp_path):
    # The headers as README's Output format documents them, and the bytes
    # of each command: a change to a header, a column or a number format
    # shows here.
    assert METRICS_CSV_HEADER == "pair,lambda_s,sigma,V_mps,T_s,Tp_s,H_t,H,H_f,H_p"
    assert SIMULATE_CSV_HEADER == (
        "pair,lambda_s,sigma,V_mps,T_s,Tp_s,n_trials,exposure_s,triggered,handovers,"
        "failures,pingpongs,H_t,H_t_ci,H,H_ci,H_f,H_f_ci,H_p,H_p_ci"
    )
    assert VALIDATE_CSV_HEADER == (
        "pair,metric,lambda_s,sigma,V_mps,T_s,Tp_s,analytic,simulated,ci_halfwidth,ratio,flag"
    )

    demo = load_config(DEMO_DIR / "sigma_sweep.ini")
    analyze = {
        kind: sha256(cmd_analyze(dataclasses.replace(demo, pair=kind))) for kind in PairKind
    }
    assert analyze == {
        PairKind.SM: "b0486ba82d7de3cba8634171f4c83088103aa81d022756f5574dab2e1c28e2bc",
        PairKind.SPS: "38f67e439ff82987866213d33f3ae72896a1c2755ae9092e40fa4cb68dc76ba0",
        PairKind.SPM: "fdb5075b0a75de4213b2a1ed8e97e45dfe0e309eea5c15606a1207974d09adc1",
    }

    spec = load_config(write(tmp_path, SMALL_INI + "[sweep]\naxis = sigma\nvalues = 100, 150\n"))
    assert sha256(cmd_simulate(spec)) == (
        "ce9a8c096ef14d3da7cedfe55652259e85db17caa78b5b7c3a0b82091d0e5adc"
    )
    csv_text, summary = cmd_validate(spec)
    assert sha256(csv_text) == (
        "292505bd50df3523283bec2328fefc2042e79f375c7cb67ca5fb270f451134c6"
    )
    assert sha256(summary) == (
        "68d300bdfa532219db16b19ec8eafb2af4af115b3330a94ea6bbe2d140621f3e"
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def test_main_analyze_to_stdout(tmp_path, capsys):
    p = write(tmp_path, SMALL_INI)
    assert main(["analyze", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# schema_version=2\n")
    assert METRICS_CSV_HEADER in out


def test_main_analyze_to_file(tmp_path, capsys):
    p = write(tmp_path, SMALL_INI)
    out_file = tmp_path / "metrics.csv"
    assert main(["analyze", "--config", str(p), "--out", str(out_file)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert out_file.read_text(encoding="utf-8").startswith("# schema_version=2\n")


def test_main_validate_delivers_csv_and_summary(tmp_path, capsys):
    # With --out the file holds the CSV and stdout the summary, then the
    # path; without it the CSV goes to stdout and the summary to stderr.
    p = write(tmp_path, SMALL_INI + "[sweep]\naxis = sigma\nvalues = 100, 150\n")
    csv_text, summary = cmd_validate(load_config(p))
    out_file = tmp_path / "validate.csv"
    assert main(["validate", "--config", str(p), "--out", str(out_file)]) == 0
    assert out_file.read_text(encoding="utf-8") == csv_text
    assert capsys.readouterr() == (f"{summary}wrote {out_file}\n", "")
    assert main(["validate", "--config", str(p)]) == 0
    assert capsys.readouterr() == (csv_text, summary)


def test_main_overrides_seed_and_trials(tmp_path):
    p = write(tmp_path, SMALL_INI)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", "--config", str(p), "--trials", "3"]
    assert main(args + ["--seed", "9", "--out", str(out_a)]) == 0
    assert main(args + ["--seed", "10", "--out", str(out_b)]) == 0
    row_a = out_a.read_text(encoding="utf-8").splitlines()[2].split(",")
    row_b = out_b.read_text(encoding="utf-8").splitlines()[2].split(",")
    assert int(row_a[6]) == 3  # --trials wins over the config file
    assert row_a != row_b  # different seeds give different campaigns


def test_main_simulate_workers_byte_identical(tmp_path):
    p = write(tmp_path, SMALL_INI)
    out1 = tmp_path / "w1.csv"
    out4 = tmp_path / "w4.csv"
    base = ["simulate", "--config", str(p)]
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_main_missing_config_fails_cleanly(capsys):
    assert main(["analyze", "--config", "/no/such/file.ini"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "not found" in err


def test_main_analyze_names_pair_with_equal_tiers(tmp_path, capsys):
    # The hotspot tier defaults to the small tier 6 dB down; at equal power
    # every SpS boundary is a straight line.
    p = write(tmp_path, SMALL_INI + "[hotspot]\ntx_power_dbm = 30\n")
    assert main(["analyze", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SpS pair")
    assert "[hotspot]" in err and "[small]" in err


def test_main_analyze_evaluates_only_the_selected_pair(tmp_path, capsys):
    # SM involves neither hotspot section, so an SpS-degenerate hotspot
    # tier does not stop it; asking for SpS still refuses.
    text = "[hotspot]\ntx_power_dbm = 30\n[experiment]\npair = {}\n"
    assert main(["analyze", "--config", str(write(tmp_path, text.format("SM")))]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 1 and rows[0].startswith("SM,")
    assert main(["analyze", "--config", str(write(tmp_path, text.format("SpS")))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SpS pair")
    assert "[hotspot]" in err and "[small]" in err


def test_main_analyze_names_pair_whose_circle_encloses_serving(tmp_path, capsys):
    # A hotspot tier with the macro radio is stronger than the small cells
    # serving it: the SpS handover circle surrounds the serving BS.
    macro_radio = (
        "[hotspot]\ntx_power_dbm = 46\nantenna_gain_dbi = 14\nbias_db = 0\n"
        "pathloss_exponent = 3.76\npathloss_db_at_1km = 128.1\n"
    )
    assert main(["analyze", "--config", str(write(tmp_path, macro_radio))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SpS pair")
    assert "encloses the serving BS" in err
    assert "keep the biased RSS of [hotspot] below that of [small]" in err


def test_main_sweep_point_refusal_names_the_sweep(tmp_path, capsys):
    # A negative small-cell density scales the cluster-center density
    # negative too; the refusal names the swept value, not lambda_p alone.
    # A hotspot power whose linear prefactor overflows is refused by the tier.
    cases = (
        ("axis = lambda_s\nvalues = -1e-5, 2e-5", "error: [sweep] lambda_s = -1e-05: "),
        (
            "axis = tx_power_sprime\nvalues = 24, 5000",
            "error: [sweep] tx_power_sprime = 5000.0: the linear prefactor of tx_power, "
            "antenna_gain, bias and pathloss_intercept must be positive and finite, got inf\n",
        ),
    )
    for sweep, expected in cases:
        text = SMALL_INI + f"[sweep]\n{sweep}\n"
        for command in ("analyze", "simulate", "validate"):
            assert main([command, "--config", str(write(tmp_path, text))]) == 1
            err = capsys.readouterr().err
            assert err.startswith(expected), err


def test_main_validate_refuses_before_any_campaign(tmp_path, capsys, monkeypatch):
    # The second point's hotspot tier outshines the small cells, so its SpS
    # circle encloses the serving BS: no point may be simulated first.
    campaigns = []

    def counting(run_campaign):
        def run(*args, **kwargs):
            campaigns.append(args)
            return run_campaign(*args, **kwargs)

        return run

    for module in (cli, simengine):
        monkeypatch.setattr(module, "run_campaign", counting(module.run_campaign))
    text = SMALL_INI + "[sweep]\naxis = tx_power_sprime\nvalues = 24, 40\n"
    assert main(["validate", "--config", str(write(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [sweep] tx_power_sprime = 40.0: SpS pair"), err
    assert "encloses the serving BS" in err
    assert campaigns == []


_ENCLOSING_SPS = (
    "SpS pair, tiers [hotspot] and [small]: the handover circle at the mean pair distance "
    "encloses the serving BS (lam_star * xi = 3.507188658585462 > 1); keep the biased RSS "
    "of [hotspot] below that of [small] by changing tx_power_dbm, antenna_gain_dbi, bias_db "
    "or the path loss in [hotspot] or [small]"
)


def test_main_closed_form_refusal_names_the_sweep_point(tmp_path, capsys):
    # The refusing point is the second one; the message says which, the way
    # a sweep value the config itself refuses is named.
    text = SMALL_INI + "[sweep]\naxis = tx_power_sprime\nvalues = 24, 40\n"
    for command in ("analyze", "validate"):
        assert main([command, "--config", str(write(tmp_path, text))]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: [sweep] tx_power_sprime = 40.0: {_ENCLOSING_SPS}\n")
    # Without a sweep the refusal is the pair's alone.
    assert main(["analyze", "--config", str(write(tmp_path, SMALL_INI.replace(
        "[experiment]", "[hotspot]\ntx_power_dbm = 40\n\n[experiment]"
    )))]) == 1
    assert capsys.readouterr().err == f"error: {_ENCLOSING_SPS}\n"


def test_sweep_point_refusal_keeps_the_degenerate_type(tmp_path):
    # At 30 dBm the hotspot radio equals the small cells': a straight-line
    # SpS boundary, refused as DegenerateBoundaryError with the point named.
    text = SMALL_INI + "[sweep]\naxis = tx_power_sprime\nvalues = 24, 30\n"
    spec = load_config(write(tmp_path, text))
    with pytest.raises(DegenerateBoundaryError) as err:
        cmd_analyze(spec)
    assert str(err.value).startswith(
        "[sweep] tx_power_sprime = 30.0: SpS pair, tiers [hotspot] and [small]: "
        "equal-RSS boundary is a perpendicular bisector"
    )


def test_main_requires_a_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# The simulator's envelope
# ---------------------------------------------------------------------------

def _ini(sections: dict) -> str:
    """An INI of ``{section: {key: value}}``, one trial of 2 users x 5 moves
    unless ``[experiment]`` says otherwise."""
    sections = {**sections, "experiment": {
        "n_users": 2, "n_moves": 5, **sections.get("experiment", {}), "n_trials": 1,
    }}
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value!r}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


#: Walk-scale configs and `simulate`'s stderr on them (2 users x 5 moves x 2
#: trials).  Under an absolute 1e-9 m shortest move the first walked forever,
#: every Rayleigh draw being redrawn; with the extension (p_z = 0.3) it ran on
#: the extension alone, and is now refused too.  At coordinates near 1e150 a
#: 300 m move rounds away, which stopped the run at an internal check
#: (``segment endpoints must differ``).  The 5e-10 m square was refused as
#: too small and now walks.
_WALK_SCALE_REFUSAL = (
    "error: [mobility] sigma_rwp_m = {} and [region] x [0.0, {}], y [0.0, {}]: sigma_rwp_m "
    "and half of each side must exceed the shortest move, {} m (64 ulps of the largest "
    "coordinate)\n"
)
WALK_SCALE = {
    "tiny_sigma_rwp": (
        {"mobility": {"sigma_rwp_m": 1e-300, "p_z": 0.0}},
        _WALK_SCALE_REFUSAL.format("1e-300", 5000.0, 5000.0, 64 * math.ulp(5000.0)),
    ),
    "tiny_sigma_rwp_extended": (
        {"mobility": {"sigma_rwp_m": 1e-300, "p_z": 0.3}},
        _WALK_SCALE_REFUSAL.format("1e-300", 5000.0, 5000.0, 64 * math.ulp(5000.0)),
    ),
    "huge_region": (
        {"region": {"width_m": 1e150, "height_m": 1e150},
         "deployment": {"lambda_s_per_m2": 1e-300}},
        _WALK_SCALE_REFUSAL.format("300.0", 1e150, 1e150, 64 * math.ulp(1e150)),
    ),
    "tiny_region": ({"region": {"width_m": 5e-10, "height_m": 5e-10}}, ""),
}


@pytest.mark.parametrize("name", sorted(set(WALK_SCALE) - {"tiny_sigma_rwp"}))
def test_walk_scale_configs_pinned(tmp_path, capsys, name):
    sections, err = WALK_SCALE[name]
    p = write(tmp_path, _ini(sections))
    assert main(["simulate", "--config", str(p), "--trials", "2"]) == (1 if err else 0)
    out = capsys.readouterr()
    assert out.err == err
    if not err:
        counts = [int(v) for v in out.out.splitlines()[2].split(",")[8:12]]
        assert counts[0] >= max(counts[1:]) >= 0


def test_walk_scale_hang_ends_in_a_subprocess(tmp_path):
    # The one config of WALK_SCALE that never returned under an absolute
    # shortest move runs in its own interpreter: a regression fails here on
    # the timeout, not by stalling the suite.
    sections, err = WALK_SCALE["tiny_sigma_rwp"]
    p = write(tmp_path, _ini(sections))
    code = (
        "import sys; from hetnet_handover import cli; sys.stderr = sys.stdout; "
        "print(cli.main(sys.argv[1:]))"
    )
    out = fresh_python(code, "simulate", "--config", str(p), "--trials", "2", timeout=20)
    assert out == err + "1\n"


#: Deployments too large for one trial and `simulate`'s stderr on them.  Each
#: used to load and then stop `simulate` with an unnamed NumPy error: an
#: allocation of 178 PiB, or the Poisson sampler's ``lam value too large``.
HUGE_DEPLOYMENTS = {
    "small_density": (
        {"deployment": {"lambda_s_per_m2": 1e10}},
        "error: invalid config:\n  [deployment] lambda_s_per_m2 = 10000000000.0 on [region] "
        "width_m = 5000.0 and height_m = 5000.0: 2.5e+17 expected small base stations, above "
        "the cap of 1e+08\n",
    ),
    "mean_offspring": (
        {"deployment": {"mean_offspring": 1e300}},
        "error: invalid config:\n  [deployment] lambda_p_per_m2 = 2.0000000000000003e-06 and "
        "mean_offspring = 1e+300 on [region] width_m = 5000.0 and height_m = 5000.0: 5e+301 "
        "expected hotspot base stations, above the cap of 1e+08\n",
    ),
}


@pytest.mark.parametrize("name", sorted(HUGE_DEPLOYMENTS))
def test_huge_deployment_configs_pinned(tmp_path, capsys, name):
    sections, err = HUGE_DEPLOYMENTS[name]
    p = write(tmp_path, _ini(sections))
    assert main(["simulate", "--config", str(p), "--trials", "2"]) == 1
    assert capsys.readouterr().err == err


def test_deployment_cap_boundary(tmp_path):
    # load_config only: a trial at the cap would sample 1e8 base stations.
    # On a 10 km square (1e8 m^2), each tier's expected count and one
    # cluster's mean may reach the cap and not pass it.
    square = "[region]\nwidth_m = 10000\nheight_m = 10000\n[deployment]\n"
    above = math.nextafter(1.0, 2.0)
    for keys, refused in (
        ("lambda_s_per_m2 = 1.0", None),
        (f"lambda_s_per_m2 = {above!r}", "expected small base stations"),
        ("lambda_s_per_m2 = 1e-5\nlambda_m_per_m2 = 1.0", None),
        (f"lambda_s_per_m2 = 1e-5\nlambda_m_per_m2 = {above!r}", "expected macro base stations"),
        ("lambda_p_per_m2 = 1.0\nmean_offspring = 1.0", None),
        (f"lambda_p_per_m2 = {above!r}\nmean_offspring = 1e-3", "expected hotspot cluster centres"),
        ("lambda_p_per_m2 = 0.2\nmean_offspring = 5.0", None),
        ("lambda_p_per_m2 = 0.2\nmean_offspring = 5.000001", "expected hotspot base stations"),
        ("lambda_p_per_m2 = 1e-10\nmean_offspring = 1e8", None),
        ("lambda_p_per_m2 = 1e-10\nmean_offspring = 1.000001e8",
         "expected base stations in one hotspot cluster"),
        ("lambda_s_per_m2 = 1e301", "inf expected small base stations"),
    ):
        p = write(tmp_path, square + keys + "\n")
        if refused is None:
            load_config(p)
            continue
        with pytest.raises(ConfigError, match=f"^invalid config:\n  \\[deployment\\] .*: [^:]*{refused}"):
            load_config(p)


def test_huge_deployment_at_a_sweep_point_names_the_sweep(tmp_path, capsys):
    text = _ini({}) + "[sweep]\naxis = lambda_s\nvalues = 2e-5, 1e10\n"
    for command in ("analyze", "simulate", "validate"):
        assert main([command, "--config", str(write(tmp_path, text))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: [sweep] lambda_s = 10000000000.0: [deployment] lambda_s_per_m2 = "
            "10000000000.0 on [region] width_m = 5000.0"
        ), err


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise `TimeoutError` in the body after ``seconds`` of wall clock."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _log_uniform(low: float, high: float):
    return st.floats(low, high).map(lambda exponent: 10.0 ** exponent)


@st.composite
def _envelope_sections(draw) -> dict:
    """Log-uniform ``[region]``, ``[deployment]``, ``[mobility]`` and
    ``[thresholds]`` time keys, with each tier's density set by an expected
    base-station count of at most 100.

    The sides lie within 1e-150 to 1e150 m, so the area is a normal float
    and the densities finite; a region too large for NumPy's Poisson sampler
    is outside the draws.  The hotspot tier draws its expected cluster
    centres and members, each 1e-2 to 1e2, and sets ``mean_offspring`` to
    their ratio.  Some draws leave out ``lambda_m_per_m2`` or
    ``lambda_p_per_m2``, or both, so that they follow the small-cell
    density; the centres are then a tenth of the small cells.  The height
    and the three length scales (the walk's and σ) are drawn within 20
    decades of the width, or across 1e-300 to 1e300 m: drawn independently,
    nearly every walk is refused by its scale alone.
    """
    decade = draw(st.floats(-150.0, 150.0))
    width = 10.0 ** decade
    height = 10.0 ** min(max(decade + draw(st.floats(-20.0, 20.0)), -150.0), 150.0)
    length = _log_uniform(decade - 20.0, decade + 20.0) | _log_uniform(-300, 300)
    n_bs = _log_uniform(-2, 2)
    n_small, n_macro, n_parents, n_hotspots = (draw(n_bs) for _ in range(4))
    followed = draw(st.sets(st.sampled_from(("lambda_m_per_m2", "lambda_p_per_m2"))))
    if "lambda_p_per_m2" in followed:
        n_parents = n_small / 10.0
    deployment = {
        "lambda_s_per_m2": n_small / (width * height),
        "lambda_m_per_m2": n_macro / (width * height),
        "lambda_p_per_m2": n_parents / (width * height),
        "sigma_m": draw(length),
        "mean_offspring": n_hotspots / n_parents,
    }
    wide = _log_uniform(-300, 300)
    return {
        "region": {"width_m": width, "height_m": height},
        "deployment": {k: v for k, v in deployment.items() if k not in followed},
        "mobility": {
            "sigma_rwp_m": draw(length),
            "p_z": draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)),
            "sigma_z_m": draw(length),
            "velocity_mps": draw(wide),
            "pause_s": draw(st.just(0.0) | wide),
        },
        "thresholds": {
            "t_threshold_s": draw(st.just(0.0) | wide),
            "t_pingpong_s": draw(wide),
        },
        "experiment": {"n_users": draw(st.integers(1, 5)), "n_moves": draw(st.integers(1, 5))},
    }


@given(sections=_envelope_sections())
@example(sections=WALK_SCALE["huge_region"][0])
@example(sections=WALK_SCALE["tiny_region"][0])
@example(sections=WALK_SCALE["tiny_sigma_rwp_extended"][0])
# A strip that no direction but its length crosses in more than the shortest
# move: it hung under a rule on half the diagonal.
@example(sections={"region": {"width_m": 5000.0, "height_m": 1e-30}})
@example(sections={"mobility": {"pause_s": 1e308}})
@example(sections={"deployment": {"sigma_m": 1e300}})
@example(sections=HUGE_DEPLOYMENTS["small_density"][0])
@example(sections=HUGE_DEPLOYMENTS["mean_offspring"][0])
@example(sections=TINY_REGION_DENSE)
@example(sections=UNDERFLOWING_TENTH)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_simulator_envelope_runs_or_names_a_key(tmp_path, sections):
    # Every config either is refused with a message that names a config
    # key, by load_config or by the trial, or runs a trial whose counts are
    # valid over a finite exposure; no RuntimeWarning, and no hang.
    p = write(tmp_path, _ini(sections))
    with _time_limit(5.0), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            counts = simengine.run_trial(load_config(p).base, 0)
        except (ConfigError, ValueError) as exc:
            named = re.findall(r"\[(\w+)\] (\w+)", str(exc))
            assert any(key in cli._SECTION_KEYS.get(section, ()) for section, key in named), exc
            return
    counts.validate()
    assert math.isfinite(counts.exposure_time)


def _names_a_section(exc: Exception) -> bool:
    return any(section in cli._SECTION_KEYS for section in re.findall(r"\[(\w+)\]", str(exc)))


@st.composite
def _radio_sections(draw) -> dict:
    """Radio keys of some tiers and ``[thresholds] q_out_db``, each left at
    its default or drawn: exponents log-uniform above 2 up to 1e6, decibels
    within 100 dB of 0 or anywhere in +-3000 dB.  A tier left out keeps
    every default, so that about a quarter of the examples pass the closed
    forms."""
    decibels = st.none() | st.floats(-100.0, 100.0) | st.floats(-3000.0, 3000.0)
    exponent = st.none() | _log_uniform(-12.0, 6.0).map(lambda excess: 2.0 + excess)
    keys = {"tx_power_dbm": decibels, "antenna_gain_dbi": decibels, "bias_db": decibels,
            "pathloss_exponent": exponent, "pathloss_db_at_1km": decibels}
    sections = {
        tier: {key: value for key, values in keys.items()
               if (value := draw(values)) is not None}
        for tier in simengine._TIERS if draw(st.booleans())
    }
    q_out_db = draw(st.none() | st.floats(-3000.0, 0.0))
    if q_out_db is not None:
        sections["thresholds"] = {"q_out_db": q_out_db}
    return sections


@given(sections=_radio_sections())
# A path-loss exponent ratio of ~109 overflowed the flattening factor to inf.
@example(sections={"small": {"pathloss_exponent": 400.0}})
# The hotspot/small prefactor ratio underflows, so the SpS factors are 0.
@example(sections={"small": {"tx_power_dbm": 2900.0}, "hotspot": {"tx_power_dbm": -2900.0}})
# Both at once: the flattening factor overflowed against an underflowed xi,
# and inf * 0 is nan.
@example(sections={"small": {"bias_db": 2763.0, "pathloss_exponent": 1002.0},
                   "hotspot": {"bias_db": -468.0}})
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_radio_envelope_runs_or_names_a_section(tmp_path, sections):
    # On both routes, every radio config either is refused with a message
    # that names a config section, or gives finite metrics and valid counts;
    # no RuntimeWarning.
    p = write(tmp_path, _ini(sections))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cfg = load_config(p).base
        except ConfigError as exc:
            assert _names_a_section(exc), exc
            return
        try:
            metrics = simengine.analytic_metrics(cfg)
        except ValueError as exc:
            assert _names_a_section(exc), exc
        else:
            for m in metrics.values():
                assert all(math.isfinite(getattr(m, attr)) for _, attr in simengine.METRICS)
        counts = simengine.run_trial(cfg, 0)
    counts.validate()
    assert math.isfinite(counts.exposure_time)


# ---------------------------------------------------------------------------
# Package surface
# ---------------------------------------------------------------------------

#: What ``import hetnet_handover`` exports: the production path
#: (``analyze``, ``simulate``, ``validate``) and what it calls.
PACKAGE_ALL = [
    "HandoverMetrics", "HandoverThresholds", "PairKind", "compute_metrics",
    "mean_cluster_distance_numeric", "mean_pair_distance", "mean_r_sm",
    "ClusterConfig", "Region", "sample_ppp", "sample_tcp",
    "MobilityConfig", "Trajectory", "generate_trajectory", "mean_transition_length",
    "DegenerateBoundaryError", "TierRadioParams", "make_erb_pair",
    "EventCounts", "MetricsEstimate", "SimConfig", "analytic_metrics",
    "run_campaign", "run_trial", "summarize_trials",
    "marcum_q1", "__version__",
]


#: SpM at lambda_M = 1e-7, so a = 1/(2 sigma sqrt(lambda_M)) is ~316, 158, 79
#: and 10.5: the sweep's tails take windowed Marcum lanes at sigma <= 20 m.
WINDOWED_SWEEP_INI = """[deployment]
lambda_s_per_m2 = 1e-6

[experiment]
pair = SpM

[sweep]
axis = sigma
values = 5, 10, 20, 150
"""


def test_package_is_the_production_path_only(tmp_path):
    # The tests' quadrature and 50-digit oracles stay out of a CLI run, and
    # so do the KD-tree class and process pool that the package imports on
    # first use, and all of scipy.special, also once `analyze` has taken
    # windowed Marcum lanes.
    modules = (
        "sorted({'scipy.integrate', 'mpmath', 'scipy.special', 'scipy.spatial', "
        "'concurrent.futures'} & set(sys.modules))"
    )
    assert fresh_python(f"import sys, hetnet_handover.cli; print({modules})") == "[]\n"
    config = tmp_path / "windowed.ini"
    config.write_text(WINDOWED_SWEEP_INI, encoding="utf-8")
    code = f"import sys; from hetnet_handover import cli; cli.main(sys.argv[1:]); print({modules})"
    out = fresh_python(code, "analyze", "--config", str(config)).splitlines()
    assert out[-1] == "[]"
    assert sum(line.startswith("SpM,") for line in out) == 4
    assert hetnet_handover.__all__ == PACKAGE_ALL
    with pytest.raises(SystemExit) as exc:
        main(["fixtures"])
    assert exc.value.code == 2


def test_simulate_loads_no_scipy_spatial():
    # A trial finds nearest base stations with `GridIndex`, so a fresh
    # `simulate` never imports scipy.spatial, on the reference campaign or
    # on the demo sweep.
    code = (
        "import sys; from hetnet_handover import cli; cli.main(sys.argv[1:]); "
        "print('scipy.spatial' in sys.modules)"
    )
    for config in (DEMO_DIR / "reference.ini", DEMO_DIR / "sigma_sweep.ini"):
        out = fresh_python(code, "simulate", "--config", str(config), "--trials", "2")
        rows, loaded = out.splitlines()[:-1], out.splitlines()[-1]
        assert loaded == "False"
        assert rows[0].startswith("# schema_version") and len(rows) > 2, rows


def test_analyze_demo_sweep_loads_no_scipy():
    # The closed forms use no scipy and find no nearest base station, so a
    # fresh `analyze` never imports scipy.special or scipy.spatial.  Its
    # bytes are the SpS digest of test_command_output_bytes_are_pinned.
    code = (
        "import sys; from hetnet_handover import cli; cli.main(sys.argv[1:]); "
        "print(sorted({'scipy.special', 'scipy.spatial'} & set(sys.modules)))"
    )
    out = fresh_python(code, "analyze", "--config", str(DEMO_DIR / "sigma_sweep.ini"))
    *rows, loaded = out.splitlines(keepends=True)
    assert loaded == "[]\n"
    assert sha256("".join(rows)) == "38f67e439ff82987866213d33f3ae72896a1c2755ae9092e40fa4cb68dc76ba0"
