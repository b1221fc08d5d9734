"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracing.py`` patches module attributes of the package by name.
A refactor that renames one of them, or stops calling it, leaves the traced
benchmark without that layer; this test fails first.
"""

import sys
from pathlib import Path

import pytest

from hetnet_handover import analytics, cli, fixtures, simengine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Names the tracer replaces for the duration of a traced run.
PATCHED = (
    (simengine, "make_erb_pair"),
    (simengine, "sample_ppp"),
    (simengine, "sample_tcp"),
    (simengine, "generate_trajectory"),
    (simengine, "run_trial"),
    (simengine, "cKDTree"),
    (cli, "run_campaign"),
    (analytics, "marcum_q1"),
    (analytics, "mean_cluster_distance_numeric"),
)

TINY_INI = """
[region]
width_m = 2000
height_m = 2000

[experiment]
n_users = 2
n_moves = 10
n_trials = 1
"""


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


def test_traced_run_records_every_layer_and_restores(tracing, tmp_path, capsys):
    assert hasattr(analytics, "PINGPONG_CLAMP_DIAGNOSTICS")
    originals = [getattr(mod, attr) for mod, attr in PATCHED]
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI, encoding="utf-8")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for (mod, attr), fn in zip(PATCHED, originals):
            assert getattr(mod, attr) is not fn, f"{mod.__name__}.{attr} not patched"
        simengine.analytic_metrics(fixtures.reference_sim_config(0))
        assert cli.main(["simulate", "--config", str(ini)]) == 0
    capsys.readouterr()
    for (mod, attr), fn in zip(PATCHED, originals):
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} not restored"

    table = tracing.SpanTable(tracer)
    assert table.problems() == []
    for name in (
        "specfun.marcum_q1",
        "analytics.mean_cluster_distance_numeric",
        "simengine.run_campaign",
        "simengine.run_trial",
        "geometry.sample_ppp",
        "geometry.sample_tcp",
        "mobility.generate_trajectory",
        "radio.make_erb_pair",
        "simengine.kdtree_query",
    ):
        assert table.mask(name).any(), f"no {name} span"
    # One KD-tree per tier (macro, small, hotspot), shared by the circle
    # field and the serving map.
    assert int(table.mask("simengine.kdtree_build").sum()) == 3

    # The traced counts equal those of one untraced replay of the trial: the
    # base stations its KD-trees are built on and the waypoints it walks.
    cfg = cli.load_config(ini).base
    replay = {}
    kdtrees, walk = simengine._kdtrees, simengine._walk_trajectories

    def count_bs(tiers):
        replay["bs"] = sum(len(xy) for xy in tiers)
        return kdtrees(tiers)

    def count_waypoints(waypoints, *args):
        replay["waypoints"] = waypoints.shape[0] * waypoints.shape[1]
        return walk(waypoints, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simengine, "_kdtrees", count_bs)
        mp.setattr(simengine, "_walk_trajectories", count_waypoints)
        simengine.run_trial(cfg, 0)
    assert replay["waypoints"] == cfg.n_users * (cfg.n_moves + 1)
    counted = tracer.counts[tracer.run_id]
    assert counted["geometry.bs_sampled"] == replay["bs"] > 0
    assert counted["mobility.waypoints"] == replay["waypoints"]
