"""Each script in ``demos/`` runs to completion at its smallest flags, and
each config there runs through the command line."""

import importlib.util
from pathlib import Path

import pytest

from hetnet_handover.analytics import METRICS, PairKind
from hetnet_handover.cli import main

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"

#: Demo name -> the arguments of its ``main``.
DEMOS = {
    "boundary_circles": (),
}


def test_every_demo_is_listed():
    assert {p.stem for p in DEMO_DIR.glob("*.py")} == set(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMO_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(*DEMOS[name])
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMO_DIR.glob("*.ini")))
def test_demo_config_runs(name, capsys):
    # The closed forms on the full config, and both routes side by side at
    # two trials: one CSV row per sweep point, or per point, pair and metric.
    config = str(DEMO_DIR / f"{name}.ini")
    assert main(["analyze", "--config", config]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows
    assert main(["validate", "--config", config, "--trials", "2"]) == 0
    out = capsys.readouterr()
    assert len(out.out.splitlines()[2:]) == len(PairKind) * len(METRICS) * len(rows)
    assert out.err.startswith("== point 1/")
