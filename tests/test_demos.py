"""Each script in ``demos/`` runs to completion at its smallest flags."""

import importlib.util
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"

#: Demo name -> the arguments of its ``main``.
DEMOS = {
    "analytic_trends": (),
    "boundary_circles": (),
    "validate_analytics": (["--trials", "2", "--workers", "1"],),
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
