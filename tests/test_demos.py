"""Every demo runs to completion and prints something."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_root_systems.py",
        "02_pseudo_levi_subsystems.py",
        "03_g2_component_groups.py",
        "04_exceptional_tables.py",
        "05_oracle_crosschecks.py",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
