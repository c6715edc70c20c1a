"""The two scripts run to the end; the calibration script asserts that the
derived product is associative, that its coordinate operators close and
that the gauge read off it gives the exact trace condition."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, monkeypatch) -> None:
    # the scripts put "src" on sys.path themselves; restore it afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(SCRIPTS.parent)
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_calibrate_star(monkeypatch, capsys):
    run_script("calibrate_star.py", monkeypatch)
    out = capsys.readouterr().out
    assert "   fuzzy: associator zero through grade 3 = True" in out.splitlines()
    assert out.splitlines()[-1] == "calibration complete"


def test_run_fuzzy_experiments(monkeypatch, capsys):
    with pytest.raises(SystemExit) as stop:
        run_script("run_fuzzy_experiments.py", monkeypatch)
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("bivector entries:")
