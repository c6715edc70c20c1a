"""The two scripts run to the end with their recorded stdout; the
calibration script asserts that the derived product is associative, that
its coordinate operators close and that the gauge read off it gives the
exact trace condition."""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# sha256 of each script's full stdout; every value printed is exact
STDOUT_DIGESTS = {
    "calibrate_star.py":
        "f0dbafd3546b91e7a466bba82c0f6f78add4e20e337c402e7354de3ad5d0419f",
    "run_fuzzy_experiments.py":
        "47045ffff2ad5dc3eec9a012e93751c74f06606744788ab1c81d59b97ae36692",
}


def run_script(name: str, monkeypatch) -> None:
    # the scripts put "src" on sys.path themselves; restore it afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(SCRIPTS.parent)
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_calibrate_star(monkeypatch, capsys):
    run_script("calibrate_star.py", monkeypatch)
    out = capsys.readouterr().out
    assert "   fuzzy: associator zero through grade 3 = True" in out.splitlines()
    assert out.splitlines()[-1] == "calibration complete"
    assert digest(out) == STDOUT_DIGESTS["calibrate_star.py"]


def test_run_fuzzy_experiments(monkeypatch, capsys):
    with pytest.raises(SystemExit) as stop:
        run_script("run_fuzzy_experiments.py", monkeypatch)
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("bivector entries:")
    assert digest(out) == STDOUT_DIGESTS["run_fuzzy_experiments.py"]
