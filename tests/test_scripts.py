"""Smoke tests: each experiment script runs and prints its conclusion."""
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_reproduce_e8(capsys):
    runpy.run_path(str(SCRIPTS / "reproduce_e8.py"), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    assert "cor68 dimension     = 202" in out
    assert out[-1] == "overall: pass"


def test_oracle_audit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["oracle_audit.py", "2", "0"])
    runpy.run_path(str(SCRIPTS / "oracle_audit.py"), run_name="__main__")
    assert capsys.readouterr().out.splitlines()[:3] == [
        f"{kind}: 2 descriptors agree with both oracles" for kind in ("gl", "so", "sp")]


def test_congruence_sweep_g2(capsys):
    runpy.run_path(str(SCRIPTS / "congruence_sweep.py"))["sweep"]("G2")
    assert capsys.readouterr().out.startswith("G2: 4 subsets, ")
