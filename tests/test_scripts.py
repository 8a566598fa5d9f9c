"""Smoke runs of the scripts under scripts/."""

from __future__ import annotations

from .helpers import REPO_DIR, run_python


def test_convergence_sweep_runs():
    run = run_python(str(REPO_DIR / "scripts" / "convergence_sweep.py"),
                     "--d", "2", "--k-max", "3")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "d=2, precision=200"
    assert lines[1].split() == ["k", "certified", "lambda", "digits", "shared", "prefix"]
    assert [line.split()[0] for line in lines[2:]] == ["1", "2", "3"]


def test_ratio_limit_scan_runs():
    run = run_python(str(REPO_DIR / "scripts" / "ratio_limit_scan.py"),
                     "--d-max", "3", "--n-max", "3")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["d=2", "d=3"]
    assert lines[1].startswith("d=3: 0.79293")
