"""Smoke test of the study script that README documents."""

import os
import subprocess
import sys
from pathlib import Path

from .conftest import SRC

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_gap_study.py"


def test_gap_study_prints_one_row_per_p():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    res = subprocess.run(
        [sys.executable, str(SCRIPT), "--p-grid", "0.16", "0.32", "--horizon", "4"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "N=2 d=1 T=4 q=0.5"
    assert lines[1].split() == ["p", "v_star", "diff", "z", "bound"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["0.16", "0.32"]
    assert all(len(row) == 5 and float(row[1]) > 0 for row in rows)
