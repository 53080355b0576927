"""Smoke test of the study script that README documents, and the upkeep of
the standing mutant list."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from .conftest import SRC

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_gap_study.py"


def run_script(*args):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, env=env)


def test_gap_study_prints_one_row_per_p():
    res = run_script("--p-grid", "0.16", "0.32", "--horizon", "4")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "N=2 d=1 T=4 q=0.5"
    assert lines[1].split() == ["p", "v_star", "diff", "z", "bound"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["0.16", "0.32"]
    assert all(len(row) == 5 and float(row[1]) > 0 for row in rows)


def test_gap_study_reports_null_z_at_p_zero():
    # at p = 0 every policy coincides: the gap is 0 and z is undefined
    res = run_script("--p-grid", "0", "0.16", "--horizon", "4")
    assert res.returncode == 0, res.stderr
    rows = [line.split() for line in res.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["0", "0.16"]
    assert rows[0][2:4] == ["0.000e+00", "null"]
    assert rows[1][3] != "null"


def test_gap_study_reports_null_z_where_p_pd_underflows():
    # p * p_d underflows to 0.0 at p = 1e-200 on two channels
    res = run_script("--p-grid", "1e-200", "--n-channels", "2")
    assert res.returncode == 0, res.stderr
    [row] = [line.split() for line in res.stdout.splitlines()[2:]]
    assert row[0] == "1e-200" and row[3] == "null"


def test_every_mutant_applies_exactly_once():
    """scripts/mutants.py cannot rot silently: each mutant's old text occurs
    once in its file, the mutated file still parses (else pytest stops
    before it runs the mutant's tests), and each test it names is defined
    where it says."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert mutants.occurrences(m) == 1, m.name
        ast.parse((ROOT / m.path).read_text().replace(m.old, m.new))
        assert m.tests, m.name
        for node in m.tests:
            path, *_, test = node.split("::")
            assert f"def {test}(" in (ROOT / path).read_text(), (m.name, node)
