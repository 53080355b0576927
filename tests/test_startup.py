"""Importing the CLI loads numpy and the code its commands run, nothing else.

The process pool's stack (concurrent.futures, multiprocessing) loads only for
a grid run on several workers, the INI reader (configparser) only for
--config, and hashlib only for a seed hashed from a grid point, so neither
the import nor `solve` loads it.  Each case runs in a fresh interpreter,
and the test counts loaded modules, not milliseconds, so it holds on any
host."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
DEFERRED = ("concurrent.futures", "multiprocessing", "configparser")
WATCHED = DEFERRED + ("concurrent.futures.process",)

# imports the CLI, then runs main on each (label, argv) of argv[1] in turn;
# prints, after the import and after each call, the watched modules loaded
_PROBE = """
import json, sys
watched = json.loads(sys.argv[1])
loaded = lambda: [m for m in watched if m in sys.modules]
import aoi_sched.cli as cli
report = {"import": [0, loaded()]}
for label, argv in json.loads(sys.argv[2]):
    report[label] = [cli.main(argv), loaded()]
print(json.dumps(report))
"""

TINY_MODEL = ["--n-sources", "2", "--n-channels", "1", "--p", "0.6", "--q", "uniform:0.5",
              "--horizon", "4", "--no-header-timestamp"]


def _probe(steps, threads=None, watched=WATCHED) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "AOI_SCHED_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if threads is not None:
        env["AOI_SCHED_THREADS"] = threads
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(watched), json.dumps(steps)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(res.stdout.splitlines()[-1])


def test_commands_load_neither_the_pool_nor_the_ini_reader(tmp_path):
    report = _probe([
        ("solve", ["solve", *TINY_MODEL, "--policies", "delta,rr",
                   "--out", str(tmp_path / "s.json")]),
        ("simulate", ["simulate", *TINY_MODEL, "--policies", "delta,pi",
                      "--replications", "2", "--seed", "3", "--out", str(tmp_path / "m.csv")]),
        ("verify", ["verify", "--no-header-timestamp", "--out", str(tmp_path / "v.json")]),
    ], watched=WATCHED + ("hashlib",))
    # simulate and verify may load hashlib through numpy.random; import and solve never do
    hashed = {step: "hashlib" in loaded for step, (_, loaded) in report.items()}
    assert not hashed["import"] and not hashed["solve"]
    assert report == {step: [0, ["hashlib"] if hashed[step] else []]
                      for step in ("import", "solve", "simulate", "verify")}


def test_each_deferred_module_loads_on_its_own_path(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nreplications = 2\n")
    grid = ["simulate", *TINY_MODEL, "--policies", "delta", "--p-grid", "0.3", "0.7"]
    report = _probe([
        ("sequential", [*grid, "--out", str(tmp_path / "a.csv")]),
        ("config", [*grid, "--config", str(ini), "--out", str(tmp_path / "b.csv")]),
    ], threads="1")
    assert report["sequential"] == [0, []]
    assert report["config"] == [0, ["configparser"]]

    report = _probe([("parallel", [*grid, "--replications", "2",
                                   "--out", str(tmp_path / "c.csv")])], threads="2")
    rc, loaded = report["parallel"]
    assert rc == 0
    assert {"concurrent.futures", "concurrent.futures.process", "multiprocessing"} <= set(loaded)
    assert "configparser" not in loaded
