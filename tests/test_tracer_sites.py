"""The benchmark reaches into aoi_sched by name: its tracer wraps functions
where their callers look them up (perfbench/tracer.py), reads the results of
some of them, and its workloads pass CLI flags (perfbench/run.py).  Deleting
or renaming one of those names, fields or flags must fail here, not only in a
benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from aoi_sched.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_exists_and_is_restored(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    tr = tracer.Tracer()
    try:
        tr.install()  # a missing site raises KeyError
        installed = len(tr._originals)
    finally:
        restored = tr.restore()
    assert installed == len(tracer.SPAN_SITES) + len(tracer.LEAF_SITES)
    assert restored is True


@pytest.mark.parametrize("toy", [False, True])
def test_every_workload_argv_parses(monkeypatch, toy):
    run = _load("run", monkeypatch)
    for wl in run.WORKLOADS.values():
        args = build_parser().parse_args(wl.argv(42, toy) + ["--out", "x"])
        assert args.command == wl.command


def test_traced_toy_run_of_each_workload(monkeypatch, tmp_path):
    """Each workload's toy call runs under the tracer as a traced benchmark
    call does, and every per-layer metric and baseline figure computes from
    what the wrappers recorded."""
    tracer = _load("tracer", monkeypatch)
    run = _load("run", monkeypatch)
    for wl in run.WORKLOADS.values():
        tr = tracer.Tracer()
        tr.install()
        try:
            out = tmp_path / f"{wl.name}.{wl.ext}"
            rc = tr.span("cli.main", main)(wl.argv(7, True) + ["--out", str(out)])
        finally:
            restored = tr.restore()
        assert rc == 0, wl.name
        assert restored is True, wl.name
        metrics = tracer.layer_metrics(tr)
        assert metrics["cli.main.s"][0] > 0, wl.name
        if wl.command == "solve":  # the solve span's info and the report both count stage rows
            assert metrics["dp.states_total"][0] == json.loads(out.read_text())["states_total"]
        assert set(tracer.baseline_figures(tr)) == set(run.ROADMAP), wl.name


def test_every_workload_writes_its_golden_bytes(monkeypatch, tmp_path):
    """Each workload's full-size call, at the CLI's default seed when it is
    seeded, writes the bytes of its file in perfbench/golden/, which the
    benchmark checks before it times anything."""
    run = _load("run", monkeypatch)
    for wl in run.WORKLOADS.values():
        out = tmp_path / f"{wl.name}.{wl.ext}"
        assert main(wl.argv(run.DEFAULT_SEED, False) + ["--out", str(out)]) == 0, wl.name
        assert out.read_bytes() == (run.GOLDEN / out.name).read_bytes(), wl.name
