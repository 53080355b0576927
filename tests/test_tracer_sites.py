"""The benchmark's tracer wraps aoi_sched functions by name where their
callers look them up (perfbench/tracer.py); deleting or renaming one of those
names must fail here, not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_site_exists_and_is_restored(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    try:
        tr.install()  # a missing site raises KeyError
        installed = len(tr._originals)
    finally:
        restored = tr.restore()
    assert installed == len(tracer.SPAN_SITES) + len(tracer.LEAF_SITES)
    assert restored is True
