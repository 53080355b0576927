"""Closed-loop calls of ``aoi_sched.cli.main`` in one fresh process.

Usage: python3 perfbench/worker.py '<job JSON>'

The job is ``{"argv": [...], "out_dir": DIR, "ext": "csv"|"json",
"seconds": S, "trace": true|false}``.  The worker imports the package from
the ``src/`` directory next to this benchmark (and from nowhere else), then
calls ``main(argv + ["--out", DIR/<i>.<ext>])`` one call after another until
S seconds have passed, at least once.  With ``trace`` the tracer is
installed before and removed after each call.

The last stdout line is a JSON object: the import time, numpy's version,
the process's peak RSS and one entry per call (wall time, exit code, output
path and, when traced, the per-layer metrics).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def timed_call(main, argv: list[str], trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.span("cli.main", main)
    t = time.perf_counter()
    try:
        rc = main(argv)
    finally:
        wall_s = time.perf_counter() - t
        restored = tracer.restore() if tracer is not None else None
    call = {"wall_s": wall_s, "rc": rc, "traced": trace}
    if tracer is not None:
        from tracer import baseline_figures, layer_metrics, leaf_table

        call.update(restored=restored, layers=layer_metrics(tracer),
                    baseline=baseline_figures(tracer), leaf_paths=leaf_table(tracer))
    return call


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import aoi_sched.cli as cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"aoi_sched was imported from {cli.__file__}, not from {SRC}")
    import numpy

    calls: list[dict] = []
    deadline = time.monotonic() + job["seconds"]
    while not calls or time.monotonic() < deadline:
        out = str(Path(job["out_dir"]) / f"{len(calls)}.{job['ext']}")
        call = timed_call(cli.main, job["argv"] + ["--out", out], job["trace"])
        call["out"] = out
        calls.append(call)
    print(json.dumps({
        "import_s": import_s,
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": calls,
    }))


if __name__ == "__main__":
    main()
