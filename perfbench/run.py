"""Benchmark of the aoi-sched command line, one workload per run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is one CLI command,
called in-process through ``aoi_sched.cli.main(argv)`` by one fresh worker
process (worker.py) in a closed loop with a single caller: the next call
starts only after the previous one returned.  AOI_SCHED_THREADS is unset, so
the program runs sequentially, and BLAS threads are pinned to 1.

The seed goes to the program as ``--seed``; the program receives nothing
else from the benchmark.  ``exact_gap`` has no random input, so its argv is
the same at every seed.

Per run:

1. untimed check, for seeded workloads: one call at the CLI's default seed
   (42), whose data file must equal the golden bytes in golden/;
2. timed calls until ``--seconds`` have passed, in a few fresh worker
   processes one after another.  With ``--trace 1`` untraced and traced
   processes alternate; the traced calls give the per-layer metrics and must
   write the same bytes as the untraced ones.

``setup_s`` is the median import time of ``aoi_sched.cli`` (numpy
included) over every worker process of the run; the processes are spread
over the run so that the samples are too.

``wall_s`` is the fastest untraced call of the run.  On the shared 2-vCPU
virtual machine this benchmark was written on, other tenants slow a call by
up to 2x, in bursts of seconds and in phases of minutes; the noise only ever
adds time, and over 20 s windows the fastest call varied about half as much
as the median call.  The phases of minutes remain in every estimate.  The
info line lists every call's time and their median.

Every data file written is checked.  The last stdout line is the result
object; the line before it holds the run's details (machine facts, every
call's time, throughput, the ROADMAP baseline comparison).  The run exits 2
without a result when the checkout has no ``src/aoi_sched``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
DEFAULT_SEED = 42  # the CLI's own default --seed
SEGMENTS = 6  # worker processes the timed window is divided between
POLICIES = ("delta", "pi", "rr")
WORKER_TIMEOUT_S = 150

# exact_gap's solve report, frozen from the commit that added this benchmark
EXACT_STATES_TOTAL = 2404
EXACT_ROOT_VALUES = {
    "v_star": 32.8739459375,
    "v_delta": 32.8956404375,
    "delta": 32.8956404375,
    "pi": 33.63850025,
    "rr": 34.1234973125,
}

# ROADMAP baseline figures (2 vCPUs, shared machine, single runs), each with
# the workload that runs a comparable instance and how the two differ.
ROADMAP = {
    "delta_slot_us": (
        39.0, "mc_long_horizon",
        "ROADMAP: untraced, N=30 d=3 delta; here: traced run_experiment time of delta "
        "per decided slot, the tracer wrapping two calls per slot"),
    "kernel_share_of_solve": (
        0.89, "exact_gap",
        "ROADMAP: cProfile at N=3 d=1 T=8; here: enumerate_transitions time inside "
        "solve_optimal, timed by the tracer at N=2 T=7"),
    "kernel_calls_per_state": (
        252_000 / 141_938, "exact_gap",
        "ROADMAP: N=3 d=1 T=8; here: enumerate_transitions calls inside solve_optimal "
        "per tabulated state at N=2 T=7"),
}


def _model_flags(n, d, p, horizon):
    return ["--n-sources", str(n), "--n-channels", str(d), "--p", str(p),
            "--q", "uniform:0.5", "--horizon", str(horizon),
            "--policies", ",".join(POLICIES)]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple
    toy_flags: tuple
    ext: str
    seeded: bool

    def argv(self, seed: int, toy: bool) -> list[str]:
        argv = [self.command, "--no-header-timestamp", *(self.toy_flags if toy else self.flags)]
        return argv + (["--seed", str(seed)] if self.seeded else [])

    def flag(self, name: str, toy: bool) -> int:
        flags = list(self.toy_flags if toy else self.flags)
        return int(flags[flags.index(name) + 1])


# Why each workload was chosen is in BENCHMARK.json.  Sizes keep one call
# short (0.2-0.5 s; verify's suite is fixed at about 2.5 s) so that a run
# holds many calls.
WORKLOADS = {w.name: w for w in (
    Workload("mc_long_horizon", "simulate",
             tuple(_model_flags(30, 3, 0.9, 1000) + ["--replications", "4"]),
             tuple(_model_flags(6, 2, 0.9, 50) + ["--replications", "2"]),
             "csv", True),
    Workload("exact_gap", "solve",
             tuple(_model_flags(2, 1, 0.6, 7)),
             tuple(_model_flags(2, 1, 0.6, 4)),
             "json", False),
    Workload("verify_suite", "verify", (), (), "json", True),
)}


class Checks:
    """Output checks of one run; their count and failures feed the result."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def run_worker(argv: list[str], out_dir: Path, ext: str,
               seconds: float = 0.0, trace: bool = False) -> dict:
    """Run one worker process to completion and return its result object."""
    env = {k: v for k, v in os.environ.items() if k != "AOI_SCHED_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out_dir.mkdir(parents=True)
    job = {"argv": argv, "out_dir": str(out_dir), "ext": ext, "seconds": seconds,
           "trace": trace}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=seconds + WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode} for argv {argv}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- output checks ---------------------------------------------------------

def check_sim_rows(data: bytes, wl: Workload, toy: bool, checks: Checks) -> None:
    """One well-formed row per policy with the configured sizes."""
    reps = wl.flag("--replications", toy)
    horizon = wl.flag("--horizon", toy)
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        ok = [r["policy"] for r in rows] == list(POLICIES) and all(
            int(r["replications"]) == reps
            and int(r["N"]) == wl.flag("--n-sources", toy)
            and int(r["T"]) == horizon
            and float(r["mean_total_cost"]) > 0
            and 0 < float(r["stderr"]) < math.inf
            and math.isclose(float(r["mean_sum_aaoi"]),
                             float(r["mean_total_cost"]) / horizon, rel_tol=1e-5)
            for r in rows)
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        checks.expect(False, f"{wl.name}: malformed CSV ({exc})")
        return
    checks.expect(ok, f"{wl.name}: rows malformed or sizes wrong")


def check_solve_report(data: bytes, toy: bool, checks: Checks) -> None:
    try:
        rep = json.loads(data)
        values = {"v_star": rep["v_star"], "v_delta": rep["v_delta"], **rep["policy_values"]}
        ok = rep["bound_holds"] is True and rep["states_total"] > 0
        if not toy:
            ok = ok and rep["states_total"] == EXACT_STATES_TOTAL and all(
                abs(values[k] - v) <= 1e-9 for k, v in EXACT_ROOT_VALUES.items())
    except (KeyError, TypeError, ValueError) as exc:
        checks.expect(False, f"exact_gap: malformed report ({exc})")
        return
    checks.expect(ok, "exact_gap: states_total, root values or bound_holds differ "
                      "from the frozen report")


def check_verify_report(data: bytes, checks: Checks) -> None:
    try:
        rep = json.loads(data)
        ok = rep["failed"] == []
    except (KeyError, TypeError, ValueError):
        ok = False
    checks.expect(ok, "verify_suite: a check failed or the report is malformed")


def check_call(wl: Workload, call: dict, toy: bool, checks: Checks) -> bytes:
    """Check one call's exit code and data file; return the file's bytes."""
    data = Path(call["out"]).read_bytes()
    if checks.expect(call["rc"] == 0, f"{wl.name}: main returned {call['rc']}"):
        if wl.command == "simulate":
            check_sim_rows(data, wl, toy, checks)
        elif wl.command == "solve":
            check_solve_report(data, toy, checks)
        else:
            check_verify_report(data, checks)
    return data


def check_golden(wl: Workload, data: bytes, checks: Checks) -> None:
    golden = (GOLDEN / f"{wl.name}.{wl.ext}").read_bytes()
    checks.expect(data == golden, f"{wl.name}: data file differs from golden/"
                                  f"{wl.name}.{wl.ext} at seed {DEFAULT_SEED}")


# -- run -------------------------------------------------------------------

def machine_facts() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the checkout need not be a git repository
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def work_rates(wl: Workload, toy: bool, wall_s: float, data: bytes) -> dict:
    """Work per second of wall_s, in the workload's own unit."""
    if wl.command == "simulate":
        episodes = len(POLICIES) * wl.flag("--replications", toy)
        slots = episodes * (wl.flag("--horizon", toy) - 1)
        return {"slots_per_s": slots / wall_s, "episodes_per_s": episodes / wall_s}
    if wl.command == "solve":
        return {"states_per_s": json.loads(data)["states_total"] / wall_s}
    return {}


def baseline_comparison(wl: Workload, measured: dict) -> list[dict]:
    """Traced figures beside the ROADMAP baseline figures they correspond to."""
    rows = []
    for key, (roadmap, workload, note) in ROADMAP.items():
        if workload == wl.name and measured[key] is not None:
            ratio = measured[key] / roadmap
            rows.append({"figure": key, "roadmap": roadmap, "measured": measured[key],
                         "ratio": ratio, "agrees_within_25pct": abs(ratio - 1) <= 0.25,
                         "note": note})
    return rows


def run(wl: Workload, seed: int, seconds: float, trace: bool, toy: bool) -> tuple[dict, dict]:
    checks = Checks()
    info: dict = {"workload": wl.name, "seed": seed, "trace": trace, "toy": toy,
                  "loadavg_start": os.getloadavg(), **machine_facts()}
    work = HERE / ".work"
    shutil.rmtree(work, ignore_errors=True)
    workers: list[dict] = []
    try:
        if wl.seeded and not toy:
            workers.append(run_worker(wl.argv(DEFAULT_SEED, toy), work / "golden", wl.ext))
            data = check_call(wl, workers[-1]["calls"][0], toy, checks)
            check_golden(wl, data, checks)

        # Timed calls run in segments, one fresh process each, so that the
        # set-up samples (one per process) spread over the whole run.
        segments: list[dict] = []
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(segments) < 1 + trace:
            traced = trace and len(segments) % 2 == 1
            segments.append(run_worker(
                wl.argv(seed, toy), work / f"seg{len(segments)}", wl.ext,
                min(seconds / SEGMENTS, max(deadline - time.monotonic(), 0.0)), traced))
        workers += segments
        first = None
        for call in (c for seg in segments for c in seg["calls"]):
            data = check_call(wl, call, toy, checks)
            if not wl.seeded and not toy:
                check_golden(wl, data, checks)
            first = data if first is None else first
            if call["traced"]:
                checks.expect(data == first,
                              f"{wl.name}: a traced call wrote other bytes than untraced")
                checks.expect(call["restored"] is True,
                              f"{wl.name}: a wrapped name was not restored")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = [c for seg in segments for c in seg["calls"]]
    untraced = [c["wall_s"] for c in calls if not c["traced"]]
    traced = sorted((c for c in calls if c["traced"]), key=lambda c: c["wall_s"])
    setup = [w["import_s"] for w in workers]
    wall_s = min(untraced)
    info.update({
        "numpy": segments[0]["numpy"],
        "calls": len(untraced),
        "segments": len(segments),
        "wall_s_median": statistics.median(untraced),
        "wall_s_each": untraced,
        "setup_s_each": setup,
        "rates": work_rates(wl, toy, wall_s, first),
        "error_rate": len(checks.failures) / checks.attempted,
        "loadavg_end": os.getloadavg(),
    })
    if trace:
        fastest = traced[0]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in fastest["layers"].items()}
        metrics["trace.overhead_s"] = {"value": fastest["wall_s"] - wall_s, "unit": "s"}
        info["traced_wall_s_each"] = [c["wall_s"] for c in traced]
        info["roadmap_baseline"] = baseline_comparison(wl, fastest["baseline"])
        info["leaf_calls_by_span_path"] = fastest["leaf_paths"]
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(s["peak_rss_mb"] for s in segments), "unit": "MB"},
        }
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy-sized instances without golden checks (self-test only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "aoi_sched" / "cli.py").is_file():
        print(f"no aoi_sched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    info, result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), args.toy)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
