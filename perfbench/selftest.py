"""Fast self-test of the benchmark (not part of the project's test suite).

Usage: python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and asserts that each
end-to-end and per-layer metric named in BENCHMARK.json is emitted with its
unit, that every output check passed, and that the MC workloads made no
transition-kernel calls.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    assert "info" in json.loads(lines[-2])
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(wl["name"], trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, sorted(set(got.items()) ^ set(want.items()))
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
            if trace and wl["name"].startswith("mc_"):
                assert res["metrics"]["model.enumerate_transitions.calls"]["value"] == 0
            print(f"ok {wl['name']} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
