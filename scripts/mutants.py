#!/usr/bin/env python3
"""Standing mutants: each one weakens a check or breaks a fast path, and a
named test must catch it.

Usage:
    python scripts/mutants.py

A mutant is (name, file, exact old text, new text, tests).  The script first
runs every mutant's tests on an unmutated copy of the source tree, which must
pass.  Then, for each mutant, it copies the tree into a temporary directory,
replaces the old text (found exactly once) by the new one and runs pytest on
the mutant's tests there.  A mutant is killed when a test fails.
Exit status: 0 when every mutant is killed, 1 when one survives, 2 when the
unmutated copy fails, an old text is not found exactly once, or pytest stops
without running the tests.

Each mutant costs a pytest process, a few seconds, so the suite itself only
checks that every old text still occurs once (tests/test_scripts.py).  A
change that adds a check or a fast path adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "scripts", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, one of which must fail


MUTANTS = (
    Mutant("gap-scaling-any-slope", "src/aoi_sched/verify.py",
           'status = "pass" if slope >= 1.8 else "fail"',
           'status = "pass" if slope >= 0.0 else "fail"',
           ("tests/test_verify.py::test_gap_scaling_needs_quadratic_decay",)),
    Mutant("penultimate-gap-tolerant", "src/aoi_sched/verify.py",
           "ok = worst_eq == 0.0 and worst_form <= VALUE_TOL",
           "ok = worst_eq <= 1e-6 and worst_form <= VALUE_TOL",
           ("tests/test_verify.py::test_penultimate_stage_fails_on_one_ulp",)),
    Mutant("policy-eval-tolerant", "src/aoi_sched/verify.py",
           'status = "pass" if worst == 0.0 else "fail"',
           'status = "pass" if worst <= 1e-6 else "fail"',
           ("tests/test_verify.py::test_policy_eval_consistency_fails_on_one_ulp",)),
    Mutant("bound-c1-off-by-one", "src/aoi_sched/dp.py",
           "c1n = (1.0 + pd) * c1 + 2.0 * (j - 1) * d",
           "c1n = (1.0 + pd) * c1 + 2.0 * j * d",
           ("tests/test_dp.py::TestBoundConstants::test_hand_recursion_depth_three",)),
    Mutant("gap-z-over-p", "src/aoi_sched/dp.py",
           "z = diff / p_pd if p_pd > 0.0 else None",
           "z = diff / params.p if p_pd > 0.0 else None",
           ("tests/test_dp.py::TestOptimalityGap::test_fields_cross_check",)),
    Mutant("backward-last-minimum", "src/aoi_sched/dp.py",
           "win = q < best[idx]",
           "win = q <= best[idx]",
           ("tests/test_dp.py::TestSolveOptimal::test_ties_resolve_to_the_first_action",
            "tests/test_dp.py::test_tables_match_frozen_digests")),
    Mutant("backward-stale-mask-bits", "src/aoi_sched/dp.py",
           "mask = np.zeros(n, dtype=bool)\n"
           "                mask[list(a)] = True\n"
           "                act[idx[win]] = mask",
           "act[np.ix_(idx[win], list(a))] = True",
           ("tests/test_dp.py::test_decisions_are_scheduled_masks",)),
    Mutant("exact-sum-first-term-start", "src/aoi_sched/dp.py",
           "at = ((terms == terms.max(axis=0)).argmax(axis=0), np.arange(cols))",
           "at = (np.zeros(cols, dtype=np.intp), np.arange(cols))",
           ("tests/test_exact_sum.py::test_crafted_columns_match_fsum",)),
    Mutant("exact-sum-loose-certificate", "src/aoi_sched/dp.py",
           "spread > 54",
           "spread > 60",
           ("tests/test_exact_sum.py::test_certificate_edge_is_exact",)),
    Mutant("exact-sum-no-finite-guard", "src/aoi_sched/dp.py",
           "bad = ~np.isfinite(total) | (lo < 0.0)",
           "bad = (lo < 0.0)",
           ("tests/test_exact_sum.py::test_overflow_raises_as_fsum_does",)),
    Mutant("grid-gate-counts-events", "src/aoi_sched/dp.py",
           "np.array_equal(ev.delivered, laws[a].delivered)\n"
           "                   and np.array_equal(ev.arrived, laws[a].arrived)",
           "len(ev.pr) == len(laws[a].pr)",
           ("tests/test_dp_grid.py::test_gate_starts_a_pass_only_for_other_event_rows",)),
    Mutant("moves-in-insertion-order", "src/aoi_sched/dp.py",
           "for a in sorted(merged):",
           "for a in merged:",
           ("tests/test_dp_differential.py::"
            "test_ties_keep_enumerate_actions_order_across_holder_sets",)),
    Mutant("mask-columns-reversed", "src/aoi_sched/dp.py",
           "np.flatnonzero(row).tolist()",
           "np.flatnonzero(row[::-1]).tolist()",
           ("tests/test_dp_differential.py::test_mask_groups_match_numpy_unique",
            "tests/test_dp.py::test_tables_match_frozen_digests")),
    Mutant("row-words-summed", "src/aoi_sched/dp.py",
           "code = hi * n_lo + lo",
           "code = hi + lo",
           ("tests/test_dp_differential.py::test_unique_rows_match_numpy_unique",)),
    Mutant("rider-reaches-from-every-row", "src/aoi_sched/dp.py",
           "reach = np.zeros((len(nxt), width), dtype=bool)",
           "reach = np.ones((len(nxt), width), dtype=bool)",
           ("tests/test_dp_grid.py::test_evaluate_matches_evaluate_policy",
            "tests/test_dp.py::test_tables_match_frozen_digests")),
    Mutant("rider-keeps-old-cursor", "src/aoi_sched/dp.py",
           "goes = after[idx[j], col]",
           "goes = col",
           ("tests/test_dp_grid.py::test_evaluate_matches_evaluate_policy",
            "tests/test_dp_grid.py::test_rr_rider_matches_dict_solver",
            "tests/test_dp.py::test_tables_match_frozen_digests")),
    Mutant("rider-reads-optimal-values", "src/aoi_sched/dp.py",
           "rides[-1][stage_blocks[k][2][j], after[:, None]]",
           "nxt[stage_blocks[k][2][j]]",
           ("tests/test_dp_grid.py::test_evaluate_matches_evaluate_policy",
            "tests/test_dp.py::test_tables_match_frozen_digests")),
    Mutant("own-pass-cap-counts-states", "src/aoi_sched/dp.py",
           "total += len(nxt) if optimal else int(reach.sum())",
           "total += len(nxt)",
           ("tests/test_dp_grid.py::test_own_pass_cap_counts_the_policys_keys",)),
    Mutant("replay-high-half-first", "src/aoi_sched/verify.py",
           "((w := words[k]) & U) * span, w >> 32, k + 1)",
           "((w := words[k]) >> 32) * span, w & U, k + 1)",
           ("tests/test_verify.py::test_draw_matches_random_case_on_default_rng",)),
    Mutant("lemire-rejects-below-span", "src/aoi_sched/verify.py",
           "while m & 0xFFFFFFFF < 2**32 % span:",
           "while m & 0xFFFFFFFF < span:",
           ("tests/test_verify.py::test_parse_matches_the_replay_on_crafted_words",)),
    Mutant("validation-drops-g-below-h", "src/aoi_sched/verify.py",
           "~((g >= 0) & (g < h))",
           "~(g >= 0)",
           ("tests/test_verify.py::test_batch_validation_raises_what_the_object_path_raises",)),
    Mutant("draw-pads-q-with-one", "src/aoi_sched/verify.py",
           "q, g, h = [0.0] * size,",
           "q, g, h = [1.0] * size,",
           ("tests/test_verify.py::test_draw_matches_random_case_on_default_rng",)),
    Mutant("margin-split-repeats-by-d", "src/aoi_sched/verify.py",
           "per = np.repeat(own, n_actions)",
           "per = np.repeat(own, cases.d)",
           ("tests/test_verify.py::test_batched_checks_match_scalar_loops",)),
    Mutant("drop-event-drops-any-full-side", "src/aoi_sched/model.py",
           "!= k) | (arrived.sum(axis=1)",
           "!= k) & (arrived.sum(axis=1)",
           ("tests/test_kernel.py::test_batched_kernel_matches_event_reference",)),
    Mutant("idle-base-one-minus-p", "src/aoi_sched/model.py",
           "pr.append(1.0)",
           "pr.append(1.0 - pi)",
           ("tests/test_verify.py::test_batched_checks_match_scalar_loops",)),
    Mutant("age-drift-steps-one", "src/aoi_sched/model.py",
           '1 + (fault == "age-drift")',
           "1",
           ("tests/test_kernel.py::test_kernel_matches_event_reference",)),
    Mutant("fsums-stops-at-last-row", "src/aoi_sched/model.py",
           "np.arange(1, self.cases + 1)",
           "np.arange(1, self.case.max(initial=-1) + 2)",
           ("tests/test_kernel.py::test_batched_margin_decompositions_match_event_reference",)),
    Mutant("rr-cursor-initial-zero", "src/aoi_sched/policies.py",
           "where=mask, initial=-1)",
           "where=mask, initial=0)",
           ("tests/test_policies.py::test_stacked_index_rule_matches_each_rows_policy",
            "tests/test_simulate.py::test_workload_shaped_block_matches_scalar_episodes")),
    Mutant("cursor-moves-every-row", "src/aoi_sched/policies.py",
           "        moved *= self.cyclic\n",
           "",
           ("tests/test_policies.py::test_stacked_index_rule_matches_each_rows_policy",
            "tests/test_simulate.py::test_workload_shaped_block_matches_scalar_episodes")),
    Mutant("selection-keeps-non-holders", "src/aoi_sched/policies.py",
           "    mask &= holders\n",
           "",
           ("tests/test_policies.py::test_decide_batch_matches_reference_rules",
            "tests/test_simulate.py::test_workload_shaped_block_matches_scalar_episodes")),
    Mutant("strict-rr-steps-one", "src/aoi_sched/policies.py",
           "(cursor + self.d) % n",
           "(cursor + 1) % n",
           ("tests/test_policies.py::TestRRDecide::test_strict_advances_by_channel_count",
            "tests/test_policies.py::test_decide_batch_matches_reference_rules")),
    Mutant("cursor-distances-flipped", "src/aoi_sched/policies.py",
           "(sources - sources[:, None]) % n",
           "(sources[:, None] - sources) % n",
           ("tests/test_policies.py::TestRRDecide::test_wraparound",
            "tests/test_policies.py::test_stacked_index_rule_matches_each_rows_policy")),
    Mutant("success-unmasked", "src/aoi_sched/simulate.py",
           "        success &= sched\n",
           "",
           ("tests/test_simulate.py::test_workload_shaped_block_matches_scalar_episodes",
            "tests/test_simulate.py::test_batched_engine_matches_scalar_episodes")),
    Mutant("advance-skips-every-int-step", "src/aoi_sched/model.py",
           "isinstance(step, int) and step == 1",
           "isinstance(step, int)",
           ("tests/test_kernel.py::test_advance_matches_apply_transition",)),
    Mutant("sweep-q-file-label", "src/aoi_sched/config.py",
           'Axis("q_spec", "q", "q_spec", "q_grid")',
           'Axis("q_spec", "q_spec", "q_spec", "q_grid")',
           ("tests/test_cli.py::test_sweep_files_match_frozen_golden",)),
    Mutant("grid-order-t-inside-q", "src/aoi_sched/config.py",
           "        for t in ts\n"
           "        for q in qs\n",
           "        for q in qs\n"
           "        for t in ts\n",
           ("tests/test_config.py::test_grid_expansion_order",)),
)


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.path).read_text().count(mutant.old)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", ".work")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests) -> int:
    """pytest's exit code for tests run in tree, importing only tree/src."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def run_mutant(mutant: Mutant) -> int:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        return run_tests(tree, mutant.tests)


def main() -> int:
    stale = [m.name for m in MUTANTS if occurrences(m) != 1]
    if stale:
        print(f"old text not found exactly once: {stale}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        copy_tree(Path(tmp))
        rc = run_tests(Path(tmp), sorted({t for m in MUTANTS for t in m.tests}))
    if rc != 0:
        print(f"the unmutated tree fails the mutants' tests (pytest exit {rc})", file=sys.stderr)
        return 2
    survived, broken = [], []
    for m in MUTANTS:
        t = time.perf_counter()
        rc = run_mutant(m)
        verdict = {0: "SURVIVED", 1: "killed"}.get(rc, f"pytest exit {rc}")
        print(f"{verdict:<10} {m.name} ({time.perf_counter() - t:.1f} s)", flush=True)
        if rc == 0:
            survived.append(m.name)
        elif rc != 1:
            broken.append(m.name)
    if broken:
        print(f"pytest did not run the tests of: {broken}", file=sys.stderr)
        return 2
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
