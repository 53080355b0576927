"""Self-check suite wiring, including the fault-injection negative controls."""

import json
from pathlib import Path

import pytest

from aoi_sched import verify
from aoi_sched.verify import check_prob_closure, run_suite

from .conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"

EXPECTED_ORDER = [
    "transition_prob_closure",
    "expected_age_sum_identity",
    "margin_decomposition",
    "success_prob_identity",
    "penultimate_stage_match",
    "gap_sign_and_bound",
    "gap_quadratic_scaling",
    "policy_eval_consistency",
]


@pytest.fixture(scope="module")
def clean_checks():
    """One clean run of the battery, shared by every test that reads it."""
    return run_suite()


@pytest.fixture(scope="module")
def fault_checks():
    """One run of the battery per fault: fault -> checks."""
    return {fault: run_suite(fault=fault) for fault in ("age-drift", "drop-event")}


def test_clean_run_passes_every_check(clean_checks):
    assert [c.name for c in clean_checks] == EXPECTED_ORDER
    assert all(not c.failed for c in clean_checks), [
        (c.name, c.detail) for c in clean_checks if c.failed
    ]


def test_age_drift_fault_is_caught(fault_checks):
    failed = {c.name for c in fault_checks["age-drift"] if c.failed}
    assert "expected_age_sum_identity" in failed


def test_drop_event_fault_is_caught(fault_checks):
    failed = {c.name for c in fault_checks["drop-event"] if c.failed}
    assert "transition_prob_closure" in failed


def test_scaling_check_not_applicable_without_positive_grid():
    checks = run_suite(scaling_p_grid=(0.0,))
    by_name = {c.name: c for c in checks}
    assert by_name["gap_quadratic_scaling"].status == "not-applicable"


def test_cli_verify_report(tmp_path):
    out = tmp_path / "verify.json"
    res = run_cli(["verify", "--no-header-timestamp", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["failed"] == []
    assert [c["name"] for c in rep["checks"]] == EXPECTED_ORDER
    assert all(c["status"] in {"pass", "skipped", "not-applicable"} for c in rep["checks"])


@pytest.fixture(scope="module")
def fault_runs(tmp_path_factory):
    """One `verify --inject-fault F` CLI run per fault at seed 42, the CLI's
    default seed: fault -> (CompletedProcess, report bytes)."""
    runs = {}
    for fault in ("age-drift", "drop-event"):
        out = tmp_path_factory.mktemp("verify") / f"{fault}.json"
        res = run_cli([
            "verify", "--no-header-timestamp", "--seed", "42", "--inject-fault", fault,
            "--out", str(out),
        ])
        runs[fault] = res, out.read_bytes()
    return runs


def test_cli_verify_fault_injection_exits_two(fault_runs):
    res, data = fault_runs["age-drift"]
    assert res.returncode == 2
    rep = json.loads(data)
    assert rep["fault_mode"] == "age-drift"
    assert "expected_age_sum_identity" in rep["failed"]


@pytest.mark.parametrize("fault", ["age-drift", "drop-event"])
def test_fault_injection_report_matches_golden(fault_runs, fault):
    """The negative-control reports keep their bytes: the detail strings and
    measured errors come straight from the faulty kernel."""
    res, data = fault_runs[fault]
    assert res.returncode == 2, res.stderr
    assert data == (GOLDEN / f"verify_seed42_{fault}.json").read_bytes()


def test_closure_check_looks_up_kernel_in_verify_module(monkeypatch):
    """The benchmark tracer counts kernel calls by wrapping
    aoi_sched.verify.enumerate_transitions, so the check must call it there,
    once per case."""
    calls = []
    kernel = verify.enumerate_transitions

    def counting(x, a, params):
        calls.append(x)
        return kernel(x, a, params)

    monkeypatch.setattr(verify, "enumerate_transitions", counting)
    assert not check_prob_closure(n_cases=50).failed
    assert len(calls) == 50
