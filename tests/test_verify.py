"""Self-check suite wiring, including the fault-injection negative controls."""

import json
from pathlib import Path

import pytest

from aoi_sched import dp, verify
from aoi_sched.model import enumerate_transitions
from aoi_sched.verify import check_prob_closure, run_suite

from . import scalar_kernel
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
    """drop-event leaves an event out of every law the kernel emits, so both
    the closure and the margin split, which reads the acted and the idle
    laws, must fail."""
    failed = {c.name for c in fault_checks["drop-event"] if c.failed}
    assert "transition_prob_closure" in failed
    assert "margin_decomposition" in failed


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
    """Each randomized check draws all of its cases first and expands them in
    one call of the batched kernel, looked up in aoi_sched.verify.  The
    one-case enumerate_transitions stays importable from aoi_sched.verify and
    aoi_sched.dp, where the benchmark tracer wraps it."""
    assert verify.enumerate_transitions is dp.enumerate_transitions is enumerate_transitions
    calls = []
    kernel = verify.transition_events

    def counting(cases):
        calls.append(len(cases))
        return kernel(cases)

    monkeypatch.setattr(verify, "transition_events", counting)
    monkeypatch.setattr(dp, "transition_events", None)  # a call from dp would fail
    assert not check_prob_closure(n_cases=50).failed
    assert calls == [50]
    assert not verify.check_age_sum_identity(n_cases=40).failed
    assert calls[1:] == [40]
    assert not verify.check_margin_split(n_cases=30).failed
    # each case's action and its idle instance, then one idle instance per action
    assert len(calls) == 3 and calls[2] >= 3 * 30


@pytest.mark.parametrize("fault", [None, "age-drift", "drop-event"])
@pytest.mark.parametrize("seed", [7, 42, 301])
def test_batched_checks_match_scalar_loops(fault, seed):
    """The batched checks report what drawing and evaluating one case at a
    time on the scalar reference kernel reports, to the last bit."""
    def as_hex(measured):
        return {k: v.hex() if isinstance(v, float) else v for k, v in measured.items()}

    pairs = [
        (verify.check_prob_closure, scalar_kernel.prob_closure_measured, 60),
        (verify.check_age_sum_identity, scalar_kernel.age_sum_identity_measured, 60),
        (verify.check_margin_split, scalar_kernel.margin_split_measured, 40),
    ]
    for check, loop, n_cases in pairs:
        got = check(n_cases=n_cases, seed=seed, fault=fault).measured
        assert as_hex(got) == as_hex(loop(n_cases, seed, fault)), check.__name__
