"""Self-check suite wiring, including the fault-injection negative controls."""

import json
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from aoi_sched import dp, verify
from aoi_sched.model import (
    EMPTY,
    Action,
    InvalidState,
    ModelParams,
    enumerate_transitions,
    new_state,
)
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
    kernel = verify.transition_law

    def counting(scheduled, *columns):
        calls.append(len(scheduled))
        return kernel(scheduled, *columns)

    monkeypatch.setattr(verify, "transition_law", counting)
    monkeypatch.setattr(dp, "transition_law", None)  # a call from dp would fail
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


# --- the replay of default_rng's draws -------------------------------------

REPLAY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1,
                *np.random.default_rng(2101).integers(0, 2**63, 3).tolist()]
# ranges of integers(): no draw, small, rejection-heavy (2**31 + 1, 3 * 2**30)
# and the two widest, the last of which takes a bare 32-bit draw
RANGES = [1, 2, 3, 21, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]


def _script(seed: int, n_ops: int) -> list:
    """n_ops interleaved primitive calls, as (method, args) pairs."""
    pick = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        kind = pick.randrange(3)
        if kind == 0:
            ops.append(("random", ()))
        elif kind == 1:
            low = pick.randrange(-50, 50)
            ops.append(("integers", (low, low + pick.choice(RANGES))))
        else:
            ops.append(("shuffle", list(range(pick.randrange(9)))))
    return ops


def _play(rng, ops) -> list:
    out = []
    for name, args in ops:
        if name == "shuffle":
            args = list(args)
            rng.shuffle(args)
            out.append(args)
        else:
            out.append(np.asarray(getattr(rng, name)(*args)).tolist())
    return out


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_replay_matches_default_rng_call_for_call(seed):
    """Every primitive random_case uses, interleaved, gives default_rng's
    draws: a 32-bit draw's buffered high half survives random() calls."""
    ops = _script(seed, 1500)
    assert _play(verify._Pcg64Draws(seed), ops) == _play(np.random.default_rng(seed), ops)


@pytest.mark.parametrize("span", [2**31 + 1, 3 * 2**30])
def test_replay_rejects_as_lemire_does(span):
    """About one 32-bit draw in two (one in four) is rejected on these ranges;
    the replay rejects the same ones."""
    replay, ref = verify._Pcg64Draws(span), np.random.default_rng(span)
    draw32, used = replay._uint32, []
    replay._uint32 = lambda: used.append(1) or draw32()
    got = [replay.integers(0, span) for _ in range(400)]
    assert got == [int(ref.integers(0, span)) for _ in range(400)]
    assert len(used) > 1.1 * 400
    assert replay.random() == ref.random()


@pytest.mark.parametrize("ensure_holder, fault",
                         [(False, None), (True, "age-drift"), (True, "drop-event")])
@pytest.mark.parametrize("seed", [0, 43, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_draw_matches_random_case_on_default_rng(seed, ensure_holder, fault):
    """Each row of the column batch is, field by field, the object case that
    random_case draws on default_rng, padded to the widest N of the batch."""
    rng = np.random.default_rng(seed)
    expect = [scalar_kernel.random_case(rng, ensure_holder, fault) for _ in range(200)]
    got = verify._draw(200, seed, ensure_holder, fault)
    width = max(params.n_sources for params, _, _ in expect)
    assert got.fault == fault
    assert got.q.shape == got.g.shape == got.h.shape == (200, width)
    for i, (params, x, a) in enumerate(expect):
        n = params.n_sources
        assert (int(got.n[i]), int(got.d[i])) == (n, params.n_channels)
        assert float(got.p[i]).hex() == params.p.hex()
        assert [v.hex() for v in got.q[i, :n].tolist()] == [v.hex() for v in params.q]
        assert (tuple(got.g[i, :n].tolist()), tuple(got.h[i, :n].tolist())) == x
        assert got.scheduled[i] == a.scheduled
        assert got.q[i, n:].tolist() == [0.0] * (width - n)
        assert got.g[i, n:].tolist() == [EMPTY] * (width - n)
        assert got.h[i, n:].tolist() == [0] * (width - n)


def _valid_batch():
    """Three hand-made cases of N = 2, 1, 3 as one column batch."""
    return scalar_kernel.columns([
        (new_state((0, EMPTY), (1, 4)), Action((0,)), ModelParams(2, 1, 0.5, (0.3, 1.0), 2)),
        (new_state((2,), (5,)), Action((0,)), ModelParams(1, 3, 1.0, (0.0,), 2)),
        (new_state((EMPTY, 1, 0), (0, 2, 7)), Action((1, 2)),
         ModelParams(3, 2, 0.0, (1, 0, 0.5), 2)),
    ], "age-drift")


def _corrupted(column, i, j, value):
    """The valid batch with one entry of one column replaced."""
    cases = _valid_batch()
    if column == "scheduled":
        value = [*cases.scheduled[:i], value, *cases.scheduled[i + 1:]]
    elif column != "fault":
        array = getattr(cases, column).copy()
        array[(i, j) if array.ndim == 2 else i] = value
        value = array
    return verify.Cases(**{**vars(cases), column: value})


NAN = float("nan")


@pytest.mark.parametrize("column, i, j, value, error", [
    ("n", 1, None, 0, ValueError),
    ("d", 0, None, 0, ValueError),
    ("d", 2, None, -3, ValueError),
    ("p", 0, None, -0.25, ValueError),
    ("p", 1, None, 1.5, ValueError),
    ("p", 2, None, NAN, ValueError),
    ("q", 0, 1, 1.0000001, ValueError),
    ("q", 2, 0, -1e-300, ValueError),
    ("q", 1, 0, NAN, ValueError),
    ("fault", None, None, "bit-flip", ValueError),
    ("h", 2, 0, -1, InvalidState),
    ("g", 0, 1, -2, InvalidState),
    ("g", 1, 0, 5, InvalidState),
    ("g", 2, 2, 9, InvalidState),
    ("scheduled", 0, None, (1,), InvalidState),
    ("scheduled", 2, None, (0, 1), InvalidState),
])
def test_batch_validation_raises_what_the_object_path_raises(column, i, j, value, error):
    """Each rule of the batch validation rejects a batch broken in one entry
    with the class ModelParams, new_state or a scheduled empty buffer
    raises: ValueError for the instance, InvalidState for the state and the
    action.  The unbroken batch passes."""
    verify._validate(_valid_batch())
    with pytest.raises(ValueError) as info:
        verify._validate(_corrupted(column, i, j, value))
    assert info.type is error


def test_replay_refuses_what_it_cannot_match():
    replay = verify._Pcg64Draws(0)
    for low, high in ((0, 2**32 + 1), (0, 2**40), (5, 5)):
        with pytest.raises(ValueError):
            replay.integers(low, high)


# --- each bit-exact or scaling gate fails just past its threshold ----------


def _two_stage_table() -> dp.DPTable:
    """The optimal table of N = 1, d = 1, T = 2 from x = (g=[psi], h=[1]):
    both successors have h = 2, so V_2 = 2 and V_1 = 1 + 2 = 3, the closed
    form 2*cost + N + p*margin with margin 0."""
    x0 = new_state([EMPTY], [1])
    return dp.DPTable(
        2, None, False, x0,
        (np.array([[EMPTY, 1]]), np.array([[EMPTY, 2], [0, 2]])),
        (np.array([3.0]), np.array([2.0, 2.0])),
        (np.zeros((1, 1), dtype=bool),))


TWO_STAGE = ModelParams(1, 1, 0.5, (0.5,), 2)


def _nudged(table: dp.DPTable, t: int) -> dp.DPTable:
    """table with the first value of stage t raised by one ulp."""
    values = [v.copy() for v in table.values]
    values[t - 1][0] = np.nextafter(values[t - 1][0], np.inf)
    return replace(table, values=tuple(values))


def test_penultimate_stage_fails_on_one_ulp():
    """Kills the mutant that accepts a last-two-stage gap up to 1e-6."""
    opt = _two_stage_table()
    assert verify.check_penultimate_stage([(TWO_STAGE, opt, opt)]).status == "pass"
    res = verify.check_penultimate_stage([(TWO_STAGE, opt, _nudged(opt, 2))])
    assert res.status == "fail"
    assert res.measured["max_stage_gap"] == np.spacing(2.0)


def test_policy_eval_consistency_fails_on_one_ulp(monkeypatch):
    """Kills the mutant that accepts a re-evaluation error up to 1e-6.  The
    re-evaluation of the optimal policy returns its own table, one value
    nudged by one ulp."""
    opt = _two_stage_table()
    monkeypatch.setattr(verify, "solve_optimal", lambda params, x0: opt)
    monkeypatch.setattr(verify, "evaluate_policy", lambda policy, params, x0: policy.table)
    assert verify.check_policy_eval_consistency(TWO_STAGE).status == "pass"
    monkeypatch.setattr(verify, "evaluate_policy",
                        lambda policy, params, x0: _nudged(policy.table, 1))
    res = verify.check_policy_eval_consistency(TWO_STAGE)
    assert res.status == "fail"
    assert res.measured["max_abs_err"] == np.spacing(3.0)


def _root_only(value: float) -> SimpleNamespace:
    return SimpleNamespace(root_value=lambda: value)


def _recording_gap_tables(monkeypatch) -> list:
    """The p values of each gap_tables call verify makes, solved for real."""
    calls, solve = [], verify.gap_tables

    def record(params, x0, p_values):
        calls.append(list(p_values))
        return solve(params, x0, p_values)

    monkeypatch.setattr(verify, "gap_tables", record)
    return calls


@pytest.mark.parametrize("power, status", [(2.0, "pass"), (1.5, "fail")])
def test_gap_scaling_needs_quadratic_decay(monkeypatch, power, status):
    """Kills the mutant that passes any nonnegative log-log slope: gaps
    proportional to p**1.5 fail the 1.8 gate, and p**2 passes it."""
    monkeypatch.setattr(verify, "gap_tables", lambda params, x0, p_values: [
        [_root_only(1.0), _root_only(1.0 + 0.3 * p ** power)] for p in p_values])
    grid = verify.SCALING_P_GRID
    solved = verify.solve_gap_instances([replace(verify.SCALING_BASE, p=p) for p in grid])
    res = verify.check_gap_scaling(solved, grid)
    assert res.status == status
    assert res.measured["slope"] == pytest.approx(power)


def test_gap_scaling_needs_two_distinct_p(monkeypatch):
    """A grid that repeats one p has a single log p, so no slope: the check
    is not applicable, says why, and its p is never solved."""
    calls = _recording_gap_tables(monkeypatch)
    res = {c.name: c for c in run_suite(scaling_p_grid=(0.1, 0.1))}["gap_quadratic_scaling"]
    assert res.status == "not-applicable"
    assert res.detail == "fewer than two distinct positive p values"
    assert res.measured == {"p_grid": [0.1, 0.1]}
    assert calls == [[0.5], [0.3, 0.7], [0.6], [0.9]]


def test_gap_scaling_solves_each_distinct_p_once(monkeypatch):
    """The grid's distinct positive p values join the gap instances equal to
    SCALING_BASE but for p in one gap_tables call, whose six points share
    one forward pass, the margin policy's tables riding the optimal ones:
    four instance groups, one pass each, and the two solves of
    policy_eval_consistency."""
    calls = _recording_gap_tables(monkeypatch)
    passes, forward = [], dp._forward
    monkeypatch.setattr(dp, "_forward", lambda params, *a: passes.append(params) or forward(
        params, *a))
    res = {c.name: c for c in run_suite(scaling_p_grid=(0.2, 0.1, 0.2, 0.0, 0.1))}
    assert calls == [[0.5], [0.3, 0.7, 0.2, 0.1], [0.6], [0.9]]
    assert len(passes) == len(calls) + 2
    scaling = res["gap_quadratic_scaling"]
    assert scaling.measured["p_grid"] == [0.2, 0.1]
    assert scaling.detail.endswith("over 2 points (need >= 1.8)")
