"""`dp.gap_tables`, whose points share forward passes, against one
`solve_optimal` and one `evaluate_policy(DeltaPolicy)` per point; and the
riders of `solve_optimal`, policies whose keys are swept over the optimal
pass's moves and summed in its backward induction, against the dict
reference solver (`tests/dict_solver.py`).  Riders and a policy's own pass
share the sweep, so the riders are checked against that independent
reference, not against `evaluate_policy`.

Every table of the grid must have the stage rows, the scheduled masks and,
byte for byte, the values of its separate solve.  The gate cases are the
points whose laws have other event rows than the pass they would join:
p = 0, p = 1 and an underflowing p**k; each must start a pass of its own.
"""

from dataclasses import replace

import numpy as np
import pytest

from aoi_sched import dp
from aoi_sched.dp import StateSpaceTooLarge, evaluate_policy, gap_tables, solve_optimal
from aoi_sched.model import EMPTY, FAULT_MODES, ModelParams, fresh_state, new_state
from aoi_sched.policies import DeltaPolicy, OptimalPolicy, PIPolicy, RRPolicy, StrictRRPolicy

from . import dict_solver
from .test_dp import FROZEN_INSTANCES
from .test_dp_differential import same_tables

P_GRID = (0.3, 0.0, 0.05, 1.0, 0.3, 0.8)


def same_table(got, want) -> None:
    assert (got.horizon, got.policy_name, got.augmented, got.root_key) == (
        want.horizon, want.policy_name, want.augmented, want.root_key)
    assert len(got.stages) == len(want.stages) == len(got.values) == len(want.values)
    for t, (rows, ref) in enumerate(zip(got.stages, want.stages), 1):
        assert rows.dtype == ref.dtype and np.array_equal(rows, ref), t
    for t, (values, ref) in enumerate(zip(got.values, want.values), 1):
        assert values.tobytes() == ref.tobytes(), t
    assert len(got.decisions) == len(want.decisions)
    for t, (masks, ref) in enumerate(zip(got.decisions, want.decisions), 1):
        assert np.array_equal(masks, ref), t


def check_grid(params, x0, p_grid) -> None:
    grid = gap_tables(params, x0, p_grid)
    assert len(grid) == len(p_grid)
    for p, (opt, dtab) in zip(p_grid, grid):
        point = replace(params, p=p)
        same_table(opt, solve_optimal(point, x0))
        same_table(dtab, evaluate_policy(DeltaPolicy(params.n_channels), point, x0))


def forward_points(monkeypatch) -> list:
    """The p of each forward pass run from now on."""
    points, forward = [], dp._forward

    def counting(params, *args):
        points.append(params.p)
        return forward(params, *args)

    monkeypatch.setattr(dp, "_forward", counting)
    return points


@pytest.mark.parametrize("label, params, stale", FROZEN_INSTANCES,
                         ids=[label for label, _, _ in FROZEN_INSTANCES])
def test_grid_matches_separate_solves(monkeypatch, label, params, stale):
    """Three passes per start, at 0.3, 0.0 and 1.0, one forward pass each;
    at T = 1 no action is taken, so every point joins the first pass."""
    points = forward_points(monkeypatch)
    for x0 in (fresh_state(params.n_sources), stale):
        check_grid(params, x0, P_GRID)
    passes = [0.3] if params.horizon == 1 else [0.3, 0.0, 1.0]
    # each start: the grid's passes, then one pass per separate solve
    assert points == 2 * (passes + [p for p in P_GRID for _ in range(2)])


@pytest.mark.parametrize("fault", [f for f in FAULT_MODES if f])
def test_grid_matches_separate_solves_under_fault(fault):
    """The fault is the whole grid's, so it splits no pass."""
    for label, params, stale in FROZEN_INSTANCES[:2]:
        check_grid(replace(params, fault=fault), stale, P_GRID)


# (params, p grid, the p of each forward pass: one per pass, the optimal
# table's; the policy's table rides it)
GATE_CASES = {
    # p = 0 has no delivered row and p = 1 no failed one; each counts as many
    # events as the other, so a gate on event counts alone would merge them
    "p0-p1": (ModelParams(2, 1, 0.5, (0.5, 0.5), 5), P_GRID, [0.3, 0.0, 1.0]),
    "q-edges": (ModelParams(3, 1, 0.5, (1.0, 0.0, 0.5), 4), (0.2, 0.5, 0.9), [0.2]),
    # (1e-200)**2 underflows to 0.0, so the law of the pair drops a row
    "underflow": (ModelParams(2, 2, 0.5, (0.5, 0.5), 4), (0.3, 1e-200, 0.6), [0.3, 1e-200]),
    "one-point": (ModelParams(2, 1, 0.5, (0.5, 0.5), 5), (0.4,), [0.4]),
}


@pytest.mark.parametrize("case", GATE_CASES)
def test_gate_starts_a_pass_only_for_other_event_rows(monkeypatch, case):
    params, p_grid, passes = GATE_CASES[case]
    points = forward_points(monkeypatch)
    gap_tables(params, fresh_state(params.n_sources), p_grid)
    assert points == passes
    monkeypatch.undo()
    check_grid(params, fresh_state(params.n_sources), p_grid)


def test_one_pass_reads_later_laws_in_one_call(monkeypatch):
    """A pass reads its first point's laws one action per call, as a single
    solve does, and every later point's laws in one batched call; a one-point
    grid makes no batched call."""
    sizes, kernel = [], dp.transition_law

    def counting(scheduled, *columns):
        sizes.append(len(scheduled))
        return kernel(scheduled, *columns)

    monkeypatch.setattr(dp, "transition_law", counting)
    params, x0 = ModelParams(3, 2, 0.5, (0.5, 0.2, 0.9), 4), fresh_state(3)
    gap_tables(params, x0, (0.4,))
    actions = len(sizes)
    assert set(sizes) == {1}
    sizes.clear()
    gap_tables(params, x0, (0.4, 0.1, 0.7))
    assert sizes == [1] * actions + [2 * actions]


def counting(monkeypatch, *names) -> dict:
    """The number of calls of each named dp function from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapped(*args, _name=name, _f=getattr(dp, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(dp, name, wrapped)
    return calls


@pytest.mark.parametrize("fault", FAULT_MODES)
def test_evaluate_matches_evaluate_policy(monkeypatch, fault):
    """On every frozen-digest instance from both starts: the table of each
    rider (delta, pi, rr on (state, cursor) keys, and the optimal policy on
    its own table) and rr-strict's own-pass table equal the dict reference's
    evaluate_policy tables, the optimal table is the plain solve's, and the
    riders add no forward or backward pass."""
    for label, params, stale in FROZEN_INSTANCES:
        params = replace(params, fault=fault)
        d = params.n_channels
        for x0 in (fresh_state(params.n_sources), stale):
            plain = solve_optimal(params, x0)
            policies = (DeltaPolicy(d), PIPolicy(d), RRPolicy(d), OptimalPolicy(plain))
            calls = counting(monkeypatch, "_forward", "_backward")
            opt = solve_optimal(params, x0, riders=policies)
            assert calls == {"_forward": 1, "_backward": 1}, label
            monkeypatch.undo()
            same_table(opt, plain)
            assert len(opt.riders) == len(policies)
            strict = StrictRRPolicy(d)
            for policy, table in [*zip(policies, opt.riders),
                                  (strict, evaluate_policy(strict, params, x0))]:
                same_tables(table, dict_solver.evaluate_policy(policy, params, x0))


def test_forward_groups_every_row_kind_by_unique_rows(monkeypatch):
    """On exact_gap's instance with delta, pi and rr riding, _unique_rows runs
    three times per stage t < T, once each for the successor dedupe, the
    holder sets and the riders' picks, and np.unique at most three times
    per such stage: every row here fits one 8-byte word."""
    params, x0 = ModelParams(2, 1, 0.6, (0.5, 0.5), 7), fresh_state(2)
    calls = counting(monkeypatch, "_unique_rows")
    uniques, unique = [], np.unique

    def counted(*args, **kwargs):
        uniques.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    solve_optimal(params, x0, riders=(DeltaPolicy(1), PIPolicy(1), RRPolicy(1)))
    assert calls == {"_unique_rows": 3 * (params.horizon - 1)}
    assert len(uniques) <= 3 * (params.horizon - 1)


def test_own_pass_cap_counts_the_policys_keys():
    """A policy's own pass counts its keys against the cap, (state, cursor)
    pairs for rr and rr-strict, not its stage rows: on exact_gap's instance
    rr reaches 3152 keys and rr-strict 1901."""
    params, x0 = ModelParams(2, 1, 0.6, (0.5, 0.5), 7), fresh_state(2)
    for policy, keys in ((RRPolicy(1), 3152), (StrictRRPolicy(1), 1901)):
        table = evaluate_policy(policy, params, x0, cap=keys)
        assert sum(map(len, table.stages)) == keys
        with pytest.raises(StateSpaceTooLarge, match=f"^reachable set exceeds cap: {keys} > "):
            evaluate_policy(policy, params, x0, cap=keys - 1)


def test_rr_rider_matches_dict_solver():
    """The rr rider's (state, cursor) table against the dict reference."""
    for params, x0 in ((ModelParams(3, 1, 0.6, (0.2, 0.5, 0.9), 5), fresh_state(3)),
                       (ModelParams(3, 2, 0.7, (0.5, 0.5, 0.5), 4, fault="age-drift"),
                        new_state((1, EMPTY, 0), (3, 2, 4)))):
        policy = RRPolicy(params.n_channels)
        [table] = solve_optimal(params, x0, riders=[policy]).riders
        same_tables(table, dict_solver.evaluate_policy(policy, params, x0))


def test_evaluate_refuses_what_it_cannot_read():
    """A reached pick that no move of the optimal pass holds stops the solve,
    naming the policy and the stage."""
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 4)
    # a two-channel rule on one channel: the fresh root holds both packets,
    # and no move of it schedules both
    with pytest.raises(ValueError, match="'delta' picks at stage 1 an action no move holds"):
        solve_optimal(params, fresh_state(2), riders=[PIPolicy(1), DeltaPolicy(2)])
    # strict round-robin's cursor 0 points at source 0, which holds no packet
    # at the root, so it idles the channel while source 1 waits
    x0 = new_state((EMPTY, 0), (2, 1))
    with pytest.raises(ValueError, match="'rr-strict' picks at stage 1 an action no move holds"):
        solve_optimal(params, x0, riders=[RRPolicy(1), StrictRRPolicy(1)])
    # from the fresh root it first schedules source 0, a work-conserving
    # pick, and idles only at a later stage
    with pytest.raises(ValueError, match="'rr-strict' picks at stage [2-9] an action"):
        solve_optimal(params, fresh_state(2), riders=[StrictRRPolicy(1)])
