"""Exact solver: reachability, backward induction, policy evaluation, gap report."""

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from aoi_sched import dp
from aoi_sched.dp import (
    InvalidDepth,
    StateSpaceTooLarge,
    bound_constants,
    dump_table,
    evaluate_policy,
    optimality_gap,
    reachable_states,
    solve_optimal,
)
from aoi_sched.model import (
    EMPTY,
    Action,
    ModelParams,
    enumerate_actions,
    enumerate_transitions,
    fresh_state,
    new_state,
    success_probs,
)
from aoi_sched.policies import (
    DeltaPolicy,
    OptimalPolicy,
    PIPolicy,
    RRPolicy,
    StrictRRPolicy,
    make_policy,
)
from aoi_sched.verify import expected_age_sums

from . import dict_solver, reference
from .scalar_kernel import columns, min_schedule_margin, pair_law
from .test_kernel import split_margins
from .reference import stage_dicts

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestReachability:
    def test_single_source_layers(self):
        params = ModelParams(1, 1, 0.5, (0.5,), 2)
        layers = reachable_states(params, fresh_state(1))
        assert layers[0] == {fresh_state(1)}
        assert layers[1] == {
            new_state((0,), (1,)),   # delivered, new arrival
            new_state((EMPTY,), (1,)),
            new_state((0,), (2,)),   # failed, new arrival
            new_state((1,), (2,)),
        }

    def test_degenerate_probabilities_prune_support(self):
        params = ModelParams(1, 1, 1.0, (1.0,), 2)
        layers = reachable_states(params, fresh_state(1))
        assert layers[1] == {new_state((0,), (1,))}

    def test_cap_enforced(self):
        params = ModelParams(3, 1, 0.5, (0.5,) * 3, 6)
        # checked as each state is added, so the count stops one past the cap
        with pytest.raises(StateSpaceTooLarge, match=r"\b11 > 10$"):
            reachable_states(params, fresh_state(3), cap=10)


class TestSolveOptimal:
    def test_hand_rolled_deterministic_instance(self):
        # p=q=1: the single source is delivered fresh every slot, h stays 1
        params = ModelParams(1, 1, 1.0, (1.0,), 2)
        assert solve_optimal(params, fresh_state(1)).root_value() == 2.0

    def test_hand_rolled_three_stage_instance(self):
        # backward induction by hand over the four stage-2 states gives 4.5
        params = ModelParams(1, 1, 0.5, (0.5,), 3)
        assert solve_optimal(params, fresh_state(1)).root_value() == 4.5

    def test_terminal_stage_is_plain_cost(self):
        params = ModelParams(2, 1, 0.3, (0.5, 0.7), 4)
        table = solve_optimal(params, fresh_state(2))
        for x, (value, action) in stage_dicts(table)[params.horizon - 1].items():
            assert value == float(sum(x.h))
            assert action is None

    def test_bellman_consistency_at_root(self):
        params = ModelParams(2, 1, 0.6, (0.5, 0.5), 4)
        x0 = fresh_state(2)
        table = solve_optimal(params, x0)
        stage2 = stage_dicts(table)[1]
        best = min(
            math.fsum(
                pr * stage2[x2][0] for x2, pr in enumerate_transitions(x0, a, params)
            )
            for a in enumerate_actions(x0, params.n_channels)
        )
        assert abs(table.root_value() - (sum(x0.h) + best)) <= 1e-12

    def test_optimal_never_above_any_policy(self):
        params = ModelParams(2, 2, 0.45, (0.3, 0.8), 5)
        x0 = fresh_state(2)
        v_star = solve_optimal(params, x0).root_value()
        for pol in (
            DeltaPolicy(2),
            PIPolicy(2),
            RRPolicy(d=2),
            StrictRRPolicy(d=2),
        ):
            assert v_star <= evaluate_policy(pol, params, x0).root_value() + 1e-12

    def test_ties_resolve_to_the_first_action(self):
        # from the fresh state the two sources are symmetric, so scheduling
        # either ties exactly and the first in enumerate_actions order is kept
        params = ModelParams(2, 1, 0.6, (0.5, 0.5), 5)
        table = solve_optimal(params, fresh_state(2))
        assert stage_dicts(table)[0][table.root_key][1] == Action((0,))

    def test_larger_initial_ages_cost_more(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 4)
        v_fresh = solve_optimal(params, fresh_state(2)).root_value()
        v_stale = solve_optimal(params, new_state((0, 0), (4, 4))).root_value()
        assert v_stale > v_fresh


class TestEvaluatePolicy:
    def test_optimal_policy_reproduces_table_bitwise(self):
        params = ModelParams(2, 1, 0.7, (0.5, 0.5), 5)
        x0 = fresh_state(2)
        opt = solve_optimal(params, x0)
        re_eval = evaluate_policy(OptimalPolicy(opt), params, x0)
        got, want = stage_dicts(re_eval), stage_dicts(opt)
        for t in range(1, params.horizon + 1):
            for key in got[t - 1]:
                assert got[t - 1][key][0] == want[t - 1][key][0]

    def test_round_robin_needs_cursor_in_key(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 4)
        x0 = fresh_state(2)
        table = evaluate_policy(RRPolicy(d=1), params, x0)
        assert table.augmented
        assert table.root_key == (x0, 0)

    def test_last_two_stages_match_margin_policy(self):
        params = ModelParams(2, 1, 0.6, (0.5, 0.5), 4)
        x0 = fresh_state(2)
        opt = solve_optimal(params, x0)
        dtab = evaluate_policy(DeltaPolicy(1), params, x0)
        got, want = stage_dicts(dtab), stage_dicts(opt)
        for t in (params.horizon, params.horizon - 1):
            for x in got[t - 1]:
                assert got[t - 1][x][0] == want[t - 1][x][0]

    def test_penultimate_closed_form(self):
        params = ModelParams(2, 1, 0.6, (0.5, 0.5), 4)
        x0 = fresh_state(2)
        opt = solve_optimal(params, x0)
        t = params.horizon - 1
        for x, (value, _) in stage_dicts(opt)[t - 1].items():
            expect = 2.0 * sum(x.h) + params.n_sources + params.p * min_schedule_margin(
                x, params.n_channels
            )
            assert abs(value - expect) <= 1e-9


def test_decisions_are_scheduled_masks():
    """Each decision stage stores one bool [rows, N] mask.  An optimal row
    schedules min(N_x, d) packet holders, even where several actions
    competed for it, and a fixed policy's rows hold its own decide_batch
    masks, read with the memory column when the key carries one."""
    three = ModelParams(3, 2, 0.6, (0.5, 0.2, 0.9), 5)
    four = ModelParams(4, 3, 0.7, (0.3, 0.6, 0.8, 0.5), 4)
    for params, x0 in [(three, fresh_state(3)),
                       (three, new_state((1, EMPTY, 0), (3, 2, 4))),
                       (four, new_state((2, 0, EMPTY, 1), (5, 3, 2, 4)))]:
        n, d = params.n_sources, params.n_channels
        opt = solve_optimal(params, x0)
        assert len(opt.decisions) == params.horizon - 1
        for rows, masks in zip(opt.stages, opt.decisions):
            assert masks.dtype == bool and masks.shape == (len(rows), n)
            holders = rows[:, :n] != EMPTY
            assert not (masks & ~holders).any()
            assert (masks.sum(axis=1) == np.minimum(holders.sum(axis=1), d)).all()
        for name in ("delta", "pi", "rr"):
            policy = make_policy(name, params)
            table = evaluate_policy(policy, params, x0)
            assert len(table.decisions) == params.horizon - 1, name
            for t, (rows, masks) in enumerate(zip(table.stages, table.decisions), 1):
                g, h = rows[:, :n].astype(np.int64), rows[:, n : 2 * n].astype(np.int64)
                mem = rows[:, 2 * n].astype(np.int64) if table.augmented else None
                assert masks.dtype == bool, name
                assert np.array_equal(masks, policy.decide_batch(t, g, h, mem)[0]), name


class TestBoundConstants:
    def test_base_depth(self):
        bc = bound_constants(2, 0.5, 1)
        assert (bc.c1, bc.c2, bc.d1, bc.d2) == (1.5, 0.0, 2.0, 0.0)

    def test_hand_recursion_depth_three(self):
        # one unrolling of the recurrences from the depth-2 base
        bc = bound_constants(3, 0.5, 1)
        assert (bc.c1, bc.c2, bc.d1, bc.d2) == (6.25, 2.25, 10.0, 6.0)

    def test_rejects_shallow_depth(self):
        with pytest.raises(InvalidDepth):
            bound_constants(1, 0.5, 1)

    def test_monotone_in_depth(self):
        prev = bound_constants(2, 0.3, 2)
        for k in range(3, 8):
            cur = bound_constants(k, 0.3, 2)
            assert cur.d1 > prev.d1 and cur.c1 > prev.c1
            prev = cur


class TestOptimalityGap:
    def test_fields_cross_check(self):
        params = ModelParams(2, 1, 0.3, (0.5, 0.5), 6)
        x0 = fresh_state(2)
        rep = optimality_gap(params, x0)
        assert rep.diff == rep.v_delta - rep.v_star
        pd = success_probs(params, 0).batch
        assert abs(rep.p_pd - params.p * pd) <= 1e-15
        assert abs(rep.z - rep.diff / rep.p_pd) <= 1e-12
        assert rep.diff >= -1e-9
        assert rep.diff <= rep.bound + 1e-9
        assert rep.constants == bound_constants(params.horizon - 1, params.p, 1)

    def test_degenerate_p_rejected(self):
        # at p = 0 no transfer succeeds: every policy is optimal and z is undefined
        params = ModelParams(2, 1, 0.0, (0.5, 0.5), 6)
        rep = optimality_gap(params, fresh_state(2))
        assert rep.z is None
        assert rep.diff == 0.0
        assert rep.v_delta == rep.v_star

    def test_short_horizon_has_zero_gap_and_bound(self):
        params = ModelParams(2, 1, 0.8, (0.5, 0.5), 2)
        rep = optimality_gap(params, fresh_state(2))
        assert rep.bound == 0.0
        assert rep.diff == 0.0
        assert rep.constants is None


class TestOneStepIdentities:
    def test_expected_age_sum(self):
        params = ModelParams(2, 1, 0.45, (0.3, 0.8), 2)
        x = new_state((1, EMPTY), (4, 2))
        a = Action((0,))
        (lhs,), (rhs,) = expected_age_sums(columns([(x, a, params)]), pair_law([(a, params)]))
        assert abs(lhs - rhs) <= 1e-12

    def test_margin_decomposition_identity(self):
        params = ModelParams(2, 1, 0.45, (0.3, 0.8), 2)
        x = new_state((1, 0), (4, 2))
        for a in enumerate_actions(x, 1):
            (no_success, success), = split_margins([(x, a, params)])
            full = math.fsum(
                pr * min_schedule_margin(x2, params.n_channels)
                for x2, pr in enumerate_transitions(x, a, params)
            )
            att = success_probs(params, len(a.scheduled)).attempted
            batch = success_probs(params, 0).batch
            mixed = (1.0 - att) * no_success + batch * success
            assert abs(full - mixed) <= 1e-12

    def test_no_success_part_ignores_action_choice(self):
        params = ModelParams(3, 1, 0.45, (0.3, 0.8, 0.5), 2)
        x = new_state((1, 0, 2), (4, 2, 6))
        parts = {
            split_margins([(x, a, params)])[0][0]
            for a in enumerate_actions(x, 1)
        }
        assert len(parts) == 1


# (label, params, non-fresh x0): p at 0 and 1, d >= N, T = 1 and a mixed q
FROZEN_INSTANCES = (
    ("n2d1", ModelParams(2, 1, 0.6, (0.5, 0.5), 5), new_state((1, EMPTY), (3, 2))),
    ("n3d2", ModelParams(3, 2, 0.45, (0.3, 0.8, 0.5), 4), new_state((0, EMPTY, 2), (1, 4, 3))),
    ("p0", ModelParams(2, 1, 0.0, (0.5, 0.5), 4), new_state((EMPTY, 0), (2, 1))),
    ("p1", ModelParams(2, 1, 1.0, (0.3, 0.7), 4), new_state((0, 1), (2, 5))),
    ("d_eq_n", ModelParams(2, 2, 0.7, (0.5, 0.5), 4), new_state((EMPTY, EMPTY), (4, 1))),
    ("d_gt_n", ModelParams(2, 3, 0.4, (0.9, 0.2), 4), new_state((2, 0), (3, 2))),
    ("t1", ModelParams(2, 1, 0.5, (0.5, 0.5), 1), new_state((1, EMPTY), (3, 2))),
    ("q_edges", ModelParams(3, 1, 0.5, (1.0, 0.0, 0.5), 4), new_state((0, EMPTY, 1), (1, 2, 2))),
)


def table_digest(table) -> dict:
    """sha256 over every entry as `stage, repr(key), float.hex(value), repr(action)`
    lines sorted by stage and key, plus the root key and value."""
    lines = [f"root {table.root_key!r}"]
    for t, stage in enumerate(stage_dicts(table), 1):
        entries = sorted((repr(key), value, action) for key, (value, action) in stage.items())
        lines += [f"{t} {k} {v.hex()} {a!r}" for k, v, a in entries]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return {"sha256": digest, "root": table.root_value().hex()}


def frozen_tables():
    """(name, table) of the optimal, delta, pi, rr, rr-strict and
    optimal-re-evaluated tables of every frozen instance, from the fresh and
    the non-fresh x0."""
    for label, params, stale in FROZEN_INSTANCES:
        for start, x0 in (("fresh", fresh_state(params.n_sources)), ("stale", stale)):
            opt = solve_optimal(params, x0)
            yield f"{label}/{start}/optimal", opt
            for name in ("delta", "pi", "rr", "rr-strict"):
                pol = make_policy(name, params)
                yield f"{label}/{start}/{name}", evaluate_policy(pol, params, x0)
            reeval = evaluate_policy(OptimalPolicy(opt), params, x0)
            yield f"{label}/{start}/optimal-reeval", reeval


def frozen_table_digests() -> dict:
    """Digest of every frozen table, by name."""
    return {name: table_digest(table) for name, table in frozen_tables()}


def test_each_state_action_enumerated_once(monkeypatch):
    """The dict reference solver expands each (state, action) it reaches once."""
    calls = Counter()
    kernel = dict_solver.enumerate_transitions

    def counting(x, a, params):
        calls[(x, a)] += 1
        return kernel(x, a, params)

    monkeypatch.setattr(dict_solver, "enumerate_transitions", counting)
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 5)
    x0 = fresh_state(2)
    opt = dict_solver.solve_optimal(params, x0)
    expect = {
        (x, a)
        for t in range(1, params.horizon)
        for x in opt[t - 1]
        for a in enumerate_actions(x, params.n_channels)
    }
    assert set(calls) == expect and set(calls.values()) == {1}
    for pol in (DeltaPolicy(1), RRPolicy(d=1), OptimalPolicy(solve_optimal(params, x0))):
        calls.clear()
        stages = dict_solver.evaluate_policy(pol, params, x0)
        augmented = pol.initial_memory() is not None
        expect = {
            (key[0] if augmented else key, stages[t - 1][key][1])
            for t in range(1, params.horizon)
            for key in stages[t - 1]
        }
        assert set(calls) == expect and set(calls.values()) == {1}, pol.name


def test_each_action_events_read_once_per_pass(monkeypatch):
    """The array solver reads an action's events off the batched kernel once
    per solve or evaluation, one case per call, however many states take it."""
    calls = Counter()
    kernel = dp.transition_law

    def counting(scheduled, *columns):
        [a] = scheduled
        calls[Action(a)] += 1
        return kernel(scheduled, *columns)

    monkeypatch.setattr(dp, "transition_law", counting)
    params = ModelParams(3, 2, 0.6, (0.5, 0.2, 0.9), 5)
    x0 = new_state((1, EMPTY, 0), (3, 2, 4))
    opt = solve_optimal(params, x0)
    expect = {
        a
        for t in range(1, params.horizon)
        for x in stage_dicts(opt)[t - 1]
        for a in enumerate_actions(x, params.n_channels)
    }
    assert set(calls) == expect and set(calls.values()) == {1}
    for pol in (DeltaPolicy(2), RRPolicy(d=2), OptimalPolicy(opt)):
        calls.clear()
        stages = stage_dicts(evaluate_policy(pol, params, x0))
        expect = {
            action for t in range(1, params.horizon) for _, action in stages[t - 1].values()
        }
        assert set(calls) == expect, pol.name
        assert set(calls.values()) == {1}, pol.name


def test_tables_match_frozen_digests():
    # frozen from the two-solver implementation; every value, action and key
    # must survive any rewrite of the forward or backward pass bit for bit
    golden = json.loads((GOLDEN_DIR / "dp_tables.json").read_text())
    assert frozen_table_digests() == golden


def test_dump_table_lines(tmp_path):
    params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
    x0 = fresh_state(2)
    table = solve_optimal(params, x0)
    out = tmp_path / "table.txt"
    dump_table(table, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# value table policy=optimal")
    entries = sum(len(stage) for stage in table.stages)
    assert len(lines) == 1 + entries
    assert any("state=g=[0,0];h=[1,1]" in line and "action=[" in line for line in lines)


def test_dump_table_matches_reference_dump(tmp_path):
    """dump_table writes the bytes of the dump written from the dict view,
    line order and number format included, on every frozen table (rr and
    rr-strict with their cursor column) and on the 48-column N=24 tables."""
    params = ModelParams(24, 1, 1.0, (1.0,) * 24, 4)
    x0 = fresh_state(24)
    wide = [("wide/optimal", solve_optimal(params, x0))] + [
        (f"wide/{name}", evaluate_policy(make_policy(name, params), params, x0))
        for name in ("rr", "rr-strict")
    ]
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    for name, table in [*frozen_tables(), *wide]:
        dump_table(table, got)
        reference.dump_table(table, want)
        assert got.read_bytes() == want.read_bytes(), name
