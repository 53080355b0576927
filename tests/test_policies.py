"""Decision rules: margin-greedy, age-greedy, round-robin, table lookup."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoi_sched.dp import solve_optimal
from aoi_sched.model import EMPTY, ModelParams, enumerate_actions, fresh_state, new_state
from aoi_sched.policies import (
    POLICY_NAMES,
    DeltaPolicy,
    OptimalPolicy,
    PIPolicy,
    RRPolicy,
    StateNotInTable,
    delta_decide,
    dp_policy_decide,
    make_policy,
    min_schedule_margin,
    pi_decide,
    rr_decide,
    schedule_margin,
)

from .test_model import states


def test_schedule_margin_sums_age_differences():
    x = new_state((0, 3, EMPTY), (5, 4, 7))
    assert schedule_margin(x, (0,)) == -5
    assert schedule_margin(x, (1,)) == -1
    assert schedule_margin(x, (0, 1)) == -6
    assert min_schedule_margin(x, 1) == -5
    assert min_schedule_margin(x, 2) == -6


class TestDeltaDecide:
    def test_prefers_largest_age_difference(self):
        x = new_state((0, 3, EMPTY), (5, 4, 7))
        assert delta_decide(x, 1).action.scheduled == (0,)

    def test_single_packet_is_forced(self):
        x = new_state((0, EMPTY), (9, 9))
        assert delta_decide(x, 2).action.scheduled == (0,)

    def test_full_tie_takes_lowest_indices(self):
        x = new_state((2, 2, 2), (5, 5, 5))
        assert delta_decide(x, 2).action.scheduled == (0, 1)

    def test_scores_are_margins_of_chosen(self):
        x = new_state((0, 3, EMPTY), (5, 4, 7))
        d = delta_decide(x, 2)
        assert d.action.scheduled == (0, 1)
        assert d.scores == (-5, -1)


class TestPIDecide:
    def test_prefers_largest_destination_age_among_holders(self):
        x = new_state((0, 3, EMPTY), (5, 4, 7))
        assert pi_decide(x, 1).action.scheduled == (0,)

    def test_tie_takes_lowest_index(self):
        x = new_state((0, 0), (3, 3))
        assert pi_decide(x, 1).action.scheduled == (0,)

    def test_all_empty_gives_empty_action(self):
        x = new_state((EMPTY, EMPTY), (3, 3))
        assert pi_decide(x, 1).action.scheduled == ()


class TestRRDecide:
    def test_cyclic_scan(self):
        d, cur = rr_decide(0, new_state((0, 1, 2), (9, 9, 9)), 2)
        assert (d.action.scheduled, cur) == ((0, 1), 2)

    def test_wraparound(self):
        d, cur = rr_decide(2, new_state((0, 1, 2), (9, 9, 9)), 2)
        assert (d.action.scheduled, cur) == ((0, 2), 1)

    def test_skips_empty_buffers(self):
        d, cur = rr_decide(0, new_state((EMPTY, 1), (5, 9)), 1)
        assert (d.action.scheduled, cur) == ((1,), 0)

    def test_no_packets_leaves_cursor(self):
        d, cur = rr_decide(1, new_state((EMPTY, EMPTY), (5, 9)), 1)
        assert (d.action.scheduled, cur) == ((), 1)

    def test_strict_may_idle_channels(self):
        # cursor points at an empty buffer; strict mode wastes that channel
        d, cur = rr_decide(0, new_state((EMPTY, 1), (5, 9)), 1, strict=True)
        assert (d.action.scheduled, cur) == ((), 1)

    def test_strict_advances_by_channel_count(self):
        d, cur = rr_decide(2, new_state((0, 1, 2, 0), (9, 9, 9, 9)), 2, strict=True)
        assert (d.action.scheduled, cur) == ((2, 3), 0)


class TestDPPolicyDecide:
    def test_reads_stored_action(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        x0 = fresh_state(2)
        table = solve_optimal(params, x0)
        d = dp_policy_decide(table, 1, x0)
        assert d.action in enumerate_actions(x0, 1)

    def test_unknown_state_raises(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        table = solve_optimal(params, fresh_state(2))
        with pytest.raises(StateNotInTable):
            dp_policy_decide(table, 1, new_state((0, 0), (9, 9)))

    def test_terminal_stage_has_no_action(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        x0 = fresh_state(2)
        table = solve_optimal(params, x0)
        with pytest.raises(ValueError):
            dp_policy_decide(table, params.horizon, x0)


class TestOptimalDecideStage:
    def test_returns_stored_action_for_every_key(self):
        params = ModelParams(3, 2, 0.6, (0.5, 0.2, 0.9), 4)
        policy = OptimalPolicy(solve_optimal(params, new_state((1, EMPTY, 0), (3, 2, 4))))
        for t in range(1, params.horizon):
            keys = list(policy.table.states(t))
            g = np.array([x.g for x in keys])
            h = np.array([x.h for x in keys])
            masks = policy.decide_stage(t, g, h)
            for x, mask in zip(keys, masks):
                assert tuple(np.flatnonzero(mask)) == policy.table.action(t, x).scheduled

    @pytest.mark.parametrize("x", [
        new_state((0, 0), (9, 9)),           # never reached
        new_state((0, 0), (10**6, 10**6)),   # beyond the table's integer type
    ])
    def test_unreached_state_raises(self, x):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        policy = OptimalPolicy(solve_optimal(params, fresh_state(2)))
        g = np.array([fresh_state(2).g, x.g])
        h = np.array([fresh_state(2).h, x.h])
        with pytest.raises(StateNotInTable, match=r"stage 1 has no entry for .*h=\((9|1000000),"):
            policy.decide_stage(1, g, h)

    def test_terminal_stage_has_no_action(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        policy = OptimalPolicy(solve_optimal(params, fresh_state(2)))
        with pytest.raises(ValueError):
            policy.decide_stage(params.horizon, np.zeros((1, 2), int), np.ones((1, 2), int))


@given(states(), st.integers(1, 3))
def test_work_conservation(x, d):
    holders = [n for n, gn in enumerate(x.g) if gn != EMPTY]
    k = min(len(holders), d)
    for decide in (lambda: delta_decide(x, d), lambda: pi_decide(x, d)):
        a = decide().action.scheduled
        assert len(a) == k
        assert set(a) <= set(holders)
    a, _ = rr_decide(0, x, d)
    assert len(a.action.scheduled) == k


@given(states(), st.integers(1, 3), st.integers(0, 3))
def test_single_action_agreement(x, d, cursor):
    """With at most d packet holders all work-conserving rules coincide."""
    holders = [n for n, gn in enumerate(x.g) if gn != EMPTY]
    if len(holders) > d:
        return
    expected = tuple(holders)
    assert delta_decide(x, d).action.scheduled == expected
    assert pi_decide(x, d).action.scheduled == expected
    rd, _ = rr_decide(cursor % len(x.g), x, d)
    assert rd.action.scheduled == expected


@given(states(), st.integers(1, 3))
def test_fresh_buffers_align_delta_with_pi(x, d):
    if any(gn not in (EMPTY, 0) for gn in x.g):
        return
    assert delta_decide(x, d).action == pi_decide(x, d).action


@given(states(max_n=4), st.integers(1, 2), st.permutations(range(4)))
def test_permutation_equivariance(x, d, perm):
    """Relabeling sources relabels the chosen action, when scores are distinct."""
    n = len(x.g)
    sigma = [p for p in perm if p < n]
    margins = [x.g[i] - x.h[i] for i in range(n) if x.g[i] != EMPTY]
    if len(set(margins)) != len(margins):
        return
    xp = new_state([x.g[sigma[i]] for i in range(n)], [x.h[sigma[i]] for i in range(n)])
    direct = delta_decide(xp, d).action.scheduled
    mapped = tuple(sorted(sigma.index(srcn) for srcn in delta_decide(x, d).action.scheduled))
    assert direct == mapped


class TestMakePolicy:
    def test_names_roundtrip(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        table = solve_optimal(params, fresh_state(2))
        for name in POLICY_NAMES:
            pol = make_policy(name, params, table=table)
            assert pol.name == name

    def test_optimal_requires_table(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        with pytest.raises(ValueError):
            make_policy("optimal", params)

    def test_unknown_name(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        with pytest.raises(ValueError):
            make_policy("fifo", params)

    def test_stateless_policies_have_no_memory(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        assert DeltaPolicy(1).initial_memory() is None
        assert PIPolicy(1).initial_memory() is None
        assert RRPolicy(2, 1).initial_memory() == 0
        assert OptimalPolicy(solve_optimal(params, fresh_state(2))).initial_memory() is None
