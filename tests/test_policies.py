"""Decision rules: margin-greedy, age-greedy, round-robin, table lookup."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoi_sched.dp import solve_optimal
from aoi_sched.model import EMPTY, ModelParams, enumerate_actions, fresh_state, new_state
from aoi_sched.policies import (
    POLICY_NAMES,
    DeltaPolicy,
    IndexRule,
    OptimalPolicy,
    PIPolicy,
    RRPolicy,
    StateNotInTable,
    StrictRRPolicy,
    make_policy,
    min_schedule_margins,
    schedule_margin,
)

from . import reference
from .scalar_kernel import min_schedule_margin
from .reference import stage_dicts
from .test_model import states


def chosen(policy, x, memory=None):
    """The scheduled sources of policy.decide at stage 1, and the next memory."""
    action, memory = policy.decide(1, x, memory)
    return action.scheduled, memory


def test_schedule_margin_sums_age_differences():
    x = new_state((0, 3, EMPTY), (5, 4, 7))
    assert schedule_margin(x, (0,)) == -5
    assert schedule_margin(x, (1,)) == -1
    assert schedule_margin(x, (0, 1)) == -6
    assert min_schedule_margin(x, 1) == -5
    assert min_schedule_margin(x, 2) == -6


@st.composite
def margin_blocks(draw):
    """Up to 6 states of one N <= 5, each with its own channel count."""
    n = draw(st.integers(1, 5))
    block = []
    for _ in range(draw(st.integers(1, 6))):
        h = [draw(st.integers(1, 12)) for _ in range(n)]
        g = [draw(st.one_of(st.just(EMPTY), st.integers(0, hn - 1))) for hn in h]
        block.append((new_state(g, h), draw(st.integers(1, n + 2))))
    return block


@given(margin_blocks())
def test_min_schedule_margins_match_the_one_state_rule(block):
    """Each row of the array form is the one-state rule of tests/scalar_kernel.py,
    whether every row has its own d or all share the first one's."""
    g = np.array([x.g for x, _ in block], dtype=np.int64)
    h = np.array([x.h for x, _ in block], dtype=np.int64)
    ds = [d for _, d in block]
    assert min_schedule_margins(g, h, np.array(ds)).tolist() == [
        min_schedule_margin(x, d) for x, d in block]
    assert min_schedule_margins(g, h, ds[0]).tolist() == [
        min_schedule_margin(x, ds[0]) for x, _ in block]


def test_policies_are_values_named_by_their_class():
    # the index policies share IndexPolicy's repr, == and hash, which name
    # the subclass and never equate two classes on the same d
    assert repr(DeltaPolicy(2)) == "DeltaPolicy(d=2)"
    assert repr(PIPolicy(d=1)) == "PIPolicy(d=1)"
    assert repr(StrictRRPolicy(2)) == "StrictRRPolicy(d=2)"
    assert DeltaPolicy(2) == DeltaPolicy(d=2) and hash(DeltaPolicy(2)) == hash(DeltaPolicy(d=2))
    assert DeltaPolicy(2) != PIPolicy(2) and PIPolicy(2) != RRPolicy(2)
    assert DeltaPolicy(2) != DeltaPolicy(3) and RRPolicy(2) != StrictRRPolicy(2)
    params = ModelParams(3, 2, 0.6, (0.5,) * 3, 4)
    for name in ("delta", "pi", "rr", "rr-strict"):
        policy = make_policy(name, params)
        copy = pickle.loads(pickle.dumps(policy))
        assert copy == policy and type(copy) is type(policy) and copy.name == name


class TestDeltaDecide:
    def test_prefers_largest_age_difference(self):
        x = new_state((0, 3, EMPTY), (5, 4, 7))
        assert chosen(DeltaPolicy(1), x) == ((0,), None)

    def test_single_packet_is_forced(self):
        x = new_state((0, EMPTY), (9, 9))
        assert chosen(DeltaPolicy(2), x) == ((0,), None)

    def test_full_tie_takes_lowest_indices(self):
        x = new_state((2, 2, 2), (5, 5, 5))
        assert chosen(DeltaPolicy(2), x) == ((0, 1), None)


class TestPIDecide:
    def test_prefers_largest_destination_age_among_holders(self):
        x = new_state((0, 3, EMPTY), (5, 4, 7))
        assert chosen(PIPolicy(1), x) == ((0,), None)

    def test_tie_takes_lowest_index(self):
        x = new_state((0, 0), (3, 3))
        assert chosen(PIPolicy(1), x) == ((0,), None)

    def test_all_empty_gives_empty_action(self):
        x = new_state((EMPTY, EMPTY), (3, 3))
        assert chosen(PIPolicy(1), x) == ((), None)


class TestRRDecide:
    def test_cyclic_scan(self):
        assert chosen(RRPolicy(d=2), new_state((0, 1, 2), (9, 9, 9)), 0) == ((0, 1), 2)

    def test_wraparound(self):
        assert chosen(RRPolicy(d=2), new_state((0, 1, 2), (9, 9, 9)), 2) == ((0, 2), 1)

    def test_skips_empty_buffers(self):
        assert chosen(RRPolicy(d=1), new_state((EMPTY, 1), (5, 9)), 0) == ((1,), 0)

    def test_no_packets_leaves_cursor(self):
        assert chosen(RRPolicy(d=1), new_state((EMPTY, EMPTY), (5, 9)), 1) == ((), 1)

    def test_no_memory_starts_at_the_first_source(self):
        assert chosen(RRPolicy(d=1), new_state((0, 1, 2), (9, 9, 9))) == ((0,), 1)

    def test_strict_may_idle_channels(self):
        # cursor points at an empty buffer; strict mode wastes that channel
        x = new_state((EMPTY, 1), (5, 9))
        assert chosen(StrictRRPolicy(d=1), x, 0) == ((), 1)

    def test_strict_advances_by_channel_count(self):
        x = new_state((0, 1, 2, 0), (9, 9, 9, 9))
        assert chosen(StrictRRPolicy(d=2), x, 2) == ((2, 3), 0)


class TestDPPolicyDecide:
    def test_reads_stored_action(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        x0 = fresh_state(2)
        table = solve_optimal(params, x0)
        action, memory = OptimalPolicy(table).decide(1, x0)
        assert action in enumerate_actions(x0, 1)
        assert (action, memory) == (stage_dicts(table)[0][x0][1], None)

    def test_unknown_state_raises(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        table = solve_optimal(params, fresh_state(2))
        with pytest.raises(StateNotInTable):
            OptimalPolicy(table).decide(1, new_state((0, 0), (9, 9)))

    def test_terminal_stage_has_no_action(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        x0 = fresh_state(2)
        table = solve_optimal(params, x0)
        with pytest.raises(ValueError):
            OptimalPolicy(table).decide(params.horizon, x0)


class TestOptimalDecideStage:
    def test_returns_stored_action_for_every_key(self):
        params = ModelParams(3, 2, 0.6, (0.5, 0.2, 0.9), 4)
        policy = OptimalPolicy(solve_optimal(params, new_state((1, EMPTY, 0), (3, 2, 4))))
        for t in range(1, params.horizon):
            stage = stage_dicts(policy.table)[t - 1]
            keys = list(stage)
            g = np.array([x.g for x in keys])
            h = np.array([x.h for x in keys])
            masks, _ = policy.decide_batch(t, g, h)
            for x, mask in zip(keys, masks):
                assert tuple(np.flatnonzero(mask)) == stage[x][1].scheduled

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
            policy.decide_batch(1, g, h)

    def test_terminal_stage_has_no_action(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        policy = OptimalPolicy(solve_optimal(params, fresh_state(2)))
        with pytest.raises(ValueError):
            policy.decide_batch(params.horizon, np.zeros((1, 2), int), np.ones((1, 2), int))


@given(states(), st.integers(1, 3))
def test_work_conservation(x, d):
    holders = [n for n, gn in enumerate(x.g) if gn != EMPTY]
    k = min(len(holders), d)
    for policy in (DeltaPolicy(d), PIPolicy(d)):
        a, _ = chosen(policy, x)
        assert len(a) == k
        assert set(a) <= set(holders)
    a, _ = chosen(RRPolicy(d=d), x, 0)
    assert len(a) == k


@given(states(), st.integers(1, 3), st.integers(0, 3))
def test_single_action_agreement(x, d, cursor):
    """With at most d packet holders all work-conserving rules coincide."""
    holders = [n for n, gn in enumerate(x.g) if gn != EMPTY]
    if len(holders) > d:
        return
    expected = tuple(holders)
    assert chosen(DeltaPolicy(d), x)[0] == expected
    assert chosen(PIPolicy(d), x)[0] == expected
    assert chosen(RRPolicy(d=d), x, cursor % len(x.g))[0] == expected


@given(states(), st.integers(1, 3))
def test_fresh_buffers_align_delta_with_pi(x, d):
    if any(gn not in (EMPTY, 0) for gn in x.g):
        return
    assert chosen(DeltaPolicy(d), x) == chosen(PIPolicy(d), x)


@given(states(max_n=4), st.integers(1, 2), st.permutations(range(4)))
def test_permutation_equivariance(x, d, perm):
    """Relabeling sources relabels the chosen action, when scores are distinct."""
    n = len(x.g)
    sigma = [p for p in perm if p < n]
    margins = [x.g[i] - x.h[i] for i in range(n) if x.g[i] != EMPTY]
    if len(set(margins)) != len(margins):
        return
    xp = new_state([x.g[sigma[i]] for i in range(n)], [x.h[sigma[i]] for i in range(n)])
    direct, _ = chosen(DeltaPolicy(d), xp)
    mapped = tuple(sorted(sigma.index(srcn) for srcn in chosen(DeltaPolicy(d), x)[0]))
    assert direct == mapped


@st.composite
def block_states(draw, n):
    """A state of N sources on ages up to 4, so that empty buffers and tied
    scores are common."""
    h = [draw(st.integers(0, 4)) for _ in range(n)]
    g = [draw(st.one_of(st.just(EMPTY), st.integers(0, hn - 1))) if hn else EMPTY
         for hn in h]
    return new_state(g, h)


@st.composite
def blocks(draw):
    """A block of states with d in 1..N+1 and a cursor per row in [0, N)."""
    n = draw(st.integers(1, 5))
    xs = [draw(block_states(n)) for _ in range(draw(st.integers(1, 8)))]
    cursors = [draw(st.integers(0, n - 1)) for _ in xs]
    return xs, draw(st.integers(1, n + 1)), cursors


@settings(max_examples=300)
@given(blocks())
def test_decide_batch_matches_reference_rules(block):
    """Every row of decide_batch schedules what the scalar rule in
    tests/reference.py schedules for that state, and moves round-robin's
    cursor where the rule moves it."""
    xs, d, cursors = block
    g = np.array([x.g for x in xs])
    h = np.array([x.h for x in xs])
    for policy in (DeltaPolicy(d), PIPolicy(d), RRPolicy(d=d), StrictRRPolicy(d=d)):
        rr = isinstance(policy, (RRPolicy, StrictRRPolicy))
        mask, memory = policy.decide_batch(1, g, h, np.array(cursors) if rr else None)
        for i, x in enumerate(xs):
            action, want = reference.decide(policy, 1, x, cursors[i] if rr else None)
            assert tuple(np.flatnonzero(mask[i]).tolist()) == action.scheduled, (policy.name, x)
            assert (memory[i] if rr else memory) == want, (policy.name, x, cursors[i])


@st.composite
def stacked_blocks(draw):
    """Rows of N <= 6 sources, each following its own index policy (repeats
    and runs in any order), a cursor per row (0 on a non-cyclic row, as the
    block engine starts it), and the states of 3-5 consecutive slots."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, n + 1))
    rows = draw(st.integers(1, 6))
    policies = [draw(st.sampled_from([DeltaPolicy(d), PIPolicy(d), RRPolicy(d=d)]))
                for _ in range(rows)]
    cursors = [draw(st.integers(0, n - 1)) if pol.rule.cyclic else 0 for pol in policies]
    slots = [[draw(block_states(n)) for _ in range(rows)]
             for _ in range(draw(st.integers(3, 5)))]
    return policies, d, cursors, slots


@settings(max_examples=80)
@given(stacked_blocks())
def test_stacked_index_rule_matches_each_rows_policy(case):
    """One decision over a block of mixed index-policy rows, the block
    engine's stacked call, schedules on every row what that row's own
    reference rule schedules, slot after slot, with the cursor threaded."""
    policies, d, cursors, slots = case
    rule = IndexRule.stack([pol.rule for pol in policies])
    cyclic = [bool(pol.rule.cyclic) for pol in policies]
    cursor = np.array(cursors) if any(cyclic) else None
    mems = [c if cyc else None for c, cyc in zip(cursors, cyclic)]
    for t, xs in enumerate(slots, start=1):
        g = np.array([x.g for x in xs])
        h = np.array([x.h for x in xs])
        mask, cursor = rule.scaled(g.shape[1]).decide(g, h, g != EMPTY, d, cursor)
        for i, (policy, x) in enumerate(zip(policies, xs)):
            action, mems[i] = reference.decide(policy, t, x, mems[i])
            assert tuple(np.flatnonzero(mask[i]).tolist()) == action.scheduled, (t, i, policy)
            got = 0 if cursor is None else cursor[i]
            assert got == (mems[i] if cyclic[i] else 0), (t, i, policy)


@pytest.mark.parametrize("d", [1, 3, 4, 6])
@pytest.mark.parametrize("cyclic", [False, True])
def test_index_rule_leaves_its_arguments_unchanged(d, cyclic):
    """decide builds its key, mask and next cursor in place, and returns
    holders itself as the mask when d >= N; it writes into none of its
    arguments, for d < N and d >= N, with and without a cursor."""
    g = np.array([[0, EMPTY, 2, 1], [EMPTY, 3, 0, EMPTY], [1, 0, EMPTY, 2]])
    h = np.array([[4, 2, 3, 5], [1, 6, 2, 3], [2, 1, 4, 3]])
    holders = g != EMPTY
    policies = [DeltaPolicy(d), PIPolicy(d), RRPolicy(d=d) if cyclic else DeltaPolicy(d)]
    rule = IndexRule.stack([pol.rule for pol in policies])
    cursor = np.array([0, 0, 3]) if cyclic else None
    args = (g, h, holders) if cursor is None else (g, h, holders, cursor)
    before = [a.copy() for a in args]
    mask, moved = rule.scaled(4).decide(g, h, holders, d, cursor)
    for arg, copy in zip(args, before):
        assert np.array_equal(arg, copy) and arg.dtype == copy.dtype
    assert (moved is None) == (not cyclic)


@settings(max_examples=30)
@given(states(max_n=3, max_h=4), st.integers(1, 3), st.floats(0.1, 1.0), st.integers(2, 4))
def test_optimal_decide_batch_gives_stored_action_for_every_key(x0, d, p, horizon):
    n = len(x0.g)
    params = ModelParams(n, d, p, (0.5,) * n, horizon)
    table = solve_optimal(params, x0)
    policy = OptimalPolicy(table)
    for t in range(1, horizon):
        keys = list(stage_dicts(table)[t - 1])
        mask, _ = policy.decide_batch(
            t, np.array([x.g for x in keys]), np.array([x.h for x in keys]))
        for x, row in zip(keys, mask):
            want = reference.dp_policy_decide(table, t, x).scheduled
            assert tuple(np.flatnonzero(row).tolist()) == want, (t, x)


class TestMakePolicy:
    def test_names_roundtrip(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
        table = solve_optimal(params, fresh_state(2))
        for name in POLICY_NAMES:
            pol = make_policy(name, params, table=table)
            assert pol.name == name

    def test_names_are_the_cli_names(self):
        # config errors print this tuple, in this order
        assert POLICY_NAMES == ("delta", "pi", "rr", "rr-strict", "optimal")

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
        assert RRPolicy(d=1).initial_memory() == 0
        assert StrictRRPolicy(d=1).initial_memory() == 0
        assert OptimalPolicy(solve_optimal(params, fresh_state(2))).initial_memory() is None
