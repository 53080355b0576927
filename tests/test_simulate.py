"""Monte Carlo engine: seeding, accounting, summaries, paired comparison."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from aoi_sched import simulate
from aoi_sched.config import GridPoint
from aoi_sched.dp import solve_optimal
from aoi_sched.model import EMPTY, ModelParams, fresh_state, new_state
from aoi_sched.policies import POLICY_NAMES, make_policy
from aoi_sched.simulate import (
    BLOCK_EPISODES,
    CHUNK_SLOTS,
    compare_policies,
    improvement_pct,
    policy_totals,
    run_episode,
    run_experiment,
)

from . import reference
from .test_model import states

PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def batch_cases(draw):
    x0 = draw(states(max_n=8))
    if draw(st.booleans()):
        x0 = new_state((EMPTY,) * len(x0.g), x0.h)
    n = len(x0.g)
    params = ModelParams(
        n,
        draw(st.integers(1, n + 1)),
        draw(PROBS),
        tuple(draw(PROBS) for _ in range(n)),
        # T=1 draws nothing; the long horizons cross several buffer refills
        draw(st.one_of(
            st.sampled_from([1, 2, CHUNK_SLOTS + 2, 3 * CHUNK_SLOTS + 2]),
            st.integers(1, 3 * CHUNK_SLOTS + 5),
        )),
    )
    return params, x0, draw(st.integers(1, 4)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60)
@given(batch_cases())
def test_batched_engine_matches_scalar_episodes(case):
    params, x0, replications, base_seed = case
    for name in ("delta", "pi", "rr", "rr-strict"):
        pol = make_policy(name, params)
        expect = [
            reference.run_episode(pol, params, x0, (base_seed + i) % 2**64).total_cost
            for i in range(replications)
        ]
        got = policy_totals([pol], params, x0, replications, base_seed)[0].tolist()
        assert got == expect, name
        # the one-row view keeps the per-source sums too
        one = run_episode(pol, params, x0, base_seed)
        assert one == reference.run_episode(pol, params, x0, base_seed), name


@st.composite
def comparison_cases(draw):
    names = draw(st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=5))
    # without a table to solve, N up to 6 lets shared blocks wrap rr's cursor
    # and leave several holders unscheduled at d < N
    x0 = draw(states(max_n=3 if "optimal" in names else 6, max_h=6))
    n = len(x0.g)
    params = ModelParams(
        n,
        draw(st.integers(1, n + 1)),
        # p = 0 would make every episode's total the same
        draw(st.floats(0.05, 1.0)),
        tuple(draw(PROBS) for _ in range(n)),
        # the optimal policy needs a solved table, so its horizon stays short
        draw(st.integers(1, 8 if "optimal" in names else 40)),
    )
    # a shrunken block and chunk make small cases cross block boundaries and
    # buffer refills; blocks of 2-12 rows hold several policies when
    # replications <= cap // 2 and split one policy's episodes above cap
    cap = draw(st.integers(2, 12))
    chunk = draw(st.integers(1, 3))
    replications = draw(st.integers(1, 2 * cap + 1))
    return params, x0, names, replications, draw(st.integers(0, 2**64 - 1)), cap, chunk


@settings(max_examples=60)
@given(comparison_cases())
def test_fused_comparison_matches_scalar_episodes(case):
    params, x0, names, replications, base_seed, cap, chunk = case
    table = solve_optimal(params, x0) if "optimal" in names else None
    policies = [make_policy(name, params, table=table) for name in names]
    expect = [
        [reference.run_episode(pol, params, x0, (base_seed + i) % 2**64).total_cost
         for i in range(replications)]
        for pol in policies
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BLOCK_EPISODES", cap)
        mp.setattr(simulate, "CHUNK_SLOTS", chunk)
        assert policy_totals(policies, params, x0, replications, base_seed).tolist() == expect
        if replications < 2:
            return
        comp = compare_policies(policies, params, x0, replications, base_seed)
    assert [s.policy for s in comp.summaries] == [pol.name for pol in policies]
    for summary, totals in zip(comp.summaries, expect):
        # integer totals sum exactly, so the mean is the exact quotient
        assert summary.mean_total_cost == sum(totals) / replications


def test_workload_shaped_block_matches_scalar_episodes(monkeypatch):
    """The benchmark's Monte Carlo block: N=30, d=3 and delta, pi and rr
    stacked in one block of 4 episodes each, over three buffer refills.
    From 2 holders and a low arrival probability, slots schedule fewer than d
    sources and rr's cursor wraps past source N-1; every row's per-source
    age sums equal the slot-by-slot reference."""
    n, d, replications, base_seed = 30, 3, 4, 2024
    params = ModelParams(n, d, 0.7, (0.04,) * n, 3 * CHUNK_SLOTS + 5)
    x0 = new_state([0 if k == 7 else 2 if k == 23 else EMPTY for k in range(n)],
                   [1 + k % 5 if k != 23 else 3 for k in range(n)])
    policies = [make_policy(name, params) for name in ("delta", "pi", "rr")]
    seen = []  # (policy, scheduled count, memory before, memory after) per slot
    decide = reference.decide

    def recording(policy, t, x, memory=None):
        action, after = decide(policy, t, x, memory)
        seen.append((policy.name, len(action.scheduled), memory, after))
        return action, after

    monkeypatch.setattr(reference, "decide", recording)
    expect = [[reference.run_episode(pol, params, x0, (base_seed + i) % 2**64)
               for i in range(replications)] for pol in policies]
    totals = policy_totals(policies, params, x0, replications, base_seed)
    assert totals.tolist() == [[r.total_cost for r in row] for row in expect]
    sums = simulate._block_totals(policies, params, x0,
                                  [base_seed + i for i in range(replications)])
    assert [[tuple(s / params.horizon for s in row) for row in pol] for pol in sums.tolist()] == [
        [r.aaoi_per_source for r in row] for row in expect]
    assert any(k < d for _, k, _, _ in seen)
    assert any(name == "rr" and after < before for name, _, before, after in seen)


def test_blocks_hold_at_most_block_episodes_rows(monkeypatch):
    params = ModelParams(3, 1, 0.6, (0.5, 0.5, 0.5), 5)
    x0 = fresh_state(3)
    engine = simulate._block_totals
    rows = []

    def recording(policies, params, x0, seeds):
        rows.append(len(policies) * len(seeds))
        return engine(policies, params, x0, seeds)

    monkeypatch.setattr(simulate, "_block_totals", recording)
    cases = [(BLOCK_EPISODES, 3, 300)] + [
        (cap, n_pol, r)
        for cap in range(2, 6)
        for n_pol in range(1, 8)
        for r in (1, cap - 1, cap, 2 * cap + 1)
    ]
    for cap, n_pol, replications in cases:
        monkeypatch.setattr(simulate, "BLOCK_EPISODES", cap)
        rows.clear()
        policy_totals([make_policy("delta", params)] * n_pol, params, x0, replications, 0)
        assert max(rows) <= cap, (cap, n_pol, replications)
        assert sum(rows) == n_pol * replications  # every (policy, episode) pair once
        # sharing blocks never takes more than one policy at a time would
        assert len(rows) <= n_pol * -(-replications // cap), (cap, n_pol, replications)


def test_horizon_one_is_the_initial_cost():
    params = ModelParams(2, 1, 0.9, (0.5, 0.5), 1)
    x0 = new_state((0, 2), (4, 3))
    r = run_episode(make_policy("delta", params), params, x0, seed=0)
    assert r.total_cost == 7
    assert r.aaoi_per_source == (4.0, 3.0)


def test_deterministic_instance_total():
    # p=q=1 pins every transition; two slots at h=1 each
    params = ModelParams(1, 1, 1.0, (1.0,), 2)
    r = run_episode(make_policy("delta", params), params, fresh_state(1), seed=5)
    assert r.total_cost == 2


def test_zero_success_probability_closed_form():
    """With no deliveries every destination age climbs arithmetically."""
    params = ModelParams(3, 1, 0.0, (0.3, 0.7, 0.9), 10)
    x0 = fresh_state(3)
    expect = 3 * 10 + 3 * 10 * 9 // 2
    for name in ("delta", "pi", "rr", "rr-strict"):
        for seed in range(5):
            r = run_episode(make_policy(name, params), params, x0, seed=seed)
            assert r.total_cost == expect


def test_same_seed_reproduces_bitwise():
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 6)
    pol = make_policy("delta", params)
    a = run_episode(pol, params, fresh_state(2), seed=123)
    b = run_episode(pol, params, fresh_state(2), seed=123)
    assert a == b


def test_known_seed_regression():
    # frozen stream anchor; a draw-order change must trip this
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 6)
    r = run_episode(make_policy("delta", params), params, fresh_state(2), seed=123)
    assert r.total_cost == 34


def test_aaoi_consistent_with_total():
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 6)
    r = run_episode(make_policy("pi", params), params, fresh_state(2), seed=9)
    assert sum(r.aaoi_per_source) * params.horizon == pytest.approx(r.total_cost)


def test_experiment_requires_replications():
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 6)
    with pytest.raises(ValueError):
        run_experiment(make_policy("delta", params), params, fresh_state(2), 1, 0)


def test_stderr_shrinks_with_replications():
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 20)
    pol = make_policy("delta", params)
    x0 = fresh_state(2)
    s1 = run_experiment(pol, params, x0, 200, 0)
    s2 = run_experiment(pol, params, x0, 800, 0)
    # quadrupling replications should halve the standard error, loosely
    ratio = s1.stderr_total_cost / s2.stderr_total_cost
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3


def test_improvement_pct_convention():
    assert improvement_pct(90.0, 100.0) == pytest.approx(10.0)
    assert improvement_pct(100.0, 90.0) == pytest.approx(-100.0 / 9.0)
    assert improvement_pct(1.0, 0.0) == 0.0


def test_comparison_shares_episode_seeds():
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 6)
    pols = [make_policy("delta", params), make_policy("delta", params)]
    comp = compare_policies(pols, params, fresh_state(2), 50, 11)
    assert comp.improvements_vs_first == (0.0, 0.0)
    assert comp.summaries[0].mean_total_cost == comp.summaries[1].mean_total_cost


def test_comparison_of_a_lone_policy():
    """A one-policy comparison improves on itself by 0.0, is the policy's
    run_experiment summary, and equals the policy's row in a larger one."""
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 6)
    delta, rr = make_policy("delta", params), make_policy("rr", params)
    lone = compare_policies([rr], params, fresh_state(2), 10, 0)
    assert lone.improvements_vs_first == (0.0,)
    assert lone.summaries == (run_experiment(rr, params, fresh_state(2), 10, 0),)
    pair = compare_policies([delta, rr], params, fresh_state(2), 10, 0)
    assert pair.summaries[1] == lone.summaries[0]
    with pytest.raises(ValueError, match="at least 2 replications"):
        compare_policies([rr], params, fresh_state(2), 1, 0)


def test_comparison_of_no_policy_is_refused(monkeypatch):
    """An empty policy list is a ValueError raised before any block runs."""
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 6)
    monkeypatch.setattr(simulate, "policy_totals", None)  # a block run would fail
    with pytest.raises(ValueError, match="at least 1 policy"):
        compare_policies([], params, fresh_state(2), 10, 0)


def test_records_survive_pickling():
    # a process pool pickles each GridPoint out and its results back
    point = GridPoint(2, 1, 0.6, 6, "uniform:0.5")
    assert pickle.loads(pickle.dumps(point)) == point
    assert pickle.loads(pickle.dumps(point))._replace(p=0.3) == GridPoint(2, 1, 0.3, 6, "uniform:0.5")
    params = point.params()
    summary = run_experiment(make_policy("rr", params), params, fresh_state(2), 4, 5)
    copy = pickle.loads(pickle.dumps(summary))
    assert copy == summary and copy.params == params and copy.policy == "rr"
