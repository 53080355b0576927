"""Model core: states, actions, transition law, event probabilities, serialization."""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import aoi_sched
from aoi_sched.model import (
    EMPTY,
    Action,
    InvalidState,
    ModelParams,
    TransitionEvent,
    cost,
    enumerate_actions,
    enumerate_transitions,
    format_state,
    fresh_state,
    new_state,
    norm_inf,
    parse_state,
    sample_step,
    sources_with_packets,
    success_probs,
)

from .scalar_kernel import InvalidEvent, apply_transition, transition_prob


@st.composite
def states(draw, max_n=4, max_h=12):
    n = draw(st.integers(1, max_n))
    h = [draw(st.integers(1, max_h)) for _ in range(n)]
    g = [draw(st.one_of(st.just(EMPTY), st.integers(0, hn - 1))) for hn in h]
    return new_state(g, h)


@st.composite
def state_action_params(draw):
    x = draw(states())
    n = len(x.g)
    d = draw(st.integers(1, 3))
    p = draw(st.sampled_from([0.0, 0.3, 0.5, 0.75, 1.0]))
    q = tuple(draw(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])) for _ in range(n))
    params = ModelParams(n, d, p, q, 2)
    a = draw(st.sampled_from(enumerate_actions(x, d)))
    return x, a, params


class TestParams:
    def test_accepts_valid(self):
        p = ModelParams(2, 1, 0.5, [0.7, 0.3], 10)
        assert p.q == (0.7, 0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sources=0, n_channels=1, p=0.5, q=(), horizon=3),
            dict(n_sources=1, n_channels=0, p=0.5, q=(0.5,), horizon=3),
            dict(n_sources=1, n_channels=1, p=1.5, q=(0.5,), horizon=3),
            dict(n_sources=1, n_channels=1, p=-0.1, q=(0.5,), horizon=3),
            dict(n_sources=2, n_channels=1, p=0.5, q=(0.5,), horizon=3),
            dict(n_sources=1, n_channels=1, p=0.5, q=(1.1,), horizon=3),
            dict(n_sources=1, n_channels=1, p=0.5, q=(0.5,), horizon=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestState:
    def test_empty_marker_allowed(self):
        x = new_state((EMPTY, 0), (4, 2))
        assert sources_with_packets(x) == (1,)

    def test_rejects_age_at_or_above_destination(self):
        with pytest.raises(InvalidState):
            new_state((3,), (3,))
        with pytest.raises(InvalidState):
            new_state((5,), (3,))

    def test_rejects_negative_and_mismatched(self):
        with pytest.raises(InvalidState):
            new_state((-2,), (3,))
        with pytest.raises(InvalidState):
            new_state((0, 0), (3,))
        with pytest.raises(InvalidState):
            new_state((), ())

    def test_fresh_state(self):
        assert fresh_state(3) == new_state((0, 0, 0), (1, 1, 1))

    def test_cost_and_norm(self):
        x = new_state((EMPTY, 2), (7, 5))
        assert cost(x) == 12
        assert norm_inf(x) == 8


class TestActions:
    def test_subsets_of_holders(self):
        x = new_state((0, EMPTY, 2, 0), (5, 5, 5, 5))
        acts = enumerate_actions(x, 2)
        assert [a.scheduled for a in acts] == [(0, 2), (0, 3), (2, 3)]

    def test_single_action_when_few_packets(self):
        x = new_state((0, EMPTY), (5, 5))
        assert [a.scheduled for a in enumerate_actions(x, 2)] == [(0,)]

    def test_no_packets_gives_empty_action(self):
        x = new_state((EMPTY, EMPTY), (5, 5))
        assert [a.scheduled for a in enumerate_actions(x, 1)] == [()]


class TestTransition:
    def test_success_resets_to_source_age_plus_one(self):
        x = new_state((2, 0), (6, 3))
        a = Action((0,))
        e = TransitionEvent(successes=(0,), arrivals=())
        x2 = apply_transition(x, a, e)
        assert x2 == new_state((EMPTY, 1), (3, 4))

    def test_failure_ages_everything(self):
        x = new_state((2, 0), (6, 3))
        x2 = apply_transition(x, Action((0,)), TransitionEvent((), ()))
        assert x2 == new_state((3, 1), (7, 4))

    def test_arrival_overwrites_buffer(self):
        x = new_state((2,), (6,))
        x2 = apply_transition(x, Action((0,)), TransitionEvent((), (0,)))
        assert x2 == new_state((0,), (7,))

    def test_delivery_with_arrival_refills(self):
        x = new_state((2,), (6,))
        x2 = apply_transition(x, Action((0,)), TransitionEvent((0,), (0,)))
        assert x2 == new_state((0,), (3,))

    def test_empty_buffer_stays_empty_without_arrival(self):
        x = new_state((EMPTY,), (6,))
        x2 = apply_transition(x, Action(()), TransitionEvent((), ()))
        assert x2 == new_state((EMPTY,), (7,))

    def test_rejects_success_outside_action(self):
        x = new_state((0, 0), (3, 3))
        with pytest.raises(InvalidEvent):
            apply_transition(x, Action((0,)), TransitionEvent((1,), ()))

    def test_rejects_scheduling_empty_buffer(self):
        x = new_state((EMPTY,), (3,))
        with pytest.raises(InvalidState):
            apply_transition(x, Action((0,)), TransitionEvent((), ()))

    def test_enumeration_rejects_scheduling_empty_buffer(self):
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 2)
        x = new_state((0, EMPTY), (1, 3))
        with pytest.raises(InvalidState):
            enumerate_transitions(x, Action((1,)), params)

    @given(state_action_params())
    def test_result_is_a_valid_state(self, xap):
        x, a, params = xap
        for x2, _ in enumerate_transitions(x, a, params):
            new_state(x2.g, x2.h)  # must not raise

    @given(state_action_params())
    def test_aging_law(self, xap):
        """Destination ages move to g+1 exactly on delivered sources, else +1."""
        x, a, params = xap
        e = TransitionEvent(a.scheduled, tuple(range(params.n_sources)))
        x2 = apply_transition(x, a, e)
        for n in range(params.n_sources):
            if n in a.scheduled:
                assert x2.h[n] == x.g[n] + 1
            else:
                assert x2.h[n] == x.h[n] + 1


class TestProbabilities:
    def test_single_event_probability(self):
        params = ModelParams(2, 1, 0.6, (0.5, 0.25), 2)
        a = Action((0,))
        pr = transition_prob(a, TransitionEvent((0,), (1,)), params)
        assert math.isclose(pr, 0.6 * 0.5 * 0.25, rel_tol=0, abs_tol=1e-15)

    @given(state_action_params())
    def test_closure(self, xap):
        x, a, params = xap
        total = math.fsum(pr for _, pr in enumerate_transitions(x, a, params))
        assert abs(total - 1.0) <= 1e-12

    def test_batch_success_identity(self):
        for d in range(1, 7):
            for p in np.linspace(0.0, 1.0, 101).tolist():
                sp = success_probs(p, d, d)
                assert abs(sp.batch - p * sp.batch_over_p) <= 1e-12
                assert sp.attempted == sp.batch

    def test_attempted_count_bounds(self):
        assert success_probs(0.5, 2, 0).attempted == 0.0
        with pytest.raises(ValueError):
            success_probs(0.5, 2, 3)

    def test_sampler_matches_enumeration(self):
        """Empirical successor frequencies agree with the exact distribution."""
        params = ModelParams(2, 1, 0.35, (0.6, 0.2), 2)
        x = new_state((1, EMPTY), (4, 2))
        a = Action((0,))
        exact = dict(enumerate_transitions(x, a, params))
        draws = 100_000
        rng = np.random.default_rng(20260810)
        counts: dict = {}
        for _ in range(draws):
            x2 = apply_transition(x, a, sample_step(x, a, params, rng))
            counts[x2] = counts.get(x2, 0) + 1
        assert set(counts) <= set(exact)
        for x2, pr in exact.items():
            freq = counts.get(x2, 0) / draws
            sigma = math.sqrt(pr * (1 - pr) / draws)
            assert abs(freq - pr) <= 4 * sigma + 1e-12


class TestFaultModes:
    def test_age_drift_breaks_aging(self):
        params = ModelParams(1, 1, 0.5, (0.0,), 2, fault="age-drift")
        [(x2, pr)] = enumerate_transitions(new_state((0,), (3,)), Action(()), params)
        assert x2.h == (5,) and pr == 1.0

    def test_drop_event_breaks_closure(self):
        params = ModelParams(1, 1, 0.5, (0.5,), 2, fault="drop-event")
        x = new_state((0,), (3,))
        total = math.fsum(pr for _, pr in enumerate_transitions(x, Action((0,)), params))
        assert total < 1.0 - 1e-6

    def test_drop_event_drops_nothing_when_that_event_is_impossible(self):
        """With q[2] = 0 the every-arrival event has probability zero, so the
        faulty kernel still sums to one rather than dropping another event."""
        params = ModelParams(3, 2, 0.5, (0.3, 0.6, 0.0), 2)
        x = new_state((0, EMPTY, 2), (1, 4, 5))
        a = Action((0, 2))
        clean = enumerate_transitions(x, a, params)
        assert enumerate_transitions(x, a, replace(params, fault="drop-event")) == clean

    def test_sampler_follows_the_clean_law(self):
        """A fault corrupts the exact kernel only; sampled steps never see it."""
        params = ModelParams(2, 1, 0.5, (0.5, 0.5), 2)
        x, a = new_state((0, 1), (3, 4)), Action((1,))
        for fault in ("age-drift", "drop-event"):
            faulty = replace(params, fault=fault)
            for seed in range(20):
                clean = sample_step(x, a, params, np.random.default_rng(seed))
                assert sample_step(x, a, faulty, np.random.default_rng(seed)) == clean

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="bitrot"):
            ModelParams(1, 1, 0.5, (0.5,), 2, fault="bitrot")


class TestSerialization:
    def test_format(self):
        x = new_state((EMPTY, 0, 3), (7, 1, 5))
        assert format_state(x) == "g=[psi,0,3];h=[7,1,5]"

    @given(states())
    def test_round_trip(self, x):
        assert parse_state(format_state(x)) == x

    def test_tolerates_spaces(self):
        assert parse_state("g=[psi, 0]; h=[4, 2]") == new_state((EMPTY, 0), (4, 2))

    @pytest.mark.parametrize("text", ["", "g=[0];h=", "g=[0];h=[x]", "g=[5];h=[2]"])
    def test_rejects_garbage(self, text):
        with pytest.raises(InvalidState):
            parse_state(text)


def test_package_has_no_global_statement():
    """Model state lives in values such as ModelParams, never in module
    globals that a `global` statement rebinds."""
    sources = sorted(Path(aoi_sched.__file__).parent.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Global)
    ]
    assert offenders == []
