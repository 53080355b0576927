"""The per-source product kernel against event-by-event references.

The batched kernel `transition_law` expands arrival patterns one source
at a time for a whole batch of cases under one fault, and
`enumerate_transitions` is its one-case view;
`aoi_sched.verify.margin_splits` reads the margin split off its rows.  The
references below walk every (successes, arrivals) event
through the event-by-event law of `tests/scalar_kernel.py`, `transition_prob`
and `apply_transition`, and every probability must agree bit for bit.  The
clean `apply_transition` never sees a fault, so the references apply the
instance's fault themselves.  `advance`, the array form of the successor law,
is checked against the same reference at each shape its callers use.
"""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from aoi_sched.model import (
    EMPTY,
    FAULT_MODES,
    Action,
    ModelParams,
    SystemState,
    TransitionEvent,
    _signed_type,
    advance,
    enumerate_transitions,
    new_state,
    sources_with_packets,
    success_probs,
    transition_law,
)
from aoi_sched.verify import margin_splits

from . import scalar_kernel
from .scalar_kernel import (
    apply_transition,
    min_schedule_margin,
    next_states,
    pair_law,
    transition_prob,
)

EDGE_PROBS = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5]


def events(a: Action, n_sources: int) -> list[TransitionEvent]:
    """Every (successes, arrivals) pair, successes-major, each set in combinations order."""
    arrival_sets = [
        c for nc in range(n_sources + 1) for c in combinations(range(n_sources), nc)
    ]
    return [
        TransitionEvent(w, c)
        for nw in range(len(a.scheduled) + 1)
        for w in combinations(a.scheduled, nw)
        for c in arrival_sets
    ]


def successor(x, a, e, params):
    """apply_transition, plus one more slot of aging on every non-delivered
    destination under age-drift."""
    x2 = apply_transition(x, a, e)
    if params.fault != "age-drift":
        return x2
    return x2._replace(h=tuple(hn + (n not in e.successes) for n, hn in enumerate(x2.h)))


def reference_transitions(x, a, params) -> dict:
    """Sum of transition_prob over the events leading to each successor; under
    drop-event the last listed event (all succeed, all arrive) is left out."""
    evs = events(a, params.n_sources)
    if params.fault == "drop-event" and len(evs) > 1:
        evs.pop()
    merged: dict = {}
    for e in evs:
        pr = transition_prob(a, e, params)
        if pr == 0.0:
            continue
        x2 = successor(x, a, e, params)
        merged[x2] = merged.get(x2, 0.0) + pr
    return merged


def reference_margin_decomposition(x, a, params) -> tuple[float, float]:
    """The event-by-event split: no-success terms weighted by the pure arrival
    probability, success terms by the full event probability.  Under
    drop-event each part leaves out the last event of its law: every source
    arriving, and every scheduled transfer succeeding with every source
    arriving."""
    d = params.n_channels
    arrival_sets = [
        c
        for nc in range(params.n_sources + 1)
        for c in combinations(range(params.n_sources), nc)
    ]
    every = arrival_sets[-1]
    dropped = {((), every), (a.scheduled, every)} if params.fault == "drop-event" else set()
    no_succ_terms = []
    for c in arrival_sets:
        if ((), c) in dropped:
            continue
        ev = TransitionEvent((), c)
        pr = transition_prob(Action(()), ev, params)
        if pr == 0.0:
            continue
        no_succ_terms.append(pr * min_schedule_margin(successor(x, a, ev, params), d))
    succ_terms = []
    for nw in range(1, len(a.scheduled) + 1):
        for w in combinations(a.scheduled, nw):
            for c in arrival_sets:
                ev = TransitionEvent(w, c)
                pr = transition_prob(a, ev, params)
                if pr == 0.0 or (w, c) in dropped:
                    continue
                succ_terms.append(pr * min_schedule_margin(successor(x, a, ev, params), d))
    pd = success_probs(params.p, params.n_channels, 0).batch
    v = math.fsum(succ_terms) / pd if pd > 0.0 else 0.0
    return math.fsum(no_succ_terms), v


def split_margins(batch) -> list[tuple[float, float]]:
    """The (no_success, success) parts of margin_splits of a batch, its acted
    and idle laws from one kernel call over the cases' actions, then each
    case's instance with no action."""
    ev = pair_law([(a, params) for _, a, params in batch]
                  + [(Action(()), params) for _, _, params in batch])
    return [(u, v) for _, u, v in margin_splits(scalar_kernel.columns(batch),
                                                *ev.split(len(batch)))]


def as_hex(pairs) -> dict:
    return {x2: pr.hex() for x2, pr in pairs}


prob = st.one_of(st.sampled_from(EDGE_PROBS), st.floats(0.0, 1.0))


@st.composite
def cases(draw, need_holder=False):
    """A state with up to 5 sources, d up to 7 (so d > N occurs), edge
    probabilities, and any action over packet holders."""
    n = draw(st.integers(1, 5))
    h = [draw(st.integers(1 if need_holder and i == 0 else 0, 12)) for i in range(n)]
    g = [
        draw(st.one_of(st.just(EMPTY), st.integers(0, hn - 1))) if hn >= 1 else EMPTY
        for hn in h
    ]
    if need_holder and g[0] == EMPTY:
        g[0] = 0
    x = new_state(g, h)
    d = draw(st.integers(1, 7))
    params = ModelParams(n, d, draw(prob), tuple(draw(prob) for _ in range(n)), 2)
    holders = sources_with_packets(x)
    scheduled = draw(st.sets(st.sampled_from(holders), max_size=d)) if holders else set()
    return x, Action(tuple(sorted(scheduled))), params


UNDERFLOW = (  # two arrivals at q = 1e-300 multiply to 0.0 and must be skipped
    new_state((0, 1), (2, 3)), Action((0,)), ModelParams(2, 1, 0.5, (1e-300, 1e-300), 2)
)
CERTAIN = (  # d > N, p = 1 and q = 1: a single event of probability one
    new_state((0, EMPTY, 4), (1, 2, 6)), Action((0, 2)), ModelParams(3, 5, 1.0, (1.0,) * 3, 2)
)


@settings(max_examples=300)
@given(cases(), st.sampled_from([None, "age-drift", "drop-event"]))
@example(UNDERFLOW, None)
@example(CERTAIN, None)
@example(CERTAIN, "drop-event")
def test_kernel_matches_event_reference(case, mode):
    x, a, params = case
    params = replace(params, fault=mode)
    out = enumerate_transitions(x, a, params)
    assert len({x2 for x2, _ in out}) == len(out)  # no successor listed twice
    assert as_hex(out) == as_hex(reference_transitions(x, a, params).items())


@settings(max_examples=200)
@given(cases(need_holder=True), st.sampled_from([None, "age-drift", "drop-event"]))
def test_margin_decomposition_matches_event_reference(case, mode):
    x, a, params = case
    params = replace(params, fault=mode)
    (u, v), = split_margins([(x, a, params)])
    ru, rv = reference_margin_decomposition(x, a, params)
    assert (u.hex(), v.hex()) == (ru.hex(), rv.hex())



BATCH_PROBS = [0.0, 1.0, 1e-300, 1.0 - 1e-16]
batch_prob = st.one_of(st.sampled_from(BATCH_PROBS), st.floats(0.0, 1.0))


@st.composite
def mixed_batches(draw, need_holder=False):
    """Up to 8 cases of N from 1 to 4 under one fault, each with its own edge
    probabilities, so one batch pads narrow instances to the widest."""
    fault = draw(st.sampled_from(FAULT_MODES))
    batch = []
    for _ in range(draw(st.integers(1, 8))):
        x, a, params = draw(cases(need_holder))
        n = draw(st.integers(1, 4))
        x = new_state(x.g[:n] + (0,) * (n - len(x.g)), x.h[:n] + (1,) * (n - len(x.h)))
        holders = sources_with_packets(x)
        a = Action(tuple(s for s in a.scheduled if s < n))
        if need_holder and not a.scheduled:
            a = Action(holders[:1])
        q = tuple(draw(batch_prob) for _ in range(n))
        batch.append((x, a, ModelParams(n, params.n_channels, draw(batch_prob), q, 2, fault)))
    return batch


def dropping(*batch):
    """The cases of batch under drop-event."""
    return [(x, a, replace(params, fault="drop-event")) for x, a, params in batch]


# under drop-event CERTAIN's one event is dropped: a trailing case with no row
@settings(max_examples=80)
@given(mixed_batches())
@example([CERTAIN, UNDERFLOW, CERTAIN])
@example(dropping(UNDERFLOW, CERTAIN))
def test_batched_kernel_matches_event_reference(batch):
    """One call over a batch gives each case the reference's law to the
    last bit, in the scalar kernel's order.  Against the same batch without
    faults, a drop-event case loses exactly the successor of its
    all-succeed, all-arrive event when that event has positive probability,
    and no other case loses a row."""
    ev = pair_law([(a, params) for _, a, params in batch])
    clean = pair_law([(a, replace(params, fault=None)) for _, a, params in batch])
    starts = range(1, len(batch))
    for (x, a, params), part, base in zip(batch, ev.split(*starts), clean.split(*starts)):

        def successors(rows):
            g, h = next_states([x], rows)
            return [(type(x)(tuple(gs[: len(x.g)]), tuple(hs[: len(x.h)])), pr.hex())
                    for gs, hs, pr in zip(g.tolist(), h.tolist(), rows.pr.tolist())]

        law, clean_law = successors(part), successors(base)
        assert dict(law) == as_hex(reference_transitions(x, a, params).items())
        expect = scalar_kernel.enumerate_transitions(x, a, params)
        assert law == [(x2, pr.hex()) for x2, pr in expect]
        every = TransitionEvent(a.scheduled, tuple(range(params.n_sources)))
        if params.fault == "drop-event" and transition_prob(a, every, params) > 0.0:
            dropped = apply_transition(x, a, every)
            assert law == [pair for pair in clean_law if pair[0] != dropped]
            assert len(law) == len(clean_law) - 1
        else:
            assert len(part.pr) == len(base.pr)
            assert part.pr.tobytes() == base.pr.tobytes()
            assert (part.delivered == base.delivered).all()
            assert (part.arrived == base.arrived).all()


@settings(max_examples=50)
@given(mixed_batches(need_holder=True))
@example(dropping(UNDERFLOW, CERTAIN))
def test_batched_margin_decompositions_match_event_reference(batch):
    got = split_margins(batch)
    assert len(got) == len(batch)
    for (x, a, params), (u, v) in zip(batch, got):
        ru, rv = reference_margin_decomposition(x, a, params)
        assert (u.hex(), v.hex()) == (ru.hex(), rv.hex())


def test_certain_arrivals_stay_one_row_at_any_width():
    """Zero branches are pruned source by source, so 24 sources with q = 1
    never grow past one row per success set."""
    params = ModelParams(24, 2, 0.5, (1.0,) * 24, 2)
    ev = transition_law([(3, 7)], [params.p], np.array([params.q]), [24], None)
    assert len(ev.pr) == 4 and ev.arrived.all()
    assert ev.delivered[:, [3, 7]].tolist() == [[False, False], [True, False], [False, True],
                                                [True, True]]


@st.composite
def slots(draw):
    """Up to 8 states of one N <= 6, each with a delivered subset of its
    packet holders and any arrivals."""
    n = draw(st.integers(1, 6))
    block = []
    for _ in range(draw(st.integers(1, 8))):
        h = [draw(st.integers(0, 12)) for _ in range(n)]
        g = [draw(st.one_of(st.just(EMPTY), st.integers(0, hn - 1))) if hn >= 1 else EMPTY
             for hn in h]
        x = new_state(g, h)
        holders = sources_with_packets(x)
        w = draw(st.sets(st.sampled_from(holders))) if holders else set()
        c = draw(st.sets(st.integers(0, n - 1)))
        block.append((x, TransitionEvent(tuple(sorted(w)), tuple(sorted(c)))))
    return n, block


@settings(max_examples=200)
@given(slots(), st.sampled_from([1, 2]))
def test_advance_matches_apply_transition(slot, step):
    """advance row by row against apply_transition, with one more slot of
    aging on undelivered destinations at step 2: on a [B, N] block as the
    Monte Carlo slot calls it, and on the solver's [4, B, N] outcome grid,
    every source under each of its four outcomes kind = 2 * delivered +
    arrived, gathered by each row's kind."""
    n, block = slot
    params = ModelParams(n, n, 0.5, (0.5,) * n, 2, "age-drift" if step == 2 else None)
    expect = [successor(x, Action(e.successes), e, params) for x, e in block]
    dtype = _signed_type(max(max(x.h) for x, _ in block) + step)
    g = np.array([x.g for x, _ in block], dtype=dtype)
    h = np.array([x.h for x, _ in block], dtype=dtype)
    delivered = np.zeros(g.shape, dtype=bool)
    arrived = np.zeros(g.shape, dtype=bool)
    for row, (_, e) in enumerate(block):
        delivered[row, list(e.successes)] = True
        arrived[row, list(e.arrivals)] = True

    def states(g2, h2):
        assert g2.dtype == h2.dtype == dtype
        return [SystemState(tuple(gs), tuple(hs)) for gs, hs in zip(g2.tolist(), h2.tolist())]

    assert states(*advance(g, h, g != EMPTY, delivered, ~arrived, step)) == expect
    kinds = np.arange(4)[:, None, None]
    grid = advance(g, h, g != EMPTY, kinds >= 2, kinds % 2 == 0, step)
    pick = 2 * delivered + arrived, np.arange(len(block))[:, None], np.arange(n)
    assert states(grid[0][pick], grid[1][pick]) == expect
