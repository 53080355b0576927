"""The event-by-event slot law, the scalar per-source product kernel and the
one-case loops built on them, kept as the differential references for the
array law `aoi_sched.model.advance`, the batched kernel
`aoi_sched.model.transition_law` and the batched checks in
`aoi_sched.verify`.

`apply_transition` resolves one (successes, arrivals) event of one state,
`transition_prob` gives that event's probability as a product over sources,
and `min_schedule_margin` sums one state's most negative margins: the law as
the model states it, one event and one state at a time.  The Monte Carlo
reference `tests/reference.run_episode` resolves each event that
`model.sample_step` draws through `apply_transition`.

`enumerate_transitions` walks the success sets of one (state, action) in
`combinations` order and extends each arrival pattern one source at a time,
in pure Python, so one call costs a few microseconds; `tests/dict_solver.py`
makes its tens of thousands of calls through it.  The margin split and the
one-step identity read the same expansion, and the three `check_*` loops
draw one random case at a time, through `random_case` on a real
`np.random.default_rng`, and evaluate it on its own, as the battery did
before it ran batched.  `random_case` is also the object draw that
`aoi_sched.verify._draw`'s column batches equal row by row; `columns`
turns (x, a, params) cases into such a batch, `pair_law` expands
(action, instance) pairs of one fault through the batched kernel, and
`next_states` applies `successor_ages` to states.  Every function keeps
the fault semantics of the batched code: age-drift ages every
non-delivered destination by 2, and drop-event leaves the all-succeed,
all-arrive event out of each law that is read, the enumeration and both
parts of the margin split alike (for the no-success part, the law of the
idle action, that is the all-arrive event).  `apply_transition` and `transition_prob` are the clean law, which
no fault reaches.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from aoi_sched.model import (
    EMPTY,
    Action,
    InvalidState,
    ModelParams,
    SystemState,
    TransitionEvent,
    cost,
    enumerate_actions,
    new_state,
    norm_inf,
    sources_with_packets,
    success_probs,
    successor_ages,
    transition_law,
)
from aoi_sched.policies import schedule_margin
from aoi_sched.verify import MAX_AGE, MAX_N, STEP_TOL, Cases


class InvalidEvent(ValueError):
    """Transition event inconsistent with the action it claims to resolve."""


def _check_schedulable(x, a) -> None:
    for n in a.scheduled:
        if x.g[n] == EMPTY:
            raise InvalidState(f"action schedules source {n} whose buffer is empty")


def apply_transition(x, a, e):
    """Resolve one slot: successes reset destination ages, arrivals refill buffers.

    Destination: h'[n] = g[n]+1 on a successful transfer from n, else h[n]+1.
    Buffer: an arrival leaves a fresh age-0 packet; a delivered packet without
    an arrival empties the buffer; an undelivered packet ages by one; an empty
    buffer stays empty.  This is the clean law; no fault reaches it.
    """
    w = frozenset(e.successes)
    if not w.issubset(a.scheduled):
        raise InvalidEvent(f"successes {sorted(w)} not within scheduled {list(a.scheduled)}")
    _check_schedulable(x, a)
    c = frozenset(e.arrivals)
    g2 = []
    h2 = []
    for n, (gn, hn) in enumerate(zip(x.g, x.h)):
        delivered = n in w
        h2.append(gn + 1 if delivered else hn + 1)
        if n in c:
            g2.append(0)
        elif delivered or gn == EMPTY:
            g2.append(EMPTY)
        else:
            g2.append(gn + 1)
    return SystemState(tuple(g2), tuple(h2))


def transition_prob(a, e, params) -> float:
    """Joint probability of a (successes, arrivals) event under independent draws."""
    w = frozenset(e.successes)
    if not w.issubset(a.scheduled):
        raise InvalidEvent(f"successes {sorted(w)} not within scheduled {list(a.scheduled)}")
    c = frozenset(e.arrivals)
    p = params.p
    pr = p ** len(w) * (1.0 - p) ** (len(a.scheduled) - len(w))
    for n, qn in enumerate(params.q):
        pr *= qn if n in c else 1.0 - qn
    return pr


def min_schedule_margin(x, d: int) -> int:
    """Smallest schedule_margin over all work-conserving actions: the sum of the
    min(N_x, d) most negative per-source margins.  Zero when nothing is buffered."""
    margins = sorted(x.g[n] - x.h[n] for n in sources_with_packets(x))
    k = min(len(margins), d)
    return sum(margins[:k])


def _success_sets(a, p: float):
    """Each success set w of the action, in combinations order, with its
    probability p^|w| (1-p)^(|a|-|w|); sets of probability 0.0 are skipped."""
    k = len(a.scheduled)
    for nw in range(k + 1):
        base = p**nw * (1.0 - p) ** (k - nw)
        if base != 0.0:
            for w in combinations(a.scheduled, nw):
                yield w, base


def _expand_arrivals(x, w, base: float, params) -> list:
    """Successors of x when exactly the sources in w deliver, one per arrival
    pattern, each weighted base * prod_n (q[n] or 1 - q[n]) multiplied left to
    right, a branch dropped as soon as its product is 0.0."""
    bump = 2 if params.fault == "age-drift" else 1
    h2 = tuple(gn + 1 if n in w else hn + bump for n, (gn, hn) in enumerate(zip(x.g, x.h)))
    layer = [(base, ())]
    for n, (gn, qn) in enumerate(zip(x.g, params.q)):
        kept = EMPTY if gn == EMPTY or n in w else gn + 1
        nq = 1.0 - qn
        nxt = []
        for pr, gs in layer:
            v = pr * nq
            if v != 0.0:
                nxt.append((v, gs + (kept,)))
            v = pr * qn
            if v != 0.0:
                nxt.append((v, gs + (0,)))
        layer = nxt
    return [(type(x)(gs, h2), pr) for pr, gs in layer]


def _law(x, a, params, out: list) -> list:
    """out, a list of (successor, probability) of (x, a), less the successor
    of the event where every scheduled transfer succeeds and every source gets
    a packet under drop-event; distinct events give distinct successors."""
    if params.fault != "drop-event":
        return out
    every = TransitionEvent(a.scheduled, tuple(range(params.n_sources)))
    dropped = apply_transition(x, a, every)
    return [(x2, pr) for x2, pr in out if x2 != dropped]


def enumerate_transitions(x, a, params) -> list:
    """Exact successor distribution of (x, a), in the batched kernel's order."""
    _check_schedulable(x, a)
    out = []
    for w, base in _success_sets(a, params.p):
        out += _expand_arrivals(x, w, base, params)
    return _law(x, a, params, out)


def expected_age_sum_check(x, a, params) -> tuple[float, float]:
    lhs = math.fsum(pr * cost(x2) for x2, pr in enumerate_transitions(x, a, params))
    rhs = float(cost(x) + params.n_sources) + params.p * schedule_margin(x, a.scheduled)
    return lhs, rhs


def no_success_margin(x, a, params) -> float:
    """Expected best margin over the law of (x, Action(())): the pure arrival patterns."""
    _check_schedulable(x, a)
    d = params.n_channels
    idle = _law(x, Action(()), params, _expand_arrivals(x, (), 1.0, params))
    return math.fsum(pr * min_schedule_margin(x2, d) for x2, pr in idle)


def margin_decomposition(x, a, params) -> tuple[float, float]:
    u = no_success_margin(x, a, params)
    d = params.n_channels
    succ = [pair for w, base in _success_sets(a, params.p) if w
            for pair in _expand_arrivals(x, w, base, params)]
    succ_terms = [pr * min_schedule_margin(x2, d) for x2, pr in _law(x, a, params, succ)]
    pd = success_probs(params, 0).batch
    v = math.fsum(succ_terms) / pd if pd > 0.0 else 0.0
    return u, v


def random_state(rng, n_sources: int, ensure_holder: bool = False) -> SystemState:
    h = [int(rng.integers(0, MAX_AGE + 1)) for _ in range(n_sources)]
    g = []
    for hn in h:
        if hn >= 1 and rng.random() < 0.7:
            g.append(int(rng.integers(0, hn)))
        else:
            g.append(EMPTY)
    if ensure_holder and all(v == EMPTY for v in g):
        i = int(rng.integers(0, n_sources))
        h[i] = max(h[i], 1)
        g[i] = int(rng.integers(0, h[i]))
    return new_state(g, h)


def random_case(
    rng, ensure_holder: bool = False, fault: str | None = None
) -> tuple[ModelParams, SystemState, Action]:
    """A random instance plus a random work-conserving action, edge
    probabilities included: the reference draw, one object case at a time,
    of the column batches aoi_sched.verify._draw replays from PCG64's words."""
    n = int(rng.integers(1, MAX_N + 1))
    d = int(rng.integers(1, 4))
    r = rng.random()
    p = 0.0 if r < 0.05 else 1.0 if r < 0.10 else float(rng.uniform(0.0, 1.0))
    q = [float(v) for v in rng.uniform(0.0, 1.0, n)]
    for i in range(n):  # sprinkle exact endpoints
        rr = rng.random()
        if rr < 0.05:
            q[i] = 0.0
        elif rr < 0.10:
            q[i] = 1.0
    params = ModelParams(n, d, p, tuple(q), horizon=2, fault=fault)
    x = random_state(rng, n, ensure_holder)
    holders = list(sources_with_packets(x))
    k = min(len(holders), d)
    rng.shuffle(holders)
    a = Action(tuple(sorted(holders[:k])))
    return params, x, a


def columns(batch, fault=None) -> Cases:
    """The (x, a, params) cases of batch as one column batch of fault: the
    oracles of aoi_sched.verify read the fault only through the law they
    are given, so the batch's fault need not be its instances'."""
    width = max((params.n_sources for _, _, params in batch), default=0)

    def padded(rows, fill, dtype):
        return np.array([tuple(r) + (fill,) * (width - len(r)) for r in rows],
                        dtype=dtype).reshape(len(batch), width)

    return Cases(
        n=np.array([params.n_sources for _, _, params in batch], dtype=np.int64),
        d=np.array([params.n_channels for _, _, params in batch], dtype=np.int64),
        p=np.array([params.p for _, _, params in batch], dtype=float),
        q=padded([params.q for _, _, params in batch], 0.0, float),
        g=padded([x.g for x, _, _ in batch], EMPTY, np.int64),
        h=padded([x.h for x, _, _ in batch], 0, np.int64),
        scheduled=[a.scheduled for _, a, _ in batch], fault=fault)


def pair_law(pairs):
    """transition_law of (Action, ModelParams) pairs, which share one fault,
    each instance's q padded with 0.0 to the widest N."""
    faults = {params.fault for _, params in pairs}
    if len(faults) > 1:
        raise ValueError(f"one kernel call takes one fault, got {sorted(map(str, faults))}")
    width = max((params.n_sources for _, params in pairs), default=0)
    q = [params.q + (0.0,) * (width - params.n_sources) for _, params in pairs]
    return transition_law(
        [a.scheduled for a, _ in pairs], [params.p for _, params in pairs],
        np.array(q, dtype=float).reshape(len(pairs), width),
        [params.n_sources for _, params in pairs], faults.pop() if faults else None)


def next_states(xs, ev):
    """successor_ages of the states xs[case] under the rows of ev."""
    width = ev.delivered.shape[1]
    g = [x.g + (EMPTY,) * (width - len(x.g)) for x in xs]
    h = [x.h + (0,) * (width - len(x.h)) for x in xs]
    return successor_ages(np.array(g), np.array(h), np.array([len(x.g) for x in xs]), ev)


def prob_closure_measured(n_cases: int, seed: int, fault) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        params, x, a = random_case(rng, fault=fault)
        total = math.fsum(pr for _, pr in enumerate_transitions(x, a, params))
        worst = max(worst, abs(total - 1.0))
    return {"max_abs_err": worst, "cases": n_cases, "tol": STEP_TOL}


def age_sum_identity_measured(n_cases: int, seed: int, fault) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        params, x, a = random_case(rng, fault=fault)
        lhs, rhs = expected_age_sum_check(x, a, params)
        worst = max(worst, abs(lhs - rhs))
    return {"max_abs_err": worst, "cases": n_cases, "tol": STEP_TOL}


def margin_split_measured(n_cases: int, seed: int, fault) -> dict:
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    worst_bound = -math.inf
    worst_spread = 0.0
    for _ in range(n_cases):
        params, x, a = random_case(rng, ensure_holder=True, fault=fault)
        d = params.n_channels
        u, v = margin_decomposition(x, a, params)
        expected = math.fsum(
            pr * min_schedule_margin(x2, d) for x2, pr in enumerate_transitions(x, a, params)
        )
        patt = success_probs(params, len(a.scheduled)).attempted
        pd = success_probs(params, 0).batch
        worst_identity = max(worst_identity, abs(expected - ((1.0 - patt) * u + pd * v)))
        limit = d * norm_inf(x)
        worst_bound = max(worst_bound, abs(u) - limit, abs(v) - limit)
        others = [no_success_margin(x, b, params) for b in enumerate_actions(x, d)]
        worst_spread = max(worst_spread, max(others) - min(others))
    return {
        "max_identity_err": worst_identity,
        "max_bound_excess": worst_bound,
        "max_no_success_spread": worst_spread,
        "cases": n_cases,
        "tol": STEP_TOL,
    }
