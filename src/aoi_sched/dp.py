"""Exact finite-horizon machinery: one forward pass over reachable states and
one backward induction, shared by the optimal solve and fixed-policy
evaluation; the optimality-gap report for the best-margin policy; and the
recursively defined constants that bound that gap.

Stages run 1..T.  Cost is accrued every stage; decisions happen at stages
1..T-1; the terminal value is the bare stage cost.  Only states forward
reachable from the initial state are tabulated, which keeps the unbounded age
grid finite (ages grow by at most one per slot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .model import (
    Action,
    ModelParams,
    SystemState,
    _check_schedulable,
    _expand_arrivals,
    _success_sets,
    cost,
    enumerate_actions,
    enumerate_transitions,
    format_state,
    norm_inf,
    sources_with_packets,
    success_probs,
)
from .policies import DeltaPolicy, min_schedule_margin, schedule_margin

DEFAULT_STATE_CAP = 5_000_000


class StateSpaceTooLarge(RuntimeError):
    """Forward closure exceeded the configured state cap."""


class DegenerateP(ValueError):
    """p = 0 leaves the normalized gap undefined (the raw gap is identically 0)."""


class InvalidDepth(ValueError):
    """Bound-constant recursion starts at depth 2."""


class NoAction(ValueError):
    """Operation needs at least one packet-holding source."""


@dataclass(frozen=True)
class DPTable:
    """Per-stage value maps.  Keys are states, or (state, memory) pairs when the
    evaluated policy threads a memory value (augmented round-robin cursor)."""

    horizon: int
    policy_name: str | None  # None marks the optimal table
    augmented: bool
    stages: tuple[dict, ...]  # stages[t-1]: key -> (value, action-or-None)
    root_key: object

    def value(self, t: int, key) -> float:
        return self.stages[t - 1][key][0]

    def action(self, t: int, key):
        return self.stages[t - 1][key][1]

    def states(self, t: int):
        return self.stages[t - 1].keys()

    def root_value(self) -> float:
        return self.stages[0][self.root_key][0]


class BoundConstants(NamedTuple):
    k: int
    c1: float
    c2: float
    d1: float
    d2: float


@dataclass(frozen=True)
class GapReport:
    """Root-stage gap of the best-margin policy against the optimum, with the
    matching analytic bound p·p_d·(d1·norm_inf(x0) + d2)."""

    p: float
    diff: float
    p_pd: float
    z: float | None  # diff / (p * p_d); None at p = 0
    bound: float
    v_star: float
    v_delta: float
    constants: BoundConstants | None  # None when T <= 2


def _forward(params: ModelParams, key0, augmented: bool, choose, cap: int) -> list[dict]:
    """Stage layers reachable from key0.  Layer t maps each key to its
    candidates (action, next memory, successor pairs), where choose(t, x, mem)
    yields the (action, next memory) pairs to expand; last-stage keys map to ().

    A key is a state, or a (state, memory) pair when augmented.  Each
    (state, action) is enumerated once, whichever stage or memory it recurs at,
    and the cap counts distinct keys as they are added.
    """
    trans: dict[tuple[SystemState, Action], list] = {}
    layers: list[dict] = [{key0: ()}]
    total = 1
    for t in range(1, params.horizon):
        cur, nxt = layers[-1], {}
        for key in cur:
            x, mem = key if augmented else (key, None)
            cands = []
            for a, mem2 in choose(t, x, mem):
                pairs = trans.get((x, a))
                if pairs is None:
                    pairs = trans[(x, a)] = enumerate_transitions(x, a, params)
                for x2, _pr in pairs:
                    key2 = (x2, mem2) if augmented else x2
                    if key2 not in nxt:
                        total += 1
                        if total > cap:
                            raise StateSpaceTooLarge(
                                f"reachable set exceeds cap: {total} > {cap}"
                            )
                        nxt[key2] = ()
                cands.append((a, mem2, pairs))
            cur[key] = cands
        layers.append(nxt)
    return layers


def _backward(layers: list[dict], augmented: bool) -> tuple[dict, ...]:
    """V_T(x) = cost(x); V_t(x) = min over candidates of
    cost(x) + sum_x' P(x'|x,a) V_{t+1}(x').

    Expectations use math.fsum so candidate values that are equal in exact
    arithmetic round identically; ties then resolve to the first candidate.
    """
    T = len(layers)
    stages: list[dict] = [{} for _ in range(T)]
    stages[T - 1] = {
        key: (float(cost(key[0] if augmented else key)), None) for key in layers[T - 1]
    }
    for t in range(T - 1, 0, -1):
        nxt = stages[t]
        cur = {}
        for key, cands in layers[t - 1].items():
            base = float(cost(key[0] if augmented else key))
            best = best_a = None
            for a, mem2, pairs in cands:
                q = base + math.fsum(
                    pr * nxt[(x2, mem2) if augmented else x2][0] for x2, pr in pairs
                )
                if best is None or q < best:
                    best, best_a = q, a
            cur[key] = (best, best_a)
        stages[t - 1] = cur
    return tuple(stages)


def _all_actions(params: ModelParams):
    """The optimal solve's chooser: every action, in enumerate_actions order."""
    d = params.n_channels
    return lambda t, x, mem: [(a, None) for a in enumerate_actions(x, d)]


def reachable_states(
    params: ModelParams,
    x0: SystemState,
    horizon: int | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> list[set[SystemState]]:
    """Per-stage sets of states reachable from x0 under any action sequence."""
    if horizon is not None:
        params = replace(params, horizon=horizon)
    return [set(layer) for layer in _forward(params, x0, False, _all_actions(params), cap)]


def solve_optimal(
    params: ModelParams, x0: SystemState, cap: int = DEFAULT_STATE_CAP
) -> DPTable:
    """Backward induction for the optimal values over every action, tried in
    enumerate_actions order, so ties resolve to the lexicographically smallest."""
    layers = _forward(params, x0, False, _all_actions(params), cap)
    return DPTable(params.horizon, None, False, _backward(layers, False), x0)


def evaluate_policy(
    policy, params: ModelParams, x0: SystemState, cap: int = DEFAULT_STATE_CAP
) -> DPTable:
    """Exact value of a fixed deterministic policy by the same backward pass,
    the minimization replaced by the policy's decision.

    A policy with memory (round-robin cursor) is evaluated on augmented keys
    (state, memory); memoryless policies key by bare states so their tables
    compare directly against the optimal one.
    """
    mem0 = policy.initial_memory()
    augmented = mem0 is not None
    key0 = (x0, mem0) if augmented else x0

    def choose(t, x, mem):
        decision, mem2 = policy.decide(t, x, mem)
        return ((decision.action, mem2),)

    layers = _forward(params, key0, augmented, choose, cap)
    return DPTable(params.horizon, policy.name, augmented, _backward(layers, augmented), key0)


def bound_constants(k: int, p: float, d: int) -> BoundConstants:
    """Gap-bound constants by forward recursion from the depth-2 base case.

    Base: c1(2) = (1+p_d)d, c2(2) = 0, d1(2) = 2d, d2(2) = 0.  Each extra
    depth feeds the previous constants back in, so all four grow monotonically
    in k for p > 0.
    """
    if k < 2:
        raise InvalidDepth(f"depth must be >= 2, got {k}")
    pd = 1.0 - (1.0 - p) ** d
    c1, c2 = (1.0 + pd) * d, 0.0
    d1, d2 = 2.0 * d, 0.0
    for j in range(3, k + 1):
        c1n = (1.0 + pd) * c1 + 2.0 * (j - 1) * d
        c2n = (1.0 + pd) * (c1 + c2)
        d1n = (1.0 + pd) * d1 + 2.0 * c1 + 2.0 * (j - 1) * d
        d2n = (1.0 + pd) * (d1 + d2) + 2.0 * (c1 + c2)
        c1, c2, d1, d2 = c1n, c2n, d1n, d2n
    return BoundConstants(k, c1, c2, d1, d2)


def gap_report(
    params: ModelParams, x0: SystemState, v_star: float, v_delta: float
) -> GapReport:
    """The gap v_delta - v_star with its normalized form and analytic bound.
    With T <= 2 the gap is identically zero and no recursion depth exists, so
    the bound is 0 and there are no constants."""
    diff = v_delta - v_star
    p_pd = params.p * success_probs(params, 0).batch
    z = diff / p_pd if params.p > 0.0 else None
    bound, constants = 0.0, None
    if params.horizon >= 3:
        constants = bound_constants(params.horizon - 1, params.p, params.n_channels)
        bound = p_pd * (constants.d1 * norm_inf(x0) + constants.d2)
    return GapReport(params.p, diff, p_pd, z, bound, v_star, v_delta, constants)


def optimality_gap(
    params: ModelParams, x0: SystemState, cap: int = DEFAULT_STATE_CAP
) -> GapReport:
    """Solve the instance twice (optimal and best-margin policy) and report the
    root-stage difference with its normalized form and analytic bound."""
    if params.p == 0.0:
        raise DegenerateP("p = 0: all policies coincide and the normalized gap is undefined")
    v_star = solve_optimal(params, x0, cap=cap).root_value()
    v_delta = evaluate_policy(DeltaPolicy(params.n_channels), params, x0, cap=cap).root_value()
    return gap_report(params, x0, v_star, v_delta)


def expected_age_sum_check(
    x: SystemState, a: Action, params: ModelParams
) -> tuple[float, float]:
    """One-step identity: expected next destination-age sum against its closed
    form cost(x) + N + p * schedule_margin.  Returns (enumerated, closed form)."""
    lhs = math.fsum(pr * cost(x2) for x2, pr in enumerate_transitions(x, a, params))
    rhs = float(cost(x) + params.n_sources) + params.p * schedule_margin(x, a.scheduled)
    return lhs, rhs


class MarginDecomposition(NamedTuple):
    no_success: float  # action-invariant; conditional on every transfer failing
    success: float     # carries all action dependence


def margin_decomposition(
    x: SystemState, a: Action, params: ModelParams
) -> MarginDecomposition:
    """Split the expected next-state best margin by transfer outcome.

    With m = min_schedule_margin of the successor, the split satisfies
    E[m] = (1 - p_att)*no_success + p_batch*success, where p_att is the
    at-least-one-success probability of the attempts made and p_batch that of
    a full channel batch.  Both parts are bounded by d * norm_inf(x) in
    absolute value; either may be negative.  At p = 0 the success part is a
    0/0 limit and is reported as 0.0.
    """
    if not sources_with_packets(x):
        raise NoAction("no packet-holding source to schedule")
    _check_schedulable(x, a)
    d = params.n_channels
    # base 1.0 with no successes: the pure arrival probability of each pattern
    u = math.fsum(
        pr * min_schedule_margin(x2, d) for x2, pr in _expand_arrivals(x, (), 1.0, params)
    )
    succ_terms = [
        pr * min_schedule_margin(x2, d)
        for w, base in _success_sets(a, params.p)
        if w
        for x2, pr in _expand_arrivals(x, w, base, params)
    ]
    pd = success_probs(params, 0).batch
    v = math.fsum(succ_terms) / pd if pd > 0.0 else 0.0
    return MarginDecomposition(u, v)


def dump_table(table: DPTable, path) -> None:
    """Debug text export: one `t= state= value= action=` line per entry, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        name = table.policy_name or "optimal"
        fh.write(f"# value table policy={name} horizon={table.horizon}\n")
        for t in range(1, table.horizon + 1):
            for key in sorted(table.states(t)):
                x, mem = key if table.augmented else (key, None)
                value, action = table.stages[t - 1][key]
                line = f"t={t} state={format_state(x)}"
                if mem is not None:
                    line += f" cursor={mem}"
                line += f" value={value:.12g}"
                if action is not None:
                    line += " action=[" + ",".join(str(n + 1) for n in action.scheduled) + "]"
                fh.write(line + "\n")
