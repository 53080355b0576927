"""The dict-based exact solver, kept as the differential reference for the
array solver in `aoi_sched.dp`.

Every (state, action) pair is expanded through the scalar reference kernel
`tests/scalar_kernel.enumerate_transitions`, one call each, into per-stage
dicts; the backward induction then sums each expectation with `math.fsum`
and keeps the first strict minimum in `enumerate_actions` order.  Fixed policies decide through
their scalar rules in `tests/reference.py`.  Results are tuples of stage dicts,
`key -> (value, action or None)`, keyed like `reference.stage_dicts` of a
`DPTable`.
"""

from __future__ import annotations

import math

from aoi_sched.dp import DEFAULT_STATE_CAP, StateSpaceTooLarge
from aoi_sched.model import Action, ModelParams, SystemState, cost, enumerate_actions

from . import reference
from .scalar_kernel import enumerate_transitions


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
    cost(x) + sum_x' P(x'|x,a) V_{t+1}(x'), ties to the first candidate."""
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


def solve_optimal(
    params: ModelParams, x0: SystemState, cap: int = DEFAULT_STATE_CAP
) -> tuple[dict, ...]:
    """Optimal stage tables over every action, tried in enumerate_actions order."""
    d = params.n_channels

    def choose(t, x, mem):
        return [(a, None) for a in enumerate_actions(x, d)]

    return _backward(_forward(params, x0, False, choose, cap), False)


def evaluate_policy(
    policy, params: ModelParams, x0: SystemState, cap: int = DEFAULT_STATE_CAP
) -> tuple[dict, ...]:
    """Stage tables of a fixed policy, on (state, memory) keys when it has memory."""
    mem0 = policy.initial_memory()
    augmented = mem0 is not None
    key0 = (x0, mem0) if augmented else x0

    def choose(t, x, mem):
        return (reference.decide(policy, t, x, mem),)

    return _backward(_forward(params, key0, augmented, choose, cap), augmented)
