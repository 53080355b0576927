"""The scalar policy rules and the slot-by-slot episode, kept as the
differential reference for `decide_batch` in `aoi_sched.policies` and the
block engine in `aoi_sched.simulate`; and the dict view of a solved table
with its text dump, the reference for `aoi_sched.dp.dump_table`.

Each rule decides for one state in pure Python, ranking the packet holders
with `sorted` and walking round-robin's cursor one index at a time;
`decide` dispatches a policy object to its rule.  `run_episode` advances one
state a slot at a time: `decide` picks the action, `model.sample_step` draws
the slot's event from the episode's generator in the order the block engine
reads the uniforms, and the event-by-event law
`scalar_kernel.apply_transition`, not `model.advance`, resolves it.
`tests/dict_solver.py` evaluates fixed policies through `decide`.

`stage_dicts` reads a `DPTable`'s per-stage arrays as one dict per stage,
`key -> (value, action or None)`, where a key is a `SystemState`, or a
(state, cursor) pair for an augmented table, and an action holds the sources
of the row's scheduled mask (None at the terminal stage).
"""

from __future__ import annotations

import weakref

import numpy as np

from aoi_sched.model import (
    EMPTY,
    Action,
    SystemState,
    format_state,
    sample_step,
    sources_with_packets,
)
from aoi_sched.policies import (
    DeltaPolicy,
    OptimalPolicy,
    PIPolicy,
    RRPolicy,
    StateNotInTable,
    StrictRRPolicy,
)
from aoi_sched.simulate import EpisodeResult

from .scalar_kernel import apply_transition


def delta_decide(x, d: int) -> Action:
    """Minimize the summed margin: pick the min(N_x, d) holders with largest h - g."""
    holders = sources_with_packets(x)
    ranked = sorted(holders, key=lambda n: (x.g[n] - x.h[n], n))
    return Action(tuple(sorted(ranked[: min(len(holders), d)])))


def pi_decide(x, d: int) -> Action:
    """Pick the min(N_x, d) holders with the largest destination age."""
    holders = sources_with_packets(x)
    ranked = sorted(holders, key=lambda n: (-x.h[n], n))
    return Action(tuple(sorted(ranked[: min(len(holders), d)])))


def rr_decide(cursor: int, x, d: int, strict: bool = False) -> tuple[Action, int]:
    """Cyclic selection starting at the cursor.

    Work-conserving (default): scan from the cursor, skipping empty buffers,
    until min(N_x, d) sources are chosen; the cursor lands one past the last
    pick.  Strict: take the next d indices regardless of buffer contents,
    schedule whichever of them hold packets, and advance the cursor by d.
    """
    n = len(x.g)
    if not 0 <= cursor < n:
        raise ValueError(f"cursor {cursor} outside [0, {n})")
    if strict:
        candidates = {(cursor + i) % n for i in range(min(d, n))}
        chosen = tuple(sorted(i for i in candidates if x.g[i] != EMPTY))
        return Action(chosen), (cursor + d) % n
    want = min(len(sources_with_packets(x)), d)
    picked: list[int] = []
    idx = cursor
    for _ in range(n):
        if len(picked) == want:
            break
        if x.g[idx] != EMPTY:
            picked.append(idx)
        idx = (idx + 1) % n
    new_cursor = (picked[-1] + 1) % n if picked else cursor
    return Action(tuple(sorted(picked))), new_cursor


_STAGE_DICTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def stage_dicts(table) -> tuple[dict, ...]:
    """The table as one dict per stage, key -> (value, action or None), with
    keys of Python ints (repr of a numpy integer differs) and values of Python
    floats; built once per table."""
    if table not in _STAGE_DICTS:
        stages = []
        for rows, values, masks in zip(table.stages, table.values, (*table.decisions, None)):
            n = rows.shape[1] // 2
            keys = []
            for row in rows.tolist():
                x = SystemState(tuple(row[:n]), tuple(row[n : 2 * n]))
                keys.append((x, row[2 * n]) if table.augmented else x)
            acts = ([None] * len(keys) if masks is None else
                    [Action(tuple(np.flatnonzero(m).tolist())) for m in masks])
            stages.append(dict(zip(keys, zip(values.tolist(), acts))))
        _STAGE_DICTS[table] = tuple(stages)
    return _STAGE_DICTS[table]


def dump_table(table, path) -> None:
    """The text export written from the dict view: one `t= state= value=
    action=` line per key, keys in `sorted` order."""
    stages = stage_dicts(table)
    with open(path, "w", encoding="utf-8") as fh:
        name = table.policy_name or "optimal"
        fh.write(f"# value table policy={name} horizon={table.horizon}\n")
        for t in range(1, table.horizon + 1):
            for key in sorted(stages[t - 1]):
                x, mem = key if table.augmented else (key, None)
                value, action = stages[t - 1][key]
                line = f"t={t} state={format_state(x)}"
                if mem is not None:
                    line += f" cursor={mem}"
                line += f" value={value:.12g}"
                if action is not None:
                    line += " action=[" + ",".join(str(n + 1) for n in action.scheduled) + "]"
                fh.write(line + "\n")


def dp_policy_decide(table, t: int, x) -> Action:
    """Replay the stored minimizing action through the table's dict view."""
    if t >= table.horizon:
        raise ValueError(f"stage {t} is terminal; no decision is defined")
    try:
        return stage_dicts(table)[t - 1][x][1]
    except KeyError:
        raise StateNotInTable(f"stage {t} has no entry for {x}") from None


def decide(policy, t: int, x, memory=None) -> tuple[Action, object]:
    """The reference rule of a policy object: (action, next memory)."""
    if isinstance(policy, DeltaPolicy):
        return delta_decide(x, policy.d), memory
    if isinstance(policy, PIPolicy):
        return pi_decide(x, policy.d), memory
    if isinstance(policy, RRPolicy):
        return rr_decide(0 if memory is None else memory, x, policy.d)
    if isinstance(policy, StrictRRPolicy):
        return rr_decide(0 if memory is None else memory, x, policy.d, strict=True)
    if isinstance(policy, OptimalPolicy):
        return dp_policy_decide(policy.table, t, x), memory
    raise TypeError(f"no reference rule for {policy!r}")


def run_episode(policy, params, x0, seed: int) -> EpisodeResult:
    """One seeded rollout, one slot at a time: the destination-age sum is
    accrued at every stage 1..T and decisions happen at stages 1..T-1."""
    rng = np.random.default_rng(seed)
    T = params.horizon
    x = x0
    mem = policy.initial_memory()
    per_source = [0] * params.n_sources
    for t in range(1, T + 1):
        for n, hn in enumerate(x.h):
            per_source[n] += hn
        if t < T:
            action, mem = decide(policy, t, x, mem)
            x = apply_transition(x, action, sample_step(x, action, params, rng))
    return EpisodeResult(sum(per_source), tuple(s / T for s in per_source), seed)
