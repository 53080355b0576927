"""Scheduling policies behind one decision interface.

Three online heuristics plus a table-backed optimal policy:

* delta: schedule the packet holders whose delivery would cut the most age,
  i.e. the largest h[n] - g[n] (equivalently smallest buffered-minus-delivered
  margin g[n] - h[n]).
* pi: schedule the packet holders with the largest destination age h[n],
  ignoring buffered ages.
* rr: cyclic cursor over sources; the default variant skips empty buffers so
  it stays work-conserving, the strict variant burns channel slots on them.

Every decision schedules min(N_x, d) sources (strict round-robin may schedule
fewer), sorted ascending, with index order breaking score ties.

Each rule is written once, for a block of episodes:
decide_batch(t, g, h, memory) takes g, h as integer arrays of shape [B, N]
at stage t and returns the scheduled mask of the same shape and the next
memory.  The index rules ignore t; the table-backed policy looks the whole
stage up in its table's arrays (decide_stage).  decide(t, x, memory) is
decide_batch on the one-row block of a single state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EMPTY, Action, ModelParams, SystemState, sources_with_packets


class StateNotInTable(KeyError):
    """Looked up a (stage, state) the solver never reached."""


def schedule_margin(x: SystemState, scheduled: tuple[int, ...]) -> int:
    """Sum of g[n] - h[n] over the scheduled sources (nonpositive by the state invariant)."""
    return sum(x.g[n] - x.h[n] for n in scheduled)


def min_schedule_margin(x: SystemState, d: int) -> int:
    """Smallest schedule_margin over all work-conserving actions: the sum of the
    min(N_x, d) most negative per-source margins.  Zero when nothing is buffered."""
    margins = sorted(x.g[n] - x.h[n] for n in sources_with_packets(x))
    k = min(len(margins), d)
    return sum(margins[:k])


def min_schedule_margins(g: np.ndarray, h: np.ndarray, d: np.ndarray | int) -> np.ndarray:
    """min_schedule_margin of every row of the ages g, h [rows, N], row i
    with d[i] (or d) channels: a non-holder counts as margin 0, above every
    holder's, so the d smallest entries sum the min(N_x, d) most negative."""
    m = np.sort(np.where(g == EMPTY, 0, g - h), axis=1).cumsum(axis=1)
    return m[np.arange(len(m)), np.minimum(d, m.shape[1]) - 1]


_NO_PACKET_KEY = np.iinfo(np.int64).max


def smallest_holders(keys: np.ndarray, holders: np.ndarray, d: int) -> np.ndarray:
    """Row-wise mask of the min(N_x, d) packet holders with the smallest keys.

    Keys must be distinct among each row's holders; a key of score*N + index
    ranks by score, ties going to the lower index.  With fewer than d holders
    the d-th smallest key is the no-packet key, so every holder is in.
    """
    if d >= keys.shape[1]:
        return holders
    keys = np.where(holders, keys, _NO_PACKET_KEY)
    kth = np.partition(keys, d - 1, axis=1)[:, d - 1 : d]
    return (keys <= kth) & holders


def rr_decide_batch(
    cursor: np.ndarray, g: np.ndarray, d: int, strict: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic selection from each row's cursor.

    Work-conserving (default): the min(N_x, d) holders nearest the cursor in
    cyclic order; the cursor lands one past the last pick, and stays when
    nothing is buffered.  Strict: the next d indices from the cursor,
    whichever of them hold packets, and the cursor advances by d.
    """
    n = g.shape[1]
    holders = g != EMPTY
    dist = (np.arange(n) - cursor[:, None]) % n
    if strict:
        return holders & (dist < min(d, n)), (cursor + d) % n
    mask = smallest_holders(dist, holders, d)
    last = np.where(mask, dist, -1).max(axis=1)
    return mask, np.where(last >= 0, (cursor + last + 1) % n, cursor)


class Policy:
    """Deterministic decision rule; subclasses may thread a memory value
    (round-robin's cursor) through decide() so episodes stay replayable.

    decide_batch(t, g, h, memory) -> (mask, memory) decides on [B, N] arrays,
    where a memory of None starts every row as initial_memory() does; the
    simulator and the policy evaluation call it for whole blocks."""

    name = "policy"

    def initial_memory(self):
        return None

    def decide(self, t: int, x: SystemState, memory=None) -> tuple[Action, object]:
        """decide_batch on the one-row block of state x: the scheduled action
        and the next memory."""
        mask, memory = self.decide_batch(
            t, np.array([x.g], dtype=np.int64), np.array([x.h], dtype=np.int64),
            None if memory is None else np.array([memory], dtype=np.int64))
        action = Action(tuple(np.flatnonzero(mask[0]).tolist()))
        return action, None if memory is None else memory.item()


# Each class binds decide in its own __dict__, where perfbench/tracer.py wraps it.


@dataclass(frozen=True)
class DeltaPolicy(Policy):
    d: int
    name = "delta"
    decide = Policy.decide

    def decide_batch(self, t, g, h, memory=None):
        n = g.shape[1]
        return smallest_holders((g - h) * n + np.arange(n), g != EMPTY, self.d), memory


@dataclass(frozen=True)
class PIPolicy(Policy):
    d: int
    name = "pi"
    decide = Policy.decide

    def decide_batch(self, t, g, h, memory=None):
        n = g.shape[1]
        return smallest_holders(np.arange(n) - h * n, g != EMPTY, self.d), memory


@dataclass(frozen=True)
class RRPolicy(Policy):
    d: int
    strict: bool = False
    decide = Policy.decide

    @property
    def name(self):
        return "rr-strict" if self.strict else "rr"

    def initial_memory(self):
        return 0

    def decide_batch(self, t, g, h, memory=None):
        cursor = np.zeros(len(g), dtype=np.int64) if memory is None else memory
        return rr_decide_batch(cursor, g, self.d, strict=self.strict)


@dataclass(frozen=True)
class OptimalPolicy(Policy):
    table: object  # solved DPTable
    name = "optimal"
    decide = Policy.decide

    def decide_batch(self, t, g, h, memory=None):
        return self.decide_stage(t, g, h), memory

    def decide_stage(self, t: int, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The scheduled mask of every row of the [B, N] ages g, h at stage t:
        each state's stored action, looked up in the table's stage arrays;
        StateNotInTable for a state the solver never reached."""
        table = self.table
        if t >= table.horizon:
            raise ValueError(f"stage {t} is terminal; no decision is defined")
        ids = table.action_ids[t - 1][table.lookup(t, np.concatenate([g, h], axis=1))]
        masks = np.zeros((len(table.actions), g.shape[1]), dtype=bool)
        for i, a in enumerate(table.actions):
            masks[i, list(a.scheduled)] = True
        return masks[ids]


POLICY_NAMES = ("delta", "pi", "rr", "rr-strict", "optimal")


def make_policy(name: str, params: ModelParams, *, table=None) -> Policy:
    """Build a policy from its CLI name.  `optimal` needs a solved table."""
    d = params.n_channels
    if name == "delta":
        return DeltaPolicy(d)
    if name == "pi":
        return PIPolicy(d)
    if name in ("rr", "rr-strict"):
        return RRPolicy(d=d, strict=(name == "rr-strict"))
    if name == "optimal":
        if table is None:
            raise ValueError("optimal policy needs a solved value table")
        return OptimalPolicy(table)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
