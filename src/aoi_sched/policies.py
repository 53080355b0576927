"""Scheduling policies behind one decision interface.

Three online heuristics plus a table-backed optimal policy.  The heuristics
are one index rule: schedule the min(N_x, d) packet holders with the
smallest key

    (a*g[n] + c*h[n]) * N + ((n - cursor) mod N),

with per-policy coefficients (a, c, cyclic):

* delta (1, -1, no): the largest h[n] - g[n], i.e. the smallest
  buffered-minus-delivered margin g[n] - h[n];
* pi (0, -1, no): the largest destination age h[n], ignoring buffered ages;
* rr (0, 0, yes): the holders nearest a cyclic cursor, which lands one past
  the last pick, so that round-robin stays work-conserving.

A non-cyclic rule's cursor stays 0, so its key breaks score ties by index
order.  Strict round-robin (StrictRRPolicy) is not an index rule: it takes
the next d indices from its cursor, whichever of them hold packets, and
burns channel slots on empty buffers.  Each CLI policy name is one class.

Every decision schedules min(N_x, d) sources (strict round-robin may schedule
fewer), sorted ascending.

Each rule is written once, for a block of episodes:
decide_batch(t, g, h, memory) takes g, h as integer arrays of shape [B, N]
at stage t and returns the scheduled mask of the same shape and the next
memory.  The index rules ignore t; the table-backed policy reads the whole
block's masks off its table's stage arrays.  decide(t, x, memory) is
decide_batch on the one-row block of a single state.  IndexRule.stack gives
the rows of several index policies one [B, 1] coefficient column each, so
that a block of mixed rows decides in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import EMPTY, Action, ModelParams, SystemState


class StateNotInTable(KeyError):
    """Looked up a (stage, state) the solver never reached."""


def schedule_margin(x: SystemState, scheduled: tuple[int, ...]) -> int:
    """Sum of g[n] - h[n] over the scheduled sources (nonpositive by the state invariant)."""
    return sum(x.g[n] - x.h[n] for n in scheduled)


def min_schedule_margins(g: np.ndarray, h: np.ndarray, d: np.ndarray | int) -> np.ndarray:
    """The smallest schedule_margin over all work-conserving actions, for
    every row of the ages g, h [rows, N], row i with d[i] (or d) channels;
    zero when nothing is buffered.  A non-holder counts as margin 0, above
    every holder's, so the d smallest entries sum the min(N_x, d) most
    negative per-source margins."""
    m = np.sort(np.where(g == EMPTY, 0, g - h), axis=1).cumsum(axis=1)
    return m[np.arange(len(m)), np.minimum(d, m.shape[1]) - 1]


_NO_PACKET_KEY = np.iinfo(np.int64).max


class IndexRule(NamedTuple):
    """Schedule the min(N_x, d) holders with the smallest key
    (a*g + c*h)*N + ((n - cursor) mod N); a cyclic rule moves its cursor one
    past its last pick.  Each field is a Python value, shared by every row,
    or one entry per row (see stack): a [B, 1] column for a and c, a flat
    [B] array for cyclic.

    The rule decides through scaled(N), which holds a block's constants; a
    caller that decides on one block slot after slot builds it once."""

    a: int | np.ndarray
    c: int | np.ndarray
    cyclic: bool | np.ndarray

    @classmethod
    def stack(cls, rules) -> IndexRule:
        """One rule for a block whose row i follows rules[i]; a field that
        every row shares stays a Python value."""

        def column(values, shape=(-1, 1)):
            if len(set(values)) == 1:
                return values[0]
            return np.array(values).reshape(shape)

        return cls(column([r.a for r in rules]), column([r.c for r in rules]),
                   column([r.cyclic for r in rules], -1))

    def scaled(self, n: int) -> _ScaledRule:
        """This rule on N sources, its key coefficients multiplied by N and
        its cursor distances tabled once."""
        sources = np.arange(n)
        return _ScaledRule(self.a * n, self.c * n, self.cyclic, (sources - sources[:, None]) % n)


class _ScaledRule(NamedTuple):
    """An IndexRule on N sources (see IndexRule.scaled): aN = a*N, cN = c*N,
    and the [N, N] cursor_dist, whose row c holds the cyclic distance
    (m - c) mod N from cursor c to each source m."""

    aN: int | np.ndarray
    cN: int | np.ndarray
    cyclic: bool | np.ndarray
    cursor_dist: np.ndarray

    def decide(self, g, h, holders, d: int, cursor=None):
        """The scheduled mask of the [B, N] ages g, h with packet holders
        holders, the min(N_x, d) holders with the smallest key
        aN*g + cN*h + dist, and each row's next cursor.  cursor is None when
        no row is cyclic (dist is then row 0 of cursor_dist, the source
        index); otherwise it holds every row's cursor, 0 on the non-cyclic
        rows, which never move it.  holders is never written to, and may be
        the mask returned.  A row's next cursor is
        (cursor + (m + 1) * cyclic) mod N, m the largest distance it picked
        (-1 when it picked nothing)."""
        dist = self.cursor_dist[0] if cursor is None else self.cursor_dist.take(cursor, axis=0)
        key = self.aN * g
        key += self.cN * h
        key += dist
        if d >= g.shape[1]:
            mask = holders
        else:
            # with fewer than d holders the d-th smallest key is the
            # no-packet key, so every holder is in
            key = np.where(holders, key, _NO_PACKET_KEY)
            kth = key.copy()
            kth.partition(d - 1, axis=1)
            mask = key <= kth[:, d - 1 : d]
            mask &= holders

        if cursor is None:
            return mask, None
        moved = np.maximum.reduce(dist, axis=1, where=mask, initial=-1)
        moved += 1
        moved *= self.cyclic
        moved += cursor
        moved %= g.shape[1]
        return mask, moved


class Policy:
    """Deterministic decision rule; subclasses may thread a memory value
    (round-robin's cursor) through decide() so episodes stay replayable.

    decide_batch(t, g, h, memory) -> (mask, memory) decides on [B, N] arrays,
    where a memory of None starts every row as initial_memory() does; the
    simulator and the policy evaluation call it for whole blocks."""

    name = "policy"
    rule: IndexRule | None = None  # set on the policies that are index rules

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


@dataclass(frozen=True)
class IndexPolicy(Policy):
    """A policy on d channels, which decides by its index rule on every row
    unless it overrides decide_batch.  The subclasses add no fields, so
    their repr, == and hash are this class's, which name the subclass and
    never equate two classes."""

    d: int

    def decide_batch(self, t, g, h, memory=None):
        if memory is None and self.rule.cyclic:
            memory = np.zeros(len(g), dtype=np.int64)
        return self.rule.scaled(g.shape[1]).decide(g, h, g != EMPTY, self.d, memory)


# Delta, PI, RR and Optimal bind decide in their own __dict__, where
# perfbench/tracer.py wraps it.


class DeltaPolicy(IndexPolicy):
    name = "delta"
    rule = IndexRule(1, -1, False)
    decide = Policy.decide


class PIPolicy(IndexPolicy):
    name = "pi"
    rule = IndexRule(0, -1, False)
    decide = Policy.decide


class RRPolicy(IndexPolicy):
    """Work-conserving round-robin over a cursor: the cyclic index rule."""

    name = "rr"
    rule = IndexRule(0, 0, True)
    decide = Policy.decide

    def initial_memory(self):
        return 0


class StrictRRPolicy(IndexPolicy):
    """Strict round-robin: schedules whichever of the next d indices from
    the cursor hold packets, and the cursor advances by d."""

    name = "rr-strict"

    def initial_memory(self):
        return 0

    def decide_batch(self, t, g, h, memory=None):
        cursor = np.zeros(len(g), dtype=np.int64) if memory is None else memory
        n = g.shape[1]
        dist = (np.arange(n) - cursor[:, None]) % n
        return (g != EMPTY) & (dist < min(self.d, n)), (cursor + self.d) % n


@dataclass(frozen=True)
class OptimalPolicy(Policy):
    table: object  # solved DPTable
    name = "optimal"
    decide = Policy.decide

    def decide_batch(self, t, g, h, memory=None):
        """The scheduled mask of every row of the [B, N] ages g, h at stage t:
        each state's stored mask, looked up in the table's stage arrays;
        StateNotInTable for a state the solver never reached."""
        table = self.table
        if t >= table.horizon:
            raise ValueError(f"stage {t} is terminal; no decision is defined")
        return table.decisions[t - 1][table.lookup(t, np.concatenate([g, h], axis=1))], memory


_POLICIES = {cls.name: cls for cls in (DeltaPolicy, PIPolicy, RRPolicy, StrictRRPolicy,
                                        OptimalPolicy)}
POLICY_NAMES = tuple(_POLICIES)


def make_policy(name: str, params: ModelParams, *, table=None) -> Policy:
    """Build a policy from its CLI name.  `optimal` needs a solved table."""
    cls = _POLICIES.get(name)
    if cls is None:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    if cls is not OptimalPolicy:
        return cls(params.n_channels)
    if table is None:
        raise ValueError("optimal policy needs a solved value table")
    return OptimalPolicy(table)
