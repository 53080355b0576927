"""Exact finite-horizon machinery: one forward pass over reachable states and
one backward induction, shared by the optimal solve and fixed-policy
evaluation; the optimality-gap report for the best-margin policy; and the
recursively defined constants that bound that gap.

Stages run 1..T.  Cost is accrued every stage; decisions happen at stages
1..T-1; the terminal value is the bare stage cost.  Only states forward
reachable from the initial state are tabulated, which keeps the unbounded age
grid finite (ages grow by at most one per slot).

Both passes work on per-stage arrays.  A stage is one integer row g | h per
distinct state.  An event's probability depends only on the scheduled set,
not on the state, so each action's events are read once per pass off the
batched kernel, and the successors of every row taking that action come
from one call of model.advance, the successor law that the kernel and the
Monte Carlo slot share.  The backward pass sums each expectation to
math.fsum's value, which is exact (_exact_sums), so every value and
tie-break is the one a state-by-state pass over the kernel's (successor,
probability) pairs gives.  A solved DPTable is those arrays: each stage's
key rows with a value and, before stage T, a scheduled mask per row.

A fixed policy is a rider: the forward pass sweeps its keys, slots of a
stage's rows by memory value (the rr cursor), over the stage's moves, one
kept per key, and the backward pass sums its values.  Policies whose picks
are work-conserving ride the optimal solve; any policy rides a pass of its
own, whose moves are its picks (evaluate_policy).  dump_table writes a
table as text.  The one-step identities live in `verify`, which checks
them.

Instances equal except for p share one forward pass (gap_tables): no move
or pick reads p, and p changes an action's event rows only where a
probability is 0.0 (p = 0 or 1, an underflowing p**k).  A point whose laws
have a pass's rows, action by action, has its stages and blocks and binds
only its own pr.  A single solve is a one-point grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate, chain, combinations, zip_longest
from typing import NamedTuple

import numpy as np

from .model import (  # enumerate_transitions stays importable from here
    EMPTY,
    Events,
    ModelParams,
    SystemState,
    _signed_type,
    advance,
    enumerate_transitions,
    format_state,
    norm_inf,
    success_probs,
    transition_law,
)
from .policies import DeltaPolicy, StateNotInTable

DEFAULT_STATE_CAP = 5_000_000


class StateSpaceTooLarge(RuntimeError):
    """Forward closure exceeded the configured state cap."""


class InvalidDepth(ValueError):
    """Bound-constant recursion starts at depth 2."""


def _rank(code: np.ndarray) -> tuple[int, np.ndarray]:
    uniq, inv = np.unique(code, return_inverse=True)
    return len(uniq), inv


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer or boolean array and the index of
    each row among them.

    A row's bytes, zero-padded to whole 8-byte words, are read as unsigned
    integers.  A one-word row is ranked by np.unique directly; every further
    word is ranked and folded into the rank of the words before it, so each
    code stays below (number of rows)**2 and none overflows, however wide
    the row.
    """
    size, width = len(rows), rows.itemsize * rows.shape[1]
    buf = np.zeros((size, -(-width // 8) * 8), dtype=np.uint8)
    buf[:, :width] = np.ascontiguousarray(rows).view(np.uint8).reshape(size, width)
    code = None
    for word in buf.view(np.uint64).T:
        if code is None:
            code = word
        else:
            _, hi = _rank(code)
            n_lo, lo = _rank(word)
            code = hi * n_lo + lo
    n_uniq, inv = _rank(code)
    first = np.empty(n_uniq, dtype=np.intp)
    first[inv] = np.arange(size)
    return rows[first], inv


def _mask_groups(flags: np.ndarray):
    """The distinct rows of a boolean [rows, N] array as their true columns,
    ascending, and each row's index among them."""
    sets, inv = _unique_rows(flags)
    return [tuple(np.flatnonzero(row).tolist()) for row in sets], inv


def _row_key(row: list, n: int, augmented: bool):
    x = SystemState(tuple(row[:n]), tuple(row[n : 2 * n]))
    return (x, row[2 * n]) if augmented else x


@dataclass(frozen=True, eq=False)
class DPTable:
    """Per-stage arrays of one solve.  stages[t-1] holds stage t's keys, one
    integer row g | h per key, plus a memory column when the evaluated policy
    threads one (augmented round-robin cursor); values[t-1] and, for t < T,
    decisions[t-1] follow the same rows.  root_key is stage 1's one key, a
    state or a (state, memory) pair.  riders, on an optimal table, are the
    tables of the policies that rode its pass (solve_optimal), in order."""

    horizon: int
    policy_name: str | None  # None marks the optimal table
    augmented: bool
    root_key: object
    stages: tuple[np.ndarray, ...]      # per stage: one key row g | h (| memory) per key
    values: tuple[np.ndarray, ...]      # per stage: float64 value of each row
    decisions: tuple[np.ndarray, ...]   # stages 1..T-1: bool [rows, N] scheduled masks
    riders: tuple = ()

    def root_value(self) -> float:
        return float(self.values[0][0])

    def lookup(self, t: int, rows: np.ndarray) -> np.ndarray:
        """Index in stage t's arrays of each key row, given as integers of any
        dtype; StateNotInTable for a row the solve never reached."""
        table = self.stages[t - 1]
        dtype = np.result_type(table, _signed_type(int(np.abs(rows).max(initial=0))))
        _, inv = _unique_rows(np.concatenate([table, rows], dtype=dtype))
        pos = np.full(len(inv), -1)
        pos[inv[: len(table)]] = np.arange(len(table))
        pos = pos[inv[len(table) :]]
        if (pos < 0).any():
            key = _row_key(rows[np.argmin(pos)].tolist(), table.shape[1] // 2, self.augmented)
            raise StateNotInTable(f"stage {t} has no entry for {key}")
        return pos


class BoundConstants(NamedTuple):
    k: int
    c1: float
    c2: float
    d1: float
    d2: float


class GapReport(NamedTuple):
    """Root-stage gap of the best-margin policy against the optimum, with the
    matching analytic bound p·p_d·(d1·norm_inf(x0) + d2)."""

    p: float
    diff: float
    p_pd: float
    z: float | None  # diff / (p * p_d); None where p * p_d is 0.0
    bound: float
    v_star: float
    v_delta: float
    constants: BoundConstants | None  # None when T <= 2


# a source's four outcomes, numbered kind = 2 * delivered + arrived, on the
# first axis of the outcome grid: np.where broadcasts a mask along an outer
# axis several times faster than along the innermost one
_DELIVERED = np.array([False, False, True, True])[:, None, None]
_STAY = np.array([True, False, True, False])[:, None, None]  # no arrival


def _successors(rows: np.ndarray, ev: Events, out: np.ndarray) -> None:
    """Write into out [rows, events, 2N] the successor row of each stage row
    under each event.  One advance call ages every source of every row under
    each of its four outcomes (nothing happens, a fresh packet arrives, the
    buffered packet is delivered, or both); each event then picks per source
    the outcome of its kind."""
    n = ev.delivered.shape[1]
    g, h = rows[:, :n], rows[:, n:]
    g2, h2 = advance(g, h, g != EMPTY, _DELIVERED, _STAY, ev.step)
    kind = 2 * ev.delivered + ev.arrived
    src = np.arange(n)
    out[..., :n] = g2.transpose(1, 2, 0)[:, src, kind]
    out[..., n:] = h2.transpose(1, 2, 0)[:, src, kind]


def _all_actions(rows: np.ndarray, n: int, d: int):
    """An optimal pass's moves: one (action, rows) block per work-conserving
    action, holding every row that can take it.  Sorted action order is, on
    one row's actions, enumerate_actions order, so each row tries them in it."""
    merged = {}
    sets, inv = _mask_groups(rows[:, :n] != EMPTY)
    for i, holders in enumerate(sets):
        idx = np.flatnonzero(inv == i)
        for a in combinations(holders, min(len(holders), d)):
            merged.setdefault(a, []).append(idx)
    for a in sorted(merged):
        yield a, np.concatenate(merged[a])


def _forward(params: ModelParams, x0: SystemState, riders, optimal: bool, cap: int,
             laws: dict):
    """The stage rows g | h reachable from x0, the moves of stages 1..T-1 and
    the riders' sweep over them, built stage by stage in one loop.

    A move is (action, rows taking it, [rows, events] index of each
    successor in the next stage), the action's sources ascending.  On an
    optimal pass a stage's moves are every work-conserving action
    (_all_actions); on a policy's own pass (optimal False) they are the
    actions the riders pick on their reached keys, each holding the rows
    that pick it.  Each action's law, with the instance's fault, is read off
    the kernel once into laws, unless there, and serves every row that
    takes it.

    A rider's keys are its reached slots of a stage's [rows, width] array in
    (row, memory) order, a policy owning a column per memory value (the rr
    cursor) or one.  Each reached slot's pick is matched to a move, and the
    slot reaches the move's successors of its row at its next memory.
    Returns the stages, the moves, and the sweep: the width, per stage t < T
    the kept moves (move index, positions among its rows, slot columns,
    successor slot columns), and each rider's table fields but the values,
    with each key's flat slot.
    ValueError names the policy and the stage of a pick that no move holds.
    The cap counts distinct keys over all stages, each stage's before it is
    expanded: the stage rows on an optimal pass, the riders' keys on an own
    pass.
    """
    n, d = params.n_sources, params.n_channels
    mems = [policy.initial_memory() for policy in riders]
    offs = [0, *accumulate(1 if mem is None else n for mem in mems)]
    width = offs[-1]
    reach = np.zeros((1, width), dtype=bool)
    reach[0, [off + (mem or 0) for off, mem in zip(offs, mems)]] = True
    stages, blocks, kept, keys, slots, masks = [_root(params, x0)], [], [], [], [], []
    total, limit = 1, max(cap, 1)  # the root counts but is never checked
    for t in range(1, params.horizon + 1):
        rows = stages[-1]
        spans = []  # each policy's reached (rows, memory), in key order
        for mem0, off, end in zip(mems, offs, offs[1:]):
            r, c = np.nonzero(reach[:, off:end])
            key = rows[r]
            if mem0 is not None:  # g | h | memory rows
                key = np.concatenate([key, c.astype(key.dtype)[:, None]], 1)
            keys.append(key)
            slots.append(r * width + off + c)
            spans.append((r, c))
        if t == params.horizon:
            break
        moves = list(_all_actions(rows, n, d)) if optimal else []
        ids = {a: k for k, (a, _) in enumerate(moves)}
        pick = np.full((len(rows), width), -1)  # each reached slot's move; ids past moves: unheld
        after = np.empty((len(rows), width), dtype=np.intp)
        picked = np.zeros(0, dtype=bool)  # which move ids some reached slot picks
        for policy, mem0, off, (r, c) in zip(riders, mems, offs, spans):
            mask, mem = policy.decide_batch(t, rows[r, :n].astype(np.int64),
                                            rows[r, n:].astype(np.int64),
                                            None if mem0 is None else c)
            masks.append(mask)
            after[r, off + c] = off if mem is None else off + mem
        if riders:
            here = np.concatenate(slots[-len(riders) :])
            sets, inv = _mask_groups(np.concatenate(masks[-len(riders) :]))
            pick.flat[here] = inv = np.array([ids.setdefault(a, len(ids)) for a in sets], int)[inv]
            if not optimal:
                hit = np.zeros((len(ids), len(rows)), dtype=bool)
                hit[inv, here // width] = True
                moves = list(zip(ids, map(np.flatnonzero, hit)))
            picked = np.zeros(len(ids), dtype=bool)
            picked[inv] = True
            del here, inv  # freed before expanding
        for a, _ in moves:
            if a not in laws:
                laws[a] = transition_law([a], [params.p], np.array([params.q]),
                                         [params.n_sources], params.fault)
        shapes = [(len(idx), len(laws[a].pr)) for a, idx in moves]
        ends = [0, *accumulate(math.prod(shape) for shape in shapes)]
        succ = np.empty((ends[-1], rows.shape[1]), dtype=rows.dtype)
        for (a, idx), shape, start, stop in zip(moves, shapes, ends, ends[1:]):
            _successors(rows[idx], laws[a], succ[start:stop].reshape(*shape, rows.shape[1]))
        nxt, inv = _unique_rows(succ)
        del succ
        moves = [(a, idx, inv[start:stop].reshape(shape))
                 for (a, idx), shape, start, stop in zip(moves, shapes, ends, ends[1:])]
        reach = np.zeros((len(nxt), width), dtype=bool)
        held = np.zeros(width, dtype=int)
        kept.append([])
        for k in np.flatnonzero(picked[: len(moves)]).tolist():
            _, idx, succ = moves[k]
            j, col = np.nonzero(pick[idx] == k)
            goes = after[idx[j], col]
            reach[succ[j], goes[:, None]] = True
            held += np.bincount(col, minlength=width)
            kept[-1].append((k, j, col, goes))
        for policy, off, end, (r, _) in zip(riders, offs, offs[1:], spans):
            if held[off:end].sum() < len(r):
                raise ValueError(f"policy {policy.name!r} picks at stage {t} an action "
                                 "no move holds")
        total += len(nxt) if optimal else int(reach.sum())
        if total > limit:
            raise StateSpaceTooLarge(f"reachable set exceeds cap: {limit + 1} > {cap}")
        stages.append(nxt)
        blocks.append(moves)
    step = len(riders)
    return tuple(stages), blocks, (width, kept, [
        (policy.name, mem is not None, x0 if mem is None else (x0, mem),
         tuple(keys[i::step]), slots[i::step], tuple(masks[i::step]))
        for i, (policy, mem) in enumerate(zip(riders, mems))])


def _stage_cost(rows: np.ndarray, n: int) -> np.ndarray:
    return rows[:, n : 2 * n].sum(axis=1, dtype=np.int64).astype(float)


# below this many row-actions numpy's per-call cost exceeds fsum's
SUM_CUTOFF = 128


def _exact_sums(terms: np.ndarray) -> tuple[np.ndarray, int]:
    """math.fsum of each column of a float64 [m, cols] array, and how many
    columns took fsum itself.  Overwrites terms.

    A column's sum s starts at its largest term, zeroed, and adds the rest by
    Fast2Sum (t = s + x; e = x - (t - s)), exact as terms >= 0 keep s >= x;
    c sums the errors.  With emin, emax the frexp exponents of the smallest
    nonzero term and of s, all values are multiples of 2**(emin - 53) and
    |e| <= 2**(emax - 54), so c is exact while
    emax - emin <= 54 - (m - 1).bit_length().  Then s + c is the exact sum,
    which one add rounds half to even, as fsum (Ogita, Rump and Oishi, SIAM
    J. Sci. Comput. 26(6), 2005).  Columns outside that, with a negative
    term or a sum not finite take fsum."""
    m, cols = terms.shape
    if not m:
        return np.zeros(cols), 0
    lo = np.min(terms, axis=0, where=terms != 0.0, initial=np.inf)
    # each column's first largest term; argmax along axis 0 would copy terms
    at = ((terms == terms.max(axis=0)).argmax(axis=0), np.arange(cols))
    top = terms[at]
    terms[at] = 0.0
    s, t, e, c = top.copy(), np.empty(cols), np.empty(cols), np.zeros(cols)
    for x in terms:
        np.add(s, x, out=t)
        np.subtract(t, s, out=e)
        np.subtract(x, e, out=e)
        c += e
        s, t = t, s
    total = s + c
    spread = np.frexp(s)[1] - np.frexp(lo)[1]
    bad = ~np.isfinite(total) | (lo < 0.0) | (spread > 54 - (m - 1).bit_length())
    if not bad.any():
        return total, 0
    terms[at] = top
    total[bad] = list(map(math.fsum, terms[:, bad].T.tolist()))
    return total, int(bad.sum())


def _backward(stages, blocks, n: int, optimal: bool, width: int, kept):
    """The riders' [rows, width] slot values per stage, from the (action,
    rows, successor index, event probabilities) moves of stages 1..T-1 and
    the kept moves; on an optimal pass, also the values and, for t < T,
    scheduled masks of the stage rows.  V_T(x) = cost(x);
    V_t(x) = min over the moves holding x of cost(x) + sum_x' P(x'|x,a) V_{t+1}(x'),
    a slot's the same sum over its kept move.  A policy's own pass sums only
    the kept moves and takes no minimum.

    Each product is one IEEE multiply, as in Python, and each sum math.fsum's
    (_exact_sums over a stage's zero-padded [events, columns] array, or fsum
    below SUM_CUTOFF columns), so candidates equal in exact arithmetic round
    identically; a strict comparison keeps the first, and each win
    overwrites the row's whole mask."""
    values, decisions = [_stage_cost(stages[-1], n)], []
    rides = [np.repeat(values[0][:, None], width, axis=1)]
    for t in range(len(stages) - 2, -1, -1):
        rows, stage_blocks, picks, nxt = stages[t], blocks[t], kept[t], values[-1]
        mins = stage_blocks if optimal else ()
        base = _stage_cost(rows, n)
        # each column block's probabilities and [columns, events] successor values
        reads = chain(((pr, nxt[succ]) for _, _, succ, pr in mins),
                      ((stage_blocks[k][3], rides[-1][stage_blocks[k][2][j], after[:, None]])
                       for k, j, _, after in picks))
        ends = [0, *accumulate([len(idx) for _, idx, _, _ in mins]
                               + [len(j) for _, j, _, _ in picks])]
        if ends[-1] < SUM_CUTOFF:
            sums = [np.fromiter(map(math.fsum, (pr * v).tolist()), float, len(v))
                    for pr, v in reads]
        else:
            terms = np.zeros((max((len(pr) for _, _, _, pr in stage_blocks), default=0), ends[-1]))
            for (pr, v), start, stop in zip(reads, ends, ends[1:]):
                np.multiply(pr[:, None], v.T, out=terms[: len(pr), start:stop])
            total = _exact_sums(terms)[0]
            sums = [total[start:stop] for start, stop in zip(ends, ends[1:])]
        if optimal:
            best = np.full(len(rows), np.inf)
            act = np.zeros((len(rows), n), dtype=bool)
            for (a, idx, _, _), part in zip(stage_blocks, sums):
                q = base[idx] + part
                win = q < best[idx]
                best[idx[win]] = q[win]
                mask = np.zeros(n, dtype=bool)
                mask[list(a)] = True
                act[idx[win]] = mask
            values.append(best)
            decisions.append(act)
        rides.append(np.empty((len(rows), width)))
        for (k, j, col, _), part in zip(picks, sums[len(mins) :]):
            r = stage_blocks[k][1][j]
            rides[-1][r, col] = base[r] + part
    return values[::-1], decisions[::-1], rides[::-1]


def _root(params: ModelParams, x0: SystemState) -> np.ndarray:
    """The one-row first stage, in the smallest signed integer type that
    holds every value a pass can reach: ages grow by at most two per slot
    (one, or two under age-drift) and a memory value (the rr cursor, which
    a rider's keys carry in this type) stays below N."""
    bound = max(*x0.h, params.n_sources) + 2 * params.horizon
    return np.array([[*x0.g, *x0.h]], dtype=_signed_type(bound))


def _grid_laws(params: ModelParams, actions: list, ps) -> list[dict]:
    """The law of each action at each p of ps, off one kernel call."""
    m, cases = len(actions), len(actions) * len(ps)
    parts = transition_law(actions * len(ps), [p for p in ps for _ in actions],
                           np.tile(params.q, (cases, 1)), [params.n_sources] * cases,
                           params.fault).split(*range(1, cases)) if cases else []
    return [dict(zip(actions, parts[i * m :])) for i in range(len(ps))]


def _solve_grid(params: ModelParams, x0: SystemState, p_values, riders, cap: int,
                optimal: bool = True):
    """At each p of p_values, the instance otherwise params: the optimal
    table holding the riders' tables, or on a policy's own pass (optimal
    False) the riders' tables alone.  A pass runs _forward at its first
    point and reads the later points' laws of its actions in one kernel
    call; a later point joins the first pass whose event rows its laws
    share.  Each point runs one _backward."""
    points = [params if p == params.p else replace(params, p=p) for p in p_values]
    passes, tables = [], []
    for j, point in enumerate(points):
        for first, (stages, blocks, swept), later in passes:
            laws = later[j]
            if all(np.array_equal(ev.delivered, laws[a].delivered)
                   and np.array_equal(ev.arrived, laws[a].arrived) for a, ev in first.items()):
                break
        else:
            laws = {}
            stages, blocks, swept = _forward(point, x0, riders, optimal, cap, laws)
            later = _grid_laws(point, list(laws), p_values[j + 1 :])
            passes.append((laws, (stages, blocks, swept), dict(enumerate(later, j + 1))))
        moves = [[(a, idx, succ, laws[a].pr) for a, idx, succ in stage] for stage in blocks]
        values, decisions, rides = _backward(stages, moves, params.n_sources, optimal, *swept[:2])
        riding = tuple(DPTable(params.horizon, rider, augmented, root, keys,
                               tuple(v.ravel()[i] for v, i in zip(rides, slots)), masks)
                       for rider, augmented, root, keys, slots, masks in swept[2])
        tables.append(DPTable(params.horizon, None, False, x0, stages, tuple(values),
                              tuple(decisions), riding) if optimal else riding)
    return tables


def reachable_states(
    params: ModelParams, x0: SystemState, cap: int = DEFAULT_STATE_CAP
) -> list[set[SystemState]]:
    """Per-stage sets of states reachable from x0 under any action sequence."""
    stages = _forward(params, x0, (), True, cap, {})[0]
    n = params.n_sources
    return [{_row_key(row, n, False) for row in rows.tolist()} for rows in stages]


def solve_optimal(
    params: ModelParams, x0: SystemState, cap: int = DEFAULT_STATE_CAP, riders=()
) -> DPTable:
    """Backward induction for the optimal values over every action, tried in
    enumerate_actions order, so ties resolve to the lexicographically smallest.
    Its riders, policies whose picks are work-conserving (not rr-strict),
    ride the pass; their evaluate_policy tables are the table's riders."""
    return _solve_grid(params, x0, [params.p], riders, cap)[0]


def evaluate_policy(
    policy, params: ModelParams, x0: SystemState, cap: int = DEFAULT_STATE_CAP
) -> DPTable:
    """Exact value of a fixed deterministic policy: the one rider of a pass
    of its own, whose moves are the actions it picks, summed in a backward
    pass without a minimum.

    A policy with memory (round-robin cursor) is evaluated on augmented keys
    (state, memory); memoryless policies key by bare states so their tables
    compare directly against the optimal one.  The cap counts those keys.
    """
    return _solve_grid(params, x0, [params.p], [policy], cap, optimal=False)[0][0]


def gap_tables(
    params: ModelParams, x0: SystemState, p_values, cap: int = DEFAULT_STATE_CAP
) -> list[list[DPTable]]:
    """[optimal table, best-margin policy table] at each p of p_values, the
    instance otherwise params; points share forward passes where they can.
    The policy rides the optimal pass."""
    riders = (DeltaPolicy(params.n_channels),)
    return [[opt, *opt.riders] for opt in _solve_grid(params, x0, p_values, riders, cap)]


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
    p_pd = params.p * success_probs(params.p, params.n_channels, 0).batch
    z = diff / p_pd if p_pd > 0.0 else None
    bound, constants = 0.0, None
    if params.horizon >= 3:
        constants = bound_constants(params.horizon - 1, params.p, params.n_channels)
        bound = p_pd * (constants.d1 * norm_inf(x0) + constants.d2)
    return GapReport(params.p, diff, p_pd, z, bound, v_star, v_delta, constants)


def optimality_gap(
    params: ModelParams, x0: SystemState, cap: int = DEFAULT_STATE_CAP
) -> GapReport:
    """Solve the instance (optimal and best-margin policy) and report the
    root-stage difference with its normalized form and analytic bound.  At
    p = 0 no transfer succeeds, so every policy has the optimal value: diff is
    0.0 and z is None."""
    [[opt, dtab]] = gap_tables(params, x0, [params.p], cap)
    return gap_report(params, x0, opt.root_value(), dtab.root_value())


def dump_table(table: DPTable, path) -> None:
    """Debug text export: one `t= state= value= action=` line per key, each
    stage's rows in the order of g, then h, then the cursor, which is the
    order `sorted` gives the keys."""
    with open(path, "w", encoding="utf-8") as fh:
        name = table.policy_name or "optimal"
        fh.write(f"# value table policy={name} horizon={table.horizon}\n")
        for t, rows in enumerate(table.stages, 1):
            n = rows.shape[1] // 2
            order = np.lexsort(rows.T[::-1])
            values = table.values[t - 1][order].tolist()
            masks = table.decisions[t - 1][order].tolist() if t < table.horizon else []
            for row, value, mask in zip_longest(rows[order].tolist(), values, masks):
                line = f"t={t} state={format_state(_row_key(row, n, False))}"
                if table.augmented:
                    line += f" cursor={row[2 * n]}"
                line += f" value={value:.12g}"
                if mask is not None:
                    line += " action=[" + ",".join(str(i + 1) for i in range(n) if mask[i]) + "]"
                fh.write(line + "\n")
