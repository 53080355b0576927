"""Numeric self-checks over the model and solver.

Each check returns a CheckResult with a pass/fail/skipped status and the
measured quantities, so the `verify` subcommand can emit a machine-readable
report and the test suite can reuse the same oracles.  Each randomized
check draws all of its cases from its own seeded stream into one validated
column batch (Cases), expands them in one call of the exact kernel and
reads each case's law as arrays, every expectation one math.fsum; a fault
reaches the oracles of the two one-step identities, expected_age_sums and
margin_splits, only through that law.  The exact checks solve each gap
instance once and compare value arrays aligned by DPTable.lookup.

_parse draws the cases from PCG64(seed)'s raw words as default_rng(seed)
would, in one loop with no call per draw: a double is (w >> 11) * 2**-53,
a 32-bit draw a word's low half, and the next one its high half, which
doubles leave alone.  Lemire's integers (ACM TOMACS 2019) and the shuffle's
masked rejection stay exact through helpers entered only on a draw they may
reject.  tests/replay.py holds the reference replay, one call per draw.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import replace
from itertools import chain
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .dp import DPTable, evaluate_policy, gap_report, gap_tables, solve_optimal
from .model import (  # enumerate_transitions stays importable from here
    EMPTY,
    FAULT_MODES,
    Events,
    InvalidState,
    ModelParams,
    enumerate_transitions,
    fresh_state,
    success_probs,
    successor_ages,
    transition_law,
)
from .policies import OptimalPolicy, min_schedule_margins

STEP_TOL = 1e-12   # single-step identities
VALUE_TOL = 1e-9   # multi-stage value comparisons
MAX_N = 4          # largest N of a random case
MAX_AGE = 20       # largest destination age of a random state
GRID_POINTS = 101  # p grid of the success-probability identity, endpoints included
MAX_D = 6          # largest d of that identity


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skipped" | "not-applicable"
    detail: str
    measured: dict

    @property
    def failed(self) -> bool:
        return self.status == "fail"


class Cases(SimpleNamespace):
    """(x, a, params) cases as columns, W the largest N of the batch: n, d
    (int64 [cases]), p (float64 [cases]), q (float64 [cases, W], 0.0 past a
    case's N), g (int64 [cases, W], EMPTY past N), h (int64 [cases, W], 0
    past N), scheduled (each case's action, a tuple of ascending sources) and
    fault (that of every case)."""


_CASE_WORDS = 32  # more words than a case reads besides its rejected draws
_MASKS = tuple((1 << i.bit_length()) - 1 for i in range(MAX_N))  # shuffle masks by i


def _refill(buf: tuple, k: int) -> int:
    """Drop the k words read from buf = (words, doubles, chunk), append
    chunk()'s words and doubles till a case fits, and return 0, the new k."""
    words, doubles, chunk = buf
    del words[:k], doubles[:k]
    while len(words) < _CASE_WORDS:
        raw = chunk()
        words += raw.tolist()
        doubles += ((raw >> 11) * 2.0**-53).tolist()
    return 0


def _uint32(buf: tuple, k: int, half) -> tuple:
    """(draw, k, half) of the next 32-bit draw, off the hot path."""
    if half is not None:
        return half, k, None
    if len(buf[0]) - k < _CASE_WORDS:
        k = _refill(buf, k)
    return buf[0][k] & 0xFFFFFFFF, k + 1, buf[0][k] >> 32


def _lemire(m: int, span: int, buf: tuple, k: int, half) -> tuple:
    """(m, k, half) of the first m = draw * span from this one on that
    Lemire's method keeps: its low half is 2**32 % span or more."""
    while m & 0xFFFFFFFF < 2**32 % span:
        u, k, half = _uint32(buf, k, half)
        m = u * span
    return m, k, half


def _integers(span: int, buf: tuple, k: int, half) -> tuple:
    """(integers(0, span), k, half) off the hot path; span 1 draws nothing."""
    if span == 1:
        return 0, k, half
    u, k, half = _uint32(buf, k, half)
    u, k, half = _lemire(u * span, span, buf, k, half)
    return u >> 32, k, half


def _draw(n_cases: int, seed: int, ensure_holder: bool, fault: str | None) -> Cases:
    bits = np.random.PCG64(seed)  # default_rng(seed)'s; a case reads about 13 words
    return _parse(n_cases, lambda: bits.random_raw(512), ensure_holder, fault)


def _parse(n_cases: int, chunk, ensure_holder: bool, fault: str | None) -> Cases:
    """n_cases random cases with work-conserving actions, edge probabilities
    included, drawn one after another from the uint64 words chunk() returns."""
    words, doubles, k, half, U, span = [], [], 0, None, 0xFFFFFFFF, MAX_AGE + 1
    buf = words, doubles, chunk
    ns, ds, ps, scheduled = [], [], [], []
    size = n_cases * MAX_N
    q, g, h = [0.0] * size, [EMPTY] * size, [0] * size
    for at in range(0, size, MAX_N):
        if len(words) - k < _CASE_WORDS:
            k = _refill(buf, k)
        w = words[k]  # n in [1, 4] and d in [1, 3] take two halves: one new word
        k += 1
        if half is None:
            n, m = 1 + ((w & U) >> 30), (w >> 32) * 3
        else:
            n, m, half = 1 + (half >> 30), (w & U) * 3, w >> 32
        if m & U < 3:
            m, k, half = _lemire(m, 3, buf, k, half)
        ns.append(n)
        ds.append(d := 1 + (m >> 32))
        r = doubles[k]
        ps.append(0.0 if r < 0.05 else 1.0 if r < 0.10 else doubles[k + 1])
        k += 1 if r < 0.10 else 2
        end = at + n
        q[at:end] = doubles[k:k + n]
        k += n
        for c in range(at, end):  # one more double each to sprinkle exact endpoints
            if (r := doubles[k]) < 0.10:
                q[c] = 0.0 if r < 0.05 else 1.0
            k += 1
        for c in range(at, end):
            m, half, k = (half * span, None, k) if half is not None else (
                ((w := words[k]) & U) * span, w >> 32, k + 1)
            if m & U < span:
                m, k, half = _lemire(m, span, buf, k, half)
            h[c] = m >> 32
        holders = []
        for c in range(at, end):  # a coin, then g below h, for each h >= 1
            if not (hn := h[c]) or doubles[k] >= 0.7:
                k += hn > 0
                continue
            holders.append(c - at)
            if hn == 1:
                k += 1
                g[c] = 0  # integers(0, 1) draws nothing
            else:
                m, half, k = (half * hn, None, k + 1) if half is not None else (
                    ((w := words[k + 1]) & U) * hn, w >> 32, k + 2)
                if m & U < hn:
                    m, k, half = _lemire(m, hn, buf, k, half)
                g[c] = m >> 32
        if ensure_holder and not holders:
            i, k, half = _integers(n, buf, k, half)
            h[at + i] = max(h[at + i], 1)
            g[at + i], k, half = _integers(h[at + i], buf, k, half)
            holders = [i]
        for i in range(len(holders) - 1, 0, -1):  # Fisher-Yates by masked rejection
            mask = _MASKS[i]
            j, half, k = (half & mask, None, k) if half is not None else (
                (w := words[k]) & mask, w >> 32, k + 1)
            while j > i:
                j, k, half = _uint32(buf, k, half)
                j &= mask
            holders[i], holders[j] = holders[j], holders[i]
        scheduled.append(tuple(sorted(holders[:d])))
    q, g, h = (np.array(v).reshape(n_cases, MAX_N)[:, :max(ns, default=0)] for v in (q, g, h))
    cases = Cases(n=np.array(ns, dtype=np.int64), d=np.array(ds, dtype=np.int64),
                  p=np.array(ps), q=q, g=g, h=h, scheduled=scheduled, fault=fault)
    _validate(cases)
    return cases


def _scheduled(cases: Cases) -> np.ndarray:
    mask = np.zeros(cases.g.shape, dtype=bool)
    mask[[i for i, s in enumerate(cases.scheduled) for _ in s],
         list(chain.from_iterable(cases.scheduled))] = True
    return mask


def _validate(cases: Cases) -> None:
    """Raise what ModelParams (ValueError), new_state or a schedulable action
    (InvalidState) would raise for the first rule some case breaks."""
    g, h, pq = cases.g, cases.h, np.column_stack([cases.p, cases.q])
    for error, broken, rule in (
        (ValueError, np.minimum(cases.n, cases.d) < 1, "n_sources and n_channels must be >= 1"),
        (ValueError, ~((pq >= 0.0) & (pq <= 1.0)).all(axis=1), "p and q must lie in [0,1]"),
        (ValueError, np.full(len(g), cases.fault not in FAULT_MODES), "unknown fault mode"),
        (InvalidState, (h < 0).any(axis=1), "h is negative"),
        (InvalidState, ((g != EMPTY) & ~((g >= 0) & (g < h))).any(axis=1),
         "g must be EMPTY or in [0, h)"),
        (InvalidState, (_scheduled(cases) & (g == EMPTY)).any(axis=1),
         "action schedules a source whose buffer is empty"),
    ):
        if broken.any():
            raise error(f"case {int(broken.argmax())}: {rule}")


def _take(cases: Cases, idx: np.ndarray, scheduled: list) -> Cases:
    """The cases idx, in that order, taking the actions scheduled."""
    return Cases(n=cases.n[idx], d=cases.d[idx], p=cases.p[idx], q=cases.q[idx],
                 g=cases.g[idx], h=cases.h[idx], scheduled=scheduled, fault=cases.fault)


def _expand(cases: Cases) -> Events:
    return transition_law(cases.scheduled, cases.p.tolist(), cases.q, cases.n, cases.fault)


def expected_age_sums(cases: Cases, ev: Events) -> tuple[list[float], list[float]]:
    """Each case's expected next destination-age sum over ev, the law of its
    (a, params), and the closed form cost(x) + N + p * schedule_margin."""
    _, h = successor_ages(cases.g, cases.h, cases.n, ev)
    lhs = ev.fsums(ev.pr * h.sum(axis=1))
    margin = np.where(_scheduled(cases), cases.g - cases.h, 0).sum(axis=1)
    rhs = (cases.h.sum(axis=1) + cases.n).astype(float) + cases.p * margin
    return lhs, rhs.tolist()


def margin_terms(cases: Cases, ev: Events) -> np.ndarray:
    """Per row of ev: its probability times the successor's smallest schedule
    margin (min_schedule_margins)."""
    g, h = successor_ages(cases.g, cases.h, cases.n, ev)
    return ev.pr * min_schedule_margins(g, h, cases.d[ev.case])


def _any_success(cases: Cases, k: Sequence[int]) -> list[float]:
    """success_probs' 1 - (1 - p)**k of each case, in pow, not np.power."""
    return [1.0 - (1.0 - p) ** kc for p, kc in zip(cases.p.tolist(), k)]


def margin_splits(cases: Cases, acted: Events, idle: Events) -> list[tuple[float, float, float]]:
    """(mean, no_success, success) of each case: its expected next-state best
    margin E[m] and that mean split by transfer outcome, so that
    E[m] = (1 - p_att)*no_success + p_batch*success.  acted is the law of
    the cases' actions, whose terms p*m give E[m] and, on the rows with a
    delivery, the success part (0.0 at p = 0); idle is that of no action,
    the pure arrival patterns, and gives the no-success part."""
    u = idle.fsums(margin_terms(cases, idle))
    terms = margin_terms(cases, acted)
    hit = acted.fsums(np.where(acted.delivered.any(axis=1), terms, 0.0))
    pds = _any_success(cases, cases.d.tolist())
    return [(mean, ui, s / pd if pd > 0.0 else 0.0)
            for mean, ui, s, pd in zip(acted.fsums(terms), u, hit, pds)]


def _step_result(name: str, worst: float, what: str, n_cases: int) -> CheckResult:
    return CheckResult(
        name,
        "pass" if worst <= STEP_TOL else "fail",
        f"max {what} = {worst:.3e} over {n_cases} random (x,a)",
        {"max_abs_err": worst, "cases": n_cases, "tol": STEP_TOL},
    )


def check_prob_closure(
    n_cases: int = 1000, seed: int = 20260801, fault: str | None = None
) -> CheckResult:
    """Enumerated transition probabilities must sum to one for every (x, a)."""
    ev = _expand(_draw(n_cases, seed, False, fault))
    worst = max([0.0] + [abs(total - 1.0) for total in ev.fsums(ev.pr)])
    return _step_result("transition_prob_closure", worst, "|sum-1|", n_cases)


def check_age_sum_identity(
    n_cases: int = 1000, seed: int = 20260802, fault: str | None = None
) -> CheckResult:
    """One-step expected destination-age sum equals its closed form."""
    cases = _draw(n_cases, seed, False, fault)
    lhs, rhs = expected_age_sums(cases, _expand(cases))
    worst = max([0.0] + [abs(l - r) for l, r in zip(lhs, rhs)])
    return _step_result("expected_age_sum_identity", worst, "|lhs-rhs|", n_cases)


def check_margin_split(
    n_cases: int = 500, seed: int = 20260803, fault: str | None = None
) -> CheckResult:
    """Success/no-success split of the expected best margin: mixture identity,
    magnitude bounds (d * norm_inf(x)), and action-invariance of the
    no-success part.  One kernel call serves the cases' actions, their idle
    instances, and one idle instance per action of each case, so
    max_no_success_spread is 0.0 by construction; ROADMAP direction 5 holds
    its fate."""
    cases = _draw(n_cases, seed, True, fault)
    holders = (cases.g != EMPTY).sum(axis=1).tolist()
    n_actions = [math.comb(k, min(k, d)) for k, d in zip(holders, cases.d.tolist())]
    own = np.arange(n_cases)
    per = np.repeat(own, n_actions)  # one idle case per action of each case
    batch = _take(cases, np.concatenate([own, own, per]),
                  cases.scheduled + [()] * (n_cases + len(per)))
    acted, idle, per_action = _expand(batch).split(n_cases, 2 * n_cases)
    parts = margin_splits(cases, acted, idle)
    others = _take(cases, per, [()] * len(per))
    spread = iter(per_action.fsums(margin_terms(others, per_action)))
    patts = _any_success(cases, [len(s) for s in cases.scheduled])
    pds = _any_success(cases, cases.d.tolist())
    limits = (cases.d * (cases.h.max(axis=1, initial=0) + 1)).tolist()  # d * norm_inf(x)
    worst_identity, worst_bound, worst_spread = 0.0, -math.inf, 0.0
    for (mean, u, v), patt, pd, limit, count in zip(parts, patts, pds, limits, n_actions):
        worst_identity = max(worst_identity, abs(mean - ((1.0 - patt) * u + pd * v)))
        worst_bound = max(worst_bound, abs(u) - limit, abs(v) - limit)
        us = [next(spread) for _ in range(count)]
        worst_spread = max(worst_spread, max(us) - min(us))
    ok = worst_identity <= STEP_TOL and worst_bound <= STEP_TOL and worst_spread <= STEP_TOL
    return CheckResult(
        "margin_decomposition",
        "pass" if ok else "fail",
        f"identity err {worst_identity:.3e}, bound excess {worst_bound:.3e}, "
        f"no-success spread {worst_spread:.3e} over {n_cases} cases",
        {
            "max_identity_err": worst_identity,
            "max_bound_excess": worst_bound,
            "max_no_success_spread": worst_spread,
            "cases": n_cases,
            "tol": STEP_TOL,
        },
    )


def check_success_prob_identity() -> CheckResult:
    """Batch success probability equals p times its polynomial factor."""
    worst = 0.0
    for d in range(1, MAX_D + 1):
        for i in range(GRID_POINTS):
            p = i / (GRID_POINTS - 1)
            probs = success_probs(p, d, min(1, d))
            worst = max(worst, abs(probs.batch - p * probs.batch_over_p))
    status = "pass" if worst <= STEP_TOL else "fail"
    return CheckResult(
        "success_prob_identity",
        status,
        f"max |batch - p*factor| = {worst:.3e} on {GRID_POINTS}-point grid, d<={MAX_D}",
        {"max_abs_err": worst, "grid_points": GRID_POINTS, "max_d": MAX_D, "tol": STEP_TOL},
    )


# default instances of the exact checks (ModelParams is frozen, so sharing is safe)
GAP_INSTANCES = (
    ModelParams(1, 1, 0.5, (0.7,), 4),
    ModelParams(2, 1, 0.3, (0.5, 0.5), 6),
    ModelParams(2, 1, 0.7, (0.5, 0.5), 6),
    ModelParams(2, 2, 0.6, (0.4, 0.8), 5),
    ModelParams(3, 2, 0.9, (0.5, 0.5, 0.5), 4),
)
SCALING_BASE = ModelParams(2, 1, 0.5, (0.5, 0.5), 6)
SCALING_P_GRID = (0.02, 0.04, 0.08, 0.16)
CONSISTENCY_PARAMS = ModelParams(2, 1, 0.6, (0.5, 0.5), 5)


def solve_gap_instances(instances: Sequence[ModelParams]) -> list[tuple]:
    """(params, optimal table, best-margin policy table) of each instance,
    solved from the fresh state; instances equal but for p are one gap_tables call."""
    groups: dict[ModelParams, list[int]] = {}
    for i, params in enumerate(instances):
        groups.setdefault(replace(params, p=0.0), []).append(i)
    solved = [None] * len(instances)
    for base, idx in groups.items():
        grid = gap_tables(base, fresh_state(base.n_sources), [instances[i].p for i in idx])
        for i, tables in zip(idx, grid):
            solved[i] = (instances[i], *tables)
    return solved


def _stage_gap(table: DPTable, opt: DPTable, t: int) -> float:
    """Largest |table - opt| over the keys of table's stage t, the optimal
    values aligned to them by lookup."""
    values = opt.values[t - 1][opt.lookup(t, table.stages[t - 1])]
    return float(np.abs(table.values[t - 1] - values).max(initial=0.0))


def check_penultimate_stage(solved: Sequence[tuple]) -> CheckResult:
    """Last two stages: best-margin and optimal values agree exactly, and the
    stage-(T-1) optimal value matches its closed form 2*cost + N + p*best margin."""
    worst_eq = 0.0
    worst_form = 0.0
    for params, opt, dtab in solved:
        T, n = params.horizon, params.n_sources
        worst_eq = max(worst_eq, _stage_gap(dtab, opt, T))
        if T >= 2:
            worst_eq = max(worst_eq, _stage_gap(dtab, opt, T - 1))
            rows = dtab.stages[T - 2].astype(np.int64)
            g, h = rows[:, :n], rows[:, n:]
            margin = min_schedule_margins(g, h, params.n_channels)
            form = 2.0 * h.sum(axis=1) + n + params.p * margin
            values = opt.values[T - 2][opt.lookup(T - 1, rows)]
            worst_form = max(worst_form, float(np.abs(values - form).max(initial=0.0)))
    ok = worst_eq == 0.0 and worst_form <= VALUE_TOL
    return CheckResult(
        "penultimate_stage_match",
        "pass" if ok else "fail",
        f"max last-two-stage gap {worst_eq:.3e} (must be 0), closed-form err {worst_form:.3e}",
        {"max_stage_gap": worst_eq, "max_closed_form_err": worst_form,
         "instances": len(solved), "tol": VALUE_TOL},
    )


def check_gap_sign_and_bound(solved: Sequence[tuple]) -> CheckResult:
    """Root-stage gap is nonnegative and below its analytic bound on every instance."""
    rows = []
    ok = True
    for params, opt, dtab in solved:
        if params.p == 0.0:
            continue  # degenerate; covered by the closed-form checks
        x0 = fresh_state(params.n_sources)
        rep = gap_report(params, x0, opt.root_value(), dtab.root_value())
        rows.append(
            {"N": params.n_sources, "d": params.n_channels, "T": params.horizon,
             "p": params.p, "diff": rep.diff, "bound": rep.bound}
        )
        if not (-VALUE_TOL <= rep.diff <= rep.bound + VALUE_TOL):
            ok = False
    return CheckResult(
        "gap_sign_and_bound",
        "pass" if ok else "fail",
        f"{len(rows)} instances; diff within [-1e-9, bound+1e-9] {'holds' if ok else 'VIOLATED'}",
        {"instances": rows, "tol": VALUE_TOL},
    )


def check_gap_scaling(solved: Sequence[tuple], p_grid: Sequence[float]) -> CheckResult:
    """Gap should vanish roughly quadratically in p: log-log slope >= 1.8,
    fitted over solved, the tables of the grid's distinct positive p values
    (none when there are fewer than two)."""
    if not solved:
        return CheckResult(
            "gap_quadratic_scaling",
            "not-applicable",
            "fewer than two distinct positive p values",
            {"p_grid": list(p_grid)},
        )
    usable = [params.p for params, _, _ in solved]
    gaps = [gap_report(params, fresh_state(params.n_sources), opt.root_value(),
                       dtab.root_value()).diff for params, opt, dtab in solved]
    if all(gap < STEP_TOL for gap in gaps):
        return CheckResult(
            "gap_quadratic_scaling",
            "skipped",
            "every gap below 1e-12; scaling exponent unobservable on this instance",
            {"p_grid": usable, "gaps": gaps},
        )
    pts = [(math.log(p), math.log(gap)) for p, gap in zip(usable, gaps) if gap > 1e-15]
    if len(pts) < 2:
        return CheckResult(
            "gap_quadratic_scaling",
            "skipped",
            "fewer than two strictly positive gaps; slope undefined",
            {"p_grid": usable, "gaps": gaps},
        )
    xs = np.array([a for a, _ in pts])
    ys = np.array([b for _, b in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    status = "pass" if slope >= 1.8 else "fail"
    return CheckResult(
        "gap_quadratic_scaling",
        status,
        f"log-log slope {slope:.3f} over {len(pts)} points (need >= 1.8)",
        {"p_grid": usable, "gaps": gaps, "slope": slope},
    )


def check_policy_eval_consistency(params: ModelParams = CONSISTENCY_PARAMS) -> CheckResult:
    """Re-evaluating the table-backed optimal policy on a pass of its own
    (not off the table's moves) must reproduce the optimal values bit for bit."""
    x0 = fresh_state(params.n_sources)
    opt = solve_optimal(params, x0)
    redo = evaluate_policy(OptimalPolicy(opt), params, x0)
    worst = max(_stage_gap(redo, opt, t) for t in range(1, params.horizon + 1))
    status = "pass" if worst == 0.0 else "fail"
    return CheckResult(
        "policy_eval_consistency",
        status,
        f"max |re-evaluated - optimal| = {worst:.3e} (must be 0)",
        {"max_abs_err": worst, "N": params.n_sources, "T": params.horizon},
    )


def run_suite(
    seed: int = 20260800,
    scaling_p_grid: tuple[float, ...] = SCALING_P_GRID,
    fault: str | None = None,
) -> list[CheckResult]:
    """The full battery in a fixed order; every instance fed to the kernel carries `fault`."""
    checks = [
        check_prob_closure(seed=seed + 1, fault=fault),
        check_age_sum_identity(seed=seed + 2, fault=fault),
        check_margin_split(seed=seed + 3, fault=fault),
        check_success_prob_identity(),
    ]
    usable = list(dict.fromkeys(p for p in scaling_p_grid if p > 0.0))  # one p fits no slope
    scaling = [replace(SCALING_BASE, p=p) for p in usable if len(usable) > 1]
    k = len(GAP_INSTANCES)
    solved = solve_gap_instances([replace(params, fault=fault)
                                  for params in (*GAP_INSTANCES, *scaling)])
    return checks + [
        check_penultimate_stage(solved[:k]),
        check_gap_sign_and_bound(solved[:k]),
        check_gap_scaling(solved[k:], scaling_p_grid),
        check_policy_eval_consistency(replace(CONSISTENCY_PARAMS, fault=fault)),
    ]
