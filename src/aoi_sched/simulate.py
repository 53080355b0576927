"""Monte Carlo rollout engine.

Cost accounting mirrors the exact solver: the destination-age sum is accrued
at every stage 1..T and decisions happen at stages 1..T-1, so simulated means
converge to the solver's policy values.  Episode i of a run is seeded with
base_seed + i from a PCG64 stream, and compared policies share those episode
seeds (common random numbers), so a policy compared with itself shows exactly
zero improvement.  Each summary's stderr is that policy's own standard error;
no paired standard error of a difference is reported, since a paired column
would change the bytes of every simulate CSV.

One block engine runs every episode: up to BLOCK_EPISODES (policy, episode)
rows advance in lock step on [B, N] age arrays, the policies of a comparison
sharing a block whenever all of their episodes fit in it.  The index policies
of a block (delta, pi, work-conserving rr) decide for all of their rows in
one call of their stacked IndexRule, whose constants (the key coefficients
times N, the cyclic flags one per row, the cursor-distance table) are
computed once per block by IndexRule.scaled; strict round-robin and the
table-backed optimal policy each decide on their own rows through
decide_batch.  Every row keeps its own PCG64 generator and consumes exactly
the uniforms that model.sample_step draws, in its order, slot by slot, and
model.advance, the successor law the exact solver also uses, ages every row
at once.

compare_policies is the one summary entry, for one policy or several;
run_experiment is its one-policy case and run_episode the engine's one-row
case.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import (  # sample_step stays importable from here
    EMPTY,
    ModelParams,
    SystemState,
    advance,
    sample_step,
)
from .policies import IndexRule

# (policy, episode) rows advanced together, and slots of uniforms held per row
# between refills; together they cap the uniform buffer at
# BLOCK_EPISODES * CHUNK_SLOTS * (N + min(d, N)) doubles whatever R, T and the
# number of compared policies are.
BLOCK_EPISODES = 256
CHUNK_SLOTS = 32


class EpisodeResult(NamedTuple):
    total_cost: int
    aaoi_per_source: tuple[float, ...]  # per-source age sum / T
    seed: int


class ExperimentSummary(NamedTuple):
    policy: str
    params: ModelParams
    replications: int
    mean_total_cost: float
    stderr_total_cost: float
    mean_sum_aaoi: float
    base_seed: int


class PolicyComparison(NamedTuple):
    summaries: tuple[ExperimentSummary, ...]
    # 100*(mean_other - mean_first)/mean_other per summary; 0 for the first
    improvements_vs_first: tuple[float, ...]


def run_episode(policy, params: ModelParams, x0: SystemState, seed: int) -> EpisodeResult:
    """One seeded rollout.  Identical inputs give a bit-identical result."""
    ages = _block_totals([policy], params, x0, [seed])[0, 0].tolist()
    return EpisodeResult(sum(ages), tuple(s / params.horizon for s in ages), seed)


def policy_totals(
    policies,
    params: ModelParams,
    x0: SystemState,
    replications: int,
    base_seed: int,
) -> np.ndarray:
    """Total costs [len(policies), replications] on common episode seeds:
    entry [i, e] is policies[i]'s total cost on seed (base_seed + e) % 2**64.

    A block runs up to BLOCK_EPISODES (policy, episode) rows.  Policies share
    a block only when all of their episodes fit in it, BLOCK_EPISODES //
    replications policies at a time; otherwise each policy runs alone,
    BLOCK_EPISODES episodes per block.  Sharing thus never takes more blocks
    than running the policies one at a time, and no policy's episodes are
    split across blocks only to make room for another policy."""
    totals = np.empty((len(policies), replications), dtype=np.int64)
    group = max(1, BLOCK_EPISODES // max(replications, 1))
    for lo in range(0, len(policies), group):
        members = policies[lo : lo + group]
        for start in range(0, replications, BLOCK_EPISODES):
            seeds = [(base_seed + e) % 2**64
                     for e in range(start, min(start + BLOCK_EPISODES, replications))]
            totals[lo : lo + len(members), start : start + len(seeds)] = _block_totals(
                members, params, x0, seeds).sum(axis=2)
    return totals


def _block_totals(policies, params: ModelParams, x0: SystemState, seeds) -> np.ndarray:
    """Run every policy on one episode per seed in lock step; entry [i, e, n]
    is policy i's destination-age sum of source n on seeds[e].

    Rows are (policy, episode) pairs, each with its own generator seeded with
    its episode seed.  The index-rule policies take the first rows, so that
    one call of their stacked rule, scaled once before the first slot,
    decides for all of them every slot; its mask is the slot's schedule when
    no other policy shares the block.  Each other policy decides on its own
    rows.  The draws and the age update, one model.advance call, then run
    once for all rows.
    Row b takes its success uniforms for the scheduled sources (ascending
    index) and then N arrival uniforms from its own buffer row after last[b],
    as sample_step draws them.  A buffer row holds CHUNK_SLOTS slots' worth
    of uniforms; after that many slots the unread tail moves to the front and
    exactly the consumed count is drawn behind it, continuing the stream.
    """
    n, d, T = params.n_sources, params.n_channels, params.horizon
    e = len(seeds)
    # a row's episode depends only on its policy and seed, so rows may run in
    # any policy order; back[i] is where policies[i]'s rows run
    order = sorted(range(len(policies)), key=lambda i: policies[i].rule is None)
    back = np.argsort(order)
    policies = [policies[i] for i in order]
    b = len(policies) * e
    g = np.tile(np.array(x0.g, dtype=np.int64), (b, 1))
    h = np.tile(np.array(x0.h, dtype=np.int64), (b, 1))
    ages = h.copy()  # destination ages summed over the stages so far
    p, q = params.p, np.array(params.q)
    chunk = min(CHUNK_SLOTS, T - 1)
    width = chunk * (n + min(d, n))
    rngs = [np.random.default_rng(seed) for _ in policies for seed in seeds]
    buf = np.empty((b, width))
    for row, rng in zip(buf, rngs):
        rng.random(out=row)
    flat = buf.ravel()
    before = np.arange(b) * width - 1  # flat index just before each buffer row
    last = before.copy()  # flat index of each row's last read uniform
    ranks = np.arange(1, n + 1)
    rules = [policy.rule for policy in policies if policy.rule is not None]
    indexed = len(rules) * e
    rule = IndexRule.stack([r for r in rules for _ in seeds]).scaled(n) if rules else None
    cursor = np.zeros(indexed, dtype=np.int64) if rules and np.any(rule.cyclic) else None
    others = [(policy, slice(indexed + i * e, indexed + (i + 1) * e))
              for i, policy in enumerate(policies[len(rules) :])]
    mems = [None] * len(others)
    sched = np.empty((b, n), dtype=bool)
    for t in range(1, T):
        if t > 1 and (t - 1) % chunk == 0:
            for row, rng, used in zip(buf, rngs, (last - before).tolist()):
                row[: width - used] = row[used:]
                rng.random(out=row[width - used :])
            last[:] = before
        holders = g != EMPTY
        if not others:  # every row follows the index rule: its mask is sched
            sched, cursor = rule.decide(g, h, holders, d, cursor)
        elif indexed:
            sched[:indexed], cursor = rule.decide(
                g[:indexed], h[:indexed], holders[:indexed], d, cursor)
        for i, (policy, r) in enumerate(others):
            sched[r], mems[i] = policy.decide_batch(t, g[r], h[r], mems[i])
        # at uniform index last + the count of scheduled sources up to each
        # source, a scheduled source reads its success uniform; unscheduled
        # ones read a discarded value.  Source n's arrival uniform then
        # follows at rank n + 1 past the last success uniform.
        upto = np.add.accumulate(sched, axis=1, dtype=np.intp)
        upto += last[:, None]
        success = flat.take(upto) < p
        success &= sched
        arrivals = upto[:, -1:] + ranks
        stay = flat.take(arrivals) >= q  # no arrival
        last = arrivals[:, -1]
        g, h = advance(g, h, holders, success, stay)
        ages += h
    return ages.reshape(len(policies), e, n)[back]


def improvement_pct(mean_a: float, mean_b: float) -> float:
    """Percentage improvement of A over B, relative to B's mean."""
    if mean_b == 0.0:
        return 0.0
    return 100.0 * (mean_b - mean_a) / mean_b


def compare_policies(
    policies,
    params: ModelParams,
    x0: SystemState,
    replications: int,
    base_seed: int,
) -> PolicyComparison:
    """Run one or more policies on the episode seeds base_seed, base_seed+1,
    ... and report the improvement of the first listed policy over each of
    them, 0.0 over itself."""
    if not policies:
        raise ValueError("need at least 1 policy to compare, got none")
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    totals = policy_totals(policies, params, x0, replications, base_seed).astype(float)
    summaries = []
    for policy, row in zip(policies, totals):
        mean = float(row.mean())
        stderr = float(row.std(ddof=1) / math.sqrt(replications))
        summaries.append(ExperimentSummary(
            policy.name, params, replications, mean, stderr, mean / params.horizon, base_seed
        ))
    first = summaries[0].mean_total_cost
    improvements = tuple(improvement_pct(first, s.mean_total_cost) for s in summaries)
    return PolicyComparison(tuple(summaries), improvements)


def run_experiment(
    policy,
    params: ModelParams,
    x0: SystemState,
    replications: int,
    base_seed: int,
) -> ExperimentSummary:
    """The summary of one policy's comparison with itself alone."""
    return compare_policies([policy], params, x0, replications, base_seed).summaries[0]
