"""Core system model: states, actions, random events, and the slot transition law.

N sources each hold at most one buffered update packet; up to d orthogonal
channels carry packets to a monitor.  Two age vectors describe the system at
the start of a slot: g[n] is the age of the packet sitting in source n's
buffer (EMPTY if the buffer holds nothing) and h[n] is the age of the last
update delivered from source n.  A buffered packet is always strictly
fresher than what the monitor has, so g[n] = EMPTY or g[n] < h[n].

Within a slot: scheduled transfers each succeed independently with
probability p, and each source independently receives a fresh packet with
probability q[n] (overwriting its buffer).  On success the monitor's age
resets to the delivered packet's age plus one; otherwise it grows by one.

Because the draws are independent per source, the one-slot law is a product
over sources, and each (successes, arrivals) event leads to its own successor
state: on a source, success moves h to g+1 <= h instead of h+1, and an arrival
alone leaves g = 0.  The exact kernel, transition_law, expands that product
for a batch of cases given as columns at once into the event rows of each
case's law under one fault, and emits nothing else; enumerate_transitions
is its one-case view.
advance is the one statement of the successor law: successor_ages, the
solver's forward pass and the Monte Carlo slot all age g and h through it.
sample_step draws one slot's event from a generator in the order the Monte
Carlo engine reads its uniforms.  A fault carried by ModelParams corrupts
the kernel only, never the draws.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

EMPTY = -1  # sentinel age: source buffer holds no packet ("psi" in file I/O)

# Faults for negative-control verification (`verify --inject-fault`), carried
# by ModelParams.fault and seen only by the exact kernel, transition_law.
# "age-drift": non-delivered destination ages advance by 2 instead of 1, which
# breaks the one-step expected-age identity.  "drop-event": every case's law
# omits the event where every scheduled transfer succeeds and every source
# gets a packet, which breaks probability closure and the margin split.
FAULT_MODES = (None, "age-drift", "drop-event")


class InvalidState(ValueError):
    """State vectors violate the buffer-freshness invariant or are malformed."""


class SystemState(NamedTuple):
    g: tuple[int, ...]  # buffered-packet age per source, EMPTY if no packet
    h: tuple[int, ...]  # destination age per source


class Action(NamedTuple):
    scheduled: tuple[int, ...]  # strictly increasing source indices


class TransitionEvent(NamedTuple):
    successes: tuple[int, ...]  # scheduled sources whose transfer got through
    arrivals: tuple[int, ...]   # sources that received a fresh packet


class SuccessProbs(NamedTuple):
    batch: float          # chance at least one of d parallel attempts succeeds
    batch_over_p: float   # polynomial equal to batch/p, finite at p=0
    attempted: float      # same for the n_attempts actually made


@dataclass(frozen=True)
class ModelParams:
    """Instance parameters: N sources, d channels, success prob p, arrival probs q, horizon T."""

    n_sources: int
    n_channels: int
    p: float
    q: tuple[float, ...]
    horizon: int
    fault: str | None = None  # one of FAULT_MODES; corrupts transition_law only

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        if self.n_sources < 1:
            raise ValueError(f"n_sources must be >= 1, got {self.n_sources}")
        if self.n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {self.n_channels}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0,1], got {self.p}")
        if len(self.q) != self.n_sources:
            raise ValueError(f"q has length {len(self.q)}, expected {self.n_sources}")
        if any(not 0.0 <= v <= 1.0 for v in self.q):
            raise ValueError(f"every q entry must lie in [0,1], got {self.q}")
        if self.fault not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.fault!r}; choose from {FAULT_MODES}")


def new_state(g: Iterable[int], h: Iterable[int]) -> SystemState:
    """Validated state constructor; use it at every boundary that accepts raw vectors."""
    gt = tuple(int(v) for v in g)
    ht = tuple(int(v) for v in h)
    if len(gt) != len(ht):
        raise InvalidState(f"g has length {len(gt)} but h has length {len(ht)}")
    if not gt:
        raise InvalidState("state needs at least one source")
    for n, (gn, hn) in enumerate(zip(gt, ht)):
        if hn < 0:
            raise InvalidState(f"h[{n}] = {hn} is negative")
        if gn != EMPTY and not 0 <= gn < hn:
            raise InvalidState(f"g[{n}] = {gn} must be EMPTY or in [0, h[{n}]) = [0, {hn})")
    return SystemState(gt, ht)


def fresh_state(n_sources: int) -> SystemState:
    """Default initial condition: every buffer holds an age-0 packet and every
    destination is one slot stale."""
    return new_state((0,) * n_sources, (1,) * n_sources)


def sources_with_packets(x: SystemState) -> tuple[int, ...]:
    """Indices holding a buffered packet, ascending."""
    return tuple(n for n, gn in enumerate(x.g) if gn != EMPTY)


def enumerate_actions(x: SystemState, d: int) -> list[Action]:
    """All work-conserving actions: every size-min(N_x, d) subset of the packet holders.

    With no packets anywhere the only action is the empty one; with at most d
    holders there is exactly one action (schedule them all).
    """
    holders = sources_with_packets(x)
    k = min(len(holders), d)
    return [Action(c) for c in combinations(holders, k)]


def cost(x: SystemState) -> int:
    """Per-slot cost: the summed destination ages.  Action-independent."""
    return sum(x.h)


def norm_inf(x: SystemState) -> int:
    """One plus the largest destination age; the size measure used by gap bounds."""
    return max(x.h) + 1


def _check_schedulable(x: SystemState, a: Action) -> None:
    for n in a.scheduled:
        if x.g[n] == EMPTY:
            raise InvalidState(f"action schedules source {n} whose buffer is empty")


class Events(NamedTuple):
    """Each case's law: its events of nonzero probability, case after case,
    in enumerate_transitions order; W is the largest N of the batch.  A
    case may have no row at all (drop-event on a one-event law)."""

    case: np.ndarray       # intp [rows]: the case of each row, ascending
    delivered: np.ndarray  # bool [rows, W]: n's buffered packet got through
    arrived: np.ndarray    # bool [rows, W]: n received a fresh packet
    pr: np.ndarray         # float64 [rows]: the event's probability
    cases: int             # the number of cases
    step: int              # slots an undelivered destination age grows by

    def split(self, *starts: int) -> list[Events]:
        """The rows of cases [0, s1), [s1, s2), ..., [sk, cases), each part
        numbering its cases from 0."""
        bounds = [0, *starts, self.cases]
        ends = np.searchsorted(self.case, bounds).tolist()
        return [
            Events(self.case[r0:r1] - c0, self.delivered[r0:r1], self.arrived[r0:r1],
                   self.pr[r0:r1], c1 - c0, self.step)
            for c0, c1, r0, r1 in zip(bounds, bounds[1:], ends, ends[1:])
        ]

    def fsums(self, terms: np.ndarray) -> list[float]:
        """math.fsum of each case's terms, given one term per row."""
        ends = np.searchsorted(self.case, np.arange(1, self.cases + 1)).tolist()
        return [math.fsum(terms[i:j].tolist()) for i, j in zip([0, *ends], ends)]


def transition_law(scheduled: Sequence[tuple[int, ...]], p: Sequence[float], q: np.ndarray,
                   n: Sequence[int], fault: str | None) -> Events:
    """The exact one-slot law of cases given as columns: each case's
    scheduled sources, p (Python floats, whose pow the bases use), q
    [cases, W] (0.0 past the case's N) and N, under the one fault of them all.

    Success sets w come in combinations order with the base p^|w| (1-p)^(|a|-|w|),
    sets of base 0.0 skipped; arrivals are then expanded one source at a time
    for every row at once, so each probability is the base times q[n] or
    1 - q[n] for n = 0, 1, ..., multiplied left to right, and a branch is
    dropped once its product is 0.0.  Both faults live here: age-drift sets
    the step to 2, and drop-event leaves the event where every scheduled
    transfer succeeds and every source gets a packet out of the case's law
    (for an idle case, the event where every source gets a packet).
    """
    case, pr, hits, cols = [], [], [], []
    for i, (s, pi) in enumerate(zip(scheduled, p)):
        k = len(s)
        for nw in range(k + 1):
            base = pi**nw * (1.0 - pi) ** (k - nw)
            if base != 0.0:
                for w in combinations(s, nw):
                    hits += [len(pr)] * nw
                    cols += w
                    case.append(i)
                    pr.append(base)
    delivered = np.zeros((len(pr), q.shape[1]), dtype=bool)
    delivered[hits, cols] = True
    q = q[case]
    row, pr = np.arange(len(pr)), np.array(pr, dtype=float)
    arrived = np.zeros(delivered.shape, dtype=bool)
    for col in range(q.shape[1]):
        qn = q[row, col]
        both = np.empty(2 * len(pr))
        np.multiply(pr, 1.0 - qn, out=both[0::2])
        np.multiply(pr, qn, out=both[1::2])
        kept = both.nonzero()[0]
        src = kept >> 1
        row, pr, arrived = row[src], both[kept], arrived[src]
        arrived[:, col] = kept & 1
    case, delivered = np.array(case, dtype=np.intp)[row], delivered[row]
    if fault == "drop-event":
        k = np.array([len(s) for s in scheduled])[case]
        keep = (delivered.sum(axis=1) != k) | (arrived.sum(axis=1) != np.asarray(n)[case])
        case, delivered, arrived, pr = case[keep], delivered[keep], arrived[keep], pr[keep]
    return Events(case, delivered, arrived, pr, len(scheduled), 1 + (fault == "age-drift"))


def _signed_type(bound: int) -> np.dtype:
    """The smallest signed integer type holding -bound..bound."""
    return np.min_scalar_type(-1 - bound)


def advance(g, h, holders, delivered, stay, step=1):
    """The one-slot successor law on broadcasting arrays: the successor ages
    (g', h') of ages g, h, given holders = (g != EMPTY), the delivered
    packets, stay = no arrival, and step, the slots an undelivered
    destination age grows by.

    A delivery sets h' = g + 1 and empties the buffer; any other destination
    age grows by step.  An arrival leaves g' = 0; an undelivered packet ages
    by one and an empty buffer stays empty.  The masks are arguments so that
    a caller holding them already pays for no comparison.  g' is scaled by
    stay in place, so stay must broadcast to the shape of g'."""
    g2 = np.where(delivered, EMPTY, g + holders)
    g2 *= stay
    h2 = np.where(delivered, g, h if isinstance(step, int) and step == 1 else h + (step - 1))
    h2 += 1
    return g2, h2


def successor_ages(g: np.ndarray, h: np.ndarray, n: np.ndarray,
                   ev: Events) -> tuple[np.ndarray, np.ndarray]:
    """The successor ages g', h' [rows, W] of cases of n sources and ages g, h
    under each row's event, undelivered ages grown by the law's step; h' is
    0 past a case's own N, where g' reads EMPTY, so it adds to no sum."""
    # every age after the slot fits, since it grows by at most step <= 2
    dtype = _signed_type(int(h.max(initial=0)) + 2)
    g, h = g.astype(dtype)[ev.case], h.astype(dtype)[ev.case]
    g, h = advance(g, h, g != EMPTY, ev.delivered, ~ev.arrived, ev.step)
    live = np.arange(g.shape[1]) < n[ev.case, None]
    return g, np.where(live, h, 0)


def enumerate_transitions(
    x: SystemState, a: Action, params: ModelParams
) -> list[tuple[SystemState, float]]:
    """Exact successor distribution for (x, a): one entry per (successes,
    arrivals) event of nonzero probability, so the support sums to one.

    The one-case view of transition_law, whose probabilities it keeps
    bit for bit.  Nothing is merged: distinct events give distinct
    successors, since success sets h' = g+1 <= h < h+1 and only an
    arrival sets g' = 0.  Entries follow success-set order, then arrival
    patterns with source 0 most significant, no arrival before arrival.
    """
    _check_schedulable(x, a)
    ev = transition_law([a.scheduled], [params.p], np.array([params.q]), [params.n_sources],
                        params.fault)
    g, h = successor_ages(np.array([x.g]), np.array([x.h]), np.array([len(x.g)]), ev)
    return [
        (SystemState(tuple(gs), tuple(hs)), pr)
        for gs, hs, pr in zip(g.tolist(), h.tolist(), ev.pr.tolist())
    ]


def sample_step(x: SystemState, a: Action, params: ModelParams, rng) -> TransitionEvent:
    """Draw the event of one slot in which x takes action a.  Consumes
    len(scheduled) success uniforms (ascending source index) then n_sources
    arrival uniforms (ascending index), the order in which the Monte Carlo
    engine reads them, so episode streams are replayable byte-for-byte from
    the seed.  The draw follows the clean law whatever params.fault is."""
    _check_schedulable(x, a)
    succ_u = rng.random(len(a.scheduled))
    arr_u = rng.random(params.n_sources)
    successes = tuple(n for i, n in enumerate(a.scheduled) if succ_u[i] < params.p)
    arrivals = tuple(n for n in range(params.n_sources) if arr_u[n] < params.q[n])
    return TransitionEvent(successes, arrivals)


def success_probs(params: ModelParams, n_attempts: int) -> SuccessProbs:
    """At-least-one-success probabilities for the full channel batch and for
    the attempts actually made, plus the polynomial factor batch/p."""
    p, d = params.p, params.n_channels
    if not 0 <= n_attempts <= d:
        raise ValueError(f"n_attempts must lie in [0, {d}], got {n_attempts}")
    batch = 1.0 - (1.0 - p) ** d
    over_p = math.fsum((-1.0) ** l * math.comb(d, l + 1) * p**l for l in range(d))
    attempted = 1.0 - (1.0 - p) ** n_attempts
    return SuccessProbs(batch, over_p, attempted)


_STATE_RE = re.compile(r"^g=\[([^\]]*)\];h=\[([^\]]*)\]$")


def format_state(x: SystemState) -> str:
    """Render as `g=[psi,0,3];h=[7,1,5]` with `psi` marking empty buffers."""
    gs = ",".join("psi" if v == EMPTY else str(v) for v in x.g)
    hs = ",".join(str(v) for v in x.h)
    return f"g=[{gs}];h=[{hs}]"


def parse_state(text: str) -> SystemState:
    """Inverse of format_state; whitespace around commas is tolerated."""
    m = _STATE_RE.match(text.replace(" ", ""))
    if m is None:
        raise InvalidState(f"cannot parse state {text!r}; expected g=[...];h=[...]")
    g = [EMPTY if tok == "psi" else _parse_age(tok, text) for tok in m.group(1).split(",") if tok]
    h = [_parse_age(tok, text) for tok in m.group(2).split(",") if tok]
    return new_state(g, h)


def _parse_age(tok: str, text: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InvalidState(f"bad age token {tok!r} in state {text!r}") from None
