"""Span tracing of aoi_sched from outside the package.

Each layer's public functions are wrapped where the *calling* module looks
them up (``aoi_sched.dp.enumerate_transitions``, ``aoi_sched.simulate.sample_step``,
a policy class's ``decide`` ...), so nothing under ``src/`` changes and the
originals are put back afterwards.

Two kinds of wrapper:

* spans (solver passes, experiments, episodes, verify checks) are kept as
  records ``[name, start_ns, end_ns, parent_index, child_ns, info]``;
* hot leaf calls (``enumerate_transitions``, ``sample_step``, ``decide``) are
  aggregated per call path of open spans as a count, busy time and a
  fixed-bucket histogram, so millions of calls cost no memory.

A span's self time is its duration minus the time of the spans and leaf calls
directly inside it.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

# (module, attribute, span name).  A function imported into several modules
# is wrapped at every lookup site that a workload reaches.
SPAN_SITES = (
    ("aoi_sched.cli", "solve_optimal", "dp.solve_optimal"),
    ("aoi_sched.cli", "evaluate_policy", "dp.evaluate_policy"),
    ("aoi_sched.cli", "compare_policies", "simulate.compare_policies"),
    ("aoi_sched.cli", "run_experiment", "simulate.run_experiment"),
    ("aoi_sched.cli", "run_suite", "verify.run_suite"),
    ("aoi_sched.simulate", "run_experiment", "simulate.run_experiment"),
    ("aoi_sched.simulate", "run_episode", "simulate.run_episode"),
    ("aoi_sched.dp", "reachable_states", "dp.reachable_states"),
    ("aoi_sched.dp", "solve_optimal", "dp.solve_optimal"),
    ("aoi_sched.dp", "evaluate_policy", "dp.evaluate_policy"),
    ("aoi_sched.verify", "solve_optimal", "dp.solve_optimal"),
    ("aoi_sched.verify", "evaluate_policy", "dp.evaluate_policy"),
)

VERIFY_CHECKS = (
    "prob_closure",
    "age_sum_identity",
    "margin_split",
    "success_prob_identity",
    "penultimate_stage",
    "gap_sign_and_bound",
    "gap_scaling",
    "policy_eval_consistency",
)
SPAN_SITES += tuple(
    ("aoi_sched.verify", f"check_{c}", f"verify.{c}") for c in VERIFY_CHECKS
)

# (module, attribute, leaf name); a dotted attribute names a class method.
LEAF_SITES = (
    ("aoi_sched.dp", "enumerate_transitions", "model.enumerate_transitions"),
    ("aoi_sched.verify", "enumerate_transitions", "model.enumerate_transitions"),
    ("aoi_sched.simulate", "sample_step", "model.sample_step"),
    ("aoi_sched.policies", "DeltaPolicy.decide", "policies.delta.decide"),
    ("aoi_sched.policies", "PIPolicy.decide", "policies.pi.decide"),
    ("aoi_sched.policies", "RRPolicy.decide", "policies.rr.decide"),
    ("aoi_sched.policies", "OptimalPolicy.decide", "policies.optimal.decide"),
)


def _solve_info(args, table):
    sizes = [len(stage) for stage in table.stages]
    return {"states": sum(sizes), "max_stage": max(sizes)}


def _episode_info(args, result):
    return args[1].horizon - 1  # decided slots


def _experiment_info(args, summary):
    return {"policy": summary.policy,
            "slots": summary.replications * (summary.params.horizon - 1)}


SPAN_INFO = {
    "dp.solve_optimal": _solve_info,
    "simulate.run_episode": _episode_info,
    "simulate.run_experiment": _experiment_info,
}


def bucket(dt: int) -> int:
    """Histogram bucket of a duration in ns: 8 log-spaced buckets per octave."""
    n = dt.bit_length()
    return dt if n < 4 else (n << 3) | ((dt >> (n - 4)) & 7)


def bucket_bounds(key: int) -> tuple[int, int]:
    if key < 32:
        return key, key + 1
    n, sub = key >> 3, key & 7
    return (8 + sub) << (n - 4), (9 + sub) << (n - 4)


def hist_quantile(hist: dict, q: float) -> float:
    """Quantile in ns, interpolated linearly inside the bucket that holds it."""
    total = sum(hist.values())
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for key in sorted(hist):
        count = hist[key]
        if seen + count >= rank:
            lo, hi = bucket_bounds(key)
            return lo + (hi - lo) * (rank - seen) / count
        seen += count
    return float(bucket_bounds(max(hist))[1])


class Tracer:
    """Wraps the sites above on install() and puts the originals back on restore()."""

    def __init__(self):
        self.spans: list[list] = []
        # leaf stats keyed by (span path, leaf name):
        # [calls, busy_ns, histogram, successors, events]
        self.leaves: dict[tuple[str, str], list] = {}
        self._stack = [-1]
        self._paths = [""]
        self._originals: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def span(self, name: str, fn, info=None):
        spans, stack, paths = self.spans, self._stack, self._paths

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            rec = [name, 0, 0, parent, 0, None]
            stack.append(len(spans))
            paths.append(paths[-1] + "/" + name)
            spans.append(rec)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                paths.pop()
                rec[1], rec[2] = t0, t1
                if parent >= 0:
                    spans[parent][4] += t1 - t0
            if info is not None:
                rec[5] = info(args, out)
            return out

        return wrapper

    def leaf(self, name: str, fn, count_events: bool = False):
        spans, stack, paths, leaves = self.spans, self._stack, self._paths, self.leaves

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            out = fn(*args, **kwargs)
            dt = perf_counter_ns() - t0
            parent = stack[-1]
            if parent >= 0:
                spans[parent][4] += dt
            key = (paths[-1], name)
            st = leaves.get(key)
            if st is None:
                st = leaves[key] = [0, 0, {}, 0, 0]
            st[0] += 1
            st[1] += dt
            b = bucket(dt)
            hist = st[2]
            hist[b] = hist.get(b, 0) + 1
            if count_events:
                # enumerate_transitions(x, a, params): 2^(|a|+N) events tried
                st[3] += len(out)
                st[4] += 1 << (len(args[1].scheduled) + args[2].n_sources)
            return out

        return wrapper

    # -- install / restore ------------------------------------------------
    def install(self) -> None:
        for mod_name, attr, name in SPAN_SITES:
            mod = importlib.import_module(mod_name)
            self._swap(mod, attr, lambda fn: self.span(name, fn, SPAN_INFO.get(name)))
        for mod_name, dotted, name in LEAF_SITES:
            owner = importlib.import_module(mod_name)
            *parents, attr = dotted.split(".")
            for p in parents:
                owner = getattr(owner, p)
            self._swap(owner, attr,
                       lambda fn: self.leaf(name, fn, name == "model.enumerate_transitions"))

    def _swap(self, owner, attr: str, make) -> None:
        orig = vars(owner)[attr]
        self._originals.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def restore(self) -> bool:
        """Put every original back; True when each site holds its original again."""
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        ok = all(vars(owner)[attr] is orig for owner, attr, orig in self._originals)
        self._originals.clear()
        return ok


def quantile(values: list, q: float) -> float:
    """Linear-interpolation quantile of a list of numbers (0.0 when empty)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class LeafTotal:
    """Leaf statistics merged over every span path that passes a filter."""

    def __init__(self, tracer: Tracer, leaf: str, in_span: str | None = None):
        self.calls = self.busy_ns = self.successors = self.events = 0
        self.hist: dict[int, int] = {}
        for (path, name), (calls, busy, hist, succ, events) in tracer.leaves.items():
            if name != leaf or (in_span is not None and f"/{in_span}/" not in path + "/"):
                continue
            self.calls += calls
            self.busy_ns += busy
            self.successors += succ
            self.events += events
            for b, n in hist.items():
                self.hist[b] = self.hist.get(b, 0) + n

    def us(self, q: float) -> float:
        return hist_quantile(self.hist, q) / 1e3


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced call, as name -> (value, unit)."""
    spans = tr.spans

    def named(name):
        return [r for r in spans if r[0] == name]

    def total_s(name):
        return sum(r[2] - r[1] for r in named(name)) / 1e9

    def self_s(name):
        return sum(r[2] - r[1] - r[4] for r in named(name)) / 1e9

    def busy_in(span, leaves):
        return sum(LeafTotal(tr, leaf, span).busy_ns for leaf in leaves) / 1e9

    m: dict[str, tuple[float, str]] = {}
    kern = LeafTotal(tr, "model.enumerate_transitions")
    m["model.enumerate_transitions.calls"] = (kern.calls, "count")
    m["model.enumerate_transitions.us_p50"] = (kern.us(0.5), "us")
    m["model.enumerate_transitions.us_p99"] = (kern.us(0.99), "us")
    m["model.enumerate_transitions.s"] = (kern.busy_ns / 1e9, "s")
    m["model.enumerate_transitions.successors_per_event"] = (
        kern.successors / kern.events if kern.events else 0.0, "ratio")
    step = LeafTotal(tr, "model.sample_step")
    m["model.sample_step.calls"] = (step.calls, "count")
    m["model.sample_step.us_p50"] = (step.us(0.5), "us")
    m["model.sample_step.us_p99"] = (step.us(0.99), "us")
    m["model.sample_step.s"] = (step.busy_ns / 1e9, "s")

    solves = [r[5] for r in named("dp.solve_optimal")]
    states = sum(s["states"] for s in solves)
    m["dp.reachable_states.s"] = (total_s("dp.reachable_states"), "s")
    m["dp.solve_optimal.s"] = (total_s("dp.solve_optimal"), "s")
    m["dp.solve_optimal.self_s"] = (self_s("dp.solve_optimal"), "s")
    m["dp.evaluate_policy.calls"] = (len(named("dp.evaluate_policy")), "count")
    m["dp.evaluate_policy.s"] = (total_s("dp.evaluate_policy"), "s")
    m["dp.evaluate_policy.self_s"] = (self_s("dp.evaluate_policy"), "s")
    m["dp.states_total"] = (states, "count")
    m["dp.max_stage_states"] = (max((s["max_stage"] for s in solves), default=0), "count")
    solve_kern = LeafTotal(tr, "model.enumerate_transitions", "dp.solve_optimal").calls
    m["dp.kernel_calls_per_state"] = (solve_kern / states if states else 0.0, "ratio")

    decide_calls = 0
    for pol in ("delta", "pi", "rr", "optimal"):
        dec = LeafTotal(tr, f"policies.{pol}.decide")
        decide_calls += dec.calls
        if pol != "optimal":
            m[f"policies.{pol}.decide_us_p50"] = (dec.us(0.5), "us")
            m[f"policies.{pol}.decide_us_p99"] = (dec.us(0.99), "us")
    m["policies.decide.calls"] = (decide_calls, "count")

    episodes = named("simulate.run_episode")
    ep_us = [(r[2] - r[1]) / 1e3 for r in episodes]
    slots = sum(r[5] for r in episodes)
    m["simulate.run_experiment.s"] = (total_s("simulate.run_experiment"), "s")
    m["simulate.run_episode.calls"] = (len(episodes), "count")
    m["simulate.episode_us_p50"] = (quantile(ep_us, 0.5), "us")
    m["simulate.episode_us_p99"] = (quantile(ep_us, 0.99), "us")
    m["simulate.slot_us"] = (sum(ep_us) / slots if slots else 0.0, "us")
    m["simulate.self_s"] = (
        total_s("simulate.run_experiment")
        - busy_in("simulate.run_experiment", ("model.sample_step", "policies.delta.decide",
                                              "policies.pi.decide", "policies.rr.decide",
                                              "policies.optimal.decide")),
        "s")

    m["cli.main.s"] = (total_s("cli.main"), "s")
    m["cli.self_s"] = (self_s("cli.main"), "s")

    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = (total_s(f"verify.{check}"), "s")
    m["verify.kernel_calls"] = (
        LeafTotal(tr, "model.enumerate_transitions", "verify.run_suite").calls, "count")
    return m


def baseline_figures(tr: Tracer) -> dict:
    """The traced counterparts of the ROADMAP baseline figures (None where the
    call did not run the layer)."""
    delta = [r for r in tr.spans
             if r[0] == "simulate.run_experiment" and r[5]["policy"] == "delta"]
    delta_slots = sum(r[5]["slots"] for r in delta)
    solves = [r for r in tr.spans if r[0] == "dp.solve_optimal"]
    solve_s = sum(r[2] - r[1] for r in solves) / 1e9
    states = sum(r[5]["states"] for r in solves)
    kern = LeafTotal(tr, "model.enumerate_transitions", "dp.solve_optimal")
    return {
        "delta_slot_us": (sum(r[2] - r[1] for r in delta) / 1e3 / delta_slots
                          if delta_slots else None),
        "kernel_share_of_solve": kern.busy_ns / 1e9 / solve_s if solve_s else None,
        "kernel_calls_per_state": kern.calls / states if states else None,
    }


def leaf_table(tr: Tracer) -> dict:
    """Leaf calls and busy seconds per span path, for the run's info line."""
    out: dict = {}
    for (path, name), (calls, busy, *_rest) in sorted(tr.leaves.items()):
        out.setdefault(path or "/", {})[name] = {"calls": calls, "s": busy / 1e9}
    return out
