"""Release acceptance: one test per numbered criterion, stated tolerances only.

Criteria 1-4 and 6 exercise the exact machinery in-process; 5, 7, and 8 drive
the installed CLI end to end and read back its data files.  Budgets and
thresholds live next to the assertions they justify.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from aoi_sched.config import expand_q
from aoi_sched.dp import (
    bound_constants,
    evaluate_policy,
    optimality_gap,
    solve_optimal,
)
from aoi_sched.model import ModelParams, fresh_state, norm_inf, success_probs
from aoi_sched.policies import DeltaPolicy, make_policy
from aoi_sched.simulate import run_episode
from aoi_sched.verify import (
    check_age_sum_identity,
    check_margin_split,
    check_prob_closure,
    check_success_prob_identity,
)

from .conftest import run_cli
from .reference import stage_dicts
from .scalar_kernel import min_schedule_margin

CRIT2_PS = (0.1, 0.3, 0.5, 0.7, 0.9)

# Data files of the criterion 5 and 7 runs, frozen from the scalar simulator.
GOLDEN_DIR = Path(__file__).parent / "golden"


def crit2_params(p: float) -> ModelParams:
    return ModelParams(2, 1, p, (0.5, 0.5), 6)


def cost_gap(first: dict, other: dict) -> tuple[float, float]:
    """Mean total cost of `other` minus that of `first`, and the standard error
    of that difference from the rows' stderr columns taken as independent.
    Common random numbers correlate the two means positively, so this
    overstates the error of the difference."""
    mf, sf = float(first["mean_total_cost"]), float(first["stderr"])
    mo, so = float(other["mean_total_cost"]), float(other["stderr"])
    return mo - mf, math.hypot(sf, so)


def improvement_stderr(first: dict, other: dict) -> float:
    """Standard error, in percentage points, of other's improvement_of_first_pct
    = 100 * (1 - mf/mo), by the delta method on the two stderr columns taken
    as independent (an overstatement, as in cost_gap)."""
    mf, sf = float(first["mean_total_cost"]), float(first["stderr"])
    mo, so = float(other["mean_total_cost"]), float(other["stderr"])
    return 100.0 * (mf / mo) * math.hypot(sf / mf, so / mo)


def rr_limit(p: float) -> float:
    """Large-N limit L of delta's fractional improvement over rr (see below)."""
    return (1.0 - p) / (2.0 - p)


# At N=5 the O(1) terms below are comparable to the leading ones and buffers are
# sometimes empty when rr reaches them, so the interval is checked from N=25.
RR_INTERVAL_NS = (25, 100)


def rr_improvement_bounds(
    n: int, p: float, q: tuple[float, ...], horizon: int
) -> tuple[float, float]:
    """Interval, in percent, for delta's improvement over work-conserving rr
    with one channel, run for T = horizon slots from fresh_state.

    Regime: every buffer refills long before its source is served again (a
    source waits about N/p slots; it stays empty with chance (1-q)^N).

    Inter-delivery gaps X of one source:
      * rr attempts each source once every N slots whether or not the last
        attempt got through, and an attempt succeeds with probability p, so
        X = N*K with K ~ Geom(p): E[X] = N/p, E[X^2] = N^2 (2-p)/p^2.
      * delta keeps an undelivered source on top (a failure never lowers its
        h - g, a delivery sends it to the bottom), so it serves the sources in
        a cycle with retries and X is a sum of N Geom(p) slot counts:
        E[X] = N/p, E[X^2] = N^2/p^2 + N(1-p)/p^2.

    Stationary AAoI per source: between deliveries h runs g+1, ..., g+X,
    where g is the delivered packet's age, so renewal-reward gives
    A = E[X^2] / (2 E[X]) + 1/2 + E[g]:
        A_rr    = N(2-p)/(2p) + 1/2 + b,
        A_delta = N/(2p) + (1-p)/(2p) + 1/2 + gamma,  0 <= gamma <= b,
    with b = mean (1-q)/q the mean age of a buffered packet at a time chosen
    without looking at g, as rr's are; delta's preference for small g can
    only lower its gamma below b.  For large N the ratio A_delta/A_rr tends
    to 1/(2-p), so the improvement tends to L = (1-p)/(2-p).

    Start-up: fresh_state puts every source at h = 1.  Until its first
    delivery at slot phi a source's age is t rather than A0 + t, where A0 is
    the age a stationary run would have at the start; from phi on the two
    runs coincide.  So a run costs T*A - S per source, with S = E[A0 * phi]:
      * rr first attempts source n at slot n+1, and its past and future
        successes are independent, so E[A0 * phi] = (N/p - n)(n + N/p - N);
        averaged over n uniform on [0, N): S_rr = N^2 (1/p^2 - 1/p + 1/6).
      * delta's cycle has period P = N/p; a source first delivered at phi
        was last delivered P - phi before the start in the stationary cycle,
        so A0 = P - phi, and phi uniform on [0, P] gives S_delta = N^2/(6p^2).

    Hence improvement = 1 - (T*A_delta - S_delta) / (T*A_rr - S_rr), which
    falls as gamma grows: gamma = b gives the lower end, gamma = 0 the upper.
    To first order in N/T the start-up alone lowers it by
    L * (N/T) * (4-p) / (3p(2-p)), so it approaches L only when T >> N.
    """
    b = sum((1.0 - v) / v for v in q) / n
    a_rr = n * (2.0 - p) / (2.0 * p) + 0.5 + b
    a_delta = n / (2.0 * p) + (1.0 - p) / (2.0 * p) + 0.5
    s_rr = n * n * (1.0 / p**2 - 1.0 / p + 1.0 / 6.0)
    s_delta = n * n / (6.0 * p * p)
    rr_cost = horizon * a_rr - s_rr

    def improvement(gamma: float) -> float:
        return 100.0 * (1.0 - (horizon * (a_delta + gamma) - s_delta) / rr_cost)

    return improvement(b), improvement(0.0)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class CliRun:
    def __init__(self, out_path, args):
        self.args = args
        self.path = out_path
        t0 = time.perf_counter()
        res = run_cli([*args, "--out", str(out_path)])
        self.elapsed = time.perf_counter() - t0
        assert res.returncode == 0, res.stderr
        self.data = out_path.read_bytes()
        self.rows = read_rows(out_path)

    def rerun(self, out_path) -> bytes:
        res = run_cli([*self.args, "--out", str(out_path)])
        assert res.returncode == 0, res.stderr
        return out_path.read_bytes()

    def row(self, policy: str, **match) -> dict:
        for r in self.rows:
            if r["policy"] == policy and all(
                math.isclose(float(r[k]), v) for k, v in match.items()
            ):
                return r
        raise KeyError((policy, match))


@pytest.fixture(scope="session")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def crit2_tables():
    """Optimal and margin-policy value tables for the desk-scale instances."""
    tables = {}
    for p in CRIT2_PS:
        params = crit2_params(p)
        x0 = fresh_state(2)
        tables[p] = (
            params,
            solve_optimal(params, x0),
            evaluate_policy(DeltaPolicy(1), params, x0),
        )
    return tables


@pytest.fixture(scope="session")
def crit5_run(acceptance_dir):
    return CliRun(acceptance_dir / "mc_dp.csv", [
        "simulate", "--n-sources", "2", "--n-channels", "1", "--p", "0.6",
        "--q", "uniform:0.5", "--horizon", "6", "--replications", "10000",
        "--policies", "delta,pi,rr", "--seed", "42", "--no-header-timestamp",
    ])


@pytest.fixture(scope="session")
def crit7a_run(acceptance_dir):
    return CliRun(acceptance_dir / "trend_p.csv", [
        "simulate", "--n-sources", "5", "--n-channels", "1",
        "--p-grid", "0.2", "0.5", "0.8", "--q", "uniform:0.5",
        "--horizon", "1000", "--replications", "200",
        "--policies", "delta,pi", "--seed", "42", "--no-header-timestamp",
    ])


@pytest.fixture(scope="session")
def crit7b_run(acceptance_dir):
    return CliRun(acceptance_dir / "trend_n.csv", [
        "simulate", "--n-grid", "5", "25", "100", "--n-channels", "1",
        "--p", "0.65", "--q", "uniform:0.5",
        "--horizon", "1000", "--replications", "200",
        "--policies", "delta,rr", "--seed", "42", "--no-header-timestamp",
    ])


@pytest.fixture(scope="session")
def crit7c_run(acceptance_dir):
    return CliRun(acceptance_dir / "trend_d3.csv", [
        "simulate", "--n-sources", "30", "--n-channels", "3", "--p", "0.9",
        "--q", "uniform:0.5", "--horizon", "1000", "--replications", "200",
        "--policies", "delta,pi", "--seed", "42", "--no-header-timestamp",
    ])


def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    results = [
        check_prob_closure(1000),
        check_age_sum_identity(1000),
        check_margin_split(500),
        check_success_prob_identity(),
    ]
    elapsed = time.perf_counter() - t0
    bad = [(c.name, c.detail) for c in results if c.status != "pass"]
    assert not bad, bad
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"
    print(f"criterion 1: PASS ({elapsed:.2f}s) " + "; ".join(c.detail for c in results))


def test_criterion_2_margin_policy_gap_at_desk_scale(crit2_tables):
    t0 = time.perf_counter()
    for p, (params, opt, dtab) in crit2_tables.items():
        x0 = fresh_state(2)
        diff = dtab.root_value() - opt.root_value()
        assert diff >= -1e-9, f"p={p}: negative gap {diff}"
        T = params.horizon
        got, want = stage_dicts(dtab), stage_dicts(opt)
        for t in (T, T - 1):
            worst = max(
                abs(got[t - 1][x][0] - want[t - 1][x][0]) for x in got[t - 1]
            )
            assert worst == 0.0, f"p={p} stage {t}: last-two-stage gap {worst}"
        bc = bound_constants(T - 1, p, 1)
        pd = success_probs(params, 0).batch
        bound = p * pd * (bc.d1 * norm_inf(x0) + bc.d2)
        assert diff <= bound + 1e-9, f"p={p}: diff {diff} above bound {bound}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 2: PASS ({elapsed:.2f}s) all {len(crit2_tables)} p values")


def test_criterion_3_quadratic_gap_scaling():
    t0 = time.perf_counter()
    ps = (0.02, 0.04, 0.08, 0.16)
    gaps = [optimality_gap(crit2_params(p), fresh_state(2)).diff for p in ps]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    if all(g < 1e-12 for g in gaps):
        print(f"criterion 3: PASS (skipped: every gap below 1e-12, gaps={gaps})")
        return
    pts = [(p, g) for p, g in zip(ps, gaps) if g > 1e-15]
    assert len(pts) >= 2, f"not enough positive gaps to fit: {gaps}"
    slope = np.polyfit(np.log([p for p, _ in pts]), np.log([g for _, g in pts]), 1)[0]
    assert slope >= 1.8, f"log-log slope {slope:.3f} < 1.8 (gaps={gaps})"
    print(f"criterion 3: PASS ({elapsed:.2f}s) slope={slope:.3f}")


def test_criterion_4_penultimate_stage_closed_form(crit2_tables):
    checked = 0
    for p, (params, opt, _) in crit2_tables.items():
        t = params.horizon - 1
        for x, (value, _) in stage_dicts(opt)[t - 1].items():
            expect = 2.0 * sum(x.h) + params.n_sources + p * min_schedule_margin(x, 1)
            err = abs(value - expect)
            assert err <= 1e-9, f"p={p}, state {x}: closed-form error {err}"
            checked += 1
    print(f"criterion 4: PASS closed form on {checked} penultimate-stage states")


def test_criterion_5_monte_carlo_matches_exact_values(crit5_run):
    assert crit5_run.elapsed < 120.0
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 6)
    x0 = fresh_state(2)
    details = []
    for name in ("delta", "pi", "rr"):
        exact = evaluate_policy(make_policy(name, params), params, x0).root_value()
        r = crit5_run.row(name)
        mean, se = float(r["mean_total_cost"]), float(r["stderr"])
        # CSV carries 6 significant digits; that rounding is far inside 4*stderr
        assert abs(mean - exact) <= 4 * se, (
            f"{name}: |{mean} - {exact}| > 4*{se}"
        )
        details.append(f"{name} |mc-exact|={abs(mean - exact):.3f} (4se={4 * se:.3f})")
    print(f"criterion 5: PASS ({crit5_run.elapsed:.1f}s) " + "; ".join(details))


def test_criterion_6_degenerate_success_probability_closed_form():
    expect = 3 * 10 + 3 * 10 * 9 // 2
    for q in ((0.5, 0.25, 0.75), (0.3, 0.7, 0.9)):
        params = ModelParams(3, 1, 0.0, q, 10)
        x0 = fresh_state(3)
        assert solve_optimal(params, x0).root_value() == float(expect)
        for name in ("delta", "pi", "rr", "rr-strict"):
            pol = make_policy(name, params)
            assert evaluate_policy(pol, params, x0).root_value() == float(expect), (
                f"exact value for {name} at q={q}"
            )
            for seed in range(10):
                got = run_episode(pol, params, x0, seed=seed).total_cost
                assert got == expect, f"simulated {name} q={q} seed={seed}: {got}"
    print(f"criterion 6: PASS every policy hits {expect} exactly, both q vectors")


def test_criterion_7a_improvement_over_age_greedy_grows_with_p(crit7a_run):
    imps = {}
    for p in (0.2, 0.5, 0.8):
        rp = crit7a_run.row("pi", p=p)
        gap, se = cost_gap(crit7a_run.row("delta", p=p), rp)
        assert gap >= -2 * se, f"p={p}: delta worse than pi beyond 2*stderr"
        imps[p] = float(rp["improvement_of_first_pct"])
    assert imps[0.8] > imps[0.2], f"improvement not increasing: {imps}"
    print(f"criterion 7a: PASS improvements {imps}")


def test_criterion_7b_round_robin_gap_narrows_with_many_sources(crit7b_run):
    """Delta's lead over work-conserving rr tends to (1-p)/(2-p), not to zero.

    rr moves its cursor past each pick whether or not the transfer succeeded,
    while delta retries the source it failed on, so rr's AAoI stays a factor
    of about 2-p above delta's however many sources there are.  The name keeps
    the narrowing first expected here; the round robin that does narrow (its
    cursor stays on an undelivered pick) is not the documented `rr`.  Delta
    must beat rr at every N, and at N in RR_INTERVAL_NS the improvement must
    lie in the renewal-reward interval of rr_improvement_bounds, widened by
    2 standard errors of the improvement.
    """
    imps, checked = {}, []
    for n in (5, 25, 100):
        rd, rr = crit7b_run.row("delta", N=n), crit7b_run.row("rr", N=n)
        gap, se = cost_gap(rd, rr)
        assert gap > 2 * se, (
            f"N={n}: rr costs {gap:.6g} more than delta, "
            f"not above 2*stderr {2 * se:.6g}"
        )
        imps[n] = float(rr["improvement_of_first_pct"])
        if n not in RR_INTERVAL_NS:
            continue
        p = float(rr["p"])
        lo, hi = rr_improvement_bounds(n, p, expand_q(rr["q_spec"], n), int(rr["T"]))
        w = 2 * improvement_stderr(rd, rr)
        assert lo - w <= imps[n] <= hi + w, (
            f"N={n}: improvement over rr {imps[n]:.2f}% outside "
            f"[{lo:.2f}, {hi:.2f}] widened by 2*stderr {w:.2f}; "
            f"the large-N limit is {100 * rr_limit(p):.2f}%"
        )
        checked.append(f"N={n} in [{lo:.2f}, {hi:.2f}]+-{w:.2f}")
    print(
        f"criterion 7b: PASS improvements {imps}; " + "; ".join(checked)
        + f"; limit {100 * rr_limit(p):.2f}%"
    )


def test_criterion_7c_multichannel_improvement_over_age_greedy(
    crit7a_run, crit7b_run, crit7c_run
):
    """Delta beats the age-greedy `pi` rule at N=30, d=3, p=0.9, q=0.5.

    Only the sign is gated: pi's mean cost must exceed delta's by more than
    2 standard errors of the difference.  The abstract's 30-90% AAoI
    reduction names neither a baseline policy nor an operating point, and at
    q=0.5 a buffered packet is rarely more than a slot or two old, so ranking
    by h - g and ranking by h seldom disagree.  A gate on the size of the
    improvement waits on the paper's numerical results.
    """
    total = crit7a_run.elapsed + crit7b_run.elapsed + crit7c_run.elapsed
    assert total < 600.0, f"trend runs took {total:.0f}s"
    rp = crit7c_run.row("pi")
    gap, se = cost_gap(crit7c_run.row("delta"), rp)
    imp = float(rp["improvement_of_first_pct"])
    assert gap > 2 * se, (
        f"pi costs {gap:.6g} more than delta, not above 2*stderr {2 * se:.6g}"
    )
    print(
        f"criterion 7c: PASS improvement {imp:.2f}% over pi; "
        f"cost gap {gap:.6g} > 2*stderr {2 * se:.6g}"
    )


@pytest.fixture(scope="session")
def acceptance_runs(crit5_run, crit7a_run, crit7b_run, crit7c_run):
    return {
        "mc_dp": crit5_run,
        "trend_p": crit7a_run,
        "trend_n": crit7b_run,
        "trend_d3": crit7c_run,
    }


def test_criterion_8_data_files_match_frozen_golden(acceptance_runs):
    """A change that shifts the random stream alters both a run and its rerun;
    comparing with files frozen from an earlier build catches it."""
    for label, run in acceptance_runs.items():
        golden = (GOLDEN_DIR / f"{label}.csv").read_bytes()
        assert run.data == golden, f"{label}: data file differs from tests/golden/"
    print(f"criterion 8: PASS {len(acceptance_runs)} data files equal their golden bytes")


def test_criterion_8_reruns_are_byte_identical(acceptance_dir, acceptance_runs):
    for label, run in acceptance_runs.items():
        again = run.rerun(acceptance_dir / f"{label}_again.csv")
        assert again == run.data, f"{label}: repeated run differs byte-for-byte"
    print(f"criterion 8: PASS {len(acceptance_runs)} repeated data files byte-identical")
