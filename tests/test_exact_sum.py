"""`dp._exact_sums`, the certified vectorized column sum of the backward
pass, against per-column `math.fsum`, and whole solves with the vector path
forced on every stage against solves with `fsum` forced on every stage.

Every column must come out as `math.fsum`'s value bit for bit, or raise
what `fsum` raises; the fallback count says which columns took `fsum`.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoi_sched import dp
from aoi_sched.dp import evaluate_policy, solve_optimal
from aoi_sched.model import ModelParams, fresh_state
from aoi_sched.policies import DeltaPolicy, PIPolicy, RRPolicy, StrictRRPolicy

from .test_dp import FROZEN_INSTANCES, GOLDEN_DIR, frozen_table_digests
from .test_dp_grid import same_table

TINY = 5e-324  # the smallest subnormal

# (label, column, fallback count): each column is summed on its own, so its
# certificate reads its own length m
CERTIFIED = [
    ("tie-to-even-down", [1.0, 2.0**-53], 0),
    ("tie-to-even-up", [1.0 + 2.0**-52, 2.0**-53], 0),
    ("near-tie-above", [1.0, 2.0**-53 + 2.0**-105], 0),
    ("max-last", [float.fromhex(x) for x in
                  ("0x1.94453b5a3d827p-45", "0x1.a48a385b0da22p-7", "0x1.f95eaa490d81dp-6")], 0),
    ("zeros", [0.0, 0.0, 0.0], 0),
    ("zeros-around-one-term", [0.0, 3.5, 0.0], 0),
    ("subnormals", [TINY, TINY, 3 * TINY], 0),
    ("subnormal-and-normal", [2.0**-1022, 3 * TINY, TINY], 0),
    ("large-scale", [1e300, 1e300, 3e299], 0),
    # m = 3: emax - emin = 52 = 54 - (3 - 1).bit_length(), the widest spread certified
    ("edge-m3", [1.0, 2.0**-52 + 2.0**-104, 2.0**-52], 0),
    # m = 2: 53 = 54 - (2 - 1).bit_length()
    ("edge-m2", [1.0, 2.0**-53 + 2.0**-105], 0),
]
FALLBACK = [
    # one binade past each edge
    ("past-edge-m3", [1.0, 2.0**-53 + 2.0**-105, 2.0**-53], 1),
    ("past-edge-m2", [1.0, 2.0**-54 + 2.0**-106], 1),
    # a half ulp split in two: each part lies 54 binades below the sum
    ("split-tie", [2.0**-54, 2.0**-54, 1.0 + 2.0**-52], 1),
    ("near-tie-above-split", [2.0**-54, 1.0, 2.0**-54 + 2.0**-104], 1),
    # c = 2**-53 + 2**-106 is not a double: an error sum that is not exact
    # would round it onto the tie and 1 + 2**-53 down to 1.0
    ("inexact-error-sum", [1.0, 2.0**-54, 2.0**-54 + 2.0**-106], 1),
    ("near-tie-below", [1.0, 2.0**-53 - 2.0**-106], 1),
    ("wide-spread", [1e300, 1.0, 1e-300], 1),
    ("subnormal-under-one", [1.0, TINY], 1),
    ("negative-term", [1.0, -0.5], 1),
    ("infinite-term", [math.inf, 1.0], 1),
]


def column_sum(col):
    with np.errstate(over="ignore", invalid="ignore"):  # the infinite columns
        value, fallbacks = dp._exact_sums(np.array(col, dtype=float).reshape(len(col), 1))
    return value[0], fallbacks


@pytest.mark.parametrize("label, col, fallbacks", CERTIFIED + FALLBACK,
                         ids=[label for label, _, _ in CERTIFIED + FALLBACK])
def test_crafted_columns_match_fsum(label, col, fallbacks):
    value, count = column_sum(col)
    assert value.hex() == math.fsum(col).hex()
    assert count == fallbacks


def test_certificate_edge_is_exact():
    """At the widest certified spread every column sums as fsum does; one
    binade wider, each column falls back."""
    rng = np.random.default_rng(3)
    for m in (2, 3, 5, 9):
        width = 54 - (m - 1).bit_length()
        for spread, fallbacks in ((width, 0), (width + 1, 256)):
            terms = np.ldexp(rng.integers(2**52, 2**53, size=(m, 256)) / 2.0**53,
                             rng.integers(2 - spread, -3, size=(m, 256)))
            terms[0] = 1.5  # frexp exponent 1, as the sum's: the rest is below 2**-4 * 8
            terms[1] = 2.0**-spread  # frexp exponent 1 - spread
            terms[:, ::2] = terms[::-1, ::2]  # the largest term first and last
            want = [math.fsum(col) for col in terms.T.tolist()]
            got, count = dp._exact_sums(terms)
            assert got.tolist() == want, (m, spread)
            assert count == fallbacks, (m, spread)


def test_overflow_raises_as_fsum_does():
    with pytest.raises(OverflowError):
        math.fsum([1.5e308, 1.5e308])
    with pytest.raises(OverflowError):
        column_sum([1.5e308, 1.5e308])


def test_empty_columns_sum_to_zero():
    value, count = dp._exact_sums(np.zeros((0, 3)))
    assert value.tolist() == [0.0, 0.0, 0.0] and count == 0


def test_random_columns_match_fsum():
    """Products like the backward pass's, and mantissa-rich terms over
    spreads on either side of the certificate, subnormals included."""
    rng = np.random.default_rng(11)
    for m in (1, 2, 4, 8, 16):
        pr = rng.random((m, 1))
        cases = [pr / pr.sum() * rng.integers(1, 60, size=(1, 2000)).astype(float)]
        for low in (-40, -60, -120, -1074):
            cases.append(np.ldexp(rng.integers(0, 2**53, size=(m, 2000)) / 2.0**53,
                                  rng.integers(low, 1, size=(m, 2000))))
        for terms in cases:
            want = [math.fsum(col) for col in terms.T.tolist()]
            got, _ = dp._exact_sums(terms.copy())
            assert got.tolist() == want, m


terms_ = st.one_of(
    st.floats(0.0, 1e300),
    st.sampled_from([0.0, TINY, 1.0, 2.0**-53, 2.0**-54, 1.0 + 2.0**-52]),
    st.builds(math.ldexp, st.integers(0, 2**53), st.integers(-1126, -1000) | st.integers(-110, 4)),
)


@given(st.integers(1, 9).flatmap(
    lambda m: st.lists(st.lists(terms_, min_size=m, max_size=m), min_size=1, max_size=12)))
def test_nonnegative_columns_match_fsum(cols):
    terms = np.array(cols, dtype=float).T.copy()
    got, _ = dp._exact_sums(terms)
    assert [x.hex() for x in got.tolist()] == [math.fsum(col).hex() for col in cols]


# every frozen-digest instance from both starts, and one whose laws have no
# event at all (every packet is dropped: p = 1 delivers and q = 1 refills
# each source)
STARTS = [(params, x0) for _, params, stale in FROZEN_INSTANCES
          for x0 in (fresh_state(params.n_sources), stale)] + [
    (ModelParams(2, 1, 1.0, (1.0, 1.0), 4, fault="drop-event"), fresh_state(2))]


def solve_all(params, x0):
    """The optimal table with delta, pi and rr riding it, and rr-strict on a
    pass of its own."""
    d = params.n_channels
    opt = solve_optimal(params, x0, riders=[DeltaPolicy(d), PIPolicy(d), RRPolicy(d)])
    return [opt, *opt.riders, evaluate_policy(StrictRRPolicy(d), params, x0)]


def counting_fallbacks(monkeypatch) -> list:
    """The fallback count of each _exact_sums call from now on."""
    counts, exact = [], dp._exact_sums

    def counting(terms):
        sums, fallbacks = exact(terms)
        counts.append(fallbacks)
        return sums, fallbacks

    monkeypatch.setattr(dp, "_exact_sums", counting)
    return counts


def test_vector_path_matches_fsum_path_on_every_stage(monkeypatch):
    """With the vector path forced on every stage, every table has the value
    bytes and masks of the tables summed by fsum on every stage, and no
    column falls back."""
    for params, x0 in STARTS:
        monkeypatch.setattr(dp, "SUM_CUTOFF", math.inf)
        counts = counting_fallbacks(monkeypatch)
        by_fsum = solve_all(params, x0)
        assert counts == []
        monkeypatch.setattr(dp, "SUM_CUTOFF", 0)
        by_vector = solve_all(params, x0)
        assert len(counts) >= params.horizon - 1 and sum(counts) == 0, params
        for got, want in zip(by_vector, by_fsum):
            same_table(got, want)
        monkeypatch.undo()


@pytest.mark.parametrize("cutoff", [0, math.inf], ids=["vector", "fsum"])
def test_riders_match_their_own_passes_on_either_path(monkeypatch, cutoff):
    """Summed beside the optimal table's columns, on one path for every
    stage, each rider's table is that of its own pass on the same path."""
    monkeypatch.setattr(dp, "SUM_CUTOFF", cutoff)
    for params, x0 in STARTS:
        opt, *riders, _ = solve_all(params, x0)
        for table in riders:
            policy = {"delta": DeltaPolicy, "pi": PIPolicy, "rr": RRPolicy}[table.policy_name]
            same_table(table, evaluate_policy(policy(params.n_channels), params, x0))


@pytest.mark.parametrize("cutoff", [0, math.inf], ids=["vector", "fsum"])
def test_either_path_keeps_the_frozen_digests(monkeypatch, cutoff):
    monkeypatch.setattr(dp, "SUM_CUTOFF", cutoff)
    counts = counting_fallbacks(monkeypatch)
    golden = json.loads((GOLDEN_DIR / "dp_tables.json").read_text())
    assert frozen_table_digests() == golden
    assert (sum(counts), bool(counts)) == (0, cutoff == 0)


def test_exact_gap_instance_certifies_every_column(monkeypatch):
    params = ModelParams(2, 1, 0.6, (0.5, 0.5), 7)
    counts = counting_fallbacks(monkeypatch)
    solve_all(params, fresh_state(2))
    solve_all(replace(params, p=0.3), fresh_state(2))
    assert counts and sum(counts) == 0
