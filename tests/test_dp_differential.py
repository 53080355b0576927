"""The array solver in `aoi_sched.dp` against the dict reference in
`tests/dict_solver.py`.

For the optimal solve, every fixed policy and the table-backed optimal policy,
clean and under each fault, both must tabulate the same keys at every stage
(the array tables read through `reference.stage_dicts`),
with the same values to the last bit (`float.hex`) and the same actions; a
run over the state cap must fail with the same message.

The row dedupe that every grouping in the solver goes through
(`dp._unique_rows`) and the forward pass's grouping of boolean masks
(`dp._mask_groups`) are checked against `np.unique(..., axis=0)`, on rows
of one 8-byte word and of several.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoi_sched.dp import (StateSpaceTooLarge, _mask_groups, _unique_rows, evaluate_policy,
                          solve_optimal)
from aoi_sched.model import EMPTY, FAULT_MODES, ModelParams, fresh_state, new_state
from aoi_sched.policies import OptimalPolicy, make_policy

from . import dict_solver
from .reference import stage_dicts

CAP = 4000
POLICIES = ("delta", "pi", "rr", "rr-strict")

probs = st.one_of(st.sampled_from([0.0, 1.0, 1e-300]), st.floats(0.0, 1.0))


@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    params = ModelParams(
        n,
        draw(st.integers(1, n + 2)),
        draw(probs),
        tuple(draw(probs) for _ in range(n)),
        draw(st.integers(1, 6)),
        draw(st.sampled_from(FAULT_MODES)),
    )
    if draw(st.booleans()):
        return params, fresh_state(n)
    h = [draw(st.integers(0, 5)) for _ in range(n)]
    g = [draw(st.one_of(st.just(EMPTY), st.integers(0, max(hn - 1, 0)))) if hn else EMPTY
         for hn in h]
    return params, new_state(g, h)


def same_tables(table, ref) -> None:
    stages = stage_dicts(table)
    assert len(stages) == len(ref)
    for t, (stage, want) in enumerate(zip(stages, ref), 1):
        assert len(stage) == len(want), t
        assert sorted(map(repr, stage)) == sorted(map(repr, want)), t
        for key, (value, action) in want.items():
            got, got_action = stage[key]
            assert type(got) is float and got.hex() == value.hex(), (t, key)
            assert got_action == action, (t, key)


def solved_or_error(solve, *args):
    try:
        return solve(*args, cap=CAP)
    except StateSpaceTooLarge as exc:
        return str(exc)


def check_instance(params, x0) -> None:
    opt = solved_or_error(solve_optimal, params, x0)
    ref = solved_or_error(dict_solver.solve_optimal, params, x0)
    if isinstance(ref, str):
        assert opt == ref
        return
    same_tables(opt, ref)
    assert opt.root_key == x0 and opt.root_value() == ref[0][x0][0]
    pols = [make_policy(name, params) for name in POLICIES] + [OptimalPolicy(opt)]
    for pol in pols:
        got = solved_or_error(evaluate_policy, pol, params, x0)
        want = solved_or_error(dict_solver.evaluate_policy, pol, params, x0)
        if isinstance(want, str):
            assert got == want, pol.name
        else:
            same_tables(got, want)


@given(instances())
def test_array_solver_matches_dict_reference(case):
    check_instance(*case)


def test_wide_rows_match_dict_reference():
    # 48 age columns: a mixed-radix code over per-source age ranges would
    # overflow int64 here, while p = q = 1 keeps the reachable set small
    check_instance(ModelParams(24, 1, 1.0, (1.0,) * 24, 4), fresh_state(24))


def test_ties_keep_enumerate_actions_order_across_holder_sets():
    # rows with other holder sets share one block per action; at p = 1 and
    # q in {0.5, 1} many actions tie exactly, and each row must still keep
    # the first of its own actions in enumerate_actions order
    check_instance(ModelParams(4, 2, 1.0, (0.5, 1.0, 0.5, 1.0), 3),
                   new_state((0, EMPTY, 1, 0), (3, 1, 4, 1)))


def test_masks_wider_than_a_word_match_dict_reference():
    # 70 sources: holder sets and picks too wide for one int64 code; q = 1
    # on all but two sources keeps the reachable set small
    check_instance(ModelParams(70, 1, 0.6, (0.5,) + (1.0,) * 68 + (0.5,), 3), fresh_state(70))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.bool_])
def test_unique_rows_match_numpy_unique(dtype):
    """The same partition of rows as np.unique(axis=0, return_inverse=True),
    and the returned rows exactly the distinct rows, each once, in the input
    dtype; at widths from one column to rows of more than two 8-byte words,
    with EMPTY, negative values and the dtype's extremes."""
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    for width in (1, 2, 3, 7, 8, 9, 16, 17, 25):
        if dtype is np.bool_:
            pool = rng.random((6, width)) < 0.5
        else:
            info = np.iinfo(dtype)
            values = np.array([EMPTY, -2, 0, 1, 2, 3, info.min, info.max], dtype)
            pool = values[rng.integers(len(values), size=(6, width))]
        pool[1] = pool[0]
        pool[2, -1] = ~pool[0, -1]  # differs from row 0 in the last column only
        for size in (0, 1, 2, 50):
            rows = pool[rng.integers(len(pool), size=size)]
            uniq, inv = _unique_rows(rows)
            ref, ref_inv = np.unique(rows, axis=0, return_inverse=True)
            assert uniq.dtype == rows.dtype and uniq.shape == ref.shape, (width, size)
            assert inv.shape == ref_inv.reshape(-1).shape == (size,)
            assert np.array_equal(uniq[inv], rows)
            assert set(map(tuple, uniq.tolist())) == set(map(tuple, ref.tolist()))
            assert len(set(zip(inv.tolist(), ref_inv.reshape(-1).tolist()))) == len(ref)


@pytest.mark.parametrize("width", [1, 2, 8, 9, 62, 63, 64, 65, 70])
def test_mask_groups_match_numpy_unique(width):
    """The same partition of rows as np.unique(axis=0), and each row's set
    the ascending tuple of its true columns; the order of the sets may
    differ."""
    rng = np.random.default_rng(width)
    pool = rng.random((6, width)) < rng.random((6, 1))  # densities vary by row
    pool[0] = False
    for size in (0, 1, 2, 50):
        for flags in (pool[rng.integers(len(pool), size=size)], np.zeros((size, width), bool)):
            sets, inv = _mask_groups(flags)
            _, ref = np.unique(flags, axis=0, return_inverse=True)
            assert inv.shape == ref.reshape(-1).shape == (size,)
            assert len(set(zip(inv.tolist(), ref.reshape(-1).tolist()))) == len(sets)
            assert len(set(sets)) == len(sets) == len(np.unique(ref))
            for row, i in zip(flags, inv.tolist()):
                assert sets[i] == tuple(np.flatnonzero(row).tolist())
