from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmemu import gf2
from ofdmemu.errors import FramingError
from ofdmemu.gf2 import (
    Gf2Solver, Unsolvable, _eliminate, _identity, _pack, _unpack, rank, stacked_left_null,
)


def dense_rank(a):
    """Gauss-Jordan rank on a dense 0/1 array, one row at a time."""
    a = a.copy() % 2
    r = 0
    for c in range(a.shape[1]):
        piv = np.nonzero(a[r:, c])[0]
        if piv.size == 0:
            continue
        p = r + piv[0]
        a[[r, p]] = a[[p, r]]
        hits = np.nonzero(a[:, c])[0]
        for h in hits:
            if h != r:
                a[h] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def test_pack_roundtrip(rng):
    for rows, cols in [(3, 1), (5, 64), (2, 131)]:
        bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        words = _pack(bits)
        assert words.shape == (rows, -(-cols // 64)) and words.dtype == np.uint64
        assert np.array_equal(_unpack(words, cols), bits)


def test_rank_matches_numpy_gauss(rng):
    for rows, cols in [(10, 10), (20, 35), (40, 25), (64, 64)]:
        bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        assert rank(bits) == dense_rank(bits)


def test_solver_recovers_known_solution(rng):
    bits = rng.integers(0, 2, (48, 48), dtype=np.uint8)
    solver = Gf2Solver(bits)
    for _ in range(20):
        x = rng.integers(0, 2, 48, dtype=np.uint8)
        y = bits @ x % 2
        got = solver.solve(y)
        assert not isinstance(got, Unsolvable)
        # any solution must reproduce the target exactly
        assert np.array_equal(bits @ got % 2, y)


def test_solver_unsolvable_certificate(rng):
    # duplicate rows with differing targets force inconsistency
    bits = rng.integers(0, 2, (30, 20), dtype=np.uint8)
    bits[29] = bits[0]
    solver = Gf2Solver(bits)
    x = rng.integers(0, 2, 20, dtype=np.uint8)
    y = bits @ x % 2
    y[29] ^= 1  # contradict the duplicated row
    res = solver.solve(y)
    assert isinstance(res, Unsolvable)
    assert solver.certify_unsolvable(res, y)
    # and the certificate rejects a solvable target
    ok = solver.solve(bits @ x % 2)
    assert not isinstance(ok, Unsolvable)


def test_solver_rejects_bad_target_length(rng):
    solver = Gf2Solver(rng.integers(0, 2, (16, 16), dtype=np.uint8))
    with pytest.raises(FramingError):
        solver.solve(np.zeros(17, dtype=np.uint8))
    for shape in [(3, 17), (3, 15), (16,), (1, 2, 16)]:
        with pytest.raises(FramingError):
            solver.solve_many(np.zeros(shape, dtype=np.uint8))
    # a certificate is checked only against a target of the system's length
    bits = rng.integers(0, 2, (70, 20), dtype=np.uint8)
    bits[69] = bits[0]
    y = np.zeros(70, dtype=np.uint8)
    y[69] = 1
    tall = Gf2Solver(bits)
    cert = tall.solve(y)
    assert isinstance(cert, Unsolvable) and tall.certify_unsolvable(cert, y)
    for size in (60, 69, 71, 140):
        with pytest.raises(FramingError):
            tall.certify_unsolvable(cert, np.resize(y, size))


@pytest.mark.parametrize("shape", [(16,), (), (2, 4, 4)])
def test_matrix_inputs_must_be_2d(shape):
    a = np.ones(shape, dtype=np.uint8)
    no_blocks = np.zeros((0, 1, 4), dtype=np.uint8)
    for fn in (Gf2Solver, rank, lambda base: stacked_left_null(base, no_blocks)):
        with pytest.raises(FramingError):
            fn(a)


@pytest.mark.parametrize("shape", [(4,), (2, 4), (1, 2, 5), (1, 1, 1, 4)])
def test_stacked_blocks_must_match_base(shape):
    with pytest.raises(FramingError):
        stacked_left_null(np.ones((3, 4), dtype=np.uint8), np.zeros(shape, dtype=np.uint8))


def test_free_variables_fixed_to_zero(rng):
    # wide system: cols beyond the pivots stay zero, so solves repeat exactly
    bits = rng.integers(0, 2, (10, 30), dtype=np.uint8)
    solver = Gf2Solver(bits)
    y = bits @ rng.integers(0, 2, 30, dtype=np.uint8) % 2
    a = solver.solve(y)
    b = solver.solve(y)
    assert np.array_equal(a, b)
    pivot_set = set(int(c) for c in solver.pivot_cols)
    for c in range(30):
        if c not in pivot_set:
            assert a[c] == 0


# One elimination serves rank and the solver.  Systems are tall, wide or
# square, with copied rows to make them rank-deficient; sizes cross the
# 64-bit word boundary.

@settings(max_examples=400, deadline=None)
@given(
    rows=st.integers(1, 90),
    cols=st.integers(1, 90),
    copies=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_elimination_property(rows, cols, copies, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    for _ in range(copies):
        bits[rng.integers(rows)] = bits[rng.integers(rows)]
    want = dense_rank(bits)

    reduced = _pack(bits)
    transform = _identity(rows)
    pivots = _eliminate(reduced, cols, transform)
    red = _unpack(reduced, cols)
    # reduced row echelon form, reached by the recorded row operations
    assert pivots.size == want
    assert np.all(np.diff(pivots) > 0)
    assert np.array_equal(red[:, pivots], np.eye(rows, want, dtype=np.uint8))
    assert not red[want:].any()
    for i, c in enumerate(pivots):
        assert not red[i, :c].any()
    assert np.array_equal(_unpack(transform, rows).astype(int) @ bits % 2, red)

    solver = Gf2Solver(bits)
    assert rank(bits) == solver.rank == want
    solvable = bits.astype(int) @ rng.integers(0, 2, cols) % 2
    for y in (solvable, rng.integers(0, 2, rows)):
        got = solver.solve(y)
        if isinstance(got, Unsolvable):
            assert y is not solvable
            assert solver.certify_unsolvable(got, y)
        else:
            assert np.array_equal(bits.astype(int) @ got % 2, y)


# The certification climb rates a deleted row set R of M as rank(M) -
# |R| + rank(N[:, R]), with N the left null basis of M = [base; block]
# from one stacked update.

@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(0, 90),
    k=st.integers(1, 8),
    cols=st.integers(1, 90),
    copies=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_deletion_rank_property(rows, k, cols, copies, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (rows + k, cols), dtype=np.uint8)
    for _ in range(copies):
        bits[rng.integers(rows + k)] = bits[rng.integers(rows + k)]

    _, [(r, null)] = stacked_left_null(bits[:rows], bits[None, rows:])
    assert r == rank(bits)
    assert null.shape == (rows + k - r, rows + k)
    assert not (null.astype(int) @ bits % 2).any()
    assert rank(null) == rows + k - r

    for _ in range(4):
        drop = rng.random(rows + k) < rng.random()
        want = rank(bits[~drop])
        assert r - int(drop.sum()) + rank(null[:, drop]) == want


# One elimination of the base serves every block of the stack.  Bases
# are tall, wide or rank-deficient (copied rows), and blocks may copy
# base rows or be all zero; sizes cross the 64-bit word boundary.

@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(0, 90),
    cols=st.integers(1, 90),
    q=st.integers(0, 6),
    k=st.integers(0, 8),
    copies=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_left_null_property(rows, cols, q, k, copies, seed):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    blocks = rng.integers(0, 2, (q, k, cols), dtype=np.uint8)
    if rows:
        for _ in range(copies):
            base[rng.integers(rows)] = base[rng.integers(rows)]
        for block in blocks[: q // 2]:
            picked = rng.random(k) < 0.5
            block[picked] = base[rng.integers(rows, size=int(picked.sum()))]
    if q:
        blocks[-1] = 0

    r, stacked = stacked_left_null(base, blocks)
    assert r == dense_rank(base)
    assert len(stacked) == q
    for block, (r_m, null) in zip(blocks, stacked):
        m = np.vstack([base, block])
        assert r_m == dense_rank(m)
        assert null.shape == (rows + k - r_m, rows + k) and null.dtype == np.uint8
        assert not (null.astype(int) @ m % 2).any()
        assert rank(null) == rows + k - r_m


# solve_many is solve over a stack, on tall, wide and row-copied systems,
# with chunks small enough that batches cross them.  A batch holding an
# unsolvable target reports the first one as solve reports it.

@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 90),
    cols=st.integers(1, 90),
    copies=st.integers(0, 4),
    n=st.integers(0, 12),
    chunk=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_many_matches_solve(rows, cols, copies, n, chunk, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    for _ in range(copies):
        bits[rng.integers(rows)] = bits[rng.integers(rows)]
    solver = Gf2Solver(bits)
    solvable = rng.integers(0, 2, (n, cols)) @ bits.T % 2
    mixed = solvable.copy()
    pick = rng.random(n) < 0.3
    mixed[pick] = rng.integers(0, 2, (int(pick.sum()), rows))

    with mock.patch.object(gf2, "_CHUNK", chunk):
        got = solver.solve_many(solvable)
        assert got.shape == (n, cols) and got.dtype == np.uint8
        for y, x in zip(solvable, got):
            assert np.array_equal(x, solver.solve(y))

        singles = [solver.solve(y) for y in mixed]
        bad = [i for i, r in enumerate(singles) if isinstance(r, Unsolvable)]
        res = solver.solve_many(mixed)
        if bad:
            assert res == Unsolvable(singles[bad[0]].row, bad[0])
            assert solver.certify_unsolvable(res, mixed[bad[0]])
        else:
            assert np.array_equal(res, np.reshape(singles, (n, cols)))
