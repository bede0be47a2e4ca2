"""The search behind ``inversion._CERTIFIED``.

Set-up only looks certified selections up.  This module is the search
that derived them: from a starting subset, a deterministic
first-improvement hill climb over single-subcarrier swaps
(``climb_to_full_rank``) and, if it stalls short of full row rank,
seeded random restarts (``search``).  ``tests/test_inversion.py``
re-derives every table entry with it and checks the climb against
``oracles.climb_reference``.  After a change to the coded-bit map, the
fresh entries that test prints go into ``inversion._CERTIFIED``.

``stacked_left_null`` returns the rank and a basis of the left null
space of a base matrix stacked with each block of a stack.  It
eliminates the base once and then takes each block as a one-block
update of that elimination.  The climb uses it to rate deleting any row
set R of a matrix M: rank(M without R) = rank(M) - |R| + rank(N[:, R]),
with N M's left null basis.
"""

import numpy as np

from ofdmemu.errors import FramingError, SelectionError
from ofdmemu.gf2 import _eliminate, _identity, _matrix, _pack, _unpack
from ofdmemu.inversion import SymbolSystem, _by_logical, _selection_rows


def stacked_left_null(
    base: np.ndarray, blocks: np.ndarray
) -> tuple[int, list[tuple[int, np.ndarray]]]:
    """Rank of ``base`` and, for each block of a (q, k, cols) stack, the
    rank of M = [base; block] and a basis N of its left null space
    (N*M = 0), as a (rows + k - rank(M), rows + k) 0/1 array.

    ``base`` is eliminated once, to reduced echelon rows E = T*base of
    rank r with pivot columns P.  A block c then reduces against E in
    one product, c' = c + a*E[:r] with a = c[:, P].  c' is zero on P, so
    only its k x (cols - r) free part is eliminated, and rank(M) = r +
    rank(c').  M's left null space is spanned by T's rows past r padded
    with k zeros, and by (w*a*T[:r], w) for each w in c''s left null
    basis, since w*a*T[:r]*base + w*c = w*c' = 0.
    """
    base = _matrix(base)
    rows, cols = base.shape
    blocks = np.asarray(blocks, dtype=np.uint8) & 1
    if blocks.ndim != 3 or blocks.shape[2] != cols:
        raise FramingError(f"blocks of shape {blocks.shape}, expected (q, k, {cols})")
    q, k = blocks.shape[:2]
    reduced, tr = _pack(base), _identity(rows)
    pivots = _eliminate(reduced, cols, tr)
    r = int(pivots.size)
    t = _unpack(tr, rows)
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    # one float32 product gives a*E[:r] on the free columns and a*T[:r]
    # for every block row, exact while its sums of at most r ones stay
    # below 2^24; at the default PHY's shapes a packed Four Russians
    # product took 3.5x as long
    maps = np.hstack([_unpack(reduced[:r], cols)[:, free], t[:r]]).astype(np.float32)
    coef = blocks[:, :, pivots].reshape(q * k, r).astype(np.float32)
    prod = ((coef @ maps).astype(np.int64) & 1).astype(np.uint8)
    prod = prod.reshape(q, k, cols - r + rows)
    reduced_free = blocks[:, :, free] ^ prod[:, :, : cols - r]
    out = []
    for c_free, a_t in zip(reduced_free, prod[:, :, cols - r :]):
        tk = _identity(k)
        rank_c = int(_eliminate(_pack(c_free), cols - r, tk).size)
        w = _unpack(tk[rank_c:], k)
        null = np.zeros((rows - r + k - rank_c, rows + k), dtype=np.uint8)
        null[: rows - r, :rows] = t[r:]
        # uint8 products wrap modulo 256, which keeps their parity
        null[rows - r :, :rows] = (w @ a_t) & 1
        null[rows - r :, rows:] = w
        out.append((r + rank_c, null))
    return r, out


def climb_to_full_rank(
    sys: SymbolSystem, chosen: list[int], target: int
) -> tuple[list[int], list[tuple[int, int]], int]:
    """First-improvement hill climb on selection rank.  Deterministic.

    Trial swaps run positions outer, candidates inner, and the first one
    that raises the rank wins.  Each pass eliminates the selection once
    and stacks each candidate onto it as a one-block update
    (``stacked_left_null``), which gives the pass's own rank and, per
    candidate, the rank and left null basis N of M = [selection;
    candidate].  Dropping block i of the selection leaves rank(M) -
    n_bpsc + rank(N[:, block i]), so one update rates the candidate at
    every position.  A block's rank is n_bpsc - log2 of its kernel,
    counted over all 2^n_bpsc column combinations in one product.
    """
    nb = sys.cfg.n_bpsc
    combos = (np.arange(1 << nb) >> np.arange(nb)[:, None]) & 1  # (nb, 2^nb)
    swaps: list[tuple[int, int]] = []
    while True:
        sel = _selection_rows(sys, tuple(chosen))
        others = [u for u in sys.cfg.data_subcarriers if u not in chosen]
        candidates = sys.matrix[_selection_rows(sys, tuple(others))]
        r, stacked = stacked_left_null(
            sys.matrix[sel], candidates.reshape(len(others), nb, sys.beta)
        )
        if r >= target:
            return chosen, swaps, r
        trial = np.empty((len(chosen), len(others)), dtype=np.intp)
        for j, (r_m, null) in enumerate(stacked):
            blocks = null[:, : sel.size].reshape(null.shape[0], len(chosen), nb)
            kernel = np.all(((blocks @ combos) & 1) == 0, axis=0).sum(axis=1)
            # rank(M) - nb + (nb - log2 |kernel|), for every position at once
            trial[:, j] = r_m - np.log2(kernel).astype(np.intp)
        better = np.argwhere(trial > r)
        if better.size == 0:
            return chosen, swaps, r
        i, j = better[0]
        swaps.append((chosen[i], others[j]))
        chosen = list(chosen)
        chosen[i] = others[j]
        if trial[i, j] >= target:
            return chosen, swaps, int(trial[i, j])


# seeded random restarts after the climb from the given selection stalls
RESTARTS = 8


def search(
    sys: SymbolSystem, chosen: tuple[int, ...]
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Climb from ``chosen`` to full row rank, then from seeded restarts.

    Returns the selection sorted by logical index and the swaps that
    turn ``chosen`` into it: its left-out bins and its new bins, each in
    ascending bin order, paired up.  These swaps are what
    ``inversion._CERTIFIED`` stores.
    """
    target = len(chosen) * sys.cfg.n_bpsc
    fixed, swaps, r = climb_to_full_rank(sys, list(chosen), target)
    restart = 0
    while r < target and restart < RESTARTS:
        rng = np.random.default_rng(restart)
        start = sorted(
            rng.choice(np.asarray(sys.cfg.data_subcarriers), len(chosen), replace=False).tolist()
        )
        fixed, _, r = climb_to_full_rank(sys, start, target)
        restart += 1
    if r < target:
        raise SelectionError(f"no subcarrier swap reaches full rank (stuck at {r}/{target})")
    final = _by_logical(fixed)
    original = set(chosen)
    swaps = [(b, a) for b, a in zip(sorted(original - set(final)), sorted(set(final) - original))]
    return final, swaps
