"""Dense GF(2) linear algebra on 0/1 arrays.

Matrices, targets and solutions go in and come out as uint8 0/1
arrays.  Inside, rows are packed into little-endian uint64 words so row
XOR runs as word-wide operations.  A factored system solves a batch of
targets in one table product: one 216x216 solve takes tens of
microseconds, and a batch of thousands about half a microsecond per
target.

One elimination, ``_eliminate``, serves all three uses: ``rank``,
``Gf2Solver``'s factorization, and ``stacked_left_null``, which returns
the rank and a basis of the left null space of a base matrix stacked
with each block of a stack.  It eliminates the base once and then takes
each block as a one-block update of that elimination.  The certification
climb uses it to rate deleting any row set R of a matrix M:
rank(M without R) = rank(M) - |R| + rank(N[:, R]), with N M's left null
basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FramingError

__all__ = ["Unsolvable", "Gf2Solver", "rank", "stacked_left_null"]


def _matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2:
        raise FramingError(f"GF(2) matrix of shape {a.shape}, expected 2-D")
    return a


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 bits as uint64 words: bit c at bit c % 64 of word c // 64."""
    rows, cols = bits.shape
    padded = np.zeros((rows, -(-cols // 64) * 64), dtype=np.uint8)
    np.bitwise_and(bits, 1, out=padded[:, :cols])
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _unpack(words: np.ndarray, cols: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :cols]


def _identity(n: int) -> np.ndarray:
    """The n x n identity, packed."""
    i = np.arange(n)
    out = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    out[i, i >> 6] = np.uint64(1) << (i & 63).astype(np.uint64)
    return out


@dataclass(frozen=True)
class Unsolvable:
    """Returned (not raised) when a system has no solution.

    ``row`` is the index, in the eliminated row order, of the first zero
    row whose target bit is 1.  ``index`` is the position of the first
    unsolvable target in a ``solve_many`` batch (0 for ``solve``).
    """

    row: int
    index: int = 0


# targets per solve_many product: bounds its temporaries at about 1 MB
# for the PHY's systems, whatever the batch size
_CHUNK = 1024


class Gf2Solver:
    """Factor-once / solve-many Gaussian elimination.

    Construction reduces the matrix to reduced row echelon form while
    mirroring every row operation on an identity matrix T.  With free
    variables fixed to zero, a solution is then linear in the target:
    x = S*y, where S scatters row i of T to pivot column i, and the rows
    of T past the rank flag unsolvable targets.  Both maps are kept as
    one product table, so a batch of targets solves in one product.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = _matrix(matrix) & 1
        self.rows, self.cols = self.matrix.shape
        tr = _identity(self.rows)
        self.pivot_cols = _eliminate(_pack(self.matrix), self.cols, tr)
        self.rank = int(self.pivot_cols.size)
        self._transform = t = _unpack(tr, self.rows)
        # target bit j maps to row j of [S^T | T's rows past the rank]
        groups = (self.rows + 7) // 8  # bytes of the packed target
        maps = np.zeros((8 * groups, self.cols + self.rows - self.rank), dtype=np.uint8)
        maps[: self.rows, self.pivot_cols] = t[: self.rank].T
        maps[: self.rows, self.cols :] = t[self.rank :].T
        # Method of Four Russians: _table[256g + v] is the XOR of the map
        # rows that the set bits of value v in target bits 8g..8g+7 select
        per_group = _pack(maps).reshape(groups, 8, -1)
        table = np.zeros((groups, 256, per_group.shape[2]), dtype=np.uint64)
        for b in range(8):
            table[:, 1 << b : 2 << b] = table[:, : 1 << b] ^ per_group[:, b, None]
        self._table = table.reshape(256 * groups, -1)
        self._group_base = (np.arange(groups) * 256)[:, None]

    def solve(self, target: np.ndarray) -> np.ndarray | Unsolvable:
        """One target: ``solve_many`` on a one-row batch."""
        x = self.solve_many(np.asarray(target).reshape(1, -1))
        return x if isinstance(x, Unsolvable) else x[0]

    def solve_many(self, targets: np.ndarray) -> np.ndarray | Unsolvable:
        """Solve for every row of an (n, rows) 0/1 target stack.

        Returns the (n, cols) uint8 solutions, or the ``Unsolvable`` of
        the first target that has none.  Each target's product is the
        XOR of one table row per target byte, exact at any size.  (A
        float32 BLAS product is exact too while its sums of at most
        ``rows`` ones stay below 2^24, which holds for the PHY's systems
        of at most 288 rows; it ran slower, and its pack buffers raised
        peak memory.)  Targets go through ``_CHUNK`` at a time.
        """
        targets = np.asarray(targets, dtype=np.uint8)
        if targets.ndim != 2 or targets.shape[1] != self.rows:
            raise FramingError(f"targets of shape {targets.shape}, expected (n, {self.rows})")
        out = np.empty((targets.shape[0], self.cols), dtype=np.uint8)
        for lo in range(0, targets.shape[0], _CHUNK):
            packed = np.packbits(targets[lo : lo + _CHUNK] & 1, axis=1, bitorder="little").T
            index = packed + self._group_base
            words = np.bitwise_xor.reduce(np.take(self._table, index, axis=0), axis=0)
            bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
            bad = bits[:, self.cols : self.cols + self.rows - self.rank]
            if bad.any():
                i, j = np.argwhere(bad)[0]
                return Unsolvable(self.rank + int(j), lo + int(i))
            out[lo : lo + packed.shape[1]] = bits[:, : self.cols]
        return out

    def certify_unsolvable(self, cert: "Unsolvable", target: np.ndarray) -> bool:
        """Check the left-null-vector proof behind an Unsolvable result.

        The certificate names an eliminated row r; with u the r-th row of
        the accumulated transform, unsolvability means u*A = 0 while
        u*target = 1.  Both products are recomputed against the original
        matrix here, so a buggy elimination cannot certify itself.
        """
        target = np.asarray(target, dtype=np.uint8).ravel()
        if target.size != self.rows:
            raise FramingError(f"target of {target.size} bits, expected {self.rows}")
        u = self._transform[cert.row]
        # uint8 products wrap modulo 256, which keeps their parity
        return not ((u @ self.matrix) & 1).any() and bool((u @ (target & 1)) & 1)


def _eliminate(data: np.ndarray, cols: int, transform: np.ndarray | None = None) -> np.ndarray:
    """Reduce packed rows to reduced row echelon form, in place.

    The pivot of column c is the first remaining row with bit c set; it
    swaps into place and is XORed into every other row holding bit c.
    ``transform``, if given, receives the same swaps and XORs.  Returns
    the pivot columns, one per nonzero row of the result.
    """
    rows = data.shape[0]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r >= rows:
            break
        col = (data[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)
        cand = np.flatnonzero(col[r:])
        if cand.size == 0:
            continue
        p = r + int(cand[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
            if transform is not None:
                transform[[r, p]] = transform[[p, r]]
        # col predates the swap: clearing col[p] skips the pivot row and
        # matches row p, which now holds the old row r (bit c clear)
        col[p] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            data[hit] ^= data[r]
            if transform is not None:
                transform[hit] ^= transform[r]
        pivots.append(c)
    return np.asarray(pivots, dtype=np.intp)


def rank(matrix: np.ndarray) -> int:
    """Rank of a 2-D 0/1 array."""
    a = _matrix(matrix)
    return int(_eliminate(_pack(a), a.shape[1]).size)


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
