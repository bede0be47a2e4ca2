"""Dense GF(2) linear algebra on bit-packed rows.

Rows are stored as little-endian uint64 words so row XOR and
matrix-vector products run as word-wide operations.  A factored system
solves a batch of targets in one table product: one 216x216 solve takes
tens of microseconds, and a batch of thousands about half a
microsecond per target.

One elimination, ``_eliminate``, serves all three uses: ``rank``,
``Gf2Solver``'s factorization, and ``left_null``, which returns the
rank together with a basis of the left null space.  The certification
climb uses the latter to rate deleting any row set R of a matrix M from
one elimination: rank(M without R) = rank(M) - |R| + rank(N[:, R]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FramingError

__all__ = ["Gf2Matrix", "Gf2Vector", "Unsolvable", "Gf2Solver", "rank", "left_null"]


def _word_count(bits: int) -> int:
    return (bits + 63) // 64


class Gf2Vector:
    """A fixed-length bit vector packed into uint64 words."""

    __slots__ = ("length", "words")

    def __init__(self, length: int, words: np.ndarray | None = None):
        self.length = int(length)
        if words is None:
            self.words = np.zeros(_word_count(length), dtype=np.uint64)
        else:
            self.words = np.asarray(words, dtype=np.uint64).copy()

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "Gf2Vector":
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        nwords = _word_count(bits.size)
        padded = np.zeros(nwords * 64, dtype=np.uint8)
        padded[: bits.size] = bits & 1
        words = np.packbits(padded, bitorder="little").view("<u8")
        return cls(bits.size, words)

    def to_bits(self) -> np.ndarray:
        raw = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return raw[: self.length].astype(np.uint8)

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.length != other.length:
            raise FramingError("vector length mismatch")
        return Gf2Vector(self.length, self.words ^ other.words)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Vector)
            and self.length == other.length
            and bool(np.array_equal(self.words, other.words))
        )

    def __repr__(self) -> str:
        return f"Gf2Vector({''.join(map(str, self.to_bits()))})"


class Gf2Matrix:
    """A rows x cols matrix over GF(2) with bit-packed rows."""

    __slots__ = ("rows", "cols", "words", "data")

    def __init__(self, rows: int, cols: int, data: np.ndarray | None = None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.words = _word_count(cols)
        if data is None:
            self.data = np.zeros((self.rows, self.words), dtype=np.uint64)
        else:
            data = np.asarray(data, dtype=np.uint64)
            if data.shape != (self.rows, self.words):
                raise FramingError(f"expected packed shape {(self.rows, self.words)}")
            self.data = data.copy()

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "Gf2Matrix":
        arr = np.asarray(arr, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise FramingError("dense input must be 2-D")
        rows, cols = arr.shape
        nwords = _word_count(cols)
        padded = np.zeros((rows, nwords * 64), dtype=np.uint8)
        padded[:, :cols] = arr
        data = np.packbits(padded, axis=1, bitorder="little").view("<u8")
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        m = cls(n, n)
        i = np.arange(n)
        m.data[i, i >> 6] = np.uint64(1) << (i & 63).astype(np.uint64)
        return m

    def to_dense(self) -> np.ndarray:
        raw = np.unpackbits(self.data.view(np.uint8), axis=1, bitorder="little")
        return raw[:, : self.cols].astype(np.uint8)

    def take_rows(self, indices) -> "Gf2Matrix":
        indices = np.asarray(indices, dtype=np.intp)
        return Gf2Matrix(indices.size, self.cols, self.data[indices])

    def matvec(self, v: Gf2Vector) -> Gf2Vector:
        """Row-parity product: out[i] = parity(row_i AND v)."""
        if v.length != self.cols:
            raise FramingError(f"vector length {v.length} != cols {self.cols}")
        bits = (np.bitwise_count(self.data & v.words[None, :]).sum(axis=1) & 1).astype(np.uint8)
        return Gf2Vector.from_bits(bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class Unsolvable:
    """Returned (not raised) when a system has no solution.

    ``row`` is the index, in the eliminated row order, of the first zero
    row whose target bit is 1.  ``index`` is the position of the first
    unsolvable target in a ``solve_many`` batch (0 for ``solve``).
    """

    row: int
    index: int = 0


# targets per solve_many product: bounds its temporaries at about 2 MB
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

    def __init__(self, matrix: Gf2Matrix):
        self.matrix = matrix
        self.rows = matrix.rows
        self.cols = matrix.cols
        tr = Gf2Matrix.identity(self.rows)
        self.pivot_cols = _eliminate(matrix.data.copy(), self.cols, tr.data)
        self.rank = int(self.pivot_cols.size)
        self._transform = tr
        # target bit j maps to row j of [S^T | T's rows past the rank]
        t = tr.to_dense()
        groups = 2 * ((self.rows + 7) // 8)  # 4-bit groups of the packed target
        maps = np.zeros((4 * groups, self.cols + self.rows - self.rank), dtype=np.uint8)
        maps[: self.rows, self.pivot_cols] = t[: self.rank].T
        maps[: self.rows, self.cols :] = t[self.rank :].T
        # Method of Four Russians: _table[16g + v] is the XOR of the map
        # rows that the set bits of value v in target bits 4g..4g+3 select
        per_group = Gf2Matrix.from_dense(maps).data.reshape(groups, 4, -1)
        table = np.zeros((groups, 16, per_group.shape[2]), dtype=np.uint64)
        for b in range(4):
            table[:, 1 << b : 2 << b] = table[:, : 1 << b] ^ per_group[:, b, None]
        self._table = table.reshape(16 * groups, -1)
        self._group_base = (np.arange(groups) * 16)[:, None]

    def solve(self, target: Gf2Vector | np.ndarray) -> Gf2Vector | Unsolvable:
        """One target: ``solve_many`` on a one-row batch."""
        if isinstance(target, Gf2Vector):
            target = target.to_bits()
        x = self.solve_many(np.asarray(target).reshape(1, -1))
        return x if isinstance(x, Unsolvable) else Gf2Vector.from_bits(x[0])

    def solve_many(self, targets: np.ndarray) -> np.ndarray | Unsolvable:
        """Solve for every row of an (n, rows) 0/1 target stack.

        Returns the (n, cols) uint8 solutions, or the ``Unsolvable`` of
        the first target that has none.  Each target's product is the
        XOR of one table row per 4 target bits, exact at any size.  (A
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
            index = np.empty((2 * packed.shape[0], packed.shape[1]), dtype=np.intp)
            index[0::2] = packed & 15
            index[1::2] = packed >> 4
            index += self._group_base
            words = np.bitwise_xor.reduce(np.take(self._table, index, axis=0), axis=0)
            bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
            bad = bits[:, self.cols : self.cols + self.rows - self.rank]
            if bad.any():
                i, j = np.argwhere(bad)[0]
                return Unsolvable(self.rank + int(j), lo + int(i))
            out[lo : lo + packed.shape[1]] = bits[:, : self.cols]
        return out

    def certify_unsolvable(self, cert: "Unsolvable", target: Gf2Vector | np.ndarray) -> bool:
        """Check the left-null-vector proof behind an Unsolvable result.

        The certificate names an eliminated row r; with u the r-th row of
        the accumulated transform, unsolvability means u*A = 0 while
        u*target = 1.  Both products are recomputed against the original
        matrix here, so a buggy elimination cannot certify itself.
        """
        if not isinstance(target, Gf2Vector):
            target = Gf2Vector.from_bits(target)
        u = self._transform.data[cert.row]
        acc = np.zeros(self.matrix.data.shape[1], dtype=np.uint64)
        for i in range(self.rows):
            if (u[i >> 6] >> np.uint64(i & 63)) & np.uint64(1):
                acc ^= self.matrix.data[i]
        if np.any(acc):
            return False
        dot = int(np.bitwise_count(u & target.words).sum() & 1)
        return dot == 1


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


def rank(matrix: Gf2Matrix) -> int:
    """Rank by elimination on a scratch copy."""
    return int(_eliminate(matrix.data.copy(), matrix.cols).size)


def left_null(matrix: Gf2Matrix) -> tuple[int, Gf2Matrix]:
    """Rank and a basis N of the left null space (N*matrix = 0).

    One elimination on a scratch copy: the transform rows past the rank
    map the original rows onto the zero rows of the echelon form.
    """
    tr = Gf2Matrix.identity(matrix.rows)
    r = int(_eliminate(matrix.data.copy(), matrix.cols, tr.data).size)
    return r, tr.take_rows(np.arange(r, matrix.rows))
