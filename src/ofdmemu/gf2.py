"""Dense GF(2) linear algebra on bit-packed rows.

Rows are stored as little-endian uint64 words so row XOR and
matrix-vector products run as word-wide operations; a 216x216 system
solves in tens of microseconds after a one-time factorization.

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
    row whose target bit is 1.
    """

    row: int


class Gf2Solver:
    """Factor-once / solve-many Gaussian elimination.

    Construction reduces the matrix to reduced row echelon form while
    mirroring every row operation on an identity matrix T, so each later
    solve costs one T*y product plus a scatter of pivot bits.  Free
    variables are fixed to zero, making solutions deterministic.
    """

    def __init__(self, matrix: Gf2Matrix):
        self.matrix = matrix
        self.rows = matrix.rows
        self.cols = matrix.cols
        tr = Gf2Matrix.identity(self.rows)
        self.pivot_cols = _eliminate(matrix.data.copy(), self.cols, tr.data)
        self.rank = int(self.pivot_cols.size)
        self._transform = tr
        # Scatter tables: pivot bit i of the transformed target lands in
        # solution word/bit position of pivot column i.
        self._pivot_word = (self.pivot_cols >> 6).astype(np.intp)
        self._pivot_shift = (self.pivot_cols & 63).astype(np.uint64)

    def solve(self, target: Gf2Vector | np.ndarray) -> Gf2Vector | Unsolvable:
        if not isinstance(target, Gf2Vector):
            target = Gf2Vector.from_bits(target)
        if target.length != self.rows:
            raise FramingError(f"target length {target.length} != rows {self.rows}")
        z = np.bitwise_count(self._transform.data & target.words[None, :]).sum(axis=1) & 1
        if self.rank < self.rows:
            bad = np.nonzero(z[self.rank :])[0]
            if bad.size:
                return Unsolvable(self.rank + int(bad[0]))
        x = Gf2Vector(self.cols)
        zp = z[: self.rank].astype(np.uint64)
        np.bitwise_or.at(x.words, self._pivot_word, zp << self._pivot_shift)
        return x

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
