"""Exact rational linear algebra.

Exact results are pairs (A, den): an integer array A and a positive common
denominator, standing for A / den.  One overflow rule, `_pair`, picks every
integer dtype: int64 while a sum of k products of two arrays' entries is
exact, else Python ints (`dtype=object`); `_matmul` is a @ b under it, and
`_fit` (an array paired with itself) stores what leaves the module.  Every
elimination is fraction-free, so nothing is ever rounded.  `SpanSolver`
keeps every row in Python ints from its first reduction on; only what it
hands out (coefficient vectors, echelon rows) is fitted back to int64.
`rank` takes a 2-D array-like of integers or rationals (or a `Matrix`)
and clears it once.  Coefficient vectors are (A, den) pairs.  No exact
kernel is computed here: the pipeline reads each isotropy dimension from a
rank by rank-nullity, and the exceptional algebras are written down.
`full_rank_mod_p` asks whether an integer r x c matrix has column rank c
modulo the prime P = 2**31 - 1, by one int64 elimination with no random
choice in it: a True proves full rank over Q, and exact `rank` decides the
rest.  `Matrix`, a small Fraction matrix, and `Jet2`, a second-order jet
over whatever ring its components come from, are kept for callers outside
the pipeline.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction as Q
from typing import Sequence

import numpy as np

__all__ = [
    "Q",
    "Matrix",
    "Jet2",
    "DetRng",
    "SpanSolver",
    "DimensionMismatchError",
    "rank",
    "full_rank_mod_p",
]

# The one overflow bound, read only in `_pair`: max|a| * max|b| * k < _GUARD.
_GUARD = 1 << 62
# A prime with P * P < 2**62: a difference of two products of residues mod P
# is exact in int64.
P = (1 << 31) - 1


class DimensionMismatchError(ValueError):
    """Raised when vector or matrix shapes do not line up."""


def _as_q(x) -> Q:
    return x if isinstance(x, Q) else Q(x)


def _top(x: np.ndarray) -> int:
    """max|x| as max(max x, -min x), at least 1: no copy, and no np.abs(-2**63)."""
    return max(1, int(x.max(initial=0)), -int(x.min(initial=0)))


def _pair(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer arrays a and b, both int64 when max|a| * max|b| * k < 2**62
    (max|x| is `_top`), else both Python ints, so that a sum of k products
    of their entries is exact; each fits on its own when int64 is picked."""
    top = [_top(x) for x in ((a,) if b is a else (a, b))]
    dtype = np.int64 if top[0] * top[-1] * k < _GUARD else object
    return a.astype(dtype, copy=False), b.astype(dtype, copy=False)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b exactly: both operands as `_pair` picks them for k = a.shape[-1]."""
    return np.matmul(*_pair(a, b, a.shape[-1]))


def _fit(a: np.ndarray) -> np.ndarray:
    """a as int64 when max|a|^2 * max(a.shape) < 2**62, else as Python ints:
    `_pair` of a with itself, the storage rule for arrays that leave
    `linalg`.  A product of two such arrays contracted over an axis they
    share, or the difference of two such products, is then exact."""
    return _pair(a, a, max(a.shape, default=1))[0]


def _mod_p(a: np.ndarray) -> np.ndarray:
    """The residues of an integer array mod P, as int64 in [0, P)."""
    return (a % P).astype(np.int64, copy=False)


def _int_array(values) -> tuple[np.ndarray, int]:
    """(A, den) with A / den == values exactly and A an integer array.

    values is an array-like of rationals or integers, anything else is a
    TypeError; A's dtype follows `_fit`.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "iuO":
        # numpy stores Python ints at or above 2**63 as float64
        a = np.array(values, dtype=object)
    den = 1
    if a.dtype == object:
        flat = a.ravel()
        try:
            den = math.lcm(*(x.denominator for x in flat))
        except AttributeError:
            raise TypeError("exact integer or rational input required") from None
        a = np.array(
            [x.numerator * (den // x.denominator) for x in flat], dtype=object
        ).reshape(a.shape)
    return _fit(a), den


def _combine(r: np.ndarray, a: int, p: np.ndarray, b: int) -> np.ndarray:
    """gcd-reduced a*r - b*p of two rows of Python ints."""
    out = a * r - b * p
    g = math.gcd(*out)
    return out // g if g > 1 else out


class SpanSolver:
    """Incremental exact row space with membership and coefficient queries.

    Vectors are cleared to integers on insertion, and every row is an array
    of Python ints (dtype=object) from then on.  Augmented tail columns
    record how each echelon row decomposes over the inserted vectors, and a
    final scratch column plays the same role for the vector currently being
    reduced: a row is sum_j tail_j * inserted_j + scratch * vec.  Every row
    operation therefore scales the whole bookkeeping uniformly and gcd
    normalization stays valid.
    """

    def __init__(self, ncols: int, track: int = 0):
        self.ncols = ncols
        self.track = track
        self._rows: list[np.ndarray] = []  # echelon rows, scratch column always 0
        self._pivots: list[int] = []  # pivot column per row, strictly increasing
        self._inserted = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduced(self, vec: Sequence, slot: int | None) -> np.ndarray:
        """vec cleared by its denominator den, den in tail column slot, reduced."""
        if len(vec) != self.ncols:
            raise DimensionMismatchError(f"expected {self.ncols} entries, got {len(vec)}")
        ints, den = _int_array(vec)
        tail = np.zeros(self.track + 1, dtype=object)
        if slot is not None:
            tail[slot] = den
        work = np.concatenate((ints, tail), dtype=object)
        for prow, c in zip(self._rows, self._pivots):
            b = work[c]
            if b:
                work = _combine(work, prow[c], prow, b)
        return work

    def insert(self, vec: Sequence) -> bool:
        """Add a vector; True if it enlarged the span."""
        slot = self._inserted
        if self.track and slot >= self.track:
            raise ValueError("SpanSolver coefficient capacity exceeded")
        work = self._reduced(vec, slot if self.track else None)
        self._inserted += 1
        nz = np.flatnonzero(work[: self.ncols])
        if not len(nz):
            return False
        piv = int(nz[0])
        g = math.gcd(*work)
        work = work // g if work[piv] > 0 else -(work // g)
        pos = bisect.bisect(self._pivots, piv)
        self._rows.insert(pos, work)
        self._pivots.insert(pos, piv)
        return True

    def residual(self, vec: Sequence) -> list[int]:
        """Integer residual of vec modulo the span (up to a nonzero scale)."""
        return self._reduced(vec, -1)[: self.ncols].tolist()

    def contains(self, vec: Sequence) -> bool:
        return not any(self.residual(vec))

    def coefficients(self, vec: Sequence) -> tuple[np.ndarray, int] | None:
        """(C, den) with vec == sum_j C[j] / den * inserted_j, or None.

        den > 0 and gcd(C, den) == 1, as from `_int_array`.  Requires
        coefficient tracking and that every insert() succeeded, i.e. the
        inserted vectors are linearly independent.
        """
        if not self.track:
            raise ValueError("SpanSolver built without coefficient tracking")
        if self._inserted != len(self._rows):
            raise ValueError("coefficient query requires independent inserts")
        work = self._reduced(vec, -1)
        if work[: self.ncols].any():
            return None
        # 0 == sum_j tail_j * inserted_j + mu * vec, and mu > 0: it starts
        # positive and row operations scale it by stored (positive) pivots
        c, mu = -work[self.ncols : -1], work[-1]
        g = math.gcd(*c, mu)
        return _fit(c // g), mu // g

    def echelon_rows(self) -> np.ndarray:
        """Integer echelon rows of the span, shape (rank, ncols), pivot-sorted."""
        rows = [r[: self.ncols] for r in self._rows]
        return _fit(np.array(rows, dtype=object).reshape(len(rows), self.ncols))


class Matrix:
    """Dense exact-rational matrix, row-major, immutable by convention."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence):
        if len(data) != rows * cols:
            raise DimensionMismatchError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.data = tuple(_as_q(x) for x in data)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatchError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Matrix":
        if not cols:
            return cls(0, 0, [])
        return cls.from_rows(list(zip(*cols)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [Q(1) if i == j else Q(0) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [Q(0)] * (rows * cols))

    def __getitem__(self, key) -> Q:
        i, j = key
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def tolists(self) -> list[list[Q]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> Q:
        return sum((self[i, i] for i in range(min(self.rows, self.cols))), Q(0))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, s) -> "Matrix":
        s = _as_q(s)
        return Matrix(self.rows, self.cols, [s * a for a in self.data])

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError("shape mismatch")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("inner dimensions differ")
        (a, da), (b, db) = self._ints(), other._ints()
        den = da * db
        return Matrix(self.rows, other.cols, [Q(int(v), den) for v in (a @ b).ravel()])

    def _ints(self) -> tuple[np.ndarray, int]:
        """(A, den) with A / den == self, A an integer array (see _int_array)."""
        return _int_array(np.array(self.data, dtype=object).reshape(self.rows, self.cols))

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise DimensionMismatchError("vector length differs from column count")
        v = [_as_q(x) for x in vec]
        return tuple(
            sum((self.data[i * self.cols + k] * v[k] for k in range(self.cols)), Q(0))
            for i in range(self.rows)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(min(self.rows, 6))
        )
        return f"Matrix({self.rows}x{self.cols}: {body}{'...' if self.rows > 6 else ''})"


def _int_matrix(m) -> tuple[np.ndarray, int]:
    """(A, den) for a Matrix or a 2-D array-like, as from `_int_array`."""
    a, den = m._ints() if isinstance(m, Matrix) else _int_array(m)
    if a.ndim != 2:
        raise DimensionMismatchError("expected a 2-D matrix")
    return a, den


def rank(m) -> int:
    """Row rank by exact fraction-free elimination.

    m is a Matrix or a 2-D array-like of integers or rationals; a nonzero
    multiple of a matrix has its rank, so an integer array may stand for a
    rational one.
    """
    a, _ = _int_matrix(m)
    solver = SpanSolver(a.shape[1])
    for row in a:
        solver.insert(row)
    return solver.rank


def full_rank_mod_p(a) -> bool:
    """Does the integer r x c matrix A have column rank c mod P?

    A True proves that A has column rank c over Q: some c x c minor is
    nonzero mod P, so nonzero in Z.  A False proves nothing over Q (P may
    divide every c x c minor), and the caller decides it with the exact
    `rank`.  A is reduced mod P first, Python ints (dtype=object) included.
    Each step pivots on the largest residue of the first column (argmax:
    residues are >= 0) and answers False when the column is zero; the other
    rows' trailing block becomes (pv * row - f * prow) % P, which needs no
    inverse mod P and stays below 2**62 in int64.  The active block loses
    the pivot row and the first column, so c pivots answer True.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "iuO" or a.ndim != 2:
        raise TypeError("a 2-D integer matrix required")
    r, c = a.shape
    if r < c:
        return False
    a = _mod_p(a)
    for _ in range(c):
        at = a[:, 0].argmax()
        prow = a[at].copy()
        if prow[0] == 0:
            return False
        a[at] = a[0]  # the first row takes the pivot row's place
        rest = prow[0] * a[1:, 1:]
        rest -= a[1:, :1] * prow[1:]
        rest -= rest // P * P  # % P; numpy divides int64 by a scalar faster than it takes %
        a = rest
    return True


class Jet2:
    """Second-order jet (value, first, second derivative) along one direction.

    Multiplication follows the truncated Taylor rule
    (a, a', a'')*(b, b', b'') = (ab, a'b + ab', a''b + 2 a'b' + a b'').
    Components stay in the ring they are given in: ints stay ints.
    """

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0, d2=0):
        self.v = v
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def _lift(x) -> "Jet2":
        return x if isinstance(x, Jet2) else Jet2(x)

    def __add__(self, other):
        o = Jet2._lift(other)
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = Jet2._lift(other)
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        o = Jet2._lift(other)
        return Jet2(o.v - self.v, o.d1 - self.d1, o.d2 - self.d2)

    def __mul__(self, other):
        o = Jet2._lift(other)
        return Jet2(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("jets support nonnegative integer powers only")
        out = Jet2(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        o = Jet2._lift(other)
        return (self.v, self.d1, self.d2) == (o.v, o.d1, o.d2)

    def __repr__(self):
        return f"Jet2({self.v}, {self.d1}, {self.d2})"


class DetRng:
    """Deterministic splitmix64 generator; stable across platforms forever."""

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15
    _MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * self._MIX[0]) & self._MASK
        z = ((z ^ (z >> 27)) * self._MIX[1]) & self._MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def randints(self, count: int, lo: int, hi: int) -> np.ndarray:
        """`count` successive `randint(lo, hi)` draws as one int64 array.

        The states of the next `count` steps are state + k * gamma, so the
        whole block is mixed at once in uint64, whose arithmetic wraps
        modulo 2**64 as the masks above do; the generator is left where
        `count` calls of `randint` leave it.  lo, hi and hi - lo + 1 lie
        in int64.
        """
        if hi < lo:
            raise ValueError("empty range")
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(self._GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * self._GAMMA) & self._MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(self._MIX[0])
        z = (z ^ (z >> np.uint64(27))) * np.uint64(self._MIX[1])
        z ^= z >> np.uint64(31)
        return (z % np.uint64(hi - lo + 1)).astype(np.int64) + lo

    @staticmethod
    def for_stream(seed: int, *tags) -> "DetRng":
        """Derive an independent generator from a seed and string/int tags."""
        h = seed & DetRng._MASK
        for tag in tags:
            data = tag.encode() if isinstance(tag, str) else str(int(tag)).encode()
            for byte in data:
                h = ((h ^ byte) * 0x100000001B3) & DetRng._MASK
        return DetRng(h)
