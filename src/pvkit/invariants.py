"""Exact evaluators for the relative invariants of the catalog.

Every evaluator is a black-box polynomial function of its coordinate vector,
generic over any commutative ring containing the integers: exact rationals
or Python ints for plain evaluation, and tape nodes for the exact gradient
of `value_and_gradient`, which takes one taped evaluation and one backward
sweep.  All algorithms are division-free.

Coordinate conventions (shared with the representation builders):

* symmetric n x n matrices: upper triangle row-major including the diagonal,
  (0,0), (0,1), ..., (0,n-1), (1,1), ..., as np.triu_indices(n) lists them;
* antisymmetric n x n matrices: strict upper triangle row-major;
* m x n matrix spaces: row-major;
* direct sums: the summands in the order of `MatrixRep.summand_dims`.

Determinants and pfaffians gather their matrix through an integer index
grid (entry (i, j) is coordinate grid[i, j]), so det, Pf, the bordered Pf
and det(v;x) differ only in their grids; the quadratic and bilinear forms
are integer term lists (i, j, c), summed as c x_i x_j.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import _int_array
from .octonion import albert_coords_dim, freudenthal_value

__all__ = [
    "InvariantPolynomial",
    "determinant",
    "pfaffian",
    "quadratic_form",
    "pair_dot",
    "symplectic_pair",
    "pf_gram",
    "bordered_pfaffian",
    "det_augmented",
    "freudenthal_cubic",
    "restrict_to_summand",
    "ring_det",
    "ring_pf",
    "TapeNode",
    "value_and_gradient",
]


@dataclass(frozen=True)
class InvariantPolynomial:
    """Exactly evaluable homogeneous polynomial with degree metadata."""

    arity: int
    degree: int
    name: str
    evaluator: Callable[[Sequence], object]

    def __call__(self, coords: Sequence):
        if len(coords) != self.arity:
            raise ValueError(f"{self.name}: expected {self.arity} coordinates")
        return self.evaluator(coords)


class TapeNode:
    """A Python int value at index i of a gradient tape.

    Each +, -, * or unary - with another node or an int appends one new
    node, whose tape entry holds the (parent index, int coefficient) pairs
    of its partial derivatives.  A shared subexpression, such as a memoized
    minor, is one node and so is swept once.
    """

    __slots__ = ("v", "i", "tape")

    def __init__(self, v: int, tape: list, parents: tuple):
        self.v = v
        self.i = len(tape)
        self.tape = tape
        tape.append(parents)

    def __add__(self, other):
        if isinstance(other, TapeNode):
            return TapeNode(self.v + other.v, self.tape, ((self.i, 1), (other.i, 1)))
        return TapeNode(self.v + other, self.tape, ((self.i, 1),))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TapeNode):
            return TapeNode(self.v - other.v, self.tape, ((self.i, 1), (other.i, -1)))
        return TapeNode(self.v - other, self.tape, ((self.i, 1),))

    def __rsub__(self, other):
        return TapeNode(other - self.v, self.tape, ((self.i, -1),))

    def __mul__(self, other):
        if isinstance(other, TapeNode):
            return TapeNode(
                self.v * other.v, self.tape, ((self.i, other.v), (other.i, self.v))
            )
        return TapeNode(self.v * other, self.tape, ((self.i, other),))

    __rmul__ = __mul__

    def __neg__(self):
        return TapeNode(-self.v, self.tape, ((self.i, -1),))


def value_and_gradient(
    f: Callable[[Sequence], object], xi: Sequence[int]
) -> tuple[int, list[int]]:
    """(f(xi), grad f(xi)) exactly, from one evaluation and one backward sweep.

    f runs once on tape nodes holding the Python ints xi (numpy integers are
    converted first, so nothing wraps around).  The sweep visits the tape
    from the output back in creation order, adds each nonzero adjoint times
    the recorded coefficients to the parents' adjoints, and ends with the
    adjoints of the n inputs.  An evaluator that returns a plain int is
    constant, with gradient zero.  Reverse mode costs a constant multiple
    of one evaluation (Baur and Strassen 1983); n forward jets cost n of them.
    """
    tape: list = []
    nodes = [TapeNode(operator.index(v), tape, ()) for v in xi]
    n = len(nodes)
    out = f(nodes)
    if not isinstance(out, TapeNode):
        return operator.index(out), [0] * n
    adj = [0] * len(tape)
    adj[out.i] = 1
    for k in range(out.i, n - 1, -1):  # the n inputs have no parents
        a = adj[k]
        if a:
            for p, c in tape[k]:
                adj[p] += a * c
    return out.v, adj[:n]


def ring_det(rows: list[list]) -> object:
    """Division-free determinant by memoized minor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    memo: dict[tuple[int, ...], object] = {}

    def minor(cols: tuple[int, ...]) -> object:
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        r = n - len(cols)
        acc = 0
        for pos, c in enumerate(cols):
            rest = cols[:pos] + cols[pos + 1 :]
            term = rows[r][c] * minor(rest)
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def ring_pf(rows: list[list]) -> object:
    """Pfaffian of an even antisymmetric matrix, combinatorial expansion.

    Only the entries above the diagonal are read, so rows may hold anything
    on and below it.  Sign convention: Pf = sum over perfect matchings with
    the sign of the matching permutation, so Pf([[0, a], [-a, 0]]) = a.
    """
    n = len(rows)
    if n % 2:
        raise ValueError("pfaffian requires even size")
    if n == 0:
        return 1
    memo: dict[tuple[int, ...], object] = {}

    def pf(idx: tuple[int, ...]) -> object:
        if not idx:
            return 1
        got = memo.get(idx)
        if got is not None:
            return got
        i0, rest = idx[0], idx[1:]
        acc = 0
        for pos, j in enumerate(rest):
            others = rest[:pos] + rest[pos + 1 :]
            term = rows[i0][j] * pf(others)
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[idx] = acc
        return acc

    return pf(tuple(range(n)))


def _triangle_grid(n: int, upper: int) -> np.ndarray:
    """n x n index grid of the triangle coordinates: entries (i, j) and
    (j, i) both hold the index of coordinate (i, j), i <= j (upper=0) or
    i < j (upper=1), in the row-major order of np.triu_indices(n, upper).
    With upper=1 the diagonal holds index 0, which ring_pf never reads."""
    grid = np.zeros((n, n), dtype=np.int64)
    i, j = np.triu_indices(n, upper)
    grid[i, j] = grid[j, i] = np.arange(len(i))
    return grid


def _on_grid(grid: np.ndarray, expand: Callable[[list[list]], object]):
    """The evaluator coords -> expand(M) with M[i][j] = coords[grid[i, j]]."""
    rows = grid.tolist()

    def ev(coords):
        return expand([[coords[k] for k in row] for row in rows])

    return ev


def determinant(n: int, space: str = "full") -> InvariantPolynomial:
    """Determinant on the full n x n matrix space or on Sym(n)."""
    if n < 1:
        raise ValueError("determinant needs n >= 1")
    if space == "full":
        grid = np.arange(n * n).reshape(n, n)
        return InvariantPolynomial(n * n, n, f"det on M({n})", _on_grid(grid, ring_det))
    if space == "sym":
        ev = _on_grid(_triangle_grid(n, 0), ring_det)
        return InvariantPolynomial(n * (n + 1) // 2, n, f"det on Sym({n})", ev)
    raise ValueError("space must be 'full' or 'sym'")


def pfaffian(n: int) -> InvariantPolynomial:
    """Pfaffian on AS(n), n even; degree n/2."""
    if n < 2 or n % 2:
        raise ValueError("pfaffian needs even n >= 2")
    ev = _on_grid(_triangle_grid(n, 1), ring_pf)
    return InvariantPolynomial(n * (n - 1) // 2, n // 2, f"Pf on AS({n})", ev)


def bordered_pfaffian(n: int) -> InvariantPolynomial:
    """(v, x) -> Pf of the (n+1)-square border [[x, v], [-v^T, 0]], n odd.

    The grid's last column reads v; x follows v in the coordinates.  With
    the matching-sign convention of ring_pf, the example x = J2 + zero
    block, v = e_n evaluates to +1.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("bordered pfaffian needs odd n >= 3")
    grid = np.pad(n + _triangle_grid(n, 1), (0, 1))
    grid[:n, n] = np.arange(n)
    ev = _on_grid(grid, ring_pf)
    name = f"Pf([[x,v],[-v^T,0]]) on C^{n}+AS({n})"
    return InvariantPolynomial(n + n * (n - 1) // 2, (n + 1) // 2, name, ev)


def det_augmented(n: int) -> InvariantPolynomial:
    """(v, x) -> det of the n x n matrix [v | x] on M(n,1) + M(n,n-1); the
    grid's first column reads v, the rest the row-major x that follows."""
    if n < 2:
        raise ValueError("augmented determinant needs n >= 2")
    grid = np.c_[np.arange(n), n + np.arange(n * (n - 1)).reshape(n, n - 1)]
    ev = _on_grid(grid, ring_det)
    return InvariantPolynomial(n * n, n, f"det(v;x) on M({n},1)+M({n},{n - 1})", ev)


def _bilinear(arity: int, name: str, terms: list[tuple[int, int, int]]) -> InvariantPolynomial:
    """The quadratic x -> sum of c x_i x_j over the integer terms (i, j, c);
    a term with c = 1 or -1 is added or subtracted with no multiply by c."""

    def ev(coords):
        acc = 0
        for i, j, c in terms:
            t = coords[i] * coords[j]
            acc = acc + t if c == 1 else acc - t if c == -1 else acc + c * t
        return acc

    return InvariantPolynomial(arity, 2, name, ev)


def _symplectic_terms(u: Sequence[int], v: Sequence[int]) -> list[tuple[int, int, int]]:
    """The terms of u^T J v, J = [[0, I], [-I, 0]], for u and v the
    coordinate indices of two vectors of length 2n."""
    n = len(u) // 2
    return [t for i in range(n) for t in ((u[i], v[n + i], 1), (u[n + i], v[i], -1))]


def quadratic_form(s) -> InvariantPolynomial:
    """x -> x^T s x for a square, symmetric integer matrix s (array-like).

    The terms s_ii x_i^2 and 2 s_ij x_i x_j (i < j) are precomputed as ints.
    """
    a, den = _int_array(s)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("quadratic form needs a square matrix")
    if (a != a.T).any():
        raise ValueError("quadratic form needs a symmetric matrix")
    if den != 1:
        raise ValueError("quadratic form needs integer entries")
    n = len(a)
    terms = [
        (i, j, int(a[i, j]) * (1 if i == j else 2))
        for i in range(n)
        for j in range(i, n)
        if a[i, j]
    ]
    return _bilinear(n, f"quadratic form on C^{n}", terms)


def pair_dot(n: int) -> InvariantPolynomial:
    """(u, v) -> u . v on M(1,n) + M(n,1)."""
    terms = [(i, n + i, 1) for i in range(n)]
    return _bilinear(2 * n, f"uv on M(1,{n})+M({n},1)", terms)


def symplectic_pair(n: int) -> InvariantPolynomial:
    """(u, v) -> u^T J v on two copies of C^{2n}, J = [[0, I], [-I, 0]]."""
    terms = _symplectic_terms(range(2 * n), range(2 * n, 4 * n))
    return _bilinear(4 * n, f"u^T J v on C^{2 * n}+C^{2 * n}", terms)


def pf_gram(n: int) -> InvariantPolynomial:
    """X -> Pf(X^T J X) on M(2n, 2): the Gram matrix is 2x2 antisymmetric,
    with (1, 2) entry a^T J b for the columns a and b of the row-major X."""
    terms = _symplectic_terms(range(0, 4 * n, 2), range(1, 4 * n, 2))
    return _bilinear(4 * n, f"Pf(X^T J X) on M({2 * n},2)", terms)


def freudenthal_cubic() -> InvariantPolynomial:
    """The cubic form on the 27 coordinates of 3x3 Hermitian octonion matrices."""
    return InvariantPolynomial(
        albert_coords_dim, 3, "Freudenthal cubic on C^27", freudenthal_value
    )


def restrict_to_summand(
    f: InvariantPolynomial, summand_dims: Sequence[int], k: int
) -> InvariantPolynomial:
    """View an invariant of summand k (from 0) of a direct sum with the given
    summand dimensions as a function of the whole sum."""
    if not 0 <= k < len(summand_dims) or f.arity != summand_dims[k]:
        raise ValueError(f"{f.name} is not a function on summand {k} of {tuple(summand_dims)}")
    offset = sum(summand_dims[:k])
    ordinal = ("1st", "2nd", "3rd")[k] if k < 3 else f"{k + 1}th"

    def ev(coords):
        return f.evaluator(coords[offset : offset + f.arity])

    return InvariantPolynomial(sum(summand_dims), f.degree, f"{f.name} ({ordinal} summand)", ev)
