"""The relative invariants of the catalog, as integer data of three kinds.

* ``det``: an integer index grid, matrix entry (i, j) = coordinate grid[i, j];
* ``pf``: the same for an antisymmetric matrix; only entries above the
  diagonal are read;
* ``poly``: a (terms, degree) array of coordinate indices with one integer
  coefficient per term, summed as c x_a x_b ...

So det, Pf, the bordered Pf and det(v;x) differ only in their grids, and the
quadratic and bilinear forms and the Freudenthal cubic only in their terms.
`values_and_gradients` gives the exact values and gradients at a stack of
integer points, in one closed form per kind run on the whole stack:

* det: one fraction-free Gauss-Jordan elimination on the (K, m, 2m) stack
  of [M | I] (Bareiss 1968) gives det M and adj M; the gradient is adj^T,
  read through the grid;
* pf: one fraction-free skew elimination gives Pf M, and dPf/dm_ij =
  adj_ji / Pf exactly, with adj M from the det elimination;
* poly: one vectorized pass over the terms.

The stack is int64 when `linalg._pair` admits its Hadamard bound, and
Python ints otherwise, through the same code (see `_stack_dtype`).
`value_and_gradient` is the stack of one, in Python ints.

Coordinates: Sym(n) is the upper triangle row-major with the diagonal, in
the order of np.triu_indices(n); AS(n) the strict upper triangle likewise;
M(m, n) is row-major; a direct sum lists its summands in the order of
`MatrixRep.summand_dims`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .linalg import _int_array, _pair, _top
from .octonion import albert_coords_dim, freudenthal_monomials

__all__ = [
    "InvariantPolynomial", "determinant", "pfaffian", "quadratic_form", "pair_dot",
    "symplectic_pair", "pf_gram", "bordered_pfaffian", "det_augmented",
    "freudenthal_cubic", "restrict_to_summand", "value_and_gradient", "values_and_gradients",
]


@dataclass(frozen=True, eq=False)
class InvariantPolynomial:
    """A homogeneous integer polynomial as data (see the module docstring).
    eq=False: the index array can enter neither a generated __eq__ (its ==
    is elementwise) nor a hash, so an invariant compares and hashes by
    identity."""

    arity: int
    name: str
    kind: str
    index: np.ndarray
    coeffs: tuple = ()

    def __post_init__(self):
        index = np.array(self.index, dtype=np.int64)
        index.flags.writeable = False
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "coeffs", tuple(map(operator.index, self.coeffs)))

    @property
    def degree(self) -> int:
        m = self.index.shape[1]
        return m // 2 if self.kind == "pf" else m

    def __call__(self, coords: Sequence):
        """f(coords) exactly: rationals are cleared once to ints / D, and f is
        homogeneous, so f(coords) = f(ints) / D**degree."""
        ints, den = _int_array(coords)
        value = value_and_gradient(self, ints.tolist())[0]
        return value if den == 1 else Fraction(value, den**self.degree)


def _stack_dtype(f: InvariantPolynomial, x: np.ndarray) -> np.dtype:
    """The dtype of f's evaluation at the rows of the integer stack x.

    Every number the evaluation forms is a sum of at most k products of two
    numbers of size at most h, so `linalg._pair` of h with itself picks
    int64 exactly when that is exact.  For a grid of size m with entries at
    most t, every minor of [M | I] (Bareiss) and every sub-Pfaffian is at
    most h = (1 + m t^2)^(m/2) by Hadamard's inequality, and k = 2 m^2
    covers the two products of a Gauss-Jordan step, the three of a skew
    step and a gradient coordinate read at up to m^2 grid entries.  For
    terms of degree q, a term is a coefficient times a monomial of size at
    most t^q, and a value or gradient coordinate sums at most terms * q.
    """
    t = _top(x)
    if f.kind == "poly":
        terms, degree = f.index.shape
        coeffs = np.array(f.coeffs, dtype=object)
        return _pair(coeffs, np.array([t**degree], dtype=object), terms * degree)[0].dtype
    m = len(f.index)
    h = np.array([math.isqrt((1 + m * t * t) ** m - 1) + 1], dtype=object)
    return _pair(h, h, 2 * m * m)[0].dtype


def _pivot(
    a: np.ndarray, lo: int, col: int, cols: bool, filler: np.ndarray,
    prev: np.ndarray, alive: np.ndarray,
) -> None:
    """Make entry (lo, col) nonzero in each member of the stack a that has
    a nonzero at or below it: add to row lo the first such row j (and
    column j to column lo when cols, which keeps a skew member skew).  A
    row addition leaves det, adj and Pf as they are, and the entries of an
    elimination state are minors (or sub-Pfaffians) linear in each row, so
    the state stays that of the changed matrix.  A member without such a
    row is singular: it is marked in alive and carried on as filler with
    prev 1, which every later step leaves as it is.  In place.
    """
    nonzero = a[:, lo:, col] != 0
    lift = np.flatnonzero(~nonzero[:, 0])
    j = lo + nonzero[lift].argmax(axis=1)
    a[lift, lo] += a[lift, j]
    if cols:
        a[lift, :, lo] += a[lift, :, j]
    dead = ~nonzero.any(axis=1)
    if dead.any():
        alive &= ~dead
        a[dead] = filler
        prev[dead] = 1


def _det_adj(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(det M, adj M) for each member M of a (K, m, m) integer stack, by
    one fraction-free Gauss-Jordan elimination on [M | I] for all at once.

    Step k makes entry (k, k) nonzero (`_pivot`) and replaces every other
    row by (p_k row - a_ik pivot row) / p_(k-1); each entry is then a
    minor of [M | I], so the division is exact (Bareiss 1968).  The left
    block ends as d I, with d the last pivot, and the right block as
    d M^-1.  A singular member has det 0 and adj 0, and is carried on as
    [I | I].
    """
    k_, n = m.shape[:2]
    eye = np.eye(n, dtype=m.dtype)
    a = np.concatenate([m, np.broadcast_to(eye, m.shape)], axis=2)
    filler = np.concatenate([eye, eye], axis=1)
    prev = np.ones(k_, dtype=m.dtype)
    alive = np.ones(k_, dtype=bool)
    for k in range(n):
        if not a[:, k, k].all():
            _pivot(a, k, k, False, filler, prev, alive)
        pivot_row = a[:, k : k + 1]
        pk = pivot_row[:, :, k : k + 1]
        a = (pk * a - a[:, :, k : k + 1] * pivot_row) // prev[:, None, None]
        a[:, k] = pivot_row[:, 0]
        prev = pk[:, 0, 0]
    return np.where(alive, prev, 0), a[:, :, n:] * alive[:, None, None]


def _pf(m: np.ndarray) -> np.ndarray:
    """Pf M for each member M of a (K, m, m) antisymmetric integer stack,
    by one fraction-free skew elimination for all at once.  Each step
    makes entry (0, 1) of the active block nonzero (`_pivot` on row and
    column 1), and replaces the trailing block by
    (p m_il - m_0i m_1l + m_1i m_0l) / p', with p = m_01 the pivot and p'
    the one before.  That entry is the Pfaffian of M on rows and columns
    0, 1, i, l of the block and the pivots before, so the division is exact
    (the skew form of Bareiss 1968); the last pivot is Pf.  A singular
    member has Pf 0, and is carried on as the standard symplectic block.
    """
    k_, n = m.shape[:2]
    if n % 2:
        return np.zeros(k_, dtype=m.dtype)
    prev = np.ones(k_, dtype=m.dtype)
    alive = np.ones(k_, dtype=bool)
    symplectic = np.zeros((n, n), dtype=m.dtype)
    r = np.arange(0, n, 2)
    symplectic[r, r + 1], symplectic[r + 1, r] = 1, -1
    a = m.copy()
    for s in range(n, 0, -2):
        if not a[:, 1, 0].all():
            _pivot(a, 1, 0, True, symplectic[:s, :s], prev, alive)
        p, r0, r1 = a[:, 0, 1], a[:, 0, 2:], a[:, 1, 2:]
        a = (
            p[:, None, None] * a[:, 2:, 2:]
            - r0[:, :, None] * r1[:, None, :]
            + r1[:, :, None] * r0[:, None, :]
        ) // prev[:, None, None]
        prev = p
    return np.where(alive, prev, 0)


def values_and_gradients(f: InvariantPolynomial, points) -> tuple[np.ndarray, np.ndarray]:
    """(f(x), grad f(x)) exactly at each row x of a (K, arity) integer stack.

    Returns values of shape (K,) and gradients of shape (K, arity), both
    int64 when `_stack_dtype` admits it and Python ints otherwise; the
    same code runs in either.  Coordinates pass through operator.index, so
    a Fraction or float is a TypeError.  At a singular det or Pf grid the
    value is 0 and the gradient row is 0; the analyzer reads gradients only
    where a relative invariant is nonzero.
    """
    rows = [[operator.index(v) for v in p] for p in points]
    if any(len(p) != f.arity for p in rows):
        raise ValueError(f"{f.name}: expected {f.arity} coordinates")
    x = np.array(rows, dtype=object).reshape(len(rows), f.arity)
    x = x.astype(_stack_dtype(f, x))
    grad = np.zeros_like(x)
    if f.kind == "poly":
        monomials = x[:, f.index]
        coeffs = np.array(f.coeffs, dtype=x.dtype)
        value = (coeffs * monomials.prod(axis=2)).sum(axis=1)
        for q in range(f.index.shape[1]):
            rest = np.delete(monomials, q, axis=2).prod(axis=2)
            np.add.at(grad, (slice(None), f.index[:, q]), coeffs * rest)
        return value, grad
    grid = f.index
    if f.kind == "det":
        value, adj = _det_adj(x[:, grid])
        at = np.ones(grid.shape, dtype=bool)
    else:
        at = np.triu(np.ones(grid.shape, dtype=bool), 1)
        m = np.zeros((len(x),) + grid.shape, dtype=x.dtype)
        m[:, at] = x[:, grid[at]]
        m = m - m.transpose(0, 2, 1)
        value = _pf(m)
        adj = _det_adj(m)[1] // np.where(value == 0, 1, value)[:, None, None]
    # dPf/dm_ij = adj_ji / Pf, and d det/dm_ij = adj_ji, read through the grid
    np.add.at(grad, (slice(None), grid[at]), adj.transpose(0, 2, 1)[:, at])
    return value, grad


def value_and_gradient(f: InvariantPolynomial, xi: Sequence[int]) -> tuple[int, Optional[list]]:
    """(f(xi), grad f(xi)) exactly at one integer point, in Python ints: the
    stack of one of `values_and_gradients`.  At a singular det or Pf grid
    the value is 0 and the gradient None."""
    value, grad = values_and_gradients(f, [xi])
    value = int(value[0])
    if value == 0 and f.kind != "poly":
        return 0, None
    return value, grad[0].tolist()


def _triangle_grid(n: int, upper: int) -> np.ndarray:
    """n x n index grid of the triangle coordinates: entries (i, j) and
    (j, i) both hold the index of coordinate (i, j), i <= j (upper=0) or
    i < j (upper=1), in the row-major order of np.triu_indices(n, upper).
    With upper=1 the diagonal holds index 0, which a pf grid never reads."""
    grid = np.zeros((n, n), dtype=np.int64)
    i, j = np.triu_indices(n, upper)
    grid[i, j] = grid[j, i] = np.arange(len(i))
    return grid


def determinant(n: int, space: str = "full") -> InvariantPolynomial:
    """Determinant on the full n x n matrix space or on Sym(n)."""
    if n < 1:
        raise ValueError("determinant needs n >= 1")
    if space == "full":
        return InvariantPolynomial(n * n, f"det on M({n})", "det", np.arange(n * n).reshape(n, n))
    if space == "sym":
        grid = _triangle_grid(n, 0)
        return InvariantPolynomial(n * (n + 1) // 2, f"det on Sym({n})", "det", grid)
    raise ValueError("space must be 'full' or 'sym'")


def pfaffian(n: int) -> InvariantPolynomial:
    """Pfaffian on AS(n), n even; degree n/2.  Sign convention: Pf is the
    sum over perfect matchings with the sign of the matching permutation,
    so Pf([[0, a], [-a, 0]]) = a."""
    if n < 2 or n % 2:
        raise ValueError("pfaffian needs even n >= 2")
    return InvariantPolynomial(n * (n - 1) // 2, f"Pf on AS({n})", "pf", _triangle_grid(n, 1))


def bordered_pfaffian(n: int) -> InvariantPolynomial:
    """(v, x) -> Pf of the (n+1)-square border [[x, v], [-v^T, 0]], n odd.
    The grid's last column reads v; x follows v in the coordinates.  With
    the sign convention of `pfaffian`, x = J2 + zero block, v = e_n gives +1."""
    if n < 3 or n % 2 == 0:
        raise ValueError("bordered pfaffian needs odd n >= 3")
    grid = np.pad(n + _triangle_grid(n, 1), (0, 1))
    grid[:n, n] = np.arange(n)
    name = f"Pf([[x,v],[-v^T,0]]) on C^{n}+AS({n})"
    return InvariantPolynomial(n + n * (n - 1) // 2, name, "pf", grid)


def det_augmented(n: int) -> InvariantPolynomial:
    """(v, x) -> det of the n x n matrix [v | x] on M(n,1) + M(n,n-1); the
    grid's first column reads v, the rest the row-major x that follows."""
    if n < 2:
        raise ValueError("augmented determinant needs n >= 2")
    grid = np.c_[np.arange(n), n + np.arange(n * (n - 1)).reshape(n, n - 1)]
    return InvariantPolynomial(n * n, f"det(v;x) on M({n},1)+M({n},{n - 1})", "det", grid)


def _bilinear(arity: int, name: str, terms: list[tuple[int, int, int]]) -> InvariantPolynomial:
    """The quadratic x -> sum of c x_i x_j over the integer terms (i, j, c)."""
    index = np.array([(i, j) for i, j, _ in terms], dtype=np.int64).reshape(-1, 2)
    return InvariantPolynomial(arity, name, "poly", index, tuple(c for _, _, c in terms))


def _symplectic_terms(u: Sequence[int], v: Sequence[int]) -> list[tuple[int, int, int]]:
    """The terms of u^T J v, J = [[0, I], [-I, 0]], for u and v the
    coordinate indices of two vectors of length 2n."""
    n = len(u) // 2
    return [t for i in range(n) for t in ((u[i], v[n + i], 1), (u[n + i], v[i], -1))]


def quadratic_form(s) -> InvariantPolynomial:
    """x -> x^T s x for a square, symmetric integer matrix s (array-like):
    the terms s_ii x_i^2 and 2 s_ij x_i x_j, i < j."""
    a, den = _int_array(s)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("quadratic form needs a square matrix")
    if (a != a.T).any():
        raise ValueError("quadratic form needs a symmetric matrix")
    if den != 1:
        raise ValueError("quadratic form needs integer entries")
    n = len(a)
    i, j = np.nonzero(np.triu(a))
    terms = [(p, q, int(a[p, q]) * (1 if p == q else 2)) for p, q in zip(i.tolist(), j.tolist())]
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
    """The cubic form on the 27 coordinates of 3x3 Hermitian octonion
    matrices: its 89 monomials from `octonion.freudenthal_monomials`."""
    index, coeffs = zip(*freudenthal_monomials())
    name = "Freudenthal cubic on C^27"
    return InvariantPolynomial(albert_coords_dim, name, "poly", index, coeffs)


def restrict_to_summand(
    f: InvariantPolynomial, summand_dims: Sequence[int], k: int
) -> InvariantPolynomial:
    """View an invariant of summand k (from 0) of a direct sum with the given
    summand dimensions as a function of the whole sum: its indices move by
    the dimensions of the summands before k."""
    if not 0 <= k < len(summand_dims) or f.arity != summand_dims[k]:
        raise ValueError(f"{f.name} is not a function on summand {k} of {tuple(summand_dims)}")
    ordinal = ("1st", "2nd", "3rd")[k] if k < 3 else f"{k + 1}th"
    name = f"{f.name} ({ordinal} summand)"
    return replace(f, arity=sum(summand_dims), name=name, index=f.index + sum(summand_dims[:k]))
