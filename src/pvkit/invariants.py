"""The relative invariants of the catalog, as integer data of three kinds.

* ``det``: an integer index grid, matrix entry (i, j) = coordinate grid[i, j];
* ``pf``: the same for an antisymmetric matrix; only entries above the
  diagonal are read;
* ``poly``: a (terms, degree) array of coordinate indices with one integer
  coefficient per term, summed as c x_a x_b ...

So det, Pf, the bordered Pf and det(v;x) differ only in their grids, and the
quadratic and bilinear forms and the Freudenthal cubic only in their terms.
`value_and_gradient` gives the exact value and gradient at an integer point
in Python ints, in one closed form per kind:

* det: one fraction-free Gauss-Jordan elimination on [M | I] (Bareiss 1968)
  gives det M and adj M; the gradient is adj^T, read through the grid;
* pf: one fraction-free skew elimination gives Pf M, and dPf/dm_ij =
  adj_ji / Pf exactly, with adj M from the det elimination;
* poly: one loop over the terms.

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

from .linalg import _int_array
from .octonion import albert_coords_dim, freudenthal_monomials

__all__ = [
    "InvariantPolynomial", "determinant", "pfaffian", "quadratic_form", "pair_dot",
    "symplectic_pair", "pf_gram", "bordered_pfaffian", "det_augmented",
    "freudenthal_cubic", "restrict_to_summand", "value_and_gradient",
]


@dataclass(frozen=True, eq=False)
class InvariantPolynomial:
    """A homogeneous integer polynomial as data (see the module docstring).
    eq=False: an invariant hashes by identity, as a key of the analyzer's
    cache, and no array enters the hash."""

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


def _det_adj(m: list[list[int]]) -> tuple[int, Optional[list[list[int]]]]:
    """(det m, adj m) for a square matrix of Python ints, or (0, None) when
    m is singular, by one fraction-free Gauss-Jordan elimination on [m | I].

    Step k replaces every row but the pivot row by (p_k row - a_ik pivot
    row) / p_(k-1); each entry is then a minor of [m | I], so the division
    is exact (Bareiss 1968).  The left block ends as d I, with d the last
    pivot, and the right block as d m^-1; a row swap flips the sign of d.
    """
    n = len(m)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        j = next((j for j in range(k, n) if a[j][k]), None)
        if j is None:
            return 0, None
        if j != k:
            a[k], a[j] = a[j], a[k]
            sign = -sign
        pivot_row, pk = a[k], a[k][k]
        for i, row in enumerate(a):
            if i != k:
                c = row[k]
                a[i] = [(pk * x - c * y) // prev for x, y in zip(row, pivot_row)]
        prev = pk
    return sign * prev, [[sign * v for v in row[n:]] for row in a]


def _pf(m: list[list[int]]) -> int:
    """Pf m for an antisymmetric matrix m of Python ints, by one fraction-
    free skew elimination.  Each step moves a nonzero entry of row k to
    column k + 1 (one swap of rows and columns, which negates Pf) and
    replaces each trailing m_il by (p m_il - m_ki m_(k+1)l + m_kl m_(k+1)i)
    / p', with p = m_k(k+1) the pivot and p' the one before.  That entry is
    the Pfaffian of the swapped m on rows and columns 0..k+1, i, l, so the
    division is exact (the skew form of Bareiss 1968); the last pivot is Pf
    up to the sign of the swaps."""
    a = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(0, len(a), 2):
        j = next((j for j in range(k + 1, len(a)) if a[k][j]), None)
        if j is None:
            return 0
        if j != k + 1:
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a:
                row[k + 1], row[j] = row[j], row[k + 1]
            sign = -sign
        rk, rk1, pivot = a[k][k + 2 :], a[k + 1][k + 2 :], a[k][k + 1]
        for c, d, row in zip(rk, rk1, a[k + 2 :]):
            row[k + 2 :] = [(pivot * x - c * y + d * z) // prev for x, y, z in zip(row[k + 2 :], rk1, rk)]
        prev = pivot
    return sign * prev


def value_and_gradient(f: InvariantPolynomial, xi: Sequence[int]) -> tuple[int, Optional[list]]:
    """(f(xi), grad f(xi)) exactly at an integer point, in Python ints.

    Coordinates pass through operator.index: numpy integers become Python
    ints, so nothing wraps around, and a Fraction or float is a TypeError.
    At a singular det or Pf grid the value is 0 and the gradient None; the
    analyzer reads gradients only where a relative invariant is nonzero.
    """
    x = [operator.index(v) for v in xi]
    if len(x) != f.arity:
        raise ValueError(f"{f.name}: expected {f.arity} coordinates")
    if f.kind == "poly":
        value, grad = 0, [0] * len(x)
        for term, c in zip(f.index.tolist(), f.coeffs):
            vals = [x[i] for i in term]
            value += c * math.prod(vals)
            for q, i in enumerate(term):
                grad[i] += c * math.prod(vals[:q] + vals[q + 1 :])
        return value, grad
    grid = f.index.tolist()
    n = len(grid)
    if f.kind == "det":
        m = [[x[g] for g in row] for row in grid]
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        m = [[0] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for i, j in pairs:
            m[i][j], m[j][i] = x[grid[i][j]], -x[grid[i][j]]
    value, adj = _det_adj(m)
    if adj is None:
        return 0, None
    scale = 1
    if f.kind == "pf":
        value = scale = _pf(m)
    grad = [0] * len(x)
    for i, j in pairs:
        grad[grid[i][j]] += adj[j][i] // scale
    return value, grad


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
