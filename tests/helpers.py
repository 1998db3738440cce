"""Shared helpers for the test suite: Fraction references for the integer
paths of the package."""

from fractions import Fraction as Q

from pvkit.linalg import Matrix, _int_array, nullspace
from pvkit.reps import MatrixRep


def basis(rep: MatrixRep) -> tuple[Matrix, ...]:
    """The generators T[i] / rep.den as rational matrices."""
    n = rep.space_dim
    return tuple(Matrix(n, n, [Q(int(v), rep.den) for v in t.ravel()]) for t in rep.T)


def action_matrix(rep: MatrixRep, x) -> Matrix:
    """The orbit map at x, columns B_i . x, from the integer product
    (T @ xi).T that certify and isotropy_algebra use, scaled back."""
    xi, c = _int_array(x)
    scale = rep.den * c
    return Matrix(
        rep.space_dim,
        rep.algebra_dim,
        [Q(int(v), scale) for v in (rep.T @ xi).T.ravel()],
    )


def sym_coords(m: Matrix) -> list[Q]:
    """Upper-triangle coordinates of a symmetric matrix, diagonal included."""
    return [m[i, j] for i in range(m.rows) for j in range(i, m.rows)]


def alt_coords(m: Matrix) -> list[Q]:
    """Strict-upper-triangle coordinates of an antisymmetric matrix."""
    return [m[i, j] for i in range(m.rows) for j in range(i + 1, m.rows)]


def invariant_form_space(rho: MatrixRep) -> int:
    """dim{S symmetric : rho(X)^T S + S rho(X) = 0 for all X}."""
    n = rho.space_dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: k for k, p in enumerate(pairs)}
    rows = []
    for a in basis(rho):
        for i in range(n):
            for j in range(i, n):
                row = [Q(0)] * len(pairs)
                for k in range(n):
                    row[index[tuple(sorted((k, j)))]] += a[k, i]
                    row[index[tuple(sorted((i, k)))]] += a[k, j]
                rows.append(row)
    return len(nullspace(Matrix.from_rows(rows))[0])
