"""Shared helpers for the test suite: Fraction and coefficient-space
references for the integer paths of the package."""

from fractions import Fraction as Q

import numpy as np

from pvkit.linalg import Matrix, SpanSolver, _int_array, jet_line, nullspace
from pvkit.octonion import oct_mul, oct_norm
from pvkit.reps import MatrixRep, Subalgebra


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


def isotropy_algebra(rep: MatrixRep, point) -> Subalgebra:
    """Annihilator {X : X.x = 0} as a nullspace; dimension is forced.

    The reference for the isotropy dimension d - n that the analyzer takes
    from the point certificate by rank-nullity.
    """
    if not point.certified:
        raise ValueError("isotropy requires a certified point")
    xi, _ = _int_array(point.coordinates)
    kernel, _ = nullspace((rep.T @ xi).T)  # the kernel of the orbit map
    sub = Subalgebra(rep, kernel)
    if sub.dim != rep.algebra_dim - rep.space_dim:
        raise AssertionError("isotropy dimension violates the rank identity")
    return sub


def character_dim_in_coefficients(rep: MatrixRep, point) -> int:
    """Corank of derived subalgebra + isotropy inside the algebra, in
    coefficient space: the reference for `analyzer.character_space_dim`."""
    span = SpanSolver(rep.algebra_dim)
    for v in rep.derived_subalgebra().coefficient_basis:
        span.insert(v)
    for v in isotropy_algebra(rep, point).coefficient_basis:
        span.insert(v)
    return rep.algebra_dim - span.rank


def hessian_matrix(f, x) -> tuple[np.ndarray, int]:
    """(H, den) with H / den exactly Hess f(x), from polarized second jets.

    The reference for the analyzer's rank test.  The jets run at the
    cleared integer point xi = c * x, and f is homogeneous of degree k, so
    Hess f(x) = c^(2-k) Hess f(xi).  H is twice Hess f(xi), so the
    polarization D_u D_v = (D^2_{u+v} - D^2_u - D^2_v) / 2 divides nothing:
    den = 2 c^(k-2).  Below degree 2 the Hessian is 0.
    """
    n = len(x)
    xa, c = _int_array(x)
    xi = xa.tolist()
    e = [[int(j == i) for j in range(n)] for i in range(n)]
    pure = [jet_line(f, xi, e[i]).d2 for i in range(n)]
    h = np.zeros((n, n), dtype=object)
    for i in range(n):
        h[i, i] = 2 * pure[i]
        for j in range(i + 1, n):
            both = [a + b for a, b in zip(e[i], e[j])]
            h[i, j] = h[j, i] = jet_line(f, xi, both).d2 - pure[i] - pure[j]
    return h, 2 * c ** max(f.degree - 2, 0)


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


def freudenthal_reference(coords):
    """N = x1 x2 x3 - sum_s x_s n(o_s) + t((o1 o2) o3) with t(o) = 2 o[0],
    through the octonion product: the reference for the monomial list that
    `octonion.freudenthal_value` sums."""
    x = coords[:3]
    o = [list(coords[3 + 8 * s : 11 + 8 * s]) for s in range(3)]
    return (
        x[0] * x[1] * x[2]
        - sum(x[s] * oct_norm(o[s]) for s in range(3))
        + 2 * oct_mul(oct_mul(o[0], o[1]), o[2])[0]
    )
