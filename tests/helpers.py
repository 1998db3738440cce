"""Shared helpers for the test suite."""

from fractions import Fraction as Q

from pvkit.linalg import Matrix, nullspace
from pvkit.reps import MatrixRep


def invariant_form_space(rho: MatrixRep) -> int:
    """dim{S symmetric : rho(X)^T S + S rho(X) = 0 for all X}."""
    n = rho.space_dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: k for k, p in enumerate(pairs)}
    rows = []
    for a in rho.basis:
        for i in range(n):
            for j in range(i, n):
                row = [Q(0)] * len(pairs)
                for k in range(n):
                    row[index[tuple(sorted((k, j)))]] += a[k, i]
                    row[index[tuple(sorted((i, k)))]] += a[k, j]
                rows.append(row)
    return len(nullspace(Matrix.from_rows(rows))[0])
