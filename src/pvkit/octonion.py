"""Rational octonions, the 27 coordinates of 3x3 Hermitian octonion matrices,
and their cubic form.

The octonion basis 1, e1, ..., e7 comes from doubling the quaternions twice
(Cayley-Dickson), so e_i^2 = -1 and all structure constants are +-1.  The
Jordan algebra consists of 3x3 Hermitian octonion matrices; its 27 rational
coordinates are ordered (x1, x2, x3, o1[0..7], o2[0..7], o3[0..7]) for

        [ x1    o3    conj(o2) ]
        [ conj(o3)  x2    o1   ]
        [ o2    conj(o1)  x3   ],

and the cubic form is normalized so diag(a, b, c) evaluates to a*b*c.

The cubic form is integer data: `freudenthal_monomials` lists its 89 terms
c * x_a x_b x_c, read straight off the multiplication table.
`invariants.freudenthal_cubic` holds them as a term array, whose value and
gradient are one loop over the terms.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import List, Sequence, Tuple

__all__ = [
    "OCT_DIM",
    "oct_table",
    "oct_mul",
    "oct_norm",
    "albert_coords_dim",
    "freudenthal_monomials",
]

OCT_DIM = 8
albert_coords_dim = 27


def _cd_double(table: List[List[Tuple[int, int]]]) -> List[List[Tuple[int, int]]]:
    """Cayley-Dickson doubling of a basis multiplication table.

    Entries are (index, sign) with basis 0 the unit; conjugation negates all
    non-unit coordinates.  (a,b)(c,d) = (ac - conj(d)b, da + b conj(c)).
    """
    n = len(table)
    out = [[(0, 0)] * (2 * n) for _ in range(2 * n)]
    for i in range(2 * n):
        for j in range(2 * n):
            ia, ihalf = i % n, i >= n
            ja, jhalf = j % n, j >= n
            conj_sign = 1 if ja == 0 else -1  # conj(e_ja) = conj_sign * e_ja
            if not ihalf and not jhalf:
                # (a,0)(c,0) = (ac, 0)
                out[i][j] = table[ia][ja]
            elif not ihalf and jhalf:
                # (a,0)(0,d) = (0, d a)
                idx, s = table[ja][ia]
                out[i][j] = (idx + n, s)
            elif ihalf and not jhalf:
                # (0,b)(c,0) = (0, b conj(c))
                idx, s = table[ia][ja]
                out[i][j] = (idx + n, s * conj_sign)
            else:
                # (0,b)(0,d) = (-conj(d) b, 0)
                idx, s = table[ja][ia]
                out[i][j] = (idx, -s * conj_sign)
    return out


def _basis_table(n: int) -> List[List[Tuple[int, int]]]:
    table = [[(0, 1)]]
    while len(table) < n:
        table = _cd_double(table)
    return table


@lru_cache(maxsize=None)
def oct_table() -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """e_i e_j = (index, sign) for the octonion basis, exact integers."""
    raw = _basis_table(OCT_DIM)
    return tuple(tuple(row) for row in raw)


def oct_mul(a: Sequence, b: Sequence) -> list:
    """Product of two octonions with coefficients in any commutative ring."""
    table = oct_table()
    out = [0] * OCT_DIM
    for i, ai in enumerate(a):
        if isinstance(ai, int) and ai == 0:
            continue
        for j, bj in enumerate(b):
            if isinstance(bj, int) and bj == 0:
                continue
            k, s = table[i][j]
            term = ai * bj
            out[k] = out[k] + (term if s > 0 else -term)
    return out


def oct_norm(a: Sequence):
    """Norm a conj(a); equals the sum of squared coordinates."""
    out = 0
    for x in a:
        out = out + x * x
    return out


@lru_cache(maxsize=None)
def freudenthal_monomials() -> Tuple[Tuple[Tuple[int, int, int], int], ...]:
    """The cubic form as sorted ((a, b, c), coefficient) terms, a <= b <= c.

    N = x1 x2 x3 - sum_s x_s n(o_s) + t((o1 o2) o3), with n(o) the sum of
    squares and t(o) = 2 o[0].  In t, e_i e_j = s e_m and e_m e_k has a unit
    coordinate only for k = m, where it is e_m e_m; so the term o1_i o2_j
    o3_m has coefficient 2 s sign(e_m e_m).  89 terms in all.
    """
    table = oct_table()
    terms = [((0, 1, 2), 1)]
    for s in range(3):
        base = 3 + OCT_DIM * s
        terms.extend(((s, base + i, base + i), -1) for i in range(OCT_DIM))
    for i, j in product(range(OCT_DIM), repeat=2):
        m, sign = table[i][j]
        coeff = 2 * sign * table[m][m][1]
        terms.append(((3 + i, 3 + OCT_DIM + j, 3 + 2 * OCT_DIM + m), coeff))
    return tuple(sorted(terms))
