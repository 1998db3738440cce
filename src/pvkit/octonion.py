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

All arithmetic here is generic over any commutative ring whose elements
support +, -, * with Python ints (exact rationals, the gradient tape nodes
of `invariants.value_and_gradient` and second-order jets in particular), so
the cubic form can be evaluated on tape or jet coordinates directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "OCT_DIM",
    "oct_table",
    "oct_mul",
    "oct_norm",
    "oct_trace",
    "albert_coords_dim",
    "freudenthal_value",
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


def oct_trace(a: Sequence):
    """a + conj(a) as a scalar: twice the unit coordinate."""
    return a[0] + a[0]


def _split(coords: Sequence):
    x1, x2, x3 = coords[0], coords[1], coords[2]
    o1 = list(coords[3:11])
    o2 = list(coords[11:19])
    o3 = list(coords[19:27])
    return x1, x2, x3, o1, o2, o3


def freudenthal_value(coords: Sequence):
    """The cubic form of the Hermitian 3x3 octonion matrix with these coords.

    N = x1 x2 x3 - x1 n(o1) - x2 n(o2) - x3 n(o3) + t((o1 o2) o3), where n is
    the octonion norm and t the octonion trace.  Works over any commutative
    ring containing the integers.
    """
    if len(coords) != albert_coords_dim:
        raise ValueError("expected 27 coordinates")
    x1, x2, x3, o1, o2, o3 = _split(coords)
    return (
        x1 * x2 * x3
        - x1 * oct_norm(o1)
        - x2 * oct_norm(o2)
        - x3 * oct_norm(o3)
        + oct_trace(oct_mul(oct_mul(o1, o2), o3))
    )


class _Cubic:
    """Sparse polynomial of total degree <= 3 over the integers.

    Keys are sorted index tuples (with repetition); used once, to expand the
    cubic form into an exact monomial dictionary.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, ...], int] | None = None):
        self.terms = dict(terms or {})

    @classmethod
    def var(cls, i: int) -> "_Cubic":
        return cls({(i,): 1})

    @classmethod
    def const(cls, c: int) -> "_Cubic":
        return cls({(): c} if c else {})

    def _coerce(self, other) -> "_Cubic":
        return other if isinstance(other, _Cubic) else _Cubic.const(int(other))

    def __add__(self, other):
        o = self._coerce(other)
        out = dict(self.terms)
        for k, v in o.terms.items():
            out[k] = out.get(k, 0) + v
            if out[k] == 0:
                del out[k]
        return _Cubic(out)

    __radd__ = __add__

    def __neg__(self):
        return _Cubic({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        out: Dict[Tuple[int, ...], int] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in o.terms.items():
                if len(k1) + len(k2) > 3:
                    raise ValueError("cubic expansion exceeded degree 3")
                k = tuple(sorted(k1 + k2))
                out[k] = out.get(k, 0) + v1 * v2
                if out[k] == 0:
                    del out[k]
        return _Cubic(out)

    __rmul__ = __mul__


@lru_cache(maxsize=None)
def freudenthal_monomials() -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Exact monomial expansion of the cubic form; keys are sorted triples."""
    poly = freudenthal_value([_Cubic.var(i) for i in range(albert_coords_dim)])
    items = tuple(sorted(poly.terms.items()))
    if any(len(k) != 3 for k, _ in items):
        raise AssertionError("cubic form has a non-cubic monomial")
    return items
