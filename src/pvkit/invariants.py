"""Exact evaluators for the relative invariants of the catalog.

Every evaluator is a black-box polynomial function of its coordinate vector,
generic over any commutative ring containing the integers: exact rationals
or Python ints for plain evaluation, and tape nodes for the exact gradient
of `value_and_gradient`, which takes one taped evaluation and one backward
sweep.  All algorithms are division-free.

Coordinate conventions (shared with the representation builders):

* symmetric n x n matrices: upper triangle row-major including the diagonal,
  (0,0), (0,1), ..., (0,n-1), (1,1), ...;
* antisymmetric n x n matrices: strict upper triangle row-major;
* m x n matrix spaces: row-major;
* direct sums: first summand's coordinates, then the second's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

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
    "sym_unpack",
    "alt_unpack",
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

    Sign convention: Pf = sum over perfect matchings with the sign of the
    matching permutation, so Pf([[0, a], [-a, 0]]) = a.
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


def sym_unpack(coords: Sequence, n: int) -> list[list]:
    """Upper-triangle coordinates -> full symmetric n x n ring matrix."""
    m = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            m[i][j] = coords[k]
            m[j][i] = coords[k]
            k += 1
    return m


def alt_unpack(coords: Sequence, n: int) -> list[list]:
    """Strict-upper-triangle coordinates -> full antisymmetric ring matrix."""
    m = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = coords[k]
            m[j][i] = -coords[k]
            k += 1
    return m


def determinant(n: int, space: str = "full") -> InvariantPolynomial:
    """Determinant on the full n x n matrix space or on Sym(n)."""
    if n < 1:
        raise ValueError("determinant needs n >= 1")
    if space == "full":

        def ev(coords):
            rows = [list(coords[i * n : (i + 1) * n]) for i in range(n)]
            return ring_det(rows)

        return InvariantPolynomial(n * n, n, f"det on M({n})", ev)
    if space == "sym":

        def ev(coords):
            return ring_det(sym_unpack(coords, n))

        return InvariantPolynomial(n * (n + 1) // 2, n, f"det on Sym({n})", ev)
    raise ValueError("space must be 'full' or 'sym'")


def pfaffian(n: int) -> InvariantPolynomial:
    """Pfaffian on AS(n), n even; degree n/2."""
    if n < 2 or n % 2:
        raise ValueError("pfaffian needs even n >= 2")

    def ev(coords):
        return ring_pf(alt_unpack(coords, n))

    return InvariantPolynomial(n * (n - 1) // 2, n // 2, f"Pf on AS({n})", ev)


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

    def ev(coords):
        acc = 0
        for i, j, c in terms:
            acc = acc + c * coords[i] * coords[j]
        return acc

    return InvariantPolynomial(n, 2, f"quadratic form on C^{n}", ev)


def pair_dot(n: int) -> InvariantPolynomial:
    """(u, v) -> u . v on M(1,n) + M(n,1)."""

    def ev(coords):
        acc = 0
        for i in range(n):
            acc = acc + coords[i] * coords[n + i]
        return acc

    return InvariantPolynomial(2 * n, 2, f"uv on M(1,{n})+M({n},1)", ev)


def symplectic_pair(n: int) -> InvariantPolynomial:
    """(u, v) -> u^T J v on two copies of C^{2n}, J = [[0, I], [-I, 0]]."""

    def ev(coords):
        u, v = coords[: 2 * n], coords[2 * n :]
        acc = 0
        for i in range(n):
            acc = acc + u[i] * v[n + i] - u[n + i] * v[i]
        return acc

    return InvariantPolynomial(4 * n, 2, f"u^T J v on C^{2 * n}+C^{2 * n}", ev)


def pf_gram(n: int) -> InvariantPolynomial:
    """X -> Pf(X^T J X) on M(2n, 2); the Gram matrix is 2x2 antisymmetric."""

    def ev(coords):
        # columns of X
        a = [coords[2 * i] for i in range(2 * n)]
        b = [coords[2 * i + 1] for i in range(2 * n)]
        acc = 0
        for i in range(n):
            acc = acc + a[i] * b[n + i] - a[n + i] * b[i]
        return acc

    return InvariantPolynomial(4 * n, 2, f"Pf(X^T J X) on M({2 * n},2)", ev)


def bordered_pfaffian(n: int) -> InvariantPolynomial:
    """(v, x) -> Pf of the (n+1)-square border [[x, v], [-v^T, 0]], n odd.

    With the matching-sign convention of ring_pf, the example x = J2 + zero
    block, v = e_n evaluates to +1.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("bordered pfaffian needs odd n >= 3")
    k = n * (n - 1) // 2

    def ev(coords):
        v = list(coords[:n])
        x = alt_unpack(coords[n:], n)
        rows = [x[i] + [v[i]] for i in range(n)]
        rows.append([-t for t in v] + [0])
        return ring_pf(rows)

    return InvariantPolynomial(n + k, (n + 1) // 2, f"Pf([[x,v],[-v^T,0]]) on C^{n}+AS({n})", ev)


def det_augmented(n: int) -> InvariantPolynomial:
    """(v, x) -> det of the n x n matrix [v | x] on M(n,1) + M(n,n-1)."""
    if n < 2:
        raise ValueError("augmented determinant needs n >= 2")

    def ev(coords):
        v = coords[:n]
        rows = [
            [v[i]] + list(coords[n + i * (n - 1) : n + (i + 1) * (n - 1)])
            for i in range(n)
        ]
        return ring_det(rows)

    return InvariantPolynomial(n + n * (n - 1), n, f"det(v;x) on M({n},1)+M({n},{n - 1})", ev)


def freudenthal_cubic() -> InvariantPolynomial:
    """The cubic form on the 27 coordinates of 3x3 Hermitian octonion matrices."""
    return InvariantPolynomial(
        albert_coords_dim, 3, "Freudenthal cubic on C^27", freudenthal_value
    )


def restrict_to_summand(
    f: InvariantPolynomial, total: int, offset: int, suffix: str = ""
) -> InvariantPolynomial:
    """View an invariant of one summand as a function of the whole sum."""
    if offset < 0 or offset + f.arity > total:
        raise ValueError("slice does not fit the total arity")

    def ev(coords):
        return f.evaluator(coords[offset : offset + f.arity])

    return InvariantPolynomial(total, f.degree, f.name + suffix, ev)
