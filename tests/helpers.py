"""Shared helpers for the test suite: Fraction, jet, coefficient-space and
exact-rank references for the integer and modular paths of the package;
the lockstep elimination mod P that the mixed-row square kernel
replaced; the dense einsums and combinations over T that
`MatrixRep.act`, `pullback` and `combine` replaced, and the commutator
sketch taken from the dense combinations;
the ring-generic evaluation of an invariant's data (memoized det and Pf
expansions, term sums) and the reverse-mode tape that the closed-form
gradients replaced; the hand-written invariant evaluators that the index
grids and term lists replaced; the dense kron square action that the
scattered build replaced; and the exact kernel of the suite,
`dense_nullspace`, with the octonion derivation equations and the cubic's
annihilator conditions whose kernels the closed forms of g2 and e6
replaced."""

import math
import operator
import re
from fractions import Fraction as Q

import numpy as np

from pvkit.analyzer import MAX_DRAWS
from pvkit.invariants import InvariantPolynomial
from pvkit.linalg import (
    P,
    DetRng,
    DimensionMismatchError,
    Jet2,
    Matrix,
    SpanSolver,
    _fit,
    _int_array,
    _int_matrix,
    rank,
)
from pvkit.octonion import albert_coords_dim, freudenthal_monomials, oct_mul, oct_norm
from pvkit.reps import MatrixRep, Subalgebra, _oct_left_mults


def det(m) -> Q:
    """Exact determinant via Bareiss fraction-free elimination.

    m is as for `linalg.rank`; it is cleared to A / den once, and Bareiss
    runs on the Python ints of A, so det(m) == det(A) / den**n.
    """
    ints, den = _int_matrix(m)
    n, cols = ints.shape
    if n != cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    if n == 0:
        return Q(1)
    a: list[list[int]] = ints.tolist()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Q(0)
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row = a[i]
            prow = a[k]
            for j in range(k + 1, n):
                row[j] = (pk * row[j] - aik * prow[j]) // prev
            row[k] = 0
        prev = pk
    return Q(sign * a[n - 1][n - 1], den**n)


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


def ring_evaluator(f: InvariantPolynomial):
    """coords -> f(coords) over the ring of the coordinates, from f's data:
    its grid through `ring_det` or `ring_pf`, or the sum of its terms, where
    a term with coefficient 1 or -1 is added or subtracted with no multiply.
    Division-free, so it runs on jets and tape nodes."""
    if f.kind == "poly":
        terms = list(zip(f.index.tolist(), f.coeffs))

        def ev(coords):
            acc = 0
            for term, c in terms:
                t = coords[term[0]] if term else 1
                for i in term[1:]:
                    t = t * coords[i]
                acc = acc + t if c == 1 else acc - t if c == -1 else acc + c * t
            return acc

        return ev
    rows = f.index.tolist()
    expand = ring_det if f.kind == "det" else ring_pf

    def ev(coords):
        return expand([[coords[k] for k in row] for row in rows])

    return ev


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


def _ring_function(f):
    """An invariant's `ring_evaluator`, or f itself if it is a plain function
    of a coordinate list."""
    return ring_evaluator(f) if isinstance(f, InvariantPolynomial) else f


def taped_value_and_gradient(f, xi) -> tuple[int, list[int]]:
    """(f(xi), grad f(xi)) exactly, from one evaluation and one backward sweep:
    the reference for `invariants.value_and_gradient`.

    f (an invariant, through `ring_evaluator`, or a function of a coordinate
    list) runs once on tape nodes holding the Python ints xi (numpy integers
    are converted first, so nothing wraps around).  The sweep visits the
    tape from the output back in creation order, adds each nonzero adjoint
    times the recorded coefficients to the parents' adjoints, and ends with
    the adjoints of the n inputs.  An evaluator that returns a plain int is
    constant, with gradient zero.
    """
    tape: list = []
    nodes = [TapeNode(operator.index(v), tape, ()) for v in xi]
    n = len(nodes)
    out = _ring_function(f)(nodes)
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


def jet_line(f, x, u) -> Jet2:
    """Evaluate f (an invariant, through `ring_evaluator`, or a function of
    a coordinate list) along t -> x + t u as a single second-order jet.

    The jet is computed over the ring of x and u, uncoerced; pass Python
    ints, never numpy integers, which would wrap around.
    """
    if len(x) != len(u):
        raise DimensionMismatchError("x and u must have equal length")
    return Jet2._lift(_ring_function(f)([Jet2(xi, ui) for xi, ui in zip(x, u)]))


def basis(rep: MatrixRep) -> tuple[Matrix, ...]:
    """The generators T[i] / rep.den as rational matrices."""
    n = rep.space_dim
    return tuple(Matrix(n, n, [Q(int(v), rep.den) for v in t.ravel()]) for t in rep.T)


def action_matrix(rep: MatrixRep, x) -> Matrix:
    """The orbit map at x, columns B_i . x, from the integer product
    (T @ xi).T that isotropy_algebra uses (the sampler certifies its
    transpose), scaled back."""
    xi, c = _int_array(x)
    scale = rep.den * c
    return Matrix(
        rep.space_dim,
        rep.algebra_dim,
        [Q(int(v), scale) for v in (rep.T @ xi).T.ravel()],
    )


def isotropy_algebra(rep: MatrixRep, point) -> Subalgebra:
    """Annihilator {X : X.x = 0} at a certified point, as a nullspace;
    dimension is forced.

    The reference for the isotropy dimension d - n that the analyzer takes
    from the point certificate by rank-nullity.
    """
    xi, _ = _int_array(point)
    kernel, _ = dense_nullspace((rep.T @ xi).T)  # the kernel of the orbit map
    sub = Subalgebra(rep, kernel)
    if sub.dim != rep.algebra_dim - rep.space_dim:
        raise AssertionError("isotropy dimension violates the rank identity")
    return sub


def sequential_certified_points(rep: MatrixRep, count: int, seed: int = 0):
    """One exact rank per distinct draw, in stream order: the reference for
    `analyzer.sample_certified_points`, which certifies its draws in blocks
    modulo a prime."""
    points, seen = [], set()
    rng = DetRng.for_stream(seed, "point-sample")
    for _ in range(MAX_DRAWS):
        if len(points) >= count:
            break
        draw = tuple(rng.randint(-3, 3) for _ in range(rep.space_dim))
        orbit = rep.T @ np.array(draw, dtype=np.int64)
        if draw not in seen and rank(orbit.T) == rep.space_dim:
            points.append(draw)
        seen.add(draw)
    return points


def sequential_further_draws(n: int, seed: int, first):
    """The distinct draws after `first` among the first MAX_DRAWS draws of
    the seeded point stream, drawn one `randint` at a time, in stream
    order: the reference for the uncertified points at which
    `analyzer.classify` checks invariants after its certified point."""
    rng = DetRng.for_stream(seed, "point-sample")
    seen, after = set(), False
    for _ in range(MAX_DRAWS):
        draw = tuple(rng.randint(-3, 3) for _ in range(n))
        if after and draw not in seen:
            yield draw
        after = after or draw == first
        seen.add(draw)


def lockstep_full_rank_mod_p(stack) -> np.ndarray:
    """Per matrix of a (K, r, c) integer stack: is its column rank c mod P?

    The stacked reference for `linalg.full_rank_mod_p`, which takes one
    matrix and pivots on the largest residue of each column: here every
    matrix of the stack is eliminated whole, in int64, in lockstep, one
    column per step.  Each matrix picks its own pivot row,
    the first with a nonzero entry in the column, and every row, the pivot
    row included, becomes (pv * row - f * prow) % P, which zeroes the pivot
    row.  A matrix with no pivot in some column has rank below c.
    """
    a = np.asarray(stack)
    if a.dtype.kind not in "iuO" or a.ndim != 3:
        raise TypeError("a 3-D stack of integer matrices required")
    k, r, c = a.shape
    if r < c:
        return np.zeros(k, dtype=bool)
    a = (a % P).astype(np.int64, copy=False)
    at = np.arange(k)
    full = np.ones(k, dtype=bool)
    for _ in range(c):
        prow = a[at, (a[:, :, 0] != 0).argmax(axis=1)]
        full &= prow[:, 0] != 0
        rest = prow[:, :1, None] * a[:, :, 1:]
        rest -= a[:, :, :1] * prow[:, None, 1:]
        rest %= P
        a = rest
    return full


def act_reference(rep: MatrixRep, x) -> np.ndarray:
    """`MatrixRep.act` as the dense einsum "irc,c->ir" over T in Python
    ints, for x of shape (n,) or a batch (..., n)."""
    return np.einsum("irc,...c->...ir", rep.T.astype(object), np.array(x, dtype=object))


def pullback_reference(rep: MatrixRep, u) -> np.ndarray:
    """`MatrixRep.pullback` as the dense einsum "r,irc->ic" over T in
    Python ints."""
    return np.einsum("r,irc->ic", np.array(u, dtype=object), rep.T.astype(object))


def combine_reference(rep: MatrixRep, coef, v) -> np.ndarray:
    """`MatrixRep.combine` from dense matrices: row q is
    (sum_i coef[q, i] T[i]) @ v[q], the product in Python ints.  The sums
    over i stay in T's dtype, exact for |coef| <= 3: an int64 T has
    entries below 2**31 (`linalg._fit`)."""
    X = np.tensordot(np.asarray(coef), rep.T, 1).astype(object)
    return np.matmul(X, np.array(v, dtype=object)[..., None])[..., 0]


def commutator_sketch_reference(rep: MatrixRep, point) -> np.ndarray:
    """`analyzer._commutator_sketch` from dense matrices, with the
    fixed-stream coefficients drawn afresh on every call: the rows
    X_k (Y_k x) - Y_k (X_k x) by `combine_reference`, mod P."""
    d, n = rep.algebra_dim, rep.space_dim
    rng = DetRng.for_stream(0, "commutator-sketch")
    a, b = rng.randints(2 * (n + 4) * d, -3, 3).reshape(2, n + 4, d)
    x = np.broadcast_to(np.array(point, dtype=object), (n + 4, n))
    ab = combine_reference(rep, a, combine_reference(rep, b, x))
    return (ab - combine_reference(rep, b, combine_reference(rep, a, x))) % P


def kron_square_action(T: np.ndarray, upper: int) -> np.ndarray:
    """The dense reference for `reps._square_action`: the action on all of
    M(n) is kron(X, I) + kron(I, X) on row-major entries; its rows are
    gathered at the triangle coordinates and its columns combined into the
    basis E_ij + E_ji (upper=0) or E_ij - E_ji (upper=1)."""
    n = T.shape[1]
    i, j = np.triu_indices(n, upper)
    eye = np.eye(n, dtype=np.int64)
    full = np.kron(T, eye) + np.kron(eye, T)
    rows = full[:, i * n + j]
    sign = 1 - 2 * upper
    return rows[:, :, i * n + j] + sign * (i != j) * rows[:, :, j * n + i]


def dense_nullspace(m) -> tuple[np.ndarray, int]:
    """(K, den): the rows of K / den are an exact basis of {v : m v = 0}.

    m is as for `linalg.rank`.  One elimination over all columns in order:
    row f / den has 1 at free column f (one in the span of the columns
    before it), 0 at the other free columns, and is then sign-normalized so
    its first nonzero coordinate is positive.  den > 0 and K is (nullity,
    cols), in the dtype `linalg._fit` picks.  The package computes no
    kernel; this is the reference for the written-down g2 and e6."""
    a, _ = _int_matrix(m)
    cols = a.shape[1]
    solver = SpanSolver(a.shape[0], track=max(1, min(a.shape)))
    pivots: list[int] = []
    free = []
    for f in range(cols):
        got = solver.coefficients(a[:, f])
        if got is None:
            solver.insert(a[:, f])
            pivots.append(f)
        else:
            free.append((f, *got))
    den = math.lcm(*(k for _, _, k in free))
    kernel = np.zeros((len(free), cols), dtype=object)
    for v, (f, c, k) in zip(kernel, free):
        v[f] = den
        v[pivots] = c[: len(pivots)].astype(object) * -(den // k)
        if v[np.flatnonzero(v)[0]] < 0:
            v *= -1
    return _fit(kernel), den


def octonion_derivation_system() -> np.ndarray:
    """The derivation equations D(e_i e_j) = D(e_i) e_j + e_i D(e_j) of an
    8 x 8 unknown D, as a 512 x 64 integer system: column r*8 + c is
    D[r, c], row (i, j, k) the k-th coordinate, and e_i e_j =
    sum_k L[i, k, j] e_k for L = `reps._oct_left_mults()`.  Its nullspace
    is g2 on the octonions, the reference for `reps.g2_rep`."""
    L, eye = _oct_left_mults(), np.eye(8, dtype=np.int64)
    rows = (
        np.einsum("rk,icj->ijkrc", eye, L)  # D(e_i e_j)_k = sum_c L[i,c,j] D[k,c]
        - np.einsum("rkj,ci->ijkrc", L, eye)  # (D(e_i) e_j)_k = sum_r D[r,i] L[r,k,j]
        - np.einsum("ikr,cj->ijkrc", L, eye)  # (e_i D(e_j))_k = sum_r D[r,j] L[i,k,r]
    )
    return rows.reshape(8**3, 8**2)


def cubic_annihilator_system() -> np.ndarray:
    """The conditions for a 27 x 27 matrix X to annihilate the cubic N, as
    an integer system in X's entries (column l*27 + i is X[l, i]): N(x + t
    X x) has no t term.  Substituting (X x)_l = sum_i X[l, i] x_i for each
    factor x_l of each term c x_a x_b x_c gives the terms c X[l, i] times
    the cubic monomial of the other two factors and x_i; each cubic
    monomial's coefficient is one row.  Its nullspace is e6, the reference
    for `reps.e6_rep`."""
    n = albert_coords_dim
    monomials: dict = {}
    rows, cols, vals = [], [], []
    for mono, c in freudenthal_monomials():
        for p, l in enumerate(mono):
            rest = mono[:p] + mono[p + 1 :]
            for i in range(n):
                key = tuple(sorted(rest + (i,)))
                rows.append(monomials.setdefault(key, len(monomials)))
                cols.append(l * n + i)
                vals.append(c)
    system = np.zeros((len(monomials), n * n), dtype=np.int64)
    np.add.at(system, (rows, cols), vals)
    return system


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
    return len(dense_nullspace(Matrix.from_rows(rows))[0])


def freudenthal_reference(coords):
    """N = x1 x2 x3 - sum_s x_s n(o_s) + t((o1 o2) o3) with t(o) = 2 o[0],
    through the octonion product: the reference for the monomial list that
    `invariants.freudenthal_cubic` holds."""
    x = coords[:3]
    o = [list(coords[3 + 8 * s : 11 + 8 * s]) for s in range(3)]
    return (
        x[0] * x[1] * x[2]
        - sum(x[s] * oct_norm(o[s]) for s in range(3))
        + 2 * oct_mul(oct_mul(o[0], o[1]), o[2])[0]
    )


# -- hand-written invariant evaluators ------------------------------------------


def sym_unpack(coords, n: int) -> list[list]:
    """Upper-triangle coordinates -> full symmetric n x n ring matrix."""
    m = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            m[i][j] = coords[k]
            m[j][i] = coords[k]
            k += 1
    return m


def alt_unpack(coords, n: int) -> list[list]:
    """Strict-upper-triangle coordinates -> full antisymmetric ring matrix."""
    m = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = coords[k]
            m[j][i] = -coords[k]
            k += 1
    return m


def _det_full(coords, n):
    return ring_det([list(coords[i * n : (i + 1) * n]) for i in range(n)])


def _identity_form(coords, n):
    """x . x: every quadratic form of the catalog is the identity form."""
    acc = 0
    for i in range(n):
        acc = acc + coords[i] * coords[i]
    return acc


def _pair_dot(coords, n):
    acc = 0
    for i in range(n):
        acc = acc + coords[i] * coords[n + i]
    return acc


def _symplectic_pair(coords, n):
    u, v = coords[: 2 * n], coords[2 * n :]
    acc = 0
    for i in range(n):
        acc = acc + u[i] * v[n + i] - u[n + i] * v[i]
    return acc


def _pf_gram(coords, n):
    a = [coords[2 * i] for i in range(2 * n)]
    b = [coords[2 * i + 1] for i in range(2 * n)]
    acc = 0
    for i in range(n):
        acc = acc + a[i] * b[n + i] - a[n + i] * b[i]
    return acc


def _bordered_pfaffian(coords, n):
    v = list(coords[:n])
    x = alt_unpack(coords[n:], n)
    rows = [x[i] + [v[i]] for i in range(n)]
    rows.append([-t for t in v] + [0])
    return ring_pf(rows)


def _det_augmented(coords, n):
    v = coords[:n]
    rows = [
        [v[i]] + list(coords[n + i * (n - 1) : n + (i + 1) * (n - 1)])
        for i in range(n)
    ]
    return ring_det(rows)


# (name pattern, evaluator of (coords, the number the pattern captures))
_REFERENCES = (
    (r"det on M\((\d+)\)", _det_full),
    (r"det on Sym\((\d+)\)", lambda c, n: ring_det(sym_unpack(c, n))),
    (r"Pf on AS\((\d+)\)", lambda c, n: ring_pf(alt_unpack(c, n))),
    (r"quadratic form on C\^(\d+)", _identity_form),
    (r"uv on M\(1,(\d+)\)", _pair_dot),
    (r"u\^T J v on C\^(\d+)", lambda c, m: _symplectic_pair(c, m // 2)),
    (r"Pf\(X\^T J X\) on M\((\d+),2\)", lambda c, m: _pf_gram(c, m // 2)),
    (r"Pf\(\[\[x,v\],\[-v\^T,0\]\]\) on C\^(\d+)", _bordered_pfaffian),
    (r"det\(v;x\) on M\((\d+),1\)", _det_augmented),
    (r"Freudenthal cubic on C\^(\d+)", lambda c, _: freudenthal_reference(c)),
)


def reference_value(f, x, summand_dims):
    """f(x) by the hand-written evaluator that f's name names.  A name that
    ends in " (kth summand)" reads only that summand of x, located by the
    summand dimensions of the space."""
    name, coords = f.name, list(x)
    suffix = re.search(r" \((\d)\w\w summand\)$", name)
    if suffix:
        name, k = name[: suffix.start()], int(suffix.group(1)) - 1
        offset = sum(summand_dims[:k])
        coords = coords[offset : offset + summand_dims[k]]
    for pattern, ev in _REFERENCES:
        got = re.match(pattern, name)
        if got:
            return ev(coords, int(got.group(1)))
    raise KeyError(f"no reference evaluator for {f.name!r}")
