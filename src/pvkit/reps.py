"""Exact matrix realizations of the Lie algebras acting in the catalog.

A MatrixRep holds the action of a basis of the algebra on the space as one
integer array T of shape (d, n, n) with a common denominator den: generator
i is T[i] / den.  Every catalog generator is an integer or half-integer
matrix, so T is int64 except where entries grow past the bound of
`linalg._int_array`, and then it holds Python ints.  `structure_tensor`
checks closure under commutators exactly and caches the structure
constants, on which derived subalgebras and subalgebra closure are handled
in coefficient space.  A verification run uses none of these: it reads the
commutators at a certified point (see `analyzer.character_space_dim`), and
closure of every catalog algebra is checked by acceptance criterion 6.
A rep owns every product of its generators with a vector, `act` (T_i x),
`pullback` (T_i^T u) and `combine` ((sum_i a_i T_i) v per row of v), all
exact from one kept list of T's nonzeros, paired with v by `linalg._pair`
for the products one entry sums: n, or d * n times max|a| in `combine`.

Basis enumeration is deterministic everywhere (lexicographic elementary
matrices), so every downstream report is reproducible bit for bit.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property, lru_cache, reduce
from typing import Optional, Sequence

import numpy as np

from .linalg import SpanSolver, _fit, _int_array, _matmul, _pair, _top, full_rank_mod_p
from .octonion import OCT_DIM, albert_coords_dim, freudenthal_monomials, oct_table

__all__ = [
    "MatrixRep",
    "Subalgebra",
    "ClosureError",
    "gl",
    "sl",
    "so",
    "sp",
    "spin_rep",
    "half_spin_rep10",
    "g2_rep",
    "e6_rep",
    "dual",
    "tensor",
    "sym2",
    "alt2",
    "add_torus",
    "direct_sum_shared",
    "left_action",
    "right_transpose_action",
    "right_neg_action",
]


class ClosureError(RuntimeError):
    """A commutator fell outside the span of the declared basis."""


class MatrixRep:
    """A Lie algebra given by the matrices of a basis acting on a space.

    Generator i is T[i] / den (see the module docstring).  T is an
    array-like of shape (d, n, n) with d >= 1, of integers or rationals;
    it is cleared once, and its dtype re-chosen, by `linalg._int_array`.
    den is a positive integer.
    """

    def __init__(
        self,
        T,
        den: int,
        labels: Sequence[str],
        summand_dims: Optional[Sequence[int]] = None,
    ):
        if not isinstance(den, numbers.Integral) or den < 1:
            raise ValueError(f"den must be a positive integer, got {den!r}")
        T, k = _int_array(T)
        if T.ndim != 3 or T.shape[1] != T.shape[2] or not len(T):
            raise ValueError("generators must be a nonempty stack of square matrices")
        self.T = T
        self.den = den * k
        self.labels = tuple(labels)
        self.algebra_dim, n = T.shape[0], T.shape[1]
        self.space_dim = n
        self.summand_dims = tuple(summand_dims or (n,))
        if sum(self.summand_dims) != n:
            raise ValueError("summand dimensions do not add up to the space")
        self._span: SpanSolver | None = None
        self._struct: tuple[np.ndarray, int] | None = None
        self._derived: "Subalgebra" | None = None

    # -- linear structure ---------------------------------------------------

    def _basis_span(self) -> SpanSolver:
        if self._span is None:
            span = SpanSolver(self.space_dim**2, track=self.algebra_dim)
            for t in self.T:
                if not span.insert(t.ravel()):
                    raise ClosureError("basis matrices are linearly dependent")
            self._span = span
        return self._span

    @cached_property
    def _entries(self) -> tuple:
        """(i, r, c, t, runs, rows): T's nonzeros t = T[i, r, c] in (r, i, c)
        order, and where each run of one (r, i) and each row r starts, as
        `np.add.reduceat` takes them.  Computed once; the arrays are read-only."""
        r, i, c = np.nonzero(self.T.transpose(1, 0, 2))
        t = self.T[i, r, c]
        runs = np.flatnonzero(np.diff(r * self.algebra_dim + i, prepend=-1))
        rows = np.flatnonzero(np.diff(r, prepend=-1))
        for a in (i, r, c, t, runs, rows):
            a.flags.writeable = False
        return i, r, c, t, runs, rows

    def act(self, x) -> np.ndarray:
        """T_i x for every generator i, exactly: shape (..., d, n) for an
        integer x of shape (..., n), with [..., i, :] = T_i x."""
        i, r, c, t, runs, _ = self._entries
        x, t = _pair(_integers(x, self.space_dim), t, self.space_dim)
        out = np.zeros(x.shape[:-1] + (self.algebra_dim, self.space_dim), dtype=x.dtype)
        out[..., i[runs], r[runs]] = np.add.reduceat(t * x[..., c], runs, axis=-1)
        return out

    def pullback(self, u) -> np.ndarray:
        """T_i^T u for every generator i, exactly: shape (d, n) for an
        integer u of shape (n,), with row i = T_i^T u."""
        i, r, c, t, _, _ = self._entries
        u, t = _pair(_integers(u, self.space_dim), t, self.space_dim)
        out = np.zeros((self.algebra_dim, self.space_dim), dtype=u.dtype)
        np.add.at(out, (i, c), t * u[r])
        return out

    def combine(self, coef, v) -> np.ndarray:
        """(sum_i coef[q, i] T_i) v[q] for each row q of an integer coef (k, d),
        exactly: shape (k, n), for integer v of shape (k, n), or (n,) for all q."""
        i, r, c, t, _, rows = self._entries
        coef, v = _integers(coef, self.algebra_dim), _integers(v, self.space_dim)
        if v.ndim > 1 and v.shape[:-1] != coef.shape[:-1]:
            raise TypeError(f"v of shape {coef.shape[:-1] + v.shape[-1:]} or {v.shape[-1:]} required")
        v, t = _pair(v, t, self.algebra_dim * self.space_dim * _top(coef))
        terms = coef.astype(v.dtype, copy=False).take(i, axis=-1)
        terms *= t
        terms *= v.take(c, axis=-1)  # in place: two (k, nnz) arrays at most
        out = np.zeros(terms.shape[:-1] + (self.space_dim,), dtype=v.dtype)
        out[..., r[rows]] = np.add.reduceat(terms, rows, axis=-1)
        return out

    def structure_tensor(self) -> tuple[np.ndarray, int]:
        """(S, den) with [B_i, B_j] = sum_k S[i,j,k]/den * B_k, exactly.

        The commutators of T are solved over T itself, one row i at a time,
        so no (d, d, n, n) array is ever held.
        """
        if self._struct is not None:
            return self._struct
        span = self._basis_span()
        T = self.T
        d = self.algebra_dim
        coeffs = {}
        for i in range(d - 1):
            for j, com in enumerate(T[i] @ T[i + 1 :] - T[i + 1 :] @ T[i], i + 1):
                c = span.coefficients(com.ravel())
                if c is None:
                    raise ClosureError(
                        f"commutator of generators {i}, {j} left the span"
                    )
                coeffs[i, j] = c
        lcm = math.lcm(*(k for _, k in coeffs.values()))
        upper = np.zeros((d, d, d), dtype=object)
        for (i, j), (ints, k) in coeffs.items():
            upper[i, j] = ints.astype(object) * (lcm // k)
        # [T_i, T_j] = sum_k c_k T_k means [B_i, B_j] = sum_k (c_k / den) B_k
        tensor_ = _fit(upper - upper.transpose(1, 0, 2))
        self._struct = (tensor_, lcm * self.den)
        return self._struct

    def derived_subalgebra(self) -> "Subalgebra":
        """Span of all pairwise commutators, echelon-reduced, exact."""
        if self._derived is not None:
            return self._derived
        tensor_, _ = self.structure_tensor()
        d = self.algebra_dim
        span = SpanSolver(d)
        for i in range(d):
            for j in range(i + 1, d):
                row = tensor_[i, j]
                if row.any():
                    span.insert(row)
        self._derived = Subalgebra(self, span.echelon_rows())
        return self._derived

    def __repr__(self) -> str:
        return (
            f"MatrixRep({' + '.join(self.labels)}: dim {self.algebra_dim} "
            f"on C^{self.space_dim})"
        )


class Subalgebra:
    """A subalgebra of a MatrixRep: an integer array of shape
    (dim, algebra_dim) whose rows are coefficient vectors of a basis."""

    def __init__(self, parent: MatrixRep, coefficient_basis: np.ndarray):
        if coefficient_basis.ndim != 2 or coefficient_basis.shape[1] != parent.algebra_dim:
            raise ValueError("coefficient basis has the wrong shape")
        self.parent = parent
        self.coefficient_basis = coefficient_basis

    @property
    def dim(self) -> int:
        return len(self.coefficient_basis)

    def is_bracket_closed(self) -> bool:
        """Every commutator of basis vectors lies in their span, exactly.

        With S the parent's structure tensor, brackets[i, j] is den times the
        coefficient vector of [b_i, b_j], all pairs in one integer
        contraction; a positive multiple of a vector lies in a span exactly
        when the vector does.
        """
        B = self.coefficient_basis
        S, _ = self.parent.structure_tensor()
        k, d = B.shape
        X = _fit(B @ S.reshape(d, d * d)).reshape(k, d, d)
        brackets = B @ X
        span = SpanSolver(d)
        for v in B:
            span.insert(v)
        return all(span.contains(row) for row in brackets[np.triu_indices(k, 1)])


def _integers(v, *shape: int) -> np.ndarray:
    """v as an integer array whose shape ends in shape; any other v is a
    TypeError, so a float is never truncated nor a vector cut short."""
    v = v if isinstance(v, np.ndarray) else np.array(v, dtype=object)
    if v.dtype.kind not in "iuO" or v.shape[v.ndim - len(shape):] != shape:
        raise TypeError(f"an integer array of shape (..., {', '.join(map(str, shape))}) required")
    return v


def _common_den(parts) -> tuple[list[np.ndarray], int]:
    """Rescale (array, den) pairs to their least common denominator.  Each
    array is multiplied by den / k as `linalg._pair` picks the two, so it
    stays int64 unless the product leaves it."""
    den = math.lcm(*(k for _, k in parts))
    scaled = [
        t if k == den else np.multiply(*_pair(t, np.array(den // k, dtype=object), 1))
        for t, k in parts
    ]
    return scaled, den


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


# -- classical algebras ------------------------------------------------------


def _units(n: int) -> np.ndarray:
    """All elementary matrices E_ij, index i*n + j, as an (n*n, n, n) array."""
    return _eye(n * n).reshape(n * n, n, n)


def _sym_units(n: int) -> np.ndarray:
    """Symmetric basis: E_ii on the diagonal, E_ij + E_ji above it."""
    i, j = np.triu_indices(n)
    e = _units(n)
    return e[i * n + j] + (i != j)[:, None, None] * e[j * n + i]


def _alt_units(n: int) -> np.ndarray:
    """Antisymmetric basis E_ij - E_ji, i < j, row-major."""
    i, j = np.triu_indices(n, 1)
    e = _units(n)
    return e[i * n + j] - e[j * n + i]


def gl(n: int) -> MatrixRep:
    """gl(n) on C^n; basis E_ij in row-major order."""
    if n < 1:
        raise ValueError("gl needs n >= 1")
    return MatrixRep(_units(n), 1, (f"gl({n})",))


def sl(n: int) -> MatrixRep:
    """sl(n) on C^n; off-diagonal E_ij then H_i = E_ii - E_(i+1)(i+1)."""
    if n < 1:
        raise ValueError("sl needs n >= 1")
    if n == 1:
        raise ValueError("sl(1) is zero; use gl(1) or a torus")
    e = _units(n)
    diag = np.arange(n) * (n + 1)
    off = np.flatnonzero(np.arange(n * n) % (n + 1))
    T = np.concatenate([e[off], e[diag[:-1]] - e[diag[1:]]])
    return MatrixRep(T, 1, (f"sl({n})",))


def so(n: int) -> MatrixRep:
    """so(n) for the form sum x_i^2: antisymmetric matrices E_ij - E_ji."""
    if n < 2:
        raise ValueError("so needs n >= 2")
    return MatrixRep(_alt_units(n), 1, (f"so({n})",))


def sp(n: int) -> MatrixRep:
    """sp(n) on C^(2n) for J = [[0, I], [-I, 0]]: blocks [[A, B], [C, -A^T]].

    Basis: A-part E_ij (row-major), then symmetric B-part, then C-part.
    """
    if n < 1:
        raise ValueError("sp needs n >= 1")
    e, s = _units(n), _sym_units(n)
    k = n * n
    T = np.zeros((k + 2 * len(s), 2 * n, 2 * n), dtype=np.int64)
    T[:k, :n, :n] = e
    T[:k, n:, n:] = -e.transpose(0, 2, 1)
    T[k : k + len(s), :n, n:] = s
    T[k + len(s) :, n:, :n] = s
    return MatrixRep(T, 1, (f"sp({n})",))


# -- spin representations via rational Clifford algebras ----------------------


@lru_cache(maxsize=None)
def _oct_left_mults() -> np.ndarray:
    """Left multiplication by e_0..e_7 on the octonions; integer matrices."""
    table = oct_table()
    out = np.zeros((OCT_DIM, OCT_DIM, OCT_DIM), dtype=np.int64)
    for i in range(OCT_DIM):
        for j in range(OCT_DIM):
            k, s = table[i][j]
            out[i, k, j] = s
    return out


@lru_cache(maxsize=None)
def _gammas16() -> np.ndarray:
    """Eight anticommuting 16x16 integer matrices with square -1.

    gamma_i doubles left multiplication by e_i (i = 1..7); gamma_8 swaps the
    two octonion copies with a sign.  Together they realize the rank-8
    negative-definite Clifford algebra over the rationals.
    """
    ls = _oct_left_mults()
    gams = np.zeros((8, 2 * OCT_DIM, 2 * OCT_DIM), dtype=np.int64)
    gams[:7, :OCT_DIM, OCT_DIM:] = ls[1:]
    gams[:7, OCT_DIM:, :OCT_DIM] = ls[1:]
    gams[7, :OCT_DIM, OCT_DIM:] = -_eye(OCT_DIM)
    gams[7, OCT_DIM:, :OCT_DIM] = _eye(OCT_DIM)
    return gams


def _pair_products(g: np.ndarray) -> np.ndarray:
    """g[i] @ g[j] for i < j in row-major order, the basis order of so(m)."""
    i, j = np.triu_indices(len(g), 1)
    return g[i] @ g[j]


@lru_cache(maxsize=None)
def spin_rep(m: int) -> MatrixRep:
    """Spinor representation of so(m) for m in {7, 8, 9}.

    Basis order matches so(m): the matrix for E_ij - E_ji (i < j) comes from
    products of the rational gamma matrices; brackets match the natural
    representation exactly.  Space dimensions: 8, 8 (a half-spin), 16.
    """
    if m == 7:
        T = -_pair_products(_oct_left_mults()[1:])
        return MatrixRep(T, 2, ("spin(7)",))
    if m == 8:
        T = -_pair_products(_gammas16())[:, :OCT_DIM, :OCT_DIM]
        return MatrixRep(T, 2, ("spin(8) half-spin",))
    if m == 9:
        # the ninth generator pairs as gamma_i/2 = -(gamma_i @ -1)/2
        ninth = -_eye(2 * OCT_DIM)[None]
        T = -_pair_products(np.concatenate([_gammas16(), ninth]))
        return MatrixRep(T, 2, ("spin(9)",))
    raise ValueError("spin_rep supports m in {7, 8, 9}")


@lru_cache(maxsize=None)
def half_spin_rep10() -> MatrixRep:
    """A 16-dimensional half-spin representation of a rational form of so(10).

    The half-spins of the definite rational form are not defined over the
    rationals, so this uses the form of signature (9, 1); complexified it is
    the same algebra and every dimension count downstream is unchanged.
    Basis order: E_ij - E_ji for i < j <= 9, then E_i9 + E_9i for i <= 9
    (indices of the 10-dimensional natural space, 0-based).
    """
    gams = _gammas16()
    big = reduce(np.matmul, gams)
    fs = np.concatenate([gams @ big, big[None]])  # nine generators squaring to +1
    T = np.concatenate([_pair_products(fs), -fs])
    return MatrixRep(T, 2, ("so(9,1) half-spin",))


# -- exceptional algebras -----------------------------------------------------


@lru_cache(maxsize=None)
def g2_rep() -> MatrixRep:
    """Derivations of the octonions, on the 7 imaginary coordinates.

    g2 is the part of so(7) that annihilates the 3-form
    phi(x, y, z) = <x y, z> of the imaginary octonions, the kernel of the
    contraction of so(7) with phi onto the imaginary octonions (Bryant
    1987, *Ann. of Math.* 126).  Each unit e_i lies on three Fano lines
    {i, j, k}, e_j e_k = s e_i with s = +-1, and the rotation
    s (E_jk - E_kj) of each of these planes contracts with phi to 2 e_i.
    So the difference of two of a unit's rotations lies in g2: two per
    unit, fourteen in all.  The planes are visited in the order of their
    lower entry (k, j), and each unit's later two rotations minus its
    first, sign-normalized (first nonzero positive), come out in the order
    of their last nonzero, the later rotation's lower entry.  That is the
    canonical kernel basis of the derivation equations (1 at each free
    column, 0 at the others): den 1 and four +-1 entries each.  One exact
    check with L = `_oct_left_mults()`, e_a e_b = sum_k L[a, k, b] e_k,
    confirms that each is a derivation, D(e_a e_b) = D(e_a) e_b + e_a
    D(e_b), on all of the octonions.
    """
    table, L = oct_table(), _oct_left_mults()
    first, basis = {}, []
    for k in range(1, OCT_DIM):
        for j in range(1, k):
            i, s = table[j][k]  # the Fano line {i, j, k}
            rotation = {(j, k): s, (k, j): -s}
            if i in first:
                D = rotation | {at: -v for at, v in first[i].items()}
                basis.append({at: D[min(D)] * v for at, v in D.items()})
            else:
                first[i] = rotation
    K = np.zeros((len(basis), OCT_DIM, OCT_DIM), dtype=np.int64)
    for g, D in enumerate(basis):
        for at, v in D.items():
            K[g][at] = v
    # D L_a - L_a D == L_(D e_a) for every a: at [g, a, (k, b)] both sides
    # are coordinate k, of D(e_a e_b) - e_a D(e_b) and of D(e_a) e_b
    commutators = (K[:, None] @ L - L @ K[:, None]).reshape(len(K), OCT_DIM, -1)
    if (commutators != K.transpose(0, 2, 1) @ L.reshape(OCT_DIM, -1)).any():
        raise AssertionError("a g2 basis matrix is not an octonion derivation")
    return MatrixRep(K[:, 1:, 1:], 1, ("g2",))


# The octonion slots o1, o2, o3 of a Hermitian matrix, at these entries.
_SLOTS = ((1, 2), (2, 0), (0, 1))


def _jordan_mults() -> np.ndarray:
    """2 L_a for each of the 27 coordinates a, as integer 27 x 27 matrices.

    L_a X = (a X + X a) / 2 is the Jordan product on 3x3 Hermitian
    octonion matrices, in the coordinate order of `octonion`: a unit a of
    slot s has e_k at `_SLOTS[s]` and its conjugate at the mirrored entry.
    The matrix products are taken entry by entry with L =
    `_oct_left_mults()`, e_u e_v = sum_w L[u, w, v] e_w, and the 27
    coordinates are read back from the diagonal's real parts and the
    slots.  Column j of 2 L_a is then the coordinates of a b_j + b_j a.
    """
    at = [(i, i, 0) for i in range(3)]
    at += [(r, c, k) for r, c in _SLOTS for k in range(OCT_DIM)]
    p, q, k = np.array(at).T
    a = np.arange(albert_coords_dim)
    H = np.zeros((albert_coords_dim, 3, 3, OCT_DIM), dtype=np.int64)
    H[a, p, q, k] = 1
    H[a, q, p, k] = np.where(k, -1, 1)  # the conjugate; the diagonal is real
    xy = np.einsum("aptu,jtqv,uwv->ajpqw", H, H, _oct_left_mults(), optimize=True)
    xy = xy[:, :, p, q, k]  # [a, j, c]: coordinate c of a b_j
    return xy.transpose(0, 2, 1) + xy.transpose(1, 2, 0)


def _check_e6_basis(T: np.ndarray) -> None:
    """Raise unless the integer stack T annihilates the cubic N and is
    linearly independent.

    X annihilates N when N(x + t X x) has no t term, a polynomial identity
    in x: putting (X x)_l = sum_i X[l, i] x_i in place of the factor x_l of
    a term c x_a x_b x_c gives c X[l, i] times the cubic monomial of the
    other two factors and x_i.  Every nonzero X[l, i] of every matrix is
    joined with every factor x_l of the 89 terms at once, and the products
    are summed per matrix and monomial; each sum must be 0.  Independence
    is read off the d x d trace form G_ij = tr(T_i T_j), one product of
    the flattened matrices with their flattened transposes: sum_i c_i T_i
    = 0 gives G c = 0, so `full_rank_mod_p` of G proves the d independent.
    """
    n = albert_coords_dim
    terms = freudenthal_monomials()
    mono = np.array([m for m, _ in terms])
    coeff = np.array([c for _, c in terms])
    term, pos = np.divmod(np.arange(mono.size), 3)
    others = np.column_stack([mono[term, (pos + 1) % 3], mono[term, (pos + 2) % 3]])
    g, l, i = np.nonzero(T)
    nz, factor = np.nonzero(l[:, None] == mono[term, pos])  # X[l, i] meets x_l
    cubic = np.sort(np.column_stack([others[factor], i[nz]]), axis=1)
    keys, at = np.unique(g[nz] * n**3 + cubic @ [n * n, n, 1], return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, at, T[g, l, i][nz] * coeff[term[factor]])
    if sums.any():
        raise AssertionError("an e6 basis matrix does not annihilate the cubic")
    flat, flat_t = T.reshape(len(T), -1), T.transpose(0, 2, 1).reshape(len(T), -1)
    if not full_rank_mod_p(_matmul(flat, flat_t.T)):
        raise AssertionError("the trace form of the e6 basis is singular mod P")


@lru_cache(maxsize=None)
def e6_rep() -> MatrixRep:
    """The 78-dimensional algebra of 27x27 matrices annihilating the cubic.

    It is the reduced structure algebra of the Albert algebra (Chevalley
    and Schafer 1950, *PNAS* 36): the traceless Jordan multiplications L_a
    and the derivations, which their commutators span.  The generators,
    over den 4 from M = `_jordan_mults()` (M[a] = 2 L_a), are
      - L_a for a = E1 - E2, E2 - E3 and each of the 24 slot units;
      - [L_(E_r), L_u] for each slot unit u, E_r the idempotent of the row
        of u's slot (24);
      - [L_u, L_v] for the 28 pairs u < v of units of slot o1.
    Nothing is solved: `_check_e6_basis` confirms, exactly, that each
    matrix annihilates the cubic and that the 78 are independent.
    """
    M = _jordan_mults()
    units = M[3:]
    rows = M[np.repeat([r for r, _ in _SLOTS], OCT_DIM)]
    i, j = np.triu_indices(OCT_DIM, 1)
    o1 = units[:OCT_DIM]
    mults = [2 * (M[:2] - M[1:3]), 2 * units]
    commutators = [rows @ units - units @ rows, o1[i] @ o1[j] - o1[j] @ o1[i]]
    T = np.concatenate(mults + commutators)
    _check_e6_basis(T)
    return MatrixRep(T, 4, ("e6 (27-dim rep)",))


# -- combinators ---------------------------------------------------------------


def dual(rep: MatrixRep) -> MatrixRep:
    """Contragredient representation: X -> -X^T."""
    return MatrixRep(
        -rep.T.transpose(0, 2, 1),
        rep.den,
        tuple(f"{l}*" for l in rep.labels),
        rep.summand_dims,
    )


def tensor(r1: MatrixRep, r2: MatrixRep) -> MatrixRep:
    """Outer tensor product: X (x) I + I (x) Y on the product space."""
    parts, den = _common_den(
        [
            (np.kron(r1.T, _eye(r2.space_dim)), r1.den),
            (np.kron(_eye(r1.space_dim), r2.T), r2.den),
        ]
    )
    return MatrixRep(np.concatenate(parts), den, r1.labels + r2.labels)


def _square_action(T: np.ndarray, upper: int) -> np.ndarray:
    """s -> X s + s X^T on symmetric (upper=0) or antisymmetric (upper=1)
    n x n matrices, in upper-triangle coordinates (the diagonal included
    when upper=0), row-major, with T's dtype.

    Column {a, b} is the basis matrix E_ab + E_ba (upper=0) or E_ab - E_ba
    (upper=1), a <= b resp. a < b, and row {x, y} reads entry (x, y) of
    the image.  An entry X[p, q] = v of generator g maps E_qb to v E_pb
    (X s) and E_bq to v E_bp (s X^T) for every b; each of these that lands
    on an upper-triangle entry is added to out[g] at that row and at the
    column of {q, b} resp. {b, q}, times the sign of the basis matrix
    there.  So the work is T's nonzeros times n, and nothing larger than
    the output is formed.
    """
    d, n, _ = T.shape
    i, j = np.triu_indices(n, upper)
    m = len(i)
    row = np.full((n, n), -1)
    row[i, j] = np.arange(m)  # the coordinate entry (x, y) is read at
    col = np.full((n, n), -1)
    col[i, j] = col[j, i] = np.arange(m)  # the basis matrix with (a, b) in it
    sign = np.ones((n, n), dtype=np.int64)
    sign[j, i] = 1 - 2 * upper  # its entry at (a, b)
    g, p, q = np.nonzero(T)
    v = T[g, p, q][:, None]
    b = np.arange(n)
    out = np.zeros((d, m, m), dtype=T.dtype)
    # (entry of the image, entry of the basis matrix) for X s, then s X^T
    terms = (((p[:, None], b), (q[:, None], b)), ((b, p[:, None]), (b, q[:, None])))
    for at, src in terms:
        r, c = row[at], col[src]
        keep = (r >= 0) & (c >= 0)
        gk = np.broadcast_to(g[:, None], keep.shape)[keep]
        np.add.at(out, (gk, r[keep], c[keep]), (v * sign[src])[keep])
    return out


def sym2(rep: MatrixRep) -> MatrixRep:
    """Action s -> X s + s X^T on symmetric matrices, in triangle coordinates."""
    return MatrixRep(
        _square_action(rep.T, 0), rep.den, tuple(f"S2({l})" for l in rep.labels)
    )


def alt2(rep: MatrixRep) -> MatrixRep:
    """Action x -> X x + x X^T on antisymmetric matrices."""
    return MatrixRep(
        _square_action(rep.T, 1), rep.den, tuple(f"L2({l})" for l in rep.labels)
    )


def add_torus(rep: MatrixRep, k: int) -> MatrixRep:
    """Append k commuting scaling generators.

    k = 1 scales the whole space; k = number of summands scales each summand
    separately (the saturating centers of the catalog).
    """
    n = rep.space_dim
    if k == 1:
        owner = np.zeros(n, dtype=np.int64)
    elif k == len(rep.summand_dims) and k > 1:
        owner = np.repeat(np.arange(k), rep.summand_dims)
    else:
        raise ValueError("torus count must be 1 or the number of summands")
    extra = (owner == np.arange(k)[:, None])[:, :, None] * _eye(n)
    parts, den = _common_den([(rep.T, rep.den), (extra, 1)])
    return MatrixRep(
        np.concatenate(parts), den, rep.labels + ("torus",) * k, rep.summand_dims
    )


def direct_sum_shared(
    factors: Sequence[tuple[str, Sequence[Optional[MatrixRep]]]],
) -> MatrixRep:
    """Direct sum of summands with factors acting diagonally where shared.

    Each factor is (label, actions); actions has one entry per summand,
    either None (the factor ignores that summand) or the MatrixRep of its
    basis acting there.  A factor shared between summands must appear as a
    single entry; duplicate labels are rejected as mis-wired sharing.
    """
    labels = [label for label, _ in factors]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate factor label: wire shared factors as one entry")
    n_summands = len(factors[0][1])
    dims: list[Optional[int]] = [None] * n_summands
    slots = []  # (first generator, summand, action)
    g0 = 0
    for label, actions in factors:
        if len(actions) != n_summands:
            raise ValueError(f"factor {label}: wrong number of summand slots")
        acts = [(s, act) for s, act in enumerate(actions) if act is not None]
        if len({act.algebra_dim for _, act in acts}) != 1:
            raise ValueError(f"factor {label}: inconsistent generator counts")
        for s, act in acts:
            if dims[s] is None:
                dims[s] = act.space_dim
            elif dims[s] != act.space_dim:
                raise ValueError(f"factor {label}: summand {s} dimension mismatch")
            slots.append((g0, s, act))
        g0 += acts[0][1].algebra_dim
    if any(d is None for d in dims):
        raise ValueError("every summand needs at least one acting factor")
    offsets = np.cumsum([0] + dims)
    scaled, den = _common_den([(act.T, act.den) for _, _, act in slots])
    T = np.zeros((g0, offsets[-1], offsets[-1]), dtype=np.result_type(*scaled))
    for (g, s, act), block in zip(slots, scaled):
        a, b = offsets[s], offsets[s + 1]
        T[g : g + act.algebra_dim, a:b, a:b] = block
    return MatrixRep(T, den, tuple(labels), tuple(dims))


# -- factor action helpers -----------------------------------------------------
#
# Each helper returns the action of a factor on a matrix space as a
# MatrixRep, for direct_sum_shared.


def left_action(rep: MatrixRep, cols: int) -> MatrixRep:
    """M -> X M on row-major M(space_dim, cols)."""
    return MatrixRep(np.kron(rep.T, _eye(cols)), rep.den, rep.labels)


def right_transpose_action(rep: MatrixRep, rows: int) -> MatrixRep:
    """M -> M X^T on row-major M(rows, space_dim)."""
    return MatrixRep(np.kron(_eye(rows), rep.T), rep.den, rep.labels)


def right_neg_action(rep: MatrixRep, rows: int) -> MatrixRep:
    """M -> -M X on row-major M(rows, space_dim)."""
    return right_transpose_action(dual(rep), rows)
