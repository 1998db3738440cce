"""Executable criteria for prehomogeneous spaces with exact certificates.

A point is generic exactly when the infinitesimal action map is onto, so
genericity is certified by a rank computation and never guessed: full rank
modulo 2**31 - 1, which proves full rank over Q; exact rank decides the
rest.  A run certifies one point (`sample_certified_points`): the first
distinct draw of one seeded stream (`_draws`) that passes, as a tuple of
Python ints.  The isotropy dimension d - n follows from the point
certificate by rank-nullity, so no kernel is computed.  Relative
invariance is checked through exact gradients at that point and at the
next draws of the stream where the invariant is nonzero, which each
invariant reads on past the point, uncertified, since the invariance
identity is polynomial: all of an invariant's points in one stacked
closed form from its data (a determinant, a pfaffian or integer terms),
with the character compared in integers; no other evaluation is made.
The character vanishes on the derived algebra when the stack's gradient
at the first point is orthogonal to the commutators [g, g].x there, read
off one d x d integer matrix that must be symmetric.  The
character-lattice rank is then proved by one full-rank test mod P of
seeded commutators stacked on the verified gradients; the exact rank of
the commutators' Gram matrix decides only what that test rejects.
Regularity is full rank of the Hessian, read off that gradient by the same
full-rank test as the point certificate, on residues mod P; when that test
rejects, a zero row of the exact matrix proves the Hessian singular before
exact rank is asked.  Every product with the generators is
`MatrixRep.act`, `MatrixRep.pullback` or `MatrixRep.combine`, and every
product of their results `linalg._matmul`, all exact under the one int64
bound of `linalg._pair`.  Residues mod P are `linalg._mod_p`, taken of
exact integers; the seeded sketch draws its coefficients once per shape.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import dropwhile, islice
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .invariants import InvariantPolynomial, values_and_gradients
from .linalg import P, DetRng, Q, _matmul, _mod_p, full_rank_mod_p, rank
from .reps import MatrixRep

__all__ = [
    "AnalysisReport",
    "ZeroAtTestPointError",
    "character_space_dim",
    "verify_relative_invariant",
    "hessian_regularity",
    "classify",
    "sample_certified_points",
]


class ZeroAtTestPointError(RuntimeError):
    """An invariant vanished at the listed `points`; at a certified point,
    on the open orbit, that disproves relative invariance."""

    def __init__(self, message: str, points: Sequence[tuple[int, ...]] = ()):
        super().__init__(message)
        self.points = tuple(points)


# Draws per sampling call before it gives up, and points per invariance check.
MAX_DRAWS = 512
LAMBDA_POINTS = 10


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    verified: bool
    lam: Tuple[Q, ...]          # infinitesimal character on the algebra basis
    points_checked: int

    @property
    def lambda_nonzero(self) -> bool:
        return any(x != 0 for x in self.lam)


@dataclass(frozen=True)
class AnalysisReport:
    prehomogeneous: bool
    algebra_dim: int
    space_dim: int
    isotropy_dim: int
    character_dim: int
    qd1: bool
    invariant_checks: Tuple[InvariantCheck, ...]
    regular: Optional[bool]
    notes: str = ""


def _commutator_gram(rep: MatrixRep, point: tuple[int, ...]) -> np.ndarray:
    """G = M^T M, where row (i, j), i < j, of M is [T_i, T_j] x.

    With TTx = `rep.act(rep.act(x))`, TTx[j, i] = T_i (T_j x), so M is
    one gather of TTx.  Over Q, M v = 0 exactly when G v = 0
    (v^T G v = |M v|^2), so G has the rank of M and the same kernel, in an
    n x n integer matrix.  It costs O(d^2 n^2); a run builds it only when
    the certificate of `character_space_dim` fails.
    """
    TTx = rep.act(rep.act(point))
    iu, ju = np.triu_indices(rep.algebra_dim, 1)
    M = TTx[ju, iu] - TTx[iu, ju]
    return _matmul(M.T, M)


@lru_cache(maxsize=128)  # the default catalog runs use 47 shapes
def _sketch_coefficients(d: int, n: int) -> np.ndarray:
    """The (2, n + 4, d) coefficients in [-3, 3] of `_commutator_sketch`,
    from one fixed stream, so drawn once per shape; read-only."""
    rng = DetRng.for_stream(0, "commutator-sketch")
    coef = rng.randints(2 * (n + 4) * d, -3, 3).reshape(2, n + 4, d)
    coef.flags.writeable = False
    return coef


def _commutator_sketch(rep: MatrixRep, point: tuple[int, ...]) -> np.ndarray:
    """n + 4 seeded commutators [X_k, Y_k] x mod P, an (n + 4, n) int64 array.

    X_k and Y_k are combinations of the T_i with coefficients in [-3, 3]
    (`_sketch_coefficients`); [X, Y] x = X (Y x) - Y (X x), four exact
    `MatrixRep.combine` products reduced once, lies in [g, g].x (times den**2).
    """
    a, b = _sketch_coefficients(rep.algebra_dim, rep.space_dim)
    return _mod_p(rep.combine(a, rep.combine(b, point)) - rep.combine(b, rep.combine(a, point)))


def character_space_dim(
    rep: MatrixRep, point: Sequence[int], covectors: Sequence[Sequence[int]] = ()
) -> int:
    """Corank of derived subalgebra + isotropy inside the algebra, n - rank [g, g].x.

    This is the rank of the lattice of characters available to relative
    invariants.  The orbit map Y -> Y.x is onto at the certified point x and
    has kernel the isotropy g_x, so dim([g, g] + g_x) = (d - n) + dim [g, g].x.

    covectors are m integer vectors of length n orthogonal over Q to [g, g].x,
    such as the gradients at x of verified relative invariants.
    One test mod P proves the answer: if the n + 4 rows of
    `_commutator_sketch` stacked on the covectors have column rank n, then
    n <= rank [g, g].x + m, and if the covectors have rank m as well, the m
    covectors span the annihilator of [g, g].x, so the answer is m.  When
    either test fails (an unlucky sketch, a bad prime, or covectors that do
    not span), n - rank G decides it exactly (see `_commutator_gram`), so
    the answer never depends on the test.
    """
    point = tuple(map(operator.index, point))  # a Fraction or float is a TypeError
    n = rep.space_dim
    vectors = [tuple(map(operator.index, g)) for g in covectors]  # likewise
    if any(len(g) != n for g in vectors):
        raise ValueError(f"covectors must have length {n}")
    grads = _mod_p(np.array(vectors, dtype=object).reshape(-1, n))
    stack = np.concatenate([_commutator_sketch(rep, point), grads])
    if full_rank_mod_p(stack) and full_rank_mod_p(grads.T):
        return len(grads)
    return n - rank(_commutator_gram(rep, point))


def _draws(n: int, seed: int) -> Iterator[tuple[int, ...]]:
    """The distinct draws in [-3, 3]^n among the first MAX_DRAWS of the
    seeded point stream, in stream order, LAMBDA_POINTS draws per
    `DetRng.randints` call (ten cost about what one does); the stream's
    one opener, read by the sampler and by each invariance check."""
    rng = DetRng.for_stream(seed, "point-sample")
    seen: set[tuple[int, ...]] = set()
    for drawn in range(0, MAX_DRAWS, LAMBDA_POINTS):
        block = min(LAMBDA_POINTS, MAX_DRAWS - drawn)
        for draw in map(tuple, rng.randints(block * n, -3, 3).reshape(block, n).tolist()):
            if draw not in seen:
                seen.add(draw)
                yield draw


def sample_certified_points(rep: MatrixRep, seed: int = 0) -> Optional[tuple[int, ...]]:
    """The certified point of a run, as a tuple of Python ints, or None.

    x is certified when the d x n matrix `rep.act(x)` (row i is a positive
    multiple of B_i . x) has column rank n, so the orbit map at x is onto.
    It is the first draw of `_draws` whose matrix passes `full_rank_mod_p`;
    when none does, the first that exact rank certifies, or None.
    """
    n = rep.space_dim
    for draw in _draws(n, seed):
        if full_rank_mod_p(rep.act(np.array(draw, dtype=np.int64))):
            return draw
    return next((draw for draw in _draws(n, seed) if rank(rep.act(draw)) == n), None)


def _first_orders(
    rep: MatrixRep, f: InvariantPolynomial, points: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(f(x), grad f(x), num, T x) at each integer point x of a stack of K.

    The values (K,) and the exact gradients (K, n) come from one stacked
    elimination (`values_and_gradients`: a det or Pf grid, or one pass
    over the terms of a polynomial).  num_X = grad f(x) . (T_X x) is the
    derivative along X.x, times den: one `rep.act` over the stack and one
    batched `_matmul`, in int64 when max|T_X x| * max|grad| * n < 2**62.
    The values and num come as Python ints, T x as `rep.act` gives it.
    The evaluation reads each coordinate through operator.index, so a
    Fraction or float is a TypeError before numpy could truncate it.
    """
    fx, grads = values_and_gradients(f, points)
    tx = rep.act(np.array(points, dtype=object).reshape(grads.shape))
    num = _matmul(tx, grads[:, :, None])[:, :, 0]
    return fx.astype(object), grads, num.astype(object), tx


def _annihilates_commutators(rep: MatrixRep, grad: np.ndarray, tx: np.ndarray) -> bool:
    """grad . [T_i, T_j] x == 0 for all i, j, given tx = T x, by one symmetric d x d matrix.

    With U_i = T_i^T grad / gcd(grad) and W_i = T_i x, S = U W^T has
    S_ij = grad . T_i T_j x / gcd, so S_ij - S_ji = grad . [T_i, T_j] x / gcd,
    and S is symmetric exactly when grad is orthogonal to [g, g].x.  S is a
    `_matmul`, in int64 when max|U| * max|W| * n < 2**62.
    """
    U = rep.pullback(grad // (math.gcd(*grad.tolist()) or 1))
    S = _matmul(U, tx.T)
    return not (S != S.T).any()


def verify_relative_invariant(
    rep: MatrixRep,
    f: InvariantPolynomial,
    points: Sequence[Sequence[int]],
) -> tuple[bool, Tuple[Q, ...], tuple[int, ...]]:
    """Infinitesimal relative invariance at integer points, exactly; the
    first is a certified point.

    For each basis element X the directional derivative along X.x must be
    lambda_X * f(x) with one lambda vector shared by every supplied point,
    and lambda must vanish on the derived subalgebra.  It does exactly when
    grad f(x) is orthogonal to [g, g].x at the first point, which one
    symmetric matrix decides (see `_annihilates_commutators`).  lambda also
    vanishes on the isotropy of every point checked, by construction:
    T_X x = 0 there.  At each point x one gradient gives the derivatives
    along every X.x, so lambda_X = grad f(x) . (T_X x) / (den * f(x)); f is
    evaluated at all points in one stack (`_first_orders`), and the
    numerators of each point and the first are compared by
    cross-multiplying.  The identity is polynomial, so it holds at every
    point where f is nonzero, generic or not.  f must not vanish at any
    point: ZeroAtTestPointError lists those where it does, and at the
    certified first point that disproves relative invariance.  Returns
    (verified, lambda, grad), with grad the exact gradient at the first
    point from the stack, as Python ints.
    """
    if not points:
        raise ValueError("need at least one point")
    fx, grads, num, tx = _first_orders(rep, f, points)
    zeros = [tuple(p) for p, v in zip(points, fx) if v == 0]
    if zeros:
        where = "on the open orbit" if fx[0] == 0 else f"at {len(zeros)} test points"
        raise ZeroAtTestPointError(f"{f.name} vanishes {where}", zeros)
    same = not (num * fx[0] != num[0] * fx[:, None]).any()
    verified = same and _annihilates_commutators(rep, grads[0], tx[0])
    return verified, tuple(Q(v, rep.den * fx[0]) for v in num[0]), tuple(grads[0].tolist())


def hessian_regularity(
    f: InvariantPolynomial, rep: MatrixRep, point: Sequence[int], grad: Sequence[int]
) -> bool:
    """True iff Hess f is nonsingular at the certified point, by one rank test.

    grad is the exact gradient of f at point, so f is not evaluated again:
    f(x) = grad . x / deg f (Euler; f is homogeneous), and
    num_X = grad . (T_X x).  Both are read through operator.index, so a
    Fraction or float is a TypeError; an f(x) of 0 is ZeroAtTestPointError.

    Differentiating grad f(y) . (X y) = lambda_X f(y) once more gives
    Hess f(x) (X x) = lambda_X grad f(x) - X^T grad f(x) for a relative
    invariant f.  The vectors X x span the space at a certified point, so
    Hess f(x) has the rank of the n x d matrix r of right-hand sides.  Its
    column X, times den * f(x), is num_X grad - f(x) T_X^T grad.  Full
    column rank of r^T mod P, built in int64 from the residues of grad, num,
    f(x) and the exact T_X^T grad, proves rank n.  Only when it fails is the
    exact r built.  A zero row of r then proves rank below n: a coordinate
    that neither grad f(x) nor any T_X^T grad f(x) reaches, such as one of
    a summand the invariant never reads.  Exact rank decides the rest.

    One point decides: the Hessian determinant of a relative invariant is
    itself relatively invariant, hence identically zero or nowhere zero on
    the open orbit (exercised as a tested dichotomy elsewhere).
    """
    point = tuple(map(operator.index, point))
    grad = np.array([operator.index(g) for g in grad], dtype=object)
    if not f.degree:
        return False  # a constant: Hess f = 0, and Euler's identity gives no f(x)
    fx = sum(map(operator.mul, grad, point)) // f.degree
    if fx == 0:
        raise ZeroAtTestPointError(f"{f.name} vanishes on the open orbit", [point])
    num = _matmul(rep.act(point), grad).astype(object)
    u = rep.pullback(grad)
    residues = np.outer(_mod_p(grad), _mod_p(num)) - (fx % P) * _mod_p(u).T
    if full_rank_mod_p(residues.T):
        return True
    r = np.outer(grad, num) - fx * u.astype(object).T
    if not (r != 0).any(axis=1).all():
        return False
    return rank(r.T) == rep.space_dim


def _check_invariant(
    rep: MatrixRep, f: InvariantPolynomial, first: tuple[int, ...], seed: int
) -> tuple[InvariantCheck, str, Optional[tuple[int, ...]]]:
    """The check of f at the certified point first and the next
    LAMBDA_POINTS - 1 further draws where f does not vanish, a note when f
    is unverified, and the gradient at first from the last stack (None
    with a note).

    f reads the draws of `_draws(n, seed)` after first from its own
    iterator, so every invariant sees the same draws in the same order.
    Draws where f vanishes are dropped for the next ones, and the stage
    runs again: off the open orbit a zero is no evidence either way.  A
    zero at first disproves relative invariance, and too few further draws
    leave f unverified.
    """
    further = islice(dropwhile(first.__ne__, _draws(rep.space_dim, seed)), 1, None)
    points = [first, *islice(further, LAMBDA_POINTS - 1)]
    while True:
        try:
            verified, lam, grad = verify_relative_invariant(rep, f, points)
        except ZeroAtTestPointError as exc:
            if first in exc.points:
                return InvariantCheck(f.name, False, (), 0), f"{f.name} unverified: {exc}", None
            points = [p for p in points if p not in exc.points]
            points += islice(further, LAMBDA_POINTS - len(points))
            continue
        if len(points) < LAMBDA_POINTS:
            found = f"only {len(points)} points off its zero set in {MAX_DRAWS} samples"
            note = f"{f.name} unverified: {found} (inconclusive)"
            return InvariantCheck(f.name, False, (), 0), note, None
        return InvariantCheck(f.name, verified, lam, LAMBDA_POINTS), "", grad


def classify(
    rep: MatrixRep,
    declared_invariants: Sequence[InvariantPolynomial] = (),
    seed: int = 0,
) -> AnalysisReport:
    """Run the whole per-entry pipeline and assemble a report.

    `sample_certified_points(rep, seed)` gives the generic point, the only
    rank certificate of a run.  Each invariant is then checked there and
    at the next distinct draws of the stream, uncertified, skipping those
    where it vanishes, LAMBDA_POINTS points in all (see `_check_invariant`):
    the invariance identity is polynomial, so any point where f is nonzero
    is evidence, generic or not.  Since a nonzero relative invariant
    vanishes nowhere on the open orbit, one that vanishes at the certified
    point is reported unverified at 0 points, as is one with too few
    points.  The invariants are checked first, so that
    the character dimension can be proved from the gradients of the
    verified ones at the first point, which the stacks that verified them
    return (see `character_space_dim`).  Regularity is decided from the
    first invariant's, exactly when the character space is one-dimensional
    and the invariant is verified, since the rank test holds for relative
    invariants only; otherwise it is undecided.  That does not make the
    declared invariant fundamental: its square passes every check here.
    The notes keep the order point, character, invariants.
    """
    first = sample_certified_points(rep, seed)
    if first is None:
        return AnalysisReport(
            prehomogeneous=False,
            algebra_dim=rep.algebra_dim,
            space_dim=rep.space_dim,
            isotropy_dim=-1,
            character_dim=-1,
            qd1=False,
            invariant_checks=(),
            regular=None,
            notes=f"no certified point among the {MAX_DRAWS} draws (inconclusive)",
        )
    notes = ["seeded point"]
    unverified: list[str] = []
    checks: list[InvariantCheck] = []
    covectors = []
    for f in declared_invariants:
        check, note, grad = _check_invariant(rep, f, first, seed)
        checks.append(check)
        if note:
            unverified.append(note)
        if check.verified:
            covectors.append(grad)
    char_dim = character_space_dim(rep, first, covectors=covectors)
    if char_dim == 0:
        notes.append("no nontrivial relative invariant at the algebra level")
    notes += unverified
    regular: Optional[bool] = None
    if char_dim == 1 and checks and checks[0].verified:
        regular = hessian_regularity(declared_invariants[0], rep, first, covectors[0])
    return AnalysisReport(
        prehomogeneous=True,
        algebra_dim=rep.algebra_dim,
        space_dim=rep.space_dim,
        isotropy_dim=rep.algebra_dim - rep.space_dim,
        character_dim=char_dim,
        qd1=char_dim == 1,
        invariant_checks=tuple(checks),
        regular=regular,
        notes="; ".join(notes),
    )
