"""Executable criteria for prehomogeneous spaces with exact certificates.

A point is generic exactly when the infinitesimal action map is onto, so
genericity is certified by a rank computation and never guessed: full rank
modulo 2**31 - 1, which proves full rank over Q; exact rank decides the
rest.  One sampling call per run draws every certified point, as tuples of
Python ints, and certifies its draws in blocks, one stacked elimination
mod P per block.  The isotropy dimension d - n follows from the point
certificate by rank-nullity, so no kernel is computed.  The
character-lattice rank and the check that a character vanishes on the
derived algebra both read the commutators at the first point, through one
n x n Gram matrix built once per run.  Relative invariance is checked
through exact gradients, each from one taped evaluation and a backward
sweep, with the character compared in integers, and regularity is full rank
of the Hessian, read off the gradient at the first point by the same
full-rank test as the point certificate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .invariants import InvariantPolynomial, value_and_gradient
from .linalg import P, DetRng, Q, _fit, _int_array, full_rank_mod_p, rank
from .reps import MatrixRep

__all__ = [
    "AnalysisReport",
    "NotPrehomogeneousError",
    "ZeroAtTestPointError",
    "character_space_dim",
    "verify_relative_invariant",
    "hessian_regularity",
    "classify",
    "sample_certified_points",
]


class NotPrehomogeneousError(RuntimeError):
    """No certified generic point was found; absence of a certificate only."""


class ZeroAtTestPointError(RuntimeError):
    """An invariant vanished; on the open orbit that disproves relative invariance."""


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


def _full_column_rank(m: np.ndarray) -> bool:
    """The r x c integer matrix m has column rank c: full rank modulo
    2**31 - 1, which proves full rank over Q; exact rank decides the rest."""
    return bool(full_rank_mod_p(m[None])[0]) or rank(m) == m.shape[1]


@lru_cache(maxsize=1)
def _commutator_gram(rep: MatrixRep, point: tuple[int, ...]) -> np.ndarray:
    """G = M^T M, where row (i, j), i < j, of M is [T_i, T_j] x; read-only.

    With P = T @ (T @ x).T, of shape (d, n, d), P[i, :, j] = T_i (T_j x), so
    M is one gather of P.  Over Q, M v = 0 exactly when G v = 0
    (v^T G v = |M v|^2), so G has the rank of M and the same kernel, in an
    n x n integer matrix.  The last (rep, point) is cached: a run reads G at
    its first point for the character dimension and again for each invariant.
    """
    xi = _fit(np.array(point, dtype=object))
    T = rep.T
    P = _fit(T @ _fit(T @ xi).T)
    iu, ju = np.triu_indices(rep.algebra_dim, 1)
    M = _fit(P[iu, :, ju] - P[ju, :, iu])
    G = M.T @ M
    G.flags.writeable = False
    return G


def character_space_dim(rep: MatrixRep, point: Sequence[int]) -> int:
    """Corank of derived subalgebra + isotropy inside the algebra, n - rank G.

    This is the rank of the lattice of characters available to relative
    invariants.  The orbit map Y -> Y.x is onto at the certified point x and
    has kernel the isotropy g_x, so dim([g, g] + g_x) = (d - n) + dim [g, g].x,
    and [g, g].x is spanned by the rows of M (see `_commutator_gram`).
    """
    point = tuple(map(operator.index, point))  # a Fraction or float is a TypeError
    return rep.space_dim - rank(_commutator_gram(rep, point))


def sample_certified_points(
    rep: MatrixRep,
    count: int,
    seed: int = 0,
    hint: Optional[Sequence[Q]] = None,
) -> list[tuple[int, ...]]:
    """Up to `count` distinct certified points, as tuples of Python ints.

    x is certified when the d x n matrix T @ x (row i is a positive multiple
    of B_i . x) has column rank n, so the orbit map at x is onto.  A hint is
    the first point, cleared once to a positive integer multiple and
    certified by `_full_column_rank`; a non-generic hint raises
    NotPrehomogeneousError.  The rest are distinct draws in [-3, 3] from one
    seeded stream, in stream order, drawn in blocks of twice the points
    still missing; each block's new draws are certified together mod P as
    one stack.  When MAX_DRAWS draws (duplicates count) leave fewer than
    `count` points, exact rank decides the draws rejected mod P again in
    stream order, so a shortfall is the one an exact rank per draw gives.
    """
    points: list[tuple[int, ...]] = []
    if hint is not None:
        xi, _ = _int_array(hint)
        if not _full_column_rank(rep.T @ xi):
            raise NotPrehomogeneousError("the registered point is not generic")
        points.append(tuple(xi.tolist()))
    first = len(points)
    seen = set(points)
    rng = DetRng.for_stream(seed, "point-sample")
    # the int64 einsum below is exact for |T| < 2**31 (see linalg._fit)
    T = (rep.T % P).astype(np.int64) if rep.T.dtype == object else rep.T
    tried: list[tuple[tuple[int, ...], bool]] = []  # distinct draws, verdict mod P
    drawn = 0
    while len(points) < count and drawn < MAX_DRAWS:
        block = min(2 * (count - len(points)), MAX_DRAWS - drawn)
        drawn += block
        fresh = []
        for _ in range(block):
            draw = tuple(rng.randint(-3, 3) for _ in range(rep.space_dim))
            if draw not in seen:
                seen.add(draw)
                fresh.append(draw)
        if not fresh:
            continue
        stack = np.einsum("ijk,bk->bij", T, np.array(fresh, dtype=np.int64))
        for draw, ok in zip(fresh, full_rank_mod_p(stack).tolist()):
            tried.append((draw, ok))
            if ok and len(points) < count:
                points.append(draw)
    if len(points) < count:
        del points[first:]
        for draw, ok in tried:
            if len(points) >= count:
                break
            xi = np.array(draw, dtype=np.int64)
            if ok or rank(rep.T @ xi) == rep.space_dim:
                points.append(draw)
    return points


def _shortfall(found: int) -> str:
    return f"only {found} certified points in {MAX_DRAWS} samples (inconclusive)"


def _first_order(
    rep: MatrixRep, f: InvariantPolynomial, point: Sequence[int]
) -> tuple[int, np.ndarray, np.ndarray]:
    """(f(x), grad f(x), num) at the integer point x.

    One taped evaluation of f and one backward sweep give f(x) and the
    exact gradient (`value_and_gradient`).  num_X = grad f(x) . (T_X x) is
    the derivative along X.x, times den.  Python ints throughout.  The
    evaluation reads each coordinate through operator.index, so a Fraction
    or float is a TypeError before numpy could truncate it.
    """
    fx, grad = value_and_gradient(f, point)
    if fx == 0:
        raise ZeroAtTestPointError(f"{f.name} vanishes on the open orbit")
    grad = np.array(grad, dtype=object)
    xi = _fit(np.array(point, dtype=object))
    return fx, grad, (rep.T @ xi).astype(object) @ grad


def verify_relative_invariant(
    rep: MatrixRep,
    f: InvariantPolynomial,
    points: Sequence[Sequence[int]],
) -> tuple[bool, Tuple[Q, ...]]:
    """Infinitesimal relative invariance at certified points, exactly.

    For each basis element X the directional derivative along X.x must be
    lambda_X * f(x) with one lambda vector shared by every supplied point,
    and lambda must vanish on the derived subalgebra.  It does exactly when
    grad f(x) is orthogonal to [g, g].x, that is G grad f(x) = 0 at the
    first point (see `_commutator_gram`).  Returns (verified, lambda).
    lambda also vanishes on the isotropy of every point checked, by
    construction: T_X x = 0 there.  At each point x one gradient gives the
    derivatives along every X.x, so lambda_X = grad f(x) . (T_X x) /
    (den * f(x)); the numerators of two points are compared by
    cross-multiplying.
    """
    if not points:
        raise ValueError("need at least one point")
    num, fx0, grad0 = None, 0, None
    verified = True
    for p in points:
        fx, grad, cur = _first_order(rep, f, p)
        if num is None:
            num, fx0, grad0 = cur, fx, grad
        elif (cur * fx0 != num * fx).any():
            verified = False
            break
    lam = tuple(Q(v, rep.den * fx0) for v in num)
    if verified:
        verified = not (_commutator_gram(rep, tuple(points[0])) @ grad0).any()
    return verified, lam


def hessian_regularity(
    f: InvariantPolynomial, rep: MatrixRep, point: Sequence[int]
) -> bool:
    """True iff Hess f is nonsingular at the certified point, by one rank test.

    Differentiating grad f(y) . (X y) = lambda_X f(y) once more gives
    Hess f(x) (X x) = lambda_X grad f(x) - X^T grad f(x) for a relative
    invariant f.  The vectors X x span the space at a certified point, so
    Hess f(x) has the rank of the n x d matrix of right-hand sides.  Its
    column X, times den * f(x), is num_X grad - f(x) T_X^T grad, and
    `_full_column_rank` decides whether that matrix has rank n.

    One point decides: the Hessian determinant of a relative invariant is
    itself relatively invariant, hence identically zero or nowhere zero on
    the open orbit (exercised as a tested dichotomy elsewhere).
    """
    fx, grad, num = _first_order(rep, f, point)
    r = np.outer(grad, num) - fx * (grad @ rep.T).T
    return _full_column_rank(r.T)


def classify(
    rep: MatrixRep,
    declared_invariants: Sequence[InvariantPolynomial] = (),
    x_hint: Optional[Sequence[Q]] = None,
    seed: int = 0,
) -> AnalysisReport:
    """Run the whole per-entry pipeline and assemble a report.

    One `sample_certified_points` call draws every point of a run:
    LAMBDA_POINTS with declared invariants, else one.  The first is the
    generic point; each invariant is checked at all of them.  Since a
    nonzero relative invariant vanishes nowhere on the open orbit, one that
    vanishes at a point is reported unverified at 0 points, as is each one
    when fewer than LAMBDA_POINTS points are found.  Regularity is decided
    from the first invariant at the first point, exactly when the character
    space is one-dimensional (the invariant is then fundamental) and the
    invariant is verified, since the rank test holds for relative
    invariants only; otherwise it is undecided.
    """
    try:
        pts = sample_certified_points(
            rep, LAMBDA_POINTS if declared_invariants else 1, seed=seed, hint=x_hint
        )
        if not pts:
            raise NotPrehomogeneousError(_shortfall(0))
    except NotPrehomogeneousError as exc:
        return AnalysisReport(
            prehomogeneous=False,
            algebra_dim=rep.algebra_dim,
            space_dim=rep.space_dim,
            isotropy_dim=-1,
            character_dim=-1,
            qd1=False,
            invariant_checks=(),
            regular=None,
            notes=str(exc),
        )
    notes = ["point from registered data" if x_hint is not None else "seeded point"]
    char_dim = character_space_dim(rep, pts[0])
    if char_dim == 0:
        notes.append("no nontrivial relative invariant at the algebra level")
    checks: list[InvariantCheck] = []
    regular: Optional[bool] = None
    for i, f in enumerate(declared_invariants):
        try:
            if len(pts) < LAMBDA_POINTS:
                raise NotPrehomogeneousError(_shortfall(len(pts)))
            verified, lam = verify_relative_invariant(rep, f, pts)
        except (NotPrehomogeneousError, ZeroAtTestPointError) as exc:
            notes.append(f"{f.name} unverified: {exc}")
            checks.append(InvariantCheck(f.name, False, (), 0))
            continue
        checks.append(InvariantCheck(f.name, verified, lam, len(pts)))
        if i == 0 and char_dim == 1 and verified:
            regular = hessian_regularity(f, rep, pts[0])
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
