"""Executable criteria for prehomogeneous spaces with exact certificates.

A point is generic exactly when the infinitesimal action map is onto, so
genericity is certified by a rank computation and never guessed: full rank
modulo 2**31 - 1, which proves full rank over Q; exact rank decides the
rest.  A run certifies one point (`sample_certified_points`): the first
distinct draw of one seeded stream (`_draws`) that passes, as a tuple of
Python ints.  The isotropy dimension d - n follows by rank-nullity.  The
character dimension and regularity are read off (g, V) alone, from an
exact basis of the annihilator of [g, g].x (`character_space_dim`,
`hessian_regularity`).  The declared invariants are cross-checks, each
verified through exact gradients at the point and at the next draws of
the stream where it is nonzero, uncertified, since the invariance
identity is polynomial.  Every product with the generators is
`MatrixRep.act`, `MatrixRep.pullback` or `MatrixRep.combine`, and every
product of their results `linalg._matmul`, all exact under the one int64
bound of `linalg._pair`.
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
from .linalg import PRIMES, DetRng, Q, _matmul, full_rank_mod_p, kernel_mod_p, rank
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


@lru_cache(maxsize=128)  # the default catalog runs use 47 shapes
def _sketch_coefficients(d: int, n: int) -> np.ndarray:
    """The (2, n + 4, d) coefficients in [-3, 3] of `_commutator_sketch`,
    from one fixed stream, so drawn once per shape; read-only."""
    rng = DetRng.for_stream(0, "commutator-sketch")
    coef = rng.randints(2 * (n + 4) * d, -3, 3).reshape(2, n + 4, d)
    coef.flags.writeable = False
    return coef


def _commutator_sketch(rep: MatrixRep, point: tuple[int, ...]) -> np.ndarray:
    """n + 4 seeded commutators [X_k, Y_k] x, an exact (n + 4, n) integer array.

    X_k and Y_k are combinations of the T_i with coefficients in [-3, 3]
    (`_sketch_coefficients`); [X, Y] x = X (Y x) - Y (X x), four exact
    `MatrixRep.combine` products, lies in [g, g].x (times den**2).
    """
    a, b = _sketch_coefficients(rep.algebra_dim, rep.space_dim)
    return rep.combine(a, rep.combine(b, point)) - rep.combine(b, rep.combine(a, point))


def _lift(residues: Sequence[tuple[np.ndarray, int]]) -> Optional[list[tuple[int, ...]]]:
    """The rows given mod each prime p of the (rows, p) pairs, combined by
    CRT into u mod M, each u read as the a / b with |a|, |b| <= isqrt(M / 2)
    and a == b u mod M (Wang 1981; the extended Euclidean algorithm on
    (M, u)), and cleared of denominators; None when some u has no such a / b."""
    acc, modulus = residues[0][0].astype(object), residues[0][1]
    for kernel, p in residues[1:]:
        step = (kernel.astype(object) - acc) * pow(modulus, -1, p) % p
        acc, modulus = acc + modulus * step, modulus * p
    bound, covectors = math.isqrt(modulus // 2), []
    for row in acc.tolist():
        entries = []
        for u in row:
            r0, r1, s0, s1 = modulus, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound or math.gcd(r1, s1) != 1:
                return None
            entries.append(Q(r1, s1))
        den = math.lcm(*(q.denominator for q in entries))
        covectors.append(tuple(q.numerator * (den // q.denominator) for q in entries))
    return covectors


def character_space_dim(rep: MatrixRep, point: Sequence[int]) -> Optional[list[tuple[int, ...]]]:
    """An exact basis of the annihilator of [g, g].x, or None if no prime lifts it.

    Its size is the character dimension: the orbit map is onto at the
    certified point x with kernel g_x, so the corank of [g, g] + g_x in the
    algebra is n - dim [g, g].x.  `_commutator_sketch` S is eliminated mod
    each prime of `PRIMES` (`linalg.kernel_mod_p`); a prime with fewer
    pivots than the best so far, or other pivot columns, is skipped, one
    with more starts again, and the kernels so far are lifted (`_lift`)
    until every covector passes `_annihilates_commutators`.  Proof: with r
    the rank of S mod p, r <= rank S <= rank [g, g].x; the c = n - r
    covectors are orthogonal to [g, g].x and independent (each is 1 at its
    own free column, 0 at the others), so rank [g, g].x = r and they span
    the annihilator.  A sketch of rank n gives no covector.
    """
    point = tuple(map(operator.index, point))  # a Fraction or float is a TypeError
    sketch = _commutator_sketch(rep, point)
    pivots, residues = (), []
    for p in PRIMES:
        got, kernel = kernel_mod_p(sketch, p)
        if len(got) > len(pivots):
            pivots, residues = got, []
        elif got != pivots:
            continue
        if not len(kernel):
            return []
        residues.append((kernel, p))
        covectors = _lift(residues)
        if covectors is not None:
            tx = rep.act(point)
            if all(_annihilates_commutators(rep, np.array(w, dtype=object), tx) for w in covectors):
                return covectors
    return None


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


def hessian_regularity(rep: MatrixRep, covector: Sequence[int]) -> bool:
    """Regularity: True iff U, with rows T_i^T w, has rank n, for the one
    covector w of `character_space_dim` at the certified point x.

    At character dimension 1 every relative invariant is c f^m for one
    basic f, and the space is regular when one has a nonsingular Hessian
    (Kimura 2003, ch. 2).  v = grad log f(x) spans the annihilator of
    [g, g].x, as w does.  From log f(gx) = log chi(g) + log f(x),
    Hess log f(x) (X x) = -X^T v, and the X x span the space, so
    rank Hess log f(x) = rank U.  Hess f = f (Hess log f + v v^T), and by
    Euler Hess log f(x) x = -v and v . x = deg f, so the kernels are equal
    for deg f >= 2, as for f^2.  Full rank of U mod P proves True; a zero
    column of U proves False; exact rank decides the rest.
    """
    u = rep.pullback(np.array([operator.index(w) for w in covector], dtype=object))
    if full_rank_mod_p(u):
        return True
    if not u.any(axis=0).all():
        return False
    return rank(u) == rep.space_dim


def _check_invariant(
    rep: MatrixRep, f: InvariantPolynomial, first: tuple[int, ...], seed: int
) -> tuple[InvariantCheck, str]:
    """The check of f at first, the certified point, and the next
    LAMBDA_POINTS - 1 draws where f does not vanish; a note if unverified.

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
            verified, lam, _ = verify_relative_invariant(rep, f, points)
        except ZeroAtTestPointError as exc:
            if first in exc.points:
                return InvariantCheck(f.name, False, (), 0), f"{f.name} unverified: {exc}"
            points = [p for p in points if p not in exc.points]
            points += islice(further, LAMBDA_POINTS - len(points))
            continue
        if len(points) < LAMBDA_POINTS:
            found = f"only {len(points)} points off its zero set in {MAX_DRAWS} samples"
            note = f"{f.name} unverified: {found} (inconclusive)"
            return InvariantCheck(f.name, False, (), 0), note
        return InvariantCheck(f.name, verified, lam, LAMBDA_POINTS), ""


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
    points.  The character dimension is the number of covectors that
    `character_space_dim` lifts (-1, inconclusive, when none lift), and
    at dimension 1 `hessian_regularity` decides regularity from the
    covector, so neither reads a declared invariant.  A verified invariant
    is not thereby fundamental: its square passes every check here.  The
    notes keep the order point, character, invariants.
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
    checked = [_check_invariant(rep, f, first, seed) for f in declared_invariants]
    covectors = character_space_dim(rep, first)
    if covectors is None:
        notes.append(f"no covector lifted mod {len(PRIMES)} primes (inconclusive)")
    elif not covectors:
        notes.append("no nontrivial relative invariant at the algebra level")
    notes += [note for _, note in checked if note]
    char_dim = -1 if covectors is None else len(covectors)
    return AnalysisReport(
        prehomogeneous=True,
        algebra_dim=rep.algebra_dim,
        space_dim=rep.space_dim,
        isotropy_dim=rep.algebra_dim - rep.space_dim,
        character_dim=char_dim,
        qd1=char_dim == 1,
        invariant_checks=tuple(check for check, _ in checked),
        regular=hessian_regularity(rep, covectors[0]) if char_dim == 1 else None,
        notes="; ".join(notes),
    )
