#!/usr/bin/env python3
"""Anatomy of one verification: GL(n) on symmetric matrices.

The pipeline: certify a generic point by a full-rank certificate, which
fixes the isotropy dimension by rank-nullity, lift an exact basis of the
covectors that annihilate the commutators at that point (their number is
the character dimension), decide regularity by one rank of the covector
pulled back along the generators, and cross-check the declared
determinant: it transforms by a character, through exact gradients (one
fraction-free elimination per point gives det and its adjugate), and its
gradient is parallel to the covector.  No exact kernel is computed.
"""

from pvkit import classify, gl, sym2
from pvkit.analyzer import (
    character_space_dim,
    hessian_regularity,
    sample_certified_points,
    verify_relative_invariant,
)
from pvkit.invariants import determinant
from pvkit.linalg import rank

n = 3
rep = sym2(gl(n))        # s -> X s + s X^T in triangle coordinates
f = determinant(n, "sym")

print(f"algebra dim {rep.algebra_dim}, space dim {rep.space_dim}")

# 1. a generic point: the orbit map must be onto.  The sampler returns the
# first draw of the seeded stream that it certifies, a tuple of ints (or
# None); row i of rep.act(x) is T_i x, so column i of its transpose is
# den * B_i . x, and that integer matrix has the rank of the orbit map at x.
point = sample_certified_points(rep, seed=0)
m = rep.act(point).T
print(f"certified point {point}: orbit map rank {rank(m)}, "
      f"onto: {rank(m) == rep.space_dim}")

# 2. the isotropy subalgebra is the kernel of that matrix, so by
# rank-nullity its dimension is the algebra's minus the certified rank, as
# classify reads it; the kernel itself is never formed
print(f"isotropy dimension {rep.algebra_dim - rank(m)} "
      f"(= {rep.algebra_dim} - {rep.space_dim})")

# 3. characters available to relative invariants: n minus the rank of the
# commutators [B_i, B_j] . x at the certified point, the number of
# covectors orthogonal to them, lifted from eliminations mod a few primes
# and checked exactly
covectors = character_space_dim(rep, point)
print("character space dimension:", len(covectors), "covector:", covectors[0])

# 4. regularity: the covector pulled back along the generators has rank n,
# which is the rank of the Hessian of log det at the point
print("regular:", hessian_regularity(rep, covectors[0]))

# 5. the determinant is relatively invariant: same character at 10 points.
# The invariance identity is polynomial, so any point where det is nonzero
# is evidence for it; here the certified points of seeds 0-9.  classify
# certifies only its first point, the generic one, and takes the next draws
# of the same stream uncertified, skipping any where the invariant
# vanishes.  The check also returns the exact gradient at the first point,
# from the same stacked evaluation.
pts = [sample_certified_points(rep, seed=s) for s in range(10)]
assert pts[0] == point
ok, lam, grad = verify_relative_invariant(rep, f, pts)
print(f"determinant verified: {ok}; character on the gl({n}) basis is "
      "twice the trace form:")
print("  lambda =", lam)

# its gradient at the certified point spans the same line as the covector
print("gradient parallel to the covector:", rank([list(grad), list(covectors[0])]) == 1)

# ... or run the whole pipeline in one call:
report = classify(rep, [f], seed=0)
print()
print("classify:", f"qd1={report.qd1}", f"char={report.character_dim}",
      f"regular={report.regular}")
