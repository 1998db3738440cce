#!/usr/bin/env python3
"""Anatomy of one verification: GL(n) on symmetric matrices.

The pipeline: certify a generic point by a full-rank certificate, which
fixes the isotropy dimension by rank-nullity, count available characters as
a corank of the commutators at that point, check the determinant transforms
by a character through exact gradients (one fraction-free elimination
per point gives det and its adjugate), and decide regularity by one rank that gives the
Hessian's rank.  No kernel is computed anywhere.
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
# commutators [B_i, B_j] . x, read at the certified point
print("character space dimension:", character_space_dim(rep, point))

# 4. the determinant is relatively invariant: same character at 10 points.
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

# 5. regularity: the Hessian is nonsingular at a certified point, by one
# rank, read off that gradient (det is not evaluated again)
print("regular:", hessian_regularity(f, rep, pts[0], grad))

# ... or run the whole pipeline in one call:
report = classify(rep, [f], seed=0)
print()
print("classify:", f"qd1={report.qd1}", f"char={report.character_dim}",
      f"regular={report.regular}")
