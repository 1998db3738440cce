#!/usr/bin/env python3
"""Octonions, spinors, and the two exceptional algebras used by the catalog.

The only inputs are the rational octonion multiplication table and exact
linear algebra: g2 appears as the derivation algebra, the spin
representations through left multiplications (a rational Clifford algebra),
and e6 as the stabilizer of the cubic form on 3x3 Hermitian octonion
matrices, spanned by the traceless Jordan multiplications and their
commutators.
"""

from fractions import Fraction as Q

from pvkit import e6_rep, g2_rep, spin_rep
from pvkit.invariants import freudenthal_cubic, value_and_gradient
from pvkit.linalg import DetRng
from pvkit.octonion import oct_mul, oct_norm

# Octonions: e_i^2 = -1, and the norm is multiplicative (a composition
# algebra), which is what makes the left multiplications a Clifford family.
rng = DetRng(1)
a = [Q(rng.randint(-3, 3)) for _ in range(8)]
b = [Q(rng.randint(-3, 3)) for _ in range(8)]
assert oct_norm(oct_mul(a, b)) == oct_norm(a) * oct_norm(b)
print("octonion norm is multiplicative at a random pair")

# g2: the 14 derivations of that multiplication table.
g2 = g2_rep()
print(f"g2: dimension {g2.algebra_dim} acting on the {g2.space_dim} "
      "imaginary coordinates")
assert g2.derived_subalgebra().dim == g2.algebra_dim  # perfect

# Spin representations: so(7) on 8 coordinates, so(9) on 16; both carry a
# unique invariant quadratic form (the catalog's quadratic invariants).
for m in (7, 8, 9):
    rho = spin_rep(m)
    print(f"spin({m}): {rho.algebra_dim} generators on C^{rho.space_dim}")
    rho.structure_tensor()  # exact closure; raises ClosureError otherwise

# e6: 27x27 matrices annihilating the cubic form, written down from the
# Albert algebra: the traceless Jordan multiplications L_a and commutators
# of them, each checked exactly to annihilate the cubic.
e6 = e6_rep()
print(f"e6: dimension {e6.algebra_dim} acting on C^{e6.space_dim}")

f = freudenthal_cubic()
x = [rng.randint(-3, 3) for _ in range(27)]
picked = e6.T[rng.randint(0, 77)]  # the generator is picked / e6.den
_, grad = value_and_gradient(f, x)  # one loop over the 89 terms of the cubic
derivative = sum(g * d for g, d in zip(grad, (picked @ x).tolist()))
print(f"cubic derivative along a basis direction at a random point: "
      f"{derivative} (must be 0)")
assert derivative == 0
