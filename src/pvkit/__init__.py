"""pvkit: exact verification of multiplicity-free spaces with a
one-dimensional quotient.

Everything is computed over the rationals with certified exact linear
algebra: prehomogeneity through rank certificates, isotropy dimensions by
rank-nullity, character-lattice ranks as coranks of the commutators at a
certified point, relative invariance through exact gradients, and
regularity through the Hessian's rank, read off the gradient by a rank
test modulo 2**31 - 1 that exact rank backs up only when it says no.
"""

from .analyzer import (
    AnalysisReport,
    ZeroAtTestPointError,
    character_space_dim,
    classify,
    hessian_regularity,
    verify_relative_invariant,
)
from .catalog import CatalogEntry, VerificationReport, catalog, get_entry, run, run_all
from .grading import (
    IrreducibleComponent,
    ParabolicGrading,
    compute_grading,
    irreducible_components,
    is_commutative_parabolic,
    render_diagram,
    verify_table1,
)
from .invariants import (
    InvariantPolynomial,
    bordered_pfaffian,
    det_augmented,
    determinant,
    freudenthal_cubic,
    pair_dot,
    pf_gram,
    pfaffian,
    quadratic_form,
    symplectic_pair,
)
from .linalg import DetRng, Jet2, Matrix, Q, rank
from .reps import (
    MatrixRep,
    Subalgebra,
    add_torus,
    alt2,
    direct_sum_shared,
    dual,
    e6_rep,
    g2_rep,
    gl,
    half_spin_rep10,
    sl,
    so,
    sp,
    spin_rep,
    sym2,
    tensor,
)
from .rootsystems import RootSystem, WeightedDiagram, build_root_system

__version__ = "0.1.0"
