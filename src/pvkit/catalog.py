"""The verification catalog: every classified family as a runnable entry.

Entry ids T2.* are the irreducible rows, T3.* the rows with two summands,
NEG-* the families whose character space is 0- or 2-dimensional (so no
single fundamental invariant exists).  Each entry builds an exact matrix
realization, runs the analyzer, and diffs the observed flags against the
expected ones; entries carrying a weighted diagram get a dimension
cross-check against the grading: the degree-0 piece has the algebra's
dimension, and the irreducible components of the degree-1 piece have the
dimensions of the space's summands.  An invariant of one summand is
restricted from the summand dimensions the representation carries
(`restrict_to_summand(f, rep.summand_dims, k)`), so no builder computes a
coordinate offset or total.

Each entry declares its parameters' domain as data, name -> (lowest, step):
a value is at least lowest, and has lowest's parity when step is 2.
`_check_params` refuses a value outside it before anything is built.  A
condition that joins two parameters (n != m for NEG-4.1.6) is part of the
family's definition, so it is the first line of that family's builder.

Reports are deterministic: identical (entry, parameters, seed) give
bit-identical JSON.
"""

from __future__ import annotations

import json
import operator
import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .analyzer import AnalysisReport, classify
from .grading import compute_grading, irreducible_components, is_commutative_parabolic
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
    restrict_to_summand,
    symplectic_pair,
)
from .reps import (
    MatrixRep,
    _eye,
    add_torus,
    alt2,
    direct_sum_shared,
    dual,
    e6_rep,
    g2_rep,
    gl,
    half_spin_rep10,
    left_action,
    right_neg_action,
    right_transpose_action,
    sl,
    so,
    sp,
    spin_rep,
    sym2,
    tensor,
)
from .rootsystems import WeightedDiagram, build_root_system

__all__ = [
    "CatalogEntry",
    "VerificationReport",
    "catalog",
    "get_entry",
    "run",
    "run_all",
]

@dataclass(frozen=True)
class BuildResult:
    rep: MatrixRep
    invariants: Tuple[InvariantPolynomial, ...]


_PARITY = ("even", "odd")


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str
    defaults: Tuple[Dict[str, int], ...]
    domain: Dict[str, Tuple[int, int]]  # name -> (lowest, step); step 2 fixes the parity
    build: Callable[[Dict[str, int]], BuildResult]
    expected_character_dim: int
    expected_regular: Optional[bool]
    diagram: Callable[[Dict[str, int]], Optional[WeightedDiagram]] = lambda p: None
    expected_commutative_parabolic: Optional[bool] = None
    mf_rank: Optional[str] = None

    @property
    def params(self) -> Tuple[str, ...]:
        return tuple(self.domain)

    @property
    def domain_text(self) -> str:
        """The legal values, as `pvkit list` shows them: "n>=4 even", "n>=2,m>=2"."""
        return ",".join(
            f"{name}>={lowest}" + (f" {_PARITY[lowest % 2]}" if step == 2 else "")
            for name, (lowest, step) in self.domain.items()
        )


@dataclass(frozen=True)
class VerificationReport:
    entry: str
    params: Dict[str, int]
    seed: int
    status: str                      # pass | fail | inconclusive
    dims: Dict[str, int]
    character_dim: int
    qd1: bool
    invariants: Tuple[Dict[str, object], ...]
    regular: Optional[bool]
    diagram: Optional[str]
    diagram_ok: Optional[bool]
    expected_diff: Dict[str, object]
    elapsed_s: float

    def to_dict(self, with_elapsed: bool = True) -> Dict[str, object]:
        out: Dict[str, object] = {
            "entry": self.entry,
            "params": dict(sorted(self.params.items())),
            "seed": self.seed,
            "status": self.status,
            "dims": self.dims,
            "character_dim": self.character_dim,
            "qd1": self.qd1,
            "invariants": list(self.invariants),
            "regular": self.regular,
            "diagram": self.diagram,
            "diagram_ok": self.diagram_ok,
            "expected_diff": self.expected_diff,
        }
        if with_elapsed:
            out["elapsed_s"] = round(self.elapsed_s, 3)
        return out

    def to_json(self, with_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(with_elapsed), sort_keys=True)


# -- small builders ------------------------------------------------------------


def _identity_on(dim: int) -> MatrixRep:
    """One scaling generator on C^dim."""
    return MatrixRep(_eye(dim)[None], 1, ())


def _diagram(type_: str, rank: int, circled_1based: Sequence[int]) -> WeightedDiagram:
    rs = build_root_system(type_, rank)
    return WeightedDiagram(rs, frozenset(i - 1 for i in circled_1based))


# -- entry constructions ---------------------------------------------------------


def _t2_1(p):
    n = p["n"]
    rep = add_torus(so(n), 1)
    return BuildResult(rep, (quadratic_form(_eye(n)),))


def _t2_1_diagram(p):
    n = p["n"]
    if n % 2 == 1:
        return _diagram("B", (n + 1) // 2, [1])
    if n == 4:
        return _diagram("A", 3, [2])  # D3 = A3
    return _diagram("D", n // 2 + 1, [1])


def _t2_2(p):
    n = p["n"]
    return BuildResult(sym2(gl(n)), (determinant(n, "sym"),))


def _t2_3(p):
    n = p["n"]
    return BuildResult(alt2(gl(n)), (pfaffian(n),))


def _t2_4(p):
    n = p["n"]
    rep = add_torus(tensor(sl(n), dual(sl(n))), 1)
    return BuildResult(rep, (determinant(n),))


def _t2_5(p):
    return BuildResult(add_torus(e6_rep(), 1), (freudenthal_cubic(),))


def _t2_6(p):
    n = p["n"]
    rep = tensor(sp(n), gl(2))
    return BuildResult(rep, (pf_gram(n),))


def _t2_7(p):
    rep = add_torus(tensor(sl(4), dual(sp(2))), 1)
    return BuildResult(rep, (determinant(4),))


def _t2_8(p):
    return BuildResult(add_torus(spin_rep(7), 1), (quadratic_form(_eye(8)),))


def _t2_9(p):
    return BuildResult(add_torus(spin_rep(9), 1), (quadratic_form(_eye(16)),))


def _t2_10(p):
    return BuildResult(add_torus(g2_rep(), 1), (quadratic_form(_eye(7)),))


def _t3_1(p):
    n = p["n"]
    s = sl(n)
    rep = direct_sum_shared([(f"sl({n})", [dual(s), s])])
    rep = add_torus(rep, 2)
    return BuildResult(rep, (pair_dot(n),))


def _vector_and_alt_rep(n: int, covector: bool = False) -> MatrixRep:
    """gl(n) + C acting on C^n + AS(n): (v, x) -> (Xv + t v, Xx + xX^T), or
    with covector=True on M(1,n) + AS(n): (v, x) -> (t v - vX, Xx + xX^T)."""
    g = gl(n)
    return direct_sum_shared(
        [
            (f"gl({n})", [dual(g) if covector else g, alt2(g)]),
            ("scaling", [_identity_on(n), None]),
        ]
    )


def _t3_2(p):
    n = p["n"]
    rep = _vector_and_alt_rep(n)
    if n % 2 == 0:
        inv = restrict_to_summand(pfaffian(n), rep.summand_dims, 1)
        return BuildResult(rep, (inv,))
    return BuildResult(rep, (bordered_pfaffian(n),))


def _t3_3(p):
    n = p["n"]
    rep = _vector_and_alt_rep(n, covector=True)
    inv = restrict_to_summand(pfaffian(n), rep.summand_dims, 1)
    return BuildResult(rep, (inv,))


def _neg_424(p):
    n = p["n"]
    rep = _vector_and_alt_rep(n, covector=True)
    return BuildResult(rep, ())


def _vector_and_matrix_rep(n: int, m: int, covector: bool = False) -> MatrixRep:
    """gl(n) + gl(m) on M(n,1) + M(n,m): (v, x) -> (g1 v, g1 x - x g2), or
    with covector=True on M(1,n) + M(n,m): (v, x) -> (-v g1, g1 x - x g2)."""
    g1, g2 = gl(n), gl(m)
    second = f"gl({m})'" if m == n else f"gl({m})"
    return direct_sum_shared(
        [
            (f"gl({n})", [dual(g1) if covector else g1, left_action(g1, m)]),
            (second, [None, right_neg_action(g2, n)]),
        ]
    )


def _t3_4a(p, covector=False):
    n = p["n"]
    rep = _vector_and_matrix_rep(n, n, covector)
    inv = restrict_to_summand(determinant(n), rep.summand_dims, 1)
    return BuildResult(rep, (inv,))


def _t3_4b(p):
    n = p["n"]
    m = n - 1
    rep = _vector_and_matrix_rep(n, m)
    return BuildResult(rep, (det_augmented(n),))


def _neg_425(p):
    n, m = p["n"], p["m"]
    if m <= n <= m + 1:
        raise ValueError("NEG-4.2.5: requires n < m or n > m+1")
    rep = _vector_and_matrix_rep(n, m)
    return BuildResult(rep, ())


def _t3_5(p):
    return _t3_4a(p, covector=True)


def _t3_6(p):
    n = p["n"]
    g2f, spf = gl(2), sp(n)
    rep = direct_sum_shared(
        [
            ("gl(2)", [right_transpose_action(g2f, 1), right_transpose_action(g2f, 2 * n)]),
            (f"sp({n})", [None, left_action(spf, 2)]),
            ("scaling", [_identity_on(2), None]),
        ]
    )
    inv = restrict_to_summand(pf_gram(n), rep.summand_dims, 1)
    return BuildResult(rep, (inv,))


def _t3_7(p):
    n = p["n"]
    g1, s2, g3 = gl(2), sl(2), gl(n)
    rep = direct_sum_shared(
        [
            ("gl(2)", [left_action(g1, 2), None]),
            ("sl(2)", [right_neg_action(s2, 2), left_action(s2, n)]),
            (f"gl({n})", [None, right_neg_action(g3, 2)]),
        ]
    )
    inv = restrict_to_summand(determinant(2), rep.summand_dims, 0)
    return BuildResult(rep, (inv,))


def _shared_gl2_sp_rep(n: int, m: int) -> MatrixRep:
    """gl(n) x gl(2) x sp(m) on M(n,2) + M(2m,2), gl(2) acting on the right."""
    g1, g2, g3 = gl(n), gl(2), sp(m)
    first = f"gl({n})'" if n == 2 else f"gl({n})"
    return direct_sum_shared(
        [
            (first, [left_action(g1, 2), None]),
            ("gl(2)", [right_transpose_action(g2, n), right_transpose_action(g2, 2 * m)]),
            (f"sp({m})", [None, left_action(g3, 2)]),
        ]
    )


def _t3_8(p):
    n, m = p["n"], p["m"]
    rep = _shared_gl2_sp_rep(n, m)
    inv = restrict_to_summand(pf_gram(m), rep.summand_dims, 1)
    return BuildResult(rep, (inv,))


def _neg_429b(p):
    m = p["m"]
    rep = _shared_gl2_sp_rep(2, m)
    invs = (
        restrict_to_summand(determinant(2), rep.summand_dims, 0),
        restrict_to_summand(pf_gram(m), rep.summand_dims, 1),
    )
    return BuildResult(rep, invs)


def _t3_9(p):
    n = p["n"]
    s = sp(n)
    rep = direct_sum_shared([(f"sp({n})", [s, s])])
    rep = add_torus(rep, 2)
    return BuildResult(rep, (symplectic_pair(n),))


def _neg_413(p):
    n = p["n"]
    return BuildResult(add_torus(sp(n), 1), ())


def _neg_415(p):
    n = p["n"]
    return BuildResult(alt2(gl(n)), ())


def _neg_416(p):
    n, m = p["n"], p["m"]
    if n == m:
        raise ValueError("NEG-4.1.6: n and m must differ")
    rep = add_torus(tensor(sl(n), dual(sl(m))), 1)
    return BuildResult(rep, ())


def _neg_418(p):
    n = p["n"]
    rep = add_torus(tensor(sp(n), sl(3)), 1)
    return BuildResult(rep, ())


def _neg_419(p):
    n = p["n"]
    rep = add_torus(tensor(sl(n), dual(sp(2))), 1)
    return BuildResult(rep, ())


def _neg_4112(p):
    return BuildResult(add_torus(half_spin_rep10(), 1), ())


def _neg_421(p):
    n = p["n"]
    s = sl(n)
    rep = direct_sum_shared([(f"sl({n})", [s, s])])
    rep = add_torus(rep, 2)
    return BuildResult(rep, ())


def _neg_428b(p):
    g1, s2, g3 = gl(2), sl(2), gl(2)
    rep = direct_sum_shared(
        [
            ("gl(2)", [left_action(g1, 2), None]),
            ("sl(2)", [right_neg_action(s2, 2), left_action(s2, 2)]),
            ("gl(2)'", [None, right_neg_action(g3, 2)]),
        ]
    )
    invs = tuple(restrict_to_summand(determinant(2), rep.summand_dims, k) for k in (0, 1))
    return BuildResult(rep, invs)


def _neg_4210(p):
    n, m = p["n"], p["m"]
    s1, g2f, s3 = sp(n), gl(2), sp(m)
    second_sp = f"sp({m})'" if m == n else f"sp({m})"
    rep = direct_sum_shared(
        [
            (f"sp({n})", [left_action(s1, 2), None]),
            ("gl(2)", [right_transpose_action(g2f, 2 * n), right_transpose_action(g2f, 2 * m)]),
            (second_sp, [None, left_action(s3, 2)]),
            ("scaling", [None, _identity_on(4 * m)]),
        ]
    )
    invs = (
        restrict_to_summand(pf_gram(n), rep.summand_dims, 0),
        restrict_to_summand(pf_gram(m), rep.summand_dims, 1),
    )
    return BuildResult(rep, invs)


def _neg_4212(p):
    spin8 = spin_rep(8)
    vect = so(8)
    rep = direct_sum_shared([("so(8)", [spin8, vect])])
    rep = add_torus(rep, 2)
    f = quadratic_form(_eye(8))
    invs = tuple(restrict_to_summand(f, rep.summand_dims, k) for k in (0, 1))
    return BuildResult(rep, invs)


# -- the catalog -----------------------------------------------------------------


def _entries() -> tuple[CatalogEntry, ...]:
    e = []
    e.append(CatalogEntry(
        "T2.1", "SO(n) x C* on C^n (quadratic form)",
        ({"n": 3}, {"n": 4}), {"n": (3, 1)}, _t2_1,
        1, True,
        diagram=_t2_1_diagram, expected_commutative_parabolic=True, mf_rank="2",
    ))
    e.append(CatalogEntry(
        "T2.2", "GL(n) on Sym(n) (determinant)",
        ({"n": 2}, {"n": 3}), {"n": (2, 1)}, _t2_2,
        1, True,
        diagram=lambda p: _diagram("C", p["n"], [p["n"]]),
        expected_commutative_parabolic=True, mf_rank="n",
    ))
    e.append(CatalogEntry(
        "T2.3", "GL(2p) on AS(2p) (pfaffian)",
        ({"n": 4}, {"n": 6}), {"n": (4, 2)}, _t2_3,
        1, True,
        diagram=lambda p: _diagram("D", p["n"], [p["n"]]),
        expected_commutative_parabolic=True, mf_rank="p",
    ))
    e.append(CatalogEntry(
        "T2.4", "SL(n) x SL(n)* x C* on M(n) (determinant)",
        ({"n": 2}, {"n": 3}), {"n": (2, 1)}, _t2_4,
        1, True,
        diagram=lambda p: _diagram("A", 2 * p["n"] - 1, [p["n"]]),
        expected_commutative_parabolic=True, mf_rank="n",
    ))
    e.append(CatalogEntry(
        "T2.5", "E6 x C* on C^27 (cubic form)",
        ({},), {}, _t2_5,
        1, True,
        diagram=lambda p: _diagram("E", 7, [7]),
        expected_commutative_parabolic=True, mf_rank="3",
    ))
    e.append(CatalogEntry(
        "T2.6", "GL(2) x Sp(n) on M(2n,2) (Pf of the Gram matrix)",
        ({"n": 2}, {"n": 3}), {"n": (2, 1)}, _t2_6,
        1, True,
        diagram=lambda p: _diagram("C", p["n"] + 2, [2]),
        expected_commutative_parabolic=False, mf_rank="3",
    ))
    e.append(CatalogEntry(
        "T2.7", "SL(4) x Sp(2) x C* on M(4) (determinant)",
        ({},), {}, _t2_7,
        1, True,
        diagram=lambda p: _diagram("C", 6, [4]),
        expected_commutative_parabolic=False, mf_rank="6",
    ))
    e.append(CatalogEntry(
        "T2.8", "Spin(7) x C* on C^8 (quadratic form)",
        ({},), {}, _t2_8,
        1, True,
        diagram=lambda p: _diagram("F", 4, [4]),
        expected_commutative_parabolic=False, mf_rank="2",
    ))
    e.append(CatalogEntry(
        "T2.9", "Spin(9) x C* on C^16 (quadratic form)",
        ({},), {}, _t2_9,
        1, True, mf_rank="3",
    ))
    e.append(CatalogEntry(
        "T2.10", "G2 x C* on C^7 (quadratic form)",
        ({},), {}, _t2_10,
        1, True, mf_rank="2",
    ))

    e.append(CatalogEntry(
        "T3.1", "SL(n)* + SL(n) shared, tori, on M(1,n)+M(n,1) (f = uv)",
        ({"n": 2}, {"n": 3}), {"n": (2, 1)}, _t3_1,
        1, True,
        diagram=lambda p: _diagram("A", p["n"] + 1, [1, p["n"] + 1]),
        mf_rank="3",
    ))
    e.append(CatalogEntry(
        "T3.2a", "SL(n) + AS(n), n even (pfaffian on the 2nd summand)",
        ({"n": 4}, {"n": 6}), {"n": (4, 2)}, _t3_2,
        1, False,
        diagram=lambda p: _diagram("E", 7, [1, 2]) if p["n"] == 6 else None,
        mf_rank="n",
    ))
    e.append(CatalogEntry(
        "T3.2b", "SL(n) + AS(n), n odd (bordered pfaffian)",
        ({"n": 5}, {"n": 7}), {"n": (5, 2)}, _t3_2,
        1, True,
        diagram=lambda p: {5: _diagram("E", 6, [1, 2]), 7: _diagram("E", 8, [1, 2])}.get(p["n"]),
        mf_rank="n",
    ))
    e.append(CatalogEntry(
        "T3.3", "SL(n)* + AS(n), n even (pfaffian on the 2nd summand)",
        ({"n": 4}, {"n": 6}), {"n": (4, 2)}, _t3_3,
        1, False,
        diagram=lambda p: _diagram("D", p["n"] + 1, [1, p["n"] + 1]),
        mf_rank="n",
    ))
    e.append(CatalogEntry(
        "T3.4a", "SL(n) + (SL(n) x SL(n)) on M(n,1)+M(n,n) (det of the 2nd summand)",
        ({"n": 2}, {"n": 3}), {"n": (2, 1)}, _t3_4a,
        1, False,
        diagram=lambda p: {3: _diagram("D", 6, [3, 6]), 4: _diagram("E", 8, [2, 5])}.get(p["n"]),
    ))
    e.append(CatalogEntry(
        "T3.4b", "SL(n) + (SL(n) x SL(n-1)) on M(n,1)+M(n,n-1) (det(v;x))",
        ({"n": 3}, {"n": 4}), {"n": (3, 1)}, _t3_4b,
        1, True,
        diagram=lambda p: {3: _diagram("D", 5, [2, 5]), 4: _diagram("E", 7, [2, 5])}.get(p["n"]),
    ))
    e.append(CatalogEntry(
        "T3.5", "SL(n)* + (SL(n) x SL(n)) on M(1,n)+M(n,n) (det of the 2nd summand)",
        ({"n": 3}, {"n": 4}), {"n": (3, 1)}, _t3_5,
        1, False,
        diagram=lambda p: _diagram("A", 2 * p["n"], [1, p["n"] + 1]),
        mf_rank="2n",
    ))
    e.append(CatalogEntry(
        "T3.6", "SL(2) + (SL(2) x Sp(n)) on M(1,2)+M(2n,2) (Pf of the Gram matrix)",
        ({"n": 2}, {"n": 3}), {"n": (2, 1)}, _t3_6,
        1, False,
        diagram=lambda p: _diagram("C", p["n"] + 3, [1, 3]),
        mf_rank="3",
    ))
    e.append(CatalogEntry(
        "T3.7", "(SL(2) x SL(2)) + (SL(2) x SL(n)) on M(2,2)+M(2,n) (det of the 1st summand)",
        ({"n": 3}, {"n": 4}), {"n": (3, 1)}, _t3_7,
        1, False,
        diagram=lambda p: _diagram("A", p["n"] + 3, [2, 4]),
        mf_rank="5",
    ))
    e.append(CatalogEntry(
        "T3.8", "(SL(n) x SL(2)) + (SL(2) x Sp(m)) on M(n,2)+M(2m,2) (Pf of the Gram matrix)",
        ({"n": 3, "m": 2}, {"n": 4, "m": 2}), {"n": (3, 1), "m": (2, 1)}, _t3_8,
        1, False,
        diagram=lambda p: _diagram("C", p["n"] + p["m"] + 2, [p["n"], p["n"] + 2]),
        mf_rank="6",
    ))
    e.append(CatalogEntry(
        "T3.9", "Sp(n) shared on two copies of C^2n, tori (f = u^T J v)",
        ({"n": 2}, {"n": 3}), {"n": (2, 1)}, _t3_9,
        1, True, mf_rank="4",
    ))

    e.append(CatalogEntry(
        "NEG-4.1.3", "Sp(n) x C* on C^2n: no nontrivial relative invariant",
        ({"n": 2}, {"n": 3}), {"n": (2, 1)}, _neg_413,
        0, None,
        diagram=lambda p: _diagram("C", p["n"] + 1, [1]),
        expected_commutative_parabolic=False,
    ))
    e.append(CatalogEntry(
        "NEG-4.1.5", "GL(n) on AS(n), n odd: no nontrivial relative invariant",
        ({"n": 5}, {"n": 7}), {"n": (5, 2)}, _neg_415,
        0, None,
        diagram=lambda p: _diagram("D", p["n"], [p["n"]]),
        expected_commutative_parabolic=True,
    ))
    e.append(CatalogEntry(
        "NEG-4.1.6", "SL(n) x SL(m)* x C* on M(n,m), n != m: no invariant",
        ({"n": 2, "m": 3}, {"n": 3, "m": 2}), {"n": (2, 1), "m": (2, 1)}, _neg_416,
        0, None,
        diagram=lambda p: _diagram("A", p["n"] + p["m"] - 1, [p["n"]]),
        expected_commutative_parabolic=True,
    ))
    e.append(CatalogEntry(
        "NEG-4.1.8", "SL(3) x Sp(n) x C* on M(2n,3): no invariant",
        ({"n": 2}, {"n": 3}), {"n": (2, 1)}, _neg_418,
        0, None,
        diagram=lambda p: _diagram("C", p["n"] + 3, [3]),
        expected_commutative_parabolic=False,
    ))
    e.append(CatalogEntry(
        "NEG-4.1.9", "SL(n) x Sp(2) x C* on M(n,4), n > 4: no invariant",
        ({"n": 5}, {"n": 6}), {"n": (5, 1)}, _neg_419,
        0, None,
        diagram=lambda p: _diagram("C", p["n"] + 2, [p["n"]]),
        expected_commutative_parabolic=False,
    ))
    e.append(CatalogEntry(
        "NEG-4.1.12", "Spin(10) x C* on a 16-dim half-spin space: no invariant",
        ({},), {}, _neg_4112,
        0, None,
        diagram=lambda p: _diagram("E", 6, [6]),
        expected_commutative_parabolic=True,
    ))
    e.append(CatalogEntry(
        "NEG-4.2.1", "SL(n), tori, on two copies of C^n, n > 2: no invariant",
        ({"n": 3}, {"n": 4}), {"n": (3, 1)}, _neg_421,
        0, None,
        diagram=lambda p: _diagram("D", p["n"] + 1, [p["n"], p["n"] + 1]),
    ))
    e.append(CatalogEntry(
        "NEG-4.2.4", "SL(n)* + AS(n), n odd: no invariant",
        ({"n": 5}, {"n": 7}), {"n": (5, 2)}, _neg_424,
        0, None,
        diagram=lambda p: _diagram("D", p["n"] + 1, [1, p["n"] + 1]),
    ))
    e.append(CatalogEntry(
        "NEG-4.2.5", "SL(n) + (SL(n) x SL(m)), n < m or n > m+1: no invariant",
        ({"n": 2, "m": 3}, {"n": 4, "m": 2}), {"n": (2, 1), "m": (2, 1)}, _neg_425,
        0, None,
        diagram=lambda p: {
            (4, 2): _diagram("E", 6, [2, 5]),
            (5, 2): _diagram("E", 7, [2, 3]),
            (6, 2): _diagram("E", 8, [2, 3]),
        }.get((p["n"], p["m"])) if p["n"] != 3 else _diagram("D", p["m"] + 3, [p["m"], p["m"] + 3]),
    ))
    e.append(CatalogEntry(
        "NEG-4.2.8b", "(SL(2) x SL(2)) + (SL(2) x SL(2)): two determinants",
        ({},), {}, _neg_428b,
        2, None,
        diagram=lambda p: _diagram("A", 5, [2, 4]),
    ))
    e.append(CatalogEntry(
        "NEG-4.2.9b", "(SL(2) x SL(2)) + (SL(2) x Sp(m)): two invariants",
        ({"m": 2}, {"m": 3}), {"m": (2, 1)}, _neg_429b,
        2, None,
        diagram=lambda p: _diagram("C", p["m"] + 4, [2, 4]),
    ))
    e.append(CatalogEntry(
        "NEG-4.2.10", "(Sp(n) x SL(2)) + (SL(2) x Sp(m)): two invariants",
        ({"n": 2, "m": 2}, {"n": 2, "m": 3}), {"n": (2, 1), "m": (2, 1)}, _neg_4210,
        2, None,
    ))
    e.append(CatalogEntry(
        "NEG-4.2.12", "Spin(8) + SO(8) shared on C^8 + C^8: two quadratic forms",
        ({},), {}, _neg_4212,
        2, None,
        diagram=lambda p: _diagram("E", 6, [1, 6]),
    ))
    return tuple(e)


_CATALOG: tuple[CatalogEntry, ...] | None = None


def catalog() -> tuple[CatalogEntry, ...]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _entries()
    return _CATALOG


def get_entry(entry_id: str) -> CatalogEntry:
    for entry in catalog():
        if entry.id == entry_id:
            return entry
    raise KeyError(f"unknown catalog entry {entry_id!r}")


# (entry id, sorted params) -> the build and its `_diagram_check`, neither
# of which depends on the seed.
_BUILD_CACHE: Dict[tuple, tuple[BuildResult, tuple]] = {}


def _built(entry: CatalogEntry, params: Dict[str, int]) -> tuple[BuildResult, tuple]:
    """(build, diagram check) at one parameter choice, made once."""
    key = (entry.id, tuple(sorted(params.items())))
    got = _BUILD_CACHE.get(key)
    if got is None:
        built = entry.build(params)
        got = _BUILD_CACHE[key] = (built, _diagram_check(entry, params, built.rep))
    return got


def _build(entry: CatalogEntry, params: Dict[str, int]) -> BuildResult:
    return _built(entry, params)[0]


def _check_params(entry: CatalogEntry, params: Dict[str, int]) -> Dict[str, int]:
    """params with each value as a Python int in the entry's domain; raises
    before any build."""
    if set(params) != set(entry.params):
        raise ValueError(
            f"{entry.id} expects parameters {entry.params}, got {tuple(params)}"
        )
    ints = {}
    for name, value in params.items():
        try:
            ints[name] = operator.index(value)  # a float, even 4.0, is refused
        except TypeError:
            raise TypeError(
                f"{entry.id}: parameter {name} must be an integer, got {value!r}"
            ) from None
    for name, (lowest, step) in entry.domain.items():
        if ints[name] < lowest:
            raise ValueError(f"{entry.id}: {name} must be >= {lowest}")
        if (ints[name] - lowest) % step:
            raise ValueError(f"{entry.id}: {name} must be {_PARITY[lowest % 2]}")
    return ints


def _diagram_check(entry: CatalogEntry, params, rep: MatrixRep):
    """(repr of the diagram, dimension cross-check), or (None, None)."""
    wd = entry.diagram(params)
    if wd is None:
        return None, None
    grading = compute_grading(wd)
    comp_dims = sorted(c.dimension for c in irreducible_components(grading))
    ok = (
        grading.dim(0) == rep.algebra_dim
        and comp_dims == sorted(rep.summand_dims)
        and len(comp_dims) == len(wd.circled)
    )
    if entry.expected_commutative_parabolic is not None and len(wd.circled) == 1:
        ok = ok and (
            is_commutative_parabolic(grading) == entry.expected_commutative_parabolic
        )
    return repr(wd), ok


def run(entry_id: str, params: Optional[Dict[str, int]] = None, seed: int = 0) -> VerificationReport:
    """Verify one catalog entry at one parameter choice; deterministic."""
    entry = get_entry(entry_id)
    params = _check_params(entry, params or entry.defaults[0])
    start = time.monotonic()
    built, (diagram_repr, diagram_ok) = _built(entry, params)
    report: AnalysisReport = classify(built.rep, built.invariants, seed=seed)
    diff: Dict[str, object] = {}
    if not report.prehomogeneous:
        status = "inconclusive"
        diff["prehomogeneous"] = {"expected": True, "observed": False}
    else:
        if report.character_dim != entry.expected_character_dim:
            diff["character_dim"] = {
                "expected": entry.expected_character_dim,
                "observed": report.character_dim,
            }
        if report.qd1 != (entry.expected_character_dim == 1):
            diff["qd1"] = {"expected": not report.qd1, "observed": report.qd1}
        if entry.expected_regular is not None and report.regular != entry.expected_regular:
            diff["regular"] = {
                "expected": entry.expected_regular,
                "observed": report.regular,
            }
        for chk in report.invariant_checks:
            if not (chk.verified and chk.lambda_nonzero):
                diff[f"invariant:{chk.name}"] = {
                    "verified": chk.verified,
                    "lambda_nonzero": chk.lambda_nonzero,
                }
        if diagram_ok is False:
            diff["diagram"] = {
                "expected": "grading dims match the algebra and the summands",
                "observed": False,
            }
        status = "inconclusive" if report.character_dim < 0 else "fail" if diff else "pass"
    dims = {
        "algebra": report.algebra_dim,
        "space": report.space_dim,
        "isotropy": report.isotropy_dim,
    }
    inv_dicts = tuple(
        {
            "name": chk.name,
            "verified": chk.verified,
            "lambda_nonzero": chk.lambda_nonzero,
            "points": chk.points_checked,
        }
        for chk in report.invariant_checks
    )
    return VerificationReport(
        entry.id, params, seed, status, dims,
        report.character_dim, report.qd1, inv_dicts, report.regular,
        diagram_repr, diagram_ok, diff, time.monotonic() - start,
    )


_FILTERS = {
    "table2": lambda e: e.id.startswith("T2."),
    "table3": lambda e: e.id.startswith("T3."),
    "negatives": lambda e: e.id.startswith("NEG-"),
    "all": lambda e: True,
}


def run_all(filter_name: str = "all", seed: int = 0):
    """Run every selected entry at its default parameter choices.

    Returns (summary dict, reports).  The summary is timing-free and sorted
    by entry id and parameters, so identical seeds give identical bytes.
    """
    if filter_name not in _FILTERS:
        raise ValueError(f"unknown filter {filter_name!r}")
    keep = _FILTERS[filter_name]
    tasks = [
        (entry.id, dict(params))
        for entry in catalog()
        if keep(entry)
        for params in entry.defaults
    ]
    reports = [run(tid, tparams, seed) for tid, tparams in tasks]
    reports.sort(key=lambda r: (_entry_sort_key(r.entry), sorted(r.params.items())))
    counts = {"pass": 0, "fail": 0, "inconclusive": 0, "unsupported": 0}
    for r in reports:
        counts[r.status] += 1
    summary = {
        "filter": filter_name,
        "seed": seed,
        "counts": counts,
        "entries": [r.to_dict(with_elapsed=False) for r in reports],
    }
    return summary, reports


def _entry_sort_key(entry_id: str):
    """Natural sort so T2.10 follows T2.9."""
    return [int(tok) if tok.isdigit() else tok for tok in re.split(r"(\d+)", entry_id)]


def summary_json(summary: dict) -> str:
    """Canonical byte-stable JSON for a run_all summary."""
    return json.dumps(summary, sort_keys=True, separators=(",", ":"))
