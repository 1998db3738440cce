"""Analyzer criteria: certificates, isotropy, characters, regularity."""

from fractions import Fraction as Q
from itertools import islice

import numpy as np
import pytest

from helpers import (
    act_reference,
    action_matrix,
    basis,
    combine_reference,
    commutator_sketch_reference,
    det,
    hessian_matrix,
    isotropy_algebra,
    pullback_reference,
    sequential_certified_points,
    sequential_further_draws,
)
from pvkit.analyzer import (
    LAMBDA_POINTS,
    MAX_DRAWS,
    ZeroAtTestPointError,
    character_space_dim,
    classify,
    hessian_regularity,
    sample_certified_points,
    verify_relative_invariant,
)
from pvkit.invariants import (
    InvariantPolynomial,
    determinant,
    pfaffian,
    quadratic_form,
    restrict_to_summand,
)
from pvkit.linalg import P, DetRng, Matrix, full_rank_mod_p, rank
from pvkit.reps import (
    MatrixRep,
    add_torus,
    alt2,
    direct_sum_shared,
    dual,
    gl,
    sl,
    so,
    sp,
    spin_rep,
    sym2,
)


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def torus_line() -> MatrixRep:
    return MatrixRep(_eye(1)[None], 1, ("torus",))


def scaling(n: int) -> MatrixRep:
    """One generator scaling C^n, as a summand action for direct_sum_shared."""
    return MatrixRep(_eye(n)[None], 1, ())


def test_action_matrix_torus():
    m = action_matrix(torus_line(), [Q(1)])
    assert m.tolists() == [[Q(1)]]
    assert rank(m) == 1


def test_action_matrix_gl_on_sym_at_identity():
    n = 3
    r = sym2(gl(n))
    ident_coords = [Q(1) if i == j else Q(0) for i in range(n) for j in range(i, n)]
    assert rank(action_matrix(r, ident_coords)) == n * (n + 1) // 2


def test_action_matrix_at_zero():
    r = sl(3)
    m = action_matrix(r, [Q(0)] * 3)
    assert m.is_zero()


def test_zero_rep_is_not_prehomogeneous():
    zero = MatrixRep(np.zeros((1, 1, 1), dtype=np.int64), 1, ("zero",))
    assert sample_certified_points(zero, seed=0) is None  # no raise: no point


def test_isotropy_dims_vector_plus_alt():
    # gl(3) + scaling on C^3 + AS(3): algebra 10, space 6, isotropy 4
    n = 3
    g = gl(n)
    rep = direct_sum_shared(
        [
            (f"gl({n})", [g, alt2(g)]),
            ("scaling", [scaling(n), None]),
        ]
    )
    assert rep.algebra_dim == 10 and rep.space_dim == 6
    p = sample_certified_points(rep, seed=0)
    assert isotropy_algebra(rep, p).dim == 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_isotropy_so_plus_torus(n):
    rep = add_torus(so(n), 1)
    p = sample_certified_points(rep, seed=0)
    iso = isotropy_algebra(rep, p)
    assert iso.dim == (n - 1) * (n - 2) // 2
    assert iso.is_bracket_closed()


@pytest.mark.parametrize("rep, char_dim", [(gl(1), 1), (add_torus(so(2), 1), 2)])
def test_empty_subalgebras_keep_their_shape(rep, char_dim):
    # abelian, so the derived subalgebra is 0; d == n, so is the isotropy
    d = rep.algebra_dim
    assert d == rep.space_dim
    p = sample_certified_points(rep, seed=0)
    for sub in (rep.derived_subalgebra(), isotropy_algebra(rep, p)):
        assert sub.coefficient_basis.shape == (0, d)
        assert sub.dim == 0
    assert character_space_dim(rep, p) == char_dim


@pytest.mark.parametrize("n", [2, 3])
def test_isotropy_shared_symplectic_pair(n):
    s = sp(n)
    rep = add_torus(direct_sum_shared([(f"sp({n})", [s, s])]), 2)
    p = sample_certified_points(rep, seed=0)
    assert isotropy_algebra(rep, p).dim == (n - 1) ** 2 + n * (n - 1) + 1


def test_character_dim_zero_for_symplectic_vector():
    rep = add_torus(sp(2), 1)
    p = sample_certified_points(rep, seed=0)
    assert character_space_dim(rep, p) == 0


def test_character_dim_two_for_spin8_vector_pair():
    from pvkit.reps import spin_rep

    spin8 = spin_rep(8)
    rep = add_torus(
        direct_sum_shared(
            [("so(8)", [spin8, so(8)])]
        ),
        2,
    )
    p = sample_certified_points(rep, seed=0)
    assert character_space_dim(rep, p) == 2


def test_character_dim_one_for_sym_det():
    r = sym2(gl(3))
    p = sample_certified_points(r, seed=0)
    assert character_space_dim(r, p) == 1


def test_lambda_det_on_sym_is_twice_trace():
    r = sym2(gl(3))
    f = determinant(3, "sym")
    pts = sequential_certified_points(r, 10, 0)
    ok, lam, _ = verify_relative_invariant(r, f, pts)
    assert ok
    assert list(lam) == [2 * b.trace() for b in basis(gl(3))]


def test_lambda_quadratic_under_so_plus_torus():
    n = 4
    rep = add_torus(so(n), 1)
    f = quadratic_form(_eye(n))
    pts = sequential_certified_points(rep, 10, 0)
    ok, lam, _ = verify_relative_invariant(rep, f, pts)
    assert ok
    assert list(lam) == [Q(0)] * so(n).algebra_dim + [Q(2)]


def test_lambda_pfaffian_is_trace():
    r = alt2(gl(4))
    f = pfaffian(4)
    pts = sequential_certified_points(r, 10, 0)
    ok, lam, _ = verify_relative_invariant(r, f, pts)
    assert ok
    assert list(lam) == [b.trace() for b in basis(gl(4))]


def test_lambda_constant_across_more_points():
    r = sym2(gl(2))
    f = determinant(2, "sym")
    pts = sequential_certified_points(r, 14, 5)
    ok, _, _ = verify_relative_invariant(r, f, pts)
    assert ok


def test_verify_raises_on_zero_point():
    r = sym2(gl(2))
    f = determinant(2, "sym")
    degenerate = (1, 0, 0)  # det vanishes here
    with pytest.raises(ZeroAtTestPointError):
        verify_relative_invariant(r, f, [degenerate])


def test_hessian_regularity_quadratic():
    n = 4
    rep = add_torus(so(n), 1)
    f = quadratic_form(_eye(n))
    p = (1, 0, 0, 0)
    assert rank(action_matrix(rep, p)) == n  # p is generic
    assert hessian_regularity(f, rep, p, _gradient(f, p))


@pytest.mark.parametrize("n", [2, 3])
def test_hessian_regularity_det_on_sym(n):
    r = sym2(gl(n))
    f = determinant(n, "sym")
    ident = tuple(int(i == j) for i in range(n) for j in range(i, n))
    assert rank(action_matrix(r, ident)) == r.space_dim  # the identity is generic
    assert hessian_regularity(f, r, ident, _gradient(f, ident))


def test_hessian_degenerate_for_partial_invariant():
    # pfaffian seen on C^n + AS(n) ignores the vector part: not regular
    n = 4
    g = gl(n)
    rep = direct_sum_shared(
        [
            (f"gl({n})", [dual(g), alt2(g)]),
            ("scaling", [scaling(n), None]),
        ]
    )
    f = restrict_to_summand(pfaffian(n), rep.summand_dims, 1)
    p = sample_certified_points(rep, seed=0)
    assert hessian_regularity(f, rep, p, _gradient(f, p)) is False


def test_a_constant_invariant_is_not_regular():
    """A nonzero constant is relatively invariant with character 0, and its
    Hessian is 0: Euler's identity cannot give its value, so the stage
    answers without it, and a run reports the space not regular."""
    rep = sym2(gl(2))
    const = InvariantPolynomial(3, "five", "poly", np.zeros((1, 0), dtype=np.int64), (5,))
    assert hessian_regularity(const, rep, (1, 0, 1), (0, 0, 0)) is False
    report = classify(rep, [const], seed=0)
    (chk,) = report.invariant_checks
    assert chk.verified and not chk.lambda_nonzero
    assert report.character_dim == 1 and report.regular is False


def test_a_squared_invariant_is_reported_like_a_fundamental_one():
    """q^2, for the quadratic form q of SO(4) x C*, is relatively invariant
    with twice q's character, but it is not squarefree, so not the
    fundamental invariant.  A run does not check squarefreeness: q^2 is
    reported verified, with a nonzero character, character dimension 1
    and regular, exactly as q is.  A squarefreeness certificate (ROADMAP
    item 3) must change this report."""
    n = 4
    rep = add_torus(so(n), 1)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    q2 = InvariantPolynomial(
        n, "q^2", "poly", [[i, i, j, j] for i, j in pairs],
        tuple(1 if i == j else 2 for i, j in pairs),
    )
    point = (1, 2, 0, -1)
    assert q2(point) == quadratic_form(_eye(n))(point) ** 2
    square, plain = (classify(rep, [f], seed=0) for f in (q2, quadratic_form(_eye(n))))
    (chk,), (base,) = square.invariant_checks, plain.invariant_checks
    assert chk.verified and chk.lambda_nonzero
    assert chk.lam == tuple(2 * c for c in base.lam)
    assert square.character_dim == 1 and square.regular is True
    assert (square.qd1, square.regular) == (plain.qd1, plain.regular)


def test_stage_functions_reject_non_integer_coordinates():
    """Points are tuples of ints: a Fraction or float coordinate is a
    TypeError in every stage function, never truncated (numpy would read
    (1/2, 3/2, 1) as the certified point (0, 1, 1)).  The Hessian is given
    a valid gradient, so its TypeError comes from the coordinate, and a
    Fraction or float in the gradient is one too."""
    r = sym2(gl(2))
    f = determinant(2, "sym")
    assert rank(action_matrix(r, [0, 1, 1])) == 3  # the truncation is generic
    grad = _gradient(f, (1, 0, 1))
    assert hessian_regularity(f, r, (1, 0, 1), grad)
    for point in [(Q(1, 2), Q(3, 2), 1), (Q(1), 0, Q(1)), (1.0, 0, 1)]:
        with pytest.raises(TypeError):
            character_space_dim(r, point)
        with pytest.raises(TypeError):
            verify_relative_invariant(r, f, [(1, 0, 1), point])
        with pytest.raises(TypeError):
            hessian_regularity(f, r, point, grad)
    for bad in ([Q(1), 0, Q(1)], [1.0, 0, 1]):
        with pytest.raises(TypeError):
            hessian_regularity(f, r, (1, 0, 1), bad)


def test_hessian_dichotomy_at_ten_points():
    """det Hess of a relative invariant vanishes at all points or none."""
    cases = [
        (sym2(gl(3)), determinant(3, "sym")),
        (alt2(gl(4)), pfaffian(4)),
        (add_torus(so(4), 1), quadratic_form(_eye(4))),
    ]
    for rep, f in cases:
        pts = sequential_certified_points(rep, 10, 3)
        flags = {det(hessian_matrix(f, p)[0]) != 0 for p in pts}
        assert len(flags) == 1


def test_character_dim_stable_across_points():
    r = sym2(gl(3))
    pts = sequential_certified_points(r, 5, 9)
    dims = {character_space_dim(r, p) for p in pts}
    assert dims == {1}


def test_classify_assembles_report():
    rep = classify(sym2(gl(3)), [determinant(3, "sym")], seed=0)
    assert rep.prehomogeneous
    assert rep.algebra_dim - rep.isotropy_dim == rep.space_dim
    assert rep.qd1 and rep.character_dim == 1
    assert rep.regular is True
    chk = rep.invariant_checks[0]
    assert chk.verified and chk.lambda_nonzero and chk.points_checked >= 10


def test_classify_samples_once_and_decides_regularity_at_first_point(monkeypatch):
    """The Hessian runs at the first point of the invariance check, on the
    gradient that check returned.  (The isotropy dimension comes from the
    point certificate by rank-nullity; the package has no kernel to call,
    see `test_tooling`.)"""
    from pvkit import analyzer

    first, seen, returned, given = [], [], [], []

    def recording_verify(rep, f, points):
        first.append(points[0])
        returned.append(verify_relative_invariant(rep, f, points))
        return returned[-1]

    def recording_hessian(f, rep, point, grad):
        seen.append(point)
        given.append(grad)
        return hessian_regularity(f, rep, point, grad)

    monkeypatch.setattr(analyzer, "verify_relative_invariant", recording_verify)
    monkeypatch.setattr(analyzer, "hessian_regularity", recording_hessian)
    report = classify(sym2(gl(3)), [determinant(3, "sym")], seed=0)
    assert report.regular is True
    assert len(seen) == 1 and seen[0] is first[0]
    assert all(type(c) is int for c in seen[0])
    assert given == [returned[-1][2]] and all(type(c) is int for c in given[0])


def test_classify_builds_no_structure_tensor_derived_subalgebra_or_kernel(monkeypatch):
    """The report of a run comes from commutators at the certified point
    alone, so it is unchanged with the coefficient-space tools disabled.
    (The package has no kernel to disable, see `test_tooling`.)"""
    expected = classify(sym2(gl(3)), [determinant(3, "sym")], seed=0)

    def forbidden(*args, **kwargs):
        raise AssertionError("called during a run")

    monkeypatch.setattr(MatrixRep, "structure_tensor", forbidden)
    monkeypatch.setattr(MatrixRep, "derived_subalgebra", forbidden)
    assert classify(sym2(gl(3)), [determinant(3, "sym")], seed=0) == expected


@pytest.mark.parametrize("which", ["sym_det", "alt_pfaffian", "so_quadratic"])
def test_commutators_at_the_point_are_exact_beyond_int64(which):
    """Generators scaled by 2**40 put the commutator products at the point
    past int64, into Python ints; the character dimension and the
    invariance result do not change."""
    from pvkit.analyzer import _commutator_gram

    if which == "sym_det":
        rep, f = sym2(gl(3)), determinant(3, "sym")
    elif which == "alt_pfaffian":
        rep, f = alt2(gl(4)), pfaffian(4)
    else:
        rep, f = add_torus(so(4), 1), quadratic_form(_eye(4))
    # T and den both times 2**40: the same generators
    big = MatrixRep(rep.T.astype(object) * 2**40, rep.den * 2**40, rep.labels)
    assert big.T.dtype == object
    pts = sequential_certified_points(rep, LAMBDA_POINTS, 4)
    assert sample_certified_points(big, seed=4) == pts[0]
    assert _commutator_gram(big, pts[0]).dtype == object
    assert character_space_dim(big, pts[0]) == character_space_dim(rep, pts[0])
    assert verify_relative_invariant(big, f, pts) == verify_relative_invariant(rep, f, pts)


def test_classify_inconclusive_when_not_prehomogeneous():
    zero = MatrixRep(np.zeros((1, 1, 1), dtype=np.int64), 1, ("zero",))
    rep = classify(zero, [], seed=0)
    assert not rep.prehomogeneous
    assert "inconclusive" in rep.notes


def test_classify_records_unverifiable_invariant():
    """An invariant is reported unverified at 0 points when the stream has
    too few distinct draws where it does not vanish: on the line, x is
    relatively invariant, the certified point is one of 6 nonzero draws,
    and the further draws add the other 5 and 0, which is skipped."""
    x = InvariantPolynomial(1, "x", "poly", [[0]], (1,))
    rep = classify(torus_line(), [x], seed=0)
    assert rep.prehomogeneous and rep.character_dim == 1
    (chk,) = rep.invariant_checks
    assert not chk.verified and chk.points_checked == 0
    assert rep.regular is None
    assert rep.notes == (
        "seeded point; x unverified: only 6 points off its zero set in "
        f"{MAX_DRAWS} samples (inconclusive)"
    )


def test_classify_reports_an_invariant_vanishing_at_a_certified_point(monkeypatch):
    """A nonzero relative invariant vanishes nowhere on the open orbit, so a
    form that vanishes at a certified point is reported unverified at 0
    points instead of being checked at points off its zero set.  The run's
    sampler is made to return (1, 0, 1), a zero of x01; the zero form
    vanishes at every seeded point."""
    from pvkit import analyzer

    seeded = analyzer.sample_certified_points
    monkeypatch.setattr(analyzer, "sample_certified_points", lambda rep, seed=0: (1, 0, 1))
    off_diagonal = InvariantPolynomial(3, "x01", "poly", [[1]], (1,))
    rep = classify(sym2(gl(2)), [off_diagonal], seed=0)
    assert rep.prehomogeneous
    (chk,) = rep.invariant_checks
    assert not chk.verified and chk.points_checked == 0
    assert "x01 unverified: x01 vanishes on the open orbit" in rep.notes
    monkeypatch.setattr(analyzer, "sample_certified_points", seeded)
    zero_inv = InvariantPolynomial(3, "zero", "poly", np.zeros((0, 1)))
    rep = classify(sym2(gl(2)), [zero_inv], seed=0)
    (chk,) = rep.invariant_checks
    assert rep.prehomogeneous and not chk.verified and chk.points_checked == 0
    assert "zero unverified: zero vanishes on the open orbit" in rep.notes


@pytest.mark.parametrize("kind,grid", [("det", [[0, 1], [0, 1]]), ("pf", [[0, 1], [1, 0]])])
def test_classify_reports_a_grid_singular_at_a_certified_point(kind, grid, monkeypatch):
    """A det or Pf grid singular at a certified point has value 0 and no
    gradient, so the stage raises ZeroAtTestPointError, and a run reports
    the invariant unverified.  The det grid has two equal rows, so it is
    singular everywhere; Pf(x01) vanishes at (1, 0, 1), which the run's
    sampler is made to return."""
    from pvkit import analyzer

    rep, f = sym2(gl(2)), InvariantPolynomial(3, f"{kind} grid", kind, grid)
    with pytest.raises(ZeroAtTestPointError):
        verify_relative_invariant(rep, f, [(1, 0, 1)])
    if kind == "pf":
        monkeypatch.setattr(analyzer, "sample_certified_points", lambda rep, seed=0: (1, 0, 1))
    report = classify(rep, [f], seed=0)
    (chk,) = report.invariant_checks
    assert report.prehomogeneous and not chk.verified and chk.points_checked == 0
    assert f"{f.name} unverified: {f.name} vanishes on the open orbit" in report.notes


def _recording_stacks(monkeypatch) -> dict:
    """Patch values_and_gradients, in the analyzer and in invariants (so
    that `value_and_gradient`, the stack of one, is seen too), to record,
    per invariant name, the points and values of each stack it evaluates,
    and to assert that every coordinate it is given is a Python int."""
    from pvkit import analyzer, invariants

    stacks: dict = {}
    stacked = invariants.values_and_gradients

    def recorded(f, points):
        assert all(type(c) is int for p in points for c in p), points
        values, grads = stacked(f, points)
        stacks.setdefault(f.name, []).append((list(points), values.tolist()))
        return values, grads

    for module in (analyzer, invariants):
        monkeypatch.setattr(module, "values_and_gradients", recorded)
    return stacks


def test_classify_certifies_each_draw_once_and_evaluates_once_per_point(monkeypatch):
    """On an entry with two invariants: the first draw passes, so one orbit
    matrix reaches the mod-P kernel, and each invariant is evaluated in
    stacks of exactly LAMBDA_POINTS distinct points: the certified point
    and the next further draws, the same for both invariants.  An
    invariant is evaluated again only after a stack where it vanished at a
    further draw, without those draws (the first determinant, at seed 0).
    Its gradient at the certified point, for the character certificate,
    comes from the stack that verified it: no other evaluation is made."""
    from pvkit import analyzer
    from pvkit.catalog import _build, get_entry

    built = _build(get_entry("NEG-4.2.8b"), {})
    orbit_shape = (built.rep.algebra_dim, built.rep.space_dim)
    certified = []

    def recording_kernel(a):
        # the character certificate's two matrices have other shapes
        if np.shape(a) == orbit_shape:
            certified.append(np.shape(a))
        return full_rank_mod_p(a)

    monkeypatch.setattr(analyzer, "full_rank_mod_p", recording_kernel)
    stacks = _recording_stacks(monkeypatch)
    report = classify(built.rep, built.invariants, seed=0)
    assert report.character_dim == 2
    assert all(c.verified for c in report.invariant_checks)
    assert certified == [orbit_shape]
    first = sample_certified_points(built.rep, seed=0)
    names = [f.name for f in built.invariants]
    assert list(stacks) == names and [len(stacks[n]) for n in names] == [2, 1]
    opening = [runs[0][0] for runs in stacks.values()]
    assert opening[0] == opening[1]  # each invariant reads the same further draws
    for runs in stacks.values():
        for (points, values), (after, _) in zip(runs, runs[1:]):
            zeros = [p for p, v in zip(points, values) if v == 0]
            assert zeros and first not in zeros
            assert after[: LAMBDA_POINTS - len(zeros)] == [p for p in points if p not in zeros]
        for points, _ in runs:
            assert len(points) == len(set(points)) == LAMBDA_POINTS and points[0] == first
        assert 0 not in runs[-1][1]
    assert sum(map(len, stacks.values())) == 3  # no stack of one for a gradient


def test_a_regular_run_evaluates_its_invariant_only_in_checking_stacks(monkeypatch):
    """T2.3 at n = 8 (Pf on AS(8), regular): the character certificate and
    the Hessian read the gradient at the certified point from the stack
    that verified Pf, so Pf is evaluated in stacks of LAMBDA_POINTS points
    only, with no stack of one beside them."""
    from pvkit.catalog import _build, get_entry

    built = _build(get_entry("T2.3"), {"n": 8})
    (f,) = built.invariants
    stacks = _recording_stacks(monkeypatch)
    report = classify(built.rep, built.invariants, seed=0)
    assert report.character_dim == 1 and report.regular is True
    assert list(stacks) == [f.name] and stacks[f.name]
    assert all(len(points) == LAMBDA_POINTS for points, _ in stacks[f.name])


def test_classify_checks_invariants_at_the_stream_draws_after_the_certified_point(
    monkeypatch,
):
    """On every default build at seeds 0-5, each stack that checks an
    invariant holds the certified point and then the distinct draws of the
    seeded stream after it, drawn one at a time (`sequential_further_draws`),
    without the draws where an earlier stack of that invariant vanished."""
    stacks = _recording_stacks(monkeypatch)
    checked = skips = 0
    for name, built in _default_builds():
        if not built.invariants:
            continue
        for seed in range(6):
            stacks.clear()
            classify(built.rep, built.invariants, seed=seed)
            first = sequential_certified_points(built.rep, 1, seed)[0]
            zeros = {p for runs in stacks.values() for points, values in runs
                     for p, v in zip(points, values) if v == 0}
            reference = list(islice(sequential_further_draws(built.rep.space_dim, seed, first),
                                    LAMBDA_POINTS - 1 + len(zeros)))
            skips += bool(zeros)
            for runs in stacks.values():
                skipped: set = set()
                for points, values in runs:
                    want = [p for p in reference if p not in skipped][: LAMBDA_POINTS - 1]
                    assert points == [first] + want, (name, seed)
                    skipped.update(p for p, v in zip(points, values) if v == 0)
                    checked += 1
    assert checked >= 6 * 29 and skips


def test_every_default_invariant_satisfies_euler_at_the_certified_point():
    """`hessian_regularity` takes f(x) = grad . x / deg f from the gradient
    that verified f: for every declared invariant of every default build
    (det on M and on Sym, Pf, the bordered Pf, det(v;x), the quadratic and
    bilinear forms, the Freudenthal cubic), verified at the seed-0
    certified point, deg f divides grad . x, and the quotient is the value
    of f's stack there."""
    from pvkit.invariants import values_and_gradients

    kinds = set()
    for name, built in _default_builds():
        point = sample_certified_points(built.rep, seed=0)
        for f in built.invariants:
            ok, _, grad = verify_relative_invariant(built.rep, f, [point])
            (value,), _ = values_and_gradients(f, [point])
            euler, rest = divmod(sum(g * c for g, c in zip(grad, point)), f.degree)
            assert ok and rest == 0 and euler == value != 0, (name, f.name)
            kinds.add((f.kind, f.degree))
    assert {kind for kind, _ in kinds} == {"det", "pf", "poly"}
    assert ("poly", 3) in kinds and ("poly", 2) in kinds


def test_classify_skips_a_further_draw_where_the_invariant_vanishes(monkeypatch):
    """At seed 0, det on Sym(2) vanishes at one of the further draws of
    GL(2) on Sym(2).  Off the open orbit a zero is no evidence, so the stage
    runs again on the certified point and the next LAMBDA_POINTS - 1 draws
    where det does not vanish, and the invariant is verified at
    LAMBDA_POINTS points."""
    from pvkit import analyzer
    from pvkit.catalog import _build, get_entry

    built = _build(get_entry("T2.2"), {"n": 2})
    (f,) = built.invariants
    calls = []

    def recording_verify(rep, f, points):
        calls.append(list(points))
        return verify_relative_invariant(rep, f, points)

    monkeypatch.setattr(analyzer, "verify_relative_invariant", recording_verify)
    report = classify(built.rep, [f], seed=0)
    (chk,) = report.invariant_checks
    assert chk.verified and chk.points_checked == LAMBDA_POINTS
    assert report.notes == "seeded point" and report.regular is True
    first, second = calls
    zeros = [p for p in first if f(p) == 0]
    assert len(zeros) == 1 and zeros[0] != first[0]
    with pytest.raises(ZeroAtTestPointError) as exc:
        verify_relative_invariant(built.rep, f, first)
    assert exc.value.points == tuple(zeros)
    assert second[:-1] == [p for p in first if p not in zeros]
    assert second[-1] not in first and f(second[-1]) != 0
    assert verify_relative_invariant(built.rep, f, second)[:2] == (True, chk.lam)


def _counting_gram(monkeypatch) -> list:
    """Patch analyzer._commutator_gram to record each (rep, point) it builds."""
    from pvkit import analyzer

    built, gram = [], analyzer._commutator_gram

    def counted(rep, point):
        built.append((rep, point))
        return gram(rep, point)

    monkeypatch.setattr(analyzer, "_commutator_gram", counted)
    return built


def test_classify_builds_no_gram_matrix_when_the_bounds_meet(monkeypatch):
    """Two verified invariants whose gradients have rank 2 and a sketch of
    rank n - 2 prove the character dimension 2 with no Gram matrix."""
    from pvkit.catalog import _build, get_entry

    built = _build(get_entry("NEG-4.2.8b"), {})
    grams = _counting_gram(monkeypatch)
    report = classify(built.rep, built.invariants, seed=0)
    assert len(report.invariant_checks) == 2
    assert all(c.verified for c in report.invariant_checks)
    assert report.character_dim == 2 and grams == []


def test_every_default_run_proves_its_character_dimension_without_the_gram_matrix(
    monkeypatch,
):
    """The certificate of `character_space_dim` holds on all 60 default runs
    at seeds 0-5, so the reports come from it alone (about 2 s)."""
    from pvkit.catalog import run_all

    grams = _counting_gram(monkeypatch)
    for seed in range(6):
        summary, reports = run_all("all", seed=seed)
        assert len(reports) == 60 and summary["counts"]["fail"] == 0
        assert grams == [], seed


def _sym_det_covector():
    rep, f = sym2(gl(3)), determinant(3, "sym")
    point = sample_certified_points(rep, seed=0)
    return rep, point, _gradient(f, point)


def _gradient(f: InvariantPolynomial, point) -> np.ndarray:
    from pvkit.invariants import value_and_gradient

    return np.array(value_and_gradient(f, point)[1], dtype=object)


def test_character_dim_falls_back_to_the_gram_rank_when_the_sketch_is_short(monkeypatch):
    """A sketch of rank-deficient rows cannot meet the gradients' bound, so
    the exact Gram rank decides, once, and gives the same dimension."""
    from pvkit import analyzer

    rep, point, grad = _sym_det_covector()
    grams = _counting_gram(monkeypatch)
    assert character_space_dim(rep, point, covectors=[grad]) == 1
    assert grams == []
    sketch = analyzer._commutator_sketch

    def short_sketch(rep, point):
        rows = sketch(rep, point).copy()
        rows[1:] = rows[0]  # every row a copy of the first: rank 1 < n - 1
        return rows

    monkeypatch.setattr(analyzer, "_commutator_sketch", short_sketch)
    assert character_space_dim(rep, point, covectors=[grad]) == 1
    assert len(grams) == 1


def test_character_dim_falls_back_when_the_covectors_fall_short(monkeypatch):
    """One of two independent gradients, no gradient, or a gradient twice:
    the bounds cannot meet, and the Gram rank gives the dimension."""
    from pvkit.catalog import _build, get_entry

    built = _build(get_entry("NEG-4.2.8b"), {})
    rep = built.rep
    point = sample_certified_points(rep, seed=0)
    g1, g2 = (_gradient(f, point) for f in built.invariants)
    grams = _counting_gram(monkeypatch)
    assert character_space_dim(rep, point, covectors=[g1, g2]) == 2
    assert grams == []
    for covectors in ([g1], [], [g1, 3 * g1]):
        grams.clear()
        assert character_space_dim(rep, point, covectors=covectors) == 2
        assert len(grams) == 1


def test_character_dim_falls_back_when_every_residue_vanishes(monkeypatch):
    """With T and den times P the sketch is 0 mod P: a bad prime costs the
    Gram rank and gives the plain rep's dimension."""
    rep, point, grad = _sym_det_covector()
    grams = _counting_gram(monkeypatch)
    assert character_space_dim(_times_p(rep), point, covectors=[grad]) == 1
    assert len(grams) == 1


def test_character_dim_refuses_covectors_that_are_not_integer_vectors_of_length_n():
    """Each covector entry is read through operator.index, so a Fraction
    or a float is a TypeError, not truncated to an integer, and a covector
    of a length other than n is a ValueError, not reshaped into others."""
    from pvkit.catalog import _build, get_entry

    built = _build(get_entry("T2.1"), {"n": 3})
    rep, n = built.rep, built.rep.space_dim
    point = sample_certified_points(rep, seed=0)
    grad = _gradient(built.invariants[0], point).tolist()
    assert character_space_dim(rep, point, covectors=[grad]) == 1
    for bad in ([Q(1, 2)] * n, [0.5] * n):
        with pytest.raises(TypeError):
            character_space_dim(rep, point, covectors=[bad])
    for bad in (grad * 2, grad[:-1]):
        with pytest.raises(ValueError):
            character_space_dim(rep, point, covectors=[bad])


def test_classify_with_an_unverified_invariant_takes_the_gram_rank(monkeypatch):
    """An unverified invariant gives no covector: alone, it leaves the
    dimension to the Gram rank; beside a verified one, whose gradient
    proves it, no Gram matrix is built.  Regularity follows the first
    invariant only, and the reports keep their notes."""
    rep, det3 = sym2(gl(3)), determinant(3, "sym")
    squares = quadratic_form(_eye(6))
    grams = _counting_gram(monkeypatch)
    alone = classify(rep, [squares], seed=0)
    assert alone.character_dim == 1 and alone.regular is None
    assert [c.verified for c in alone.invariant_checks] == [False]
    assert len(grams) == 1
    grams.clear()
    for invariants, regular in (([det3, squares], True), ([squares, det3], None)):
        report = classify(rep, invariants, seed=0)
        assert report.character_dim == 1 and report.regular is regular
        assert [c.verified for c in report.invariant_checks] == [
            f is det3 for f in invariants
        ]
        assert report.notes == "seeded point"
    assert grams == []


def test_classify_leaves_regularity_undecided_for_an_unverified_invariant():
    """The rank test holds for relative invariants only: x1^2 + x2^2 + x3^2
    on symmetric 2x2 matrices is not one, so no regularity is reported."""
    rep = classify(sym2(gl(2)), [quadratic_form(_eye(3))], seed=0)
    assert rep.qd1
    (chk,) = rep.invariant_checks
    assert not chk.verified
    assert rep.regular is None


@pytest.mark.parametrize("which", ["spin9", "t32b_n5"])
def test_action_matrix_matches_fraction_reference(which):
    from pvkit.catalog import _build, get_entry

    if which == "spin9":
        rep = spin_rep(9)
        assert rep.den == 2
    else:
        rep = _build(get_entry("T3.2b"), {"n": 5}).rep
    rng = DetRng(77)
    for _ in range(3):
        x = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rep.space_dim)]
        reference = Matrix.from_cols([b.apply(x) for b in basis(rep)])
        assert action_matrix(rep, x) == reference


@pytest.mark.parametrize(
    "which", ["sym_det", "spin7_quadratic", "partial_pfaffian"]
)
def test_invariance_and_hessian_at_halved_points(which):
    """A sampled point x is the half of the integer point 2x, and both give
    one lambda and one regularity flag; Hess f(2x) is 2^(k-2) times
    Hess f(x) (f of degree k)."""
    if which == "sym_det":
        rep, f = sym2(gl(3)), determinant(3, "sym")
    elif which == "spin7_quadratic":
        # half-integer generators: rep.den == 2
        rep, f = add_torus(spin_rep(7), 1), quadratic_form(_eye(8))
    else:
        n = 4
        g = gl(n)
        rep = direct_sum_shared(
            [
                (f"gl({n})", [dual(g), alt2(g)]),
                ("scaling", [scaling(n), None]),
            ]
        )
        f = restrict_to_summand(pfaffian(n), rep.summand_dims, 1)
    pts = sequential_certified_points(rep, 4, 2)
    doubled = [tuple(2 * c for c in p) for p in pts]
    ok, lam, _ = verify_relative_invariant(rep, f, pts)
    assert verify_relative_invariant(rep, f, doubled)[:2] == (ok, lam)
    assert all(isinstance(c, Q) for c in lam)
    for p, d in zip(pts, doubled):
        regular = hessian_regularity(f, rep, p, _gradient(f, p))
        assert hessian_regularity(f, rep, d, _gradient(f, d)) == regular
        (hp, dp), (hd, dd) = hessian_matrix(f, p), hessian_matrix(f, d)
        # Hess f(2x) = 2^(k-2) Hess f(x)
        law = Q(2) ** (f.degree - 2)
        assert (hd * dp * law.denominator).tolist() == (hp * dd * law.numerator).tolist()


def test_pipeline_evaluates_invariants_at_integer_points_only(monkeypatch):
    stacks = _recording_stacks(monkeypatch)
    rep, f = sym2(gl(3)), determinant(3, "sym")
    pts = sequential_certified_points(rep, 4, 2)
    doubled = [tuple(2 * c for c in p) for p in pts]
    for points in (pts, doubled):
        ok, lam, grad = verify_relative_invariant(rep, f, points)
        assert ok and lam == tuple(2 * b.trace() for b in basis(gl(3)))
        grads = [grad] + [_gradient(f, p) for p in points[1:]]
        assert all(hessian_regularity(f, rep, p, g) for p, g in zip(points, grads))
    assert sum(len(points) for points, _ in stacks[f.name]) >= 2 * 4


def _default_builds():
    from pvkit.catalog import _build, catalog

    return [
        (f"{e.id}{params}", _build(e, dict(params)))
        for e in catalog()
        for params in e.defaults
    ]


def test_sampler_matches_the_sequential_exact_sampler_on_every_default_build():
    """The sampler, certifying mod P, returns the point one exact rank per
    draw returns, on every default build for seeds 0-5."""
    for name, built in _default_builds():
        for seed in range(6):
            want = sequential_certified_points(built.rep, 1, seed)
            assert [sample_certified_points(built.rep, seed=seed)] == want, (name, seed)


def _times_p(rep: MatrixRep) -> MatrixRep:
    """The same generators with T and den both times P, so every orbit
    matrix and every regularity matrix is 0 mod P."""
    return MatrixRep(rep.T.astype(object) * P, rep.den * P, rep.labels)


@pytest.mark.parametrize("which", ["sym_det", "so_quadratic"])
def test_sampler_decides_draws_rejected_mod_p_exactly(which, monkeypatch):
    """Every draw fails mod P on the scaled rep, so the sampler decides the
    rejected draws by exact rank in stream order, and returns the point of
    the plain rep."""
    from pvkit import analyzer

    rep = sym2(gl(3)) if which == "sym_det" else add_torus(so(4), 1)
    big = _times_p(rep)
    verdicts = []

    def recording_kernel(a):
        got = full_rank_mod_p(a)
        verdicts.append(got)
        return got

    monkeypatch.setattr(analyzer, "full_rank_mod_p", recording_kernel)
    want = sample_certified_points(rep, seed=2)
    verdicts.clear()
    assert sample_certified_points(big, seed=2) == want
    assert want is not None and verdicts and not any(verdicts)
    assert [want] == sequential_certified_points(rep, 1, 2)


def test_sampler_shortfall_matches_the_sequential_sampler(monkeypatch):
    """No draw is generic: both samplers run MAX_DRAWS draws and find no
    point, and the sampler tests each of the 49 distinct draws once mod P,
    one matrix each, before exact rank rejects them all."""
    from pvkit import analyzer

    rep = MatrixRep(np.zeros((1, 2, 2), dtype=np.int64), 1, ("zero",))
    shapes = []

    def recording_kernel(a):
        shapes.append(np.shape(a))
        return full_rank_mod_p(a)

    monkeypatch.setattr(analyzer, "full_rank_mod_p", recording_kernel)
    ranks = _recording(monkeypatch, "rank")
    assert sequential_certified_points(rep, 1, 1) == []
    assert sample_certified_points(rep, seed=1) is None
    assert shapes == [(1, 2)] * 49 and len(ranks) == 49


def _recording(monkeypatch, name: str) -> list:
    """Route the analyzer's `name` through a wrapper that records each
    argument, and return the record."""
    from pvkit import analyzer

    calls, inner = [], getattr(analyzer, name)

    def wrapper(m):
        calls.append(m)
        return inner(m)

    monkeypatch.setattr(analyzer, name, wrapper)
    return calls


@pytest.mark.parametrize("which", ["sym_det", "so_quadratic", "alt_pfaffian_partial"])
def test_hessian_regularity_decides_a_matrix_singular_mod_p_exactly(which, monkeypatch):
    """On the rep scaled by P the regularity matrix is 0 mod P, so the
    kernel says no and exact rank gives the flag of the plain rep, regular
    or not."""
    from pvkit import analyzer

    if which == "sym_det":
        rep, f = sym2(gl(3)), determinant(3, "sym")
    elif which == "so_quadratic":
        rep, f = add_torus(so(4), 1), quadratic_form(_eye(4))
    else:
        g = gl(4)
        rep = direct_sum_shared(
            [("gl(4)", [dual(g), alt2(g)]), ("scaling", [scaling(4), None])]
        )
        f = restrict_to_summand(pfaffian(4), rep.summand_dims, 1)
    point = sample_certified_points(rep, seed=0)
    grad = _gradient(f, point)
    want = hessian_regularity(f, rep, point, grad)
    verdicts, ranks = [], []

    def recording_kernel(a):
        got = full_rank_mod_p(a)
        verdicts.append(got)
        return got

    def recording_rank(m):
        ranks.append(m.shape)
        return rank(m)

    monkeypatch.setattr(analyzer, "full_rank_mod_p", recording_kernel)
    monkeypatch.setattr(analyzer, "rank", recording_rank)
    assert hessian_regularity(f, _times_p(rep), point, grad) == want
    # the singular Hessian has a zero row, which decides it before exact rank
    assert verdicts == [False] and len(ranks) == (which != "alt_pfaffian_partial")
    assert want == (which != "alt_pfaffian_partial")


def test_hessian_regularity_without_a_zero_row_reaches_exact_rank(monkeypatch):
    """f = (x1 + x3) x2 on C^3 is relatively invariant under the algebra
    that scales y1 = x1 + x3, x2 and x3 and adds y1 to x3.  Its Hessian is
    singular with no zero row (rows 1 and 3 agree), so the zero-row
    certificate does not apply and exact rank returns False."""
    s_inv = np.array([[1, 0, -1], [0, 1, 0], [0, 0, 1]])  # x = s_inv y
    s = np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]])  # y = s x
    in_y = np.zeros((4, 3, 3), dtype=np.int64)
    in_y[0, 0, 0] = in_y[1, 1, 1] = in_y[2, 2, 2] = in_y[3, 2, 0] = 1
    rep = MatrixRep(s_inv @ in_y @ s, 1, ("y1", "x2", "x3", "x3 += y1"))
    f = quadratic_form([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # 2 (x1 + x3) x2
    points = sequential_certified_points(rep, LAMBDA_POINTS, 0)
    ok, lam, grad = verify_relative_invariant(rep, f, points)
    assert ok and lam == (1, 1, 0, 0)
    h, _ = hessian_matrix(f, [Q(c) for c in points[0]])
    assert rank(h) == 2 and (h != 0).any(axis=1).all()
    ranks = _recording(monkeypatch, "rank")
    assert hessian_regularity(f, rep, points[0], grad) is False
    assert len(ranks) == 1


def test_every_singular_default_hessian_is_decided_without_exact_rank(monkeypatch):
    """Every default run that reports regular: false calls no exact rank at
    seeds 0-5: the points, the character dimension and the zero-row
    certificate of the Hessian all come from the modular test.  So do the
    singular Hessians of the invariants of every default build, the
    negative entries' included, whose runs leave regularity undecided."""
    from pvkit.catalog import _build, catalog, run

    ranks = _recording(monkeypatch, "rank")
    for seed in range(6):
        singular = []
        for e in catalog():
            for params in e.defaults:
                ranks.clear()
                report = run(e.id, dict(params), seed)
                if report.regular is False:
                    singular.append(e.id)
                    assert not ranks, (e.id, params, seed)
        assert len(singular) == 14 and len(set(singular)) == 7, seed
    ranks.clear()
    runs = set()
    for e in catalog():
        for params in e.defaults:
            built = _build(e, dict(params))
            if not built.invariants:
                continue
            point = sample_certified_points(built.rep, seed=0)
            flags = [hessian_regularity(f, built.rep, point, _gradient(f, point))
                     for f in built.invariants]
            if not all(flags):
                runs.add((e.id, tuple(params.items())))
    assert len(runs) == 20 and not ranks


def test_commutator_sketch_equals_the_per_call_reference_on_every_default_build():
    """The sketch's exact `MatrixRep.combine` products, reduced mod P once,
    with the coefficients drawn once per shape, equal the dense
    combinations mod P with the coefficients drawn afresh, at two points,
    so the second call reads what the first one kept."""
    from pvkit.analyzer import _commutator_sketch

    for name, built in _default_builds():
        rep = built.rep
        rng = DetRng.for_stream(22, name)
        for _ in range(2):
            point = tuple(rng.randint(-3, 3) for _ in range(rep.space_dim))
            want = commutator_sketch_reference(rep, point)
            assert (_commutator_sketch(rep, point) == want).all(), name


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool((got == want).all())


def test_act_and_pullback_equal_the_dense_einsum_on_every_default_build():
    """`MatrixRep.act` at one point and at a (10, n) batch, and
    `MatrixRep.pullback` at one covector, equal the dense einsums over T;
    at these sizes both stay in int64."""
    for name, built in _default_builds():
        rep, n = built.rep, built.rep.space_dim
        rng = DetRng.for_stream(27, name)
        batch = rng.randints(10 * n, -3, 3).reshape(10, n)
        u = rng.randints(n, -100, 100)
        point = tuple(batch[0].tolist())
        for got, want in (
            (rep.act(point), act_reference(rep, point)),
            (rep.act(batch), act_reference(rep, batch)),
            (rep.pullback(u), pullback_reference(rep, u)),
        ):
            assert got.dtype == np.int64 and _same(got, want), name


@pytest.mark.parametrize("which", ["sym_det", "alt_pfaffian", "so_quadratic"])
def test_act_and_pullback_are_exact_in_python_ints(which):
    """Past max|t| * max|v| * n < 2**62 both products switch to Python ints
    and stay exact: T scaled by 2**40 (applied twice, as the commutator
    Gram matrix does, and pulled back along a covector near 2**30), and
    the plain T against vectors of entries at least 2**62."""
    rep = {"sym_det": sym2(gl(3)), "alt_pfaffian": alt2(gl(4)),
           "so_quadratic": add_torus(so(4), 1)}[which]
    n = rep.space_dim
    big = MatrixRep(rep.T.astype(object) * 2**40, rep.den * 2**40, rep.labels)
    rng = DetRng.for_stream(27, which)
    x = tuple(rng.randint(-3, 3) for _ in range(n))
    u = [2**30 + rng.randint(0, 9) for _ in range(n)]
    huge = [2**62 + rng.randint(-9, 9) for _ in range(n)]
    once = act_reference(big, x)
    cases = [
        (big.act(big.act(x)), act_reference(big, once)),
        (big.pullback(u), pullback_reference(big, u)),
        (rep.act(huge), act_reference(rep, huge)),
        (rep.act([huge, x]), act_reference(rep, [huge, x])),
        (rep.pullback(huge), pullback_reference(rep, huge)),
    ]
    assert _same(big.act(x), once)
    for got, want in cases:
        assert got.dtype == object and _same(got, want)
    for bad in (np.ones(n), np.ones(n + 1, dtype=np.int64)):
        with pytest.raises(TypeError):  # not truncated or cut short silently
            rep.act(bad)
        with pytest.raises(TypeError):
            rep.pullback(bad)


@pytest.mark.parametrize("scale", [1, 2**40], ids=["int64", "python_ints"])
@pytest.mark.parametrize("which", ["sym_det", "alt_pfaffian", "so_quadratic"])
def test_combine_equals_the_dense_combinations(which, scale):
    """`MatrixRep.combine` equals sum_i coef[q, i] T[i] @ v[q] over dense
    matrices: in int64 on the catalog rep, and in Python ints with T and
    den times 2**40 against a v near 2**30, each with a v per row and with
    one v for every row.  Its pair bound covers |coef|: a v at the edge of
    the bound for |coef| <= 1 stays in int64 there and leaves it at
    |coef| = 3.  A float or mis-shaped v, or a float coef, is a TypeError."""
    rep = {"sym_det": sym2(gl(3)), "alt_pfaffian": alt2(gl(4)),
           "so_quadratic": add_torus(so(4), 1)}[which]
    rep = MatrixRep(rep.T.astype(object) * scale, rep.den * scale, rep.labels)
    dtype = np.int64 if scale == 1 else object
    assert rep.T.dtype == dtype
    d, n = rep.algebra_dim, rep.space_dim
    rng = DetRng.for_stream(45, which)
    coef = rng.randints(6 * d, -3, 3).reshape(6, d)
    v = rng.randints(6 * n, -3, 3).reshape(6, n) + (0 if scale == 1 else 2**30)
    cases = [(coef, v, dtype), (coef, v[0], dtype)]  # one v in every row
    if scale == 1:
        edge = np.full((6, n), (2**62 - 1) // (d * n * int(np.abs(rep.T).max())))
        cases += [(np.sign(coef), edge, np.int64), (coef, edge, object)]
    for c, x, want in cases:
        got = rep.combine(c, x)
        assert got.dtype == want and _same(got, combine_reference(rep, c, x))
    for bad_coef, bad_v in ((coef, v.astype(float)), (coef, v[:, 1:]), (coef, v[1:]),
                            (coef.astype(float), v), (coef[:, 1:], v)):
        with pytest.raises(TypeError):
            rep.combine(bad_coef, bad_v)
