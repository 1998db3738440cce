"""Invariants as data: frozen values, transformation laws, jet agreement,
the closed-form gradients against the taped reference and the taped
reference against the jets, the closed forms' edge cases, and values
against the hand-written evaluators."""

import math
from collections import Counter
from fractions import Fraction as Q

import numpy as np
import pytest

from helpers import (
    TapeNode,
    alt_coords,
    alt_unpack,
    basis,
    det,
    freudenthal_reference,
    hessian_matrix,
    jet_line,
    reference_value,
    ring_det,
    ring_evaluator,
    ring_pf,
    sequential_certified_points,
    sym_coords,
    sym_unpack,
    taped_value_and_gradient,
)
from pvkit.invariants import (
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
    value_and_gradient,
    values_and_gradients,
)
from pvkit.linalg import P, DetRng, Matrix, Q as QQ
from pvkit.octonion import freudenthal_monomials


def rand_vec(rng, n, bound=4):
    return [Q(rng.randint(-bound, bound)) for _ in range(n)]


# -- determinant ---------------------------------------------------------------


def test_det_identity():
    f = determinant(3)
    assert f(Matrix.identity(3).data) == 1


def test_det_diag():
    f = determinant(2)
    assert f([2, 0, 0, 3]) == 6


def test_det_on_sym_by_congruence():
    rng = DetRng(3)
    f = determinant(3, "sym")
    for _ in range(20):
        g = Matrix(3, 3, rand_vec(rng, 9))
        s = Matrix(3, 3, [0] * 9)
        sv = rand_vec(rng, 6)
        s = Matrix.from_rows(sym_unpack(sv, 3))
        lhs = f(sym_coords(g @ s @ g.transpose()))
        assert lhs == det(g) ** 2 * f(sv)


# -- pfaffian --------------------------------------------------------------------


def test_pf_2x2():
    assert pfaffian(2)([1]) == 1


def test_pf_4x4_frozen():
    # upper entries (a12, a13, a14, a23, a24, a34) = (1..6): 1*6 - 2*5 + 3*4
    assert pfaffian(4)([1, 2, 3, 4, 5, 6]) == 8


def test_pf_squared_is_det_100_random():
    rng = DetRng(12)
    done = 0
    while done < 100:
        n = 2 * rng.randint(1, 4)  # sizes 2 - 8
        coords = rand_vec(rng, n * (n - 1) // 2)
        full = Matrix.from_rows(alt_unpack(coords, n))
        assert pfaffian(n)(coords) ** 2 == det(full)
        done += 1


def test_pf_value_is_the_matching_expansion_at_random_points():
    """The skew elimination's divisions are exact, singular grids included:
    its value is the signed sum over perfect matchings, sizes 2 - 10."""
    rng = DetRng(14)
    zeros = 0
    for _ in range(300):
        n = 2 * rng.randint(1, 5)
        coords = [rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(n * (n - 1) // 2)]
        value, grad = value_and_gradient(pfaffian(n), coords)
        assert value == ring_pf(alt_unpack(coords, n))
        zeros += value == 0
        assert (grad is None) == (value == 0)
    assert 30 <= zeros <= 270


def test_pf_congruence_law():
    rng = DetRng(13)
    f = pfaffian(4)
    for _ in range(20):
        g = Matrix(4, 4, rand_vec(rng, 16))
        coords = rand_vec(rng, 6)
        x = Matrix.from_rows(alt_unpack(coords, 4))
        assert f(alt_coords(g @ x @ g.transpose())) == det(g) * f(coords)


# -- quadratic forms --------------------------------------------------------------


def test_quadratic_identity_form():
    f = quadratic_form(np.eye(3, dtype=np.int64))
    assert f([1, 0, 0]) == 1
    assert f([1, 2, 2]) == 9


def test_quadratic_hessian_is_2s():
    s = [[2, 1, 0], [1, 3, -1], [0, -1, 1]]
    f = quadratic_form(s)
    h, den = hessian_matrix(f, [QQ(1), QQ(2), QQ(3)])
    assert Matrix.from_rows(h.tolist()).scale(QQ(1, den)) == Matrix.from_rows(s).scale(2)


def test_quadratic_form_takes_square_symmetric_integer_arrays():
    s = np.array([[2, 1], [1, -3]], dtype=np.int64)
    assert quadratic_form(s)([1, 2]) == 2 + 4 - 12
    for bad in ([[1, 2], [3, 4]], [[1, 0, 0], [0, 1, 0]], [[QQ(1, 2), 0], [0, 1]]):
        with pytest.raises(ValueError):
            quadratic_form(bad)


# -- pairings ----------------------------------------------------------------------


def test_pair_dot_values():
    f = pair_dot(2)
    assert f([1, 0, 1, 0]) == 1
    assert f([1, 2, 3, 4]) == 11


def test_pair_dot_invariance():
    rng = DetRng(14)
    n = 3
    f = pair_dot(n)
    for _ in range(20):
        # unipotent g: determinant 1, exactly invertible over Q
        g = Matrix.identity(n).tolists()
        g[0][1] = Q(rng.randint(-3, 3))
        g[1][2] = Q(rng.randint(-3, 3))
        gm = Matrix.from_rows(g)
        ginv_t = _inverse_unipotent(gm)
        u = rand_vec(rng, n)
        v = rand_vec(rng, n)
        # (u, v) -> (u g^-1, g v)
        u2 = ginv_t.transpose().apply(u)  # row vector times g^-1
        v2 = gm.apply(v)
        assert f(list(u2) + list(v2)) == f(u + v)


def _inverse_unipotent(g: Matrix) -> Matrix:
    n = g.rows
    ident = Matrix.identity(n)
    nil = g - ident
    out = ident
    power = ident
    sign = -1
    for _ in range(n):
        power = power @ nil
        out = out + power.scale(sign)
        sign = -sign
    return out


def test_symplectic_pair_values():
    n = 2
    f = symplectic_pair(n)
    u = [1, 0, 0, 0]
    v = [0, 0, 1, 0]
    assert f(u + v) == 1          # u = e1, v = e_{n+1}
    w = [1, 2, 3, 4]
    assert f(w + w) == 0          # antisymmetry of J


def test_symplectic_pair_infinitesimal_invariance():
    from pvkit.reps import sp

    n = 2
    f = symplectic_pair(n)
    rng = DetRng(15)
    u = rand_vec(rng, 2 * n)
    v = rand_vec(rng, 2 * n)
    for b in basis(sp(n)):
        du = list(b.apply(u)) + [Q(0)] * (2 * n)
        dv = [Q(0)] * (2 * n) + list(b.apply(v))
        d1u = jet_line(f, u + v, du).d1
        d1v = jet_line(f, u + v, dv).d1
        assert d1u + d1v == 0


# -- Gram pfaffian -------------------------------------------------------------------


def test_pf_gram_standard_point():
    n = 3
    f = pf_gram(n)
    coords = [Q(0)] * (4 * n)
    coords[0] = Q(1)           # column 1 is e_1
    coords[2 * n + 1] = Q(1)   # column 2 is e_{n+1}
    assert f(coords) == 1


def test_pf_gram_equal_columns_vanish():
    rng = DetRng(16)
    n = 2
    f = pf_gram(n)
    for _ in range(10):
        col = rand_vec(rng, 2 * n)
        coords = []
        for i in range(2 * n):
            coords += [col[i], col[i]]
        assert f(coords) == 0


def test_pf_gram_transformation_law():
    # f(g X h^T) = det(h) f(X) for symplectic g and any h in GL(2)
    from pvkit.reps import sp

    rng = DetRng(17)
    n = 2
    f = pf_gram(n)
    for _ in range(10):
        # symplectic transvection: exp of a nilpotent algebra element
        b = basis(sp(n))[n * n]  # a B-block generator, nilpotent
        g = Matrix.identity(2 * n) + b.scale(Q(rng.randint(-2, 2)))
        h = Matrix(2, 2, rand_vec(rng, 4))
        x = Matrix(2 * n, 2, rand_vec(rng, 4 * n))
        y = g @ x @ h.transpose()
        assert f(y.data) == det(h) * f(x.data)


# -- bordered pfaffian ----------------------------------------------------------------


def test_bordered_pfaffian_frozen_example():
    # n = 3: x has the 2x2 symplectic block, v = e_3; the value is +1 with
    # the matching-sign convention
    f = bordered_pfaffian(3)
    coords = [0, 0, 1] + [1, 0, 0]  # v, then (x12, x13, x23)
    assert f(coords) == 1


def test_bordered_pfaffian_zero_vector():
    f = bordered_pfaffian(3)
    rng = DetRng(18)
    for _ in range(10):
        x = rand_vec(rng, 3)
        assert f([0, 0, 0] + x) == 0


def test_bordered_pfaffian_degree_one_in_v():
    f = bordered_pfaffian(3)
    x = [1, 0, 0]
    rng = DetRng(19)
    for _ in range(10):
        v = rand_vec(rng, 3)
        t = Q(rng.randint(2, 5))
        assert f([t * c for c in v] + x) == t * f(v + x)


def test_bordered_pfaffian_degree():
    assert bordered_pfaffian(5).degree == 3
    assert bordered_pfaffian(7).degree == 4


# -- augmented determinant ----------------------------------------------------------


def test_det_augmented_standard():
    n = 3
    f = det_augmented(n)
    v = [1, 0, 0]
    x = [0, 0, 1, 0, 0, 1]  # columns e2, e3
    assert f(v + x) == 1


def test_det_augmented_column_span():
    f = det_augmented(3)
    rng = DetRng(20)
    for _ in range(10):
        x = rand_vec(rng, 6)
        a, b = Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))
        v = [a * x[2 * i] + b * x[2 * i + 1] for i in range(3)]
        assert f(v + x) == 0


def test_det_augmented_equivariance():
    f = det_augmented(3)
    rng = DetRng(21)
    for _ in range(10):
        g = Matrix(3, 3, rand_vec(rng, 9))
        v = rand_vec(rng, 3)
        x = Matrix(3, 2, rand_vec(rng, 6))
        gv = list(g.apply(v))
        gx = (g @ x).data
        assert f(gv + list(gx)) == det(g) * f(v + list(x.data))


# -- cubic form -----------------------------------------------------------------------


def test_freudenthal_diag():
    f = freudenthal_cubic()
    coords = [Q(1)] * 3 + [Q(0)] * 24
    assert f(coords) == 1
    coords = [Q(2), Q(-3), Q(5)] + [Q(0)] * 24
    assert f(coords) == -30


def test_freudenthal_cubic_matches_the_octonion_formula():
    f = freudenthal_cubic()
    rng = DetRng(31)
    for _ in range(50):
        x = [rng.randint(-5, 5) for _ in range(27)]
        assert f(x) == freudenthal_reference(x)
    for _ in range(3):
        x = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(27)]
        assert f(x) == freudenthal_reference(x)


def test_freudenthal_monomial_table_is_frozen():
    """89 sorted triples with Python-int coefficients: x1 x2 x3, the 24
    norm terms and the 64 trace terms, one per (o1_i, o2_j)."""
    terms = freudenthal_monomials()
    assert len(terms) == 89 and list(terms) == sorted(terms)
    assert len({mono for mono, _ in terms}) == 89
    assert all(len(mono) == 3 and list(mono) == sorted(mono) for mono, _ in terms)
    assert all(type(c) is int for _, c in terms)
    assert Counter(c for _, c in terms) == {1: 1, -1: 24, 2: 22, -2: 42}


def test_freudenthal_homogeneous():
    f = freudenthal_cubic()
    rng = DetRng(22)
    for _ in range(10):
        x = rand_vec(rng, 27)
        t = Q(rng.randint(2, 4))
        assert f([t * c for c in x]) == t**3 * f(x)


# -- jets against finite differences ---------------------------------------------------


def fd_derivatives(f, x, u, degree):
    """First and second directional derivatives from exact interpolation.

    Samples f(x + t u) at t = 0..degree and differentiates the Newton
    interpolation polynomial; exact for polynomials of that degree.
    """
    pts = []
    for t in range(degree + 1):
        pts.append(f([xi + Q(t) * ui for xi, ui in zip(x, u)]))
    # divided differences
    table = [list(pts)]
    for k in range(1, degree + 1):
        prev = table[-1]
        table.append([
            (prev[i + 1] - prev[i]) / Q(k) for i in range(len(prev) - 1)
        ])
    # Newton form: sum_k c_k prod_{i<k} (t - i), c_k = table[k][0]
    # expand to power basis
    coeffs = [Q(0)] * (degree + 1)
    basis = [Q(1)]
    for k in range(degree + 1):
        c = table[k][0]
        for i, b in enumerate(basis):
            coeffs[i] += c * b
        new_basis = [Q(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            new_basis[i] -= Q(k) * b
            new_basis[i + 1] += b
        basis = new_basis
    d1 = coeffs[1]
    d2 = 2 * coeffs[2] if degree >= 2 else Q(0)
    return d1, d2


@pytest.mark.parametrize(
    "maker,arity,degree",
    [
        (lambda: determinant(3), 9, 3),
        (lambda: determinant(3, "sym"), 6, 3),
        (lambda: pfaffian(4), 6, 2),
        (lambda: quadratic_form(np.eye(4, dtype=np.int64)), 4, 2),
        (lambda: pair_dot(3), 6, 2),
        (lambda: symplectic_pair(2), 8, 2),
        (lambda: pf_gram(2), 8, 2),
        (lambda: bordered_pfaffian(3), 6, 2),
        (lambda: det_augmented(3), 9, 3),
        (lambda: freudenthal_cubic(), 27, 3),
    ],
)
def test_jets_match_finite_differences(maker, arity, degree):
    f = maker()
    assert f.arity == arity
    rng = DetRng(23)
    for _ in range(5):
        x = rand_vec(rng, arity, 3)
        u = rand_vec(rng, arity, 2)
        jet = jet_line(f, x, u)
        fd1, fd2 = fd_derivatives(f, x, u, degree)
        assert jet.v == f(x)
        assert jet.d1 == fd1
        assert jet.d2 == fd2
        # the mixed derivatives: u^T Hess f(x) u is the second derivative
        h, den = hessian_matrix(f, x)
        assert Q(sum(a * hij * b for a, row in zip(u, h) for hij, b in zip(row, u)), den) == fd2


@pytest.mark.parametrize(
    "maker,scale_deg",
    [
        (lambda: determinant(4), 4),
        (lambda: pfaffian(6), 3),
        (lambda: quadratic_form(np.eye(5, dtype=np.int64)), 2),
        (lambda: pair_dot(4), 2),
        (lambda: symplectic_pair(3), 2),
        (lambda: pf_gram(3), 2),
        (lambda: bordered_pfaffian(5), 3),
        (lambda: det_augmented(4), 4),
        (lambda: freudenthal_cubic(), 3),
    ],
)
def test_declared_degree_matches_scaling(maker, scale_deg):
    f = maker()
    assert f.degree == scale_deg
    rng = DetRng(24)
    x = rand_vec(rng, f.arity, 2)
    t = Q(3)
    assert f([t * c for c in x]) == t**f.degree * f(x)


def test_ring_det_matches_matrix_det():
    rng = DetRng(25)
    for _ in range(20):
        n = rng.randint(1, 5)
        vals = rand_vec(rng, n * n)
        rows = [vals[i * n : (i + 1) * n] for i in range(n)]
        assert ring_det(rows) == det(Matrix(n, n, vals))


# -- closed-form gradients and the taped reference -------------------------------


def _jet_reference(f, x):
    """(f(x), grad f(x)) from n forward jets along the unit vectors."""
    n = len(x)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    return f(x), [jet_line(f, x, u).d1 for u in units]


def _assert_closed_form_matches_tape(f, x):
    """value_and_gradient against the taped reference at one integer point.
    A singular det or Pf grid has value 0 and no gradient."""
    value, grad = value_and_gradient(f, x)
    taped = taped_value_and_gradient(f, x)
    if grad is None:
        assert f.kind in ("det", "pf") and value == taped[0] == 0, f.name
    else:
        assert (value, grad) == taped, f.name


def _assert_matches_jets(f, seed, summand_dims, points=3):
    """The taped gradient against the jets, the closed form against the
    tape, and f(x) against the hand-written evaluator, at seeded integer
    points."""
    rng = DetRng(seed)
    for _ in range(points):
        x = [rng.randint(-3, 3) for _ in range(f.arity)]
        assert taped_value_and_gradient(f, x) == _jet_reference(f, x), f.name
        _assert_closed_form_matches_tape(f, x)
        assert f(x) == reference_value(f, x, summand_dims), f.name


def test_gradient_matches_jets_on_every_default_catalog_invariant():
    from pvkit.catalog import _build, catalog

    checked = 0
    for entry in catalog():
        for params in entry.defaults or ({},):
            built = _build(entry, dict(params))
            for f in built.invariants:
                _assert_matches_jets(f, 41 + checked, built.rep.summand_dims)
                checked += 1
    assert checked == 49


def test_closed_form_matches_the_tape_at_every_default_runs_certified_points():
    """At each default run's certified points for seeds 0-5, which are the
    points where the analyzer reads gradients, every declared invariant is
    nonzero and its value and gradient equal the taped reference."""
    from pvkit.analyzer import LAMBDA_POINTS
    from pvkit.catalog import _build, catalog

    checked = 0
    for entry in catalog():
        for params in entry.defaults:
            built = _build(entry, dict(params))
            if not built.invariants:
                continue
            for seed in range(6):
                pts = sequential_certified_points(built.rep, LAMBDA_POINTS, seed)
                for f in built.invariants:
                    for p in pts:
                        value, grad = value_and_gradient(f, p)
                        assert value != 0 and (value, grad) == taped_value_and_gradient(f, p)
                        checked += 1
    assert checked == 49 * 6 * LAMBDA_POINTS


@pytest.mark.parametrize(
    "entry_id,params",
    [
        ("T2.3", {"n": 12}),
        ("T2.3", {"n": 16}),
        ("T2.2", {"n": 9}),
        ("T2.2", {"n": 12}),
        ("T3.2b", {"n": 9}),
        ("T3.2b", {"n": 11}),
    ],
)
def test_closed_form_matches_the_tape_at_certified_points_of_larger_runs(entry_id, params):
    from pvkit.analyzer import LAMBDA_POINTS
    from pvkit.catalog import _build, get_entry

    built = _build(get_entry(entry_id), params)
    (f,) = built.invariants
    pts = sequential_certified_points(built.rep, LAMBDA_POINTS, 0)
    assert len(pts) == LAMBDA_POINTS
    for p in pts:
        value, grad = value_and_gradient(f, p)
        assert value != 0 and (value, grad) == taped_value_and_gradient(f, p)


@pytest.mark.parametrize(
    "entry_id,params",
    [
        ("T2.3", {"n": 8}),
        ("T2.4", {"n": 4}),
        ("T2.5", {}),
        ("T2.3", {"n": 12}),
        ("T3.2b", {"n": 9}),
    ],
)
def test_gradient_matches_jets_at_larger_parameters(entry_id, params):
    from pvkit.catalog import _build, get_entry

    built = _build(get_entry(entry_id), params)
    (f,) = built.invariants
    _assert_matches_jets(f, 5, built.rep.summand_dims)


def test_gradient_matches_jets_on_a_restricted_summand():
    f = restrict_to_summand(pfaffian(4), (4, 6), 1)
    assert (f.arity, f.name) == (10, "Pf on AS(4) (2nd summand)")
    _assert_matches_jets(f, 6, (4, 6))
    _, grad = value_and_gradient(f, list(range(1, 11)))
    assert grad[:4] == [0, 0, 0, 0]


def test_restrict_to_summand_offsets_the_indices():
    for f in (pfaffian(4), determinant(2), pair_dot(2)):
        g = restrict_to_summand(f, (3, f.arity, 2), 1)
        assert (g.kind, g.degree, g.coeffs) == (f.kind, f.degree, f.coeffs)
        assert (g.index == f.index + 3).all()
        x = list(range(-4, g.arity - 4))
        assert g(x) == f(x[3 : 3 + f.arity])


def _tape_length(f) -> int:
    tape: list = []
    ring_evaluator(f)([TapeNode(k % 7 - 3, tape, ()) for k in range(f.arity)])
    return len(tape)


def test_evaluators_record_only_the_nodes_they_need():
    """The pfaffian expansion reads only entries above the diagonal, so no
    negated lower entry is recorded, and a +-1 term of a bilinear form is
    one product and one sum."""
    assert _tape_length(pfaffian(8)) == 222
    assert _tape_length(bordered_pfaffian(7)) == 222
    assert _tape_length(pair_dot(3)) <= 12
    assert _tape_length(symplectic_pair(3)) <= 24
    assert _tape_length(pf_gram(3)) <= 24


@pytest.mark.parametrize("k", [0, 2])
def test_restrict_to_summand_rejects_a_summand_of_another_dimension(k):
    with pytest.raises(ValueError):
        restrict_to_summand(pfaffian(4), (4, 6), k)


def test_gradient_with_ints_on_either_side_and_unary_minus():
    def ev(c):
        x, y = c
        return (2 + x) * (y - 5) + 3 * (7 - x) * y - (-x) + x * 4 - (1 - y)

    for x, y in [(1, 2), (-3, 0), (5, -4)]:
        value = (2 + x) * (y - 5) + 3 * (7 - x) * y + x + 4 * x - 1 + y
        dx = (y - 5) - 3 * y + 1 + 4
        dy = (2 + x) + 3 * (7 - x) + 1
        assert taped_value_and_gradient(ev, [x, y]) == (value, [dx, dy])
        assert taped_value_and_gradient(ev, [x, y]) == _jet_reference(ev, [x, y])


def _poly(arity, terms, coeffs, name="poly"):
    return InvariantPolynomial(arity, name, "poly", np.array(terms, dtype=np.int64), coeffs)


def test_gradient_of_a_constant_and_of_a_coordinate():
    assert taped_value_and_gradient(lambda c: 5, [1, 2, 3]) == (5, [0, 0, 0])
    assert taped_value_and_gradient(lambda c: c[1], [4, -7, 9]) == (-7, [0, 1, 0])
    const = _poly(3, np.zeros((1, 0)), (5,), "five")
    assert const.degree == 0
    assert value_and_gradient(const, [1, 2, 3]) == (5, [0, 0, 0])
    second = _poly(3, [[1]], (1,), "x1")
    assert second.degree == 1
    assert value_and_gradient(second, [4, -7, 9]) == (-7, [0, 1, 0])


def test_gradient_is_exact_above_int64_and_evaluates_once():
    calls = []

    def ev(c):
        calls.append(1)
        return c[0] * c[1] * c[2] - c[2]

    # numpy int64 inputs become Python ints before any product is formed
    x = np.array([2**40, -(2**40), 3], dtype=np.int64)
    value, grad = taped_value_and_gradient(ev, x)
    assert len(calls) == 1
    assert value == -3 * 2**80 - 3 and value < -(2**63)
    assert grad == [-3 * 2**40, 3 * 2**40, -(2**80) - 1]
    assert all(type(g) is int for g in grad)
    assert (value, grad) == _jet_reference(ev, x.tolist())
    with pytest.raises(TypeError):
        taped_value_and_gradient(ev, [Q(1, 2), 1, 1])
    # the closed form on xyz - z^3: the same inputs, the same exactness
    f = _poly(3, [[0, 1, 2], [2, 2, 2]], (1, -1), "xyz - z^3")
    value, grad = value_and_gradient(f, x)
    assert value == -3 * 2**80 - 27
    assert grad == [-3 * 2**40, 3 * 2**40, -(2**80) - 27]
    assert all(type(g) is int for g in [value, *grad])
    with pytest.raises(TypeError):
        value_and_gradient(f, [Q(1, 2), 1, 1])


# -- edge cases of the closed forms -------------------------------------------------


def test_pfaffian_sign_when_the_prime_divides_it():
    """Pf a multiple of P, or of P times the next prime, keeps its sign: the
    skew elimination is exact and depends on no prime."""
    assert value_and_gradient(pfaffian(2), (P,)) == (P, [1])
    assert value_and_gradient(pfaffian(2), (-P,)) == (-P, [1])
    q = 2**31 + 11  # the least prime above P
    for k in (3, -3, q, -q * q):
        # (a12, a13, a14, a23, a24, a34): Pf = a12 a34 - a13 a24 + a14 a23
        x = [P * k, 1, 2, 0, 0, 1]
        value, grad = value_and_gradient(pfaffian(4), x)
        assert value == P * k
        assert (value, grad) == taped_value_and_gradient(pfaffian(4), x)
        assert value == ring_pf(alt_unpack(x, 4))


def test_determinant_with_a_zero_leading_pivot_swaps_rows():
    # det [[0, 1], [1, 0]] = -1; grad of ad - bc is (d, -c, -b, a)
    assert value_and_gradient(determinant(2), [0, 1, 1, 0]) == (-1, [0, -1, -1, 0])
    # two swaps in Sym(3): [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    x = [0, 1, 2, 0, 3, 0]
    value, grad = value_and_gradient(determinant(3, "sym"), x)
    assert value == 12 == ring_det(sym_unpack(x, 3))
    assert (value, grad) == taped_value_and_gradient(determinant(3, "sym"), x)


def test_a_singular_grid_has_value_zero_and_no_gradient():
    for f, x in [
        (determinant(2), [1, 2, 2, 4]),              # rank 1
        (determinant(3), [1, 2, 3, 4, 5, 6, 7, 8, 9]),  # rank 2: adj != 0
        (pfaffian(4), [1, 0, 0, 0, 0, 0]),           # rank 2: grad Pf != 0
        (bordered_pfaffian(3), [0, 0, 0, 1, 2, 3]),
    ]:
        assert value_and_gradient(f, x) == (0, None)
        assert f(x) == 0 == taped_value_and_gradient(f, x)[0]


def test_int64_coordinates_near_2_62_do_not_wrap():
    big = np.array([2**62 - 1, -(2**62) + 3, 2**62 - 7, 5, 2**61, -(2**62)], dtype=np.int64)
    xs = big.tolist()
    for f, x in [
        (determinant(2), big[:4]),
        (determinant(3, "sym"), big),
        (pfaffian(4), big),
        (quadratic_form(np.eye(6, dtype=np.int64)), big),
    ]:
        value, grad = value_and_gradient(f, x)
        assert abs(value) > 2**63 and all(type(v) is int for v in [value, *grad])
        assert (value, grad) == taped_value_and_gradient(f, xs[: f.arity])


_STACK_KINDS = {
    "det_full": determinant(3),
    "det_sym": determinant(3, "sym"),
    "pf": pfaffian(6),
    "bordered_pf": bordered_pfaffian(5),
    "det_augmented": det_augmented(3),
    "poly": freudenthal_cubic(),
}


@pytest.mark.parametrize("scale", [1, 2**40], ids=["int64", "python_ints"])
@pytest.mark.parametrize("kind", sorted(_STACK_KINDS))
def test_stack_equals_the_tape_point_by_point(kind, scale):
    """One stacked evaluation equals the taped reference at each of its
    points: seeded draws in [-3, 3] and singular points (0, and a single
    nonzero coordinate), where a det or Pf grid has value 0 and a zero
    gradient row.  Scaled by 2**40 the stack runs in Python ints, and
    unscaled in int64."""
    f = _STACK_KINDS[kind]
    rng = DetRng(7)
    points = [[rng.randint(-3, 3) for _ in range(f.arity)] for _ in range(12)]
    points += [[0] * f.arity, [0] * (f.arity - 1) + [2]]
    points = [[scale * v for v in p] for p in points]
    values, grads = values_and_gradients(f, points)
    assert values.dtype == grads.dtype == (np.int64 if scale == 1 else object)
    singular = 0
    for p, value, grad in zip(points, values.tolist(), grads.tolist()):
        want, want_grad = taped_value_and_gradient(f, p)
        assert value == want, (kind, p)
        if value == 0 and f.kind != "poly":
            assert not any(grad) and value_and_gradient(f, p) == (0, None)
            singular += 1
        else:
            assert grad == want_grad, (kind, p)
            assert value_and_gradient(f, p) == (value, grad)
    assert singular >= (2 if f.kind != "poly" else 0)


def test_stack_switches_to_python_ints_at_the_hadamard_bound():
    """A det stack of size m with entries at most t runs in int64 exactly
    when `_pair` keeps the Hadamard bound h = (1 + m t^2)^(m/2) against
    itself for 2 m^2 products, 2 m^2 h^2 < 2**62, and in Python ints from
    the next t on, with the same values and gradients."""
    m, f = 3, determinant(3)

    def int64_admits(t):
        h = math.isqrt((1 + m * t * t) ** m - 1) + 1
        return 2 * m * m * h * h < 1 << 62

    lo, hi = 1, 1 << 20  # int64_admits(lo) and not int64_admits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if int64_admits(mid) else (lo, mid)
    for t, want in ((lo, np.int64), (hi, object)):
        points = [[t, -t, 1, 2, t - 1, 0, -1, 3, t], [t, 0, 0, 0, t, 0, 0, 0, -t]]
        values, grads = values_and_gradients(f, points)
        assert values.dtype == grads.dtype == want
        for p, value, grad in zip(points, values.tolist(), grads.tolist()):
            assert (value, grad) == taped_value_and_gradient(f, p)


def test_invariants_hash_by_identity_and_hold_read_only_data():
    """An invariant keys the analyzer's gradient cache: two forms with one
    name are distinct keys, and the data cannot change under the key."""
    f, g = quadratic_form(np.eye(2, dtype=np.int64)), quadratic_form([[0, 1], [1, 0]])
    assert f.name == g.name and f != g and len({f, g}) == 2 and hash(f) == hash(f)
    with pytest.raises(ValueError):
        f.index[0, 0] = 1
    with pytest.raises(ValueError):
        value_and_gradient(f, [1, 2, 3])
