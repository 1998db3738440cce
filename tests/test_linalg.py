"""Exact linear algebra kernel: frozen examples and randomized agreement."""

import itertools
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from helpers import dense_nullspace, det, hessian_matrix, jet_line, lockstep_full_rank_mod_p
from pvkit.invariants import InvariantPolynomial, determinant
from pvkit.linalg import (
    P,
    PRIMES,
    DetRng,
    DimensionMismatchError,
    Jet2,
    Matrix,
    SpanSolver,
    _combine,
    _fit,
    _int_array,
    _matmul,
    _pair,
    full_rank_mod_p,
    kernel_mod_p,
    rank,
)
from pvkit.reps import MatrixRep


def naive_rank(rows):
    """Textbook Gaussian elimination over Fractions; independent oracle."""
    m = [[Q(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(r + 1, n_rows):
            f = m[i][c] / pv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r


def rand_matrix(rng, rows, cols, bound=5, denom=False):
    data = []
    for _ in range(rows * cols):
        num = rng.randint(-bound, bound)
        den = rng.randint(1, 4) if denom else 1
        data.append(Q(num, den))
    return Matrix(rows, cols, data)


def test_rank_identity():
    assert rank(Matrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(Matrix.zeros(2, 5)) == 0


def test_rank_proportional_rows():
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_nullspace_identity():
    basis, den = dense_nullspace(Matrix.identity(4))
    assert basis.shape == (0, 4) and den == 1


def test_nullspace_zero():
    basis, den = dense_nullspace(Matrix.zeros(2, 3))
    assert den == 1
    assert basis.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_nullspace_single_relation():
    basis, den = dense_nullspace(Matrix.from_rows([[1, 1]]))
    assert (basis.tolist(), den) == ([[1, -1]], 1)


def test_nullspace_solves():
    rng = DetRng(7)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), denom=True)
        for v in dense_nullspace(m)[0].tolist():
            assert all(x == 0 for x in m.apply(v))


def test_rank_plus_nullity():
    rng = DetRng(11)
    for _ in range(100):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) + len(dense_nullspace(m)[0]) == m.cols


def test_fraction_free_agrees_with_naive_on_200_matrices():
    rng = DetRng(2024)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols, denom=True)
        assert rank(m) == naive_rank(m.tolists())


def leibniz_det(m):
    """Permutation-sum determinant; independent oracle for small sizes."""
    import itertools

    n = m.rows
    total = Q(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Q(1)
        for i in range(n):
            term *= m[i, perm[i]]
        total += sign * term
    return total


def test_det_against_leibniz():
    rng = DetRng(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n, denom=True)
        assert det(m) == leibniz_det(m)


def test_det_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        det(Matrix.zeros(2, 3))
    with pytest.raises(DimensionMismatchError):
        det(np.zeros((2, 3), dtype=np.int64))


def test_det_of_integer_array_above_int64_matches_leibniz():
    rng = DetRng(63)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [
            [rng.randint(-3, 3) * 2**63 + rng.randint(-5, 5) for _ in range(n)]
            for _ in range(n)
        ]
        a = np.array(rows, dtype=object)
        assert det(a) == leibniz_det(Matrix.from_rows(rows))
        assert det(rows) == det(a)


def _hessian(f, x):
    """Hess f(x) as Fractions, from hessian_matrix's (H, den)."""
    h, den = hessian_matrix(f, x)
    return [[Q(int(v), den) for v in row] for row in h]


def test_jet_square_example():
    # f = t^2 at 3: value 9, first derivative 6, second derivative 2
    assert jet_line(lambda v: v[0] * v[0], [3], [1]) == Jet2(9, 6, 2)
    f = InvariantPolynomial(1, "square", "poly", [[0, 0]], (1,))
    assert _hessian(f, [3]) == [[2]]


def det2(v):
    return v[0] * v[3] - v[1] * v[2]


DET2 = determinant(2)  # the same polynomial as an index grid


def test_jet_det2_equal_directions():
    # expand det(I + t E11) = 1 + t
    x = [1, 0, 0, 1]
    e11 = [1, 0, 0, 0]
    assert jet_line(det2, x, e11) == Jet2(1, 1, 0)
    assert _hessian(DET2, x)[0][0] == 0


def test_jet_det2_mixed_directions():
    # expand det(I + t E11 + s E22) = (1 + t)(1 + s)
    x = [1, 0, 0, 1]
    e11 = [1, 0, 0, 0]
    e22 = [0, 0, 0, 1]
    assert (jet_line(det2, x, e11).v, jet_line(det2, x, e11).d1) == (1, 1)
    assert jet_line(det2, x, e22).d1 == 1
    h = _hessian(DET2, x)
    assert h[0][3] == h[3][0] == 1
    assert h == [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]


def test_jet_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        jet_line(det2, [1, 0, 0, 1], [1, 0])


def poly_second_derivative(coeffs, t):
    """d^2/dt^2 of sum c_k t^k at t, exactly."""
    return sum(
        Q(k * (k - 1)) * c * t ** (k - 2) for k, c in enumerate(coeffs) if k >= 2
    )


def test_jet_multiplication_matches_symbolic_products():
    # jets of univariate polynomials: multiply polynomials, compare jets
    rng = DetRng(99)
    for _ in range(100):
        a = [Q(rng.randint(-3, 3)) for _ in range(3)]
        b = [Q(rng.randint(-3, 3)) for _ in range(3)]
        ja = Jet2(a[0], a[1], 2 * a[2])
        jb = Jet2(b[0], b[1], 2 * b[2])
        prod = [Q(0)] * 5
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        jc = ja * jb
        assert jc.v == prod[0]
        assert jc.d1 == prod[1]
        assert jc.d2 == 2 * prod[2]


def test_jet_associativity_random_triples():
    rng = DetRng(17)
    for _ in range(100):
        a, b, c = (
            Jet2(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_span_solver_coefficients_roundtrip():
    rng = DetRng(31)
    for _ in range(30):
        dim = rng.randint(2, 5)
        count = rng.randint(1, dim)
        solver = SpanSolver(dim, track=count)
        vecs = []
        while len(vecs) < count:
            v = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
            if solver.insert(v):
                vecs.append(v)
            else:
                solver = SpanSolver(dim, track=count)
                vecs = []
        coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(count)]
        target = [
            sum((c * v[i] for c, v in zip(coeffs, vecs)), Q(0)) for i in range(dim)
        ]
        got, den = solver.coefficients(target)
        assert [Q(int(c), den) for c in got] == coeffs


def test_span_solver_membership():
    solver = SpanSolver(3)
    solver.insert([1, 0, 1])
    solver.insert([0, 1, 1])
    assert solver.contains([1, 1, 2])
    assert not solver.contains([0, 0, 1])


def test_detrng_is_frozen():
    rng = DetRng(0)
    assert [rng.randint(0, 99) for _ in range(5)] == [35, 0, 79, 44, 47]
    rng2 = DetRng.for_stream(0, "point-sample")
    first = rng2.randint(-3, 3)
    rng3 = DetRng.for_stream(0, "point-sample")
    assert rng3.randint(-3, 3) == first


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 987654321])
def test_detrng_randints_equals_successive_randint(seed):
    """A block of draws is the sequence of single draws, and leaves the
    generator in the same state, for small and wide ranges."""
    for lo, hi in ((-3, 3), (0, 0), (-(2**40), 2**40), (0, 2**62)):
        block, single = DetRng.for_stream(seed, "x"), DetRng.for_stream(seed, "x")
        got = block.randints(5000, lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == [single.randint(lo, hi) for _ in range(5000)]
        assert block.next_u64() == single.next_u64()
    rng = DetRng(seed)
    assert rng.randints(0, -3, 3).shape == (0,)
    assert rng.next_u64() == DetRng(seed).next_u64()
    with pytest.raises(ValueError):
        rng.randints(3, 1, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rank([[0.5, 1]]),
        lambda: MatrixRep(np.full((1, 2, 2), 0.5), 1, ("x",)),
    ],
    ids=["rank", "MatrixRep"],
)
def test_float_input_is_rejected(call):
    with pytest.raises(TypeError, match="exact integer or rational input required"):
        call()


def test_int_array_is_exact_above_int64():
    # numpy would store these Python ints as float64
    for values in ([2**63 + 1, 0], [2**63 + 1, -1], [[2**64 - 1], [-3]]):
        a, den = _int_array(values)
        assert den == 1
        assert a.dtype == object
        assert a.tolist() == values


def test_span_solver_contains_entries_above_int64():
    big = 2**63 + 1
    solver = SpanSolver(3)
    solver.insert([big, 1, 0])
    assert solver.contains([2 * big, 2, 0])
    assert solver.contains(np.array([big, 1, 0], dtype=object))
    assert not solver.contains([big, 2, 0])
    assert not solver.contains([big + 1, 1, 0])


def _reference_combine(r, a, p, b):
    out = [a * x - b * y for x, y in zip(r, p)]
    g = math.gcd(*out)
    return [v // g for v in out] if g else out


def test_combine_keeps_rows_in_python_ints():
    """A row operation stays in Python ints whatever the size of its
    entries: a result that would fit int64, one that would not, and small
    rows all come back as dtype=object arrays of ints."""
    # a and b are entries of p and r, as in every elimination step
    cases = [
        ([2**61, 3 * 2**61, 5 * 2**61, 7 * 2**61 + 1], [1, 3, 5, 7]),
        ([3, 2**29, 1, 0], [2**29 + 1, 1, 0, 0]),
        ([3, 1, 4, 1], [2, 7, 1, 8]),
        ([2**70, 1, 0], [2**65 + 3, 0, 1]),
    ]
    for r, p in cases:
        a, b = p[0], r[0]
        out = _combine(np.array(r, dtype=object), a, np.array(p, dtype=object), b)
        assert out.dtype == object
        assert all(type(x) is int for x in out)
        assert out.tolist() == _reference_combine(r, a, p, b)


@pytest.mark.parametrize(
    "vecs",
    [
        np.array([[1, 2, 3], [2, 5, 7], [0, 1, 4]], dtype=np.int64),
        [[2**63 + 1, 1, 0], [2**64, 3, 5], [1, 1, 1]],
        [[Q(1, 2), Q(2, 3), 0], [Q(-5, 7), 1, Q(1, 3)], [0, Q(1, 9), 2]],
    ],
    ids=["int64", "above-2^63", "fraction"],
)
def test_span_solver_rows_are_python_ints(vecs):
    """Every stored row, and every reduced vector, is an object array of
    Python ints, whatever the dtype of the input."""
    solver = SpanSolver(3, track=3)
    for v in vecs:
        assert solver.insert(v)
        assert solver._reduced(v, -1).dtype == object
    assert all(r.dtype == object for r in solver._rows)
    assert all(type(x) is int for r in solver._rows for x in r)


@pytest.mark.parametrize("big", [4, 2**62, 2**70], ids=["4", "2^62", "2^70"])
def test_results_leave_linalg_in_the_dtype_of_fit(big):
    """rank is a Python int; coefficient vectors and echelon rows come out
    as `_fit` picks for their values: int64 where they fit."""
    m = np.array([[1, 2, 3, big], [2, 4, 7, 2 * big + 1], [0, 0, 1, 1]], dtype=object)
    assert type(rank(m)) is int and rank(m) == 2
    solver = SpanSolver(4, track=2)
    solver.insert(m[0])
    solver.insert(m[2])
    coeffs, k = solver.coefficients(m[1])
    echelon = solver.echelon_rows()
    assert (coeffs.tolist(), k) == ([2, 1], 1)
    assert echelon.tolist() == [[1, 2, 3, big], [0, 0, 1, 1]]
    for out in (coeffs, echelon):
        assert out.dtype == _fit(out.astype(object)).dtype
    assert coeffs.dtype == np.int64
    assert echelon.dtype == (np.int64 if big == 4 else object)


def _int_matrices():
    rng = DetRng(4242)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        yield [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    # entries above 2**60; the second row (2**61 times the first plus e_4)
    # reduces to small entries, and stays in Python ints
    yield [
        [1, 2, 3, 4, 0],
        [2**61, 2 * 2**61, 3 * 2**61, 4 * 2**61, 1],
        [2**61 + 1, 3, 2**62 + 5, 7, 11],
        [2**61 + 2, 5, 2**62 + 8, 11, 11],
    ]
    yield [[2**63 + 1, 2**62, 0], [2**62, 2**61 + 7, 1], [1, 1, 1]]


def test_rank_and_nullspace_accept_integer_arrays():
    for rows in _int_matrices():
        m = Matrix.from_rows(rows)
        a = np.array(rows, dtype=object)
        a = a.astype(np.int64) if max(abs(v) for r in rows for v in r) < 2**60 else a
        assert rank(a) == rank(m) == naive_rank(rows)
        basis, den = dense_nullspace(a)
        other, other_den = dense_nullspace(m)
        assert (basis.tolist(), den) == (other.tolist(), other_den)
        assert rank(m) + len(basis) == m.cols
        for v in basis.tolist():
            assert all(x == 0 for x in m.apply(v))


def test_rank_of_positive_multiple_matches_matrix():
    rng = DetRng(8)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), denom=True)
        ints, _ = _int_array(m.tolists())
        assert rank(ints) == rank(m)
        (k1, d1), (k2, d2) = dense_nullspace(ints), dense_nullspace(m)
        assert (k1.tolist(), d1) == (k2.tolist(), d2)


def test_jets_stay_in_the_ring_they_are_given():
    x, u = [2, -1, 3, 1], [1, 0, -2, 5]
    ji = jet_line(det2, x, u)
    assert all(type(c) is int for c in (ji.v, ji.d1, ji.d2))
    jq = jet_line(det2, [Q(c) for c in x], [Q(c) for c in u])
    assert all(isinstance(c, Q) for c in (jq.v, jq.d1, jq.d2))
    assert ji == jq
    half = jet_line(det2, [Q(c, 2) for c in x], u)
    assert (half.v, half.d1, half.d2) == (Q(ji.v, 4), Q(ji.d1, 2), ji.d2)


def _reference_nullspace(m):
    """Fraction back-substitution over the integer echelon rows of m."""
    solver = SpanSolver(m.cols)
    for row in m._ints()[0]:
        solver.insert(row)
    ncols = m.cols
    rows = solver.echelon_rows().tolist()
    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r in range(len(rows) - 1, -1, -1):
            p = pivots[r]
            s = sum((Q(rows[r][c]) * v[c] for c in range(p + 1, ncols) if v[c]), Q(0))
            v[p] = -s / rows[r][p]
        for x in v:
            if x != 0:
                if x < 0:
                    v = [-y for y in v]
                break
        basis.append(tuple(v))
    return basis


def test_nullspace_matches_fraction_back_substitution():
    rng = DetRng(606)
    matrices = [Matrix.from_rows(rows) for rows in _int_matrices()]
    matrices += [
        rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), denom=True)
        for _ in range(50)
    ]
    for m in matrices:
        ref, ref_den = _int_array(_reference_nullspace(m))
        basis, den = dense_nullspace(m)
        assert basis.shape == (len(ref), m.cols)
        assert basis.tolist() == ref.reshape(len(ref), m.cols).tolist()
        assert den == ref_den


@pytest.mark.parametrize("size", [7, (1 << 14) - 1, 1 << 14, (1 << 14) + 5])
def test_fit_picks_the_dtype_of_the_bound(size):
    """`_fit` picks int64 exactly when max|a|^2 * size < 2**62, whatever the
    array's size and the sign of its largest entry."""
    edge = math.isqrt(((1 << 62) - 1) // size)  # the largest max|a| for int64
    for big, sign in ((edge, 1), (edge, -1), (edge + 1, 1), (edge + 1, -1), (0, 1)):
        a = np.zeros(size, dtype=np.int64)
        a[size // 2] = sign * big
        a[0] = -sign * (big // 3)
        want = np.int64 if big * big * size < (1 << 62) else object
        assert _fit(a).dtype == want
        assert _fit(a.astype(object)).dtype == want
    a = np.zeros(size, dtype=np.int64)
    a[-1] = -(2**63)  # np.abs would wrap it to itself
    assert _fit(a).dtype == object
    assert _fit(np.array([-(2**63), 5])).dtype == object


def _dtypes(pair) -> tuple:
    return tuple(x.dtype for x in pair)


@pytest.mark.parametrize("k", [1, 7, 136, 1 << 20])
def test_pair_picks_int64_exactly_below_the_bound(k):
    """`_pair` picks int64 for both arrays exactly when
    max|a| * max|b| * k < 2**62, in either order and whatever the signs,
    and hands back the same values."""
    top_a = 1 << 20
    edge = ((1 << 62) - 1) // (top_a * k)  # the largest max|b| for int64
    for top_b in (edge, edge + 1):
        want = np.int64 if top_a * top_b * k < (1 << 62) else object
        for sa, sb in itertools.product((1, -1), repeat=2):
            a = np.array([[0, sa * top_a], [-sa * (top_a // 3), 2]])
            b = np.array([sb * top_b, -sb * (top_b // 5), 1], dtype=object)
            for x, y in ((a, b), (b, a), (a.astype(object), b)):
                got = _pair(x, y, k)
                assert _dtypes(got) == (want, want)
                assert [g.tolist() for g in got] == [x.tolist(), y.tolist()]
    at = 1 << 31  # at the bound itself: 2**31 * 2**31 * 1 == 2**62
    assert _dtypes(_pair(np.array([at]), np.array([-at]), 1)) == (object, object)
    assert _dtypes(_pair(np.array([at]), np.array([at - 1]), 1)) == (np.int64, np.int64)


def test_pair_keeps_minus_two_to_the_63_out_of_int64():
    low = np.array([-(2**63), 0])
    for other in (np.zeros(2, dtype=np.int64), np.array([1], dtype=object)):
        assert _dtypes(_pair(low, other, 1)) == (object, object)
        assert _dtypes(_pair(other, low, 1)) == (object, object)
    assert _dtypes(_pair(low, low, 1)) == (object, object)


def test_pair_reads_object_and_empty_arrays():
    """Python-int arrays are fitted down to int64 when the bound holds, and
    an empty array counts as max|.| = 1: it pairs in int64 with any array
    that fits on its own, and with Python ints with one that does not."""
    small = np.array([3, -4], dtype=object)
    assert _dtypes(_pair(small, small * 5, 2)) == (np.int64, np.int64)
    huge = np.array([2**70], dtype=object)
    assert _dtypes(_pair(small, huge, 1)) == (object, object)
    for empty in (np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=object)):
        assert _dtypes(_pair(empty, empty, 3)) == (np.int64, np.int64)
        assert _dtypes(_pair(empty, small, 3)) == (np.int64, np.int64)
        assert _dtypes(_pair(np.array([1 << 61]), empty, 2)) == (object, object)
        assert _dtypes(_pair(np.array([1 << 61]), empty, 1)) == (np.int64, np.int64)


@pytest.mark.parametrize("scale", [1, 2**20, 2**40, 2**70], ids=["1", "2^20", "2^40", "2^70"])
def test_matmul_equals_the_object_product(scale):
    """`_matmul` is the exact product, in int64 exactly when `_pair`'s bound
    holds for k = a.shape[-1]: matrices, a vector, a stack, a scaled
    operand against a small one, and a sum that only k takes past int64."""
    rng = np.random.default_rng(scale % 1009)

    def ints(shape, s):
        hi, lo = rng.integers(-9, 10, shape), rng.integers(-9, 10, shape)
        return hi.astype(object) * s + lo.astype(object)

    cases = [
        (ints((5, 7), scale), ints((7, 3), scale)),
        (ints((5, 7), scale), ints((7,), scale)),
        (ints((2, 4, 6), scale), ints((6, 3), scale)),
        (ints((6, 9), scale), ints((9, 6), 1)),
        (np.full((2, 9), 2**30), np.full(9, -(2**30))),  # k = 9 alone passes 2**63
    ]
    for a, b in cases:
        want = a.astype(object) @ b.astype(object)
        top = [max(1, *(abs(int(v)) for v in x.ravel())) for x in (a, b)]
        dtype = np.int64 if top[0] * top[1] * a.shape[-1] < (1 << 62) else object
        for x, y in ((a, b), (_fit(a), _fit(b))):
            got = _matmul(x, y)
            assert got.dtype == dtype
            assert got.tolist() == want.tolist()


def test_pair_keeps_a_large_gradient_against_a_small_action_in_int64():
    """S = U W^T of `analyzer._annihilates_commutators` in the shape seen at
    T2.2 n=16: d = 256, n = 136, max|U| = 2**36 and max|W| = 6.  The pair
    bound, 2**36 * 6 * 136 < 2**46, keeps both in int64, where the square
    rule of `_fit` (2**72 * 256) would turn U into Python ints."""
    rng = np.random.default_rng(16)
    U = rng.integers(-(2**36), 2**36, (256, 136))
    U[3, 5] = 2**36
    W = rng.integers(-6, 7, (256, 136))
    W[7, 0] = -6
    assert _dtypes(_pair(U, W.T, 136)) == (np.int64, np.int64)
    assert _fit(U).dtype == object
    S = _matmul(U, W.T)
    assert S.dtype == np.int64
    assert S.tolist() == (U.astype(object) @ W.T.astype(object)).tolist()


def test_coefficients_are_reduced_with_positive_denominator():
    cases = [
        # negative and non-integral coefficients
        ([[2, 0, 1], [0, 2, 1]], [Q(-1, 2), Q(-3, 2)]),
        # pivots that insert() stores negated
        ([[-2, 0, 1], [0, -2, 1]], [Q(-1, 2), Q(3, 2)]),
        # inserted vectors with denominators
        ([[Q(1, 3), Q(2, 3), 0], [0, Q(-1, 5), Q(1, 5)]], [Q(-1), Q(5, 2)]),
        # a denominator above int64, and the zero vector
        ([[1, 0], [0, 1]], [Q(1, 2**70), Q(-3)]),
        ([[1, 0], [0, 1]], [Q(0), Q(0)]),
    ]
    for vecs, coeffs in cases:
        solver = SpanSolver(len(vecs[0]), track=len(vecs))
        assert all(solver.insert(v) for v in vecs)
        target = [sum(c * Q(v[i]) for c, v in zip(coeffs, vecs)) for i in range(len(vecs[0]))]
        got, den = solver.coefficients(target)
        assert den > 0
        assert math.gcd(int(np.gcd.reduce(got, initial=0)), den) == 1
        assert [Q(int(c), den) for c in got] == coeffs
    solver = SpanSolver(3, track=1)
    solver.insert([1, 0, 1])
    assert solver.coefficients([1, 0, 0]) is None


def _random_stack(rng, k, r, c, big=0):
    """k random r x c integer matrices with entries in [-5, 5] plus big times
    another such entry; members with an odd index are built as a product
    through an inner dimension below c, so their column rank is short."""
    def entry():
        return rng.randint(-5, 5) + big * rng.randint(-5, 5)

    mats = []
    for i in range(k):
        if i % 2 and c > 1:
            inner = rng.randint(0, c - 1)
            left = np.array([[entry() for _ in range(inner)] for _ in range(r)], dtype=object)
            right = np.array([[entry() for _ in range(c)] for _ in range(inner)], dtype=object)
            mats.append((left.reshape(r, inner) @ right.reshape(inner, c)).astype(object))
        else:
            mats.append(np.array([[entry() for _ in range(c)] for _ in range(r)], dtype=object))
    return np.array(mats, dtype=object).reshape(k, r, c)


@pytest.mark.parametrize("big", [0, 2**20, 2**40, 2**70], ids=["small", "2^20", "2^40", "2^70"])
def test_full_rank_mod_p_never_claims_a_rank_that_is_short(big):
    """On random matrices of mixed shapes, True only where the exact rank
    is full; with these seeds the kernel also finds every full-rank one."""
    rng = DetRng(16 + big.bit_length())
    checked = full = 0
    for _ in range(40):
        c = rng.randint(0, 6)
        r = rng.randint(max(c - 1, 0), c + 4)
        stack = _random_stack(rng, rng.randint(1, 6), r, c, big)
        ints, _ = _int_array(stack)
        for m, a in zip(stack, ints):
            got = full_rank_mod_p(a)
            assert type(got) is bool
            exact = rank(m) == c if r else c == 0
            assert exact or not got
            assert got == exact  # a miss mod P has chance about 1 / P here
            checked += 1
            full += exact
    assert 0 < full < checked


def test_full_rank_mod_p_says_no_to_a_matrix_singular_only_mod_p():
    """det = P: full rank over Q, singular mod P.  The kernel says False and
    exact rank still says full; the other matrices keep their verdicts."""
    stack = np.array(
        [
            [[P, 1], [0, 1], [0, 0]],
            [[1, 2], [2, 4], [3, 6]],   # rank 1
            [[0, 0], [1, 0], [0, 1]],   # pivot below the first row
            [[2, 1], [1, 3], [5, 5]],
        ],
        dtype=np.int64,
    )
    assert [full_rank_mod_p(m) for m in stack] == [False, False, True, True]
    assert rank(stack[0]) == 2
    # the same residues, shifted by a multiple of P into Python ints
    shifted = stack.astype(object) + P * 2**40
    assert [full_rank_mod_p(m) for m in shifted] == [False, False, True, True]


def test_full_rank_mod_p_shapes():
    """One 2-D integer matrix: a stack or a float matrix is a TypeError,
    fewer rows than columns is False, and no columns is True."""
    with pytest.raises(TypeError):
        full_rank_mod_p(np.ones((1, 2, 2), dtype=np.int64))
    with pytest.raises(TypeError):
        full_rank_mod_p(np.ones((2, 2)) / 2)
    assert full_rank_mod_p(np.ones((1, 2), dtype=np.int64)) is False
    assert full_rank_mod_p(np.zeros((3, 0), dtype=np.int64)) is True
    assert full_rank_mod_p(np.zeros((0, 0), dtype=np.int64)) is True
    assert full_rank_mod_p([[1, 0], [0, 1]]) is True
    assert full_rank_mod_p(np.zeros((3, 2), dtype=np.int64)) is False


@pytest.mark.parametrize("big", [0, 2**20, 2**40, 2**70], ids=["small", "2^20", "2^40", "2^70"])
def test_full_rank_mod_p_agrees_with_the_lockstep_reference(big):
    """On random matrices of mixed shapes, r < c and c = 0 included, each
    verdict is that of the stacked lockstep elimination and of exact rank."""
    rng = DetRng(22 + big.bit_length())
    for _ in range(40):
        c = rng.randint(0, 6)
        r = rng.randint(max(c - 1, 0), c + 4)
        stack = _random_stack(rng, rng.randint(1, 6), r, c, big)
        ints, _ = _int_array(stack)
        want = lockstep_full_rank_mod_p(ints).tolist()
        assert [full_rank_mod_p(a) for a in ints] == want
        assert want == [r >= c and (c == 0 or rank(m) == c) for m in stack]
    for shape in [(3, 2), (3, 0), (0, 0), (1, 2)]:
        ones = np.ones(shape, dtype=np.int64)
        assert full_rank_mod_p(ones) == lockstep_full_rank_mod_p(ones[None])[0]


def test_full_rank_mod_p_pivots_below_the_first_row():
    """A pivot is any row with a nonzero residue in the column: every
    permutation matrix up to 6 x 6 is full rank, and so is a tall matrix
    whose first c rows are dependent.  The det = P and rank-short square
    matrices stay False."""
    for c in range(1, 7):
        eye = np.eye(c, dtype=np.int64)
        assert all(full_rank_mod_p(eye[list(p)]) for p in itertools.permutations(range(c))), c
        tall = [
            np.concatenate([np.outer(np.arange(1, c + 1), eye[0]), eye[1:]]),
            np.concatenate([np.zeros((c - 1, c), dtype=np.int64), eye]),
        ]
        assert [full_rank_mod_p(m) for m in tall] == [True, True], c
    square = np.array([[[P, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 1], [1, 0]]])
    assert [full_rank_mod_p(m) for m in square] == [False, False, True]


def test_full_rank_mod_p_finds_a_pivot_in_the_last_row():
    """A full-rank matrix whose first column is nonzero only in its last
    row: the first pivot is the last row, and the rest is eliminated in
    the rows above it."""
    a = np.zeros((5, 3), dtype=np.int64)
    a[4] = [7, 1, 2]
    a[0, 1] = a[1, 2] = a[2, 1] = 3
    assert rank(a) == 3 and full_rank_mod_p(a) is True
    a[:4] = 0
    assert full_rank_mod_p(a) is False


def test_full_rank_mod_p_eliminates_200000_rows_near_p_exactly():
    """Residues near P in 200,000 rows: every product of two residues and
    every difference of two stays below 2**62, so no int64 step wraps."""
    rng = np.random.default_rng(22)
    full = rng.integers(P - 4, P, size=(200_000, 3))
    short = full.copy()
    short[:, 2] = short[:, 0] + short[:, 1]  # rank 2, not 3
    assert full_rank_mod_p(full) is True and full_rank_mod_p(short) is False
    stack = np.array([full, short])
    assert lockstep_full_rank_mod_p(stack).tolist() == [True, False]


def test_the_lift_primes_are_the_eight_largest_primes_below_2_31():
    """PRIMES, P first, are the eight largest primes below 2**31 (trial
    division up to isqrt(m)), so each product of two residues stays below
    2**62."""
    def is_prime(m: int) -> bool:
        return m > 1 and all(m % q for q in range(2, math.isqrt(m) + 1))

    assert PRIMES[0] == P and len(set(PRIMES)) == 8 and max(PRIMES) < 2**31
    assert all(map(is_prime, PRIMES))
    assert [m for m in range(min(PRIMES), 2**31) if is_prime(m)] == sorted(PRIMES)


@pytest.mark.parametrize("big", [0, 2**40, 2**70], ids=["small", "2^40", "2^70"])
def test_kernel_mod_p_agrees_with_the_exact_rank_profile_and_kernel(big):
    """On random integer matrices of mixed shapes and ranks, Python ints
    included, the pivots are the columns that raise the exact rank of the
    columns before them, and each kernel row is the exact kernel vector
    with 1 at its free column and 0 at the others (`dense_nullspace`,
    scaled), reduced mod p, at P and at the last prime.  The input is not
    written."""
    rng = DetRng(55 + big.bit_length())
    for p in (PRIMES[0], PRIMES[-1]):
        for _ in range(30):
            c = rng.randint(1, 6)
            r = rng.randint(1, c + 4)
            (m,) = _random_stack(rng, 1, r, c, big)
            a, _ = _int_array(m)
            before = a.copy()
            pivots, kernel = kernel_mod_p(a, p)
            assert (a == before).all() and kernel.dtype == np.int64
            want = tuple(j for j in range(c) if rank(m[:, : j + 1]) > rank(m[:, :j]))
            assert pivots == want
            exact, _ = dense_nullspace(m)
            free = [j for j in range(c) if j not in pivots]
            assert kernel.shape == (len(free), c) == exact.shape
            for got, row, f in zip(kernel, exact.astype(object), free):
                assert (got == row * pow(int(row[f]), -1, p) % p).all()


def test_kernel_mod_p_loses_the_pivots_that_p_divides():
    """A matrix of full rank over Q whose determinant is P: mod P its last
    pivot is lost and the kernel gains a row, while the next prime sees
    full rank."""
    a = np.array([[P, 1], [0, 1]], dtype=np.int64)
    assert kernel_mod_p(a, PRIMES[1])[0] == (0, 1)
    pivots, kernel = kernel_mod_p(a, P)
    assert pivots == (1,) and kernel.tolist() == [[1, 0]]
