"""Matrix realizations: dimensions, closure, spin and exceptional algebras."""

import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest

import pvkit.reps as reps
from helpers import (
    basis,
    cubic_annihilator_system,
    dense_nullspace,
    invariant_form_space,
    jet_line,
    kron_square_action,
    octonion_derivation_system,
    sym_unpack,
)
from pvkit.invariants import freudenthal_cubic
from pvkit.linalg import DetRng, Matrix, _fit, rank
from pvkit.reps import (
    ClosureError,
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


@pytest.mark.parametrize("n", range(2, 10))
def test_sl_matches_the_setdiff_construction(n):
    """sl(n) picks its off-diagonal units without np.setdiff1d, which would
    import numpy.ma; T, den, dtype and labels are those of the old build."""
    e = np.zeros((n * n, n, n), dtype=np.int64)
    e[np.arange(n * n), np.arange(n * n) // n, np.arange(n * n) % n] = 1
    diag = np.arange(n) * (n + 1)
    off = np.setdiff1d(np.arange(n * n), diag)
    want = np.concatenate([e[off], e[diag[:-1]] - e[diag[1:]]])
    rep = sl(n)
    assert rep.T.dtype == want.dtype and (rep.T == want).all()
    assert rep.den == 1 and rep.labels == (f"sl({n})",)


def test_cold_run_of_an_sl_entry_does_not_import_numpy_ma():
    """A cold `pvkit run` loads neither numpy.ma nor argparse and locale,
    which an argparse parser and its gettext calls would import."""
    script = (
        "import sys\n"
        "from pvkit.cli import main\n"
        "main(['run', '--entry', 'T2.4', '--param', 'n=2', '--format', 'json'])\n"
        "print([m for m in ('numpy.ma', 'argparse', 'locale') if m in sys.modules],"
        " file=sys.stderr)\n"
    )
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.strip().splitlines()[-1] == "[]"


def test_classical_dimensions():
    assert gl(3).algebra_dim == 9
    assert sl(2).algebra_dim == 3
    assert so(4).algebra_dim == 6
    assert sp(2).algebra_dim == 10  # basis enumeration matches n(2n+1)
    assert sp(3).algebra_dim == 21


def test_so_preserves_standard_form():
    for b in basis(so(5)):
        assert b.transpose() == -b


def test_sp_preserves_standard_symplectic_form():
    n = 3
    j = Matrix.zeros(2 * n, 2 * n).tolists()
    for i in range(n):
        j[i][n + i] = Q(1)
        j[n + i][i] = Q(-1)
    jm = Matrix.from_rows(j)
    for b in basis(sp(n)):
        assert (b.transpose() @ jm + jm @ b).is_zero()


@pytest.mark.parametrize(
    "maker",
    [
        lambda: gl(3),
        lambda: sl(4),
        lambda: so(5),
        lambda: sp(2),
        lambda: spin_rep(7),
        lambda: spin_rep(8),
        lambda: spin_rep(9),
        lambda: g2_rep(),
        lambda: half_spin_rep10(),
        lambda: tensor(sp(2), gl(2)),
        lambda: sym2(gl(3)),
        lambda: alt2(gl(4)),
    ],
)
def test_bracket_closure(maker):
    maker().structure_tensor()  # raises ClosureError if a commutator leaves the span


def _assert_homomorphism(src: MatrixRep, dst: MatrixRep):
    """[rho(X), rho(Y)] = rho([X, Y]) for all basis pairs, exactly."""
    tensor_, den = src.structure_tensor()
    d = src.algebra_dim
    b = basis(dst)
    for i in range(d):
        for j in range(i + 1, d):
            lhs = b[i] @ b[j] - b[j] @ b[i]
            rhs = Matrix.zeros(dst.space_dim, dst.space_dim)
            for k in range(d):
                c = Q(int(tensor_[i, j, k]), den)
                if c:
                    rhs = rhs + b[k].scale(c)
            assert lhs == rhs, (i, j)


@pytest.mark.parametrize("m,dim", [(7, 8), (8, 8), (9, 16)])
def test_spin_rep_is_a_representation(m, dim):
    rho = spin_rep(m)
    assert rho.space_dim == dim  # 2^floor(m/2) for 7 and 9; a half-spin for 8
    _assert_homomorphism(so(m), rho)


def test_spin8_not_equivalent_to_vector():
    """No intertwiner: rho(X) T = T sigma(X) forces T = 0."""
    rho = spin_rep(8)
    vec = so(8)
    rows = []
    for a, b in zip(basis(rho), basis(vec)):
        for i in range(8):
            for j in range(8):
                row = [Q(0)] * 64
                for k in range(8):
                    row[i * 8 + k] += b[k, j]      # (T sigma)_ij
                    row[k * 8 + j] -= a[i, k]      # -(rho T)_ij
                rows.append(row)
    assert len(dense_nullspace(Matrix.from_rows(rows))[0]) == 0


@pytest.mark.parametrize("m", [7, 9])
def test_spin_invariant_quadratic_is_unique(m):
    assert invariant_form_space(spin_rep(m)) == 1


def test_g2_dimensions_and_derivation_property():
    from pvkit.octonion import oct_mul

    g2 = g2_rep()
    assert g2.algebra_dim == 14
    assert g2.space_dim == 7
    rng = DetRng(41)
    for b in basis(g2):
        for _ in range(5):
            x = [Q(0)] + [Q(rng.randint(-3, 3)) for _ in range(7)]
            y = [Q(0)] + [Q(rng.randint(-3, 3)) for _ in range(7)]
            dx = [Q(0)] + list(b.apply(x[1:]))
            dy = [Q(0)] + list(b.apply(y[1:]))
            xy = oct_mul(x, y)
            dxy = [Q(0)] + list(b.apply(xy[1:]))
            lhs = oct_mul(dx, y)
            rhs = oct_mul(x, dy)
            assert dxy == [a + b2 for a, b2 in zip(lhs, rhs)], "not a derivation"
            assert xy[0] + 0 == xy[0]  # product kept its real part untouched by D


@pytest.mark.parametrize("maker", [g2_rep, e6_rep], ids=["g2", "e6"])
def test_exceptional_builds_without_an_elimination(maker, monkeypatch):
    """g2 is written down from the Fano lines and e6 from the Albert
    algebra: no span solver and no exact rank is called, and the build is
    the cached one."""
    from pvkit import linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("an elimination in an exceptional build")

    want = maker()
    for module in (reps, linalg):
        monkeypatch.setattr(module, "SpanSolver", forbidden)
        monkeypatch.setattr(module, "rank", forbidden, raising=False)
    got = maker.__wrapped__()
    assert (got.den, got.labels, got.T.dtype) == (want.den, want.labels, want.T.dtype)
    assert (got.T == want.T).all()


def test_e6_checks_reject_a_changed_entry_and_a_repeated_matrix():
    """The two exact checks of the e6 build each catch their own fault: one
    entry changed no longer annihilates the cubic, and one matrix repeated
    makes the trace form singular (it still annihilates)."""
    T = e6_rep().T
    reps._check_e6_basis(T)
    changed = T.copy()
    changed[40, 5, 12] += 1
    with pytest.raises(AssertionError, match="annihilate"):
        reps._check_e6_basis(changed)
    repeated = T.copy()
    repeated[77] = repeated[3]
    with pytest.raises(AssertionError, match="trace form .* singular mod P"):
        reps._check_e6_basis(repeated)


def test_g2_and_e6_are_perfect():
    assert g2_rep().derived_subalgebra().dim == 14
    assert e6_rep().derived_subalgebra().dim == 78


def test_e6_dimensions():
    r = e6_rep()
    assert r.algebra_dim == 78
    assert r.space_dim == 27


def test_e6_annihilates_cubic_at_50_points():
    """Every generator X of e6 kills the cubic: grad N(x) . X x == 0."""
    r = e6_rep()
    f = freudenthal_cubic()
    rng = DetRng(42)
    units = np.eye(27, dtype=np.int64).tolist()
    for _ in range(50):
        x = [rng.randint(-3, 3) for _ in range(27)]
        grad = [jet_line(f, x, u).d1 for u in units]
        assert not ((r.T @ x) @ grad).any()


def test_dual_is_involution():
    r = sl(3)
    assert basis(dual(dual(r))) == basis(r)
    for a, b in zip(basis(r), basis(dual(r))):
        assert b == -a.transpose()
        assert b.trace() == -a.trace()


def test_dual_acts_on_row_vectors():
    # for the natural sl(n) action, the dual is v -> -v X on rows
    r = sl(2)
    rng = DetRng(43)
    v = [Q(rng.randint(-3, 3)) for _ in range(2)]
    for a, b in zip(basis(r), basis(dual(r))):
        row_action = [
            -sum(v[i] * a[i, j] for i in range(2)) for j in range(2)
        ]
        assert list(b.apply(v)) == row_action


def test_sym2_alt2_space_dims():
    assert sym2(sl(4)).space_dim == 10
    assert alt2(sl(4)).space_dim == 6
    assert alt2(sl(6)).space_dim == 15


def test_sym2_preserves_symmetry():
    r = sym2(gl(3))
    rng = DetRng(44)
    s = [Q(rng.randint(-3, 3)) for _ in range(6)]
    for b in basis(r):
        image = sym_unpack(list(b.apply(s)), 3)
        for i in range(3):
            for j in range(3):
                assert image[i][j] == image[j][i]


SQUARE_CASES = (
    [(gl, n) for n in range(1, 11)]
    + [(sl, n) for n in range(2, 11)]
    + [(so, n) for n in range(2, 11)]
    + [(sp, n) for n in range(1, 6)]  # on C^(2n)
)


@pytest.mark.parametrize("upper", [0, 1], ids=["sym2", "alt2"])
@pytest.mark.parametrize(
    "maker, n", SQUARE_CASES, ids=[f"{m.__name__}{n}" for m, n in SQUARE_CASES]
)
def test_square_action_matches_the_kron_reference(maker, n, upper):
    T = maker(n).T
    for t in (T, T.astype(object) * (2**63 + 1)):
        got, want = reps._square_action(t, upper), kron_square_action(t, upper)
        assert got.dtype == want.dtype == t.dtype
        assert got.shape == want.shape
        assert (got == want).all()


@pytest.mark.parametrize("upper", [0, 1], ids=["sym2", "alt2"])
def test_square_action_of_random_dense_generators(upper):
    """Generators with every entry set and entries other than 0 and 1."""
    rng = np.random.default_rng(19)
    for n in range(1, 7):
        T = rng.integers(-9, 10, (3, n, n))
        for t in (T, T.astype(object) * -(3**45)):
            got, want = reps._square_action(t, upper), kron_square_action(t, upper)
            assert got.dtype == want.dtype and (got == want).all()


def test_alt2_builds_within_twice_its_output():
    """The square action forms nothing larger than the T it returns: at
    gl(12) the kron products peaked at 14 times T."""
    g = gl(12)
    tracemalloc.start()
    try:
        got = alt2(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * got.T.nbytes, peak / got.T.nbytes


def _g2_by_the_dense_nullspace():
    """The derivations of the octonions, solved for by one elimination;
    each kills the unit, so it acts on the imaginary coordinates."""
    kernel, den = dense_nullspace(octonion_derivation_system())
    kernel = kernel.reshape(-1, 8, 8)
    assert not kernel[:, 0].any() and not kernel[:, :, 0].any()
    return kernel[:, 1:, 1:], den


def _e6_by_the_dense_nullspace():
    kernel, den = dense_nullspace(cubic_annihilator_system())
    return kernel.reshape(-1, 27, 27), den


@pytest.mark.parametrize(
    "maker,reference,canonical",
    [(g2_rep, _g2_by_the_dense_nullspace, True), (e6_rep, _e6_by_the_dense_nullspace, False)],
    ids=["g2", "e6"],
)
def test_exceptional_builds_match_the_dense_nullspace(maker, reference, canonical):
    """Each written-down basis spans the kernel of its defining equations:
    stacked with that kernel, it has the kernel's rank.  g2's basis is the
    canonical kernel basis itself; e6's, from the Albert algebra, is not."""
    got = maker()
    kernel, den = reference()
    assert len(kernel) == got.algebra_dim
    stacked = np.concatenate([kernel, got.T]).reshape(2 * len(kernel), -1)
    assert rank(stacked) == got.algebra_dim
    if canonical:
        assert (got.den, got.T.dtype) == (den, kernel.dtype)
        assert (got.T == kernel).all()


def test_tensor_dims():
    t = tensor(sl(2), sl(3))
    assert t.algebra_dim == 3 + 8
    assert t.space_dim == 6


def test_direct_sum_shared_example_dims():
    n = 2
    s = sp(n)
    rep = direct_sum_shared([(f"sp({n})", [s, s])])
    rep = add_torus(rep, 2)
    assert rep.algebra_dim == n * (2 * n + 1) + 2
    assert rep.space_dim == 4 * n
    assert rep.summand_dims == (2 * n, 2 * n)


def test_direct_sum_shared_rejects_duplicate_labels():
    s = sl(2)
    with pytest.raises(ValueError):
        direct_sum_shared(
            [
                ("sl(2)", [s, None]),
                ("sl(2)", [None, s]),
            ]
        )


def test_common_den_scales_each_part_in_int64_until_the_bound():
    """A part rescaled to the common denominator stays int64 while `_pair`
    keeps max|T| * (den / k) below 2**62, and holds Python ints from there
    on: the half-integer spin(9) keeps its int64 T when a torus joins it,
    and entries near 2**62 are scaled exactly."""
    from pvkit.reps import _common_den

    spin = spin_rep(9)
    assert spin.T.dtype == np.int64 and spin.den == 2
    rep = add_torus(spin, 1)
    assert rep.T.dtype == np.int64 and rep.den == 2
    assert (rep.T[:-1] == spin.T).all() and (rep.T[-1] == 2 * np.eye(16, dtype=np.int64)).all()
    small = np.array([[3, -1], [0, 2]])
    parts, den = _common_den([(small, 2), (small, 3)])
    assert den == 6 and [p.dtype for p in parts] == [np.int64, np.int64]
    assert [p.tolist() for p in parts] == [(small * 3).tolist(), (small * 2).tolist()]
    edge = (1 << 61) - 1  # edge * 2 < 2**62 <= (edge + 1) * 2
    for top, want in ((edge, np.int64), (edge + 1, object)):
        big = np.array([[top, -5], [1, -top]])
        (scaled, same), den = _common_den([(big, 1), (small, 2)])
        assert den == 2 and scaled.dtype == want and same is small
        assert scaled.tolist() == [[2 * top, -10], [2, -2 * top]]


def test_add_torus_rules():
    r = so(3)
    assert add_torus(r, 1).algebra_dim == 4
    with pytest.raises(ValueError):
        add_torus(r, 2)  # single summand cannot take two scaling generators


def test_derived_subalgebras():
    assert gl(3).derived_subalgebra().dim == 8
    torus_only = MatrixRep(np.eye(2, dtype=np.int64)[None], 1, ("torus",))
    assert torus_only.derived_subalgebra().dim == 0
    sp_two_tori = add_torus(
        direct_sum_shared([("sp(2)", [sp(2), sp(2)])]),
        2,
    )
    assert sp_two_tori.derived_subalgebra().dim == 10


def test_dependent_basis_rejected():
    a = np.eye(2, dtype=np.int64)
    with pytest.raises(ClosureError):
        MatrixRep(np.stack([a, 2 * a]), 1, ("bad",)).structure_tensor()


def test_subalgebra_bracket_closure():
    r = gl(3)
    der = r.derived_subalgebra()
    assert der.is_bracket_closed()


@pytest.mark.parametrize("k", [40, 70])
def test_structure_constants_beyond_int64(k):
    h = [[2**k, 0], [0, 0]]
    e = [[0, 1], [0, 0]]
    rep = MatrixRep(np.array([h, e], dtype=object), 1, ("big",))
    tensor_, den = rep.structure_tensor()
    assert [Q(int(c), den) for c in tensor_[0, 1]] == [0, 2**k]
    assert [Q(int(c), den) for c in tensor_[1, 0]] == [0, -(2**k)]
    assert rep.derived_subalgebra().dim == 1


def test_constructor_clears_rational_generators():
    rep = MatrixRep([[[Q(1, 2), 0], [0, Q(-1, 3)]]], 5, ("q",))
    assert rep.T.tolist() == [[[3, 0], [0, -2]]] and rep.den == 30
    for bad in ([], [[1, 0]], np.zeros((1, 2, 3), dtype=np.int64)):
        with pytest.raises(ValueError):
            MatrixRep(bad, 1, ("bad",))


@pytest.mark.parametrize("den", [0, -1, 0.5, 1.0, None])
def test_constructor_rejects_a_den_that_is_not_a_positive_integer(den):
    """A zero den would reach classify as a Fraction with denominator 0."""
    with pytest.raises(ValueError, match="den must be a positive integer"):
        MatrixRep(np.eye(2, dtype=np.int64)[None], den, ("x",))


@pytest.mark.parametrize("scale", [1, 2**63 + 1], ids=["int64", "above_int64"])
def test_bracket_closure_in_gl2(scale):
    # [E01, E10] = E00 - E11 lies outside span{E01, E10}; rows scaled past
    # int64 hold Python ints, and closure does not depend on the scale
    rows = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]], dtype=object)
    rows = _fit(rows * scale)
    assert not Subalgebra(gl(2), rows[:2]).is_bracket_closed()
    assert Subalgebra(gl(2), rows).is_bracket_closed()
