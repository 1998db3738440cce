"""Catalog integrity: contents, expected flags, cross-links, determinism."""

import importlib

import numpy as np
import pytest

from helpers import (
    character_dim_in_coefficients,
    isotropy_algebra,
    sequential_certified_points,
)
from pvkit.analyzer import (
    LAMBDA_POINTS,
    character_space_dim,
    sample_certified_points,
    verify_relative_invariant,
)
from pvkit.catalog import catalog, get_entry, run, run_all
from pvkit.grading import compute_grading, irreducible_components

EXPECTED_IDS = {
    "T2.1", "T2.2", "T2.3", "T2.4", "T2.5", "T2.6", "T2.7", "T2.8", "T2.9", "T2.10",
    "T3.1", "T3.2a", "T3.2b", "T3.3", "T3.4a", "T3.4b", "T3.5", "T3.6", "T3.7",
    "T3.8", "T3.9",
    "NEG-4.1.3", "NEG-4.1.5", "NEG-4.1.6", "NEG-4.1.8", "NEG-4.1.9", "NEG-4.1.12",
    "NEG-4.2.1", "NEG-4.2.4", "NEG-4.2.5", "NEG-4.2.8b", "NEG-4.2.9b",
    "NEG-4.2.10", "NEG-4.2.12",
}


def test_catalog_contains_exactly_the_classified_cases():
    assert {e.id for e in catalog()} == EXPECTED_IDS


def test_entry_metadata_spot_checks():
    t26 = get_entry("T2.6")
    assert "Sp(n)" in t26.title and t26.expected_character_dim == 1 and t26.expected_regular
    t39 = get_entry("T3.9")
    assert t39.expected_regular is True
    neg = get_entry("NEG-4.1.12")
    assert neg.expected_character_dim == 0


def test_every_family_has_two_default_choices_or_is_fixed():
    """Each of the 34 entries has a default choice, so `run` and `run_all`
    need no fallback when none is given."""
    assert len(catalog()) == 34
    for entry in catalog():
        assert entry.defaults
        if entry.params:
            assert len(entry.defaults) == 2
        else:
            assert entry.defaults == ({},)


def test_default_choices_share_the_parameter_names():
    """Every default choice names exactly the parameters of the entry's
    domain, which `params` reads."""
    for entry in catalog():
        assert {frozenset(d) for d in entry.defaults} == {frozenset(entry.params)}


def test_run_t22_example():
    report = run("T2.2", {"n": 4}, seed=0)
    assert report.status == "pass"
    assert report.character_dim == 1 and report.qd1


def test_run_neg428b_example():
    report = run("NEG-4.2.8b", {}, seed=0)
    assert report.status == "pass"
    assert report.character_dim == 2


def test_run_t32b_example():
    report = run("T3.2b", {"n": 5}, seed=0)
    assert report.status == "pass"
    assert report.regular is True


def test_unknown_entry_rejected():
    with pytest.raises(KeyError):
        get_entry("T9.9")
    with pytest.raises(KeyError):
        run("T9.9", {})


def test_out_of_range_parameters_rejected():
    with pytest.raises(ValueError):
        run("T2.3", {"n": 5})        # pfaffian family needs even n
    with pytest.raises(ValueError):
        run("T3.2b", {"n": 4})       # odd family
    with pytest.raises(ValueError):
        run("NEG-4.1.6", {"n": 3, "m": 3})
    with pytest.raises(ValueError):
        run("NEG-4.2.5", {"n": 3, "m": 3})
    with pytest.raises(ValueError):
        run("T2.1", {"k": 3})


# The families defined only for even n (pfaffians) or only for odd n.
PARITY_FAMILIES = {"T2.3", "T3.2a", "T3.2b", "T3.3", "NEG-4.1.5", "NEG-4.2.4"}


@pytest.mark.parametrize("entry_id", [e.id for e in catalog() if e.params])
def test_parameter_domains_admit_every_choice_and_refuse_their_edges(monkeypatch, entry_id):
    """Each parametrized entry's declared (lowest, step) domain holds its
    defaults and its LARGER_PARAMS choice.  One below lowest is refused,
    and so is lowest + 1 when the step is 2, each by a ValueError naming
    the entry and the parameter, before anything is built."""
    cat = importlib.import_module("pvkit.catalog")

    def no_build(entry, params):
        raise AssertionError("built")

    monkeypatch.setattr(cat, "_built", no_build)
    entry = get_entry(entry_id)
    for params in (*entry.defaults, dict(LARGER_PARAMS)[entry_id]):
        assert cat._check_params(entry, params) == params
    for name, (lowest, step) in entry.domain.items():
        assert step == (2 if entry_id in PARITY_FAMILIES else 1)
        refused = {lowest - 1: f"must be >= {lowest}"}
        if step == 2:
            refused[lowest + 1] = f"must be {('even', 'odd')[lowest % 2]}"
        for value, reason in refused.items():
            with pytest.raises(ValueError) as exc:
                run(entry_id, {**entry.defaults[0], name: value})
            assert str(exc.value) == f"{entry_id}: {name} {reason}"


@pytest.mark.parametrize("entry_id,params,message", [
    ("NEG-4.1.6", {"n": 3, "m": 3}, "NEG-4.1.6: n and m must differ"),
    ("NEG-4.2.5", {"n": 3, "m": 3}, "NEG-4.2.5: requires n < m or n > m+1"),
    ("NEG-4.2.5", {"n": 4, "m": 3}, "NEG-4.2.5: requires n < m or n > m+1"),
])
def test_joint_conditions_are_the_builders_first_line(monkeypatch, entry_id, params, message):
    """A condition joining two parameters is refused by the family's builder
    before it constructs any representation."""
    cat = importlib.import_module("pvkit.catalog")

    def no_rep(*args):
        raise AssertionError("constructed")

    monkeypatch.setattr(cat, "_vector_and_matrix_rep", no_rep)
    monkeypatch.setattr(cat, "sl", no_rep)
    with pytest.raises(ValueError) as exc:
        run(entry_id, params)
    assert str(exc.value) == message


def test_non_integer_parameters_are_rejected_before_any_build(monkeypatch):
    """A parameter value is read through operator.index: a numpy integer
    gives the report of the Python int, and a float, even 4.0, is a
    TypeError that names the parameter before anything is built."""
    cat = importlib.import_module("pvkit.catalog")

    want = run("T2.3", {"n": 4}).to_json(with_elapsed=False)
    got = run("T2.3", {"n": np.int64(4)})
    assert type(got.params["n"]) is int and got.to_json(with_elapsed=False) == want

    def no_build(entry, params):
        raise AssertionError("built")

    monkeypatch.setattr(cat, "_built", no_build)
    for bad in (4.0, np.float64(4.0), "4", None):
        with pytest.raises(TypeError, match="parameter n must be an integer"):
            run("T2.3", {"n": bad})


def test_reports_are_deterministic():
    a = run("T3.6", {"n": 2}, seed=7)
    b = run("T3.6", {"n": 2}, seed=7)
    assert a.to_json(with_elapsed=False) == b.to_json(with_elapsed=False)


def test_warm_reports_equal_reports_with_the_caches_cleared(monkeypatch):
    """The build and its diagram check are kept per parameter choice, and a
    rep keeps the list of T's nonzeros: one warm process gives, for all 60
    default runs at seeds 0-2, the reports of runs that each start from an
    empty build cache.  After the first pass no sketch coefficients are
    drawn again: they are kept per shape."""
    cat = importlib.import_module("pvkit.catalog")  # pvkit.catalog is also a function
    per_shape = (importlib.import_module("pvkit.analyzer")._sketch_coefficients,)
    for seed in range(3):
        warm, _ = run_all("all", seed)
        if seed == 0:
            drawn = [f.cache_info().misses for f in per_shape]
        cold = []
        for e in catalog():
            for params in e.defaults:
                monkeypatch.setattr(cat, "_BUILD_CACHE", {})
                cold.append(run(e.id, dict(params), seed).to_dict(with_elapsed=False))
        key = lambda d: (d["entry"], sorted(d["params"].items()))  # noqa: E731
        assert len(cold) == 60
        assert sorted(cold, key=key) == sorted(warm["entries"], key=key)
    assert [f.cache_info().misses for f in per_shape] == drawn


def test_diagram_crosslinks_at_default_parameters():
    """Component dimensions of every declared diagram reproduce the space."""
    from pvkit.catalog import _build

    seen = 0
    for entry in catalog():
        for params in entry.defaults:
            wd = entry.diagram(params)
            if wd is None:
                continue
            built = _build(entry, dict(params))
            comps = irreducible_components(compute_grading(wd))
            assert sum(c.dimension for c in comps) == built.rep.space_dim, entry.id
            assert len(comps) == len(wd.circled)
            seen += 1
    assert seen >= 20


def test_diagram_cross_check_compares_algebra_and_summand_dims():
    """diagram_ok is False when only the algebra dimension or only the
    summand split disagrees with the grading; the sum and the count of the
    component dimensions still agree in both cases."""
    from pvkit.catalog import _build, _diagram_check
    from pvkit.reps import MatrixRep

    entry = get_entry("T3.3")
    params = dict(entry.defaults[0])
    rep = _build(entry, params).rep
    assert rep.summand_dims == (4, 6)
    assert _diagram_check(entry, params, rep)[1] is True
    one_summand = MatrixRep(rep.T, rep.den, rep.labels)
    fewer_generators = MatrixRep(rep.T[1:], rep.den, rep.labels, rep.summand_dims)
    for bad in (one_summand, fewer_generators):
        assert bad.space_dim == rep.space_dim
        assert _diagram_check(entry, params, bad)[1] is False


def test_declared_invariants_match_character_dim():
    """The catalog declares every fundamental invariant: counts agree."""
    for entry in catalog():
        expected = entry.expected_character_dim
        from pvkit.catalog import _build

        built = _build(entry, dict(entry.defaults[0]))
        assert len(built.invariants) == expected if expected >= 0 else True


def test_isotropy_bracket_closed_per_entry():
    from pvkit.catalog import _build

    for entry in catalog():
        params = dict(entry.defaults[0])
        built = _build(entry, params)
        point = sample_certified_points(built.rep, seed=13)
        iso = isotropy_algebra(built.rep, point)
        assert iso.is_bracket_closed(), entry.id
        assert built.rep.algebra_dim - iso.dim == built.rep.space_dim


def test_hessian_dichotomy_for_every_catalog_invariant():
    """det Hess of a relative invariant vanishes at all points or at none,
    and the analyzer's rank test of the pulled-back gradient gives that
    flag at each point (every catalog invariant has degree >= 2)."""
    from helpers import det, hessian_matrix
    from pvkit.analyzer import hessian_regularity
    from pvkit.catalog import _build
    from pvkit.invariants import values_and_gradients

    for entry in catalog():
        params = dict(entry.defaults[0])
        built = _build(entry, params)
        for f in built.invariants:
            pts = sequential_certified_points(built.rep, 10, 21)
            flags = [det(hessian_matrix(f, p)[0]) != 0 for p in pts]
            assert len(set(flags)) == 1, (entry.id, f.name)
            _, grads = values_and_gradients(f, pts)
            for p, grad, flag in zip(pts, grads, flags):
                assert hessian_regularity(built.rep, grad) == flag, (entry.id, f.name)


def test_lambda_vanishes_on_isotropy_at_an_independent_point():
    """lambda, read at the invariance points, vanishes on the isotropy
    algebra of an independently drawn certified point: the character of a
    relative invariant is trivial on every isotropy, not only at the points
    it was read from.  Each invariant is also nonzero at that point, as a
    relative invariant is everywhere on the open orbit; that is why the
    analyzer samples its points without avoiding any zero set."""
    from pvkit.catalog import _build

    checked = 0
    for entry in catalog():
        built = _build(entry, dict(entry.defaults[0]))
        if not built.invariants:
            continue
        other = sample_certified_points(built.rep, seed=29)
        iso = isotropy_algebra(built.rep, other).coefficient_basis.astype(object)
        pts = sequential_certified_points(built.rep, LAMBDA_POINTS, 0)
        for f in built.invariants:
            assert f(other) != 0, (entry.id, f.name)
            ok, lam, _ = verify_relative_invariant(built.rep, f, pts)
            assert ok and any(lam), (entry.id, f.name)
            assert not (iso @ np.array(lam, dtype=object)).any(), (entry.id, f.name)
            checked += 1
    assert checked == 29


def test_character_dim_and_derived_check_match_coefficient_space():
    """At the criterion-6 points and an independent one, the number of
    lifted covectors equals the corank of derived subalgebra + isotropy,
    and every declared gradient lies in their span.  For every declared
    invariant lambda's numerators vanish on the derived subalgebra exactly
    when the d x d matrix of the invariance check is symmetric; a sum of
    squares, not an invariant, is compared too."""
    from pvkit.analyzer import _annihilates_commutators, _first_orders
    from pvkit.linalg import rank
    from pvkit.catalog import _build
    from pvkit.invariants import InvariantPolynomial

    checked = 0
    for entry in catalog():
        built = _build(entry, dict(entry.defaults[0]))
        rep = built.rep
        pts = sequential_certified_points(rep, 5, 11)
        pts.append(sample_certified_points(rep, seed=31))
        for p in pts:
            want = character_dim_in_coefficients(rep, p)
            assert len(character_space_dim(rep, p)) == want, entry.id
        derived = rep.derived_subalgebra().coefficient_basis
        n = rep.space_dim
        squares = InvariantPolynomial(n, "squares", "poly", [[i, i] for i in range(n)], (1,) * n)
        covectors = character_space_dim(rep, pts[0])
        for f in (*built.invariants, squares):
            _, grads, nums, tx = _first_orders(rep, f, [pts[0]])
            grad, num = grads[0].astype(object), nums[0]
            at_point = not (derived @ num).any()
            assert at_point == _annihilates_commutators(rep, grad, tx[0]), (entry.id, f.name)
            if f is not squares:
                in_span = rank(covectors + [grad.tolist()]) == len(covectors)
                assert at_point and in_span, (entry.id, f.name)
                checked += 1
    assert checked == 29


def test_run_all_negatives():
    summary, reports = run_all("negatives", seed=0)
    assert summary["counts"]["fail"] == 0
    assert summary["counts"]["inconclusive"] == 0
    assert summary["counts"]["pass"] == len(reports)
    for r in reports:
        assert r.character_dim in (0, 2)


def test_run_all_unknown_filter():
    with pytest.raises(ValueError):
        run_all("bogus")


def test_run_with_omitted_params_uses_first_default():
    report = run("T2.2", seed=0)
    assert report.params == {"n": 2}
    assert report.status == "pass"


# One larger choice per parametrized entry, 2-3 times its largest default.
LARGER_PARAMS = (
    ("T2.1", {"n": 12}), ("T2.2", {"n": 8}), ("T2.3", {"n": 14}), ("T2.4", {"n": 8}),
    ("T2.6", {"n": 8}), ("T3.1", {"n": 8}), ("T3.2a", {"n": 12}), ("T3.2b", {"n": 13}),
    ("T3.3", {"n": 12}), ("T3.4a", {"n": 8}), ("T3.4b", {"n": 8}), ("T3.5", {"n": 8}),
    ("T3.6", {"n": 8}), ("T3.7", {"n": 10}), ("T3.8", {"n": 8, "m": 4}), ("T3.9", {"n": 8}),
    ("NEG-4.1.3", {"n": 8}), ("NEG-4.1.5", {"n": 15}), ("NEG-4.1.6", {"n": 4, "m": 7}),
    ("NEG-4.1.8", {"n": 8}), ("NEG-4.1.9", {"n": 12}), ("NEG-4.2.1", {"n": 10}),
    ("NEG-4.2.4", {"n": 13}), ("NEG-4.2.5", {"n": 8, "m": 4}), ("NEG-4.2.9b", {"m": 8}),
    ("NEG-4.2.10", {"n": 4, "m": 6}),
)
# sha256 of the seed-0 summary JSON of the LARGER_PARAMS runs
LARGER_PARAMS_SHA256 = "4b63d47b3ecaa6a5d86ca858d97f57b8c17e02b6ef47cb4691ee488aa4b0b357"


def test_every_parametrized_entry_passes_at_larger_parameters():
    """Each parametrized entry at one choice beyond its defaults: the run
    passes with the entry's expected flags, every declared invariant is
    verified at LAMBDA_POINTS points, and the seed-0 summary is frozen."""
    import hashlib

    from pvkit.catalog import summary_json

    assert sorted(e for e, _ in LARGER_PARAMS) == sorted(
        e.id for e in catalog() if e.params
    )
    reports = [run(eid, params, seed=0) for eid, params in LARGER_PARAMS]
    for r in reports:
        entry = get_entry(r.entry)
        assert r.status == "pass" and not r.expected_diff, (r.entry, r.params)
        assert r.character_dim == entry.expected_character_dim, r.entry
        if entry.expected_regular is not None:
            assert r.regular is entry.expected_regular, r.entry
        for inv in r.invariants:
            assert inv["verified"] and inv["lambda_nonzero"], (r.entry, inv["name"])
            assert inv["points"] == LAMBDA_POINTS, (r.entry, inv["name"])
    summary = {"entries": [r.to_dict(with_elapsed=False) for r in reports]}
    digest = hashlib.sha256(summary_json(summary).encode()).hexdigest()
    assert digest == LARGER_PARAMS_SHA256
