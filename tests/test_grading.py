"""Gradings, irreducible components, diagram rendering, and the table check."""

import itertools

import pytest

from pvkit.grading import (
    compute_grading,
    irreducible_components,
    is_commutative_parabolic,
    render_diagram,
    rule_r_coefficient,
    verify_table1,
)
from pvkit.rootsystems import WeightedDiagram, build_root_system


def grade(type_, rank, circled_1based):
    rs = build_root_system(type_, rank)
    wd = WeightedDiagram(rs, frozenset(i - 1 for i in circled_1based))
    return compute_grading(wd)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cn_last_vertex_gives_symmetric_matrices(n):
    g = grade("C", n, [n])
    assert g.dim(1) == n * (n + 1) // 2
    assert all(abs(p) <= 1 for p in g.degrees())


@pytest.mark.parametrize("n", [2, 3])
def test_d2n_fork_gives_antisymmetric_matrices(n):
    g = grade("D", 2 * n, [2 * n])
    assert g.dim(1) == n * (2 * n - 1)


def test_e7_last_vertex_gives_27():
    assert grade("E", 7, [7]).dim(1) == 27


def test_commutative_flags():
    assert is_commutative_parabolic(grade("B", 4, [1])) is True
    assert is_commutative_parabolic(grade("C", 5, [2])) is False  # coefficient 2
    assert is_commutative_parabolic(grade("A", 4, [1])) is True


def test_commutative_requires_single_circle():
    with pytest.raises(ValueError):
        is_commutative_parabolic(grade("A", 3, [1, 3]))


def test_c7_example_weights_and_dimensions():
    g = grade("C", 7, [1, 7])
    comps = irreducible_components(g)
    assert len(comps) == 2
    first = next(c for c in comps if c.circled_root == 0)
    second = next(c for c in comps if c.circled_root == 6)
    assert first.weights == ((1, 1),)          # w1 on the sl(6) part
    assert first.dimension == 6
    assert second.weights == ((5, 2),)         # 2 w5 on the sl(6) part
    assert second.dimension == 21
    assert first.label == "w1[sl(6)]"
    assert second.label == "2w5[sl(6)]"
    assert [c.name for c in g.levi_components] == ["sl(6)"]
    assert g.center_dim == 2


def test_a1_single_circle_is_trivial_component():
    g = grade("A", 1, [1])
    (comp,) = irreducible_components(g)
    assert comp.weights == ()
    assert comp.dimension == 1
    assert comp.label == "trivial"


@pytest.mark.parametrize("n", [2, 3])
def test_c_n_plus_2_single_component_dimension_4n(n):
    g = grade("C", n + 2, [2])
    (comp,) = irreducible_components(g)
    # root count in alpha_2 + span(theta); equals dim M(2n, 2)
    assert comp.dimension == 4 * n


ALL_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("type_,rank", ALL_SYSTEMS)
def test_grading_invariants_all_diagrams(type_, rank):
    rs = build_root_system(type_, rank)
    total = 2 * len(rs.positive_roots) + rank
    for r in range(1, rank + 1):
        for circled in itertools.combinations(range(rank), r):
            g = compute_grading(WeightedDiagram(rs, frozenset(circled)))
            assert sum(g.dim(p) for p in g.degrees()) == total
            for p in g.degrees():
                assert g.dim(p) == g.dim(-p)
                for gamma in g.roots_by_degree[p]:
                    # degree = half the value on H, an integer by construction
                    on_h = sum(h * c for h, c in zip(g.h_theta, gamma))
                    assert on_h == 2 * p
            comps = irreducible_components(g)
            assert len(comps) == len(circled)
            assert sum(c.dimension for c in comps) == g.dim(1)
            assert g.center_dim == len(circled)
            levi_dim = sum(c.dim for c in g.levi_components) + g.center_dim
            assert levi_dim == g.dim(0)
            for c in g.levi_components:
                # each factor is numbered as its own Bourbaki diagram
                own = build_root_system(c.type, c.rank).cartan
                assert own == tuple(tuple(rs.cartan[a][b] for b in c.vertices) for a in c.vertices)


@pytest.mark.parametrize("type_,rank", ALL_SYSTEMS)
def test_rule_r_matches_cartan_pairing(type_, rank):
    """The arrow rule and the Cartan-integer pairing are independent routes."""
    rs = build_root_system(type_, rank)
    for i, j in rs.edges():
        for a, b in ((i, j), (j, i)):
            assert rule_r_coefficient(rs, a, b) == -rs.pairing(rs.simple_root(a), b)


def test_component_weights_match_rule_r():
    rs = build_root_system("F", 4)
    g = compute_grading(WeightedDiagram(rs, frozenset({3})))
    (comp,) = irreducible_components(g)
    assert comp.weights == ((2, 1),)   # w3 of so(7): the 8-dim spin weight
    assert comp.dimension == 8
    assert comp.label == "w3[so(7)]"
    # a D factor inside E is numbered along its chain, as in Bourbaki:
    # w5 of so(10) is a half-spin weight, w1 the vector one
    e6 = irreducible_components(grade("E", 6, [1]))
    assert [(c.label, c.dimension) for c in e6] == [("w5[so(10)]", 16)]
    e7 = irreducible_components(grade("E", 7, [1, 7]))
    assert [(c.label, c.dimension) for c in e7] == [("w5[so(10)]", 16), ("w1[so(10)]", 10)]


def test_render_golden_linear():
    a3 = WeightedDiagram(build_root_system("A", 3), frozenset({1}))
    assert render_diagram(a3) == "o---(o)---o"
    c3 = WeightedDiagram(build_root_system("C", 3), frozenset({2}))
    assert render_diagram(c3) == "o---o=<=(o)"
    b3 = WeightedDiagram(build_root_system("B", 3), frozenset({0}))
    assert render_diagram(b3) == "(o)---o=>=o"


def test_render_golden_g2_f4():
    g2 = WeightedDiagram(build_root_system("G", 2), frozenset({0}))
    assert render_diagram(g2) == "(o)=<<=o"
    f4 = WeightedDiagram(build_root_system("F", 4), frozenset({3}))
    assert render_diagram(f4) == "o---o=>=o---(o)"


def test_render_golden_forked():
    d4 = WeightedDiagram(build_root_system("D", 4), frozenset({3}))
    assert render_diagram(d4) == "o---o---o\n    |\n   (o)"
    e6 = WeightedDiagram(build_root_system("E", 6), frozenset({0}))
    assert render_diagram(e6) == "(o)---o---o---o---o\n          |\n          o"


def test_verify_table1_passes_with_flag():
    result = verify_table1()
    assert result["ok"]
    a_rows = [r for r in result["rows"] if r["row"].startswith("A(")]
    assert a_rows and all("typo" in r["note"] for r in a_rows)
    assert all(r["ok"] for r in result["rows"])
    assert len({r["row"] for r in result["rows"]}) == 6
