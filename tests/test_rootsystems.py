"""Root systems against two independent references: the closure under
every simple reflection, and the closure under root strings."""

import pytest

from pvkit.rootsystems import (
    POSITIVE_ROOT_COUNTS,
    WeightedDiagram,
    build_root_system,
)

ALL_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def reflection_closure(cartan):
    """All roots from the simple ones by closing under simple reflections.

    s_i(gamma) = gamma - gamma(H_i) alpha_i, applied to every root,
    negative ones included, and in every direction; the library raises
    positive roots only.
    """
    rank = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for gamma in frontier:
            for i in range(rank):
                pair = sum(cartan[i][j] * gamma[j] for j in range(rank))
                ref = list(gamma)
                ref[i] -= pair
                ref = tuple(ref)
                if ref not in roots:
                    roots.add(ref)
                    nxt.append(ref)
        frontier = nxt
    return {r for r in roots if all(c >= 0 for c in r)}


def root_string_closure(cartan):
    """The positive roots from the simple ones by root strings: gamma +
    alpha_i is a root exactly when q >= 1, where the alpha_i-string through
    gamma runs from gamma - p alpha_i to gamma + q alpha_i and
    p - q = gamma(H_i)."""
    rank = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = list(simples)  # the roots of one height
    while frontier:
        nxt = []
        for gamma in frontier:
            for i in range(rank):
                p = 1
                while gamma[:i] + (gamma[i] - p,) + gamma[i + 1 :] in roots:
                    p += 1
                q = p - 1 - sum(cartan[i][j] * gamma[j] for j in range(rank))
                up = gamma[:i] + (gamma[i] + 1,) + gamma[i + 1 :]
                if q >= 1 and up not in roots:
                    roots.add(up)
                    nxt.append(up)
        frontier = nxt
    return roots


# frozen from the oracle: reflection closure of A2, C3, G2 simple roots
def test_positive_root_counts_frozen_examples():
    assert len(reflection_closure(build_root_system("A", 2).cartan)) == 3
    assert len(reflection_closure(build_root_system("C", 3).cartan)) == 9
    assert len(reflection_closure(build_root_system("G", 2).cartan)) == 6
    assert len(build_root_system("A", 2).positive_roots) == 3
    assert len(build_root_system("C", 3).positive_roots) == 9
    assert len(build_root_system("G", 2).positive_roots) == 6


@pytest.mark.parametrize("type_,rank", ALL_SYSTEMS)
def test_generation_agrees_with_reflection_oracle(type_, rank):
    rs = build_root_system(type_, rank)
    assert set(rs.positive_roots) == reflection_closure(rs.cartan)
    assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[type_](rank)


@pytest.mark.parametrize("type_,rank", ALL_SYSTEMS)
def test_generation_agrees_with_root_string_reference(type_, rank):
    rs = build_root_system(type_, rank)
    assert set(rs.positive_roots) == root_string_closure(rs.cartan)


@pytest.mark.parametrize("type_,rank", ALL_SYSTEMS)
def test_cartan_shape(type_, rank):
    rs = build_root_system(type_, rank)
    for i in range(rank):
        assert rs.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan[i][j] in (0, -1, -2, -3)


def test_pairing_simple_against_own_coroot():
    rs = build_root_system("D", 5)
    for i in range(5):
        assert rs.pairing(rs.simple_root(i), i) == 2


def test_pairing_adjacent_equal_length_is_minus_one():
    rs = build_root_system("A", 5)
    for i in range(4):
        assert rs.pairing(rs.simple_root(i), i + 1) == -1
        assert rs.pairing(rs.simple_root(i + 1), i) == -1


def test_pairing_long_root_on_short_coroot_in_c():
    rs = build_root_system("C", 4)
    # long simple root against its short neighbor's coroot
    assert rs.pairing(rs.simple_root(3), 2) == -2
    assert rs.pairing(rs.simple_root(2), 3) == -1


@pytest.mark.parametrize("type_,rank", ALL_SYSTEMS)
def test_arrow_rule_all_connected_pairs(type_, rank):
    """alpha(H_beta) is -1 for alpha not longer than beta, else minus the
    number of arrows; checked against the stored Cartan integers."""
    rs = build_root_system(type_, rank)
    norms = rs.norms()
    for i, j in rs.edges():
        for a, b in ((i, j), (j, i)):
            expected = -1 if norms[a] <= norms[b] else -rs.edge_multiplicity(a, b)
            assert rs.pairing(rs.simple_root(a), b) == expected


@pytest.mark.parametrize("type_,rank", ALL_SYSTEMS)
def test_highest_root_dominates(type_, rank):
    rs = build_root_system(type_, rank)
    high = rs.highest_root
    for r in rs.positive_roots:
        assert all(high[i] >= r[i] for i in range(rank))
    assert all(c > 0 for c in high)


def test_invalid_types_rejected():
    for bad in (("D", 3), ("B", 1), ("E", 9), ("F", 3), ("G", 3), ("H", 2)):
        with pytest.raises(ValueError):
            build_root_system(*bad)


def test_weighted_diagram_validation():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError):
        WeightedDiagram(rs, frozenset())
    with pytest.raises(ValueError):
        WeightedDiagram(rs, frozenset({5}))
    wd = WeightedDiagram(rs, frozenset({1}))
    assert wd.theta == (0, 2)
