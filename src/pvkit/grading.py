"""Gradings of simple Lie algebras attached to weighted Dynkin diagrams.

Circling a set of vertices fixes the semisimple element H with value 0 on
uncircled simple roots and 2 on circled ones; each root then lands in the
graded piece indexed by half its value on H, which equals the sum of its
coefficients over the circled vertices.  The degree-one piece decomposes
into one irreducible per circled vertex, with highest weights read off the
Cartan integers (`RootSystem.pairing`) and named by the fundamental-weight
index of a vertex in its Levi factor.  Each factor is typed from its shape
and the integer root lengths (`RootSystem.norms`) and numbered as in
Bourbaki, a D factor inside E too, so `wi` names the same weight in any
ambient diagram.  `rule_r_coefficient` is the arrow rule; the tests check
that it gives the same coefficient on every edge of every type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .rootsystems import POSITIVE_ROOT_COUNTS, Root, RootSystem, WeightedDiagram, build_root_system

__all__ = [
    "LeviComponent",
    "ParabolicGrading",
    "IrreducibleComponent",
    "compute_grading",
    "is_commutative_parabolic",
    "irreducible_components",
    "render_diagram",
    "verify_table1",
    "rule_r_coefficient",
]

_NAMES = {
    "A": lambda k: f"sl({k + 1})",
    "B": lambda k: f"so({2 * k + 1})",
    "C": lambda k: f"sp({k})",
    "D": lambda k: f"so({2 * k})",
    "E": lambda k: f"e{k}",
    "F": lambda k: "f4",
    "G": lambda k: "g2",
}

# isomorphic low-rank names accepted interchangeably
_NAME_SYNONYMS = {
    "so(3)": "sl(2)",
    "sp(1)": "sl(2)",
    "so(5)": "sp(2)",
    "so(6)": "sl(4)",
}


def _canon_name(name: str) -> str:
    return _NAME_SYNONYMS.get(name, name)


@dataclass(frozen=True)
class LeviComponent:
    """One simple factor of the Levi part, with its vertices in chain order."""

    type: str
    rank: int
    vertices: Tuple[int, ...]

    @property
    def name(self) -> str:
        return _NAMES[self.type](self.rank)

    @property
    def dim(self) -> int:
        """A root space per root and the Cartan: 2 |positive roots| + rank."""
        return 2 * POSITIVE_ROOT_COUNTS[self.type](self.rank) + self.rank

    def omega_index(self, vertex: int) -> int:
        """1-based fundamental-weight index of a vertex of this component."""
        return self.vertices.index(vertex) + 1


@dataclass(frozen=True)
class IrreducibleComponent:
    """One irreducible summand of the degree-one piece."""

    circled_root: int
    weights: Tuple[Tuple[int, int], ...]  # (theta vertex, coefficient), all >= 1
    dimension: int
    label: str


@dataclass(frozen=True)
class ParabolicGrading:
    diagram: WeightedDiagram
    h_theta: Tuple[int, ...]                      # value of each simple root on H
    roots_by_degree: Dict[int, Tuple[Root, ...]]  # p -> roots in the degree-p piece
    levi_components: Tuple[LeviComponent, ...]
    center_dim: int

    @property
    def root_system(self) -> RootSystem:
        return self.diagram.root_system

    def dim(self, p: int) -> int:
        """Dimension of the degree-p piece (Cartan included at p = 0)."""
        base = len(self.roots_by_degree.get(p, ()))
        return base + (self.root_system.rank if p == 0 else 0)

    def dimensions(self) -> Dict[int, int]:
        return {p: self.dim(p) for p in sorted(self.roots_by_degree)}

    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted(self.roots_by_degree))

    def levi_name(self) -> str:
        parts = [c.name for c in self.levi_components]
        parts.extend(["C"] * self.center_dim)
        return " + ".join(parts) if parts else "0"


def _walk(adj: Dict[int, list], path: list[int]) -> list[int]:
    """Extend a path to the end of its chain, each step to the neighbour of
    the last vertex that is not the one before it."""
    while nxt := [w for w in adj[path[-1]] if w not in path[-2:]]:
        path.append(nxt[0])
    return path


def _classify_component(
    rs: RootSystem, verts: Sequence[int], norms: Sequence[int]
) -> LeviComponent:
    """Type a connected set of sorted vertices by its shape and its root
    lengths, numbered as in Bourbaki's plates.

    A branch vertex makes D when two of its arms are single vertices, walked
    from the end of its long arm to the branch and then to those two leaves,
    and E otherwise, in vertex order.  A chain is walked from its lower end
    and turned so that the lengths rise: equal lengths give A; a ratio of 3
    gives G2 and one long root C (sp(2) included), short root first; one
    short root gives B and two F4, walked back so that the lengths fall.
    """
    k = len(verts)
    adj = {v: [w for w in verts if w != v and rs.cartan[v][w]] for v in verts}
    branch = [v for v in verts if len(adj[v]) == 3]
    if branch:
        b = branch[0]
        leaves = [w for w in adj[b] if len(adj[w]) == 1][-2:]
        if len(leaves) < 2:
            return LeviComponent("E", k, tuple(verts))
        start = next(w for w in adj[b] if w not in leaves)
        return LeviComponent("D", k, tuple(_walk(adj, [b, start])[::-1] + leaves))
    order = _walk(adj, [next(v for v in verts if len(adj[v]) < 2)])
    if norms[order[0]] > norms[order[-1]]:
        order.reverse()
    lengths = [norms[v] for v in order]
    short, long_ = lengths[0], lengths[-1]
    if short == long_:
        return LeviComponent("A", k, tuple(order))
    if long_ == 3 * short:
        return LeviComponent("G", 2, tuple(order))
    if lengths.count(long_) == 1:
        return LeviComponent("C", k, tuple(order))
    return LeviComponent("B" if lengths.count(short) == 1 else "F", k, tuple(order[::-1]))


def compute_grading(diagram: WeightedDiagram) -> ParabolicGrading:
    """Grade the ambient algebra by the sum of coefficients over circled roots."""
    rs = diagram.root_system
    circled = diagram.circled
    pieces: Dict[int, list[Root]] = {0: []}
    for gamma in rs.positive_roots:
        p = sum(gamma[i] for i in circled)
        pieces.setdefault(p, []).append(gamma)
        neg = tuple(-c for c in gamma)
        if p == 0:
            pieces[0].append(neg)
        else:
            pieces.setdefault(-p, []).append(neg)
    h_theta = tuple(2 if i in circled else 0 for i in range(rs.rank))
    theta = diagram.theta
    norms = rs.norms()
    components: list[LeviComponent] = []
    seen: set[int] = set()
    for v in theta:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(
                w for w in theta if w not in comp and rs.cartan[cur][w] != 0
            )
        seen |= comp
        components.append(_classify_component(rs, sorted(comp), norms))
    components.sort(key=lambda c: c.vertices[0])
    grading = ParabolicGrading(
        diagram=diagram,
        h_theta=h_theta,
        roots_by_degree={p: tuple(v) for p, v in pieces.items()},
        levi_components=tuple(components),
        center_dim=len(circled),
    )
    total = sum(grading.dim(p) for p in grading.degrees())
    if total != 2 * len(rs.positive_roots) + rs.rank:
        raise AssertionError("graded pieces do not exhaust the algebra")
    return grading


def is_commutative_parabolic(grading: ParabolicGrading) -> bool:
    """True iff the single circled root has coefficient 1 in the highest root."""
    circled = sorted(grading.diagram.circled)
    if len(circled) != 1:
        raise ValueError("commutativity test requires exactly one circled root")
    flag = grading.root_system.highest_root[circled[0]] == 1
    flat = max(abs(p) for p in grading.degrees()) <= 1
    if flag != flat:
        raise AssertionError("highest-root criterion disagrees with the grading")
    return flag


def rule_r_coefficient(rs: RootSystem, alpha: int, beta: int) -> int:
    """-alpha(H_beta) for connected simple roots, by the arrow rule.

    Equal or shorter alpha gives 1; a strictly longer alpha gives the number
    of arrows joining the pair.
    """
    if rs.cartan[alpha][beta] == 0 or alpha == beta:
        raise ValueError("rule applies to connected distinct simple roots")
    norms = rs.norms()
    if norms[alpha] <= norms[beta]:
        return 1
    return rs.edge_multiplicity(alpha, beta)


def irreducible_components(grading: ParabolicGrading) -> Tuple[IrreducibleComponent, ...]:
    """One summand of the degree-one piece per circled vertex."""
    rs = grading.root_system
    circled = sorted(grading.diagram.circled)
    comp_of: Dict[int, LeviComponent] = {}
    for comp in grading.levi_components:
        for v in comp.vertices:
            comp_of[v] = comp
    out = []
    for alpha in circled:
        neighbors = [
            b for b in range(rs.rank)
            if b not in grading.diagram.circled and rs.cartan[alpha][b] != 0
        ]
        weights = tuple(
            (b, -rs.pairing(rs.simple_root(alpha), b)) for b in sorted(neighbors)
        )
        indicator = tuple(1 if i == alpha else 0 for i in circled)
        dim = sum(
            1
            for gamma in rs.positive_roots
            if tuple(gamma[i] for i in circled) == indicator
        )
        if not weights:
            label = "trivial"
        else:
            label = " x ".join(
                f"{'' if c == 1 else c}w{comp_of[b].omega_index(b)}[{comp_of[b].name}]"
                for b, c in weights
            )
        out.append(IrreducibleComponent(alpha, weights, dim, label))
    return tuple(out)


def render_diagram(diagram: WeightedDiagram) -> str:
    """ASCII rendering: circled vertices as (o), arrows toward shorter roots.

    Double edges render as =>= or =<=, the triple edge as =>>= or =<<=;
    fork vertices of D and E hang below the main line.
    """
    rs = diagram.root_system
    rank = rs.rank

    def node(i: int) -> str:
        return "(o)" if i in diagram.circled else "o"

    if rs.type in ("A", "B", "C", "F", "G"):
        parts = [node(0)]
        for i in range(1, rank):
            sep = "---"
            mult = rs.edge_multiplicity(i - 1, i)
            if mult >= 2:
                arrows = ">" if rs.cartan[i][i - 1] < -1 else "<"
                # arrow points at the shorter of the two roots
                arrows = arrows * (mult - 1)
                sep = f"={arrows}="
            parts.append(sep)
            parts.append(node(i))
        return "".join(parts)

    if rs.type == "D":
        main = list(range(rank - 1))
        below, attach = rank - 1, rank - 3
    else:  # E types
        main = [0] + list(range(2, rank))
        below, attach = 1, 3

    line, centers = "", {}
    for pos, i in enumerate(main):
        if pos:
            line += "---"
        centers[i] = len(line) + (1 if i in diagram.circled else 0)
        line += node(i)
    col = centers[attach]
    bar = " " * col + "|"
    tail_node = node(below)
    start = col - (1 if below in diagram.circled else 0)
    tail = " " * start + tail_node
    return "\n".join([line, bar, tail])


def _table1_rows():
    """Row specs: (label, builder(k) -> (type, rank, circled, levi names,
    center, expected d1 dim, note), parameter choices)."""

    def a_row(n):
        return (
            "A", 2 * n + 1, (n,),
            [f"sl({n + 1})", f"sl({n + 1})"], 1, (n + 1) ** 2,
            f"space is M({n + 1}); the catalog row prints M(n), "
            "inconsistent with the grading (suspected typo, flagged)",
        )

    def b_row(n):
        return ("B", n, (0,), [f"so({2 * n - 1})"], 1, 2 * n - 1, "")

    def c_row(n):
        return ("C", n, (n - 1,), [f"sl({n})"], 1, n * (n + 1) // 2, "")

    def d1_row(n):
        return ("D", n, (0,), [f"so({2 * n - 2})"], 1, 2 * n - 2, "")

    def d2_row(n):
        return ("D", 2 * n, (2 * n - 1,), [f"sl({2 * n})"], 1, n * (2 * n - 1), "")

    def e7_row(_):
        return ("E", 7, (6,), ["e6"], 1, 27, "")

    return [
        ("A(2n+1), middle vertex circled", a_row, (1, 2)),
        ("B(n), first vertex circled", b_row, (3, 4)),
        ("C(n), last vertex circled", c_row, (3, 4)),
        ("D(n), first vertex circled", d1_row, (4, 5)),
        ("D(2n), fork vertex circled", d2_row, (2, 3)),
        ("E(7), last vertex circled", e7_row, (0,)),
    ]


def verify_table1() -> dict:
    """Check the six commutative-parabolic catalog rows against the grading.

    Each row must be commutative parabolic with the stated Levi part and
    degree-one dimension; the A row is checked against the grading-derived
    dimension and flagged (see the note it carries).
    """
    rows = []
    ok = True
    for label, builder, params in _table1_rows():
        for k in params:
            type_, rank, circled, levi_names, center, d1, note = builder(k)
            rs = build_root_system(type_, rank)
            grading = compute_grading(WeightedDiagram(rs, frozenset(circled)))
            commutative = is_commutative_parabolic(grading)
            got_names = sorted(_canon_name(c.name) for c in grading.levi_components)
            levi_ok = (
                got_names == sorted(_canon_name(n) for n in levi_names)
                and grading.center_dim == center
            )
            dim_ok = grading.dim(1) == d1
            row_ok = commutative and levi_ok and dim_ok
            ok = ok and row_ok
            rows.append(
                {
                    "row": label,
                    "ambient": f"{type_}{rank}",
                    "commutative": commutative,
                    "levi": grading.levi_name(),
                    "levi_ok": levi_ok,
                    "dim_d1": grading.dim(1),
                    "dim_expected": d1,
                    "dim_ok": dim_ok,
                    "ok": row_ok,
                    "note": note,
                }
            )
    return {"ok": ok, "rows": rows}
