"""Root systems for the simple types A-G as integer coefficient data.

Roots are stored as integer coefficient vectors over the simple roots, so
every computation downstream needs only Cartan integers.  Numbering is the
classical left-to-right one for A-D (fork and arrow at the right end) and
Bourbaki for E, F, G.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import FrozenSet, Sequence, Tuple

__all__ = [
    "RootSystem",
    "WeightedDiagram",
    "build_root_system",
    "POSITIVE_ROOT_COUNTS",
]

Root = Tuple[int, ...]

# classical positive-root counts, used as a construction invariant
POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _cartan_matrix(type_: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan data with C[i][j] = alpha_j(H_{alpha_i}), 0-based."""
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2

    def simple_edge(i: int, j: int) -> None:
        c[i][j] = -1
        c[j][i] = -1

    if type_ == "A":
        for i in range(rank - 1):
            simple_edge(i, i + 1)
    elif type_ == "B":
        for i in range(rank - 2):
            simple_edge(i, i + 1)
        # alpha_{n-1} long, alpha_n short
        c[rank - 1][rank - 2] = -2
        c[rank - 2][rank - 1] = -1
    elif type_ == "C":
        for i in range(rank - 2):
            simple_edge(i, i + 1)
        # alpha_{n-1} short, alpha_n long
        c[rank - 1][rank - 2] = -1
        c[rank - 2][rank - 1] = -2
    elif type_ == "D":
        for i in range(rank - 2):
            simple_edge(i, i + 1)
        simple_edge(rank - 3, rank - 1)
    elif type_ == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            simple_edge(a, b)
        simple_edge(1, 3)
    elif type_ == "F":
        simple_edge(0, 1)
        simple_edge(2, 3)
        # alpha_2 long, alpha_3 short
        c[2][1] = -2
        c[1][2] = -1
    elif type_ == "G":
        # alpha_1 short, alpha_2 long
        c[0][1] = -3
        c[1][0] = -1
    return tuple(tuple(row) for row in c)


@dataclass(frozen=True)
class RootSystem:
    """Simple root system: Cartan matrix plus the positive roots."""

    type: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    highest_root: Root

    def pairing(self, alpha: Sequence[int], beta_index: int) -> int:
        """alpha(H_beta) for a simple root beta, from the Cartan integers."""
        row = self.cartan[beta_index]
        return sum(row[j] * alpha[j] for j in range(self.rank))

    def simple_root(self, i: int) -> Root:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def edges(self) -> list[tuple[int, int]]:
        """Pairs of connected simple roots, i < j."""
        return [
            (i, j)
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
            if self.cartan[i][j] != 0
        ]

    def edge_multiplicity(self, i: int, j: int) -> int:
        return max(abs(self.cartan[i][j]), abs(self.cartan[j][i]))

    def norms(self) -> tuple[int, ...]:
        """Relative squared lengths of the simple roots (smallest = 1).

        Propagated from 6 at vertex 0 along the edges by |a_j|^2 =
        |a_i|^2 C[i][j] / C[j][i]; a connected diagram has length ratios 2 or
        3 but not both, so every value is 6 times one of 1, 2, 3, 1/2, 1/3,
        an integer, and each `//` is exact.
        """
        norm = [6] + [0] * (self.rank - 1)
        pending = [0]
        while pending:
            i = pending.pop()
            for j in range(self.rank):
                if self.cartan[i][j] and not norm[j]:
                    norm[j] = norm[i] * self.cartan[i][j] // self.cartan[j][i]
                    pending.append(j)
        low = min(norm)
        return tuple(n // low for n in norm)

    def __repr__(self) -> str:
        return f"RootSystem({self.type}{self.rank}, {len(self.positive_roots)} positive roots)"


@lru_cache(maxsize=None)
def build_root_system(type_: str, rank: int) -> RootSystem:
    """Build a root system by closing the simple roots under raising reflections.

    s_i(gamma) = gamma - gamma(H_i) alpha_i is a positive root of greater
    height when gamma(H_i) < 0, and every positive root of height > 1
    arises so from a lower one (Humphreys 1972, section 10.2).
    """
    type_ = type_.upper()
    if type_ not in _VALID_RANKS or not _VALID_RANKS[type_](rank):
        raise ValueError(f"invalid simple type {type_}{rank}")
    cartan = _cartan_matrix(type_, rank)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots: set[Root] = set(simples)
    pending = list(simples)
    while pending:
        gamma = pending.pop()
        for i, row in enumerate(cartan):
            pair = sum(map(operator.mul, row, gamma))
            if pair < 0:
                up = gamma[:i] + (gamma[i] - pair,) + gamma[i + 1 :]
                if up not in roots:
                    roots.add(up)
                    pending.append(up)
    positives = tuple(sorted(roots, key=lambda r: (sum(r), r)))
    expected = POSITIVE_ROOT_COUNTS[type_](rank)
    if len(positives) != expected:
        raise AssertionError(
            f"{type_}{rank}: generated {len(positives)} positive roots, expected {expected}"
        )
    highest = positives[-1]
    for r in positives:
        if any(r[j] > highest[j] for j in range(rank)):
            raise AssertionError(f"{type_}{rank}: highest root fails to dominate {r}")
    return RootSystem(type_, rank, cartan, positives, highest)


@dataclass(frozen=True)
class WeightedDiagram:
    """Dynkin diagram with a nonempty set of circled vertices (0-based)."""

    root_system: RootSystem
    circled: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self):
        circ = frozenset(self.circled)
        object.__setattr__(self, "circled", circ)
        if not circ:
            raise ValueError("a weighted diagram needs at least one circled vertex")
        if any(i < 0 or i >= self.root_system.rank for i in circ):
            raise ValueError("circled vertex index out of range")

    @property
    def theta(self) -> tuple[int, ...]:
        """Uncircled vertices, ascending."""
        return tuple(
            i for i in range(self.root_system.rank) if i not in self.circled
        )

    def __repr__(self) -> str:
        rs = self.root_system
        marks = ",".join(str(i + 1) for i in sorted(self.circled))
        return f"WeightedDiagram({rs.type}{rs.rank}; circled {marks})"
