"""Evolution algebras induced by a graph, over exact rationals.

An evolution algebra is determined by its structure matrix M: the
natural basis satisfies e_i * e_i = sum_k M[i][k] e_k and e_i * e_j = 0
for i != j.  Two algebras are attached to every connected graph: the
adjacency algebra (M = adjacency matrix) and the random-walk algebra
(M = transition matrix of the symmetric random walk, rows a_ik/deg(i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, adjacency_matrix

ADJACENCY = "adjacency"
RANDOM_WALK = "random-walk"


class DimensionMismatch(ValueError):
    pass


class IsolatedVertex(ValueError):
    pass


@dataclass(frozen=True)
class EvolutionAlgebra:
    """Structure matrix plus a tag saying which construction produced it."""

    n: int
    M: tuple[tuple[Fraction, ...], ...]
    kind: str

    def row(self, i: int) -> tuple[Fraction, ...]:
        """Coefficients of e_i * e_i in the natural basis (1-indexed i)."""
        return self.M[i - 1]

    def basis_element(self, i: int) -> "Element":
        coeffs = [Fraction(0)] * self.n
        coeffs[i - 1] = Fraction(1)
        return Element(tuple(coeffs))

    def zero(self) -> "Element":
        return Element(tuple(Fraction(0) for _ in range(self.n)))


@dataclass(frozen=True)
class Element:
    """Coordinates of an algebra element in the natural basis."""

    coeffs: tuple

    def __add__(self, other: "Element") -> "Element":
        return Element(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "Element":
        return Element(tuple(c * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def build_adjacency_algebra(g: Graph) -> EvolutionAlgebra:
    rows = adjacency_matrix(g)
    return EvolutionAlgebra(g.n, tuple(tuple(r) for r in rows), ADJACENCY)


def build_rw_algebra(g: Graph) -> EvolutionAlgebra:
    """Random-walk algebra; rows are exact a_ik/deg(i) and sum to 1."""
    rows = []
    for i in g.vertices():
        d = g.degree(i)
        if d == 0:
            raise IsolatedVertex(f"vertex {i} has degree 0")
        rows.append(tuple(Fraction(g.adj[i - 1][k], d) for k in range(g.n)))
    return EvolutionAlgebra(g.n, tuple(rows), RANDOM_WALK)


def multiply(alg: EvolutionAlgebra, x: Element, y: Element) -> Element:
    """Bilinear product: cross terms vanish, squares expand by M.

    The result is sum_i x_i * y_i * row_i(M), over floats or over any mix
    of Fraction, int and RadicalSum (which meets rationals on either side).
    A coordinate with a zero factor is skipped before it is multiplied.
    """
    if len(x.coeffs) != alg.n or len(y.coeffs) != alg.n:
        raise DimensionMismatch(
            f"element lengths {len(x.coeffs)},{len(y.coeffs)} vs algebra dimension {alg.n}"
        )
    acc = [Fraction(0)] * alg.n
    for i, (xi, yi) in enumerate(zip(x.coeffs, y.coeffs)):
        if not xi or not yi:
            continue
        prod = xi * yi
        if not prod:  # a float product can underflow
            continue
        row = alg.M[i]
        for k in range(alg.n):
            if row[k]:
                acc[k] = acc[k] + prod * row[k]
    return Element(tuple(acc))


def is_markov(alg: EvolutionAlgebra) -> bool:
    """True iff all structure constants lie in [0,1] and rows sum to 1."""
    for row in alg.M:
        if any(c < 0 or c > 1 for c in row):
            return False
        if sum(row) != 1:
            return False
    return True
