"""The quadratic constraint system satisfied by algebra homomorphisms.

A linear map f from the random-walk algebra of G to the adjacency
algebra of G, written f(e_i) = sum_k t_ik e_k, is an algebra
homomorphism iff the unknowns t_ik satisfy, for every vertex r:

  * product constraints, one per pair i < j:
        sum_{k in N(r)} t_ik * t_jk = 0
  * square constraints, one per vertex i:
        sum_{k in N(r)} t_ik**2  -  (1/deg(i)) * sum_{l in N(i)} t_lr = 0

The generator below emits exactly this system; the independent oracle
``is_homomorphism_direct`` instead expands f(e_i e_j) = f(e_i) f(e_j)
through the algebra module and never looks at the constraints, which is
what ties the two routes together in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .algebra import DimensionMismatch, Element, build_adjacency_algebra, build_rw_algebra, multiply
from .graphs import Graph
from .radicals import RadicalSum


@dataclass(frozen=True)
class Constraint:
    tag: str          # "prodzero:r:i:j" or "square:i:r"
    p: poly.Poly


@dataclass(frozen=True)
class HomSystem:
    graph: Graph
    n: int
    constraints: tuple[Constraint, ...]

    def var(self, i: int, k: int) -> int:
        """Flatten 1-indexed coefficient position (i,k) to a variable index."""
        return (i - 1) * self.n + (k - 1)

    def var_pair(self, v: int) -> tuple[int, int]:
        return v // self.n + 1, v % self.n + 1

    def var_name(self, v: int) -> str:
        i, k = self.var_pair(v)
        return f"t_{i}_{k}"

    @property
    def num_vars(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class HomCandidate:
    """An n x n coefficient matrix of any mix of Fraction, int and RadicalSum
    entries, or of floats; exact candidates the library builds hold RadicalSums."""

    entries: tuple[tuple, ...]

    @staticmethod
    def from_rows(rows) -> "HomCandidate":
        return HomCandidate(tuple(tuple(r) for r in rows))

    @staticmethod
    def from_radicals(rows) -> "HomCandidate":
        """The exact candidate with these Radical entries, each as a RadicalSum."""
        return HomCandidate(tuple(tuple(RadicalSum.from_radical(r) for r in row) for row in rows))

    @staticmethod
    def zero(n: int) -> "HomCandidate":
        return HomCandidate(tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)))

    @staticmethod
    def scaled_identity(n: int, c) -> "HomCandidate":
        return HomCandidate(
            tuple(tuple(c if i == k else Fraction(0) for k in range(n)) for i in range(n))
        )

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, k: int):
        return self.entries[i - 1][k - 1]

    def max_abs(self) -> float:
        return max((abs(float(x)) for row in self.entries for x in row), default=0.0)


def derive_constraints(g: Graph) -> HomSystem:
    """Emit the full constraint system in deterministic order.

    Ordering is r-major: for each r first the product constraints over
    pairs (i, j) with i < j, then all square constraints follow, again
    r-major.  Total count is n * n(n-1)/2 + n**2.

    Each row is built as the dict ``poly_from_terms`` would return: its
    monomials are already sorted (var(i, k) < var(j, k) for i < j) and
    distinct, and no coefficient is zero.  Coefficients are shared, which
    is safe, since ``Fraction`` is immutable.
    """
    n = g.n
    one = Fraction(1)
    # 0-indexed columns of each vertex's neighbours, and -1/deg(i) per vertex
    cols = [[k - 1 for k in sorted(g.neighbors(v))] for v in g.vertices()]
    neg_inv_deg = [Fraction(-1, len(c)) if c else None for c in cols]
    out: list[Constraint] = []
    for r in g.vertices():
        ks = cols[r - 1]
        for i in range(n):
            bi = i * n
            for j in range(i + 1, n):
                bj = j * n
                out.append(Constraint(f"prodzero:{r}:{i + 1}:{j + 1}", {(bi + k, bj + k): one for k in ks}))
    for r in g.vertices():
        ks = cols[r - 1]
        for i in range(n):
            bi = i * n
            p = {(bi + k, bi + k): one for k in ks}
            d = neg_inv_deg[i]
            if d is not None:  # empty neighbourhood only for the 1-vertex graph
                for l in cols[i]:
                    p[(l * n + r - 1,)] = d
            out.append(Constraint(f"square:{i + 1}:{r}", p))
    return HomSystem(g, n, tuple(out))


@dataclass(frozen=True)
class ResidualReport:
    values: tuple
    max_norm: float

    def is_exact_zero(self) -> bool:
        return not any(self.values)


def residual(sys: HomSystem, T: HomCandidate) -> ResidualReport:
    """Per-constraint evaluation of the candidate; exact for exact entries."""
    if T.n != sys.n:
        raise DimensionMismatch(f"candidate is {T.n}x{T.n}, system has n={sys.n}")
    flat = [x for row in T.entries for x in row]
    values = tuple(poly.evaluate(c.p, flat.__getitem__) for c in sys.constraints)
    norm = max((abs(float(v)) for v in values), default=0.0)
    return ResidualReport(values, norm)


def _apply_candidate(T: HomCandidate, z: Element) -> Element:
    """Image of an element under the linear map with coefficient matrix T."""
    n = T.n
    acc = [Fraction(0)] * n
    for i in range(n):
        zi = z.coeffs[i]
        if not zi:
            continue
        for k in range(n):
            e = T.entries[i][k]
            if e:
                acc[k] = acc[k] + e * zi
    return Element(tuple(acc))


def is_homomorphism_direct(g: Graph, T: HomCandidate) -> bool:
    """Brute-force oracle: check f(e_i e_j) = f(e_i) f(e_j) for all pairs.

    Products on the left are taken in the random-walk algebra, on the
    right in the adjacency algebra; both expansions go through the
    algebra module, independently of the derived constraint system.
    """
    if T.n != g.n:
        raise DimensionMismatch(f"candidate is {T.n}x{T.n}, graph has n={g.n}")
    dom = build_rw_algebra(g)
    cod = build_adjacency_algebra(g)
    images = [Element(tuple(T.entries[i])) for i in range(g.n)]
    for i in g.vertices():
        for j in range(i, g.n + 1):
            lhs_dom = multiply(dom, dom.basis_element(i), dom.basis_element(j))
            lhs = _apply_candidate(T, lhs_dom)
            rhs = multiply(cod, images[i - 1], images[j - 1])
            diff = lhs + rhs.scale(Fraction(-1))
            if not diff.is_zero():
                return False
    return True


def is_isomorphism(g: Graph, T: HomCandidate) -> bool:
    """Homomorphism (by the direct oracle) with full exact rank."""
    return is_homomorphism_direct(g, T) and rank(T.entries) == g.n


def rank(rows) -> int:
    """Exact rank of a matrix over radical sums (rational entries are coerced).

    Elimination divides only by single-term pivots (those have exact
    inverses).  Every nonzero rational is a single term, and every
    candidate produced by the closed-form constructions is diagonal, so
    a suitable pivot always exists there.
    """
    m = [[x if isinstance(x, RadicalSum) else RadicalSum.from_rational(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero and m[i][c].is_single_term():
                piv = i
                break
        if piv is None:
            if any(not m[i][c].is_zero for i in range(r, len(m))):
                raise ValueError("cannot pick an invertible radical pivot")
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = RadicalSum.from_radical(m[r][c].as_radical().inverse())
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r
