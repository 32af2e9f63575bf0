"""Finite simple connected graphs: construction, family generators, classification.

Vertices are labelled 1..n throughout.  Every graph is validated at
construction time (simple, no loops, connected); all derived data
(degrees, neighbourhoods, twin classes, regularity, singularity) is
computed from the immutable adjacency structure, so values are safe to
share between threads or workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class GraphError(ValueError):
    """Base class for graph construction and parsing failures."""


class LoopEdge(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class Disconnected(GraphError):
    pass


class OutOfRange(GraphError):
    pass


class InvalidParameter(GraphError):
    pass


class GraphParseError(GraphError):
    """Edge-list file failure, carrying the 1-based line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


@dataclass(frozen=True)
class Graph:
    """A connected simple graph on vertices 1..n.

    ``adj`` is the 0/1 adjacency structure stored row-major and
    0-indexed; use :meth:`neighbors` / :meth:`degree` for the 1-indexed
    vertex API.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def _neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(j + 1 for j in range(self.n) if self.adj[i][j])
            for i in range(self.n)
        )

    def neighbors(self, v: int) -> frozenset[int]:
        return self._neighbor_sets[v - 1]

    def degree(self, v: int) -> int:
        return len(self._neighbor_sets[v - 1])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u - 1][v - 1])

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.adj[i][j]
        ]

    def leaves(self) -> list[int]:
        return [v for v in self.vertices() if self.degree(v) == 1]

    def relabel(self, perm: dict[int, int]) -> "Graph":
        """Return the graph with vertex v renamed to perm[v]."""
        return build_graph(self.n, [(perm[u], perm[v]) for u, v in self.edges()])


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertex set by equal open neighbourhoods."""

    classes: tuple[tuple[int, ...], ...]

    def class_of(self, v: int) -> tuple[int, ...]:
        for cls in self.classes:
            if v in cls:
                return cls
        raise OutOfRange(f"vertex {v} not in partition")


@dataclass(frozen=True)
class RegularityClass:
    """Tagged union: Regular(k) | Biregular(k1, k2, part1, part2) | Neither."""

    kind: str  # "regular" | "biregular" | "neither"
    k: int | None = None
    k1: int | None = None
    k2: int | None = None
    part1: tuple[int, ...] = ()
    part2: tuple[int, ...] = ()

    @property
    def is_regular(self) -> bool:
        return self.kind == "regular"

    @property
    def is_biregular(self) -> bool:
        return self.kind == "biregular"

    @property
    def is_neither(self) -> bool:
        return self.kind == "neither"


@dataclass(frozen=True)
class SingularityResult:
    singular: bool
    determinant: int


def build_graph(n: int, edges) -> Graph:
    """Validate and build a connected simple graph on vertices 1..n."""
    if n < 1:
        raise InvalidParameter(f"vertex count must be positive, got {n}")
    rows = [[0] * n for _ in range(n)]
    for u, v in edges:
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise OutOfRange(f"edge ({u},{v}) out of range 1..{n}")
        if u == v:
            raise LoopEdge(f"loop edge at vertex {u}")
        if rows[u - 1][v - 1]:
            raise DuplicateEdge(f"duplicate edge ({u},{v})")
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = 1
    g = Graph(n, tuple(tuple(r) for r in rows))
    _check_connected(g)
    return g


def _check_connected(g: Graph) -> None:
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != g.n:
        missing = sorted(set(g.vertices()) - seen)
        raise Disconnected(f"graph is not connected; unreachable vertices {missing}")


def adjacency_matrix(g: Graph) -> list[list[Fraction]]:
    """Adjacency matrix as exact rationals (symmetric, zero diagonal)."""
    return [[Fraction(x) for x in row] for row in g.adj]


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices by equal open neighbourhoods.

    Twinhood is an equivalence relation, so bucketing by the
    neighbourhood set itself yields the classes directly.
    """
    buckets: dict[frozenset[int], list[int]] = {}
    for v in g.vertices():
        buckets.setdefault(g.neighbors(v), []).append(v)
    classes = sorted((tuple(sorted(vs)) for vs in buckets.values()), key=lambda c: c[0])
    return TwinPartition(tuple(classes))


def classify_regularity(g: Graph) -> RegularityClass:
    """Classify as Regular(k), Biregular(k1,k2) or Neither.

    Biregularity requires a proper 2-colouring (bipartite test by BFS)
    with a uniform degree on each colour class; non-bipartite graphs are
    never biregular.
    """
    degrees = {g.degree(v) for v in g.vertices()}
    if len(degrees) == 1:
        return RegularityClass("regular", k=degrees.pop())

    color = {1: 0}
    queue = [1]
    while queue:
        u = queue.pop()
        for w in g.neighbors(u):
            if w not in color:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return RegularityClass("neither")
    part1 = tuple(sorted(v for v in g.vertices() if color[v] == 0))
    part2 = tuple(sorted(v for v in g.vertices() if color[v] == 1))
    d1 = {g.degree(v) for v in part1}
    d2 = {g.degree(v) for v in part2}
    if len(d1) == 1 and len(d2) == 1:
        k1, k2 = d1.pop(), d2.pop()
        if k1 > k2:  # normalize: smaller-degree side first
            k1, k2, part1, part2 = k2, k1, part2, part1
        return RegularityClass("biregular", k1=k1, k2=k2, part1=part1, part2=part2)
    return RegularityClass("neither")


def det_bareiss(rows: list[list[int]]) -> int:
    """Integer determinant by Bareiss fraction-free elimination.

    All intermediate values stay integral (divisions are exact), so the
    result is exact for arbitrary-precision inputs.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_singular(g: Graph) -> SingularityResult:
    """Exact adjacency determinant by fraction-free elimination."""
    det = det_bareiss([list(row) for row in g.adj])
    return SingularityResult(singular=(det == 0), determinant=det)


# -- family generators -------------------------------------------------------

def path_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidParameter(f"path needs n >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidParameter(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidParameter(f"complete bipartite needs both sides >= 1, got ({m},{n})")
    edges = [(i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return build_graph(m + n, edges)


def star_graph(n: int) -> Graph:
    """K_{1,n}: centre is vertex 1, leaves 2..n+1."""
    if n < 1:
        raise InvalidParameter(f"star needs n >= 1 leaves, got {n}")
    return complete_bipartite(1, n)


def caterpillar(*pendants: int) -> Graph:
    """Caterpillar with spine 1..len(pendants); pendants[i] leaves hang off
    spine vertex i+1, labelled consecutively after the spine."""
    if not pendants:
        raise InvalidParameter("caterpillar needs at least one spine vertex")
    if any(a < 0 for a in pendants):
        raise InvalidParameter(f"pendant counts must be nonnegative, got {pendants}")
    spine = len(pendants)
    edges = [(i, i + 1) for i in range(1, spine)]
    nxt = spine + 1
    for anchor, count in enumerate(pendants, start=1):
        for _ in range(count):
            edges.append((anchor, nxt))
            nxt += 1
    return build_graph(spine + sum(pendants), edges)


def tadpole(n: int, m: int) -> Graph:
    """Cycle 1..n joined by a bridge at vertex n to a path n+1..n+m."""
    if n < 3:
        raise InvalidParameter(f"tadpole cycle needs n >= 3, got {n}")
    if m < 1:
        raise InvalidParameter(f"tadpole tail needs m >= 1, got {m}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    edges += [(i, i + 1) for i in range(n, n + m)]
    return build_graph(n + m, edges)


def bull_graph() -> Graph:
    """Triangle 3-4-5 with pendant edges 1-3 and 2-4."""
    return build_graph(5, [(1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])


# name -> (constructor, fewest arguments, most arguments or None for no limit)
_FAMILIES = {
    "path": (path_graph, 1, 1),
    "cycle": (cycle_graph, 1, 1),
    "star": (star_graph, 1, 1),
    "complete_bipartite": (complete_bipartite, 2, 2),
    "caterpillar": (caterpillar, 1, None),
    "cmn": (caterpillar, 2, 2),
    "tadpole": (tadpole, 2, 2),
    "bull": (bull_graph, 0, 0),
}


def generate_family(descriptor: str) -> Graph:
    """Build a graph from a family descriptor string.

    Examples: ``"tadpole:4,3"``, ``"caterpillar:1,2,2"``, ``"bull"``,
    ``"cmn:2,3"`` (the diameter-3 tree, a two-vertex-spine caterpillar).
    """
    name, _, argstr = descriptor.strip().partition(":")
    name = name.strip().lower()
    if name not in _FAMILIES:
        raise InvalidParameter(f"unknown family {name!r}")
    fn, lo, hi = _FAMILIES[name]
    args: list[int] = []
    if argstr.strip():
        try:
            args = [int(tok) for tok in argstr.split(",")]
        except ValueError as exc:
            raise InvalidParameter(f"bad family arguments {argstr!r}") from exc
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise InvalidParameter(f"family {name!r} takes {lo}{'' if hi == lo else '+'} arguments, got {len(args)}")
    return fn(*args)


# -- edge-list files ----------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line ``n m`` then m lines ``u v``.

    1-indexed, whitespace separated; ``#`` starts a comment.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(lineno, f"expected two integers, got {raw.strip()!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(lineno, f"expected two integers, got {raw.strip()!r}")
        if header is None:
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise GraphParseError(1, "empty file")
    n, m = header
    if len(edges) != m:
        raise GraphParseError(1, f"header announces {m} edges, file has {len(edges)}")
    return build_graph(n, edges)


def format_edge_list(g: Graph, comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    es = g.edges()
    lines.append(f"{g.n} {len(es)}")
    lines.extend(f"{u} {v}" for u, v in es)
    return "\n".join(lines) + "\n"
