from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evograph.graphs import (
    Disconnected,
    DuplicateEdge,
    GraphParseError,
    InvalidParameter,
    LoopEdge,
    OutOfRange,
    adjacency_matrix,
    build_graph,
    bull_graph,
    caterpillar,
    classify_regularity,
    complete_bipartite,
    cycle_graph,
    format_edge_list,
    generate_family,
    is_singular,
    parse_edge_list,
    path_graph,
    star_graph,
    tadpole,
    twin_partition,
)
from evograph.homsystem import rank


T41_EDGES = [(1, 2), (2, 3), (1, 4), (3, 4), (4, 5)]
T41_ADJ = [
    [0, 1, 0, 1, 0],
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 0],
    [1, 0, 1, 0, 1],
    [0, 0, 0, 1, 0],
]
BULL_ADJ = [
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [1, 0, 0, 1, 1],
    [0, 1, 1, 0, 1],
    [0, 0, 1, 1, 0],
]


@st.composite
def connected_graphs(draw, max_n=8, min_n=1):
    """Random spanning tree plus a random subset of extra edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = set()
    for v in range(2, n + 1):
        parent = draw(st.integers(min_value=1, max_value=v - 1))
        edges.add((parent, v))
    rest = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in edges
    ]
    extra = draw(st.lists(st.sampled_from(rest), unique=True) if rest else st.just([]))
    return build_graph(n, sorted(edges | set(extra)))


class TestBuildGraph:
    def test_tadpole_41_by_hand(self):
        g = build_graph(5, T41_EDGES)
        assert [list(r) for r in g.adj] == T41_ADJ

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.edges() == []

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            build_graph(4, [(1, 2), (3, 4)])

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            build_graph(3, [(1, 1), (1, 2), (2, 3)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(1, 2), (2, 1), (2, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            build_graph(3, [(1, 4)])


class TestAdjacency:
    def test_t41_matches_figure(self):
        assert adjacency_matrix(tadpole(4, 1)) == [[Fraction(x) for x in r] for r in T41_ADJ]

    def test_bull_matches_figure(self):
        assert adjacency_matrix(bull_graph()) == [[Fraction(x) for x in r] for r in BULL_ADJ]

    def test_single_vertex_zero(self):
        assert adjacency_matrix(build_graph(1, [])) == [[0]]


class TestTwins:
    def test_tadpole_cycle_twins(self):
        for m in (1, 2, 3):
            part = twin_partition(tadpole(4, m))
            assert (1, 3) in part.classes

    def test_bull_twin_free(self):
        part = twin_partition(bull_graph())
        assert all(len(c) == 1 for c in part.classes)

    def test_diameter_three_tree_classes(self):
        # two spine vertices, two pendant groups
        part = twin_partition(caterpillar(2, 2))
        assert set(part.classes) == {(1,), (2,), (3, 4), (5, 6)}

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs())
    def test_twin_relation_is_an_equivalence(self, g):
        # brute force over vertex pairs against the computed partition
        part = twin_partition(g)
        for i in g.vertices():
            for j in g.vertices():
                same = part.class_of(i) == part.class_of(j)
                assert same == (g.neighbors(i) == g.neighbors(j))


class TestRegularity:
    def test_cycle_regular(self):
        reg = classify_regularity(cycle_graph(4))
        assert reg.is_regular and reg.k == 2

    def test_star_biregular_leaves_first(self):
        reg = classify_regularity(star_graph(3))
        assert reg.is_biregular and (reg.k1, reg.k2) == (1, 3)
        assert reg.part1 == (2, 3, 4) and reg.part2 == (1,)

    def test_bull_neither(self):
        g = bull_graph()
        assert sorted(g.degree(v) for v in g.vertices()) == [1, 1, 2, 3, 3]
        assert classify_regularity(g).is_neither

    def test_odd_cycle_is_not_biregular(self):
        assert classify_regularity(cycle_graph(5)).is_regular

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs())
    def test_classification_invariants(self, g):
        reg = classify_regularity(g)
        if reg.is_regular:
            assert all(g.degree(v) == reg.k for v in g.vertices())
        elif reg.is_biregular:
            for side in (reg.part1, reg.part2):
                for u in side:
                    for v in side:
                        assert not g.has_edge(u, v) or u == v


class TestSingularity:
    @pytest.mark.parametrize(
        "g,expect_singular",
        [
            (bull_graph(), True),
            (tadpole(4, 1), True),
            (path_graph(4), False),
            (path_graph(5), True),
            (cycle_graph(4), True),
            (cycle_graph(5), False),
        ],
    )
    def test_known_determinants(self, g, expect_singular, det_cofactor):
        res = is_singular(g)
        assert res.singular == expect_singular
        assert res.determinant == det_cofactor([list(r) for r in g.adj])

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(max_n=7))
    def test_agrees_with_rank_deficiency(self, det_cofactor, g):
        res = is_singular(g)
        mat = [[Fraction(x) for x in row] for row in g.adj]
        assert res.singular == (rank(mat) < g.n)
        assert res.determinant == det_cofactor([list(r) for r in g.adj])

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs())
    def test_adjacency_shape_invariants(self, g):
        mat = adjacency_matrix(g)
        for i in range(g.n):
            assert mat[i][i] == 0
            assert sum(mat[i]) == g.degree(i + 1)
            for j in range(g.n):
                assert mat[i][j] == mat[j][i]


class TestFamilies:
    def test_tadpole_equals_figure_instance(self):
        assert generate_family("tadpole:4,1").adj == build_graph(5, T41_EDGES).adj

    def test_diameter_three_tree_size(self):
        for m, n in [(2, 2), (2, 3), (4, 5)]:
            g = caterpillar(m, n)
            assert g.n == m + n + 2
            assert _diameter(g) == 3

    def test_triangle(self):
        g = generate_family("cycle:3")
        assert classify_regularity(g).k == 2

    def test_star_alias(self):
        assert star_graph(3).adj == complete_bipartite(1, 3).adj

    def test_cmn_alias(self):
        assert generate_family("cmn:2,3").adj == caterpillar(2, 3).adj

    @pytest.mark.parametrize(
        "desc",
        ["caterpillar:1,-2", "cycle:2", "tadpole:2,1", "tadpole:4,0", "nosuch:3", "path:0", "cycle:x"],
    )
    def test_invalid_parameters(self, desc):
        with pytest.raises(InvalidParameter):
            generate_family(desc)


def _diameter(g):
    from collections import deque

    best = 0
    for s in g.vertices():
        dist = {s: 0}
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    dq.append(w)
        best = max(best, max(dist.values()))
    return best


class TestEdgeListFiles:
    def test_round_trip(self):
        g = tadpole(4, 3)
        assert parse_edge_list(format_edge_list(g, comment="tadpole")).adj == g.adj

    def test_comments_and_blank_lines(self):
        text = "# a tiny path\n\n3 2\n1 2  # first\n2 3\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.edges() == [(1, 2), (2, 3)]

    def test_bad_token_reports_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("3 2\n1 2\n2 x\n")
        assert exc.value.lineno == 3

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("3 5\n1 2\n2 3\n")

    def test_empty_file(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("# nothing\n")
