import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evograph.algebra import (
    RANDOM_WALK,
    DimensionMismatch,
    Element,
    EvolutionAlgebra,
    build_adjacency_algebra,
    build_rw_algebra,
    is_markov,
    multiply,
)
from evograph.graphs import build_graph, bull_graph, cycle_graph, path_graph, tadpole

from test_graphs import connected_graphs

F = Fraction


def elem(alg, coeffs):
    return Element(tuple(F(c) for c in coeffs))


class TestAdjacencyAlgebra:
    def test_t41_squares(self):
        alg = build_adjacency_algebra(tadpole(4, 1))
        assert alg.row(4) == (F(1), F(0), F(1), F(0), F(1))  # e4^2 = e1+e3+e5
        assert alg.row(5) == (F(0), F(0), F(0), F(1), F(0))  # e5^2 = e4

    def test_single_vertex_square_is_zero(self):
        alg = build_adjacency_algebra(build_graph(1, []))
        assert alg.row(1) == (F(0),)


class TestRandomWalkAlgebra:
    def test_t41_rows(self):
        alg = build_rw_algebra(tadpole(4, 1))
        assert alg.row(4) == (F(1, 3), 0, F(1, 3), 0, F(1, 3))
        assert alg.row(1) == (0, F(1, 2), 0, F(1, 2), 0)
        assert alg.row(5) == (0, 0, 0, F(1), 0)

    def test_bull_degree_two_row(self):
        alg = build_rw_algebra(bull_graph())
        assert alg.row(5) == (0, 0, F(1, 2), F(1, 2), 0)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_rows_sum_to_one_exactly(self, g):
        if g.n == 1:
            return  # isolated vertex, random walk undefined
        alg = build_rw_algebra(g)
        for i in g.vertices():
            assert sum(alg.row(i)) == 1


class TestMultiply:
    def test_cross_terms_vanish(self):
        alg = build_adjacency_algebra(tadpole(4, 1))
        out = multiply(alg, alg.basis_element(1), alg.basis_element(2))
        assert out.is_zero()

    def test_sum_of_basis_elements_squared(self):
        # (e1+e2)^2 expands to row1 + row2 of the structure matrix
        alg = build_adjacency_algebra(tadpole(4, 1))
        x = elem(alg, [1, 1, 0, 0, 0])
        out = multiply(alg, x, x)
        assert out.coeffs == (F(1), F(1), F(1), F(1), F(0))

    def test_zero_absorbs(self):
        alg = build_rw_algebra(cycle_graph(4))
        x = elem(alg, [1, 2, 3, 4])
        assert multiply(alg, alg.zero(), x).is_zero()

    def test_dimension_mismatch(self):
        alg = build_adjacency_algebra(cycle_graph(4))
        with pytest.raises(DimensionMismatch):
            multiply(alg, elem(alg, [1, 2, 3]), elem(alg, [1, 2, 3]))

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=6), st.integers(0, 2**32 - 1))
    def test_basis_products(self, g, seed):
        alg = build_adjacency_algebra(g)
        for i in g.vertices():
            for j in g.vertices():
                out = multiply(alg, alg.basis_element(i), alg.basis_element(j))
                if i == j:
                    assert out.coeffs == alg.row(i)
                else:
                    assert out.is_zero()

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=5), st.integers(0, 2**32 - 1))
    def test_bilinear_and_commutative(self, g, seed):
        rng = random.Random(seed)
        alg = build_rw_algebra(g) if g.n > 1 else build_adjacency_algebra(g)

        def rand_elem():
            return elem(alg, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(g.n)])

        x, y, z = rand_elem(), rand_elem(), rand_elem()
        a, b = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
        lhs = multiply(alg, x.scale(a) + y.scale(b), z)
        rhs = multiply(alg, x, z).scale(a) + multiply(alg, y, z).scale(b)
        assert lhs.coeffs == rhs.coeffs
        assert multiply(alg, x, y).coeffs == multiply(alg, y, x).coeffs


class TestMarkov:
    def test_random_walk_always_markov(self):
        for g in [cycle_graph(4), bull_graph(), tadpole(4, 3), path_graph(2)]:
            assert is_markov(build_rw_algebra(g))

    def test_adjacency_cycle_not_markov(self):
        assert not is_markov(build_adjacency_algebra(cycle_graph(4)))

    def test_adjacency_of_an_edge_is_markov(self):
        # the 2x2 exchange matrix is row-stochastic
        assert is_markov(build_adjacency_algebra(path_graph(2)))


def test_algebra_is_its_exact_structure_matrix():
    g = bull_graph()
    rows = tuple(
        tuple(Fraction(g.adj[i - 1][k], g.degree(i)) for k in range(g.n)) for i in g.vertices()
    )
    alg = build_rw_algebra(g)
    assert alg == EvolutionAlgebra(g.n, rows, RANDOM_WALK)
    assert all(type(c) is Fraction for row in alg.M for c in row)
    assert alg != build_adjacency_algebra(g)


def test_single_vertex_has_no_random_walk_algebra():
    from evograph.algebra import IsolatedVertex

    with pytest.raises(IsolatedVertex):
        build_rw_algebra(build_graph(1, []))
