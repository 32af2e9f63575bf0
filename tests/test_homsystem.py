import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evograph.deduce import prove_null_only
from evograph.graphs import (
    bull_graph,
    cycle_graph,
    generate_family,
    path_graph,
    star_graph,
    tadpole,
)
from evograph.homsystem import (
    HomCandidate,
    derive_constraints,
    is_homomorphism_direct,
    is_isomorphism,
    residual,
)
from evograph.prooflog import dump_system
from evograph.radicals import RadicalSum
from evograph.search import SearchConfig, closed_form_iso, find_homomorphism

from test_graphs import connected_graphs

F = Fraction


def random_candidate(n, rng):
    return HomCandidate.from_rows(
        [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )


class TestDeriveConstraints:
    def test_count_formula_n5(self):
        sys = derive_constraints(tadpole(4, 1))
        assert sys.num_vars == 25
        assert len(sys.constraints) == 5 * 10 + 25

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_count_formula_generated(self, g):
        sys = derive_constraints(g)
        assert len(sys.constraints) == g.n * (g.n * (g.n - 1) // 2) + g.n * g.n

    def test_leaf_square_constraint(self):
        # vertex 5 of the (4,1)-tadpole is a leaf on 4: t54^2 = t45
        sys = derive_constraints(tadpole(4, 1))
        c = next(c for c in sys.constraints if c.tag == "square:5:5")
        v = sys.var
        assert c.p == {(v(5, 4), v(5, 4)): F(1), (v(4, 5),): F(-1)}

    def test_leaf_product_constraints(self):
        sys = derive_constraints(tadpole(4, 1))
        v = sys.var
        for i, j in itertools.combinations(range(1, 6), 2):
            c = next(c for c in sys.constraints if c.tag == f"prodzero:5:{i}:{j}")
            assert c.p == {tuple(sorted((v(i, 4), v(j, 4)))): F(1)}

    @staticmethod
    def _rows(system):
        """Tags, then each row's items in insertion order with their types."""
        return [(c.tag, [(m, x, type(x)) for m, x in c.p.items()]) for c in system.constraints]

    @pytest.mark.parametrize(
        "desc",
        [
            "path:1", "path:2", "path:7", "cycle:3", "cycle:6", "star:4",
            "complete_bipartite:2,3", "caterpillar:1,2,2", "cmn:3,2", "tadpole:4,3", "bull",
        ],
    )
    def test_matches_term_builder(self, desc, derive_constraints_terms):
        g = generate_family(desc)
        assert self._rows(derive_constraints(g)) == self._rows(derive_constraints_terms(g))

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_matches_term_builder_generated(self, derive_constraints_terms, g):
        assert self._rows(derive_constraints(g)) == self._rows(derive_constraints_terms(g))

    def test_deterministic_order(self):
        a = derive_constraints(bull_graph())
        b = derive_constraints(bull_graph())
        assert [c.tag for c in a.constraints] == [c.tag for c in b.constraints]
        assert a.constraints[0].tag.startswith("prodzero:1:")


class TestResidual:
    def test_null_map_always_satisfies(self):
        for g in [bull_graph(), cycle_graph(5), path_graph(3)]:
            rep = residual(derive_constraints(g), HomCandidate.zero(g.n))
            assert rep.is_exact_zero() and rep.max_norm == 0.0

    def test_half_identity_on_cycle(self):
        g = cycle_graph(4)
        rep = residual(derive_constraints(g), HomCandidate.scaled_identity(4, F(1, 2)))
        assert rep.is_exact_zero()

    def test_identity_on_bull_fails(self):
        g = bull_graph()
        sys = derive_constraints(g)
        T = HomCandidate.scaled_identity(5, F(1))
        rep = residual(sys, T)
        assert not rep.is_exact_zero()
        # square:3:1 reads t31^2+t34^2+t35^2 - (1/3)(t13+t43+t53) ... at the
        # identity every square constraint leaves a_ir * (1 - 1/deg(i))
        idx = next(i for i, c in enumerate(sys.constraints) if c.tag == "square:3:1")
        assert rep.values[idx] == F(2, 3)


class TestDirectOracle:
    def test_null_map(self):
        for g in [bull_graph(), cycle_graph(3)]:
            assert is_homomorphism_direct(g, HomCandidate.zero(g.n))

    def test_half_identity_on_cycle(self):
        assert is_homomorphism_direct(cycle_graph(4), HomCandidate.scaled_identity(4, F(1, 2)))

    def test_identity_on_bull_rejected(self):
        assert not is_homomorphism_direct(bull_graph(), HomCandidate.scaled_identity(5, F(1)))

    def test_isomorphism_examples(self):
        assert not is_isomorphism(cycle_graph(4), HomCandidate.zero(4))
        assert is_isomorphism(cycle_graph(4), HomCandidate.scaled_identity(4, F(1, 2)))
        # degree-1 regular: both algebras coincide, identity is an isomorphism
        assert is_isomorphism(path_graph(2), HomCandidate.scaled_identity(2, F(1)))


def with_entry(T, i, k, x):
    """T with its (i, k) entry (1-indexed) replaced by x."""
    rows = [list(row) for row in T.entries]
    rows[i - 1][k - 1] = x
    return HomCandidate.from_rows(rows)


class TestMixedEntries:
    """Fraction, int and RadicalSum entries meet in RadicalSum's own
    arithmetic, so every route gives the same answer on any mix of them."""

    @staticmethod
    def verdicts(g, T):
        return (
            is_homomorphism_direct(g, T),
            is_isomorphism(g, T),
            residual(derive_constraints(g), T).is_exact_zero(),
        )

    def test_half_identity_with_one_radical_entry(self):
        T = HomCandidate.scaled_identity(4, F(1, 2))
        T = with_entry(T, 2, 2, RadicalSum.from_rational(F(1, 2)))
        assert self.verdicts(cycle_graph(4), T) == (True, True, True)

    def test_star_closed_form_with_fraction_zeros(self):
        cf = closed_form_iso(star_graph(3))
        T = HomCandidate.from_rows(
            [[x if i == k else F(0) for k, x in enumerate(row)] for i, row in enumerate(cf.entries)]
        )
        assert self.verdicts(star_graph(3), T) == (True, True, True)

    def test_bull_identity_with_one_radical_entry_rejected(self):
        T = with_entry(HomCandidate.scaled_identity(5, F(1)), 3, 3, RadicalSum.from_rational(1))
        assert not is_homomorphism_direct(bull_graph(), T)
        assert not is_isomorphism(bull_graph(), T)
        assert not residual(derive_constraints(bull_graph()), T).is_exact_zero()

    def test_float_half_identity(self):
        T = HomCandidate.from_rows([[0.5 if i == k else 0.0 for k in range(4)] for i in range(4)])
        assert self.verdicts(cycle_graph(4), T) == (True, True, True)


class TestExactCandidatesHoldRadicalSums:
    @staticmethod
    def all_radical(T):
        return T is not None and all(isinstance(x, RadicalSum) for row in T.entries for x in row)

    def test_closed_forms(self):
        assert self.all_radical(closed_form_iso(cycle_graph(4)))
        assert self.all_radical(closed_form_iso(star_graph(3)))

    def test_search_reconstruction(self):
        out = find_homomorphism(cycle_graph(4), SearchConfig(restarts=40, seed=3))
        assert self.all_radical(out.exact)

    def test_engine_witness(self):
        assert self.all_radical(prove_null_only(path_graph(2)).witness)


class TestOracleEquivalence:
    """residual == 0 exactly iff the direct expansion agrees: the property
    tying the generated system back to the defining condition."""

    GRAPHS = (
        [path_graph(n) for n in range(2, 7)]
        + [cycle_graph(n) for n in range(3, 7)]
        + [bull_graph(), tadpole(4, 1), generate_family("cmn:2,2")]
    )

    @pytest.mark.parametrize("gi", range(12))
    def test_seeded_random_candidates(self, gi):
        g = self.GRAPHS[gi]
        rng = random.Random(1000 + gi)
        sys = derive_constraints(g)
        for _ in range(30):
            T = random_candidate(g.n, rng)
            assert residual(sys, T).is_exact_zero() == is_homomorphism_direct(g, T)

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(max_n=5, min_n=2), st.integers(0, 2**32 - 1))
    def test_hypothesis_candidates(self, g, seed):
        rng = random.Random(seed)
        sys = derive_constraints(g)
        T = random_candidate(g.n, rng)
        assert residual(sys, T).is_exact_zero() == is_homomorphism_direct(g, T)


class TestPermutationEquivariance:
    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(max_n=5, min_n=2), st.integers(0, 2**32 - 1))
    def test_relabelled_candidate(self, g, seed):
        rng = random.Random(seed)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        mapping = {v: perm[v - 1] for v in g.vertices()}
        h = g.relabel(mapping)
        T = random_candidate(g.n, rng)
        # (P T P^t)[mapping[i]][mapping[k]] = T[i][k]
        moved = [[None] * g.n for _ in range(g.n)]
        for i in range(1, g.n + 1):
            for k in range(1, g.n + 1):
                moved[mapping[i] - 1][mapping[k] - 1] = T.entry(i, k)
        PT = HomCandidate.from_rows(moved)
        lhs = residual(derive_constraints(g), T).is_exact_zero()
        rhs = residual(derive_constraints(h), PT).is_exact_zero()
        assert lhs == rhs


class TestDump:
    def test_json_structure(self):
        sys = derive_constraints(path_graph(2))
        payload = json.loads(dump_system(sys))
        assert payload["n"] == 2
        assert payload["variables"] == ["t_1_1", "t_1_2", "t_2_1", "t_2_2"]
        tags = {c["tag"] for c in payload["constraints"]}
        assert "prodzero:1:1:2" in tags and "square:2:1" in tags
        by_tag = {c["tag"]: c for c in payload["constraints"]}
        assert by_tag["prodzero:1:1:2"]["terms"] == [
            {"coeff": "1", "monomial": ["t_1_2", "t_2_2"]}
        ]
