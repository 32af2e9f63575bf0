from fractions import Fraction

import numpy as np
import pytest

from evograph.graphs import (
    build_graph,
    bull_graph,
    complete_bipartite,
    cycle_graph,
    path_graph,
    star_graph,
    tadpole,
)
from evograph.homsystem import HomCandidate, derive_constraints, is_homomorphism_direct, residual
from evograph.radicals import Radical
from evograph.search import (
    NONE_FOUND,
    TOL_NULL,
    TOL_RESIDUAL,
    VERIFIED_HOM,
    SearchConfig,
    _CompiledSystem,
    closed_form_iso,
    find_homomorphism,
    gradient,
    reconstruct_scalar,
)

F = Fraction


class TestConfig:
    def test_defaults_are_consistent(self):
        cfg = SearchConfig()
        assert cfg.restarts == 200 and TOL_RESIDUAL < TOL_NULL

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)


class TestClosedForm:
    def test_cycle_gives_half_identity(self):
        cand = closed_form_iso(cycle_graph(4))
        assert cand.entries == HomCandidate.scaled_identity(4, F(1, 2)).entries

    def test_star_radical_values(self):
        # leaves side: (1*1*3)^(-1/3); centre side: (1*3*3)^(-1/3)
        cand = closed_form_iso(star_graph(3))
        alpha = Radical.root(F(1, 3), 3)
        beta = Radical.root(F(1, 9), 3)
        leaf_entry = cand.entry(2, 2).as_radical()
        centre_entry = cand.entry(1, 1).as_radical()
        assert leaf_entry == alpha and centre_entry == beta
        assert alpha * alpha == beta / 1
        assert beta * beta == alpha / 3

    def test_absent_for_irregular(self):
        assert closed_form_iso(bull_graph()) is None
        assert closed_form_iso(tadpole(4, 1)) is None

    def test_absent_for_single_vertex(self):
        # regular of degree 0, but one vertex has no random-walk algebra
        assert closed_form_iso(path_graph(1)) is None

    @pytest.mark.parametrize(
        "g", [cycle_graph(3), cycle_graph(6), star_graph(4), complete_bipartite(2, 3)]
    )
    def test_numeric_backup(self, g):
        cand = closed_form_iso(g)
        floatT = HomCandidate.from_rows([[float(x) for x in row] for row in cand.entries])
        assert residual(derive_constraints(g), floatT).max_norm < 1e-12


class TestGradient:
    def test_zero_point_is_critical(self):
        sys = derive_constraints(bull_graph())
        G = gradient(sys, np.zeros((5, 5)))
        assert np.all(G == 0.0)

    def test_single_vertex_degenerate(self):
        sys = derive_constraints(build_graph(1, []))
        G = gradient(sys, np.array([[3.7]]))
        assert G.shape == (1, 1) and G[0, 0] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for g in [cycle_graph(4), bull_graph(), tadpole(4, 1)]:
            sys = derive_constraints(g)
            comp = _CompiledSystem(sys)
            x = rng.uniform(-1.5, 1.5, size=sys.num_vars)
            G = gradient(sys, x.reshape(sys.n, sys.n)).reshape(-1)
            h = 1e-6
            for idx in rng.choice(sys.num_vars, size=6, replace=False):
                xp, xm = x.copy(), x.copy()
                xp[idx] += h
                xm[idx] -= h
                fp = float(comp.residual_vec(xp) @ comp.residual_vec(xp))
                fm = float(comp.residual_vec(xm) @ comp.residual_vec(xm))
                fd = (fp - fm) / (2 * h)
                assert abs(G[idx] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestReconstruction:
    def test_plain_rationals(self):
        assert reconstruct_scalar(0.5) == Radical.from_rational(F(1, 2))
        assert reconstruct_scalar(-2 / 3) == Radical.from_rational(F(-2, 3))

    def test_radical_constants(self):
        assert reconstruct_scalar(2.0 ** (-2 / 3)) == Radical.root(F(1, 4), 3)
        assert reconstruct_scalar(3.0 ** (-1 / 3)) == Radical.root(F(1, 3), 3)
        assert reconstruct_scalar(9.0 ** (-1 / 3)) == Radical.root(F(1, 9), 3)

    def test_garbage_rejected(self):
        assert reconstruct_scalar(0.7234867123) is None


class TestSearch:
    def test_cycle4_finds_verified_isomorphism(self):
        out = find_homomorphism(cycle_graph(4), SearchConfig(restarts=40, seed=3))
        assert out.kind == VERIFIED_HOM and out.isomorphism
        assert residual(derive_constraints(cycle_graph(4)), out.exact).is_exact_zero()

    def test_bull_reports_none_found(self):
        out = find_homomorphism(bull_graph(), SearchConfig(restarts=40, seed=3))
        assert out.kind == NONE_FOUND
        assert out.best_residual > 1e-6

    def test_deterministic_under_seed(self):
        a = find_homomorphism(bull_graph(), SearchConfig(restarts=25, seed=7))
        b = find_homomorphism(bull_graph(), SearchConfig(restarts=25, seed=7))
        assert (a.kind, a.best_residual, a.restart_index) == (
            b.kind,
            b.best_residual,
            b.restart_index,
        )

    def test_null_basin_is_discarded(self):
        # on cycle:8 every restart converges to the null map and is dropped
        out = find_homomorphism(cycle_graph(8), SearchConfig(restarts=5, seed=0))
        assert out.kind == NONE_FOUND and out.best_residual == float("inf")

    def test_automorphism_conjugation_preserves_verification(self):
        g = cycle_graph(4)
        out = find_homomorphism(g, SearchConfig(restarts=40, seed=3))
        rot = {1: 2, 2: 3, 3: 4, 4: 1}
        moved = [[None] * 4 for _ in range(4)]
        for i in range(1, 5):
            for k in range(1, 5):
                moved[rot[i] - 1][rot[k] - 1] = out.exact.entry(i, k)
        assert is_homomorphism_direct(g, HomCandidate.from_rows(moved))
