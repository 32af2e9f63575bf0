from fractions import Fraction

import numpy as np
import pytest

from evograph.cli import ISO_INSTANCES, NO_FALSE_CERT_INSTANCES, NULL_ONLY_INSTANCES, NUMERIC_NULL_INSTANCES
from evograph.graphs import (
    build_graph,
    bull_graph,
    complete_bipartite,
    cycle_graph,
    generate_family,
    path_graph,
    star_graph,
    tadpole,
)
from evograph.homsystem import HomCandidate, derive_constraints, is_homomorphism_direct, residual
from evograph import search
from evograph.radicals import Radical, RadicalSum
from evograph.search import (
    INIT_SCALE,
    MAX_ITERATIONS,
    NONE_FOUND,
    TOL_NULL,
    TOL_RESIDUAL,
    VERIFIED_HOM,
    SearchConfig,
    SearchStats,
    _lm_minimize,
    _MatrixForm,
    _settles,
    closed_form_iso,
    find_homomorphism,
    gradient,
    reconstruct_scalar,
)

F = Fraction

MATRIX_FORM_GRAPHS = sorted(
    set(NULL_ONLY_INSTANCES + ISO_INSTANCES + NO_FALSE_CERT_INSTANCES + NUMERIC_NULL_INSTANCES)
    | {"path:1", "path:2"}
)


def squared_residual(sys, x) -> float:
    """Sum of squared constraint residuals, evaluated on the symbolic system."""
    T = HomCandidate.from_rows(x.reshape(sys.n, sys.n).tolist())
    return float(sum(v * v for v in residual(sys, T).values))


def dense_jacobian(sys, x) -> np.ndarray:
    """Jacobian of the constraints at x, differentiating each polynomial term by term."""
    J = np.zeros((len(sys.constraints), sys.num_vars))
    for c, con in enumerate(sys.constraints):
        for mono, coeff in con.p.items():
            for pos, v in enumerate(mono):
                rest = np.prod([x[u] for u in mono[:pos] + mono[pos + 1 :]])
                J[c, v] += float(coeff) * rest
    return J


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
        half, zero = RadicalSum.from_rational(F(1, 2)), RadicalSum()
        assert cand.entries == tuple(tuple(half if i == k else zero for k in range(4)) for i in range(4))

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
            x = rng.uniform(-1.5, 1.5, size=sys.num_vars)
            G = gradient(sys, x.reshape(sys.n, sys.n)).reshape(-1)
            h = 1e-6
            for idx in rng.choice(sys.num_vars, size=6, replace=False):
                xp, xm = x.copy(), x.copy()
                xp[idx] += h
                xm[idx] -= h
                fd = (squared_residual(sys, xp) - squared_residual(sys, xm)) / (2 * h)
                assert abs(G[idx] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestMatrixForm:
    """The batched matrix form agrees with the symbolic constraint system."""

    @pytest.mark.parametrize("desc", MATRIX_FORM_GRAPHS)
    def test_agrees_with_symbolic_system(self, desc):
        sys = derive_constraints(generate_family(desc))
        form = _MatrixForm(sys.graph)
        rng = np.random.default_rng(11)
        X = rng.uniform(-1.5, 1.5, size=(2, sys.num_vars))
        r, R, S = form.evaluate(X)
        H, g = form.normal_equations(X, R, S)
        for b, x in enumerate(X):
            T = HomCandidate.from_rows(x.reshape(sys.n, sys.n).tolist())
            expected = np.array(residual(sys, T).values, dtype=np.float64)
            np.testing.assert_allclose(r[b], expected, rtol=0, atol=1e-12)
            J = dense_jacobian(sys, x)
            np.testing.assert_allclose(g[b], J.T @ expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(H[b], J.T @ J, rtol=0, atol=1e-12)


class TestBatchedMinimizer:
    def test_singular_step_stays_with_its_restart(self):
        # residual x, Jacobian I; row 0's damped normal matrix is singular
        class Form:
            def evaluate(self, X):
                return X.copy(), X.copy(), -X  # the products are x and -x

            def normal_equations(self, X, R, S):
                assert np.array_equal(R, X) and np.array_equal(S, -X)
                H = np.stack([np.eye(X.shape[1]) for _ in X])
                H[0] *= -1e-3  # cancelled exactly by the initial damping
                return H, X.copy()

        X0 = np.array([[1.0, -2.0], [0.5, 3.0]])
        X, r, _ = _lm_minimize(Form(), X0, max_iter=1)
        assert np.array_equal(X[0], X0[0])
        np.testing.assert_allclose(X[1], X0[1] * (1e-3 / (1 + 1e-3)), rtol=1e-12)
        assert np.array_equal(r, X)


class _Recording(_MatrixForm):
    """A matrix form that checks each carried product against a fresh one
    and counts the rows whose last step was rejected."""

    def __init__(self, g):
        super().__init__(g)
        self.last, self.rejected = set(), 0

    def normal_equations(self, X, R, S):
        _, R0, S0 = self.evaluate(X)
        assert R.tobytes() == R0.tobytes() and S.tobytes() == S0.tobytes()
        points = {x.tobytes() for x in X}
        self.rejected += len(points & self.last)
        self.last = points
        return super().normal_equations(X, R, S)


class TestCarriedProducts:
    """Each row's products are carried between steps, bit for bit."""

    @pytest.mark.parametrize("desc", ["cycle:6", "bull", "cmn:2,2"])
    def test_stacked_rows_match_rows_alone(self, desc):
        form = _Recording(generate_family(desc))
        X0 = np.random.default_rng(2).uniform(-INIT_SCALE, INIT_SCALE, size=(8, form.n**2))
        X, r, _ = _lm_minimize(form, X0, MAX_ITERATIONS)
        if desc != "cycle:6":  # carried products on rejected rows too
            assert form.rejected > 0
        for b, x0 in enumerate(X0):
            xb, rb, _ = _lm_minimize(form, x0[None], MAX_ITERATIONS)
            assert xb[0].tobytes() == X[b].tobytes() and rb[0].tobytes() == r[b].tobytes()

    def test_rows_past_a_settled_row_stop_with_it(self):
        # cycle:4 at seed 0: rows 0-3 end in the null basin, row 4 settles
        form = _Recording(cycle_graph(4))
        X0 = np.random.default_rng(0).uniform(-INIT_SCALE, INIT_SCALE, size=(8, form.n**2))
        alone = [_lm_minimize(form, x0[None], MAX_ITERATIONS) for x0 in X0]
        settles = [bool(_settles(np.abs(r).max(axis=1), np.abs(x).max(axis=1))[0]) for x, r, _ in alone]
        s = settles.index(True)
        assert s == 4 and alone[s][2].iterations == 7
        X, r, stats = _lm_minimize(form, X0, MAX_ITERATIONS)
        for b in range(s + 1):  # the settled row and those before it run to their own stop
            xb, rb, _ = alone[b]
            assert xb[0].tobytes() == X[b].tobytes() and rb[0].tobytes() == r[b].tobytes()
        for b in range(s + 1, len(X0)):  # the rows after it stop no later than it
            xb, rb, _ = _lm_minimize(form, X0[b][None], alone[s][2].iterations)
            assert xb[0].tobytes() == X[b].tobytes() and rb[0].tobytes() == r[b].tobytes()
        assert stats.iterations < sum(a[2].iterations for a in alone)

    @pytest.mark.parametrize("desc", ["cycle:6", "bull", "cmn:2,2", "path:1"])
    def test_returned_residuals_are_those_of_the_points(self, desc):
        form = _MatrixForm(generate_family(desc))
        X0 = np.random.default_rng(4).uniform(-INIT_SCALE, INIT_SCALE, size=(6, form.n**2))
        for max_iter in (0, 3, MAX_ITERATIONS):
            X, r, _ = _lm_minimize(form, X0, max_iter)
            assert r.tobytes() == form.residuals(X).tobytes()


class TestNullBasinExit:
    """A restart stops as soon as its point is inside the null basin."""

    @pytest.mark.parametrize("desc", ["cycle:8", "bull"])
    def test_start_inside_the_basin_comes_back_unchanged(self, desc):
        form = _MatrixForm(generate_family(desc))
        X0 = np.random.default_rng(6).uniform(-TOL_NULL, TOL_NULL, size=(1, form.n**2)) / 2
        X, r, stats = _lm_minimize(form, X0, MAX_ITERATIONS)
        assert X.tobytes() == X0.tobytes() and r.tobytes() == form.residuals(X0).tobytes()
        assert stats == SearchStats(restarts=1, null_exits=1, iterations=0, rejected=0)

    def test_cycle8_restarts_stop_at_the_basin_edge(self):
        # every restart ends in the null map; the steps inside the basin,
        # where they only halve the distance to it, are not taken
        stats = find_homomorphism(cycle_graph(8), SearchConfig(restarts=5, seed=0)).stats
        assert stats == SearchStats(restarts=5, null_exits=5, iterations=55, rejected=0)

    @pytest.mark.parametrize(
        "g", [cycle_graph(40), star_graph(39), complete_bipartite(2, 38), complete_bipartite(20, 20)]
    )
    def test_basin_is_far_below_a_real_homomorphism(self, g):
        assert g.n == 40
        assert closed_form_iso(g).max_abs() >= 20 * TOL_NULL

    def test_counts_do_not_depend_on_blocks(self, monkeypatch):
        """This holds because no bull restart settles: a settled restart
        stops the rows after it in its block and every later block, so
        the counts of a search with one would depend on the blocks."""
        g, cfg = bull_graph(), SearchConfig(restarts=6, seed=0)
        stacked = find_homomorphism(g, cfg).stats
        monkeypatch.setattr(search, "BLOCK_BYTES", 1)  # one restart per block
        assert find_homomorphism(g, cfg).stats == stacked
        assert stacked.restarts == 6 and stacked.iterations > stacked.rejected > 0


def _outcome_key(out):
    T = None if out.T is None else np.array(out.T.entries, dtype=np.float64).tobytes()
    return (out.kind, float(out.best_residual).hex(), out.restart_index, T, out.exact, out.isomorphism)


class TestSettledStop:
    """The search stops at the restart that settles its outcome, and
    returns the outcome it would return with every restart run."""

    def test_no_block_begins_after_a_settled_restart(self):
        g = complete_bipartite(3, 4)
        out = find_homomorphism(g, SearchConfig(restarts=200, seed=0))
        assert search.BLOCK_BYTES // (8 * g.n**4) == 67
        assert out.restart_index == 0 and out.stats.restarts == 67

    @pytest.mark.parametrize("desc, winner", [("cycle:4", 4), ("star:4", 9)])
    def test_one_row_blocks_stop_at_the_winner(self, monkeypatch, desc, winner):
        g, cfg = generate_family(desc), SearchConfig(restarts=200, seed=0)
        stacked = find_homomorphism(g, cfg)
        monkeypatch.setattr(search, "BLOCK_BYTES", 1)  # one restart per block
        alone = find_homomorphism(g, cfg)
        assert alone.restart_index == winner and alone.stats.restarts == winner + 1
        assert _outcome_key(alone) == _outcome_key(stacked)

    @pytest.mark.parametrize("desc, restarts", [("star:4", 200), ("bull", 10)])
    def test_starts_are_drawn_block_by_block(self, monkeypatch, desc, restarts):
        g, cfg = generate_family(desc), SearchConfig(restarts=restarts, seed=0)
        stacked = find_homomorphism(g, cfg)
        draws, default_rng = [], np.random.default_rng

        class Recorder:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def uniform(self, low, high, size):
                draws.append(size[0])
                return self.rng.uniform(low, high, size)

        monkeypatch.setattr(np.random, "default_rng", Recorder)
        monkeypatch.setattr(search, "BLOCK_BYTES", 4 * 8 * g.n**4)  # four restarts per block
        blocked = find_homomorphism(g, cfg)
        assert _outcome_key(blocked) == _outcome_key(stacked)
        assert max(draws) <= 4 and draws[-1] == min(4, restarts - 4 * (len(draws) - 1))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("desc", ["cycle:4", "star:4", "complete_bipartite:3,4"])
    def test_matches_every_restart_run_alone(self, desc, seed):
        g, restarts = generate_family(desc), 40
        form = _MatrixForm(g)
        starts = np.random.default_rng(seed).uniform(
            -INIT_SCALE, INIT_SCALE, size=(restarts, form.n**2)
        )
        found = []  # the selection rule of find_homomorphism, over every restart
        for i, x0 in enumerate(starts):
            X, r, _ = _lm_minimize(form, x0[None], MAX_ITERATIONS)
            if np.abs(X[0]).max() >= TOL_NULL:
                found.append((np.abs(r[0]).max(), i, X[0]))
        least = min(f[0] for f in found)
        res, idx, x = next(
            f
            for f in found
            if f[0] <= least + TOL_RESIDUAL and (f[0] < TOL_RESIDUAL) == (least < TOL_RESIDUAL)
        )
        out = find_homomorphism(g, SearchConfig(restarts=restarts, seed=seed))
        assert res < TOL_RESIDUAL and out.stats.restarts <= restarts
        assert (out.restart_index, out.best_residual) == (idx, res)
        assert np.array(out.T.entries, dtype=np.float64).tobytes() == x.tobytes()


class TestOutcomePins:
    """Kind, best residual bits and restart index at seed 0 with 200 restarts."""

    PINS = {
        "cycle:3": ("verified-hom", "0x1.4000000000000p-53", 1),
        "cycle:4": ("verified-hom", "0x1.bca18ae000000p-53", 4),
        "cycle:5": ("verified-hom", "0x1.a2c1dac45d000p-58", 4),
        "cycle:6": ("verified-hom", "0x1.c000000000000p-48", 134),
        "cycle:8": ("none-found", "inf", -1),
        "cycle:10": ("none-found", "inf", -1),
        "star:3": ("candidate", "0x1.0000000000000p-48", 1),
        "star:4": ("candidate", "0x1.0000000000000p-54", 9),
        "complete_bipartite:2,3": ("candidate", "0x1.1000000000000p-49", 5),
        "complete_bipartite:3,4": ("candidate", "0x1.0000000000000p-55", 0),
        "bull": ("none-found", "0x1.c1ac4ad05e040p-6", 5),
        "cmn:2,2": ("none-found", "0x1.2dc54fb126a10p-5", 2),
        "tadpole:4,1": ("none-found", "0x1.8e6da8076f910p-6", 14),
        "path:6": ("none-found", "0x1.f3a4f928e18b0p-6", 79),
    }

    @pytest.mark.parametrize("desc", sorted(PINS))
    def test_outcome_is_pinned(self, desc):
        out = find_homomorphism(generate_family(desc), SearchConfig(restarts=200, seed=0))
        assert (out.kind, float(out.best_residual).hex(), out.restart_index) == self.PINS[desc]


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
        # on cycle:8 every restart enters the null basin, stops there and is dropped
        out = find_homomorphism(cycle_graph(8), SearchConfig(restarts=5, seed=0))
        assert out.kind == NONE_FOUND and out.best_residual == float("inf")
        assert out.stats.restarts == out.stats.null_exits == 5

    def test_automorphism_conjugation_preserves_verification(self):
        g = cycle_graph(4)
        out = find_homomorphism(g, SearchConfig(restarts=40, seed=3))
        rot = {1: 2, 2: 3, 3: 4, 4: 1}
        moved = [[None] * 4 for _ in range(4)]
        for i in range(1, 5):
            for k in range(1, 5):
                moved[rot[i] - 1][rot[k] - 1] = out.exact.entry(i, k)
        assert is_homomorphism_direct(g, HomCandidate.from_rows(moved))


class TestTieBreak:
    """Residuals within TOL_RESIDUAL tie; the lowest restart index wins."""

    @staticmethod
    def search_over(monkeypatch, g, X):
        monkeypatch.setattr(
            search,
            "_lm_minimize",
            lambda form, starts, max_iter: (X, form.residuals(X), SearchStats(restarts=len(X))),
        )
        return find_homomorphism(g, SearchConfig(restarts=len(X), seed=0))

    def test_float_noise_does_not_pick_the_point(self, monkeypatch):
        g = cycle_graph(3)
        half = np.eye(3).reshape(-1) / 2
        noisy = half.copy()
        noisy[0] = np.nextafter(0.5, 1.0)
        X = np.stack([noisy, half])
        res = np.abs(_MatrixForm(g).residuals(X)).max(axis=1)
        assert 0 == res[1] < res[0] < 1e-15  # two stacked points, float noise apart
        out = self.search_over(monkeypatch, g, X)
        assert out.kind == VERIFIED_HOM and out.restart_index == 0

    def test_a_tie_does_not_cross_the_tolerance(self, monkeypatch):
        g = cycle_graph(3)
        half = np.eye(3).reshape(-1) / 2
        X = np.stack([half, half])
        X[0, 0] += 1.2 * TOL_RESIDUAL
        X[1, 0] += 0.6 * TOL_RESIDUAL
        res = np.abs(_MatrixForm(g).residuals(X)).max(axis=1)
        assert res[1] < TOL_RESIDUAL < res[0] <= res[1] + TOL_RESIDUAL
        out = self.search_over(monkeypatch, g, X)
        assert out.kind == VERIFIED_HOM and out.restart_index == 1
