import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from evograph import poly
from evograph.cli import NO_FALSE_CERT_INSTANCES, NULL_ONLY_INSTANCES
from evograph.deduce import (
    Budget,
    Contradiction,
    DeductionState,
    _open_branch,
    _pick_branch_var,
    _Shared,
    apply_leaf_rules,
    apply_leaf_twin_cross_rules,
    prove_null_only,
    saturate,
)
from evograph.graphs import (
    build_graph,
    bull_graph,
    caterpillar,
    complete_bipartite,
    cycle_graph,
    generate_family,
    path_graph,
    star_graph,
    tadpole,
)
from evograph.homsystem import derive_constraints, is_homomorphism_direct
from evograph.prooflog import NULL_ONLY, replay_proof
from evograph.radicals import Radical

F = Fraction


def fresh_state(g):
    sys = derive_constraints(g)
    shared = _Shared(sys, Budget())
    return sys, DeductionState(shared)


def anchor_columns(sys, state):
    """The columns of the shared leaf-mutex pairs; a pair never spans two."""
    cols = {tuple(sys.var_pair(v)[1] for v in pair) for pair in state.shared.mutex_pairs}
    assert all(a == b for a, b in cols)
    return {a for a, _ in cols}


class TestLeafRules:
    def test_bull_anchor_mutexes(self):
        g = bull_graph()
        sys, state = fresh_state(g)
        apply_leaf_rules(state)
        assert anchor_columns(sys, state) == {3, 4}  # anchors of the two pendant vertices
        assert not state.zeros  # bull is twin-free, no part-three zeros

    def test_twin_leaf_zeros_on_diameter_three_tree(self):
        g = caterpillar(2, 2)  # leaves 3,4 on vertex 1; 5,6 on vertex 2
        sys, state = fresh_state(g)
        apply_leaf_rules(state)
        expected = set()
        for leaf, anchor in [(3, 1), (4, 1), (5, 2), (6, 2)]:
            expected |= {sys.var(leaf, anchor), sys.var(anchor, leaf)}
        assert set(state.zeros) == expected

    def test_path2_has_only_mutexes(self):
        # both endpoints are leaves but their neighbourhoods differ
        g = path_graph(2)
        sys, state = fresh_state(g)
        apply_leaf_rules(state)
        assert anchor_columns(sys, state) == {1, 2}
        assert not state.zeros


class TestCrossRules:
    def test_cross_zeros_on_diameter_three_tree(self):
        g = caterpillar(2, 2)
        sys, state = fresh_state(g)
        apply_leaf_rules(state)
        apply_leaf_twin_cross_rules(state)
        # pendants of one spine vertex are zero against the other spine vertex
        for v in (3, 4):
            assert sys.var(v, 2) in state.zeros
            assert sys.var(2, v) in state.zeros
        for w in (5, 6):
            assert sys.var(w, 1) in state.zeros
            assert sys.var(1, w) in state.zeros

    def test_bull_produces_nothing(self):
        g = bull_graph()
        sys, state = fresh_state(g)
        apply_leaf_rules(state)
        n_before = len(state.zeros)
        refs = apply_leaf_twin_cross_rules(state)
        assert refs == [] and len(state.zeros) == n_before


class TestSaturate:
    def test_reaches_the_reduced_square_relations(self):
        # on the (2,2) diameter-3 tree the spine squares reduce to
        # 3*t11^2 = t22 and 3*t22^2 = t11 along the way
        g = caterpillar(2, 2)
        verdict = prove_null_only(g)
        sys = derive_constraints(g)
        v = sys.var
        want = {(v(1, 1), v(1, 1)): F(1), (v(2, 2),): F(-1, 3)}
        rows = [s.conclusion[1] for s in verdict.log.steps if s.conclusion[0] == "row"]
        assert any(p == want or p == {m: c * 3 for m, c in want.items()} for p in rows)

    def test_terminates_on_larger_graphs(self):
        corpus = [
            path_graph(10),
            cycle_graph(9),
            star_graph(6),
            caterpillar(2, 2, 2),
            tadpole(6, 4),
            complete_bipartite(3, 3),
        ]
        for g in corpus:
            sys, state = fresh_state(g)
            apply_leaf_rules(state)
            apply_leaf_twin_cross_rules(state)
            for i in range(len(sys.constraints)):
                state.enqueue(("c", i), sys.constraints[i].p)
            saturate(state)  # must reach a fixpoint within budget
            assert not state.pending and not state.dirty


class TestCertification:
    @pytest.mark.parametrize("desc", NULL_ONLY_INSTANCES)
    def test_null_only_with_valid_replay(self, desc, corpus_proof):
        _, system, verdict, _ = corpus_proof(desc)
        assert verdict.kind == NULL_ONLY
        res = replay_proof(system, verdict.log)
        assert res, res.failure

    @pytest.mark.parametrize("desc", NO_FALSE_CERT_INSTANCES)
    def test_never_certifies_when_nonzero_hom_exists(self, desc, corpus_proof):
        assert corpus_proof(desc).verdict.kind != NULL_ONLY

    def test_found_structure_witness_verifies(self):
        verdict = prove_null_only(path_graph(2))
        assert verdict.kind == "found-structure"
        assert verdict.witness is not None
        assert is_homomorphism_direct(path_graph(2), verdict.witness)

    def test_deterministic_logs(self, corpus_proof):
        a = corpus_proof("bull").verdict
        b = prove_null_only(bull_graph())
        assert [(s.sid, s.rule, s.conclusion) for s in a.log.steps] == [
            (s.sid, s.rule, s.conclusion) for s in b.log.steps
        ]

    @pytest.mark.parametrize("desc", ["cycle:4", "star:3", "complete_bipartite:2,3"])
    def test_contradiction_ends_its_branch(self, desc, corpus_proof):
        # the next step closes the branch on that contradiction, nothing between
        steps = corpus_proof(desc).verdict.log.steps
        ends = [(s, nxt) for s, nxt in zip(steps, steps[1:]) if s.conclusion == ("contradiction",)]
        assert ends and steps[-1].conclusion != ("contradiction",)
        offending = [
            s.sid
            for s, nxt in ends
            if (nxt.rule, nxt.branch, nxt.premises) != ("branch-close", s.branch, (("s", s.sid),))
        ]
        assert not offending

    def test_bull_closes_with_case_splits(self, corpus_proof):
        # inner branches close through their children, so there are fewer
        # close steps than open steps but every leaf path ends in one
        verdict = corpus_proof("bull").verdict
        opens = {s.branch for s in verdict.log.steps if s.rule == "branch-open"}
        closes = {s.branch for s in verdict.log.steps if s.rule == "branch-close"}
        assert opens and closes
        for path in opens:
            assert any(c[: len(path)] == path for c in closes)


class TestBudgets:
    def test_step_budget_surfaces_as_unknown(self):
        verdict = prove_null_only(bull_graph(), Budget(max_steps=40))
        assert verdict.kind == "unknown"
        assert verdict.reason == "budget-exhausted"

    def test_depth_budget_surfaces_as_unknown(self):
        # the bull needs case splits, so depth zero cannot certify
        verdict = prove_null_only(bull_graph(), Budget(max_depth=0))
        assert verdict.kind == "unknown"
        assert verdict.reason == "budget-exhausted"

    def test_tree_instances_close_without_splitting(self):
        verdict = prove_null_only(caterpillar(2, 2), Budget(max_depth=0))
        assert verdict.kind == NULL_ONLY


class TestRuleSoundness:
    """Randomized semantic checks of the individual inference rules."""

    def test_square_sum_zero(self):
        rng = random.Random(7)
        for _ in range(1000):
            k = rng.randint(1, 4)
            coeffs = [F(rng.randint(1, 9)) for _ in range(k)]
            xs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
            if sum(c * x * x for c, x in zip(coeffs, xs)) == 0:
                assert all(x == 0 for x in xs)

    def test_product_cancel(self):
        rng = random.Random(8)
        for _ in range(1000):
            x = F(rng.randint(1, 9), rng.randint(1, 3)) * rng.choice([-1, 1])
            y = F(rng.randint(-9, 9), rng.randint(1, 3))
            if x * y == 0:
                assert y == 0

    def test_mutex_pair_with_linear_link(self):
        rng = random.Random(9)
        for _ in range(1000):
            a = F(rng.randint(1, 9)) * rng.choice([-1, 1])
            b = F(rng.randint(1, 9)) * rng.choice([-1, 1])
            # assignments with at most one of x,y nonzero satisfying a*x + b*y = 0
            for x, y in [(F(0), F(0)), (F(rng.randint(1, 5)), F(0)), (F(0), F(rng.randint(1, 5)))]:
                if a * x + b * y == 0 and (x == 0 or y == 0):
                    if (x, y) != (0, 0):
                        assert a * x + b * y != 0  # impossible: rule is vacuous here
                    else:
                        assert x == 0 and y == 0

    def test_square_cycle_solution_is_exact(self):
        rng = random.Random(10)
        for _ in range(1000):
            kappa = F(rng.randint(1, 12), rng.randint(1, 6)) * rng.choice([-1, 1])
            mu = F(rng.randint(1, 12), rng.randint(1, 6)) * rng.choice([-1, 1])
            x = Radical.root(kappa * kappa * mu, 3)
            y = Radical.root(kappa * mu * mu, 3)
            assert x * x == Radical.from_rational(kappa) * y
            assert y * y == Radical.from_rational(mu) * x

    def test_negative_square_unsatisfiable(self):
        rng = random.Random(11)
        for _ in range(1000):
            c = F(rng.randint(1, 9))
            d = F(rng.randint(1, 9))
            x = F(rng.randint(-6, 6), rng.randint(1, 3))
            assert c * x * x + d != 0

    def test_quadratic_negative_discriminant_unsatisfiable(self):
        rng = random.Random(12)
        tried = 0
        while tried < 1000:
            a = F(rng.randint(1, 6))
            b = F(rng.randint(-6, 6))
            c = F(rng.randint(1, 6))
            if b * b - 4 * a * c >= 0:
                continue
            tried += 1
            x = F(rng.randint(-8, 8), rng.randint(1, 4))
            assert a * x * x + b * x + c != 0


class TestColumnZeroRule:
    def test_known_nonzero_homs_have_no_zero_column(self):
        # consistency of the closing rule with every verified hom we can build
        from evograph.homsystem import HomCandidate
        from evograph.search import closed_form_iso

        cases = [
            (cycle_graph(4), HomCandidate.scaled_identity(4, F(1, 2))),
            (path_graph(2), HomCandidate.scaled_identity(2, F(1))),
            (star_graph(3), closed_form_iso(star_graph(3))),
        ]
        for g, T in cases:
            assert is_homomorphism_direct(g, T)
            for k in range(g.n):
                assert any(
                    float(T.entries[i][k]) != 0.0 for i in range(g.n)
                ), "a nonzero hom would contradict the column-zero rule"


def test_single_vertex_stays_unknown():
    # the 1-vertex system is a single empty constraint; nothing to certify
    g = build_graph(1, [])
    verdict = prove_null_only(g)
    assert verdict.kind == "unknown"


def _benchmark_certify_instances():
    """The certify workloads' instances, read from the benchmark's own table."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.CERTIFY_TWINS + workloads.CERTIFY_CHAINS


def _assert_indexes_match_rows(state):
    mono_rows, var_rows, row_info = {}, {}, {}
    for ref, p in state.rows.items():
        for m in p:
            mono_rows.setdefault(m, set()).add(ref)
        for v in poly.poly_vars(p):
            var_rows.setdefault(v, set()).add(ref)
        row_info[ref] = (poly.leading_mono(p), tuple(sorted(poly.poly_vars(p))))
    assert state.mono_rows == mono_rows
    assert state.var_rows == var_rows
    assert state.row_info == row_info


def _saturate_or_close(state):
    try:
        saturate(state)
    except Contradiction:
        pass  # a closed branch keeps whatever rows it had; they must stay indexed


@pytest.mark.parametrize("desc", _benchmark_certify_instances())
def test_occurrence_indexes_match_rows(desc):
    """Root and both children of its first split: indexes equal a rebuild."""
    system, root = fresh_state(generate_family(desc))
    apply_leaf_rules(root)
    apply_leaf_twin_cross_rules(root)
    for i, con in enumerate(system.constraints):
        root.enqueue(("c", i), con.p)
    _saturate_or_close(root)
    _assert_indexes_match_rows(root)
    v = _pick_branch_var(root)
    if v is None:
        return
    for nz in (False, True):
        child = _open_branch(root, v, nz)
        _saturate_or_close(child)
        _assert_indexes_match_rows(child)
    _assert_indexes_match_rows(root)  # the children worked on copies


def test_radical_scan_brings_in_later_rows_of_a_variable_it_values():
    # y = 2^(1/3) is known; x - y solves x, and only then does z - x,
    # a later row with no valued variable before the scan, solve z
    _, state = fresh_state(bull_graph())
    y, x, z = 0, 1, 2
    cube_root = Radical.root(2, 3)
    state.values[y] = (cube_root, ("c", 0))
    for ref, p in ((("c", 1), {(x,): F(1), (y,): F(-1)}), (("c", 2), {(z,): F(1), (x,): F(-1)})):
        state._add_row(ref, p, poly.leading_mono(p))
    state._scan_radical_rows()
    assert state.values[x][0] == cube_root
    assert state.values[z][0] == cube_root
    assert [(s.rule, s.premises) for s in state.shared.log.steps] == [
        ("linear-solve", (("c", 1), ("c", 0))),
        ("linear-solve", (("c", 2), ("s", 0))),
    ]
