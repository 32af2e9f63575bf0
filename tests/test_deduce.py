import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import evograph
from evograph import deduce, poly
from evograph.cli import (
    ISO_INSTANCES,
    NO_FALSE_CERT_INSTANCES,
    NULL_ONLY_INSTANCES,
    NUMERIC_NULL_INSTANCES,
)
from evograph.deduce import (
    Budget,
    BranchClosed,
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
            try:
                saturate(state)  # must reach a fixpoint or close within budget
            except BranchClosed:
                assert state.shared.steps[-1].rule == "branch-close"
            else:
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

    @pytest.mark.parametrize("desc", ["bull", "star:3", "complete_bipartite:2,3"])
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
    var_rows, row_info = {}, {}
    for ref, p in state.rows.items():
        for v in poly.poly_vars(p):
            var_rows.setdefault(v, set()).add(ref)
        row_info[ref] = (poly.leading_mono(p), tuple(sorted(poly.poly_vars(p))))
    assert state.var_rows == var_rows
    assert state.row_info == row_info
    assert state.linear_leads == sum(len(m) == 1 for m in state.basis)


def _saturate_or_close(state) -> bool:
    """Saturate state; True if it closed, keeping whatever rows it had indexed."""
    try:
        saturate(state)
    except BranchClosed:
        return True
    return False


@pytest.mark.parametrize("desc", _benchmark_certify_instances())
def test_occurrence_indexes_match_rows(desc):
    """Root and both children of its first split: indexes equal a rebuild."""
    system, root = fresh_state(generate_family(desc))
    apply_leaf_rules(root)
    apply_leaf_twin_cross_rules(root)
    for i, con in enumerate(system.constraints):
        root.enqueue(("c", i), con.p)
    closed = _saturate_or_close(root)
    _assert_indexes_match_rows(root)
    v = None if closed else _pick_branch_var(root)
    if v is None:
        return
    # the "= 0" child works on a copy; the "!= 0" child takes the root over
    zero_child = _open_branch(root, v, False)
    _assert_indexes_match_rows(root)
    nonzero_child = _open_branch(root, v, True)
    assert nonzero_child is root
    for child in (zero_child, nonzero_child):
        if child is not None:
            _saturate_or_close(child)
            _assert_indexes_match_rows(child)


def test_radical_scan_brings_in_later_rows_of_a_variable_it_values():
    # y = 2^(1/3) is known; x - y solves x, and only then does z - x,
    # a later row with no valued variable before the scan, solve z
    _, state = fresh_state(bull_graph())
    y, x, z = 0, 1, 2
    cube_root = Radical.root(2, 3)
    state.values[y] = (cube_root, ("c", 0))
    for ref, p in ((("c", 1), {(x,): F(1), (y,): F(-1)}), (("c", 2), {(z,): F(1), (x,): F(-1)})):
        state._add_row(ref, p, poly.leading_mono(p), poly.poly_vars(p))
    state._scan_radical_rows()
    assert state.values[x][0] == cube_root
    assert state.values[z][0] == cube_root
    assert [(s.rule, s.premises) for s in state.shared.steps] == [
        ("linear-solve", (("c", 1), ("c", 0))),
        ("linear-solve", (("c", 2), ("s", 0))),
    ]


@pytest.mark.parametrize("desc", ["complete_bipartite:2,3", "star:4"])
def test_radical_scan_evaluates_each_key_once(desc, monkeypatch):
    # every branch's scans share one cache: a (row, value steps) key is
    # evaluated once, however many scans and branches read it
    shared, results = [], []

    class Recorded(_Shared):
        def __init__(self, *args):
            super().__init__(*args)
            shared.append(self)

    def eval_partial(p, vals, inner=deduce._eval_partial):
        results.append(inner(p, vals))
        return results[-1]

    monkeypatch.setattr(deduce, "_Shared", Recorded)
    monkeypatch.setattr(deduce, "_eval_partial", eval_partial)
    prove_null_only(generate_family(desc))
    (sh,) = shared
    assert results and len(results) == len(sh.evals)
    assert {id(r) for r in results} == {id(r) for r in sh.evals.values()}


def test_square_cycle_past_the_factoring_bound_does_not_fire():
    # x^2 = y, y^2 = mu*x with x nonzero: x = mu^(1/3) and y = mu^(2/3).  With
    # mu = 2 the cycle fires.  With mu = (10^19+51)(10^20+39), two 20-digit
    # primes, or the first prime above _MR_EXACT, trial division leaves a
    # cofactor that is not a prime below _MR_EXACT, so factoring gives up
    # and saturation ends without a value, as the replayer would reject
    # that base.
    child = (
        "import json, time\n"
        "from fractions import Fraction\n"
        "from evograph import poly\n"
        "from evograph.deduce import Budget, DeductionState, _Shared, saturate\n"
        "from evograph.graphs import bull_graph\n"
        "from evograph.homsystem import derive_constraints\n"
        "system, x, y, out = derive_constraints(bull_graph()), 0, 1, []\n"
        "for mu in (2, (10**19 + 51) * (10**20 + 39), 3317044064679887385962123):\n"
        "    state = DeductionState(_Shared(system, Budget()))\n"
        "    state.nonzero[x] = ('c', 0)\n"
        "    for ref, p in ((('c', 1), {(x, x): Fraction(1), (y,): Fraction(-1)}),\n"
        "                   (('c', 2), {(y, y): Fraction(1), (x,): Fraction(-mu)})):\n"
        "        state._add_row(ref, p, poly.leading_mono(p), poly.poly_vars(p))\n"
        "    start = time.perf_counter()\n"
        "    saturate(state)\n"
        "    steps = [(s.rule, s.payload.get('mode')) for s in state.shared.steps]\n"
        "    out.append([steps, time.perf_counter() - start])\n"
        "print(json.dumps(out))\n"
    )
    here = os.path.dirname(os.path.dirname(evograph.__file__))
    src = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    (small, _), *large = json.loads(proc.stdout)
    assert small == [["quad-solve-nonzero", "pair"]] * 2
    assert all(steps == [] and seconds < 1.0 for steps, seconds in large), large


CORPUS = list(
    dict.fromkeys(
        NULL_ONLY_INSTANCES + ISO_INSTANCES + NO_FALSE_CERT_INSTANCES + NUMERIC_NULL_INSTANCES
    )
)
CORPUS_AND_BENCHMARK = list(dict.fromkeys(CORPUS + _benchmark_certify_instances()))


@pytest.mark.parametrize("desc", CORPUS_AND_BENCHMARK)
def test_no_step_concludes_an_empty_row(desc, untrimmed_proof):
    steps = untrimmed_proof(desc).log.steps
    assert not [s.sid for s in steps if s.conclusion == ("row", {})]


@pytest.mark.parametrize("desc", CORPUS_AND_BENCHMARK)
def test_a_zero_column_closes_its_branch_at_once(desc, untrimmed_proof):
    """The zero that first makes a column all zero is followed by the close.

    Next in the log comes either the branch's column-zero-propagate on that
    column and then its branch-close, or a contradiction on that very zero;
    every column-zero-propagate sits at such a place.
    """
    verdict = untrimmed_proof(desc)
    system, steps = verdict.system, verdict.log.steps
    n = system.n
    zeros: dict[tuple, set[int]] = {(): set()}  # each branch's zero variables
    closes = set()
    for idx, s in enumerate(steps):
        if s.rule == "branch-open":
            zeros[s.branch] = set(zeros[s.branch[:-1]])  # the parent's are final
        c = s.conclusion
        if c[0] == "zero" or (c[0] == "assume" and not c[2]):
            zeros[s.branch].add(c[1])
            k = system.var_pair(c[1])[1]
            if all(system.var(i, k) in zeros[s.branch] for i in range(1, n + 1)):
                nxt = steps[idx + 1]
                assert nxt.branch == s.branch
                if nxt.conclusion != ("contradiction",):
                    assert (nxt.rule, nxt.payload) == ("column-zero-propagate", {"column": k})
                    assert (steps[idx + 2].rule, steps[idx + 2].premises) == (
                        "branch-close",
                        (("s", nxt.sid),),
                    )
                    closes.add(nxt.sid)
    assert closes == {s.sid for s in steps if s.rule == "column-zero-propagate"}


def _tree_shape(verdict) -> tuple:
    """The verdict's pin: its kind, then open_branches and the sha256 of its
    ordered (branch, conclusion) branch-open list, or on found-structure the
    sha256 of the witness entries."""
    if verdict.kind == "found-structure":
        entries = [[str(x) for x in row] for row in verdict.witness.entries]
        return verdict.kind, hashlib.sha256(repr(entries).encode()).hexdigest()
    opens = [(s.branch, s.conclusion) for s in verdict.log.steps if s.rule == "branch-open"]
    return verdict.kind, verdict.open_branches, hashlib.sha256(repr(opens).encode()).hexdigest()


# _tree_shape at the default budget.  The engine's early exits drop steps,
# never branches, so these hold from before the exits; a found-structure
# search now stops at its witness, so there the witness alone is pinned.
TREE_SHAPES = {
    "bull":
        ("null-only", 0, "fca368b025ad1f5951b5fd45f3ef52975d9f15e2c5ef08c7a1bfbfb993c41980"),
    "caterpillar:1,2,2":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "caterpillar:1,2,2,2":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "caterpillar:1,2,2,2,2,2":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cmn:2,2":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cmn:2,3":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cmn:3,2":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cmn:3,3":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cmn:4,4":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cmn:5,5":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cmn:6,6":
        ("null-only", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "complete_bipartite:2,3":
        ("unknown", 67, "08ad52a99e1090e3e115bdbd9d0b9395da95afd656fa750d9c0cf47cb229cc88"),
    "complete_bipartite:3,3":
        ("unknown", 256, "01430f73eeddb68e10ec5f6db809909d56311016ead6e32e470f9d4d52e0a56f"),
    "cycle:12":
        ("found-structure", "2d21e0722c65e8acfc6ce6b0e2a3c8a3b07a2346ea7f228f6b81834c7c318ebb"),
    "cycle:3":
        ("found-structure", "e04884ea8b13447d125a4db5697494166b4ba9a1af9711b96dfa4c319ffbe874"),
    "cycle:4":
        ("found-structure", "31b036189751adef265cf212bdd0287bf060f889b98fba13ef4a4090a771e5fc"),
    "cycle:5":
        ("found-structure", "0e7d8554d81a745055a0bf9f3a75c18042ba0065e5f231d453637a120732e136"),
    "cycle:6":
        ("found-structure", "303d50b0b662a4bd515a92451dacc4d91671848d7984b6c0a58447401d6f6fde"),
    "cycle:7":
        ("found-structure", "2e6f47729c9175883007eedc4e636e40a8a82dfbdfc06fe96adc852be64acbdc"),
    "path:11":
        ("unknown", 2, "03858f93b3da5252206181a66eded73be8e33311d297047c6bfc3ab6572a2b0a"),
    "path:13":
        ("unknown", 2, "eabc50b8d9496a311127ee69e8c07dce786b0cf5ac19550e436e6c6fa0209687"),
    "path:2":
        ("found-structure", "88fa2a0f0f106ac570a3fe4a2d13947134ad021e09a9c5f1796948d9b687c488"),
    "path:5":
        ("null-only", 0, "5d3b3287d3f5c9a1830be313be5c90d775c29aed531180eb7b8002f7c8531e12"),
    "path:7":
        ("null-only", 0, "5254be05928a8fe5542f5b9ca9c063040d15fb275f725d2a5f912713de15ff09"),
    "path:9":
        ("null-only", 0, "e3cc7e966caec2f8181c52a1294b8272c3be9efabe8f168230f6a19ef3453b7b"),
    "star:3":
        ("unknown", 29, "2590921865b573be57294376965d75f6b4e4acdbee1709ada69bc5e74b67d693"),
    "star:4":
        ("unknown", 117, "45057d20d22a3a444a06084a2867ecf2f7bb00ea4098cdcd8e13f764bd4981ec"),
    "star:5":
        ("unknown", 128, "b8660b56cfba40b662f0e1d607d2ebb38bba3d0c7a19a000a9692868a4f08e48"),
    "tadpole:4,1":
        ("null-only", 0, "fe5b5cef3e304a0cc4f459cfb78cd6ec6025bd72ead0bff5e54445c2d3b3b41b"),
    "tadpole:4,11":
        ("unknown", 1, "135ef0cd3a2cd8ee5d18757683020431d0d96aa87cbc33c082ba3ecbd738b3c0"),
    "tadpole:4,3":
        ("null-only", 0, "ef5d95bd2bc348ffa29a72c4dbde842adf4291ba557c226992d796884c66eb3f"),
    "tadpole:4,5":
        ("null-only", 0, "84ae835e809f644259159dbfa59eb3b5d5d2fdec4c02552cf954eaccdb2374cf"),
    "tadpole:4,7":
        ("unknown", 1, "78904deb0dcc94274b488ecae019572946b53a5debc2d4c2f930c5995211b7e4"),
    "tadpole:4,9":
        ("unknown", 1, "e17d1c2d80c68a46277b4ac06a75f1aec340983b7c006c2f3b0e34535a915271"),
    "tadpole:6,1":
        ("unknown", 2, "cae7e351fef2e68426a6843d58ada7d7f1a93fe22c71af672e46be5aefbc2cd6"),
}


@pytest.mark.parametrize("desc", sorted(TREE_SHAPES))
def test_case_tree_shape_is_pinned(desc, corpus_proof):
    assert _tree_shape(corpus_proof(desc).verdict) == TREE_SHAPES[desc]


@pytest.mark.parametrize("desc", ["path:2", "cycle:4", "cycle:5"])
def test_split_stops_at_the_witness_leaf(desc, corpus_proof):
    g, system, verdict, _ = corpus_proof(desc)
    steps = verdict.log.steps
    opened = [s.branch for s in steps if s.rule == "branch-open"]
    closed = {s.branch for s in steps if s.rule == "branch-close"}
    split = {b[:-1] for b in opened}
    leaves = [b for b in [()] + opened if b not in closed and b not in split]
    assert len(leaves) == verdict.open_branches
    w = verdict.witness.entries

    def agrees(branch):
        return all(bool(w[i - 1][k - 1]) == nz for v, nz in branch for i, k in [system.var_pair(v)])

    (leaf,) = [b for b in leaves if agrees(b)]
    assert opened[-1] == leaf  # no branch is opened after the witness leaf
