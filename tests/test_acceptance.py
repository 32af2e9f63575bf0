"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
summary lines inline).  Tolerances and budgets are pinned here and match
the CLI ``paper`` command; the graph corpus is imported from
``evograph.cli``, not copied.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from evograph.algebra import build_rw_algebra
from evograph.cli import (
    ISO_INSTANCES,
    NO_FALSE_CERT_INSTANCES,
    NULL_ONLY_INSTANCES,
    NUMERIC_NULL_INSTANCES,
)
from evograph.deduce import Budget
from evograph.graphs import (
    adjacency_matrix,
    bull_graph,
    caterpillar,
    cycle_graph,
    generate_family,
    is_singular,
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
from evograph.prooflog import NULL_ONLY, Step, replay_proof
from evograph.radicals import Radical
from evograph.search import (
    NONE_FOUND,
    TOL_RESIDUAL,
    VERIFIED_HOM,
    SearchConfig,
    closed_form_iso,
    find_homomorphism,
    gradient,
)

F = Fraction


def report(criterion: str, detail: str = ""):
    print(f"[PASS] {criterion}" + (f"  ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def certified_logs(corpus_proof):
    # the session's proofs, each timed when it first ran, at the paper's depth
    assert Budget() == Budget(max_depth=8)
    out = {}
    for desc in NULL_ONLY_INSTANCES:
        g, _, verdict, elapsed = corpus_proof(desc)
        out[desc] = (g, verdict, elapsed)
    return out


def test_criterion_1_figure_fidelity():
    start = time.perf_counter()
    g = tadpole(4, 1)
    fig = [
        [0, 1, 0, 1, 0],
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [1, 0, 1, 0, 1],
        [0, 0, 0, 1, 0],
    ]
    assert adjacency_matrix(g) == [[F(x) for x in row] for row in fig]
    rw = build_rw_algebra(g)
    assert rw.row(1) == (0, F(1, 2), 0, F(1, 2), 0)
    assert rw.row(2) == (F(1, 2), 0, F(1, 2), 0, 0)
    assert rw.row(3) == (0, F(1, 2), 0, F(1, 2), 0)
    assert rw.row(4) == (F(1, 3), 0, F(1, 3), 0, F(1, 3))
    assert rw.row(5) == (0, 0, 0, F(1), 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    report("criterion 1: figure fidelity", f"{elapsed * 1e6:.0f} us")


def test_criterion_2_oracle_equivalence():
    graphs = (
        [path_graph(n) for n in range(2, 7)]
        + [cycle_graph(n) for n in range(3, 7)]
        + [bull_graph(), tadpole(4, 1), caterpillar(2, 2)]
    )
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for gi, g in enumerate(graphs):
        rng = random.Random(20_000 + gi)
        sys = derive_constraints(g)
        for _ in range(100):
            T = HomCandidate.from_rows(
                [
                    [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(g.n)]
                    for _ in range(g.n)
                ]
            )
            total += 1
            if residual(sys, T).is_exact_zero() != is_homomorphism_direct(g, T):
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 30.0
    report("criterion 2: oracle equivalence", f"{total} candidates, {elapsed:.1f}s")


def test_criterion_3_constructive_isomorphisms():
    start = time.perf_counter()
    for desc in ISO_INSTANCES:
        g = generate_family(desc)
        cand = closed_form_iso(g)
        assert cand is not None
        assert is_isomorphism(g, cand)
        floatT = HomCandidate.from_rows([[float(x) for x in row] for row in cand.entries])
        assert residual(derive_constraints(g), floatT).max_norm < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 3: constructive isomorphisms", f"{elapsed:.2f}s")


def test_criterion_4_null_only_certifications(certified_logs):
    for desc, (g, verdict, elapsed) in certified_logs.items():
        assert verdict.kind == NULL_ONLY, f"{desc}: {verdict.kind}"
        assert elapsed < 10.0, f"{desc} took {elapsed:.1f}s"
        res = replay_proof(derive_constraints(g), verdict.log)
        assert res, f"{desc}: {res.failure}"
    report(
        "criterion 4: null-only certifications",
        ", ".join(f"{d} {t:.2f}s" for d, (_, _, t) in certified_logs.items()),
    )


def test_criterion_5_no_false_certification(corpus_proof):
    assert Budget() == Budget(max_depth=8)
    for desc in NO_FALSE_CERT_INSTANCES:
        assert corpus_proof(desc).verdict.kind != NULL_ONLY
    report("criterion 5: no false certification")


def test_criterion_6_numeric_corroboration():
    start = time.perf_counter()
    cfg = SearchConfig(restarts=200, seed=2024)
    for desc in NUMERIC_NULL_INSTANCES:
        out = find_homomorphism(generate_family(desc), cfg)
        # none-found means no surviving point had residual below 1e-10
        # while sitting outside the null basin (entry max-norm of TOL_NULL or more)
        assert out.kind == NONE_FOUND
        assert out.best_residual > TOL_RESIDUAL
    out = find_homomorphism(cycle_graph(4), cfg)
    assert out.kind == VERIFIED_HOM and out.isomorphism
    assert residual(derive_constraints(cycle_graph(4)), out.exact).is_exact_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("criterion 6: numeric corroboration", f"{elapsed:.1f}s")


def test_criterion_7_gradient_against_finite_differences():
    pool = [
        path_graph(3),
        path_graph(5),
        cycle_graph(4),
        cycle_graph(6),
        bull_graph(),
        tadpole(4, 1),
        caterpillar(2, 2),
        star_graph(5),
    ]
    rng = np.random.default_rng(777)
    h = 1e-6
    for trial in range(50):
        g = pool[int(rng.integers(len(pool)))]
        sys = derive_constraints(g)
        x = rng.uniform(-1.5, 1.5, size=sys.num_vars)
        G = gradient(sys, x.reshape(sys.n, sys.n)).reshape(-1)

        def f(y):  # squared residual sum on the symbolic system
            T = HomCandidate.from_rows(y.reshape(sys.n, sys.n).tolist())
            return float(sum(v * v for v in residual(sys, T).values))

        for idx in rng.choice(sys.num_vars, size=min(5, sys.num_vars), replace=False):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            fd = (f(xp) - f(xm)) / (2 * h)
            assert abs(G[idx] - fd) <= 1e-6 * max(1.0, abs(fd)), (trial, idx)
    report("criterion 7: gradient vs finite differences", "50 seeded pairs")


def test_criterion_8_singularity_classifications(det_cofactor):
    start = time.perf_counter()
    expectations = [
        (bull_graph(), True),
        (tadpole(4, 1), True),
        (cycle_graph(4), True),
        (path_graph(5), True),
        (path_graph(4), False),
        (cycle_graph(5), False),
    ]
    for g, singular in expectations:
        res = is_singular(g)
        assert res.singular == singular
        assert res.determinant == det_cofactor([list(r) for r in g.adj])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 8: singularity classifications", f"{elapsed * 1e3:.0f} ms")


def test_criterion_9_replay_and_mutation(certified_logs):
    for desc, (g, verdict, _) in certified_logs.items():
        sys = derive_constraints(g)
        assert replay_proof(sys, verdict.log), desc
        # flip one zero conclusion into a nonzero value: must be rejected
        steps = list(verdict.log.steps)
        idx = next(i for i, s in enumerate(steps) if s.conclusion[0] == "zero")
        s = steps[idx]
        steps[idx] = Step(
            sid=s.sid,
            rule=s.rule,
            branch=s.branch,
            premises=s.premises,
            conclusion=("value", s.conclusion[1], Radical.from_rational(1)),
            payload=s.payload,
        )
        mutated = type(verdict.log)(steps=steps, verdict=verdict.log.verdict)
        res = replay_proof(sys, mutated)
        assert not res and res.failure is not None, desc
    report("criterion 9: proof-log replay and mutation rejection")
