import dataclasses
import functools
import gc
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from evograph.cli import (
    ISO_INSTANCES,
    NO_FALSE_CERT_INSTANCES,
    NULL_ONLY_INSTANCES,
    NUMERIC_NULL_INSTANCES,
)
from evograph.deduce import Budget, prove_null_only
from evograph.graphs import build_graph, bull_graph, generate_family
from evograph.homsystem import derive_constraints
from evograph.prooflog import (
    CHECKS,
    CONCLUSIONS,
    NULL_ONLY,
    RULES,
    ProofLog,
    Step,
    _table_key,
    dump_log,
    load_log,
    replay_proof,
)
from evograph.radicals import Radical, fraction_str

# cmn:2,2's log as dump_log wrote it when every substitute row was stated
STATED_LOG = Path(__file__).parent / "data" / "cmn_2_2.stated.json"


@pytest.fixture(scope="module")
def bull_proof(corpus_proof):
    g, system, verdict, _ = corpus_proof("bull")
    assert verdict.kind == NULL_ONLY
    return g, system, verdict.log


def test_replay_accepts_own_log(bull_proof):
    _, sys, log = bull_proof
    assert replay_proof(sys, log)


def test_serialization_round_trip(bull_proof):
    _, sys, log = bull_proof
    text = dump_log(log, sys)
    again = load_log(text, sys)
    assert again.verdict == log.verdict
    assert len(again.steps) == len(log.steps)
    assert replay_proof(sys, again)
    payload = json.loads(text)
    assert {s["rule"] for s in payload["steps"]} <= RULES


def _flip_first_zero(log):
    steps = list(log.steps)
    for i, s in enumerate(steps):
        if s.conclusion[0] == "zero":
            tampered = Step(
                sid=s.sid,
                rule=s.rule,
                branch=s.branch,
                premises=s.premises,
                conclusion=("value", s.conclusion[1], Radical.from_rational(1)),
                payload=s.payload,
            )
            steps[i] = tampered
            return type(log)(steps=steps, verdict=log.verdict), i
    raise AssertionError("no zero conclusion to flip")


def test_tampered_conclusion_rejected(bull_proof):
    _, sys, log = bull_proof
    bad, idx = _flip_first_zero(log)
    res = replay_proof(sys, bad)
    assert not res
    assert res.failure is not None
    assert res.failure.index == bad.steps[idx].sid


def test_permuted_graph_rejected(bull_proof):
    # swapping labels 1 and 5 is not an automorphism of the bull
    _, _, log = bull_proof
    perm = {1: 5, 5: 1, 2: 2, 3: 3, 4: 4}
    permuted = bull_graph().relabel(perm)
    assert permuted.adj != bull_graph().adj
    res = replay_proof(derive_constraints(permuted), log)
    assert not res


def test_claimed_verdict_needs_a_closed_tree():
    g = generate_family("cycle:4")
    verdict = prove_null_only(g)
    assert verdict.kind != NULL_ONLY
    verdict.log.verdict = NULL_ONLY  # forge the claim
    res = replay_proof(derive_constraints(g), verdict.log)
    assert not res
    assert "not closed" in res.failure.reason


def test_premises_must_exist():
    g = build_graph(2, [(1, 2)])
    sys = derive_constraints(g)
    rogue = ProofLog(
        steps=[
            Step(
                sid=0,
                rule="single-monomial-zero",
                branch=(),
                premises=(("s", 99),),
                conclusion=("zero", 0),
            )
        ]
    )
    res = replay_proof(sys, rogue)
    assert not res and res.failure.index == 0


def test_foreign_branch_facts_rejected(bull_proof):
    """A fact derived under an assumption must not leak to a sibling."""
    _, sys, log = bull_proof
    steps = list(log.steps)
    moved = None
    for i, s in enumerate(steps):
        if s.branch and s.conclusion[0] == "zero":
            moved = Step(
                sid=s.sid,
                rule=s.rule,
                branch=(),  # pretend it holds unconditionally
                premises=s.premises,
                conclusion=s.conclusion,
                payload=s.payload,
            )
            steps[i] = moved
            break
    if moved is None:
        pytest.skip("log has no branch-local zero facts")
    bad = type(log)(steps=steps, verdict=log.verdict)
    assert not replay_proof(sys, bad)


def test_rule_outside_engine_vocabulary_rejected():
    sys = derive_constraints(build_graph(2, [(1, 2)]))
    rogue = ProofLog(
        steps=[
            Step(
                sid=0,
                rule="product-nonzero-cancel",
                branch=(),
                premises=(("c", 0),),
                conclusion=("zero", 0),
            )
        ]
    )
    res = replay_proof(sys, rogue)
    assert not res and "unknown rule" in res.failure.reason


@pytest.mark.parametrize("desc", ["bull", "cmn:2,2"])
def test_emptied_premises_rejected_without_raising(desc, corpus_proof):
    """Premises must be exactly the refs a check uses: none missing, none extra."""
    _, sys, verdict, _ = corpus_proof(desc)
    log = verdict.log
    first: dict[str, int] = {}
    for idx, s in enumerate(log.steps):
        first.setdefault(s.rule, idx)
    assert {"branch-close", "single-monomial-zero", "square-sum-zero", "substitute"} <= set(first)
    for rule, idx in first.items():
        step = log.steps[idx]
        extra = next(("c", i) for i in range(len(sys.constraints)) if ("c", i) not in step.premises)
        for premises in [step.premises + (extra,)] + ([()] if step.premises else []):
            steps = list(log.steps)
            steps[idx] = dataclasses.replace(step, premises=premises)
            res = replay_proof(sys, ProofLog(steps=steps, verdict=log.verdict))
            assert not res and res.failure is not None, (rule, premises)


def test_long_evidence_chain_rejected_without_raising():
    # on K2, c0 = t_1_2*t_2_2 is a mutex witness and c2 = t_1_2^2 - t_2_1
    # links t_1_2 and t_2_1 back and forth without proving either nonzero
    sys = derive_constraints(build_graph(2, [(1, 2)]))
    forged = Step(
        sid=0,
        rule="mutex-elim",
        branch=(),
        premises=(("c", 0),) + (("c", 2),) * 5000,
        conclusion=("zero", 3),
        payload={"mode": "nonzero", "var": 1},
    )
    res = replay_proof(sys, ProofLog(steps=[forged]))
    assert not res and "chain" in res.failure.reason


def test_deep_case_tree_rejected_without_raising():
    # 3000 nested "= 0" assumptions with no closure: the tree is open
    sys = derive_constraints(bull_graph())
    branch, steps = (), []
    for sid in range(3000):
        branch += ((0, False),)
        steps.append(
            Step(sid=sid, rule="branch-open", branch=branch, premises=(), conclusion=("assume", 0, False))
        )
    res = replay_proof(sys, ProofLog(steps=steps, verdict=NULL_ONLY))
    assert not res and "not closed" in res.failure.reason


def _log_text(conclusion: dict) -> str:
    step = {"id": 0, "rule": "leaf-twin-zero", "branch": [], "premises": [], "conclusion": conclusion}
    return json.dumps({"verdict": "unknown", "steps": [step]})


@pytest.mark.parametrize(
    "text",
    [
        '{"verdict": "unknown", "steps": [{}]}',
        _log_text({}),
        "[]",
        _log_text({"kind": "zero", "var": "t_x_1"}),
        _log_text({"kind": "value", "var": "t_1_1", "scalar": "1/0"}),
        "[" * 100_000 + "]" * 100_000,
        _log_text({"kind": "zero", "var": "t_0_6"}),
        _log_text({"kind": "zero", "var": "t_1_99"}),
        _log_text({"kind": "row", "terms": [{"coeff": float("inf"), "monomial": []}]}),
    ],
    ids=[
        "step-without-id",
        "conclusion-without-kind",
        "not-an-object",
        "bad-var-name",
        "zero-denominator",
        "deep-nesting",
        "var-index-zero",
        "var-index-above-n",
        "infinite-coefficient",
    ],
)
def test_load_log_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        load_log(text, derive_constraints(bull_graph()))


def test_forged_perfect_power_base_loads_quickly(bull_proof):
    _, sys, log = bull_proof
    payload = json.loads(dump_log(log, sys))
    step = next(s for s in payload["steps"] if s["conclusion"]["kind"] == "zero")
    scalar = f"1*{(2**61 - 1) ** 2}^(1/2)"
    step["conclusion"] = {"kind": "value", "var": step["conclusion"]["var"], "scalar": scalar}
    start = time.perf_counter()
    res = replay_proof(sys, load_log(json.dumps(payload), sys))
    assert not res and time.perf_counter() - start < 1.0


def _forge_coefficient(payload: dict, field: str, text: str) -> None:
    """Put text in the first coefficient of the log's field "coeff", "parts" or "scalar"."""
    steps = payload["steps"]
    if field == "coeff":
        row = next(s["conclusion"] for s in steps if s["conclusion"]["kind"] == "row")
        row["terms"][0]["coeff"] = text
    elif field == "parts":
        next(s["payload"] for s in steps if "parts" in s["payload"])["parts"][0][1] = text
    else:
        step = next(s for s in steps if s["conclusion"]["kind"] == "zero")
        step["conclusion"] = {"kind": "value", "var": step["conclusion"]["var"], "scalar": text}


@pytest.mark.parametrize("field", ["coeff", "parts", "scalar"])
def test_forged_long_coefficient_rejected_quickly(field, corpus_log):
    # the bull's log states no row; cmn:2,2's states its leaf-twin-cross rows
    sys, text = corpus_log("cmn:2,2" if field == "coeff" else "bull")
    payload = json.loads(text)
    _forge_coefficient(payload, field, "7" * 2_000_000 + "/" + "3" * 2_000_000)
    text = json.dumps(payload)
    start = time.perf_counter()
    with pytest.raises(ValueError):
        load_log(text, sys)
    assert time.perf_counter() - start < 1.0


# Scalars str never writes: each must be rejected as it is read, quickly.
FORGED_SCALARS = [
    "1*2^(100000000000)",
    "1*2^(1e11)",
    "1*2^(3/2)",
    "1*2^(2/4)",
    "1*3^(1/2)*2^(1/2)",
    "1*2^(1/2)*2^(1/3)",
    "1*0^(1/2)",
    "0*2^(1/3)",
    " 1*2^(1/3)",
]


@pytest.mark.parametrize("scalar", FORGED_SCALARS)
def test_scalar_not_as_str_writes_it_rejected_quickly(scalar, bull_proof):
    _, sys, log = bull_proof
    payload = json.loads(dump_log(log, sys))
    _forge_coefficient(payload, "scalar", scalar)
    text = json.dumps(payload)
    start = time.perf_counter()
    with pytest.raises(ValueError):
        load_log(text, sys)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "scalar", ["1*4^(1/3)", f"1*{(10**19 + 51) * (10**20 + 39)}^(1/2)"], ids=["square", "two-primes"]
)
def test_forged_composite_base_loads_and_is_rejected_quickly(scalar, bull_proof):
    # the scalar is read as written, without factoring; replay compares it
    # with the canonical value and rejects the step
    _, sys, log = bull_proof
    payload = json.loads(dump_log(log, sys))
    _forge_coefficient(payload, "scalar", scalar)
    start = time.perf_counter()
    forged = load_log(json.dumps(payload), sys)
    res = replay_proof(sys, forged)
    assert not res and time.perf_counter() - start < 1.0
    assert any(s.conclusion[0] == "value" and str(s.conclusion[2]) == scalar for s in forged.steps)


def test_checks_state_exactly_the_declared_conclusion_kinds():
    assert {kind for kinds, _ in CHECKS.values() for kind in kinds} == set(CONCLUSIONS)


def _edge_list_graph(spec: str):
    """ "n: u-v u-v ..." as a graph."""
    n, edges = spec.split(":")
    return build_graph(int(n), [tuple(map(int, e.split("-"))) for e in edges.split()])


# Null-only graphs whose logs reach the table entries no corpus log reaches:
# mutex-elim/pair in the first; both negative-square modes and
# value-conflict/eval in the second.
RARE_RULE_GRAPHS = [
    "6: 1-5 2-3 2-4 2-5 3-4 3-5 5-6",
    "6: 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5 4-6 5-6",
]


@pytest.fixture(scope="module")
def rare_rule_logs():
    out = {}
    for spec in RARE_RULE_GRAPHS:
        g = _edge_list_graph(spec)
        verdict = prove_null_only(g)
        assert verdict.kind == NULL_ONLY
        out[spec] = derive_constraints(g), verdict.log
    return out


@pytest.mark.parametrize("spec", RARE_RULE_GRAPHS)
def test_rare_rule_logs_replay(spec, rare_rule_logs):
    sys_, log = rare_rule_logs[spec]
    assert replay_proof(sys_, log)
    assert replay_proof(sys_, load_log(dump_log(log, sys_), sys_))


def test_every_table_entry_occurs_in_an_engine_log(rare_rule_logs, corpus_proof):
    corpus = dict.fromkeys(
        NULL_ONLY_INSTANCES + ISO_INSTANCES + NO_FALSE_CERT_INSTANCES + NUMERIC_NULL_INSTANCES
    )
    logs = [log for _, log in rare_rule_logs.values()]
    logs += [corpus_proof(desc).verdict.log for desc in corpus]
    seen = {_table_key(s) for log in logs for s in log.steps}
    assert seen == set(CHECKS)
    assert RULES == {rule for rule, _ in CHECKS} and len(CHECKS) == 19


@pytest.mark.parametrize(
    "rule, mode", [("mutex-elim", None), ("value-conflict", "two-values")]
)
def test_pair_outside_the_table_rejected(rule, mode, bull_proof):
    _, sys_, log = bull_proof
    idx = next(i for i, s in enumerate(log.steps) if s.rule == rule)
    payload = {k: v for k, v in log.steps[idx].payload.items() if k != "mode"}
    if mode is not None:
        payload["mode"] = mode
    steps = list(log.steps)
    steps[idx] = dataclasses.replace(log.steps[idx], payload=payload)
    res = replay_proof(sys_, ProofLog(steps=steps, verdict=log.verdict))
    assert not res and res.failure.index == log.steps[idx].sid
    assert "unknown rule" in res.failure.reason


def test_load_log_rejects_another_graph(bull_proof):
    _, sys_, log = bull_proof
    permuted = bull_graph().relabel({1: 5, 5: 1, 2: 2, 3: 3, 4: 4})
    with pytest.raises(ValueError, match="another graph"):
        load_log(dump_log(log, sys_), derive_constraints(permuted))


def test_coefficients_past_the_int_str_limit_round_trip():
    # one lincomb factor in this log has 17 347 digits, past Python's
    # default limit of 4300 digits for int <-> str conversion
    g = _edge_list_graph("5: 1-2 1-5 2-3 2-4 2-5 3-4 4-5")
    sys_, verdict = derive_constraints(g), prove_null_only(g)
    assert verdict.kind == NULL_ONLY
    limit = sys.get_int_max_str_digits()
    text = dump_log(verdict.log, sys_)
    assert max(len(digits) for digits in re.findall(r"\d+", text)) > 4300
    assert replay_proof(sys_, load_log(text, sys_))
    assert sys.get_int_max_str_digits() == limit


# sha256 of each corpus certificate's document, written with indent=1 as
# dump_log wrote it before logs became compact: the engine's logs are pinned.
# Each equals the stated-row document of earlier versions with every
# substitute conclusion replaced by {"kind": "derived"}.
LOG_SHA256 = {
    "cmn:2,2": "8ba0272fdb993df89d0de2c696d4a23d4aae50763616e6cddecb3681dd1430f7",
    "cmn:2,3": "ad13096707003852f9f230ff2e1cc1bca45d692d893106545f63505a315364bc",
    "cmn:3,2": "9bd2ab1724de020fd8105bba9a22f7d67f590437a75baeaf20e4cb722690ee35",
    "cmn:3,3": "4def1eceb38f36d39766b27ca4f70ee72357c04a188e375ae19d3c8ea1098afb",
    "caterpillar:1,2,2": "64895cf9fe5798badcbacdce25f31ce560919eeb998de957dc574add269e9522",
    "caterpillar:1,2,2,2": "78918b7908695f0673669b2099790a001903a0b9d87239449b0cac19004f283e",
    "tadpole:4,1": "2b484627128f27215eb8a436bb59ca2369d1a0d05f1f8f82c07ba2ba9c7697dd",
    "tadpole:4,3": "181fa77ebeba67764cdc3a95f27266fa836d70f8e1b1238d81af962c8a1dda71",
    "bull": "23b9067d67d874a562c1fb9098c0c4de61c035e67d033ccc089855b4a3a0b0bb",
}


@pytest.fixture(scope="module")
def corpus_log(corpus_proof):
    """(system, dump_log text) of a descriptor's proof, written once."""

    @functools.cache
    def log(desc: str):
        _, sys_, verdict, _ = corpus_proof(desc)
        return sys_, dump_log(verdict.log, sys_)

    return log


@pytest.mark.parametrize("desc", NULL_ONLY_INSTANCES)
def test_corpus_proof_logs_byte_identical(desc, corpus_log):
    _, text = corpus_log(desc)
    assert text == json.dumps(json.loads(text), separators=(",", ":"))
    indented = json.dumps(json.loads(text), indent=1)
    assert hashlib.sha256(indented.encode()).hexdigest() == LOG_SHA256[desc]


# sha256 of dump_log's text for logs the pins above do not reach: a deep
# null-only tree (7 432 steps, depth 8) and a found-structure log with 10
# open leaves.  The exact kernel's arithmetic and the engine's row store
# must not change a single step of them.
DEEP_LOG_SHA256 = {
    "path:9": "e6ba4a8b8f9dd63d5015703e8890c45611b90fb2572f995aa6dc62fd880e2fea",
    "cycle:5": "1182142cfa09fb45893a5fbae99fc60cce12cf8ecac4f08266fc036fe2689596",
}


@pytest.mark.parametrize("desc", sorted(DEEP_LOG_SHA256))
def test_deep_and_open_proof_logs_byte_identical(desc, corpus_log):
    _, text = corpus_log(desc)
    assert hashlib.sha256(text.encode()).hexdigest() == DEEP_LOG_SHA256[desc]


# sha256 of dump_log's text for the logs that hold the multi-row scans'
# rarer modes: mutex-elim/pair (twice in 1 547 steps),
# quad-solve-nonzero/single (4 251 steps) and quad-solve-nonzero/pair
# (20 steps in complete_bipartite:2,3).
SCAN_LOG_SHA256 = {
    "6: 1-5 2-3 2-4 2-5 3-4 3-5 5-6":
        "01a22d4f463adc95e1aa7f5244d80d99ace9a06b1b5d91ce5f462bf505193335",
    "6: 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5 4-6 5-6":
        "27f239d2cebc3264dc8955ef9a5e7f60924232853792cbd1ff85288718b892b4",
    "complete_bipartite:2,3": "10bee2eb556e240485e639edab0f7f9a0d6f615b67a4d2076b0bc24d0042d6ba",
}


@pytest.mark.parametrize("desc", sorted(SCAN_LOG_SHA256))
def test_scan_mode_logs_byte_identical(desc, rare_rule_logs, corpus_log):
    if desc in rare_rule_logs:
        sys_, log = rare_rule_logs[desc]
        text = dump_log(log, sys_)
    else:
        _, text = corpus_log(desc)
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_LOG_SHA256[desc]


@pytest.mark.parametrize("desc", NULL_ONLY_INSTANCES)
def test_indented_logs_of_earlier_versions_load(desc, corpus_log):
    # earlier versions wrote json.dumps(document, indent=1)
    sys_, text = corpus_log(desc)
    document = json.loads(text)
    assert replay_proof(sys_, load_log(json.dumps(document, indent=1), sys_))
    step = next(s for s in document["steps"] if s["conclusion"]["kind"] == "zero")
    step["conclusion"] = {"kind": "value", "var": step["conclusion"]["var"], "scalar": "1"}
    res = replay_proof(sys_, load_log(json.dumps(document, indent=1), sys_))
    assert not res and res.failure.index == step["id"]


def test_stated_row_log_of_earlier_versions_replays(corpus_log):
    sys_, _ = corpus_log("cmn:2,2")
    log = load_log(STATED_LOG.read_text(), sys_)
    assert sum(s.conclusion[0] == "row" and s.rule == "substitute" for s in log.steps) > 300
    assert replay_proof(sys_, log)


@pytest.mark.parametrize("op", ["lincomb", "subst"])
def test_changed_stated_row_coefficient_rejected_at_its_step(op, corpus_log):
    sys_, _ = corpus_log("cmn:2,2")
    document = json.loads(STATED_LOG.read_text())
    step = next(s for s in document["steps"] if s["payload"].get("op") == op)
    term = step["conclusion"]["terms"][0]
    term["coeff"] = fraction_str(2 * Fraction(term["coeff"]))
    res = replay_proof(sys_, load_log(json.dumps(document), sys_))
    assert not res and res.failure.index == step["id"]
    assert "does not reproduce the row" in res.failure.reason


def test_log_is_the_stated_row_log_with_substitute_rows_derived(corpus_log):
    # ids, rules, branches, premises, payloads and every other conclusion
    # are as earlier versions wrote them
    _, text = corpus_log("cmn:2,2")
    document = json.loads(STATED_LOG.read_text())
    for step in document["steps"]:
        if step["rule"] == "substitute":
            step["conclusion"] = {"kind": "derived"}
    assert json.dumps(document, separators=(",", ":")) == text


def test_derived_conclusion_only_where_the_replayer_computes_it(corpus_log):
    sys_, text = corpus_log("cmn:2,2")
    document = json.loads(text)
    step = next(s for s in document["steps"] if s["rule"] == "leaf-twin-cross")
    step["conclusion"] = {"kind": "derived"}
    res = replay_proof(sys_, load_log(json.dumps(document), sys_))
    assert not res and res.failure.index == step["id"]
    assert "cannot conclude 'derived'" in res.failure.reason


@pytest.fixture
def gc_state():
    """Restore the collector's state after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_restored(enabled, bull_proof, gc_state):
    _, sys_, log = bull_proof
    if enabled:
        gc.enable()
    else:
        gc.disable()
    text = dump_log(log, sys_)
    assert gc.isenabled() is enabled
    load_log(text, sys_)
    assert gc.isenabled() is enabled
    for malformed in (text[: len(text) // 2], json.dumps({"steps": [{}]})):
        with pytest.raises(ValueError):
            load_log(malformed, sys_)
        assert gc.isenabled() is enabled


def test_prove_and_replay_leave_no_cycles(gc_state):
    # both run with the collector paused, so they must not leave it work;
    # it stays off here too, so no automatic pass hides a cycle
    g = generate_family("tadpole:4,3")
    sys_ = derive_constraints(g)
    gc.disable()
    gc.collect()
    verdict = prove_null_only(g)
    assert verdict.log.verdict == NULL_ONLY
    assert any(s.rule == "branch-open" for s in verdict.log.steps)
    assert replay_proof(sys_, verdict.log)
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_restored_after_rejected_replay(enabled, bull_proof, gc_state):
    _, sys_, log = bull_proof
    steps = list(log.steps)
    i = next(i for i, s in enumerate(steps) if s.payload.get("op") == "lincomb")
    steps[i] = dataclasses.replace(steps[i], payload={"op": "lincomb", "parts": None})
    for forged in (dataclasses.replace(log, steps=steps), dataclasses.replace(log, steps=steps[:i])):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert not replay_proof(sys_, forged)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_restored_after_step_budget_runs_out(enabled, gc_state):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    verdict = prove_null_only(bull_graph(), Budget(max_steps=40))
    assert verdict.reason == "budget-exhausted"
    assert gc.isenabled() is enabled
