import dataclasses
import functools
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
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
    _square_link_shape,
    _table_key,
    dump_log,
    load_log,
    replay_proof,
)
from evograph.radicals import Radical, fraction_str

# The child process imports the same evograph as this one, installed or not.
SRC = os.path.dirname(os.path.dirname(evograph.__file__))
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


# the premise cones of tadpole:4,1 and caterpillar:1,2,2 keep all four
# rules checked below; cmn:2,2's and bull's have no square-sum-zero step
@pytest.mark.parametrize("desc", ["tadpole:4,1", "caterpillar:1,2,2"])
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
    # the bull's log states no row; caterpillar:1,2,2's states three
    # leaf-twin-cross rows in its premise cone
    sys, text = corpus_log("caterpillar:1,2,2" if field == "coeff" else "bull")
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
# substitute conclusion replaced by {"kind": "derived"}, restricted to the
# premise cone, the steps the certificate keeps.
LOG_SHA256 = {
    "cmn:2,2": "a768ec85206ab36226774eeb74325f7d16be5020a32ff3be83fcc4964c50522a",
    "cmn:2,3": "ccfa1fa9ddf4bb6c2d00124a3c51ef36b1374b59f0a8d15d421c35a284c3741c",
    "cmn:3,2": "53c048d636ad036132cba1c3e9df028ddf94e9d496b52aad3f35d33e1787b630",
    "cmn:3,3": "ae16d65509ff486f86371884ed3a4ee21266e6ca920016f6acb33cac37fc4bcc",
    "caterpillar:1,2,2": "e87167a5b3a8d850ea6a79efceba6ccc92fef22f130e9c8f19f308b4b709ebd7",
    "caterpillar:1,2,2,2": "98edebb0f438da6cf89bf95698fbd311befc0b8795c01b054fd5261c52f76abb",
    "tadpole:4,1": "cf6594989dc645361d1b4ba0f6c3a99f1a34337b658987dac3af1d947f12ef29",
    "tadpole:4,3": "d8da72dabbcb2c6aedf31fe1052c95c80ca000330eb66c009b94f24d4d0ed4b0",
    "bull": "e564a81bd6b4d83a20bf6c3779138f8894500b0942bb7139a71d3b9556f0298d",
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
# null-only tree (1 760 of 4 796 derived steps kept, depth 8) and a
# found-structure log that ends at its witness leaf, kept whole.  The exact kernel's
# arithmetic and the engine's row store must not change a single step of them.
DEEP_LOG_SHA256 = {
    "path:9": "b821eade91b6bbdc31c8782ee65fe75c4a139b3f80b75b51175fcd286af2fa23",
    "cycle:5": "700ac49c95f8adbc824e1d2ab921985a66552180c94da310335dfd65147ac6fb",
}


@pytest.mark.parametrize("desc", sorted(DEEP_LOG_SHA256))
def test_deep_and_open_proof_logs_byte_identical(desc, corpus_log):
    _, text = corpus_log(desc)
    assert hashlib.sha256(text.encode()).hexdigest() == DEEP_LOG_SHA256[desc]


# sha256 of dump_log's text for the logs that hold the multi-row scans'
# rarer modes: mutex-elim/pair (twice in 967 of 1 331 derived steps),
# quad-solve-nonzero/single (1 438 of 3 869) and quad-solve-nonzero/pair
# (20 steps in complete_bipartite:2,3, an unknown log kept whole).
SCAN_LOG_SHA256 = {
    "6: 1-5 2-3 2-4 2-5 3-4 3-5 5-6":
        "07b01681d05102fed62ea175a8c64f54cdf6b0c72a2720721d31ce3d23008056",
    "6: 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5 4-6 5-6":
        "f259e367910f9e9ec99cbf4b42da594d8e351ba8e5712510850b4f57f230846c",
    "complete_bipartite:2,3": "d139f8a28f867d06a9bd3f49c9fc120543cab97034650805e5112fc932c3bd42",
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


def _cone(document: dict) -> list[dict]:
    """The document's steps in the premise cone of its branch markers."""
    keep = set()
    for step in reversed(document["steps"]):
        if step["id"] in keep or step["rule"] in ("branch-open", "branch-close"):
            keep.add(step["id"])
            keep.update(sid for kind, sid in step["premises"] if kind == "s")
    return [step for step in document["steps"] if step["id"] in keep]


def _renumber(x, ids: dict[int, int]):
    """x with each step ref ["s", id] in it mapped through ids."""
    if isinstance(x, list):
        if len(x) == 2 and x[0] == "s" and isinstance(x[1], int):
            return ["s", ids[x[1]]]
        return [_renumber(y, ids) for y in x]
    if isinstance(x, dict):
        return {k: _renumber(y, ids) for k, y in x.items()}
    return x


def test_log_is_the_stated_row_log_with_substitute_rows_derived(corpus_log):
    # rules, branches, premises, payloads and every other conclusion are as
    # earlier versions wrote them, on the steps of the premise cone.  The ids
    # keep their order but not their values: earlier versions also logged
    # the substitutions that ran a vanishing row down to an empty one.
    _, text = corpus_log("cmn:2,2")
    document = json.loads(STATED_LOG.read_text())
    document["steps"] = _cone(document)
    assert len(document["steps"]) == 82
    new_ids = [step["id"] for step in json.loads(text)["steps"]]
    assert new_ids == sorted(new_ids) and len(new_ids) == 82
    ids = dict(zip((step["id"] for step in document["steps"]), new_ids))
    for step in document["steps"]:
        step["id"] = ids[step["id"]]
        step["premises"] = _renumber(step["premises"], ids)
        step["payload"] = _renumber(step["payload"], ids)
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


# -- the premise cone -------------------------------------------------------------


@pytest.mark.parametrize("desc", NULL_ONLY_INSTANCES + RARE_RULE_GRAPHS)
def test_null_only_log_is_its_premise_cone(desc, monkeypatch):
    g = _edge_list_graph(desc) if desc[0].isdigit() else generate_family(desc)
    kept = prove_null_only(g).log.steps
    monkeypatch.setattr(deduce, "_premise_cone", list)
    whole = prove_null_only(g).log.steps
    ids = {s.sid for s in kept}
    assert len(kept) < len(whole) and kept[-1] == whole[-1]
    assert [s for s in whole if s.sid in ids] == kept
    assert {s.sid for s in whole if s.rule in ("branch-open", "branch-close")} <= ids
    assert all(sid in ids for s in kept for kind, sid in s.premises if kind == "s")


@pytest.mark.parametrize("desc", ["cmn:2,2", "bull"])
def test_every_kept_step_is_needed(desc, corpus_proof):
    # a branch-open may go: its sibling still names the split variable
    _, sys_, verdict, _ = corpus_proof(desc)
    steps = verdict.log.steps
    for i, s in enumerate(steps):
        if s.rule != "branch-open":
            res = replay_proof(sys_, ProofLog(steps=steps[:i] + steps[i + 1:], verdict=NULL_ONLY))
            assert not res and res.failure is not None, s.sid


# -- cube roots are checked, never taken ------------------------------------------


def _combination(rows: dict, target: dict) -> list | None:
    """Parts [(ref, lam)] whose lincomb of rows is target, by elimination;
    None when target is outside the rows' span."""
    echelon = []  # (pivot monomial, row, its parts as {ref: lam})
    for ref, p in rows.items():
        p, parts = dict(p), {ref: Fraction(1)}
        for m, q, qparts in echelon:
            if m in p:
                lam = -p[m] / q[m]
                poly.add_scaled_to(p, q, lam)
                for r, c in qparts.items():
                    parts[r] = parts.get(r, 0) + lam * c
        if p:
            echelon.append((next(iter(p)), p, parts))
    rest, out = dict(target), {}
    for m, q, qparts in echelon:
        if m in rest:
            lam = rest[m] / q[m]
            poly.add_scaled_to(rest, q, -lam)
            for r, c in qparts.items():
                out[r] = out.get(r, 0) + lam * c
    return None if rest else [(r, c) for r, c in out.items() if c]


def _forged_cube_root_log(sys_, log: ProofLog) -> ProofLog:
    """log plus a lincomb step deriving x^2 - N*y, and a quad-solve-nonzero/pair
    step on that row and a row y^2 = mu*x of the log.  N is the product of two
    20-digit primes, so only factoring finds the cube root of N^2*mu; the pair
    step cites no nonzero evidence."""
    n_big = (10**19 + 51) * (10**20 + 39)
    row_steps = [s for s in log.steps if s.conclusion[0] == "row"]
    for s in row_steps:
        link = _square_link_shape(s.conclusion[1])
        if link is None or link[0] == link[1]:
            continue
        y, x, _ = link
        rows = {("c", i): c.p for i, c in enumerate(sys_.constraints)}
        rows.update(
            (("s", r.sid), r.conclusion[1])
            for r in row_steps
            if r.branch == s.branch[: len(r.branch)]
        )
        parts = _combination(rows, {(x, x): Fraction(1), (y,): Fraction(-n_big)})
        if parts is None:
            continue
        sid = log.steps[-1].sid + 1
        lincomb = Step(sid, "substitute", s.branch, tuple(r for r, _ in parts), ("derived",),
                       {"op": "lincomb", "parts": parts})
        pair = Step(sid + 1, "quad-solve-nonzero", s.branch, (("s", sid), ("s", s.sid)),
                    ("value", x, Radical.from_rational(1)), {"mode": "pair", "var": x, "witness": x})
        return ProofLog(steps=log.steps + [lincomb, pair], verdict=log.verdict)
    raise AssertionError("no square link to forge a cycle on")


def test_forged_cube_root_rejected_quickly(tmp_path, corpus_proof):
    # taking the root factors N, about sqrt(10**19) Pollard-Brent steps; the
    # replay runs in a child process, so a stall fails the test at its timeout
    _, sys_, verdict, _ = corpus_proof("tadpole:4,1")
    path = tmp_path / "forged.json"
    path.write_text(dump_log(_forged_cube_root_log(sys_, verdict.log), sys_))
    child = (
        "import json, sys, time\n"
        "from evograph import derive_constraints, generate_family, replay_proof\n"
        "from evograph.prooflog import load_log\n"
        "sys_ = derive_constraints(generate_family('tadpole:4,1'))\n"
        "log = load_log(open(sys.argv[1]).read(), sys_)\n"
        "start = time.perf_counter()\n"
        "res = replay_proof(sys_, log)\n"
        "print(json.dumps([bool(res), res.failure and res.failure.index, time.perf_counter() - start]))\n"
    )
    src = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    ok, index, seconds = json.loads(proc.stdout)
    assert not ok and index == verdict.log.steps[-1].sid + 2 and seconds < 1.0


def test_cube_root_with_a_composite_base_rejected(corpus_log):
    # 1/4*4^(1/3) cubes to 1/16 as the normal form 1/4*2^(2/3) does
    sys_, text = corpus_log("star:4")
    assert replay_proof(sys_, load_log(text, sys_))
    document = json.loads(text)
    step = next(
        s for s in document["steps"]
        if s["payload"].get("mode") == "pair" and s["conclusion"]["scalar"] == "1/4*2^(2/3)"
    )
    step["conclusion"]["scalar"] = "1/4*4^(1/3)"
    res = replay_proof(sys_, load_log(json.dumps(document), sys_))
    assert not res and res.failure.index == step["id"]
    assert "not a prime" in res.failure.reason
