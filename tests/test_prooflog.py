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
from evograph import poly
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
from evograph.radicals import Radical
from test_deduce import CORPUS_AND_BENCHMARK

# The child process imports the same evograph as this one, installed or not.
SRC = os.path.dirname(os.path.dirname(evograph.__file__))
# cmn:2,2's log as dump_log wrote it when every substitute row was stated,
# which the replayer now rejects
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


# Null-only graphs whose logs reach the table entries no corpus log reaches:
# mutex-elim/pair in the first; both negative-square modes and
# value-conflict/eval in the second.
RARE_RULE_GRAPHS = [
    "6: 1-5 2-3 2-4 2-5 3-4 3-5 5-6",
    "6: 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5 4-6 5-6",
]


@pytest.fixture(scope="module")
def rare_rule_logs(corpus_proof):
    out = {}
    for spec in RARE_RULE_GRAPHS:
        _, system, verdict, _ = corpus_proof(spec)
        assert verdict.kind == NULL_ONLY
        out[spec] = system, verdict.log
    return out


@pytest.mark.parametrize("spec", RARE_RULE_GRAPHS)
def test_rare_rule_logs_replay(spec, rare_rule_logs):
    sys_, log = rare_rule_logs[spec]
    assert replay_proof(sys_, log)
    assert replay_proof(sys_, load_log(dump_log(log, sys_), sys_))


def test_every_table_entry_occurs_in_an_engine_log(untrimmed_proof):
    # in what the engine derives: a rare pair may lie outside every premise cone
    corpus = dict.fromkeys(
        NULL_ONLY_INSTANCES + ISO_INSTANCES + NO_FALSE_CERT_INSTANCES + NUMERIC_NULL_INSTANCES
        + RARE_RULE_GRAPHS
    )
    seen = {_table_key(s) for desc in corpus for s in untrimmed_proof(desc).log.steps}
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


def test_coefficients_past_the_int_str_limit_round_trip(corpus_proof):
    # one lincomb factor in this log has 17 347 digits, past Python's
    # default limit of 4300 digits for int <-> str conversion
    _, sys_, verdict, _ = corpus_proof("5: 1-2 1-5 2-3 2-4 2-5 3-4 4-5")
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


# sha256 of dump_log's text for the logs the pins above do not reach: a deep
# null-only tree (1 760 of 4 796 derived steps kept, depth 8), a
# found-structure log that ends at its witness leaf (345 of 541 kept), and
# every other instance of the certify benchmark workloads, null-only and
# unknown alike.  The exact kernel's arithmetic and the engine's row store
# must not change a single step of them.
DEEP_LOG_SHA256 = {
    "path:9": "b821eade91b6bbdc31c8782ee65fe75c4a139b3f80b75b51175fcd286af2fa23",
    "cycle:5": "74992cb3edd41b98832bf49ba719d2f96fee91d8a022d30b9b5b8ccdf2a84c93",
    "cmn:4,4": "46a2b1d50ff2bff0e2cc7af3440eeb357739eb6354a3c3d0043784994f76c4c5",
    "cmn:5,5": "4a935acd1165d81d988d91ee3814bbea1275f531dbdd22d18f32d1d0332419ab",
    "cmn:6,6": "f2a2525b576f7ba34e5c8046858d59c01a6ed0cde4667f51d21a25a49c397ade",
    "caterpillar:1,2,2,2,2,2": "fe88f1d1505234e089fea9e55c60e2d8a344a2c1d64dfe2b81128a6b576c3d9f",
    "tadpole:4,5": "708a9b9cb6501f18a4108a8fa142cd4ddf5dccbc9ba6bc5b4f7a78110993eeac",
    "tadpole:4,7": "db8cc84bde722c4bf414747d74a5cc5a9d2533efcef24d389fcadc6bb77285c3",
    "tadpole:4,9": "c3faca622be89090cda5aac48f3ebf2892a6b677228877b820c0d9c042e43f78",
    "tadpole:6,1": "5fb85e3ddfee808b6778908b5dc5083f55b3859b837b6845e002f7b412df0c04",
    "path:5": "8a6cd5de9c3557273801a9de8d213f8a73fd292f70333ddaa029a73e43e7eb24",
    "path:7": "17b41bdfa7934b7faddc96d1bf2fae8787bf4ed1f23837db19d393b57fb512d9",
    "path:11": "4fd7ae8518d31d2e4267aa42c3e3b7e95b7c8841f1b9f1dc696ff17107ede561",
    "star:4": "281fed7abbd0e2444f4d543118395596a66cd6c2ad7f52abd789120231c66ac4",
}


@pytest.mark.parametrize("desc", sorted(DEEP_LOG_SHA256))
def test_deep_and_open_proof_logs_byte_identical(desc, corpus_log):
    _, text = corpus_log(desc)
    assert hashlib.sha256(text.encode()).hexdigest() == DEEP_LOG_SHA256[desc]


# Verdict.derived of every certify benchmark instance: the steps the engine
# derives, kept or trimmed.  The logs above pin what is kept; this pins the
# work done to find it, so a change to the engine's bookkeeping that derives
# one step more or less shows here.
DERIVED_STEPS = {
    "cmn:2,2": 140,
    "cmn:2,3": 203,
    "cmn:3,2": 217,
    "cmn:3,3": 297,
    "cmn:4,4": 562,
    "cmn:5,5": 971,
    "cmn:6,6": 1560,
    "caterpillar:1,2,2": 594,
    "caterpillar:1,2,2,2": 1404,
    "caterpillar:1,2,2,2,2,2": 4737,
    "bull": 505,
    "tadpole:4,1": 394,
    "tadpole:4,3": 1587,
    "tadpole:4,5": 4175,
    "tadpole:4,7": 6166,
    "tadpole:4,9": 10445,
    "tadpole:6,1": 4094,
    "path:5": 590,
    "path:7": 1980,
    "path:9": 4796,
    "path:11": 8520,
    "cycle:5": 541,
    "complete_bipartite:2,3": 3474,
    "star:4": 1411,
}


@pytest.mark.parametrize("desc", list(DERIVED_STEPS))
def test_certify_instances_derive_pinned_step_counts(desc, corpus_proof):
    assert corpus_proof(desc).verdict.derived == DERIVED_STEPS[desc]


# sha256 of dump_log's text for the logs that hold the multi-row scans'
# rarer modes: mutex-elim/pair (twice in 967 of 1 331 derived steps),
# quad-solve-nonzero/single (1 438 of 3 869) and quad-solve-nonzero/pair
# (once in the 1 249 of 3 474 derived steps that complete_bipartite:2,3's
# unknown log keeps).
SCAN_LOG_SHA256 = {
    "6: 1-5 2-3 2-4 2-5 3-4 3-5 5-6":
        "07b01681d05102fed62ea175a8c64f54cdf6b0c72a2720721d31ce3d23008056",
    "6: 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5 4-6 5-6":
        "f259e367910f9e9ec99cbf4b42da594d8e351ba8e5712510850b4f57f230846c",
    "complete_bipartite:2,3": "5a1fbf5c128c23502708b42547481fdeebab52de899cc1b97ce0399422784cc9",
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


def test_stated_row_log_of_earlier_versions_is_rejected(corpus_log):
    sys_, _ = corpus_log("cmn:2,2")
    log = load_log(STATED_LOG.read_text(), sys_)
    first = next(s for s in log.steps if s.rule == "substitute")
    assert first.conclusion[0] == "row"
    res = replay_proof(sys_, log)
    assert not res and res.failure.index == first.sid
    assert "cannot conclude 'row'" in res.failure.reason


@pytest.mark.parametrize("desc", CORPUS_AND_BENCHMARK)
def test_log_reloads_equal_to_the_engines_log(desc, corpus_log, corpus_proof):
    sys_, text = corpus_log(desc)
    assert load_log(text, sys_) == corpus_proof(desc).verdict.log


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


def _assert_premise_cone(verdict, untrimmed):
    """verdict's log is the premise cone of the untrimmed log, and its
    derived count is that log's length."""
    whole = untrimmed.log.steps
    assert [s.sid for s in whole] == list(range(verdict.derived))
    assert (verdict.kind, verdict.open_branches, verdict.reason) == (
        untrimmed.kind, untrimmed.open_branches, untrimmed.reason
    )
    keep = set()
    for s in reversed(whole):
        if s.sid in keep or s.rule in ("branch-open", "branch-close"):
            keep.add(s.sid)
            keep.update(sid for kind, sid in s.premises if kind == "s")
    assert verdict.log.steps == [s for s in whole if s.sid in keep]
    assert len(verdict.log.steps) < len(whole)


@pytest.mark.parametrize("desc", NULL_ONLY_INSTANCES + RARE_RULE_GRAPHS)
def test_null_only_log_is_its_premise_cone(desc, corpus_proof, untrimmed_proof):
    verdict = corpus_proof(desc).verdict
    assert verdict.kind == NULL_ONLY
    _assert_premise_cone(verdict, untrimmed_proof(desc))
    assert verdict.log.steps[-1] == untrimmed_proof(desc).log.steps[-1]


OPEN_LOGS = [
    desc
    for desc in CORPUS_AND_BENCHMARK + ["cycle:12", "path:13"]
    if desc not in NULL_ONLY_INSTANCES
]


@pytest.mark.parametrize("desc", OPEN_LOGS)
def test_every_log_is_its_premise_cone(desc, corpus_proof, untrimmed_proof):
    # unknown and found-structure logs too: their open leaves keep their
    # branch-open steps, so each open leaf's literals stay in the log
    _assert_premise_cone(corpus_proof(desc).verdict, untrimmed_proof(desc))


@pytest.mark.parametrize(
    "desc, max_steps", [("bull", 40), ("path:9", 2_000), ("complete_bipartite:2,3", 1_000)]
)
def test_budget_exhausted_log_is_its_premise_cone(desc, max_steps, untrimmed_proof):
    # the step budget runs out at the root, and deep in a case tree
    budget = Budget(max_steps=max_steps)
    g = generate_family(desc)
    verdict = prove_null_only(g, budget)
    assert verdict.reason == "budget-exhausted" and verdict.derived == max_steps
    _assert_premise_cone(verdict, untrimmed_proof(desc, budget))
    assert replay_proof(derive_constraints(g), verdict.log)


@pytest.mark.parametrize("desc", ["complete_bipartite:2,3", "cycle:5"])
def test_open_logs_survive_dump_and_load(desc, corpus_log, corpus_proof):
    # an unknown log and a found-structure log, both trimmed
    sys_, text = corpus_log(desc)
    verdict = corpus_proof(desc).verdict
    assert verdict.kind != NULL_ONLY and verdict.open_branches
    log = load_log(text, sys_)
    assert log.verdict == verdict.kind and log == verdict.log
    assert replay_proof(sys_, log)


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


def _forged_cube_root_log(sys_, log: ProofLog, replayed_rows) -> ProofLog:
    """log plus a lincomb step deriving x^2 - N*y, and a quad-solve-nonzero/pair
    step on that row and a derived row y^2 = mu*x of the log.  N is the product
    of two 20-digit primes, so taking the cube root of N^2*mu means factoring N,
    which trial division by small primes cannot; the pair step cites no nonzero
    evidence."""
    n_big = (10**19 + 51) * (10**20 + 39)
    derived = replayed_rows(sys_, log)
    for sid, (branch, row) in derived.items():
        link = _square_link_shape(row)
        if link is None or link[0] == link[1]:
            continue
        y, x, _ = link
        rows = {("c", i): c.p for i, c in enumerate(sys_.constraints)}
        rows.update(
            (("s", r), p) for r, (b, p) in derived.items() if b == branch[: len(b)]
        )
        parts = _combination(rows, {(x, x): Fraction(1), (y,): Fraction(-n_big)})
        if parts is None:
            continue
        new = log.steps[-1].sid + 1
        lincomb = Step(new, "substitute", branch, tuple(r for r, _ in parts), ("derived",),
                       {"op": "lincomb", "parts": parts})
        pair = Step(new + 1, "quad-solve-nonzero", branch, (("s", new), ("s", sid)),
                    ("value", x, Radical.from_rational(1)), {"mode": "pair", "var": x, "witness": x})
        return ProofLog(steps=log.steps + [lincomb, pair], verdict=log.verdict)
    raise AssertionError("no square link to forge a cycle on")


def test_forged_cube_root_rejected_quickly(tmp_path, corpus_proof, replayed_rows):
    # a checker that took the root would have to factor N, about sqrt(10**19)
    # steps of a general method; the replay runs in a child process, so a
    # stall fails the test at its timeout
    _, sys_, verdict, _ = corpus_proof("tadpole:4,1")
    path = tmp_path / "forged.json"
    path.write_text(dump_log(_forged_cube_root_log(sys_, verdict.log, replayed_rows), sys_))
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


def test_cube_root_with_a_composite_base_rejected(corpus_proof, untrimmed_proof):
    # 1/4*4^(1/3) cubes to 1/16 as the normal form 1/4*2^(2/3) does; the
    # pair step lies outside star:4's premise cone, so the whole log is used
    _, sys_, _, _ = corpus_proof("star:4")
    text = dump_log(untrimmed_proof("star:4").log, sys_)
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
