"""The benchmark's workloads: their instances, pipelines and output checks.

Each instance runs the public evograph calls in the order a user's
pipeline makes them.  Every call goes through ``call(layer, name, fn,
*args)``, so a traced pass can put a span around it; an untraced pass
passes a plain forwarding function.  The checks run after the timed
calls and return the reasons the instance counts as a failed operation.

The expected answers below come from the source paper and the seed's
certified corpus.  They live here, not in ``evograph.cli``, so that the
checker never trusts the program's own tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from evograph import (
    SearchConfig,
    classify_regularity,
    closed_form_iso,
    derive_constraints,
    find_homomorphism,
    generate_family,
    is_homomorphism_direct,
    is_isomorphism,
    is_singular,
    prove_null_only,
    replay_proof,
)
from evograph.prooflog import FOUND_STRUCTURE, NULL_ONLY, dump_log, load_log
from evograph.search import CANDIDATE, NONE_FOUND, VERIFIED_HOM

# The paper's headline families, all null-only.  Their twin leaves make
# replay's leaf-twin-cross check the largest cost, then dump + load.
CERTIFY_TWINS = [
    "cmn:2,2", "cmn:2,3", "cmn:3,2", "cmn:3,3", "cmn:4,4", "cmn:5,5", "cmn:6,6",
    "caterpillar:1,2,2", "caterpillar:1,2,2,2", "caterpillar:1,2,2,2,2,2",
]

# Few or no twin leaves and deep case splits; seven of these stop at the
# depth cut (unknown or found-structure), so the engine dominates.
CERTIFY_CHAINS = [
    "bull",
    "tadpole:4,1", "tadpole:4,3", "tadpole:4,5", "tadpole:4,7", "tadpole:4,9",
    "tadpole:6,1",
    "path:5", "path:7", "path:9", "path:11",
    "cycle:5", "complete_bipartite:2,3", "star:4",
]

# Known isomorphisms: search recall is measured on these.
SEARCH_ISO = [
    "cycle:3", "cycle:4", "cycle:5", "cycle:6", "cycle:8", "cycle:10",
    "star:3", "star:4", "complete_bipartite:2,3", "complete_bipartite:3,4",
]
SEARCH_NULL = ["bull", "cmn:2,2", "tadpole:4,1", "path:6"]
# The n = 20 rung, where the m x n^2 Jacobian build and solve dominate.
SEARCH_LARGE = ["cycle:20"]
SMALL_RESTARTS = 200
LARGE_RESTARTS = 10

WORKLOADS = {
    "certify-twins": CERTIFY_TWINS,
    "certify-chains": CERTIFY_CHAINS,
    "search": SEARCH_ISO + SEARCH_NULL + SEARCH_LARGE,
}

# Graphs with a nonzero homomorphism (regular or biregular).
KNOWN_ISO = frozenset(
    SEARCH_ISO + SEARCH_LARGE + ["cycle:5", "complete_bipartite:2,3", "star:4"]
)
# Graphs certified null-only by the seed engine, or non-singular graphs that
# are neither regular nor biregular (null-only by the paper's theorem).
KNOWN_NULL = frozenset(
    CERTIFY_TWINS
    + ["bull", "tadpole:4,1", "tadpole:4,3", "tadpole:4,5", "path:5", "path:7", "path:9", "path:6"]
)

# Rules the engine emits; per-rule step counts are reported for these.
ENGINE_RULES = (
    "leaf-mutex", "leaf-twin-zero", "leaf-twin-cross", "substitute",
    "square-sum-zero", "single-monomial-zero", "mutex-elim", "linear-solve",
    "quad-solve-nonzero", "negative-square", "value-conflict",
    "column-zero-propagate", "branch-open", "branch-close",
)


@dataclass
class Outcome:
    """What one instance produced, reduced to what the metrics need."""

    instance: str
    seconds: float = 0.0
    pace: float = 0.0  # seconds of a pace reference run around this one
    paced: float = 0.0  # ``seconds`` at the reference pace
    failures: list[str] = field(default_factory=list)
    certified: bool = False
    steps: int = 0
    rules: Counter = field(default_factory=Counter)
    open_leaves: int = 0
    max_depth: int = 0
    log_bytes: int = 0
    constraints: int = 0
    search: str = ""
    restarts: int = 0


# -- certify-twins and certify-chains ------------------------------------------


def certify(desc: str, call, serialize: bool):
    """derive -> prove [-> dump -> load] -> replay; returns the raw results."""
    g = call("graphs", "generate_family", generate_family, desc)
    call("graphs", "is_singular", is_singular, g)
    reg = call("graphs", "classify_regularity", classify_regularity, g)
    system = call("homsystem", "derive_constraints", derive_constraints, g)
    verdict = call("deduce", "prove_null_only", prove_null_only, g)
    log, text = verdict.log, ""
    if serialize:
        text = call("prooflog", "dump_log", dump_log, verdict.log, system)
        log = call("prooflog", "load_log", load_log, text, system)
    replay = call("prooflog", "replay_proof", replay_proof, system, log)
    return g, reg, system, verdict, log, text, replay


def check_certify(desc, g, reg, verdict, log, replay) -> tuple[list[str], bool]:
    """Failure reasons, and whether the answer carries a checked certificate.

    ``log`` is the log that was replayed: the reloaded one on the
    stored-certificate path, else ``verdict.log`` itself.
    """
    fails = []
    if verdict.kind != log.verdict:
        fails.append(f"verdict {verdict.kind} but the log claims {log.verdict}")
    if log is not verdict.log and len(log.steps) != len(verdict.log.steps):
        fails.append(f"reloaded log has {len(log.steps)} steps, {len(verdict.log.steps)} dumped")
    if not replay:
        fails.append(f"replay rejected the log: {replay.failure}")
    if verdict.kind == NULL_ONLY and (desc in KNOWN_ISO or not reg.is_neither):
        fails.append("null-only on a graph with a closed-form isomorphism")
    witness_ok = False
    if verdict.kind == FOUND_STRUCTURE:
        w = verdict.witness
        witness_ok = w is not None and w.max_abs() > 0 and is_homomorphism_direct(g, w)
        if not witness_ok:
            fails.append("found-structure witness fails is_homomorphism_direct")
        if desc in KNOWN_NULL:
            fails.append("found-structure on a graph certified null-only")
    certified = not fails and (verdict.kind == NULL_ONLY or witness_ok)
    return fails, certified


def run_certify(desc: str, call, serialize: bool, clock) -> Outcome:
    t0 = clock()
    g, reg, system, verdict, log, text, replay = certify(desc, call, serialize)
    out = Outcome(desc, seconds=clock() - t0)
    out.failures, out.certified = check_certify(desc, g, reg, verdict, log, replay)
    out.steps = len(verdict.log.steps)
    out.rules = Counter(s.rule for s in verdict.log.steps)
    out.open_leaves = verdict.open_branches
    out.max_depth = max((len(s.branch) for s in verdict.log.steps), default=0)
    out.log_bytes = len(text.encode())
    out.constraints = len(system.constraints)
    return out


# -- search ----------------------------------------------------------------------


def search(desc: str, call, seed: int):
    """closed form -> exact oracle -> find_homomorphism."""
    g = call("graphs", "generate_family", generate_family, desc)
    cf = call("search", "closed_form_iso", closed_form_iso, g)
    iso = cf is not None and call("homsystem", "is_isomorphism", is_isomorphism, g, cf)
    restarts = LARGE_RESTARTS if desc in SEARCH_LARGE else SMALL_RESTARTS
    cfg = SearchConfig(restarts=restarts, seed=seed)
    found = call("search", "find_homomorphism", find_homomorphism, g, cfg)
    return g, cf, iso, found, restarts


def check_search(desc, g, cf, iso, found) -> tuple[list[str], bool]:
    fails = []
    if desc in KNOWN_ISO and cf is None:
        fails.append("no closed form for a known isomorphism")
    if cf is not None and not iso:
        fails.append("closed form fails is_isomorphism")
    if cf is not None and desc in KNOWN_NULL:
        fails.append("closed form on a graph certified null-only")
    hom_ok = False
    if found.kind == VERIFIED_HOM:
        T = found.exact
        hom_ok = T is not None and T.max_abs() > 0 and is_homomorphism_direct(g, T)
        if not hom_ok:
            fails.append("verified-hom fails is_homomorphism_direct")
        if desc in KNOWN_NULL:
            fails.append("verified-hom on a graph certified null-only")
    elif found.kind not in (CANDIDATE, NONE_FOUND):
        fails.append(f"unknown search outcome {found.kind!r}")
    certified = not fails and (bool(iso) or hom_ok)
    return fails, certified


def run_search(desc: str, call, seed: int, clock) -> Outcome:
    t0 = clock()
    g, cf, iso, found, restarts = search(desc, call, seed)
    out = Outcome(desc, seconds=clock() - t0)
    out.failures, out.certified = check_search(desc, g, cf, iso, found)
    out.search = found.kind
    out.restarts = restarts
    return out


def run_instance(workload: str, desc: str, call, seed: int, clock) -> Outcome:
    """One operation; an exception counts as a failure, not a crash."""
    try:
        if workload == "search":
            return run_search(desc, call, seed, clock)
        return run_certify(desc, call, workload == "certify-twins", clock)
    except Exception as exc:  # the benchmark must keep counting
        return Outcome(desc, failures=[f"{type(exc).__name__}: {exc}"])
