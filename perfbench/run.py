#!/usr/bin/env python3
"""Benchmark of the evograph pipeline on three workloads.

Run from the repository root:

  python3 perfbench/run.py --workload certify-twins --seed 0 --seconds 40 --trace 0
  python3 perfbench/run.py                # all three workloads in one process
  python3 perfbench/run.py --self-test    # the checker must catch forged output

The library is imported from ``src/`` of the same checkout; the run fails
(non-zero exit, no result line) when it is not there.  Within the time
budget the workload runs passes over its instances, each instance being
one operation.  The last line of output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.  See README.md for
what each metric means and which layer change should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import pace
from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS/OpenMP thread, set before numpy loads: the load must measure the
# program, not the scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Set-up is sampled in fresh interpreters between passes, so that its
# median spans the run rather than one moment of it.
SETUP_PER_PASS = 3
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import evograph
for desc in sys.argv[1:]:
    evograph.generate_family(desc)
print(time.perf_counter() - t0, evograph.__file__)
"""

# ROADMAP baseline rows, reported by the traced run (see baseline.json).
BASELINE = {
    "cmn:6,6": "cmn_6_6",
    "path:9": "path_9",
    "caterpillar:1,2,2,2,2,2": "caterpillar_1_2_2_2_2_2",
}

NAMES = ("certify-twins", "certify-chains", "search")

clock = time.perf_counter


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def import_checkout():
    """Import evograph from this checkout's src/, or stop the run.

    ``workloads`` imports evograph, so the functions below import it
    locally, once this has put src/ first on the path.
    """
    sys.path.insert(0, str(SRC))
    try:
        import evograph
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import evograph from {SRC}: {exc}")
    if Path(evograph.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: evograph came from {evograph.__file__}, not {SRC}")


def measure_setup(instances: list[str]) -> list[tuple[float, float]]:
    """Seconds, in fresh interpreters, to import evograph and build the
    graphs: (as measured, paced) pairs, paced by readings taken before and
    after the batch."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = pace.read(clock)
    for _ in range(SETUP_PER_PASS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *instances],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, origin = proc.stdout.split(maxsplit=1)
        if Path(origin.strip()).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"set-up imported evograph from {origin.strip()}")
        samples.append(float(seconds))
    after = pace.read(clock)
    return [(s, pace.paced(s, before, after)) for s in samples]


def forward(layer, name, fn, *args):
    """The untraced ``call``: just make the call."""
    return fn(*args)


def run_pass(workload, seed, pass_no, tracer=None, deadline=None, last=None):
    """One pass over the workload's instances.

    An untraced pass reads the host's pace before the first instance and
    after each one, and paces each instance by the readings around it.
    With a ``deadline`` it runs only the instances whose ``last`` time
    still fits before it.
    """
    from workloads import WORKLOADS, run_instance

    outcomes = []
    before = pace.read(clock) if tracer is None else 0.0
    for desc in WORKLOADS[workload]:
        if deadline is not None and clock() + last[desc] > deadline:
            continue
        if tracer is None:
            out = run_instance(workload, desc, forward, seed, clock)
            after = pace.read(clock)
            out.pace = (before + after) / 2
            out.paced = pace.paced(out.seconds, before, after)
            outcomes.append(out)
            before = after
        else:
            body = lambda call, desc=desc: run_instance(workload, desc, call, seed, clock)
            outcomes.append(tracer.instance(desc, pass_no, body))
    return outcomes


def run_passes(workload, seed, seconds, trace):
    """Whole passes until the next would overrun ``seconds``, at least one;
    an untraced run then spends what is left on a partial pass.

    A traced run alternates an untraced and a traced pass, so that the
    tracing overhead is measured on the same instances.  Returns the
    passes, the tracer and the set-up samples.
    """
    from workloads import WORKLOADS

    tracer = Tracer(clock) if trace else None
    passes: list[tuple[bool, list]] = []
    setup: list[tuple[float, float]] = []
    deadline = clock() + seconds
    while True:
        setup += measure_setup(WORKLOADS[workload])
        t0 = clock()
        passes.append((False, run_pass(workload, seed, len(passes))))
        if tracer is not None:
            passes.append((True, run_pass(workload, seed, len(passes), tracer)))
        now = clock()
        if now + (now - t0) > deadline:
            break
    if tracer is None:
        # Fill the rest of the budget with the instances that still fit.
        last = {o.instance: o.seconds for o in passes[-1][1]}
        extra = run_pass(workload, seed, len(passes), deadline=deadline, last=last)
        if extra:
            passes.append((False, extra))
    return passes, tracer, setup


def wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def instance_medians(passes, field="seconds") -> dict[str, float]:
    """Per instance, the median over the untraced passes of ``field``."""
    times = defaultdict(list)
    for traced, outcomes in passes:
        for o in outcomes:
            if not traced:
                times[o.instance].append(getattr(o, field))
    return {desc: statistics.median(v) for desc, v in times.items()}


def end_to_end(passes, setup) -> dict:
    first = passes[0][1]
    return {
        "setup_s": metric(statistics.median(paced for _, paced in setup), "s"),
        "paced_wall_s": metric(sum(instance_medians(passes, "paced").values()), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "certified_frac": metric(sum(o.certified for o in first) / len(first), "ratio"),
    }


def per_layer(passes, tracer) -> dict:
    """Layer metrics: times are medians over the traced passes."""
    from workloads import ENGINE_RULES, SEARCH_ISO, SEARCH_LARGE

    traced = [(no, o) for no, (t, o) in enumerate(passes) if t]
    per_pass = []
    for no, _ in traced:
        spans = [s for s in tracer.spans if s["pass"] == no]
        t = defaultdict(float)
        for s in spans:
            t[s["name"]] += s["end"] - s["start"]
            if s["name"] == "search.find_homomorphism":
                t["find." + ("large" if s["instance"] in SEARCH_LARGE else "small")] += s["end"] - s["start"]
            if s["instance"] in BASELINE:
                t[f"{s['name']}.{BASELINE[s['instance']]}"] += s["end"] - s["start"]
        for layer, secs in self_times(spans).items():
            t["self." + layer] += secs
        per_pass.append(t)

    def med(key):
        return statistics.median(t[key] for t in per_pass)

    outcomes = traced[0][1]
    steps = sum(o.steps for o in outcomes)
    rules = sum((o.rules for o in outcomes), Counter())
    restarts = Counter()
    for o in outcomes:
        restarts["large" if o.instance in SEARCH_LARGE else "small"] += o.restarts
    kinds = Counter(o.search for o in outcomes)
    verified = sum(o.search == "verified-hom" for o in outcomes if o.instance in SEARCH_ISO)
    prove, replay = med("deduce.prove_null_only"), med("prooflog.replay_proof")
    untraced_wall = statistics.median(wall(o) for t, o in passes if not t)
    traced_wall = statistics.median(wall(o) for t, o in passes if t)

    m = {
        "graphs.build_s": metric(med("graphs.generate_family"), "s"),
        "graphs.self_s": metric(med("self.graphs"), "s"),
        "homsystem.derive_s": metric(med("homsystem.derive_constraints"), "s"),
        "homsystem.constraints": metric(sum(o.constraints for o in outcomes), "count"),
        "homsystem.oracle_s": metric(med("homsystem.is_isomorphism"), "s"),
        "homsystem.self_s": metric(med("self.homsystem"), "s"),
        "deduce.prove_s": metric(prove, "s"),
        "deduce.steps": metric(steps, "count"),
        "deduce.steps_per_s": metric(steps / prove if prove else 0.0, "1/s"),
        "deduce.branches": metric(rules["branch-open"], "count"),
        "deduce.open_leaves": metric(sum(o.open_leaves for o in outcomes), "count"),
        "deduce.max_depth": metric(max(o.max_depth for o in outcomes), "count"),
    }
    for rule in ENGINE_RULES:
        m[f"deduce.rule.{rule}"] = metric(rules[rule], "count")
    m.update({
        "deduce.self_s": metric(med("self.deduce"), "s"),
        "prooflog.replay_s": metric(replay, "s"),
        "prooflog.replay_steps_per_s": metric(steps / replay if replay else 0.0, "1/s"),
        "prooflog.dump_s": metric(med("prooflog.dump_log"), "s"),
        "prooflog.load_s": metric(med("prooflog.load_log"), "s"),
        "prooflog.bytes": metric(sum(o.log_bytes for o in outcomes), "bytes"),
        "prooflog.self_s": metric(med("self.prooflog"), "s"),
        "search.closed_form_s": metric(med("search.closed_form_iso"), "s"),
        "search.find_s.small": metric(med("find.small"), "s"),
        "search.find_s.large": metric(med("find.large"), "s"),
        "search.s_per_restart.small": metric(
            med("find.small") / restarts["small"] if restarts["small"] else 0.0, "s"),
        "search.s_per_restart.large": metric(
            med("find.large") / restarts["large"] if restarts["large"] else 0.0, "s"),
        "search.verified": metric(kinds["verified-hom"], "count"),
        "search.candidates": metric(kinds["candidate"], "count"),
        "search.none_found": metric(kinds["none-found"], "count"),
        "search.reconstruct_ratio": metric(
            kinds["verified-hom"] / (kinds["verified-hom"] + kinds["candidate"])
            if kinds["verified-hom"] + kinds["candidate"] else 0.0, "ratio"),
        "search.recall": metric(verified / len(SEARCH_ISO), "ratio"),
        "search.self_s": metric(med("self.search"), "s"),
        "bench.self_s": metric(med("self.bench"), "s"),
        "trace.overhead_s": metric(traced_wall - untraced_wall, "s"),
    })
    by_instance = {o.instance: o for o in outcomes}
    for desc, tag in BASELINE.items():
        m[f"deduce.steps.{tag}"] = metric(by_instance[desc].steps if desc in by_instance else 0, "count")
        m[f"deduce.prove_s.{tag}"] = metric(med(f"deduce.prove_null_only.{tag}"), "s")
        m[f"prooflog.replay_s.{tag}"] = metric(med(f"prooflog.replay_proof.{tag}"), "s")
    return m


def report(workload, seed, passes, setup, metrics) -> None:
    """Human-readable lines; the JSON result line follows them."""
    first = passes[0][1]
    outcomes = [o for _, outs in passes for o in outs]
    lines = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if "paced_wall_s" in metrics:  # end-to-end figures that are printed, not gated
        medians = instance_medians(passes)
        slowest = max(medians, key=medians.get)
        lines.append(("wall_s", sum(medians.values()), "s (as measured)"))
        lines.append(("setup_raw_s", statistics.median(raw for raw, _ in setup), "s (as measured)"))
        lines.append(("pace_ms", 1e3 * statistics.median(o.pace for _, outs in passes for o in outs),
                      f"ms (reference run; {1e3 * pace.REFERENCE_S:g} ms sets the pace)"))
        lines.append(("slowest_instance_s", medians[slowest], f"s ({slowest})"))
        if workload == "certify-twins":
            lines.append(("certificate_mb", sum(o.log_bytes for o in first) / 1e6, "MB"))
        if workload == "search":
            from workloads import SEARCH_ISO
            hits = sum(o.search == "verified-hom" for o in first if o.instance in SEARCH_ISO)
            lines.append(("search_recall", hits / len(SEARCH_ISO), f"ratio (seed {seed})"))
    lines.append(("ops", len(outcomes), "count"))
    lines.append(("ops_failed", sum(bool(o.failures) for o in outcomes), "count"))

    print(f"# {workload}: seed {seed}, {len(passes)} passes of {len(first)} instances")
    print("  pass seconds: " + " ".join(
        f"{wall(o):.3f}{'t' if t else ''}{'' if len(o) == len(first) else f'({len(o)} instances)'}"
        for t, o in passes))
    for name, value, unit in lines:
        print(f"  {name:42s} {value:>14.6g} {unit}")
    if "deduce.steps" in metrics:
        baseline = json.loads((Path(__file__).parent / "baseline.json").read_text())["instances"]
        for o in first:
            if o.instance in baseline:
                row = baseline[o.instance]
                state = "matches" if o.steps == row["steps"] else "DIFFERS FROM"
                print(f"  {o.instance}: {o.steps} steps, {state} the baseline {row['steps']}"
                      f" (baseline prove {row['prove_s']} s, replay {row['replay_s']} s)")
    for o in outcomes:
        for reason in o.failures:
            print(f"  FAILED {o.instance}: {reason}")


def run(workload, seed, seconds, trace) -> dict:
    passes, tracer, setup = run_passes(workload, seed, seconds, trace)
    if trace:
        metrics = per_layer(passes, tracer)
        tracer.write_jsonl(OUT / f"trace-{workload}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(passes, setup)
    report(workload, seed, passes, setup, metrics)
    outcomes = [o for _, outs in passes for o in outs]
    failed = sum(bool(o.failures) for o in outcomes)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def self_test() -> int:
    """Forged output must count as a failed operation; honest output must not."""
    import dataclasses
    from fractions import Fraction

    from evograph import HomCandidate
    from evograph.prooflog import NULL_ONLY, ProofLog
    from evograph.search import VERIFIED_HOM
    from workloads import run_instance

    def drop_last_close(verdict):
        steps = list(verdict.log.steps)
        last = max(i for i, s in enumerate(steps) if s.rule == "branch-close")
        del steps[last]
        return dataclasses.replace(verdict, log=ProofLog(steps, verdict.log.verdict))

    def forge_null_only(verdict):
        return dataclasses.replace(verdict, kind=NULL_ONLY, log=ProofLog(verdict.log.steps, NULL_ONLY))

    def forge_hom(found):
        fake = HomCandidate.scaled_identity(5, Fraction(1, 2))
        return dataclasses.replace(found, kind=VERIFIED_HOM, exact=fake)

    def tampering(target, tamper):
        def call(layer, name, fn, *args):
            result = fn(*args)
            return tamper(result) if tamper and name == target else result
        return call

    cases = [
        ("certify-twins", "cmn:2,2", "prove_null_only", drop_last_close, "last branch-close dropped"),
        ("certify-chains", "star:4", "prove_null_only", forge_null_only, "forged null-only verdict"),
        ("search", "bull", "find_homomorphism", forge_hom, "forged verified-hom"),
    ]
    ok = True
    for workload, desc, target, tamper, what in cases:
        for forged in (None, tamper):
            out = run_instance(workload, desc, tampering(target, forged), 0, clock)
            passed = bool(out.failures) == (forged is not None)
            ok &= passed
            label = what if forged else "untouched"
            print(f"[{'PASS' if passed else 'FAIL'}] {workload} {desc} {label}: {out.failures or 'no failure'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + NAMES)
    ap.add_argument("--seed", type=int, default=0, help="feeds SearchConfig.seed only")
    ap.add_argument("--seconds", type=int, default=40, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    import_checkout()
    if args.self_test:
        return self_test()
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {w: run(w, args.seed, args.seconds, args.trace) for w in NAMES}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
