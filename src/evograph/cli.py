"""Command-line front end.

Commands:
  analyze  full report for one graph (classification, deduction, search)
  derive   dump the homomorphism constraint system as JSON
  prove    run the deduction engine and dump the proof log
  search   numeric search for a nonzero homomorphism
  paper    run the acceptance corpus and print pass/fail per instance
  sweep    analyze a family range, one row per instance (CSV/JSON)
  gen      write an edge-list file for a family

Exit codes: 0 ok; 1 internal soundness tripwire (analyze, sweep) or a
failed paper check; 2 input error; 3 budget exhausted where a
certification was required; 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .algebra import build_rw_algebra
from .deduce import Budget, prove_null_only
from .graphs import (
    Graph,
    GraphError,
    GraphParseError,
    adjacency_matrix,
    classify_regularity,
    format_edge_list,
    generate_family,
    is_singular,
    parse_edge_list,
    twin_partition,
)
from .homsystem import derive_constraints, is_isomorphism
from .prooflog import NULL_ONLY, dump_log, dump_system, replay_proof
from .search import (
    NONE_FOUND,
    VERIFIED_HOM,
    SearchConfig,
    closed_form_iso,
    find_homomorphism,
)

PREDICT_ISO = "isomorphic"
PREDICT_NULL = "null-only"
PREDICT_CONJECTURE = "conjectured-null-only"
PREDICT_NO_ALGEBRA = "no-random-walk-algebra"


class SoundnessTripwire(RuntimeError):
    """A structural prediction contradicted a certified verdict."""


@dataclass
class AnalysisReport:
    instance: str
    n: int
    degrees: list[int]
    singular: bool
    determinant: str
    regularity: dict
    twin_classes: list[list[int]]
    prediction: str
    prediction_basis: str
    verdict: str | None = None
    open_branches: int = 0
    proof_log_path: str | None = None
    closed_form: bool = False
    numeric: dict | None = None

    def to_json(self) -> str:
        doc = asdict(self)
        if self.numeric:
            doc["numeric"]["best_residual"] = _json_residual(self.numeric["best_residual"])
        return json.dumps(doc, indent=2, allow_nan=False)


def _json_residual(x: float) -> float | None:
    """A best residual as strict JSON holds it: null when there is none
    (every restart ended in the null map) or it was not computed (--fast)."""
    return x if math.isfinite(x) else None


def _no_algebra(reg) -> bool:
    """One vertex: P = D^-1 A is undefined, so there is no random-walk algebra."""
    return reg.is_regular and reg.k == 0


def _predict(singular: bool, reg) -> tuple[str, str]:
    if _no_algebra(reg):
        return PREDICT_NO_ALGEBRA, "degree-0"
    if reg.is_regular or reg.is_biregular:
        return PREDICT_ISO, "constructive" if singular else "regularity-criterion"
    if not singular:
        return PREDICT_NULL, "regularity-criterion"
    return PREDICT_CONJECTURE, "conjecture"


def load_graph(spec: str) -> Graph:
    """A path to an edge-list file, or a family descriptor string."""
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_edge_list(fh.read())
    return generate_family(spec)


def analyze_graph(
    g: Graph,
    instance: str,
    run_numeric: bool = True,
    budget: Budget = Budget(),
    cfg: SearchConfig = SearchConfig(),
    log_out: str | None = None,
) -> AnalysisReport:
    sing = is_singular(g)
    reg = classify_regularity(g)
    twins = twin_partition(g)
    prediction, basis = _predict(sing.singular, reg)
    report = AnalysisReport(
        instance=instance,
        n=g.n,
        degrees=sorted(g.degree(v) for v in g.vertices()),
        singular=sing.singular,
        determinant=str(sing.determinant),
        regularity={
            "kind": reg.kind,
            "k": reg.k,
            "k1": reg.k1,
            "k2": reg.k2,
            "part1": list(reg.part1),
            "part2": list(reg.part2),
        },
        twin_classes=[list(c) for c in twins.classes],
        prediction=prediction,
        prediction_basis=basis,
    )
    if prediction == PREDICT_NO_ALGEBRA:
        report.verdict = PREDICT_NO_ALGEBRA
        return report
    report.closed_form = closed_form_iso(g) is not None
    verdict = prove_null_only(g, budget)
    report.verdict = verdict.kind
    report.open_branches = verdict.open_branches
    if prediction == PREDICT_ISO and verdict.kind == NULL_ONLY:
        raise SoundnessTripwire(
            f"{instance}: predicted isomorphic but certified null-only"
        )
    if verdict.kind == NULL_ONLY and log_out:
        with open(log_out, "w") as fh:
            fh.write(dump_log(verdict.log, verdict.system))
        report.proof_log_path = log_out
    if run_numeric:
        out = find_homomorphism(g, cfg)
        report.numeric = {
            "outcome": out.kind,
            "best_residual": out.best_residual,
            "isomorphism": out.isomorphism,
            "restart": out.restart_index,
        }
    return report


def _print_report(report: AnalysisReport):
    reg = report.regularity
    regtxt = {
        "regular": f"regular of degree {reg['k']}",
        "biregular": f"({reg['k1']},{reg['k2']})-biregular",
        "neither": "neither regular nor biregular",
    }[reg["kind"]]
    print(f"graph {report.instance}: {report.n} vertices, degrees {report.degrees}")
    print(
        f"  adjacency determinant {report.determinant} -> "
        f"{'singular' if report.singular else 'non-singular'}; {regtxt}"
    )
    nontrivial = [c for c in report.twin_classes if len(c) > 1]
    if nontrivial:
        print(f"  twin classes: {nontrivial}")
    else:
        print("  twin-free")
    print(f"  prediction: {report.prediction} ({report.prediction_basis})")
    if report.closed_form:
        print("  closed-form isomorphism available")
    extra = f", open branches {report.open_branches}" if report.open_branches else ""
    print(f"  deduction verdict: {report.verdict}{extra}")
    if report.proof_log_path:
        print(f"  proof log: {report.proof_log_path}")
    if report.numeric:
        num = report.numeric
        print(
            f"  numeric search: {num['outcome']}"
            f" (best residual {num['best_residual']:.3g})"
        )


# -- commands -------------------------------------------------------------------


def cmd_analyze(args) -> int:
    g = load_graph(args.graph)
    report = analyze_graph(
        g,
        args.graph,
        run_numeric=not args.fast,
        budget=Budget(max_depth=args.depth),
        cfg=SearchConfig(restarts=args.restarts, seed=args.seed),
        log_out=args.log_out,
    )
    if args.json:
        print(report.to_json())
    else:
        _print_report(report)
    return 0


def cmd_derive(args) -> int:
    g = load_graph(args.graph)
    print(dump_system(derive_constraints(g)))
    return 0


def _report_no_algebra(args, key: str) -> int:
    """Answer prove or search on a graph with no random-walk algebra; no log."""
    if args.json:
        print(json.dumps({key: PREDICT_NO_ALGEBRA, "reason": "degree-0"}, allow_nan=False))
    else:
        print(f"{key}: {PREDICT_NO_ALGEBRA}")
        print("reason: degree-0")
    return 0


def _step_counts(log) -> tuple[int, int]:
    """Steps the log keeps, and steps the engine derived: a null-only log
    keeps its premise cone, which ends with the proof's last branch-close."""
    return len(log.steps), log.steps[-1].sid + 1 if log.steps else 0


def cmd_prove(args) -> int:
    g = load_graph(args.graph)
    if _no_algebra(classify_regularity(g)):
        return _report_no_algebra(args, "verdict")
    verdict = prove_null_only(g, Budget(max_depth=args.depth))
    if args.log_out or args.json:
        payload = dump_log(verdict.log, verdict.system)
    if args.log_out:
        with open(args.log_out, "w") as fh:
            fh.write(payload)
    if args.json:
        print(payload if not args.log_out else json.dumps({"verdict": verdict.kind}, allow_nan=False))
    else:
        print(f"verdict: {verdict.kind}")
        if verdict.reason:
            print(f"reason: {verdict.reason}")
        kept, derived = _step_counts(verdict.log)
        print(f"proof log steps: {kept} (of {derived} derived)")
    if verdict.kind != NULL_ONLY and verdict.reason == "budget-exhausted":
        return 3
    return 0


def cmd_search(args) -> int:
    g = load_graph(args.graph)
    if _no_algebra(classify_regularity(g)):
        return _report_no_algebra(args, "outcome")
    out = find_homomorphism(g, SearchConfig(restarts=args.restarts, seed=args.seed))
    payload = {
        "outcome": out.kind,
        "best_residual": _json_residual(out.best_residual),
        "restart": out.restart_index,
        "isomorphism": out.isomorphism,
        "stats": asdict(out.stats),
    }
    if out.T is not None:
        payload["entries"] = [[float(x) for x in row] for row in out.T.entries]
    if out.exact is not None:
        payload["exact"] = [[str(x) for x in row] for row in out.exact.entries]
    if args.json:
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(f"outcome: {out.kind} (best residual {out.best_residual:.3g})")
        if out.exact is not None:
            for row in out.exact.entries:
                print("   ", [str(x) for x in row])
    return 0


def cmd_gen(args) -> int:
    g = generate_family(args.family)
    text = format_edge_list(g, comment=args.family)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- the paper corpus -----------------------------------------------------------

NULL_ONLY_INSTANCES = [
    "cmn:2,2",
    "cmn:2,3",
    "cmn:3,2",
    "cmn:3,3",
    "caterpillar:1,2,2",
    "caterpillar:1,2,2,2",
    "tadpole:4,1",
    "tadpole:4,3",
    "bull",
]

ISO_INSTANCES = ["cycle:3", "cycle:4", "cycle:5", "cycle:6", "star:3", "star:4", "complete_bipartite:2,3"]

NO_FALSE_CERT_INSTANCES = ["cycle:3", "cycle:4", "cycle:5", "complete_bipartite:2,3", "star:4", "path:2"]

NUMERIC_NULL_INSTANCES = ["bull", "cmn:2,2", "tadpole:4,1"]


def cmd_paper(args) -> int:
    """Reproduce the worked examples; one pass/fail line per instance."""
    ok = True

    def check(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))

    t41 = generate_family("tadpole:4,1")
    fig = [[0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 0, 1, 0, 1], [0, 0, 0, 1, 0]]
    check("tadpole(4,1) adjacency matrix", adjacency_matrix(t41) == [[Fraction(x) for x in r] for r in fig])
    rw = build_rw_algebra(t41)
    check(
        "tadpole(4,1) random-walk rows",
        rw.row(1) == (0, Fraction(1, 2), 0, Fraction(1, 2), 0)
        and rw.row(4) == (Fraction(1, 3), 0, Fraction(1, 3), 0, Fraction(1, 3))
        and rw.row(5) == (0, 0, 0, 1, 0),
    )

    for inst in ISO_INSTANCES:
        g = generate_family(inst)
        cand = closed_form_iso(g)
        check(f"closed-form isomorphism {inst}", cand is not None and is_isomorphism(g, cand))

    budget = Budget(max_depth=args.depth)
    for inst in NULL_ONLY_INSTANCES:
        g = generate_family(inst)
        t0 = time.time()
        verdict = prove_null_only(g, budget)
        rep = replay_proof(verdict.system, verdict.log)
        kept, derived = _step_counts(verdict.log)
        check(
            f"null-only certification {inst}",
            verdict.kind == NULL_ONLY and bool(rep),
            f"{kept} steps of {derived} derived, {time.time() - t0:.2f}s",
        )

    for inst in NO_FALSE_CERT_INSTANCES:
        g = generate_family(inst)
        verdict = prove_null_only(g, budget)
        check(f"no false certification {inst}", verdict.kind != NULL_ONLY, verdict.kind)

    if not args.fast:
        cfg = SearchConfig(restarts=args.restarts, seed=args.seed)
        for inst in NUMERIC_NULL_INSTANCES:
            out = find_homomorphism(generate_family(inst), cfg)
            check(
                f"numeric corroboration {inst}",
                out.kind == NONE_FOUND,
                f"best residual {out.best_residual:.3g}",
            )
        out = find_homomorphism(generate_family("cycle:4"), cfg)
        check("numeric isomorphism cycle:4", out.kind == VERIFIED_HOM and out.isomorphism)

    print("all instances pass" if ok else "FAILURES present")
    return 0 if ok else 1


# -- sweeps ----------------------------------------------------------------------


class InvalidRange(ValueError):
    pass


def parse_sweep(spec: str) -> list[str]:
    """Expand e.g. ``tadpole:4,m for m in 1,3,5`` or ``cmn:a,b for a,b in 2..4``."""
    if " for " not in spec:
        return [spec.strip()] if spec.strip() else []
    template, _, rangepart = spec.partition(" for ")
    template = template.strip()
    m = rangepart.strip().partition(" in ")
    names, _, values = m
    if not values:
        raise InvalidRange(f"missing 'in' clause in {spec!r}")
    varnames = [v.strip() for v in names.split(",") if v.strip()]
    if not varnames:
        raise InvalidRange(f"no sweep variables in {spec!r}")
    values = values.strip()
    if ".." in values:
        lo, _, hi = values.partition("..")
        try:
            seq = list(range(int(lo), int(hi) + 1))
        except ValueError as exc:
            raise InvalidRange(f"bad range {values!r}") from exc
    else:
        try:
            seq = [int(tok) for tok in values.split(",") if tok.strip()]
        except ValueError as exc:
            raise InvalidRange(f"bad value list {values!r}") from exc
    if not seq:
        return []
    out = []
    combos = [[]]
    for _ in varnames:
        combos = [c + [v] for c in combos for v in seq]
    name, _, argstr = template.partition(":")
    for combo in combos:
        env = dict(zip(varnames, combo))
        args = [str(env.get(tok.strip(), tok.strip())) for tok in argstr.split(",")] if argstr else []
        out.append(name + (":" + ",".join(args) if args else ""))
    return out


def _sweep_row(inst: str, budget: Budget, cfg: SearchConfig, run_numeric: bool) -> dict:
    t0 = time.time()
    report = analyze_graph(
        generate_family(inst), inst, run_numeric=run_numeric, budget=budget, cfg=cfg
    )
    numeric = report.numeric or {"outcome": "skipped", "best_residual": float("nan")}
    return {
        "instance": inst,
        "n": report.n,
        "singular": report.singular,
        "regularity": report.regularity["kind"],
        "verdict": report.verdict,
        "numeric": numeric["outcome"],
        "best_residual": numeric["best_residual"],
        "runtime": round(time.time() - t0, 3),
    }


def cmd_sweep(args) -> int:
    instances = parse_sweep(args.range)
    budget = Budget(max_depth=args.depth)
    cfg = SearchConfig(restarts=args.restarts, seed=args.seed)
    rows = [_sweep_row(inst, budget, cfg, not args.fast) for inst in instances]
    if args.json:
        rows = [{**row, "best_residual": _json_residual(row["best_residual"])} for row in rows]
        print(json.dumps(rows, indent=2, allow_nan=False))
    else:
        cols = ["instance", "n", "singular", "regularity", "verdict", "numeric", "best_residual", "runtime"]
        writer = csv.writer(sys.stdout)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([row[c] for c in cols])
    return 0


# -- entry point -------------------------------------------------------------------


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than lo."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


_FLAGS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--seed": dict(type=_int_at_least(0), default=0),
    "--restarts": dict(type=_int_at_least(1), default=200),
    "--fast": dict(action="store_true", help="skip numeric search"),
    "--depth": dict(
        type=_int_at_least(0), default=Budget().max_depth, help="case-split depth budget"
    ),
}


def _add_flags(p, *names):
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="evograph",
        description="Evolution algebras of a graph: certify or search for homomorphisms",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one graph")
    p.add_argument("graph", help="edge-list file or family descriptor, e.g. tadpole:4,1")
    p.add_argument("--log-out", help="write the proof log here when certified")
    _add_flags(p, "--json", "--seed", "--restarts", "--fast", "--depth")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("derive", help="dump the constraint system as JSON")
    p.add_argument("graph")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("prove", help="run the deduction engine")
    p.add_argument("graph")
    p.add_argument("--log-out", help="write the proof log to this path")
    _add_flags(p, "--json", "--depth")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("search", help="numeric homomorphism search")
    p.add_argument("graph")
    _add_flags(p, "--json", "--seed", "--restarts")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("paper", help="run the acceptance corpus")
    _add_flags(p, "--seed", "--restarts", "--fast", "--depth")
    p.set_defaults(func=cmd_paper)

    p = sub.add_parser("sweep", help="verdict table over a family range")
    p.add_argument("range", help='e.g. "tadpole:4,m for m in 1,3,5"')
    _add_flags(p, "--json", "--seed", "--restarts", "--fast", "--depth")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="write an edge-list file for a family")
    p.add_argument("family")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except BrokenPipeError:  # `| head`: not an input error, and no message
        # stdout goes to devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (GraphParseError, GraphError, InvalidRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SoundnessTripwire as exc:
        print(f"internal soundness error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
