"""Replayable proof logs for the deduction engine.

A proof log is an ordered list of steps.  Each step names a rule,
points at its premises (original constraints or earlier steps), records
the branch context (the stack of case-split assumptions in force), and
states one conclusion: a fact, a derived constraint row, a branch
marker, or a contradiction.

The replayer re-validates every step from scratch using only the rule
named, the referenced premises and the graph, sharing no state with the
engine that produced the log.  Everything it accepts is declared once,
in ``CHECKS``: a step's rule and mode (the payload's "op" for
``substitute``, its "mode" otherwise, ``None`` when absent) select the
conclusion kinds the step may state and the check that validates it,
and a pair not in the table is rejected.  The two premise-free leaf
rules are checked against tables of admissible conclusions computed once
from the graph.  A step's premises must be exactly the refs its check
uses (as a set: a ref may repeat).  A ``substitute`` step's row is fully
determined by its premises and payload, so it is never stated: its
conclusion is ``derived``, and the replayer takes the row its check
computes as the step's conclusion.  A log that states such a row, as
the logs of earlier versions do, is rejected at its first ``substitute``
step.  Their ``leaf-mutex`` steps, whose pairs the product constraints
state as one-monomial rows, no longer load.  A stated cube root is
checked by cubing it and testing its bases for primality: the replayer
takes no roots and factors nothing.
The replayer finally checks that the case-split tree is exhaustive (each
split has both a "= 0" and a "!= 0" child) and that the claimed verdict
follows.

Every log the engine returns, whatever its verdict, holds exactly its
premise cone: every ``branch-open`` and ``branch-close`` step, and each
step reachable backwards from them through premises.  An open leaf's
``branch-open`` steps stay, so its literals are in the log.  The engine
trims each case-tree node's steps as its subtree finishes; kept steps
keep their ids and order, so ids may skip.  The replayer keys steps by id
and needs nothing else.

The JSON document is declared once.  ``CONCLUSIONS`` lists each
conclusion kind's fields in order, and ``_fields`` gives one (write,
read) pair for each field not stored as it is held: variables by name,
rows as terms, exact scalars and coefficients as text, refs as lists.
Payload keys of the same name use the same pairs.  ``dump_log``,
``load_log`` and ``dump_system`` (the document ``evograph derive``
prints) all go through that one declaration, so a log reloads equal to
the log the engine returned.

``dump_log`` writes a log as one line of compact JSON.  ``load_log``
reads any JSON encoding of the same document, so the indented logs that
earlier versions wrote still load.  It raises ``ValueError`` on any
malformed input and on a log recorded for another graph.  Coefficients
are written and read as exact decimal text of any length.  A value's
scalar is read only in the text ``str(Radical)`` writes, and built as
written: nothing is factored while a log loads.  Both, and
``replay_proof``, run with the cyclic garbage collector paused:
everything they build is acyclic, and the collector's repeated passes
over millions of fresh containers would cost more than the work itself.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple
from fractions import Fraction

from . import poly
from .homsystem import HomSystem
from .radicals import _MR_EXACT, Radical, RadicalSum, _is_prime, fraction_str, parse_fraction

Ref = tuple[str, int]  # ("c", constraint index) or ("s", step id)
Literal = tuple[int, bool]  # (var, assumed_nonzero)

NULL_ONLY = "null-only"
UNKNOWN = "unknown"
FOUND_STRUCTURE = "found-structure"


@dataclass(frozen=True)
class Step:
    sid: int
    rule: str
    branch: tuple[Literal, ...]
    premises: tuple[Ref, ...]
    conclusion: tuple  # (kind, *fields), as CONCLUSIONS declares
    payload: dict = field(default_factory=dict)


@dataclass
class ProofLog:
    steps: list[Step] = field(default_factory=list)
    verdict: str = UNKNOWN


class InvalidStep(Exception):
    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass
class ReplayResult:
    ok: bool
    failure: InvalidStep | None = None

    def __bool__(self) -> bool:
        return self.ok


# -- the document --------------------------------------------------------------

# Each conclusion kind and its fields, in order: the conclusion
# (kind, x, y) is the object {"kind": kind, fields[0]: x, fields[1]: y}.
CONCLUSIONS = {
    "zero": ("var",),
    "value": ("var", "scalar"),
    "row": ("terms",),
    "assume": ("var", "sign"),
    "closed": ("how",),
    "contradiction": (),
    "null-map": (),
    "derived": (),
}
_SIGNS = {"zero": False, "nonzero": True}


def _fields(sys: HomSystem) -> dict[str, tuple]:
    """(write, read) for each field not stored as it is held: conclusion
    fields, and payload keys of the same name.  A variable is named as the
    system names it, t_i_k with i, k in 1..n."""
    names = [sys.var_name(v) for v in range(sys.num_vars)]
    name, var = names.__getitem__, {nm: v for v, nm in enumerate(names)}.__getitem__

    def write_terms(p: poly.Poly) -> list:
        return [
            {"coeff": fraction_str(c), "monomial": [name(v) for v in m]}
            for m, c in sorted(p.items(), key=lambda kv: poly.mono_key(kv[0]))
        ]

    def read_terms(terms: list) -> poly.Poly:
        return poly.poly_from_terms(
            (parse_fraction(t["coeff"]), tuple(var(x) for x in t["monomial"])) for t in terms
        )

    ref = (list, tuple)
    return {
        "var": (name, var),
        "scalar": (str, Radical.parse),
        "terms": (write_terms, read_terms),
        "sign": (lambda nz: "nonzero" if nz else "zero", _SIGNS.__getitem__),
        "parts": (
            lambda parts: [[list(r), fraction_str(lam)] for r, lam in parts],
            lambda parts: [(tuple(r), parse_fraction(lam)) for r, lam in parts],
        ),
        "src": ref,
        "def": ref,
    }


def _table_key(step: Step) -> tuple:
    """The step's key in CHECKS: its rule, and the payload's "op" for
    ``substitute``, its "mode" otherwise, ``None`` when absent."""
    return step.rule, step.payload.get("op" if step.rule == "substitute" else "mode")


def _codec(sys: HomSystem, side: int) -> tuple[dict, dict]:
    """The writers (side 0) or readers (side 1): by field, and as
    (field, function) pairs by conclusion kind."""
    by_field = {f: pair[side] for f, pair in _fields(sys).items()}
    by_kind = {
        kind: tuple((f, by_field.get(f, _as_is)) for f in fields)
        for kind, fields in CONCLUSIONS.items()
    }
    return by_field, by_kind


def _as_is(x):
    return x


@contextmanager
def _gc_paused():
    """Pause the cyclic collector.  Used as a decorator, so the function's
    temporaries are freed before the collector resumes and its first pass
    scans only what the function returns."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_gc_paused()
def dump_log(log: ProofLog, sys: HomSystem) -> str:
    write, by_kind = _codec(sys, 0)
    var, sign = write["var"], write["sign"]

    def conclusion(c: tuple) -> dict:
        out = {"kind": c[0]}
        for (f, w), x in zip(by_kind[c[0]], c[1:]):
            out[f] = w(x)
        return out

    document = {
        "n": sys.n,
        "edges": sys.graph.edges(),
        "verdict": log.verdict,
        "steps": [
            {
                "id": s.sid,
                "rule": s.rule,
                "branch": [[var(v), sign(nz)] for v, nz in s.branch],
                "premises": [list(r) for r in s.premises],
                "conclusion": conclusion(s.conclusion),
                "payload": {k: write[k](x) if k in write else x for k, x in s.payload.items()},
            }
            for s in log.steps
        ],
    }
    return json.dumps(document, separators=(",", ":"))


@_gc_paused()
def load_log(text: str, sys: HomSystem) -> ProofLog:
    read, by_kind = _codec(sys, 1)
    var, sign = read["var"], read["sign"]

    def conclusion(d: dict) -> tuple:
        return (d["kind"], *(r(d[f]) for f, r in by_kind[d["kind"]]))

    try:
        data = json.loads(text)
        steps = [
            Step(
                sid=d["id"],
                rule=d["rule"],
                branch=tuple((var(v), sign(s)) for v, s in d["branch"]),
                premises=tuple(tuple(r) for r in d["premises"]),
                conclusion=conclusion(d["conclusion"]),
                payload={
                    k: read[k](x) if k in read else x for k, x in d.get("payload", {}).items()
                },
            )
            for d in data["steps"]
        ]
        graph = (data["n"], data["edges"])
        log = ProofLog(steps=steps, verdict=data["verdict"])
    except (AttributeError, IndexError, KeyError, RecursionError, TypeError) as exc:
        raise ValueError(f"malformed proof log: {exc!r}") from exc
    if graph != (sys.n, [list(e) for e in sys.graph.edges()]):
        raise ValueError("the proof log was recorded for another graph")
    return log


def dump_system(sys: HomSystem) -> str:
    """The constraint system as JSON: variable names, and each constraint's
    tag and terms, written as a log writes a row."""
    write = _codec(sys, 0)[0]
    document = {
        "n": sys.n,
        "variables": [write["var"](v) for v in range(sys.num_vars)],
        "constraints": [{"tag": c.tag, "terms": write["terms"](c.p)} for c in sys.constraints],
    }
    return json.dumps(document, indent=2)


# -- replay -------------------------------------------------------------------

@_gc_paused()
def replay_proof(sys: HomSystem, log: ProofLog) -> ReplayResult:
    """Independently re-validate every step and the final verdict.

    The cyclic garbage collector is paused while it runs, as it is while
    a log is dumped or loaded.
    """
    try:
        _Replayer(sys, log).run()
    except InvalidStep as exc:
        return ReplayResult(False, exc)
    return ReplayResult(True)


def _is_zero(c: tuple) -> bool:
    """A zero fact or a "= 0" assumption."""
    return c[0] == "zero" or (c[0] == "assume" and c[2] is False)


def _leaf_axioms(sys: HomSystem) -> dict[str, set[tuple]]:
    """Admissible conclusions of the premise-free leaf rules, by rule.

    A row is keyed by the frozenset of its items, so each conclusion is one
    membership test.
    """
    g, var = sys.graph, sys.var
    anchor = {l: next(iter(g.neighbors(l))) for l in g.leaves()}
    twin_zero: set[tuple] = set()
    cross: set[tuple] = set()
    for l, kl in anchor.items():
        for u, ku in anchor.items():
            if not (l < u and ku == kl):
                continue
            twin_zero |= {("zero", var(i, k)) for i, k in ((l, kl), (u, kl), (kl, l), (kl, u))}
            for w, kw in anchor.items():
                if w in (l, u):
                    continue
                cross |= {("zero", var(i, k)) for i, k in ((u, kw), (l, kw), (kl, w))}
                sq = (var(w, kl), var(w, kl))
                for row in (
                    {(var(kw, l),): 1, (var(kw, u),): -1},
                    {sq: 1, (var(kw, l),): -1},
                    {sq: 1, (var(kw, u),): -1},
                ):
                    cross.add(("row", frozenset(row.items())))
    return {"leaf-twin-zero": twin_zero, "leaf-twin-cross": cross}


class _Derived(NamedTuple):
    branch: tuple[Literal, ...]
    conclusion: tuple  # ("row", the row the replayer computed)


class _Replayer:
    def __init__(self, sys: HomSystem, log: ProofLog):
        self.sys = sys
        self.log = log
        # each validated step by id; a derived step as its branch and the
        # row its check computed
        self.steps: dict[int, Step | _Derived] = {}
        self.axioms = _leaf_axioms(sys)
        # case tree of the validated steps: closed paths, variables split at a path
        self.closes: set[tuple[Literal, ...]] = set()
        self.opens: dict[tuple[Literal, ...], set[int]] = {}
        self.used: set[Ref] = set()  # refs read by the step being checked

    def run(self):
        for step in self.log.steps:
            self.used = set()
            try:
                key = _table_key(step)
                if key not in CHECKS:
                    raise InvalidStep(step.sid, f"unknown rule {key[0]!r} with mode {key[1]!r}")
                kinds, check = CHECKS[key]
                if step.sid in self.steps:
                    raise InvalidStep(step.sid, "duplicate step id")
                if step.conclusion[0] not in kinds:
                    raise InvalidStep(step.sid, f"{step.rule} cannot conclude {step.conclusion[0]!r}")
                row = check(self, step)
                if set(step.premises) != self.used:
                    raise InvalidStep(step.sid, "premises are not the refs the rule uses")
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise InvalidStep(step.sid, f"malformed step: {exc!r}") from exc
            self.steps[step.sid] = step if row is None else _Derived(step.branch, ("row", row))
        if self.log.verdict == NULL_ONLY and not self._closed(()):
            raise InvalidStep(-1, "verdict null-only but the case tree is not closed")

    # premises ----------------------------------------------------------------

    def fail(self, step: Step, reason: str):
        raise InvalidStep(step.sid, reason)

    def premise(self, ref: Ref, step: Step) -> tuple:
        """The conclusion ref establishes for step; constraint i reads as ("row", p)."""
        self.used.add(ref)
        if ref[0] == "c":
            if not (0 <= ref[1] < len(self.sys.constraints)):
                self.fail(step, f"constraint index {ref[1]} out of range")
            return ("row", self.sys.constraints[ref[1]].p)
        if ref[0] != "s" or ref[1] not in self.steps:
            self.fail(step, f"premise {ref} is not an earlier step")
        prem = self.steps[ref[1]]
        if prem.branch != step.branch[: len(prem.branch)]:
            self.fail(step, f"premise {ref} comes from a different branch")
        return prem.conclusion

    def row_of(self, ref: Ref, step: Step) -> poly.Poly:
        concl = self.premise(ref, step)
        if concl[0] != "row":
            self.fail(step, f"premise {ref} is not a constraint row")
        return concl[1]

    def _replacement(self, ref: Ref, v: int, step: Step) -> poly.Poly:
        """Affine replacement for v from a zero fact, rational value or affine row."""
        concl = self.premise(ref, step)
        if concl[0] == "value":
            _, vv, rad = concl
            if vv != v or not rad.is_rational:
                self.fail(step, "value fact unusable as affine replacement")
            return {poly.CONST: rad.as_rational()} if rad.coeff else {}
        if concl[0] == "row":
            row = concl[1]
            if any(len(m) > 1 for m in row) or (v,) not in row:
                self.fail(step, "definition row is not affine in the variable")
            return {m: poly.neg_quotient(c, row[(v,)]) for m, c in row.items() if m != (v,)}
        if not (_is_zero(concl) and concl[1] == v):
            self.fail(step, "premise does not set the variable to zero")
        return {}

    def _check_evidence(self, x: int, chain: tuple[Ref, ...], step: Step):
        """Premise chain establishing x != 0."""
        for ref in chain:
            concl = self.premise(ref, step)
            if concl[0] == "assume":
                _, v, nz = concl
                if v == x and nz and (x, True) in step.branch:
                    return
                self.fail(step, "assumption does not establish the variable nonzero")
            if concl[0] == "value":
                _, v, rad = concl
                if v == x and not rad.is_zero:
                    return
                self.fail(step, "value does not establish the variable nonzero")
            if concl[0] != "row":
                self.fail(step, f"premise {ref} is no nonzero evidence")
            row = concl[1]
            shape = _two_monomial_shape(row)
            if shape is None:
                # positive square: c*x^2 + d with -d/c > 0
                if set(row) == {(x, x), poly.CONST} and -row[poly.CONST] / row[(x, x)] > 0:
                    return
                self.fail(step, "row is no nonzero evidence")
            a, b = shape
            if x not in (a, b):
                self.fail(step, "evidence row does not mention the variable")
            x = b if a == x else a
        self.fail(step, "nonzero-evidence chain ends without evidence")

    def _mutex_pair_ok(self, ref: Ref, x: int, y: int, step: Step) -> None:
        """ref must witness that at most one of x, y is nonzero: a row that
        is the one monomial x*y."""
        concl = self.premise(ref, step)
        if concl[0] == "row" and len(concl[1]) == 1:
            mono = next(iter(concl[1]))
            if len(mono) == 2 and set(mono) == {x, y}:
                return
        self.fail(step, "premise is not a mutex witness for the pair")

    def _values_from(self, refs, step: Step) -> dict[int, Radical]:
        vals: dict[int, Radical] = {}
        for ref in refs:
            concl = self.premise(ref, step)
            if concl[0] == "value":
                vals[concl[1]] = concl[2]
            elif _is_zero(concl):
                vals[concl[1]] = Radical.from_rational(0)
            else:
                self.fail(step, f"premise {ref} is not a value or zero fact")
        return vals

    def _eval_with(self, row: poly.Poly, vals: dict[int, Radical]):
        """Split row into (remaining poly, evaluated RadicalSum constant)."""
        rest: poly.Poly = {}
        const = RadicalSum()
        for m, c in row.items():
            if all(v in vals for v in m):
                term = RadicalSum.from_rational(c)
                for v in m:
                    term = term * RadicalSum.from_radical(vals[v])
                const = const + term
            else:
                rest[m] = c
        return rest, const

    # the checks CHECKS names: a substitute check returns the row its step
    # concludes, every other check None -------------------------------------------

    def _axiom(self, step: Step):
        kind, arg = step.conclusion[0], step.conclusion[1]
        if kind == "row":
            arg = frozenset(arg.items())
        if (kind, arg) not in self.axioms[step.rule]:
            self.fail(step, f"{kind} conclusion is not a {step.rule} axiom of the graph")

    def _lincomb(self, step: Step):
        acc: poly.Poly = {}
        for ref, lam in step.payload["parts"]:
            poly.add_scaled_to(acc, self.row_of(ref, step), lam)
        return acc

    def _subst(self, step: Step):
        src = self.row_of(step.payload["src"], step)
        v = step.payload["var"]
        repl = self._replacement(step.payload["def"], v, step)
        return poly.substitute_var(src, v, repl)

    def _square_sum_zero(self, step: Step):
        v = step.conclusion[1]
        row = self.row_of(step.premises[0], step)
        if not row or not _is_signed_square_sum(row, strict=True):
            self.fail(step, "premise is not a same-sign sum of squares")
        if (v, v) not in row:
            self.fail(step, "variable does not occur squared in the premise")

    def _single_monomial_zero(self, step: Step):
        v = step.conclusion[1]
        row = self.row_of(step.premises[0], step)
        if len(row) != 1:
            self.fail(step, "premise row is not a single monomial")
        mono = next(iter(row))
        if set(mono) != {v}:
            self.fail(step, "monomial is not a power of the variable")

    def _mutex_nonzero(self, step: Step):
        x = step.payload["var"]
        self._mutex_pair_ok(step.premises[0], x, step.conclusion[1], step)
        self._check_evidence(x, step.premises[1:], step)

    def _mutex_pair(self, step: Step):
        y = step.conclusion[1]
        shape = _two_monomial_shape(self.row_of(step.premises[1], step))
        if shape is None or y not in shape:
            self.fail(step, "linking row must have two univariate monomials")
        a, b = shape
        x = b if a == y else a
        self._mutex_pair_ok(step.premises[0], x, y, step)

    def _linear_solve(self, step: Step):
        x = step.conclusion[1]
        rad = step.conclusion[2] if step.conclusion[0] == "value" else Radical.from_rational(0)
        row = self.row_of(step.premises[0], step)
        vals = self._values_from(step.premises[1:], step)
        rest, const = self._eval_with(row, vals)
        if set(rest) == {(x, x)}:
            # c*x^2 plus terms summing to zero forces x = 0
            if const.is_zero and rad.is_zero:
                return
            self.fail(step, "squared variable solvable only when the rest vanishes")
        if set(rest) != {(x,)}:
            self.fail(step, "row does not reduce to a single linear variable")
        if not const.is_single_term():
            self.fail(step, "constant part is not a single radical term")
        want = (-const).as_radical() / Radical.from_rational(rest[(x,)])
        if want != rad:
            self.fail(step, f"solved value mismatch: {want} vs {rad}")

    def _quad_single(self, step: Step):
        _, x, rad = step.conclusion
        row = self.row_of(step.premises[0], step)
        v = step.payload["var"]
        if set(row) != {(v, v), (v,)} or x != v:
            self.fail(step, "row is not a*x^2 + b*x for the variable")
        want = Radical.from_rational(-row[(v,)] / row[(v, v)])
        self._check_evidence(v, step.premises[1:], step)
        if want != rad:
            self.fail(step, f"solved value mismatch: {want} vs {rad}")

    def _quad_pair(self, step: Step):
        _, x, rad = step.conclusion
        s1 = _square_link_shape(self.row_of(step.premises[0], step))
        s2 = _square_link_shape(self.row_of(step.premises[1], step))
        a = step.payload["var"]  # the variable squared in the first row
        if s1 is None or s2 is None:
            self.fail(step, "rows are not of the form a*x^2 + b*y")
        (xa, ya, kappa) = s1
        (xb, yb, mu) = s2
        if xa != a or ya != xb or yb != xa:
            self.fail(step, "rows do not form a square cycle x^2=k*y, y^2=m*x")
        if x not in (xa, ya):
            self.fail(step, "conclusion variable is not in the cycle")
        self._check_evidence(step.payload.get("witness", xa), step.premises[2:], step)
        # x^3 = k^2*m (y^3 = k*m^2) has one real root; rad is that root in
        # normal form when it cubes to it and its bases are proven primes
        cube = kappa * kappa * mu if x == xa else kappa * mu * mu
        if any(p >= _MR_EXACT or not _is_prime(p) for p, _ in rad.parts):
            self.fail(step, f"{rad} has a base that is not a prime below {_MR_EXACT}")
        if rad**3 != Radical.from_rational(cube):
            self.fail(step, f"{rad} does not cube to the cycle's product")

    def _negative_square(self, step: Step):
        row = self.row_of(step.premises[0], step)
        vals = self._values_from(step.premises[1:], step)
        rest, const = self._eval_with(row, vals)
        if not rest or not _is_signed_square_sum(rest, strict=False):
            self.fail(step, "row is not a same-sign sum of squares")
        lead = next(iter(rest.values()))
        if const.is_zero or not const.is_single_term():
            self.fail(step, "constant part does not force a sign conflict")
        c = const.as_radical()
        if (c.coeff > 0) != (lead > 0):
            self.fail(step, "constant has the wrong sign for a conflict")

    def _discriminant(self, step: Step):
        row = self.row_of(step.premises[0], step)
        pvars = poly.poly_vars(row)
        if len(pvars) != 1:
            self.fail(step, "discriminant mode needs a univariate row")
        v = next(iter(pvars))
        a = row.get((v, v), Fraction(0))
        b = row.get((v,), Fraction(0))
        c = row.get(poly.CONST, Fraction(0))
        if not a or b * b - 4 * a * c >= 0:
            self.fail(step, "discriminant is not negative")

    def _eval_conflict(self, step: Step):
        row = self.row_of(step.premises[0], step)
        vals = self._values_from(step.premises[1:], step)
        rest, const = self._eval_with(row, vals)
        if rest or const.is_zero:
            self.fail(step, "row does not evaluate to a nonzero constant")

    def _zero_nonzero(self, step: Step):
        z = self.premise(step.premises[0], step)
        if not _is_zero(z):
            self.fail(step, "first premise must be a zero fact")
        self._check_evidence(z[1], step.premises[1:], step)

    def _column_zero(self, step: Step):
        k = step.payload["column"]
        seen = set()
        for ref in step.premises:
            concl = self.premise(ref, step)
            if not _is_zero(concl):
                self.fail(step, "premises must be zero facts")
            i, kk = self.sys.var_pair(concl[1])
            if kk == k:
                seen.add(i)
        if seen != set(self.sys.graph.vertices()):
            self.fail(step, f"column {k} is not entirely zero")

    def _branch_open(self, step: Step):
        _, v, nz = step.conclusion
        if not step.branch or step.branch[-1] != (v, nz):
            self.fail(step, "assumption must extend its own branch context")
        self.opens.setdefault(step.branch[:-1], set()).add(v)

    def _branch_close(self, step: Step):
        how = step.conclusion[1]
        kind = self.premise(step.premises[0], step)[0]
        if (how, kind) not in (("contradiction", "contradiction"), ("null", "null-map")):
            self.fail(step, f"a {kind} premise does not close a branch as {how!r}")
        self.closes.add(step.branch)

    # case tree ---------------------------------------------------------------

    def _closed(self, path: tuple[Literal, ...]) -> bool:
        """Decided bottom-up, deepest splits first, so a deep tree cannot overflow."""
        closed = set(self.closes)
        for split in sorted(self.opens, key=len, reverse=True):
            if any(
                split + ((v, False),) in closed and split + ((v, True),) in closed
                for v in self.opens[split]
            ):
                closed.add(split)
        return path in closed


# Everything the replayer accepts, and nothing else: (rule, mode) ->
# (conclusion kinds the step may state, check).  One entry per pair the
# engine emits.  A "derived" step's check computes its row.
CHECKS = {
    ("leaf-twin-zero", None): ({"zero"}, _Replayer._axiom),
    ("leaf-twin-cross", None): ({"zero", "row"}, _Replayer._axiom),
    ("substitute", "lincomb"): ({"derived"}, _Replayer._lincomb),
    ("substitute", "subst"): ({"derived"}, _Replayer._subst),
    ("square-sum-zero", None): ({"zero"}, _Replayer._square_sum_zero),
    ("single-monomial-zero", None): ({"zero"}, _Replayer._single_monomial_zero),
    ("mutex-elim", "nonzero"): ({"zero"}, _Replayer._mutex_nonzero),
    ("mutex-elim", "pair"): ({"zero"}, _Replayer._mutex_pair),
    ("linear-solve", None): ({"value", "zero"}, _Replayer._linear_solve),
    ("quad-solve-nonzero", "single"): ({"value"}, _Replayer._quad_single),
    ("quad-solve-nonzero", "pair"): ({"value"}, _Replayer._quad_pair),
    ("negative-square", None): ({"contradiction"}, _Replayer._negative_square),
    ("negative-square", "discriminant"): ({"contradiction"}, _Replayer._discriminant),
    ("value-conflict", "eval"): ({"contradiction"}, _Replayer._eval_conflict),
    ("value-conflict", "zero-nonzero"): ({"contradiction"}, _Replayer._zero_nonzero),
    ("column-zero-propagate", None): ({"null-map"}, _Replayer._column_zero),
    ("branch-open", None): ({"assume"}, _Replayer._branch_open),
    ("branch-close", None): ({"closed"}, _Replayer._branch_close),
}
RULES = frozenset(rule for rule, _ in CHECKS)


def _is_signed_square_sum(p: poly.Poly, strict: bool) -> bool:
    """All monomials squares (plus a constant when strict=False), same sign."""
    sign = None
    for m, c in p.items():
        if m == poly.CONST:
            if strict:
                return False
            continue
        if len(m) != 2 or m[0] != m[1]:
            return False
        s = c > 0
        if sign is None:
            sign = s
        elif s != sign:
            return False
    return sign is not None


def _two_monomial_shape(p: poly.Poly) -> tuple[int, int] | None:
    """(x, y) when p has exactly two univariate monomials in distinct vars."""
    if len(p) != 2:
        return None
    out = []
    for m in p:
        s = set(m)
        if len(s) != 1:
            return None
        out.append(s.pop())
    if out[0] == out[1]:
        return None
    return out[0], out[1]


def _square_link_shape(p: poly.Poly):
    """For rows a*x^2 + b*y (y may equal x): (x, y, -b/a) meaning x^2 = (-b/a)*y."""
    if len(p) != 2:
        return None
    sq = [m for m in p if len(m) == 2 and m[0] == m[1]]
    lin = [m for m in p if len(m) == 1]
    if len(sq) != 1 or len(lin) != 1:
        return None
    x = sq[0][0]
    y = lin[0][0]
    return x, y, -p[lin[0]] / p[sq[0]]
