"""Replayable proof logs for the deduction engine.

A proof log is an ordered list of steps.  Each step names a rule from a
fixed vocabulary, points at its premises (original constraints or
earlier steps), records the branch context (the stack of case-split
assumptions in force), and states one conclusion: a fact, a derived
constraint row, a branch marker, or a contradiction.

The replayer re-validates every step from scratch using only the rule
named, the referenced premises and the graph, sharing no state with the
engine that produced the log.  The three premise-free leaf rules are
checked against tables of admissible conclusions computed once from the
graph.  A step's premises must be exactly the refs its check uses (as a
set: a ref may repeat).  The replayer finally checks that the case-split
tree is exhaustive (each split has both a "= 0" and a "!= 0" child) and
that the claimed verdict follows.

``load_log`` raises ``ValueError`` on any malformed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import poly
from .homsystem import HomSystem
from .radicals import Radical, RadicalSum

RULES = frozenset(
    {
        "leaf-mutex",
        "leaf-twin-zero",
        "leaf-twin-cross",
        "substitute",
        "square-sum-zero",
        "single-monomial-zero",
        "mutex-elim",
        "linear-solve",
        "quad-solve-nonzero",
        "negative-square",
        "value-conflict",
        "column-zero-propagate",
        "branch-open",
        "branch-close",
    }
)

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
    conclusion: tuple  # tagged: ("zero", v) | ("value", v, Radical) | ("mutex", vars)
    #         | ("row", Poly) | ("contradiction",) | ("assume", v, bool)
    #         | ("closed", "null"|"contradiction") | ("null-map",)
    payload: dict = field(default_factory=dict)


@dataclass
class ProofLog:
    steps: list[Step] = field(default_factory=list)
    verdict: str = UNKNOWN

    def append(self, step: Step) -> Ref:
        self.steps.append(step)
        return ("s", step.sid)


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


# -- serialization ------------------------------------------------------------

def _poly_to_json(p: poly.Poly, name) -> list:
    return [
        {"coeff": str(c), "monomial": [name(v) for v in m]}
        for m, c in sorted(p.items(), key=lambda kv: poly.mono_key(kv[0]))
    ]


def _poly_from_json(terms: list, var_of) -> poly.Poly:
    return poly.poly_from_terms(
        (Fraction(t["coeff"]), tuple(var_of(x) for x in t["monomial"])) for t in terms
    )


def _conclusion_to_json(c: tuple, name) -> dict:
    kind = c[0]
    if kind == "zero":
        return {"kind": "zero", "var": name(c[1])}
    if kind == "value":
        return {"kind": "value", "var": name(c[1]), "scalar": str(c[2])}
    if kind == "mutex":
        return {"kind": "mutex", "vars": [name(v) for v in c[1]]}
    if kind == "row":
        return {"kind": "row", "terms": _poly_to_json(c[1], name)}
    if kind == "assume":
        return {"kind": "assume", "var": name(c[1]), "sign": "nonzero" if c[2] else "zero"}
    if kind == "closed":
        return {"kind": "closed", "how": c[1]}
    if kind in ("contradiction", "null-map"):
        return {"kind": kind}
    raise ValueError(f"unknown conclusion {c!r}")


def _conclusion_from_json(d: dict, var_of) -> tuple:
    kind = d["kind"]
    if kind == "zero":
        return ("zero", var_of(d["var"]))
    if kind == "value":
        return ("value", var_of(d["var"]), Radical.parse(d["scalar"]))
    if kind == "mutex":
        return ("mutex", tuple(var_of(v) for v in d["vars"]))
    if kind == "row":
        return ("row", _poly_from_json(d["terms"], var_of))
    if kind == "assume":
        return ("assume", var_of(d["var"]), d["sign"] == "nonzero")
    if kind == "closed":
        return ("closed", d["how"])
    if kind in ("contradiction", "null-map"):
        return (kind,)
    raise ValueError(f"unknown conclusion kind {kind!r}")


def dump_log(log: ProofLog, sys: HomSystem) -> str:
    name = sys.var_name
    payload = {
        "n": sys.n,
        "edges": sys.graph.edges(),
        "verdict": log.verdict,
        "steps": [
            {
                "id": s.sid,
                "rule": s.rule,
                "branch": [[name(v), "nonzero" if nz else "zero"] for v, nz in s.branch],
                "premises": [list(r) for r in s.premises],
                "conclusion": _conclusion_to_json(s.conclusion, name),
                "payload": _payload_to_json(s.payload, name),
            }
            for s in log.steps
        ],
    }
    return json.dumps(payload, indent=1)


def _payload_to_json(p: dict, name) -> dict:
    out = {}
    for k, v in p.items():
        if k == "parts":
            out[k] = [[list(ref), str(lam)] for ref, lam in v]
        elif k == "var":
            out[k] = name(v)
        elif k in ("src", "def"):
            out[k] = list(v)
        else:
            out[k] = v
    return out


def _payload_from_json(p: dict, var_of) -> dict:
    out = {}
    for k, v in p.items():
        if k == "parts":
            out[k] = [(tuple(ref), Fraction(lam)) for ref, lam in v]
        elif k == "var":
            out[k] = var_of(v)
        elif k in ("src", "def"):
            out[k] = tuple(v)
        else:
            out[k] = v
    return out


def load_log(text: str, sys: HomSystem) -> ProofLog:
    # a variable is named exactly as the system names it, t_i_k with i, k in 1..n
    names = {sys.var_name(v): v for v in range(sys.num_vars)}

    def var_of(nm: str) -> int:
        return names[nm]

    try:
        data = json.loads(text)
        steps = [
            Step(
                sid=d["id"],
                rule=d["rule"],
                branch=tuple((var_of(v), sign == "nonzero") for v, sign in d["branch"]),
                premises=tuple(tuple(r) for r in d["premises"]),
                conclusion=_conclusion_from_json(d["conclusion"], var_of),
                payload=_payload_from_json(d.get("payload", {}), var_of),
            )
            for d in data["steps"]
        ]
        return ProofLog(steps=steps, verdict=data["verdict"])
    except (
        AttributeError, IndexError, KeyError, RecursionError, TypeError, ZeroDivisionError
    ) as exc:
        raise ValueError(f"malformed proof log: {exc!r}") from exc


# -- replay -------------------------------------------------------------------

def replay_proof(sys: HomSystem, log: ProofLog) -> ReplayResult:
    """Independently re-validate every step and the final verdict."""
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

    A mutex is keyed by its frozenset of variables and a row by the
    frozenset of its items, so each conclusion is one membership test.
    """
    g, var = sys.graph, sys.var
    anchor = {l: next(iter(g.neighbors(l))) for l in g.leaves()}
    mutex = {("mutex", frozenset(var(i, k) for i in g.vertices())) for k in anchor.values()}
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
    return {"leaf-mutex": mutex, "leaf-twin-zero": twin_zero, "leaf-twin-cross": cross}


class _Replayer:
    def __init__(self, sys: HomSystem, log: ProofLog):
        self.sys = sys
        self.log = log
        self.steps: dict[int, Step] = {}
        self.axioms = _leaf_axioms(sys)
        # case tree of the validated steps: closed paths, variables split at a path
        self.closes: set[tuple[Literal, ...]] = set()
        self.opens: dict[tuple[Literal, ...], set[int]] = {}
        self.used: set[Ref] = set()  # refs read by the step being checked

    # helpers ---------------------------------------------------------------

    def fail(self, step: Step, reason: str):
        raise InvalidStep(step.sid, reason)

    def step_of(self, ref: Ref, step: Step) -> Step:
        self.used.add(ref)
        if ref[0] != "s" or ref[1] not in self.steps:
            self.fail(step, f"premise {ref} is not an earlier step")
        prem = self.steps[ref[1]]
        if prem.branch != step.branch[: len(prem.branch)]:
            self.fail(step, f"premise {ref} comes from a different branch")
        return prem

    def row_of(self, ref: Ref, step: Step) -> poly.Poly:
        if ref[0] == "c":
            self.used.add(ref)
            if not (0 <= ref[1] < len(self.sys.constraints)):
                self.fail(step, f"constraint index {ref[1]} out of range")
            return self.sys.constraints[ref[1]].p
        prem = self.step_of(ref, step)
        if prem.conclusion[0] != "row":
            self.fail(step, f"premise {ref} is not a constraint row")
        return prem.conclusion[1]

    def fact_of(self, ref: Ref, step: Step) -> tuple:
        return self.step_of(ref, step).conclusion

    # per-rule validation -----------------------------------------------------

    def run(self):
        for step in self.log.steps:
            self.used = set()
            try:
                if step.rule not in RULES:
                    raise InvalidStep(step.sid, f"unknown rule {step.rule!r}")
                if step.sid in self.steps:
                    raise InvalidStep(step.sid, "duplicate step id")
                getattr(self, "_v_" + step.rule.replace("-", "_"))(step)
                if set(step.premises) != self.used:
                    raise InvalidStep(step.sid, "premises are not the refs the rule uses")
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise InvalidStep(step.sid, f"malformed step: {exc!r}") from exc
            self.steps[step.sid] = step
        if self.log.verdict == NULL_ONLY and not self._closed(()):
            raise InvalidStep(-1, "verdict null-only but the case tree is not closed")

    def _v_axiom(self, step: Step):
        kind, arg = step.conclusion[0], step.conclusion[1]
        if kind == "mutex":
            arg = frozenset(arg)
        elif kind == "row":
            arg = frozenset(arg.items())
        if (kind, arg) not in self.axioms[step.rule]:
            self.fail(step, f"{kind} conclusion is not a {step.rule} axiom of the graph")

    _v_leaf_mutex = _v_leaf_twin_zero = _v_leaf_twin_cross = _v_axiom

    def _v_substitute(self, step: Step):
        if step.conclusion[0] != "row":
            self.fail(step, "substitute must conclude a row")
        target = step.conclusion[1]
        op = step.payload.get("op")
        if op == "lincomb":
            acc: poly.Poly = {}
            for ref, lam in step.payload["parts"]:
                acc = poly.add_scaled(acc, self.row_of(ref, step), lam)
            if acc != target:
                self.fail(step, "linear combination does not reproduce the row")
        elif op == "subst":
            src = self.row_of(step.payload["src"], step)
            v = step.payload["var"]
            repl = self._replacement(step.payload["def"], v, step)
            if poly.substitute_var(src, v, repl) != target:
                self.fail(step, "substitution does not reproduce the row")
        else:
            self.fail(step, f"unknown substitute op {op!r}")

    def _replacement(self, ref: Ref, v: int, step: Step) -> poly.Poly:
        """Affine replacement for v from a zero fact, rational value or affine row."""
        if ref[0] == "s":
            concl = self.steps.get(ref[1], None)
            if concl is not None and concl.conclusion[0] in ("zero", "assume"):
                self.step_of(ref, step)
                if not (_is_zero(concl.conclusion) and concl.conclusion[1] == v):
                    self.fail(step, "premise does not set the variable to zero")
                return {}
            if concl is not None and concl.conclusion[0] == "value":
                self.step_of(ref, step)
                _, vv, rad = concl.conclusion
                if vv != v or not rad.is_rational:
                    self.fail(step, "value fact unusable as affine replacement")
                return {poly.CONST: rad.as_rational()} if rad.coeff else {}
        row = self.row_of(ref, step)
        if any(len(m) > 1 for m in row) or (v,) not in row:
            self.fail(step, "definition row is not affine in the variable")
        c = row[(v,)]
        return {m: -cc / c for m, cc in row.items() if m != (v,)}

    def _v_square_sum_zero(self, step: Step):
        if step.conclusion[0] != "zero":
            self.fail(step, "square-sum-zero must conclude a zero fact")
        v = step.conclusion[1]
        row = self.row_of(step.premises[0], step)
        if not row or not _is_signed_square_sum(row, strict=True):
            self.fail(step, "premise is not a same-sign sum of squares")
        if (v, v) not in row:
            self.fail(step, "variable does not occur squared in the premise")

    def _v_single_monomial_zero(self, step: Step):
        if step.conclusion[0] != "zero":
            self.fail(step, "single-monomial-zero must conclude a zero fact")
        v = step.conclusion[1]
        row = self.row_of(step.premises[0], step)
        if len(row) != 1:
            self.fail(step, "premise row is not a single monomial")
        mono = next(iter(row))
        if set(mono) != {v}:
            self.fail(step, "monomial is not a power of the variable")

    def _check_evidence(self, x: int, chain: tuple[Ref, ...], step: Step):
        """Premise chain establishing x != 0."""
        for ref in chain:
            if ref[0] == "s":
                prem = self.step_of(ref, step)
                if prem.conclusion[0] == "assume":
                    _, v, nz = prem.conclusion
                    if v == x and nz and (x, True) in step.branch:
                        return
                    self.fail(step, "assumption does not establish the variable nonzero")
                if prem.conclusion[0] == "value":
                    _, v, rad = prem.conclusion
                    if v == x and not rad.is_zero:
                        return
                    self.fail(step, "value does not establish the variable nonzero")
            row = self.row_of(ref, step)
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
        """ref must witness that at most one of x, y is nonzero."""
        if ref[0] == "s":
            prem = self.steps.get(ref[1])
            if prem is not None and prem.conclusion[0] == "mutex":
                self.step_of(ref, step)
                if x in prem.conclusion[1] and y in prem.conclusion[1]:
                    return
                self.fail(step, "mutex fact does not cover both variables")
        row = self.row_of(ref, step)
        if len(row) == 1:
            mono = next(iter(row))
            if len(mono) == 2 and set(mono) == {x, y}:
                return
        self.fail(step, "premise is not a mutex witness for the pair")

    def _v_mutex_elim(self, step: Step):
        if step.conclusion[0] != "zero":
            self.fail(step, "mutex-elim must conclude a zero fact")
        y = step.conclusion[1]
        mode = step.payload.get("mode", "nonzero")
        if mode == "nonzero":
            x = step.payload["var"]
            self._mutex_pair_ok(step.premises[0], x, y, step)
            self._check_evidence(x, step.premises[1:], step)
        elif mode == "pair":
            link = self.row_of(step.premises[1], step)
            shape = _two_monomial_shape(link)
            if shape is None or y not in shape:
                self.fail(step, "linking row must have two univariate monomials")
            a, b = shape
            x = b if a == y else a
            self._mutex_pair_ok(step.premises[0], x, y, step)
        else:
            self.fail(step, f"unknown mutex-elim mode {mode!r}")

    def _values_from(self, refs, step: Step) -> dict[int, Radical]:
        vals: dict[int, Radical] = {}
        for ref in refs:
            concl = self.fact_of(ref, step)
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

    def _v_linear_solve(self, step: Step):
        if step.conclusion[0] == "value":
            x, rad = step.conclusion[1], step.conclusion[2]
        elif step.conclusion[0] == "zero":
            x, rad = step.conclusion[1], Radical.from_rational(0)
        else:
            self.fail(step, "linear-solve must conclude a value or zero fact")
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

    def _v_quad_solve_nonzero(self, step: Step):
        if step.conclusion[0] != "value":
            self.fail(step, "quad-solve-nonzero must conclude a value fact")
        _, x, rad = step.conclusion
        mode = step.payload.get("mode")
        if mode == "single":
            row = self.row_of(step.premises[0], step)
            v = step.payload["var"]
            if set(row) != {(v, v), (v,)} or x != v:
                self.fail(step, "row is not a*x^2 + b*x for the variable")
            want = Radical.from_rational(-row[(v,)] / row[(v, v)])
            self._check_evidence(v, step.premises[1:], step)
        elif mode == "pair":
            r1 = self.row_of(step.premises[0], step)
            r2 = self.row_of(step.premises[1], step)
            a = step.payload["var"]  # the variable squared in r1
            s1 = _square_link_shape(r1)
            s2 = _square_link_shape(r2)
            if s1 is None or s2 is None:
                self.fail(step, "rows are not of the form a*x^2 + b*y")
            (xa, ya, kappa) = s1
            (xb, yb, mu) = s2
            if xa != a or ya != xb or yb != xa:
                self.fail(step, "rows do not form a square cycle x^2=k*y, y^2=m*x")
            if x == xa:
                want = Radical.root(kappa * kappa * mu, 3)
            elif x == ya:
                want = Radical.root(kappa * mu * mu, 3)
            else:
                self.fail(step, "conclusion variable is not in the cycle")
            self._check_evidence(step.payload.get("witness", xa), step.premises[2:], step)
        else:
            self.fail(step, f"unknown quad-solve mode {mode!r}")
        if want != rad:
            self.fail(step, f"solved value mismatch: {want} vs {rad}")

    def _v_negative_square(self, step: Step):
        if step.conclusion[0] != "contradiction":
            self.fail(step, "negative-square must conclude a contradiction")
        row = self.row_of(step.premises[0], step)
        if step.payload.get("mode") == "discriminant":
            pvars = poly.poly_vars(row)
            if len(pvars) != 1:
                self.fail(step, "discriminant mode needs a univariate row")
            v = next(iter(pvars))
            a = row.get((v, v), Fraction(0))
            b = row.get((v,), Fraction(0))
            c = row.get(poly.CONST, Fraction(0))
            if not a or b * b - 4 * a * c >= 0:
                self.fail(step, "discriminant is not negative")
            return
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

    def _v_value_conflict(self, step: Step):
        if step.conclusion[0] != "contradiction":
            self.fail(step, "value-conflict must conclude a contradiction")
        mode = step.payload.get("mode")
        if mode == "eval":
            row = self.row_of(step.premises[0], step)
            vals = self._values_from(step.premises[1:], step)
            rest, const = self._eval_with(row, vals)
            if rest or const.is_zero:
                self.fail(step, "row does not evaluate to a nonzero constant")
        elif mode == "two-values":
            a = self.fact_of(step.premises[0], step)
            b = self.fact_of(step.premises[1], step)
            if a[0] != "value" or b[0] != "value" or a[1] != b[1] or a[2] == b[2]:
                self.fail(step, "premises are not conflicting values for one variable")
        elif mode == "zero-nonzero":
            z = self.fact_of(step.premises[0], step)
            if not _is_zero(z):
                self.fail(step, "first premise must be a zero fact")
            x = z[1]
            self._check_evidence(x, step.premises[1:], step)
        else:
            self.fail(step, f"unknown value-conflict mode {mode!r}")

    def _v_column_zero_propagate(self, step: Step):
        if step.conclusion[0] != "null-map":
            self.fail(step, "column-zero-propagate must conclude the null map")
        k = step.payload["column"]
        seen = set()
        for ref in step.premises:
            concl = self.fact_of(ref, step)
            if not _is_zero(concl):
                self.fail(step, "premises must be zero facts")
            i, kk = self.sys.var_pair(concl[1])
            if kk == k:
                seen.add(i)
        if seen != set(self.sys.graph.vertices()):
            self.fail(step, f"column {k} is not entirely zero")

    def _v_branch_open(self, step: Step):
        if step.conclusion[0] != "assume":
            self.fail(step, "branch-open must conclude an assumption")
        _, v, nz = step.conclusion
        if not step.branch or step.branch[-1] != (v, nz):
            self.fail(step, "assumption must extend its own branch context")
        self.opens.setdefault(step.branch[:-1], set()).add(v)

    def _v_branch_close(self, step: Step):
        if step.conclusion[0] != "closed":
            self.fail(step, "branch-close must conclude a closure")
        how = step.conclusion[1]
        prem = self.step_of(step.premises[0], step)
        if how == "contradiction" and prem.conclusion[0] != "contradiction":
            self.fail(step, "closure premise is not a contradiction")
        if how == "null" and prem.conclusion[0] != "null-map":
            self.fail(step, "closure premise is not a null-map certificate")
        if how not in ("contradiction", "null"):
            self.fail(step, f"unknown closure kind {how!r}")
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
