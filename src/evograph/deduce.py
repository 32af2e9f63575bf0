"""Sound symbolic deduction over the homomorphism constraint system.

The engine maintains, per branch of a case-split tree, a store of
polynomial constraint rows kept in reduced row-echelon form over the
monomial space, together with facts (zero variables, exact values,
mutex pairs, nonzero assumptions).  Saturation interleaves

  * substitution of known facts into rows,
  * exact linear combination of rows sharing monomials (Gaussian
    elimination over the monomial coordinates),
  * affine elimination: a fully reduced linear row defines its leading
    variable and is substituted into quadratic occurrences elsewhere,
  * real-field sign rules (a same-sign sum of squares forces each
    summand to vanish; a same-sign constant on top is a contradiction),
  * mutex reasoning on leaf-anchor columns and product rows,
  * exact solving of square cycles x^2 = k*y, y^2 = m*x under a
    nonzero assumption (real cube roots are unique, so no sign split),

until a fixpoint.  Case splitting (x = 0 versus x != 0) closes a branch
on an outright contradiction or when some column is entirely zero, in
which case connectivity forces the null map.  Every derivation is
logged; the replayer in prooflog.py re-validates logs independently.

The engine derives nothing that no closure or verdict can read:

  * a row each of whose monomials holds a variable the branch knows is
    zero vanishes; it is dropped before any substitution is logged, and
    a substitution that cancels a row outright is not logged either;
  * a branch closes at the step that closes it, not at the fixpoint: a
    contradiction, or the zero that completes a column (a
    ``column-zero-propagate`` step at once).  Either raises
    ``BranchClosed`` after logging the ``branch-close``, so nothing
    after it is logged in that branch;
  * the case split stops at the first open leaf whose witness passes
    ``is_homomorphism_direct``: a "found-structure" verdict needs no
    more of the tree.

Soundness is the contract: a "null-only" verdict is issued only when
every branch of an exhaustive split closes.  Budget exhaustion and
unresolved branches surface as "unknown", never as a wrong verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from typing import NoReturn

from . import poly
from .graphs import Graph
from .homsystem import HomCandidate, HomSystem, derive_constraints, is_homomorphism_direct
from .prooflog import FOUND_STRUCTURE, NULL_ONLY, UNKNOWN, ProofLog, Ref, Step, _gc_paused
from .radicals import FactoringEffortExceeded, Radical, RadicalSum

_ONE = Fraction(1)


@dataclass(frozen=True)
class Budget:
    max_depth: int = 8
    max_steps: int = 1_000_000


@dataclass(frozen=True)
class Verdict:
    kind: str  # NULL_ONLY | UNKNOWN | FOUND_STRUCTURE
    log: ProofLog
    open_branches: int = 0  # open leaves met; a found-structure split ends at the witness leaf
    reason: str = ""
    witness: HomCandidate | None = None
    system: HomSystem | None = None  # the constraint system the log refers to


class BudgetExhausted(Exception):
    pass


class BranchClosed(Exception):
    """The branch closed; its ``branch-close`` step is already logged."""


class _Shared:
    """Log shared across all branches, and what the open leaves left."""

    def __init__(self, sys: HomSystem, budget: Budget):
        self.sys = sys
        self.budget = budget
        self.log = ProofLog()
        self.open_leaves = 0
        self.witness: HomCandidate | None = None  # of the first open leaf that has one
        self.depth_cut = False
        # (x, y) with x < y -> its leaf-mutex step, in ascending pair order,
        # and each variable -> the pairs it is in; filled once by
        # apply_leaf_rules and read by every branch
        self.mutex_pairs: dict[tuple[int, int], Ref] = {}
        self.mutex_by_var: dict[int, list[tuple[int, int]]] = {}


class DeductionState:
    """Per-branch constraint store and fact set (copy-on-branch)."""

    def __init__(self, shared: _Shared, branch: tuple = ()):
        self.shared = shared
        self.branch = branch
        self.rows: dict[Ref, poly.Poly] = {}
        # each row's leading monomial and its variables in ascending order,
        # computed once by _add_row
        self.row_info: dict[Ref, tuple[poly.Mono, tuple[int, ...]]] = {}
        self.basis: dict[poly.Mono, Ref] = {}
        # occurrence indexes over self.rows, kept by _add_row and _remove_row
        self.mono_rows: dict[poly.Mono, set[Ref]] = {}
        self.var_rows: dict[int, set[Ref]] = {}
        self.zeros: dict[int, Ref] = {}
        self.values: dict[int, tuple[Radical, Ref]] = {}
        self.nonzero: dict[int, Ref] = {}
        # x*y monomial -> the single-monomial row that makes x, y a mutex pair
        self.pair_mutex: dict[poly.Mono, Ref] = {}
        self.pending: deque = deque()
        self.dirty: set[int] = set()

    @property
    def sys(self) -> HomSystem:
        return self.shared.sys

    def clone(self) -> "DeductionState":
        """A copy for a child branch; pending and dirty are empty at a split."""
        c = DeductionState(self.shared, self.branch)
        c.rows = dict(self.rows)
        c.row_info = dict(self.row_info)
        c.basis = dict(self.basis)
        c.mono_rows = {m: set(refs) for m, refs in self.mono_rows.items()}
        c.var_rows = {v: set(refs) for v, refs in self.var_rows.items()}
        c.zeros = dict(self.zeros)
        c.values = dict(self.values)
        c.nonzero = dict(self.nonzero)
        c.pair_mutex = dict(self.pair_mutex)
        return c

    # -- logging --------------------------------------------------------------

    def emit(self, rule: str, premises, conclusion, payload=None) -> Ref:
        sh = self.shared
        sid = len(sh.log.steps)
        if sid >= sh.budget.max_steps:
            raise BudgetExhausted()
        step = Step(
            sid=sid,
            rule=rule,
            branch=self.branch,
            premises=tuple(premises),
            conclusion=conclusion,
            payload=payload or {},
        )
        return sh.log.append(step)

    def contradict(self, rule: str, premises, payload=None) -> NoReturn:
        """Log a contradiction and close the branch on it."""
        self.close(self.emit(rule, premises, ("contradiction",), payload), "contradiction")

    def close(self, ref: Ref, how: str) -> NoReturn:
        """Log the branch's close on step ref and end it by raising ``BranchClosed``."""
        self.emit("branch-close", [ref], ("closed", how))
        raise BranchClosed()

    # -- fact registration ------------------------------------------------------

    def add_zero(self, v: int, ref: Ref):
        if v in self.zeros:
            return
        self.zeros[v] = ref
        if v in self.nonzero:
            self.contradict("value-conflict", [ref, self.nonzero[v]], {"mode": "zero-nonzero"})
        if v in self.values:
            self.contradict("value-conflict", [ref, self.values[v][1]], {"mode": "zero-nonzero"})
        self.dirty.add(v)
        # an all-zero column forces the null map (the graph is connected)
        sys = self.sys
        k = sys.var_pair(v)[1]
        column = [sys.var(i, k) for i in range(1, sys.n + 1)]
        if all(u in self.zeros for u in column):
            prem = [self.zeros[u] for u in column]
            self.close(
                self.emit("column-zero-propagate", prem, ("null-map",), {"column": k}), "null"
            )

    def add_value(self, v: int, rad: Radical, ref: Ref):
        """Record v = rad; every caller first checks that v has no value yet."""
        if rad.is_zero:
            self.add_zero(v, ref)
            return
        if v in self.zeros:
            self.contradict("value-conflict", [self.zeros[v], ref], {"mode": "zero-nonzero"})
        self.values[v] = (rad, ref)
        if rad.is_rational:
            self.dirty.add(v)

    # -- row pipeline -----------------------------------------------------------

    def enqueue(self, ref: Ref, p: poly.Poly):
        self.pending.append((ref, p))

    def _substitute_facts(self, ref: Ref, p: poly.Poly):
        """One logged substitution per determined variable occurring in p.

        Variables go in ascending order.  A constant replacement only
        removes variables, so one sorted pass over p's determined variables
        suffices; a variable cancelled by an earlier substitution is skipped.
        A row that vanishes, each monomial holding a zero variable, comes
        back empty with nothing logged.
        """
        zeros, values = self.zeros, self.values
        if all(any(v in zeros for v in m) for m in p):
            return ref, {}
        determined = [
            v for v in poly.poly_vars(p) if v in zeros or (v in values and values[v][0].is_rational)
        ]
        for v in sorted(determined):
            if v in zeros:
                repl, dref = {}, zeros[v]
            else:
                rad, dref = values[v]
                c = rad.as_rational()
                repl = {poly.CONST: c} if c else {}
            if any(v in m for m in p):
                ref, p = self._subst(ref, p, v, dref, repl)
        return ref, p

    def _subst(self, ref: Ref, p: poly.Poly, v: int, dref: Ref, repl: poly.Poly):
        """Replace v by repl in p, justified by the fact or affine row dref."""
        np = poly.substitute_var(p, v, repl)
        if not np:
            return ref, np  # an empty row says nothing; the caller drops it
        nref = self.emit(
            "substitute",
            [ref, dref],
            ("row", np),
            {"op": "subst", "src": ref, "var": v, "def": dref},
        )
        return nref, np

    def _reduce(self, ref: Ref, p: poly.Poly):
        """Full reduction against the basis; one lincomb step if it changed."""
        parts = [(ref, _ONE)]
        cur = dict(p)
        basis = self.basis
        while True:
            # the next pivot: cur's first monomial, in mono_key order, led by another row
            hits = [m for m in cur if basis.get(m, ref) != ref]
            if not hits:
                break
            m = min(hits, key=poly.mono_key)
            hit = basis[m]
            row = self.rows[hit]
            lam = poly.neg_quotient(cur[m], row[m])
            poly.add_scaled_to(cur, row, lam)
            parts.append((hit, lam))
        if len(parts) == 1:
            return ref, cur
        if not cur:
            return None, cur
        nref = self.emit(
            "substitute", [r for r, _ in parts], ("row", cur), {"op": "lincomb", "parts": parts}
        )
        return nref, cur

    def _add_row(self, ref: Ref, p: poly.Poly, lead: poly.Mono):
        pvars = tuple(sorted(poly.poly_vars(p)))
        self.rows[ref] = p
        self.row_info[ref] = (lead, pvars)
        self.basis[lead] = ref
        _index(self.mono_rows, p, ref)
        _index(self.var_rows, pvars, ref)

    def _remove_row(self, ref: Ref):
        p = self.rows.pop(ref, None)
        if p is None:
            return None
        lead, pvars = self.row_info.pop(ref)
        if self.basis.get(lead) == ref:
            del self.basis[lead]
        _unindex(self.mono_rows, p, ref)
        _unindex(self.var_rows, pvars, ref)
        return p

    def process_pending(self) -> bool:
        worked = False
        while self.pending:
            ref, p = self.pending.popleft()
            worked = True
            self._pipeline(ref, p)
        return worked

    def _pipeline(self, ref: Ref, p: poly.Poly):
        ref, p = self._substitute_facts(ref, p)
        # quadratic occurrences of affine-determined variables
        while True:
            quad_vars = sorted(
                {
                    v
                    for m in p
                    if len(m) == 2
                    for v in m
                    if (v,) in self.basis
                }
            )
            if not quad_vars:
                break
            v = quad_vars[0]
            dref = self.basis[(v,)]
            dpoly = self.rows[dref]
            c = dpoly[(v,)]
            repl = {m: poly.neg_quotient(cc, c) for m, cc in dpoly.items() if m != (v,)}
            ref, p = self._subst(ref, p, v, dref, repl)
            ref, p = self._substitute_facts(ref, p)
        res = self._reduce(ref, p)
        if res[0] is None:
            return
        ref, p = res
        if not p:
            return
        if set(p) == {poly.CONST}:
            self.contradict("value-conflict", [ref], {"mode": "eval"})
        self._shape_rules(ref, p)
        self._insert(ref, p)

    def _insert(self, ref: Ref, p: poly.Poly):
        lead = poly.leading_mono(p)
        # back-substitute the new pivot out of existing rows
        holders = sorted(self.mono_rows.get(lead, ()))
        for r in holders:
            q = self._remove_row(r)
            lam = poly.neg_quotient(q[lead], p[lead])
            nq = poly.add_scaled(q, p, lam)
            if not nq:
                continue
            nref = self.emit(
                "substitute",
                [r, ref],
                ("row", nq),
                {"op": "lincomb", "parts": [(r, _ONE), (ref, lam)]},
            )
            if set(nq) == {poly.CONST}:
                self.contradict("value-conflict", [nref], {"mode": "eval"})
            self._add_row(nref, nq, poly.leading_mono(nq))
            self._shape_rules(nref, nq)
        self._add_row(ref, p, lead)
        if len(lead) == 1:
            # new affine definition: rewrite quadratic occurrences elsewhere
            v = lead[0]
            for r in sorted(self.var_rows[v]):
                if r == ref:
                    continue
                q = self.rows[r]
                if any(len(m) == 2 and v in m for m in q):
                    self._remove_row(r)
                    self.enqueue(r, q)

    # -- single-row shape rules ---------------------------------------------------

    def _shape_rules(self, ref: Ref, p: poly.Poly):
        monos = set(p)
        if len(p) == 1:
            m = next(iter(monos))
            if len(m) == 1 or (len(m) == 2 and m[0] == m[1]):
                zref = self.emit("single-monomial-zero", [ref], ("zero", m[0]))
                self.add_zero(m[0], zref)
            elif len(m) == 2:
                self.pair_mutex.setdefault(m, ref)
            return
        nconst = [m for m in monos if m != poly.CONST]
        if all(len(m) == 2 and m[0] == m[1] for m in nconst):
            signs = {p[m] > 0 for m in nconst}
            if len(signs) == 1:
                cst = p.get(poly.CONST)
                if cst is None:
                    for m in sorted(nconst):
                        zref = self.emit("square-sum-zero", [ref], ("zero", m[0]))
                        self.add_zero(m[0], zref)
                elif (cst > 0) == signs.pop():
                    self.contradict("negative-square", [ref])
            return
        # univariate quadratic with negative discriminant
        pvars = poly.poly_vars(p)
        if len(pvars) == 1 and poly.CONST in monos:
            v = next(iter(pvars))
            a = p.get((v, v), Fraction(0))
            b = p.get((v,), Fraction(0))
            c = p[poly.CONST]
            if a and b * b - 4 * a * c < 0:
                self.contradict("negative-square", [ref], {"mode": "discriminant"})

    # -- multi-row scans ------------------------------------------------------------

    def _two_term_rows(self):
        """The two-term rows the scans read, in ref order.

        links: (ref, (x, y)) for two univariate monomials in variables x < y;
        evidence: (ref, x) for c*x^2 + d with -d/c > 0, so x is nonzero;
        squares: (ref, x, y, kappa) for x^2 = kappa*y, where y may be x.
        """
        links, evidence, squares = [], [], []
        rows = self.rows
        for ref in sorted(r for r, p in rows.items() if len(p) == 2):
            p = rows[ref]
            m, n = p
            if len(m) < len(n):
                m, n = n, m
            square = len(m) == 2 and m[0] == m[1]
            if not n:
                if square and (p[m] > 0) != (p[n] > 0):
                    evidence.append((ref, m[0]))
                continue
            if (len(m) == 1 or square) and len(set(n)) == 1 and m[0] != n[0]:
                links.append((ref, (m[0], n[0]) if m[0] < n[0] else (n[0], m[0])))
            if square and len(n) == 1:
                squares.append((ref, m[0], n[0], poly.neg_quotient(p[n], p[m])))
        return links, evidence, squares

    def _nonzero_closure(self, links, evidence) -> dict[int, list[Ref]]:
        chains: dict[int, list[Ref]] = {}
        for v, ref in sorted(self.nonzero.items()):
            chains[v] = [ref]
        for v, (_, ref) in sorted(self.values.items()):
            chains.setdefault(v, [ref])  # values never holds a zero
        for ref, v in evidence:
            chains.setdefault(v, [ref])
        changed = True
        while changed:
            changed = False
            for ref, (x, y) in links:
                if x in chains and y not in chains:
                    chains[y] = [ref] + chains[x]
                    changed = True
                if y in chains and x not in chains:
                    chains[x] = [ref] + chains[y]
                    changed = True
        return chains

    def run_scans(self) -> bool:
        before = len(self.shared.log.steps)
        # the scans before _scan_radical_rows add facts, never rows, so one
        # classification of the rows serves all of them
        links, evidence, squares = self._two_term_rows()
        chains = self._nonzero_closure(links, evidence)
        self._scan_mutex(chains, links)
        self._scan_square_cycles(chains, squares)
        self._scan_radical_rows()
        return len(self.shared.log.steps) > before or bool(self.pending) or bool(self.dirty)

    def _scan_mutex(self, chains, links):
        # only a pair with a member in chains can fire, in ascending pair order;
        # a pair from a row overrides the same pair from a leaf column
        leaf, row_pairs = self.shared.mutex_pairs, self.pair_mutex
        by_var = self.shared.mutex_by_var
        keys = {key for v in chains for key in by_var.get(v, ())}
        keys.update(key for key in row_pairs if key[0] in chains or key[1] in chains)
        for key in sorted(keys):
            x, y = key
            for a, b in ((x, y), (y, x)):
                if a in chains and b not in self.zeros:
                    zref = self.emit(
                        "mutex-elim",
                        [row_pairs.get(key, leaf.get(key))] + chains[a],
                        ("zero", b),
                        {"mode": "nonzero", "var": a},
                    )
                    self.add_zero(b, zref)
        # pair shapes: a linking two-monomial row zeroes both members
        for ref, key in links:
            mref = row_pairs.get(key, leaf.get(key))
            if mref is None or ref == mref:
                continue
            for v in key:
                if v not in self.zeros:
                    zref = self.emit(
                        "mutex-elim", [mref, ref], ("zero", v), {"mode": "pair"}
                    )
                    self.add_zero(v, zref)

    def _scan_square_cycles(self, chains, squares):
        # single rows x^2 = kappa*x with x known nonzero
        for ref, x, y, kappa in squares:
            if x == y and x in chains and x not in self.values:
                val = Radical.from_rational(kappa)
                vref = self.emit(
                    "quad-solve-nonzero",
                    [ref] + chains[x],
                    ("value", x, val),
                    {"mode": "single", "var": x},
                )
                self.add_value(x, val, vref)
        # cycles x^2 = kappa*y, y^2 = mu*x
        shapes = {}
        for ref, x, y, kappa in squares:
            if x != y:
                shapes.setdefault((x, y), (ref, kappa))
        for x, y in sorted(shapes):
            if y < x or (y, x) not in shapes:  # each cycle once, from its lesser variable
                continue
            witness = x if x in chains else (y if y in chains else None)
            if witness is None:
                continue
            (r1, kappa), (r2, mu) = shapes[(x, y)], shapes[(y, x)]
            # from y's side the cycle reads y^2 = mu*x, x^2 = kappa*y
            sides = ((x, kappa, mu, [r1, r2]), (y, mu, kappa, [r2, r1]))
            try:  # both roots first, so the cycle fires whole or not at all
                solved = [
                    (v, Radical.root(k * k * m, 3), prem)
                    for v, k, m, prem in sides
                    if v not in self.values
                ]
            except FactoringEffortExceeded:
                continue  # a value left unfired is sound
            for v, val, prem in solved:
                vref = self.emit(
                    "quad-solve-nonzero",
                    prem + chains[witness],
                    ("value", v, val),
                    {"mode": "pair", "var": v, "witness": witness},
                )
                self.add_value(v, val, vref)

    def _scan_radical_rows(self):
        """Rows whose variables are (almost) all pinned to radical values.

        Only a row with a valued variable or with at most one variable can
        match.  Those rows are visited in ref order; a value found on the
        way brings in the later rows that hold its variable.
        """
        todo = {ref for ref, (_, pvars) in self.row_info.items() if len(pvars) <= 1}
        for v in self.values:
            todo.update(self.var_rows.get(v, ()))
        heap = sorted(todo)
        while heap:
            ref = heappop(heap)
            p = self.rows[ref]
            pvars = self.row_info[ref][1]
            unknown = [v for v in pvars if v not in self.values]
            valued = [v for v in pvars if v in self.values]
            vrefs = [self.values[v][1] for v in valued]
            rest, const = _eval_partial(p, {v: self.values[v][0] for v in valued})
            if not unknown:
                if rest:
                    continue
                if not const.is_zero:
                    self.contradict("value-conflict", [ref] + vrefs, {"mode": "eval"})
                self._remove_row(ref)
                continue
            if len(unknown) != 1:
                continue
            x = unknown[0]
            if set(rest) == {(x,)}:
                if not const.is_single_term():
                    continue
                val = (-const).as_radical() / Radical.from_rational(rest[(x,)])
                concl = ("zero", x) if val.is_zero else ("value", x, val)
                vref = self.emit("linear-solve", [ref] + vrefs, concl)
                if val.is_zero:
                    self.add_zero(x, vref)
                else:
                    self.add_value(x, val, vref)
                    for r in self.var_rows.get(x, ()):
                        if r > ref and r not in todo:
                            todo.add(r)
                            heappush(heap, r)
            elif set(rest) == {(x, x)} and const.is_zero:
                vref = self.emit("linear-solve", [ref] + vrefs, ("zero", x))
                self.add_zero(x, vref)
            elif set(rest) == {(x, x)} and const.is_single_term():
                want = (-const).as_radical() / Radical.from_rational(rest[(x, x)])
                if want.coeff < 0:
                    self.contradict("negative-square", [ref] + vrefs)

    # -- dirty-variable rewrites -----------------------------------------------------

    def flush_dirty(self) -> bool:
        if not self.dirty:
            return False
        dirty, self.dirty = self.dirty, set()
        affected = sorted(set().union(*(self.var_rows.get(v, ()) for v in dirty)))
        for r in affected:
            p = self._remove_row(r)
            if p is not None:
                self.enqueue(r, p)
        return bool(affected)


def _index(index: dict, keys, ref: Ref):
    for k in keys:
        refs = index.get(k)
        if refs is None:
            index[k] = {ref}
        else:
            refs.add(ref)


def _unindex(index: dict, keys, ref: Ref):
    for k in keys:
        refs = index[k]
        refs.discard(ref)
        if not refs:
            del index[k]


def _eval_partial(p: poly.Poly, vals: dict[int, Radical]):
    rest: poly.Poly = {}
    const = RadicalSum()
    for m, c in p.items():
        if all(v in vals for v in m):
            term = RadicalSum.from_rational(c)
            for v in m:
                term = term * RadicalSum.from_radical(vals[v])
            const = const + term
        else:
            rest[m] = c
    return rest, const


# -- public operations ------------------------------------------------------------


def apply_leaf_rules(state: DeductionState) -> list[Ref]:
    """Column mutexes for leaf anchors; zeros for twin leaf pairs."""
    sys, g = state.sys, state.sys.graph
    out: list[Ref] = []
    anchors_done = set()
    pairs: dict[tuple[int, int], Ref] = {}
    for leaf in sorted(g.leaves()):
        anchor = next(iter(g.neighbors(leaf)))
        if anchor not in anchors_done:
            anchors_done.add(anchor)
            col = tuple(sys.var(i, anchor) for i in g.vertices())
            mref = state.emit("leaf-mutex", [], ("mutex", col))
            # columns of distinct anchors share no variable, hence no pair
            pairs.update(dict.fromkeys(combinations(sorted(col), 2), mref))
            out.append(mref)
        for twin in sorted(g.leaves()):
            if twin != leaf and g.neighbors(twin) == g.neighbors(leaf):
                for (i, k) in ((twin, anchor), (leaf, anchor), (anchor, leaf), (anchor, twin)):
                    v = sys.var(i, k)
                    if v not in state.zeros:
                        zref = state.emit("leaf-twin-zero", [], ("zero", v))
                        state.add_zero(v, zref)
                        out.append(zref)
    state.shared.mutex_pairs = dict(sorted(pairs.items()))
    for key in state.shared.mutex_pairs:
        for v in key:
            state.shared.mutex_by_var.setdefault(v, []).append(key)
    return out


def apply_leaf_twin_cross_rules(state: DeductionState) -> list[Ref]:
    """Relations between a twin pair of leaves and any third leaf."""
    sys, g = state.sys, state.sys.graph
    out: list[Ref] = []
    leaves = sorted(g.leaves())
    pairs = [
        (l, u)
        for i, l in enumerate(leaves)
        for u in leaves[i + 1:]
        if g.neighbors(l) == g.neighbors(u)
    ]
    for l, u in pairs:
        kl = next(iter(g.neighbors(l)))
        for w in leaves:
            if w in (l, u):
                continue
            kw = next(iter(g.neighbors(w)))
            for (i, k) in ((u, kw), (l, kw), (kl, w)):
                v = sys.var(i, k)
                if v not in state.zeros:
                    zref = state.emit("leaf-twin-cross", [], ("zero", v))
                    state.add_zero(v, zref)
                    out.append(zref)
            rows = [
                poly.poly_from_terms(
                    [(_ONE, (sys.var(kw, l),)), (-_ONE, (sys.var(kw, u),))]
                ),
                poly.poly_from_terms(
                    [(_ONE, (sys.var(w, kl), sys.var(w, kl))), (-_ONE, (sys.var(kw, l),))]
                ),
                poly.poly_from_terms(
                    [(_ONE, (sys.var(w, kl), sys.var(w, kl))), (-_ONE, (sys.var(kw, u),))]
                ),
            ]
            for p in rows:
                rref = state.emit("leaf-twin-cross", [], ("row", p))
                state.enqueue(rref, p)
                out.append(rref)
    return out


def saturate(state: DeductionState) -> DeductionState:
    """Run the rewriting and scanning loop to a fixpoint.

    Raises ``BranchClosed`` when the branch closes first.
    """
    while state.process_pending() or state.flush_dirty() or state.run_scans():
        pass
    return state


def _pick_branch_var(state: DeductionState) -> int | None:
    counts: dict[int, int] = {}
    for _, pvars in state.row_info.values():
        for v in pvars:
            if (
                v not in state.zeros
                and v not in state.values
                and v not in state.nonzero
                and (v,) not in state.basis
            ):
                counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def _explore(state: DeductionState, depth: int) -> bool:
    try:
        saturate(state)
    except BranchClosed:
        return True
    v = _pick_branch_var(state)
    if v is None or depth >= state.shared.budget.max_depth:
        _leave_open(state, cut=v is not None)
        return False
    closed = True
    for nz in (False, True):
        child = _open_branch(state, v, nz)
        if child is not None and not _explore(child, depth + 1):
            closed = False
            if state.shared.witness is not None:
                break  # the first witness settles the verdict
    return closed


def _leave_open(state: DeductionState, cut: bool):
    """Count an open leaf and keep its witness, if it has one; a witness ends the split."""
    sh = state.shared
    sh.open_leaves += 1
    sh.depth_cut |= cut
    sh.witness = _leaf_witness(state)


def _open_branch(state: DeductionState, v: int, nz: bool) -> DeductionState | None:
    """The child of state that assumes v != 0 (nz) or v == 0.

    None when v == 0 completes a zero column, which closes the child at once.
    """
    child = state.clone()
    child.branch = state.branch + ((v, nz),)
    aref = child.emit("branch-open", [], ("assume", v, nz))
    # no value conflict: _pick_branch_var skips variables with a fact
    if nz:
        child.nonzero[v] = aref
        return child
    try:
        child.add_zero(v, aref)
    except BranchClosed:
        return None
    return child


@_gc_paused()
def prove_null_only(g: Graph, budget: Budget = Budget()) -> Verdict:
    """Certify that the null map is the only homomorphism, when provable.

    Returns a verdict carrying the proof log.  "null-only" is issued only
    when an exhaustive case split closes every branch; anything else
    (budget, unresolved branches, or an explicit nonzero solution) comes
    back as "unknown" or "found-structure".  A "null-only" log keeps only
    its premise cone, the steps its branch closures rest on; the other
    logs stay whole, open leaves included.

    Three early exits keep the engine from deriving what no verdict reads.
    A vanishing row (each monomial holds a known zero) is dropped unlogged.
    A branch closes as soon as a zero completes a column, with
    ``column-zero-propagate`` and ``branch-close`` at once.  The split stops
    at the first open leaf with a witness, so on "found-structure"
    ``open_branches`` counts the open leaves up to and including the
    witness leaf, not every open leaf of the tree.

    The cyclic garbage collector is paused while it runs: the log and the
    branch states hold no cycles, and the collector's passes over the
    growing log would cost more than they free.
    """
    sys = derive_constraints(g)
    shared = _Shared(sys, budget)
    root = DeductionState(shared)
    try:
        # the leaf rules add only zeros, and the root has no nonzero fact to
        # conflict with; each zero is t_ik with just one of i, k a leaf, so
        # no diagonal entry and hence no column is zeroed: nothing here closes
        apply_leaf_rules(root)
        apply_leaf_twin_cross_rules(root)
        for idx in range(len(sys.constraints)):
            root.enqueue(("c", idx), sys.constraints[idx].p)
        closed = _explore(root, 0)
    except BudgetExhausted:
        shared.log.verdict = UNKNOWN
        return Verdict(
            UNKNOWN, shared.log, open_branches=1, reason="budget-exhausted", system=sys
        )
    if closed:
        shared.log.steps = _premise_cone(shared.log.steps)
        shared.log.verdict = NULL_ONLY
        return Verdict(NULL_ONLY, shared.log, system=sys)
    if shared.witness is not None:
        shared.log.verdict = FOUND_STRUCTURE
        reason = "consistent nonzero assignment"
    else:
        shared.log.verdict = UNKNOWN
        reason = "budget-exhausted" if shared.depth_cut else "open branches at fixpoint"
    return Verdict(
        shared.log.verdict,
        shared.log,
        open_branches=shared.open_leaves,
        reason=reason,
        witness=shared.witness,
        system=sys,
    )


def _premise_cone(steps: list[Step]) -> list[Step]:
    """The steps a closed case tree rests on, in log order and with their ids.

    These are the branch markers and every step reachable backwards from a
    branch-close through premises.  A step's id is its index and premises
    precede their step, so one backward pass finds them all.
    """
    keep = bytearray(len(steps))
    for s in reversed(steps):
        if keep[s.sid] or s.rule in ("branch-open", "branch-close"):
            keep[s.sid] = 1
            for kind, sid in s.premises:
                if kind == "s":
                    keep[sid] = 1
    return [s for s in steps if keep[s.sid]]


def _leaf_witness(leaf: DeductionState) -> HomCandidate | None:
    """A fully valued open leaf with no live rows is a candidate solution."""
    if leaf.rows:
        return None
    sys = leaf.sys
    entries = []
    ok = False
    for i in range(1, sys.n + 1):
        row = []
        for k in range(1, sys.n + 1):
            v = sys.var(i, k)
            if v in leaf.zeros:
                row.append(Radical.from_rational(0))
            elif v in leaf.values:
                row.append(leaf.values[v][0])
                ok = True
            else:
                return None
        entries.append(row)
    cand = HomCandidate.from_radicals(entries)
    return cand if ok and is_homomorphism_direct(sys.graph, cand) else None
