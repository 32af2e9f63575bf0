"""Shared test oracles and corpus proofs, handed to tests as fixtures."""

import functools
import time
from fractions import Fraction
from typing import NamedTuple

import pytest

from evograph import deduce, poly
from evograph.deduce import Budget, Verdict, prove_null_only
from evograph.graphs import Graph, build_graph, generate_family
from evograph.homsystem import Constraint, HomSystem, derive_constraints


def _det_cofactor(rows: list[list[int]]) -> int:
    """Determinant by cofactor expansion, memoized on column subsets.

    Exponential; an independent cross-check oracle for ``is_singular``
    on small matrices.
    """
    n = len(rows)
    if n == 0:
        return 1
    cache: dict[tuple[int, int], int] = {}
    full = (1 << n) - 1

    def minor(row: int, cols: int) -> int:
        if row == n:
            return 1
        key = (row, cols)
        if key in cache:
            return cache[key]
        total = 0
        sign = 1
        for j in range(n):
            if not (cols >> j) & 1:
                continue
            if rows[row][j] != 0:
                total += sign * rows[row][j] * minor(row + 1, cols & ~(1 << j))
            sign = -sign
        cache[key] = total
        return total

    return minor(0, full)


@pytest.fixture(scope="session")
def det_cofactor():
    """The cofactor-expansion determinant, as an oracle for ``is_singular``."""
    return _det_cofactor


def _derive_constraints_terms(g: Graph) -> HomSystem:
    """The constraint system built term by term through ``poly_from_terms``.

    The straightforward builder; a cross-check oracle for
    ``derive_constraints``, which builds each row dict directly.
    """
    n = g.n
    var = lambda i, k: (i - 1) * n + (k - 1)
    out: list[Constraint] = []
    for r in g.vertices():
        nbrs = sorted(g.neighbors(r))
        for i in g.vertices():
            for j in range(i + 1, n + 1):
                terms = [(Fraction(1), (var(i, k), var(j, k))) for k in nbrs]
                out.append(Constraint(f"prodzero:{r}:{i}:{j}", poly.poly_from_terms(terms)))
    for r in g.vertices():
        nbrs = sorted(g.neighbors(r))
        for i in g.vertices():
            terms = [(Fraction(1), (var(i, k), var(i, k))) for k in nbrs]
            if g.degree(i):  # empty neighbourhood only for the 1-vertex graph
                d = Fraction(1, g.degree(i))
                terms += [(-d, (var(l, r),)) for l in sorted(g.neighbors(i))]
            out.append(Constraint(f"square:{i}:{r}", poly.poly_from_terms(terms)))
    return HomSystem(g, n, tuple(out))


@pytest.fixture(scope="session")
def derive_constraints_terms():
    """The term-by-term builder, as an oracle for ``derive_constraints``."""
    return _derive_constraints_terms


def _graph(desc: str) -> Graph:
    """A family descriptor, or an edge list "n: u-v u-v ...", as a graph."""
    if not desc[0].isdigit():
        return generate_family(desc)
    n, edges = desc.split(":")
    return build_graph(int(n), [tuple(map(int, e.split("-"))) for e in edges.split()])


class CorpusProof(NamedTuple):
    graph: Graph
    system: HomSystem  # derived apart from the engine's own copy
    verdict: Verdict  # prove_null_only with the default budget
    prove_s: float  # wall time of that one proof


@functools.cache
def _corpus_proof(desc: str) -> CorpusProof:
    g = _graph(desc)
    system = derive_constraints(g)
    start = time.perf_counter()
    verdict = prove_null_only(g)
    return CorpusProof(g, system, verdict, time.perf_counter() - start)


@pytest.fixture(scope="session")
def corpus_proof():
    """The proof of a family descriptor or edge list, computed once a session.

    Every test sees the same objects: a test that tampers with a log
    copies it first (``list(log.steps)``, ``dataclasses.replace``).
    """
    return _corpus_proof


@functools.cache
def _untrimmed_proof(desc: str, budget: Budget = Budget()) -> Verdict:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deduce, "_premise_cone", lambda steps, cited: steps)
        return prove_null_only(_graph(desc), budget)


@pytest.fixture(scope="session")
def untrimmed_proof():
    """The proof of a family descriptor or edge list with the engine's trim
    switched off, so its log holds every step derived; computed once a
    session for each budget."""
    return _untrimmed_proof
