"""Shared test oracles and corpus proofs, handed to tests as fixtures."""

import functools
import time
from typing import NamedTuple

import pytest

from evograph.deduce import Verdict, prove_null_only
from evograph.graphs import Graph, generate_family
from evograph.homsystem import HomSystem, derive_constraints


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


class CorpusProof(NamedTuple):
    graph: Graph
    system: HomSystem  # derived apart from the engine's own copy
    verdict: Verdict  # prove_null_only with the default budget
    prove_s: float  # wall time of that one proof


@functools.cache
def _corpus_proof(desc: str) -> CorpusProof:
    g = generate_family(desc)
    system = derive_constraints(g)
    start = time.perf_counter()
    verdict = prove_null_only(g)
    return CorpusProof(g, system, verdict, time.perf_counter() - start)


@pytest.fixture(scope="session")
def corpus_proof():
    """The proof of a family descriptor, computed once a session.

    Every test sees the same objects: a test that tampers with a log
    copies it first (``list(log.steps)``, ``dataclasses.replace``).
    """
    return _corpus_proof
