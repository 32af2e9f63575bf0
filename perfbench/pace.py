"""The host's pace, read from a fixed reference workload.

On a shared host the same pure-Python work runs up to a third slower in
one minute than in the next, because other tenants load the machine.
That drift is larger than the bound on the time metrics, so the gated
times are *paced*: each measured time is divided by the time of a fixed
reference workload run right before and right after it, and multiplied
by ``REFERENCE_S``, the reference's time on an unloaded host.  A paced
time reads as seconds on a host running at that reference pace.

The reference is the benchmark's own code, never evograph's, so a change
to the program cannot move it: sparse elimination over the rationals
with monomial-keyed dicts, and a JSON round trip of the result, which is
the kind of work the program spends its time on.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction

# Seconds one reference run takes on an unloaded 2-vCPU x86-64 VM with
# Python 3.11.7; a paced time is expressed at this pace.
REFERENCE_S = 0.0035
# Timed runs per pace reading; their median is the reading.
RUNS = 5


def _rows() -> list[dict]:
    """24 sparse polynomials of degree <= 2 in 9 variables."""
    n = 9
    rows = []
    for r in range(24):
        p: dict = {}
        for j in range(6):
            a, b = (r * 7 + j * 3) % n, (r + j * 5) % n
            m = tuple(sorted((a, b))) if j % 3 else (a,)
            p[m] = p.get(m, Fraction(0)) + Fraction((r + j) % 5 + 1, (r * j) % 4 + 1)
        rows.append(p)
    return rows


def reference() -> int:
    """Eliminate the rows, then dump and reload them as JSON."""
    rows, done = _rows(), []
    while rows:
        p = rows.pop()
        if not p:
            continue
        lead = min(p, key=lambda m: (-len(m), m))
        inv = 1 / p[lead]
        p = {m: c * inv for m, c in p.items()}
        rest = []
        for q in rows:
            lam = q.get(lead)
            if lam:
                q = dict(q)
                for m, c in p.items():
                    v = q.get(m, Fraction(0)) - lam * c
                    if v:
                        q[m] = v
                    else:
                        q.pop(m, None)
            rest.append(q)
        rows = rest
        done.append(p)
    text = json.dumps([[[list(m), str(c)] for m, c in p.items()] for p in done])
    return sum(len(p) for p in json.loads(text))


# The reference's answer; a reading whose run disagrees is refused.
EXPECTED = reference()


def read(clock) -> float:
    """Seconds one reference run takes now: the median of ``RUNS`` runs."""
    times = []
    for _ in range(RUNS):
        t0 = clock()
        if reference() != EXPECTED:
            raise RuntimeError("the pace reference gave a different answer")
        times.append(clock() - t0)
    return statistics.median(times)


def paced(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two pace readings, at the reference pace."""
    return seconds * REFERENCE_S * 2 / (before + after)
