"""Sparse polynomials of degree <= 2 over the rationals.

A monomial is a sorted tuple of variable indices: () is the constant
monomial, (v,) linear, (v, w) quadratic (v == w for squares).  A
polynomial maps monomials to nonzero Fraction coefficients.  Affine
substitution keeps the degree bound, so the whole constraint pipeline
stays inside this representation.

No stored coefficient is ever zero.  ``poly_from_terms`` drops zero
terms of its raw input; ``add_scaled`` and ``substitute_var`` keep the
invariant given polynomials that already hold it: a monomial new to the
result is stored as its product term, which is nonzero, a coefficient
that cancels is deleted, and a zero multiplier ``lam`` returns ``p``
unchanged.  Both the engine and the proof replayer compute with these
functions, and the replayer reads ``lam`` from logs it does not trust.
"""

from __future__ import annotations

from fractions import Fraction

Mono = tuple[int, ...]
Poly = dict[Mono, Fraction]

CONST: Mono = ()


def mono_key(m: Mono):
    """Total order used for pivoting: quadratics, then linear, then constant."""
    return (-len(m), m)


def leading_mono(p: Poly) -> Mono:
    return min(p, key=mono_key)


def _accumulate(out: Poly, mono: Mono, coeff: Fraction) -> None:
    """out[mono] += coeff for a nonzero coeff, deleting a cancelled entry."""
    old = out.get(mono)
    if old is None:
        out[mono] = coeff
    else:
        coeff += old
        if coeff:
            out[mono] = coeff
        else:
            del out[mono]


def poly_from_terms(terms) -> Poly:
    out: Poly = {}
    for coeff, mono in terms:
        if coeff:
            _accumulate(out, tuple(sorted(mono)), coeff)
    return out


def add_scaled(p: Poly, q: Poly, lam: Fraction) -> Poly:
    """p + lam * q as a fresh dict."""
    out = dict(p)
    if not lam:
        return out
    if lam == 1:
        for m, c in q.items():
            _accumulate(out, m, c)
    else:
        for m, c in q.items():
            _accumulate(out, m, lam * c)
    return out


def poly_vars(p: Poly) -> set[int]:
    return {v for m in p for v in m}


def substitute_var(p: Poly, v: int, repl: Poly) -> Poly:
    """Replace variable v by an affine polynomial (degree <= 1).

    Quadratic monomials touching v expand via products of the
    replacement, so the result stays degree <= 2.
    """
    if any(len(m) > 1 for m in repl):
        raise ValueError("replacement must be affine")
    out: Poly = {}
    for m, c in p.items():
        cnt = m.count(v)
        if cnt == 0:
            _accumulate(out, m, c)
        elif len(m) == 1:  # (v,)
            for rm, rc in repl.items():
                _accumulate(out, rm, c * rc)
        elif cnt == 1:  # (v, w)
            w = m[0] if m[1] == v else m[1]
            for rm, rc in repl.items():
                _accumulate(out, tuple(sorted(rm + (w,))), c * rc)
        else:  # (v, v)
            items = list(repl.items())
            for ma, ca in items:
                for mb, cb in items:
                    _accumulate(out, tuple(sorted(ma + mb)), c * ca * cb)
    return out


def evaluate(p: Poly, value_of) -> object:
    """Evaluate with value_of(var) -> scalar; scalar ring must close under +,*.

    The constant term uses scalar multiplication by 1 of the coefficient,
    so Fractions, floats and RadicalSums all work.
    """
    total = None
    for m, c in p.items():
        term = c
        for v in m:
            term = value_of(v) * term
        total = term if total is None else total + term
    return total if total is not None else Fraction(0)

