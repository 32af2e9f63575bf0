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

Every coefficient is a ``Fraction`` in lowest terms with a positive
denominator, the one form ``Fraction`` itself normalises to, so equal
values agree in every respect (numerator, denominator, hash, text).
``add_scaled``, ``substitute_var`` and ``neg_quotient`` compute on the
integer numerators and denominators of their coefficients and build each
result directly in that form, as ``Fraction``'s own arithmetic does, without
its operator dispatch or the constructor's normalisation.  They read and
write the ``_numerator`` and ``_denominator`` slots of CPython's
``Fraction``; ``tests/test_poly.py`` checks their results against
``Fraction``'s arithmetic.  Their inputs must hold the same form:
coefficients of type ``Fraction``, never ``int`` or ``float``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Mono = tuple[int, ...]
Poly = dict[Mono, Fraction]

CONST: Mono = ()


def mono_key(m: Mono):
    """Total order used for pivoting: quadratics, then linear, then constant."""
    return (-len(m), m)


def leading_mono(p: Poly) -> Mono:
    return min(p, key=mono_key)


_new = object.__new__


def _frac(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built as it stands."""
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _mul(a: Fraction, b: Fraction) -> Fraction:
    """a * b in lowest terms, cancelling across before multiplying."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _frac(na * nb, da * db)


def neg_quotient(a: Fraction, b: Fraction) -> Fraction:
    """-a / b in lowest terms, cancelling across before multiplying."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    if not nb:
        raise ZeroDivisionError(f"Fraction({na}, 0)")
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(da, db)
    if g2 > 1:
        da //= g2
        db //= g2
    if nb < 0:
        return _frac(na * db, -da * nb)
    return _frac(-na * db, da * nb)


def _sum(a: Fraction, b: Fraction) -> Fraction:
    """a + b in lowest terms (Knuth, TAOCP 4.5.1), 0 as 0/1."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        return _frac(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _frac(t, s * db)
    return _frac(t // g2, s * (db // g2))


def _accumulate(out: Poly, mono: Mono, coeff: Fraction) -> None:
    """out[mono] += coeff for a nonzero coeff, deleting a cancelled entry."""
    old = out.get(mono)
    if old is None:
        out[mono] = coeff
    else:
        coeff = _sum(old, coeff)
        if coeff._numerator:
            out[mono] = coeff
        else:
            del out[mono]


def poly_from_terms(terms) -> Poly:
    out: Poly = {}
    for coeff, mono in terms:
        if coeff:
            _accumulate(out, tuple(sorted(mono)), coeff)
    return out


def add_scaled_to(out: Poly, q: Poly, lam: Fraction) -> None:
    """out += lam * q, in place."""
    if not lam._numerator:
        return
    if lam._numerator == lam._denominator:  # lam == 1
        for m, c in q.items():
            _accumulate(out, m, c)
    else:
        for m, c in q.items():
            _accumulate(out, m, _mul(lam, c))


def add_scaled(p: Poly, q: Poly, lam: Fraction) -> Poly:
    """p + lam * q as a fresh dict."""
    out = dict(p)
    add_scaled_to(out, q, lam)
    return out


def poly_vars(p: Poly) -> set[int]:
    return {v for m in p for v in m}


def substitute_var(p: Poly, v: int, repl: Poly) -> Poly:
    """Replace variable v by an affine polynomial (degree <= 1).

    Quadratic monomials touching v expand via products of the
    replacement, so the result stays degree <= 2.  Replacing v by zero
    drops the monomials that hold v.
    """
    if any(len(m) > 1 for m in repl):
        raise ValueError("replacement must be affine")
    if not repl:
        return {m: c for m, c in p.items() if v not in m}
    out: Poly = {}
    for m, c in p.items():
        if v not in m:
            _accumulate(out, m, c)
        elif len(m) == 1:  # (v,)
            for rm, rc in repl.items():
                _accumulate(out, rm, _mul(c, rc))
        elif m[0] != m[1]:  # (v, w)
            w = m[0] if m[1] == v else m[1]
            for rm, rc in repl.items():
                _accumulate(out, tuple(sorted(rm + (w,))), _mul(c, rc))
        else:  # (v, v)
            items = list(repl.items())
            for ma, ca in items:
                cca = _mul(c, ca)
                for mb, cb in items:
                    _accumulate(out, tuple(sorted(ma + mb)), _mul(cca, cb))
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

