"""The shared polynomial kernel against a naive reference.

The engine and the proof replayer both compute with ``evograph.poly``,
so a kernel bug would fool both at once.  The references below add
one term at a time with plain ``Fraction`` sums and a ``Fraction(0)``
default, deleting a coefficient that cancels.  Results must match them
key for key and in insertion order: the engine iterates these dicts, so
the order is part of what keeps its logs unchanged.  The kernel builds
its coefficients itself, without the ``Fraction`` constructor, so every
result is also checked to be in lowest terms with a positive denominator.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evograph import poly
from evograph.deduce import prove_null_only
from evograph.graphs import bull_graph
from evograph.homsystem import derive_constraints
from evograph.prooflog import NULL_ONLY, replay_proof

VARS = st.integers(min_value=0, max_value=3)
MONOS = st.one_of(
    st.just(()),
    st.tuples(VARS),
    st.tuples(VARS, VARS).map(lambda m: tuple(sorted(m))),
)
AFFINE_MONOS = st.one_of(st.just(()), st.tuples(VARS))
# small parts, so that sums cancel often; denominators up to 36, which
# share factors; and parts past 2**64
FRACTIONS = st.one_of(
    st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    ),
    st.builds(
        Fraction,
        st.integers(min_value=-36, max_value=36),
        st.integers(min_value=1, max_value=36),
    ),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**80), max_value=2**80),
        st.integers(min_value=1, max_value=2**80),
    ),
)
NONZERO = FRACTIONS.filter(bool)
LAMS = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), FRACTIONS)


def ref_accumulate(out, mono, coeff):
    c = out.get(mono, Fraction(0)) + coeff
    if c:
        out[mono] = c
    elif mono in out:
        del out[mono]


def ref_from_terms(terms):
    out = {}
    for coeff, mono in terms:
        ref_accumulate(out, tuple(sorted(mono)), coeff)
    return out


def ref_add_scaled(p, q, lam):
    out = dict(p)
    for m, c in q.items():
        ref_accumulate(out, m, lam * c)
    return out


def ref_substitute(p, v, repl):
    """Expand each monomial as a product of its factors, v -> repl, term by term."""
    out = {}
    for m, c in p.items():
        terms = [(c, ())]
        for w in m:
            factor = repl.items() if w == v else [((w,), Fraction(1))]
            terms = [(tc * fc, tuple(sorted(tm + fm))) for tc, tm in terms for fm, fc in factor]
        for tc, tm in terms:
            ref_accumulate(out, tm, tc)
    return out


def polys(monos=MONOS):
    return st.lists(st.tuples(NONZERO, monos), max_size=8).map(ref_from_terms)


def assert_lowest_terms(c):
    assert type(c) is Fraction
    assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


def assert_kernel_form(p):
    for c in p.values():
        assert_lowest_terms(c)
        assert c != 0
    assert all(list(m) == sorted(m) and len(m) <= 2 for m in p)


def same(got, want):
    assert list(got.items()) == list(want.items())
    assert_kernel_form(got)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FRACTIONS, MONOS), max_size=10))
def test_poly_from_terms_matches_reference(terms):
    same(poly.poly_from_terms(terms), ref_from_terms(terms))


@settings(max_examples=300, deadline=None)
@given(polys(), polys(), LAMS)
def test_add_scaled_matches_reference(p, q, lam):
    before = dict(p)
    same(poly.add_scaled(p, q, lam), ref_add_scaled(p, q, lam))
    assert p == before


@settings(max_examples=300, deadline=None)
@given(polys(), VARS, polys(AFFINE_MONOS))
def test_substitute_var_matches_reference(p, v, repl):
    same(poly.substitute_var(p, v, repl), ref_substitute(p, v, repl))


def same_fraction(got, want):
    assert_lowest_terms(got)
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)
    assert str(got) == str(want)


@settings(max_examples=500, deadline=None)
@given(FRACTIONS, FRACTIONS)
def test_kernel_product_and_sum_match_fraction(a, b):
    # the helpers write Fraction's _numerator and _denominator slots
    # directly; a Fraction without them fails here first
    same_fraction(poly._mul(a, b), a * b)
    same_fraction(poly._sum(a, b), a + b)
    same_fraction(poly._sum(a, -a), Fraction(0))


@settings(max_examples=500, deadline=None)
@given(FRACTIONS, FRACTIONS)
def test_kernel_negated_quotient_matches_fraction(a, b):
    if b:
        same_fraction(poly.neg_quotient(a, b), -a / b)
    else:
        with pytest.raises(ZeroDivisionError):
            poly.neg_quotient(a, b)


@given(polys(), polys())
def test_zero_multiplier_leaves_p_unchanged(p, q):
    out = poly.add_scaled(p, q, Fraction(0))
    assert out == p and out is not p


@given(polys(), LAMS.filter(bool))
def test_cancellation_to_the_empty_poly(p, lam):
    assert poly.add_scaled(poly.add_scaled({}, p, lam), p, -lam) == {}
    assert poly.poly_from_terms([(c, m) for m, c in p.items()] + [(-c, m) for m, c in p.items()]) == {}


def test_substitution_cancels_to_the_empty_poly():
    # x^2 + 2xy + y^2 with y -> -x is (x - x)^2
    one = Fraction(1)
    p = poly.poly_from_terms([(one, (0, 0)), (2 * one, (0, 1)), (one, (1, 1))])
    assert poly.substitute_var(p, 1, {(0,): -one}) == {}
    assert poly.substitute_var({(0,): one, (): -one}, 0, {(): one}) == {}


def test_replay_accepts_a_zero_multiplier_part():
    g = bull_graph()
    sys = derive_constraints(g)
    log = prove_null_only(g).log
    assert log.verdict == NULL_ONLY
    steps = list(log.steps)
    i = next(i for i, s in enumerate(steps) if s.payload.get("op") == "lincomb")
    s = steps[i]
    extra = ("c", 0)
    steps[i] = dataclasses.replace(
        s,
        premises=s.premises + (extra,),
        payload={**s.payload, "parts": list(s.payload["parts"]) + [(extra, Fraction(0))]},
    )
    assert replay_proof(sys, dataclasses.replace(log, steps=steps))
