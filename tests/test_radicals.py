import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from evograph.radicals import (
    _MR_EXACT,
    _SMALL_PRIMES,
    MAX_DIGITS,
    FactoringEffortExceeded,
    Radical,
    RadicalSum,
    _is_prime,
    fraction_str,
    parse_fraction,
)

F = Fraction

rationals = st.fractions(min_value=-50, max_value=50).filter(lambda q: q != 0)
positive_rationals = st.fractions(min_value=F(1, 20), max_value=50)

# A drawn rational whose numerator leaves a 100-bit composite cofactor
# after trial division
HARD = F(60820717938928044897687358668797, 1216414358778560897953747173376)


def _prime_at_most(n: int) -> int:
    while not _is_prime(n):
        n -= 1
    return n


# Products of powers of _SMALL_PRIMES, times at most one prime below
# _MR_EXACT: the integers that trial division factors
_smooth = st.lists(
    st.tuples(st.sampled_from(_SMALL_PRIMES), st.integers(min_value=1, max_value=6)), max_size=4
).map(lambda pes: math.prod(p**e for p, e in pes))
_factorable_ints = st.builds(
    lambda m, p: m * p,
    _smooth,
    st.one_of(st.just(1), st.integers(min_value=2, max_value=_MR_EXACT - 1).map(_prime_at_most)),
)
factorable = st.builds(
    lambda sign, a, b: F(sign * a, b), st.sampled_from((1, -1)), _factorable_ints, _factorable_ints
)


def test_root_gives_up_on_a_hard_cofactor():
    with pytest.raises(FactoringEffortExceeded, match="100-bit"):
        Radical.root(HARD, 2)
    # the first prime above _MR_EXACT, a base the replayer would reject
    with pytest.raises(FactoringEffortExceeded, match="82-bit"):
        Radical.root(3317044064679887385962123, 3)


def test_cube_root_normal_form():
    r = Radical.root(F(1, 4), 3)
    assert r.coeff == F(1, 2) and r.parts == ((2, F(1, 3)),)
    assert r == Radical.root(2, 3).inverse() ** 2
    assert abs(float(r) - 0.25 ** (1 / 3)) < 1e-12


def test_known_constants():
    assert Radical.root(F(1, 2), 3) == Radical(F(1, 2), ((2, F(2, 3)),))
    # 1/sqrt(6) factors over both prime bases
    inv_sqrt6 = Radical.root(F(1, 6), 2)
    assert inv_sqrt6.parts == ((2, F(1, 2)), (3, F(1, 2)))
    assert inv_sqrt6.coeff == F(1, 6)


def test_even_root_of_negative_rejected():
    with pytest.raises(ValueError):
        Radical.root(F(-4), 2)
    assert Radical.root(F(-8), 3) == Radical.from_rational(-2)


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_cube_root_cubes_back(q):
    try:
        r = Radical.root(q, 3)
    except FactoringEffortExceeded:
        return  # the documented give-up
    assert (r ** 3).as_rational() == q


@settings(max_examples=300, deadline=None)
@given(positive_rationals, st.integers(min_value=1, max_value=5))
def test_roots_invert_powers(q, n):
    try:
        r = Radical.root(q, n)
    except FactoringEffortExceeded:
        return  # the documented give-up
    assert (r ** n).as_rational() == q


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
@example(F(1), HARD)
def test_multiplication_matches_floats(a, b):
    try:
        x = Radical.root(abs(a), 3) * Radical.root(abs(b), 2)
    except FactoringEffortExceeded:
        return  # the documented give-up
    assert abs(float(x) - abs(a) ** (1 / 3) * abs(b) ** 0.5) < 1e-9 * max(1.0, abs(float(x)))


@settings(max_examples=200, deadline=None)
@given(rationals)
def test_parse_round_trip(q):
    try:
        r = Radical.root(q, 3) * Radical.root(abs(q), 2)
    except FactoringEffortExceeded:
        return  # the documented give-up
    assert Radical.parse(str(r)) == r


@settings(max_examples=300, deadline=None)
@given(factorable)
def test_root_of_a_factorable_rational_writes_only_checked_bases(q):
    r = Radical.root(q, 3)
    assert (r ** 3).as_rational() == q
    assert all(_is_prime(p) for p, _ in r.parts)


def test_parse_rejects_negative_base():
    with pytest.raises(ValueError):
        Radical.parse("1*-2^(1/3)")


class TestRadicalSum:
    def test_cancellation(self):
        x = RadicalSum.from_radical(Radical.root(F(1, 4), 3))
        assert (x - x).is_zero
        assert not x - x and x and not bool(RadicalSum())
        half = RadicalSum.from_rational(F(1, 2))
        assert F(1, 2) + x == x + half and half + 1 == RadicalSum.from_rational(F(3, 2))
        assert not F(-1, 2) + half

    def test_independent_parts_never_cancel(self):
        s = RadicalSum.from_radical(Radical.root(2, 3)) + RadicalSum.from_radical(
            Radical.root(3, 3)
        )
        assert not s.is_zero and not s.is_single_term()

    def test_product_distributes(self):
        a = RadicalSum.from_radical(Radical.root(2, 3)) + RadicalSum.from_rational(1)
        b = RadicalSum.from_radical(Radical.root(2, 3)) - RadicalSum.from_rational(1)
        prod = a * b
        # (c + 1)(c - 1) = c^2 - 1 with c = 2^(1/3)
        expected = RadicalSum.from_radical(Radical(F(1), ((2, F(2, 3)),))) - RadicalSum.from_rational(1)
        assert prod == expected

    def test_as_radical_requires_single_term(self):
        s = RadicalSum.from_rational(2) + RadicalSum.from_radical(Radical.root(5, 2))
        with pytest.raises(ValueError):
            s.as_radical()

    @pytest.mark.parametrize("other", [0.5, "1/2", None])
    def test_other_operand_types_raise_type_error(self, other):
        half = RadicalSum.from_rational(F(1, 2))
        for op in (lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a * b, lambda a, b: b * a):
            with pytest.raises(TypeError):
                op(half, other)

    @settings(max_examples=100, deadline=None)
    @given(factorable, rationals)
    def test_float_agreement(self, a, b):
        s = RadicalSum.from_radical(Radical.root(abs(a), 3)) + RadicalSum.from_rational(b)
        assert abs(float(s) - (abs(a) ** (1 / 3) + float(b))) < 1e-9 * max(1.0, abs(float(s)))


@pytest.mark.parametrize(
    "q",
    [F(0), F(-7, 3), F(10**5000 + 1, 3**9000), -F(10**17347), F(1, 10**4300)],
    ids=["zero", "small", "long-ratio", "long-negative", "long-denominator"],
)
def test_fraction_text_is_exact_past_the_int_str_limit(q):
    text = fraction_str(q)
    assert parse_fraction(text) == q
    if abs(q.numerator) < 10**100 and q.denominator < 10**100:
        assert text == str(q)
    assert fraction_str(F(10**5000)) == "1" + "0" * 5000


@pytest.mark.parametrize(
    "text",
    [
        "1" * (MAX_DIGITS + 1),
        "1/" + "3" * (MAX_DIGITS + 1),
        "1.5",
        "+2",
        "2/-3",
        "",
        "2/4",
        " 1",
        "-0",
        "007",
        "3/1",
    ],
)
def test_parse_fraction_rejects_text_fraction_str_never_writes(text):
    with pytest.raises(ValueError):
        parse_fraction(text)
    assert parse_fraction("-" + "9" * MAX_DIGITS) == -(10**MAX_DIGITS - 1)


def test_long_radical_coefficient_round_trips():
    r = Radical.root(2, 3) * Radical.from_rational(F(-(10**6000) - 1, 7))
    assert Radical.parse(str(r)) == r
