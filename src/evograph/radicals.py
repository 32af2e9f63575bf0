"""Exact arithmetic for real radical scalars.

A :class:`Radical` is a single term ``c * prod(p ** e_p)`` with rational
coefficient ``c``, prime bases ``p`` and rational exponents ``e_p`` in
the open interval (0, 1).  This normal form is unique: distinct products
of prime powers with fractional exponents are multiplicatively
independent, so two radicals are equal iff their normal forms match.
The class is closed under multiplication, division and integer powers,
and ``Radical.root`` takes exact n-th roots of rationals, which covers
every scalar arising from the cube/square-root solving steps downstream, e.g.
``2**Fraction(-2,3)`` or ``(k1*k1*k2)**Fraction(-1,3)``.

``Radical.root`` factors by trial division by the primes below 1000 only; a
cofactor left over must be a prime below ``_MR_EXACT``, or it raises
``FactoringEffortExceeded`` at once.  So every base it writes passes
``_is_prime``, which the proof replayer applies to a stated cube root.

A :class:`RadicalSum` is a formal rational combination of radical terms
keyed by their radical part.  Sums and products stay exact, and the zero
test is decidable: by linear independence of distinct radical parts over
the rationals, a sum vanishes iff every grouped coefficient vanishes.
A RadicalSum adds and multiplies with ``int`` and ``Fraction`` on either
side, and with no other type, and is true iff nonzero; ``==`` holds
between two RadicalSums only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

Parts = tuple[tuple[int, Fraction], ...]


_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, isqrt(p) + 1))]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with _MR_BASES is exact below this bound (Sorenson & Webster 2015).
_MR_EXACT = 3317044064679887385961981


class FactoringEffortExceeded(ArithmeticError):
    """Trial division by ``_SMALL_PRIMES`` left a cofactor that is not a
    prime below ``_MR_EXACT``."""


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization, ascending, by trial division by ``_SMALL_PRIMES``.

    A cofactor left over counts as one more prime when ``_is_prime`` accepts
    it; any other cofactor raises ``FactoringEffortExceeded``.  So every
    prime returned is one that ``_is_prime`` accepts.
    """
    if n <= 0:
        raise ValueError(f"can only factor positive integers, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if not _is_prime(n):
            raise FactoringEffortExceeded(
                f"trial division leaves a {n.bit_length()}-bit cofactor, not a prime below _MR_EXACT"
            )
        out[n] = 1
    return out


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES: true exactly for the primes below _MR_EXACT."""
    if n < 2 or n >= _MR_EXACT:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _normalize(coeff: Fraction, exponents: dict[int, Fraction]) -> tuple[Fraction, Parts]:
    """Fold integer exponent parts into the coefficient; keep e in (0,1)."""
    if coeff == 0:
        return Fraction(0), ()
    parts: list[tuple[int, Fraction]] = []
    for p in sorted(exponents):
        e = exponents[p]
        if e == 0:
            continue
        whole = e.numerator // e.denominator  # floor
        frac = e - whole
        coeff *= Fraction(p) ** whole
        if frac:
            parts.append((p, frac))
    return coeff, tuple(parts)


# Python converts int <-> str only up to sys.get_int_max_str_digits() digits
# (4300 by default, never below 640), and exact coefficients outgrow that.
# Longer integers are converted in pieces of _PIECE digits instead.
_PIECE = 600
_TEN_PIECE = 10**_PIECE
_FRACTION = re.compile(r"(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?")
_FACTOR = re.compile(r"([0-9]+)\^\(([0-9]+/[0-9]+)\)")
# The longest numerator or denominator parse_fraction reads.  Engine logs on
# graphs with up to 6 vertices carry at most 48 466 digits.  Reading a fraction
# of two random numbers at this cap takes 0.18 s on one Xeon core, mostly in
# Fraction's gcd, which is quadratic; so forged text costs at most about that
# much per 200 kB, however long its numbers.
MAX_DIGITS = 100_000


def _int_str(n: int) -> str:
    if n < 0:
        return "-" + _int_str(-n)
    pieces = []
    while n >= _TEN_PIECE:
        n, low = divmod(n, _TEN_PIECE)
        pieces.append(str(low).zfill(_PIECE))
    return str(n) + "".join(reversed(pieces))


def _digits_int(digits: str) -> int:
    if len(digits) <= _PIECE:
        return int(digits)
    k = len(digits) // 2
    return _digits_int(digits[:-k]) * 10**k + _digits_int(digits[-k:])


def fraction_str(q: Fraction) -> str:
    """``str(q)``, also when q is too long for ``str``."""
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


def parse_fraction(text: str) -> Fraction:
    """The fraction ``fraction_str`` wrote as text, up to ``MAX_DIGITS`` digits a part.

    Only that text is read: no spaces, leading zeros, ``-0`` or denominator
    1, and lowest terms; any other text raises ``ValueError``.
    """
    m = _FRACTION.fullmatch(text)
    if m is None or m[3] == "1" or (m[1] and m[2] == "0"):
        raise ValueError(f"not a fraction as fraction_str writes it: {text[:50]!r}")
    if max(len(m[2]), len(m[3] or "")) > MAX_DIGITS:
        raise ValueError(f"fraction longer than {MAX_DIGITS} digits")
    den = _digits_int(m[3] or "1")
    q = Fraction(_digits_int(m[2]), den)
    if q.denominator != den:
        raise ValueError(f"fraction not in lowest terms: {text[:50]!r}")
    return -q if m[1] else q


@dataclass(frozen=True)
class Radical:
    coeff: Fraction
    parts: Parts = ()

    @staticmethod
    def from_rational(q) -> "Radical":
        return Radical(Fraction(q))

    @staticmethod
    def root(q, n: int) -> "Radical":
        """Exact real n-th root of a rational.

        Odd n accepts any sign; even n requires q >= 0.  Raises
        ``FactoringEffortExceeded`` where ``_factorize`` gives up.
        """
        q = Fraction(q)
        if n <= 0:
            raise ValueError("root index must be positive")
        if q == 0:
            return Radical(Fraction(0))
        sign = 1
        if q < 0:
            if n % 2 == 0:
                raise ValueError(f"even root of negative rational {q}")
            sign, q = -1, -q
        exps: dict[int, Fraction] = {}
        for p, k in _factorize(q.numerator).items():
            exps[p] = exps.get(p, Fraction(0)) + Fraction(k, n)
        for p, k in _factorize(q.denominator).items():
            exps[p] = exps.get(p, Fraction(0)) - Fraction(k, n)
        coeff, parts = _normalize(Fraction(sign), exps)
        return Radical(coeff, parts)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def is_rational(self) -> bool:
        return not self.parts

    def as_rational(self) -> Fraction:
        if self.parts:
            raise ValueError(f"{self} is irrational")
        return self.coeff

    def __mul__(self, other) -> "Radical":
        if isinstance(other, (int, Fraction)):
            other = Radical.from_rational(other)
        if not isinstance(other, Radical):
            return NotImplemented
        exps: dict[int, Fraction] = {p: e for p, e in self.parts}
        for p, e in other.parts:
            exps[p] = exps.get(p, Fraction(0)) + e
        coeff, parts = _normalize(self.coeff * other.coeff, exps)
        return Radical(coeff, parts)

    __rmul__ = __mul__

    def inverse(self) -> "Radical":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero radical")
        exps = {p: -e for p, e in self.parts}
        coeff, parts = _normalize(1 / self.coeff, exps)
        return Radical(coeff, parts)

    def __truediv__(self, other) -> "Radical":
        if isinstance(other, (int, Fraction)):
            other = Radical.from_rational(other)
        return self * other.inverse()

    def __pow__(self, k: int) -> "Radical":
        if k < 0:
            return self.inverse() ** (-k)
        out = Radical.from_rational(1)
        for _ in range(k):
            out = out * self
        return out

    def __neg__(self) -> "Radical":
        return Radical(-self.coeff, self.parts)

    def __float__(self) -> float:
        x = float(self.coeff)
        for p, e in self.parts:
            x *= float(p) ** float(e)
        return x

    def __str__(self) -> str:
        if self.is_rational:
            return fraction_str(self.coeff)
        factors = "*".join(f"{p}^({e})" for p, e in self.parts)
        return f"{fraction_str(self.coeff)}*{factors}"

    @staticmethod
    def parse(text: str) -> "Radical":
        """The radical whose ``str`` is ``text``, built as written.

        Only that text is read: a coefficient as ``fraction_str`` writes
        it, nonzero when factors follow, then factors ``*p^(a/b)`` with
        bases strictly ascending from 2 and exponents in (0, 1).  Nothing
        is factored, and any other text raises ``ValueError``.  Bases are
        not tested for primality: the replayer compares a stated value with
        one computed from its premises, or tests a stated cube root's bases
        itself.
        """
        head, *factors = text.split("*")
        parts = []
        for factor in factors:
            m = _FACTOR.fullmatch(factor)
            if m is None or len(m[1]) > MAX_DIGITS:
                raise ValueError(f"not a radical factor: {factor[:50]!r}")
            parts.append((_digits_int(m[1]), parse_fraction(m[2])))
        r = Radical(parse_fraction(head), tuple(parts))
        bases = [1] + [p for p, _ in parts]
        if (
            (parts and not r.coeff)
            or any(a >= b for a, b in zip(bases, bases[1:]))
            or any(not 0 < e < 1 for _, e in parts)
            or str(r) != text
        ):
            raise ValueError(f"not a radical as str writes it: {text[:50]!r}")
        return r


class RadicalSum:
    """Formal rational combination of radical terms, keyed by radical part."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Parts, Fraction] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @staticmethod
    def from_radical(r: Radical) -> "RadicalSum":
        return RadicalSum({r.parts: r.coeff} if not r.is_zero else {})

    @staticmethod
    def from_rational(q) -> "RadicalSum":
        return RadicalSum.from_radical(Radical.from_rational(q))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_single_term(self) -> bool:
        return len(self.terms) <= 1

    def as_radical(self) -> Radical:
        if not self.terms:
            return Radical(Fraction(0))
        if len(self.terms) != 1:
            raise ValueError(f"{self} is not a single radical term")
        parts, coeff = next(iter(self.terms.items()))
        return Radical(coeff, parts)

    def __add__(self, other) -> "RadicalSum":
        if isinstance(other, (int, Fraction)):
            other = RadicalSum.from_rational(other)
        elif not isinstance(other, RadicalSum):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return RadicalSum(out)

    __radd__ = __add__

    def __sub__(self, other: "RadicalSum") -> "RadicalSum":
        return self + (-other)

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({k: -v for k, v in self.terms.items()})

    def __mul__(self, other) -> "RadicalSum":
        if isinstance(other, (int, Fraction)):
            return RadicalSum({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, RadicalSum):
            return NotImplemented
        out: dict[Parts, Fraction] = {}
        for ka, va in self.terms.items():
            ra = Radical(va, ka)
            for kb, vb in other.terms.items():
                prod = ra * Radical(vb, kb)
                out[prod.parts] = out.get(prod.parts, Fraction(0)) + prod.coeff
        return RadicalSum(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __float__(self) -> float:
        return float(sum(float(Radical(c, p)) for p, c in self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(Radical(c, p)) for p, c in sorted(self.terms.items()))

