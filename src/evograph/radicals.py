"""Exact arithmetic for real radical scalars.

A :class:`Radical` is a single term ``c * prod(p ** e_p)`` with rational
coefficient ``c``, prime bases ``p`` and rational exponents ``e_p`` in
the open interval (0, 1).  This normal form is unique: distinct products
of prime powers with fractional exponents are multiplicatively
independent, so two radicals are equal iff their normal forms match.
The class is closed under multiplication, division, integer powers and
n-th roots (of nonnegative values for even n), which covers every scalar
arising from the cube/square-root solving steps downstream, e.g.
``2**Fraction(-2,3)`` or ``(k1*k1*k2)**Fraction(-1,3)``.

A :class:`RadicalSum` is a formal rational combination of radical terms
keyed by their radical part.  Sums and products stay exact, and the zero
test is decidable: by linear independence of distinct radical parts over
the rationals, a sum vanishes iff every grouped coefficient vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Parts = tuple[tuple[int, Fraction], ...]


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are small)."""
    if n <= 0:
        raise ValueError(f"can only factor positive integers, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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

        Odd n accepts any sign; even n requires q >= 0.
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

    def nth_root(self, n: int) -> "Radical":
        """Exact real n-th root (even n requires a nonnegative value)."""
        if self.is_zero:
            return self
        sign = 1
        coeff = self.coeff
        if coeff < 0:
            if n % 2 == 0:
                raise ValueError(f"even root of negative radical {self}")
            sign, coeff = -1, -coeff
        base = Radical.root(coeff, n)
        exps = {p: e for p, e in base.parts}
        for p, e in self.parts:
            exps[p] = exps.get(p, Fraction(0)) + e / n
        c, parts = _normalize(sign * base.coeff, exps)
        return Radical(c, parts)

    def __neg__(self) -> "Radical":
        return Radical(-self.coeff, self.parts)

    def __float__(self) -> float:
        x = float(self.coeff)
        for p, e in self.parts:
            x *= float(p) ** float(e)
        return x

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.coeff)
        factors = "*".join(f"{p}^({e})" for p, e in self.parts)
        return f"{self.coeff}*{factors}"

    @staticmethod
    def parse(text: str) -> "Radical":
        chunks = text.strip().split("*")
        coeff = Fraction(chunks[0])
        exps: dict[int, Fraction] = {}
        for chunk in chunks[1:]:
            base, _, expo = chunk.partition("^")
            e = Fraction(expo.strip().strip("()"))
            b = int(base)
            if b < 0 or (b == 0 and e <= 0):
                raise ValueError(f"radical base {b} with exponent {e} in {text!r}")
            if b == 0:
                coeff = Fraction(0)
                continue
            for p, k in _factorize(b).items():
                exps[p] = exps.get(p, Fraction(0)) + k * e
        c, parts = _normalize(coeff, exps)
        return Radical(c, parts)


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

    def is_single_term(self) -> bool:
        return len(self.terms) <= 1

    def as_radical(self) -> Radical:
        if not self.terms:
            return Radical(Fraction(0))
        if len(self.terms) != 1:
            raise ValueError(f"{self} is not a single radical term")
        parts, coeff = next(iter(self.terms.items()))
        return Radical(coeff, parts)

    def __add__(self, other: "RadicalSum") -> "RadicalSum":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return RadicalSum(out)

    def __sub__(self, other: "RadicalSum") -> "RadicalSum":
        return self + (-other)

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({k: -v for k, v in self.terms.items()})

    def __mul__(self, other) -> "RadicalSum":
        if isinstance(other, (int, Fraction)):
            return RadicalSum({k: v * other for k, v in self.terms.items()})
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

