"""Sparse exact Laurent polynomials in one variable over the rationals.

A Laurent polynomial is stored as a map {exponent: coefficient} with
integer exponents of either sign and nonzero ``Fraction`` coefficients.
The zero polynomial has an empty map.  Values are immutable and hashable;
every operation returns a new object, so instances are safe to share
across threads.

The public constructor ``LaurentPoly(terms)`` validates and copies its
input.  Arithmetic builds its results through the private trusted
constructor :func:`_trusted`, which wraps a term map as it is: the caller
guarantees int exponents and nonzero ``Fraction`` coefficients, and hands
the map over (nothing may mutate it afterwards).

Canonical text form lists terms in ascending exponent order, e.g.
``-x^-1 + 2 + 3/2*x^2``.  The parser for this syntax lives in
:mod:`bgsplit.io`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Tuple, Union

Scalar = Union[int, Fraction]
_FRACTION_ZERO = Fraction(0)  # Fractions are immutable, so one zero serves every miss


def _long_division(rem: dict, divisor: Mapping[int, Fraction], stop: int) -> dict:
    """Long division by the nonzero ``divisor`` from the top term, in place
    on the remainder map ``rem``: one pass per quotient term while the top
    exponent of ``rem`` is at least ``stop``.  Returns the quotient's term
    map and leaves the remainder in ``rem``."""
    top = max(divisor)
    lead = divisor[top]
    quot = {}
    while rem:
        high = max(rem)
        if high < stop:
            break
        shift = high - top
        c = quot[shift] = rem[high] / lead
        for e, v in divisor.items():
            k = e + shift
            s = rem.get(k, 0) - c * v
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quot


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"rational coefficient expected, got {type(value).__name__}")


class LaurentPoly:
    """Immutable sparse Laurent polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[int, Scalar]] = None):
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                c = _coerce(coeff)
                if c:
                    clean[int(exp)] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def constant(c: Scalar) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def x_power(exp: int) -> "LaurentPoly":
        """The monomial x^exp."""
        return LaurentPoly({exp: 1})

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> Mapping[int, Fraction]:
        return dict(self._terms)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        """Terms in ascending exponent order."""
        return iter(sorted(self._terms.items()))

    def coeff(self, exp: int) -> Fraction:
        return self._terms.get(exp, _FRACTION_ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def ord(self) -> int:
        """Smallest exponent with a nonzero coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no order")
        return min(self._terms)

    def deg(self) -> int:
        """Largest exponent with a nonzero coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self._terms)

    def as_monomial(self) -> Optional[Tuple[Fraction, int]]:
        """Return (c, t) when self = c*x^t with c != 0, else None.

        A Laurent polynomial is a unit of the ring exactly when it is a
        nonzero monomial, so this doubles as the unit test.
        """
        if len(self._terms) != 1:
            return None
        exp, coeff = next(iter(self._terms.items()))
        return coeff, exp

    def is_polynomial(self) -> bool:
        """True when no exponent is negative (element of Q[x])."""
        return all(e >= 0 for e in self._terms)

    def is_antipolynomial(self) -> bool:
        """True when no exponent is positive (element of Q[x^-1])."""
        return all(e <= 0 for e in self._terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            old = terms.get(exp)
            if old is None:
                terms[exp] = coeff
            else:
                s = old + coeff
                if s:
                    terms[exp] = s
                else:
                    del terms[exp]
        return _trusted(terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        left, right = self._terms, other._terms
        if not left or not right:
            return _trusted({})
        # A single-term factor scales the other one; a unit monomial x^k
        # only shifts it.
        if len(left) == 1:
            (e1, c1), = left.items()
            if c1 == 1:
                return other.shift(e1)
        if len(right) == 1:
            (e2, c2), = right.items()
            if c2 == 1:
                return self.shift(e2)
            return _trusted({e1 + e2: c1 * c2 for e1, c1 in left.items()})
        if len(left) == 1:
            return _trusted({e1 + e2: c1 * c2 for e2, c2 in right.items()})
        # Schoolbook on integers: each factor over the lcm of its denominators.
        dl = lcm(*(c.denominator for c in left.values()))
        dr = lcm(*(c.denominator for c in right.values()))
        ints = [(e, c.numerator * (dr // c.denominator)) for e, c in right.items()]
        prod: dict = {}
        for e1, c1 in left.items():
            a = c1.numerator * (dl // c1.denominator)
            for e2, b in ints:
                e = e1 + e2
                prod[e] = prod.get(e, 0) + a * b
        den = dl * dr
        return _trusted({e: Fraction(v, den) for e, v in prod.items() if v})

    __rmul__ = __mul__

    def __floordiv__(self, other) -> "LaurentPoly":
        """Exact quotient in Q[x, x^-1], by long division from the top term.

        Raises ArithmeticError when ``other`` does not divide ``self``:
        the quotient would need a term below ord(self) - ord(other).
        """
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if not self._terms:
            return _trusted({})
        divisor = other._terms
        rem = dict(self._terms)
        quot = _long_division(rem, divisor, min(self._terms) - min(divisor) + max(divisor))
        if rem:
            raise ArithmeticError("inexact division of Laurent polynomials")
        return _trusted(quot)

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: Scalar) -> "LaurentPoly":
        c = _coerce(c)
        if not c:
            return _trusted({})
        return _trusted({e: v * c for e, v in self._terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x^k (shift every exponent by k)."""
        if not k:
            return self
        return _trusted({e + k: c for e, c in self._terms.items()})

    def reciprocal_substitution(self) -> "LaurentPoly":
        """The Laurent polynomial p(1/x) (negate every exponent)."""
        return _trusted({-e: c for e, c in self._terms.items()})

    def derivative(self) -> "LaurentPoly":
        return _trusted({e - 1: c * e for e, c in self._terms.items() if e})

    def evaluate(self, point: Scalar) -> Fraction:
        """Evaluate at a nonzero rational point (nonzero if ord < 0)."""
        a = _coerce(point)
        if a == 0 and self._terms and min(self._terms) < 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponents")
        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * a**e
        return total

    @staticmethod
    def _lift(value) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return LaurentPoly.constant(value)
        return NotImplemented

    # -- comparison and display ---------------------------------------

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """The number of nonzero terms."""
        return len(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in sorted(self._terms.items()):
            if exp == 0:
                body = str(coeff)
            else:
                xs = "x" if exp == 1 else f"x^{exp}"
                if coeff == 1:
                    body = xs
                elif coeff == -1:
                    body = "-" + xs
                else:
                    body = f"{coeff}*{xs}"
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            if body.startswith("-"):
                out += " - " + body[1:]
            else:
                out += " + " + body
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


_new = object.__new__
_set_terms = LaurentPoly._terms.__set__


def _trusted(terms: dict) -> LaurentPoly:
    """Wrap a term map that is already clean, without checking or copying.

    Contract: every key is an int, every value a nonzero ``Fraction``, and
    the map belongs to the result from now on.  Inputs that may break it
    go through ``LaurentPoly(...)``, which validates.
    """
    poly = _new(LaurentPoly)
    _set_terms(poly, terms)
    return poly


X = LaurentPoly.x_power(1)


def lp(terms: Mapping[int, Scalar]) -> LaurentPoly:
    """Shorthand constructor from an {exponent: coefficient} map."""
    return LaurentPoly(terms)


def exponent_range(polys: Iterable[LaurentPoly]) -> Tuple[int, int]:
    """(min exponent, max exponent) over the nonzero entries of an iterable.

    Raises ValueError when every element is zero.
    """
    lo = None
    hi = None
    for p in polys:
        if p.is_zero:
            continue
        o, d = p.ord(), p.deg()
        lo = o if lo is None else min(lo, o)
        hi = d if hi is None else max(hi, d)
    if lo is None:
        raise ValueError("all polynomials are zero")
    return lo, hi
