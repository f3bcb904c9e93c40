"""Univariate polynomial helpers and exact rational functions over Q.

Polynomials are :class:`~bgsplit.laurent.LaurentPoly` values with only
nonnegative exponents.  A :class:`RatFunc` is a reduced fraction num/den
with den monic, so equality is plain structural equality.  Rational
functions are the coefficient domain for differential operators; the
helpers here (division, gcd, radical, shifts) are the exact plumbing
those computations need.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import List, Optional, Tuple, Union

from .errors import NotInvertible, WorkBudgetExceeded, decimal
from .laurent import LaurentPoly, Scalar, _coerce, _long_division, _trusted
from .lmatrix import _digit_bytes, _laurent, _pack, _unpack


class Infinity:
    """Singleton marker for the point at infinity on the sphere."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


INF = Infinity()
Point = Union[Fraction, int, Infinity]

# Work budget of poly_gcd and poly_shift: the remainder sequence and the
# shift run on dense coefficient lists, so operands of higher degree (for
# the gcd, after the common power of x is split off) are refused with
# WorkBudgetExceeded.
GCD_DEGREE_BUDGET = 1 << 12


def _require_poly(p: LaurentPoly, what: str = "operand") -> LaurentPoly:
    if not p.is_polynomial():
        raise ValueError(f"{what} must have nonnegative exponents only")
    return p


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Long division a = q*b + r with deg r < deg b, over Q[x]: the shared
    top-term loop, stopped below deg b."""
    _require_poly(a), _require_poly(b)
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = a.terms
    quot = _long_division(rem, b.terms, b.deg())
    return _trusted(quot), _trusted(rem)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd over Q[x] (gcd(0, 0) = 0).

    The common power of x is split off and the rest is the gcd of the
    primitive Z[x] parts f and g: first by the heuristic ``_heuristic_gcd``
    (GCDHEU; Char, Geddes and Gonnet, JSC 1989), and when that gives no
    answer by the primitive polynomial remainder sequence (Brown, JACM
    1971), where each pseudo-remainder is divided by the gcd of its
    coefficients, so no fraction appears until the last primitive
    remainder is made monic.  When either operand is a monomial the gcd is
    that power of x, found without the dense coefficient lists; otherwise
    an operand of degree above GCD_DEGREE_BUDGET, once its power of x is
    split off, is refused before the lists are built.
    """
    _require_poly(a), _require_poly(b)
    if a.is_zero or b.is_zero:
        p = b if a.is_zero else a
        return p if p.is_zero else p.scale(1 / p.coeff(p.deg()))
    low = min(a.ord(), b.ord())
    if a.as_monomial() is not None or b.as_monomial() is not None:
        return LaurentPoly.x_power(low)
    for p in (a, b):
        if p.deg() - p.ord() > GCD_DEGREE_BUDGET:
            raise WorkBudgetExceeded(
                f"polynomial gcd on degree {decimal(p.deg() - p.ord())} exceeds the work budget "
                f"of degree {GCD_DEGREE_BUDGET}"
            )
    f, g = _primitive_coeffs(a), _primitive_coeffs(b)
    h = _heuristic_gcd(f, g)
    if h is None:
        if len(f) < len(g):
            f, g = g, f
        while g:
            f, g = g, _primitive(_pseudo_remainder(f, g))
        h = f
    return _laurent(enumerate(h), 1, low, 1, h[-1])


# Widths the heuristic gcd tries, as multiples of its first width, before
# the remainder sequence takes over.
_HEURISTIC_WIDENINGS = (1, 2, 4)


def _heuristic_gcd(f: List[int], g: List[int]) -> Optional[List[int]]:
    """The primitive gcd of the primitive Z[x] lists f and g (lowest first,
    positive leading coefficient) by GCDHEU, or None when no tried width
    gives it.

    At X = 2^(8*w), with w a widening times _digit_bytes(2*m + 2) for m
    the smaller of the two sup norms, gamma = gcd(f(X), g(X)) is read back
    as the balanced base-X digits of a polynomial H, so H(X) = gamma, and
    the candidate h is the primitive part of H with a positive leading
    coefficient.  It is returned only when it divides f and g exactly, and
    then it is the gcd d.  Proof: take a in {f, g} of norm m; Cauchy's
    bound puts every root of a below 1 + m in absolute value, and
    X/2 > 2*m + 2, so a(X) != 0 and gamma != 0.  h divides d, and d = h*q
    with q in Z[x] by Gauss's lemma, both being primitive.  d(X) divides
    f(X) and g(X), so it divides gamma = c*h(X), c the content of H, and
    q(X) divides c (h(X) != 0 since gamma != 0).  The balanced digits have
    absolute value at most X/2, so 0 < |c| <= X/2.  If q had a root, each
    of its roots would be one of a's, and |q(X)| >= prod |X - root| >
    X - 1 - m > X/2 >= |c|: no divisor of c is that large, so q is a
    constant, and 1 as d and h are primitive with positive leading
    coefficients.  A wider X keeps every bound."""
    first = _digit_bytes(2 * min(max(map(abs, f)), max(map(abs, g))) + 2)
    for widening in _HEURISTIC_WIDENINGS:
        width = first * widening
        h = _unpack(gcd(_pack(f, width), _pack(g, width)), width)
        while not h[-1]:
            h.pop()
        h = _primitive(h if h[-1] > 0 else [-c for c in h])
        if _exact_quotient(f, h) is not None and _exact_quotient(g, h) is not None:
            return h
    return None


def _primitive(coeffs: List[int]) -> List[int]:
    content = gcd(*coeffs)
    return [c // content for c in coeffs] if content > 1 else coeffs


def _primitive_coeffs(p: LaurentPoly) -> List[int]:
    """The primitive Z[x] coefficient list, lowest first, of the nonzero
    polynomial p / x^ord(p)."""
    terms, low = p.terms, p.ord()
    scale = lcm(*(c.denominator for c in terms.values()))
    out = [0] * (p.deg() - low + 1)
    for e, c in terms.items():
        out[e - low] = c.numerator * (scale // c.denominator)
    return _primitive(out)


def _long_divide(f: List[int], g: List[int]) -> Optional[Tuple[List[int], List[int]]]:
    """(q, r) with f = q*g + r over Z and len r = len g - 1 (r padded with
    zeros), on Z[x] coefficient lists lowest first, g's last entry
    nonzero; None when q has a coefficient that is not an integer.

    Long division from the top.  While the quotient coefficients found so
    far are integers, the running remainder is the one over Q, so the next
    coefficient over Q is its top entry over lead(g), an integer exactly
    when ``divmod`` leaves nothing.  The loop stops at the first that is
    not, so no fraction is ever built."""
    lead, dg = g[-1], len(g) - 1
    f, quot = f + [0] * (dg - len(f)), []
    while len(f) > dg:
        q, r = divmod(f.pop(), lead)
        if r:
            return None
        quot.append(q)
        if q:
            shift = len(f) - dg
            for i, w in enumerate(g[:-1]):
                f[shift + i] -= q * w
    return quot[::-1], f


def _pseudo_remainder(f: List[int], g: List[int]) -> List[int]:
    """The pseudo-remainder lead(g)^(len f - len g + 1) * f mod g, on Z[x]
    coefficient lists (lowest first, len f >= len g), g's last entry
    nonzero, with no trailing zeros; f's last entry may be 0, and the
    power still counts every entry of f.  Over Q the i-th quotient
    coefficient from the top has a denominator dividing lead(g)^i, and
    there are len f - len g + 1 of them, so f scaled by that power has an
    integer quotient and ``_long_divide`` returns its remainder."""
    scale = g[-1] ** (len(f) - len(g) + 1)
    _, r = _long_divide([scale * v for v in f], g)
    while r and not r[-1]:
        r.pop()
    return r


def _exact_quotient(f: List[int], g: List[int]) -> Optional[List[int]]:
    """f / g on Z[x] coefficient lists (lowest first, g's last entry
    nonzero) when g divides f in Z[x], else None: ``_long_divide``'s
    quotient when its remainder is zero, so most non-divisors are refused
    after a few steps.  For g primitive, Gauss's lemma makes a quotient
    over Q integral, so None means that g does not divide f over Q."""
    out = _long_divide(f, g)
    return None if out is None or any(out[1]) else out[0]


def _divide(p: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """p / g for nonzero polynomials with g dividing p.  A monomial g
    shifts p's sparse terms.  Otherwise p = s*x^i*F and g = t*x^j*G with F
    and G primitive in Z[x], so p / g is (s/t)*x^(i-j)*(F / G), F / G an
    exact division on integers."""
    mono = g.as_monomial()
    if mono is not None:
        return p.scale(1 / mono[0]).shift(-mono[1])
    f, h = _primitive_coeffs(p), _primitive_coeffs(g)
    scale = p.coeff(p.deg()) * h[-1] / (g.coeff(g.deg()) * f[-1])
    return _laurent(enumerate(_exact_quotient(f, h)), 1, p.ord() - g.ord(),
                    scale.numerator, scale.denominator)


def poly_lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    if a.is_zero or b.is_zero:
        return LaurentPoly.zero()
    m = a * _divide(b, poly_gcd(a, b))
    return m.scale(1 / m.coeff(m.deg()))


def poly_radical(p: LaurentPoly) -> LaurentPoly:
    """Squarefree part p / gcd(p, p'), monic.  Same roots, multiplicity 1."""
    _require_poly(p)
    if p.is_zero:
        return p
    g = poly_gcd(p, p.derivative())
    if g.is_zero or g.deg() == 0:
        return p.scale(1 / p.coeff(p.deg()))
    rad = _divide(p, g)
    return rad.scale(1 / rad.coeff(rad.deg()))


def poly_shift(p: LaurentPoly, c: Scalar) -> LaurentPoly:
    """p(x + c), exact, on integers; degree above GCD_DEGREE_BUDGET is
    refused with WorkBudgetExceeded before any work.

    With p = P/L, P integral of degree D, and c = u/v, the integer
    polynomial q(y) = v^D * L * p(u*y/v) = sum_e P_e * u^e * v^(D-e) * y^e
    is shifted by 1 with additions only, D passes of running sums (Horner's
    scheme for a Taylor shift by 1; von zur Gathen and Gerhard, ISSAC 1997).
    q(y + 1) at y = v*x/u is v^D * L * p(x + c), so coefficient k of
    p(x + c) is that of q(y + 1) divided by u^k * v^(D-k) * L.
    """
    _require_poly(p)
    c = _coerce(c)
    if p.is_zero:
        return p
    deg = p.deg()
    if deg > GCD_DEGREE_BUDGET:
        raise WorkBudgetExceeded(
            f"polynomial shift on degree {decimal(deg)} exceeds the work budget "
            f"of degree {GCD_DEGREE_BUDGET}"
        )
    if not c:
        return p
    u, v = c.numerator, c.denominator
    den = lcm(*(a.denominator for a in p.terms.values()))
    q = [int(p.coeff(e) * den) * u**e * v**(deg - e) for e in range(deg, -1, -1)]
    for i in range(deg, 0, -1):  # q is highest coefficient first
        q[:i + 1] = accumulate(q[:i + 1])
    return _trusted({k: Fraction(s, u**k * v**(deg - k) * den)
                     for k, s in enumerate(reversed(q)) if s})


def root_multiplicity(p: LaurentPoly, point: Scalar) -> int:
    """Multiplicity of (x - point) in the nonzero polynomial p.

    With point = u/v in lowest terms, v*x - u is primitive, so by Gauss's
    lemma (x - point)^m divides p exactly when (v*x - u)^m divides the
    primitive integer form f of p in Z[x].  The multiplicity is the number
    of times ``_exact_quotient`` divides v*x - u out of f, each division
    stopped at its first non-integer quotient coefficient."""
    _require_poly(p)
    if p.is_zero:
        raise ValueError("zero polynomial")
    if point == 0:
        return p.ord()
    point = _coerce(point)
    f, g, mult = _primitive_coeffs(p), [-point.numerator, point.denominator], 0
    while (f := _exact_quotient(f, g)) is not None:
        mult += 1
    return mult


class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Optional[LaurentPoly] = None):
        if den is None:
            den = LaurentPoly.one()
        _require_poly(num, "numerator"), _require_poly(den, "denominator")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = LaurentPoly.zero(), LaurentPoly.one()
        else:
            g = poly_gcd(num, den)
            if g.deg() > 0:
                num, den = _divide(num, g), _divide(den, g)
            lead = den.coeff(den.deg())
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(LaurentPoly.zero())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(LaurentPoly.one())

    @staticmethod
    def constant(c: Scalar) -> "RatFunc":
        return RatFunc(LaurentPoly.constant(c))

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "RatFunc":
        """Embed a Laurent polynomial: negative exponents become x-powers
        in the denominator."""
        if p.is_zero:
            return RatFunc.zero()
        o = min(p.ord(), 0)  # for o < 0, p*x^-o has a nonzero constant term: prime to x^-o
        return RatFunc._reduced(p.shift(-o), LaurentPoly.x_power(-o))

    @staticmethod
    def _reduced(num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        """num/den as given, with no gcd: the caller knows that num and den
        are coprime polynomials, den monic and num nonzero or den 1."""
        out = object.__new__(RatFunc)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def as_laurent(self) -> Optional[LaurentPoly]:
        """The value as a Laurent polynomial when den is a power of x."""
        mono = self.den.as_monomial()
        if mono is None:
            return None
        c, t = mono
        return self.num.scale(1 / c).shift(-t)

    def order_at(self, point: Point) -> Optional[int]:
        """Order of vanishing at the point (negative for a pole).

        Returns None for the zero function (order +infinity everywhere).
        """
        if self.is_zero:
            return None
        if point is INF:
            return self.den.deg() - self.num.deg()
        return root_multiplicity(self.num, point) - root_multiplicity(self.den, point)

    def pole_order(self, point: Point) -> int:
        """max(0, -order) at the point; 0 for the zero function."""
        o = self.order_at(point)
        return 0 if o is None else max(0, -o)

    def evaluate(self, point: Scalar) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num.evaluate(point) / d

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _lift(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, LaurentPoly):
            return RatFunc.from_laurent(value)
        if isinstance(value, (int, Fraction)):
            return RatFunc.constant(value)
        return NotImplemented

    def __add__(self, other) -> "RatFunc":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise NotInvertible("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RatFunc":
        """self^n for any integer n.  num and den are coprime and den is
        monic, so num^n/den^n is already reduced: no gcd runs."""
        if n < 0:
            return (RatFunc.one() / self) ** -n
        return RatFunc._reduced(self.num**n, self.den**n)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def shift(self, c: Scalar) -> "RatFunc":
        """The function f(x + c).  x -> x + c keeps num and den coprime
        and den's leading coefficient, so no gcd runs."""
        return RatFunc._reduced(poly_shift(self.num, c), poly_shift(self.den, c))

    # -- comparison and display ---------------------------------------

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.den == LaurentPoly.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"
