import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit import ratfunc
from bgsplit.errors import NotInvertible
from bgsplit.laurent import LaurentPoly, lp
from bgsplit.ratfunc import (
    INF,
    RatFunc,
    _exact_quotient,
    _heuristic_gcd,
    _long_divide,
    _pseudo_remainder,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    poly_radical,
    poly_shift,
    root_multiplicity,
)

from oracles import root_multiplicity_by_division


def rand_poly(rng, max_deg=3):
    return LaurentPoly(
        {e: Fraction(rng.randint(-4, 4)) for e in range(rng.randint(0, max_deg) + 1)}
    )


def test_poly_divmod_identity():
    rng = random.Random(31)
    for _ in range(80):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero:
            continue
        q, r = poly_divmod(a, b)
        assert a == q * b + r
        assert r.is_zero or r.deg() < b.deg()


def test_poly_gcd_properties():
    rng = random.Random(32)
    for _ in range(50):
        a, b, m = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        if m.is_zero or a.is_zero or b.is_zero:
            continue
        g = poly_gcd(a * m, b * m)
        monic_m = m.scale(1 / m.coeff(m.deg()))
        assert poly_divmod(g, monic_m)[1].is_zero  # m divides gcd(a*m, b*m)
        assert g.coeff(g.deg()) == 1
    assert poly_gcd(lp({2: 1, 0: -1}), lp({1: 1, 0: 1})) == lp({1: 1, 0: 1})


def test_radical_and_lcm():
    p = lp({1: 1}) ** 3 * lp({1: 1, 0: -1}) ** 2
    assert poly_radical(p) == lp({1: 1}) * lp({1: 1, 0: -1})
    a, b = lp({1: 1}) * lp({1: 1, 0: -1}), lp({1: 1}) * lp({1: 1, 0: 1})
    l = poly_lcm(a, b)
    assert poly_divmod(l, a)[1].is_zero and poly_divmod(l, b)[1].is_zero
    assert l.deg() == 3


def test_shift_reverse_multiplicity():
    p = lp({2: 1, 0: -1})  # x^2 - 1
    assert poly_shift(p, 1) == lp({2: 1, 1: 2})  # (x+1)^2 - 1 = x^2 + 2x
    assert root_multiplicity(lp({1: 1}) ** 4 * lp({0: 1, 1: 3}), 0) == 4


def test_root_multiplicity_matches_the_division_loop():
    # p = c * x^k * (product of (x - r)^m) * (x^2 + a), with roots that
    # are zero, negative or non-integral, at a root of multiplicity 0-4
    # or at a point that is not a root
    rng = random.Random(33)
    mults = set()
    for _ in range(2000):
        p = lp({rng.randint(0, 3): Fraction(rng.randint(1, 30), rng.randint(1, 12))})
        roots = {Fraction(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 5))): rng.randint(0, 4)
                 for _ in range(rng.randint(0, 3))}
        for r, m in roots.items():
            p = p * lp({1: 1, 0: -r}) ** m
        if rng.random() < 0.3:
            p = p * lp({2: 1, 0: rng.randint(1, 9)})
        point = rng.choice([*roots, Fraction(rng.randint(-9, 9), rng.randint(1, 6)), 0, -1, 2])
        if rng.random() < 0.2:
            point = int(point) if point.denominator == 1 else point
        want = root_multiplicity_by_division(p, point)
        mults.add(want)
        assert root_multiplicity(p, point) == want, (p, point)
    assert {0, 1, 2, 3, 4} <= mults


def test_root_multiplicity_refuses_zero_and_laurent_input():
    with pytest.raises(ValueError, match="zero polynomial"):
        root_multiplicity(LaurentPoly(), Fraction(1, 2))
    with pytest.raises(ValueError):
        root_multiplicity(lp({-1: 1, 0: 1}), -1)


def test_ratfunc_normalization():
    f = RatFunc(lp({1: 1}), lp({2: 1, 1: -1}))  # x / (x^2 - x) = 1/(x - 1)
    assert f.num == LaurentPoly.one()
    assert f.den == lp({1: 1, 0: -1})
    g = RatFunc(lp({1: 2}), lp({1: 4}))  # 2x/4x = 1/2
    assert g == RatFunc.constant(Fraction(1, 2))
    assert RatFunc(LaurentPoly.zero(), lp({3: 7})).den == LaurentPoly.one()


def test_field_ops_random():
    rng = random.Random(33)
    for _ in range(60):
        fn, fd = rand_poly(rng), rand_poly(rng)
        gn, gd = rand_poly(rng), rand_poly(rng)
        if fd.is_zero or gd.is_zero:
            continue
        f, g = RatFunc(fn, fd), RatFunc(gn, gd)
        assert f + g == g + f
        assert f - f == RatFunc.zero()
        assert f * g == g * f
        if not g.is_zero:
            assert (f / g) * g == f
    with pytest.raises(NotInvertible):
        RatFunc.one() / RatFunc.zero()


def test_derivative_leibniz():
    rng = random.Random(34)
    for _ in range(40):
        fd, gd = rand_poly(rng), rand_poly(rng)
        if fd.is_zero or gd.is_zero:
            continue
        f, g = RatFunc(rand_poly(rng), fd), RatFunc(rand_poly(rng), gd)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_orders_and_infinity():
    f = RatFunc(lp({1: 1}), lp({2: 1, 1: -1}))  # 1/(x-1)
    assert f.order_at(1) == -1
    assert f.order_at(0) == 0
    assert f.order_at(INF) == 1
    assert f.pole_order(1) == 1 and f.pole_order(0) == 0
    assert RatFunc.zero().order_at(0) is None
    g = RatFunc(lp({2: 1}), lp({0: 1}))  # x^2
    assert g.order_at(INF) == -2
    assert g.order_at(0) == 2


def test_evaluate_and_shift():
    f = RatFunc(lp({1: 1, 0: 1}), lp({1: 1, 0: -1}))  # (x+1)/(x-1)
    assert f.evaluate(2) == 3
    with pytest.raises(ZeroDivisionError):
        f.evaluate(1)
    assert f.shift(1) == RatFunc(lp({1: 1, 0: 2}), lp({1: 1}))  # (x+2)/x


def test_from_laurent_embedding():
    p = lp({-2: 1, 1: 3})
    f = RatFunc.from_laurent(p)
    assert f.num == lp({0: 1, 3: 3}) and f.den == lp({2: 1})
    assert f.as_laurent() == p
    assert RatFunc(lp({0: 1}), lp({1: 1, 0: -1})).as_laurent() is None


# -- poly_gcd against sympy -------------------------------------------------

COEFF = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3, 5)))
POLYS = st.one_of(
    st.just(LaurentPoly.zero()),
    st.builds(LaurentPoly.constant, COEFF),
    st.builds(lambda cs, low: LaurentPoly({e + low: c for e, c in enumerate(cs)}),
              st.lists(COEFF, max_size=5), st.integers(0, 2)),
)


def to_sympy(p, x):
    return sum((sp.Rational(c.numerator, c.denominator) * x**e for e, c in p.terms.items()),
               sp.Integer(0))


def from_sympy(expr, x):
    if expr == 0:
        return LaurentPoly.zero()
    return LaurentPoly({e: Fraction(int(c.p), int(c.q)) for (e,), c in sp.Poly(expr, x).terms()})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=POLYS, b=POLYS, common=POLYS)
def test_poly_gcd_matches_sympy(a, b, common):
    """Planted common factors, zero, constant and one-sided-zero operands."""
    _check_gcd_against_sympy(a, b, common)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=POLYS, b=POLYS, common=POLYS)
def test_remainder_sequence_alone_matches_sympy(a, b, common):
    """With the heuristic switched off every gcd takes the fallback."""
    with mock.patch.object(ratfunc, "_heuristic_gcd", lambda f, g: None):
        _check_gcd_against_sympy(a, b, common)


def _check_gcd_against_sympy(a, b, common):
    if not common.is_zero:
        a, b = a * common, b * common
    x = sp.Symbol("x")
    g = sp.gcd(to_sympy(a, x), to_sympy(b, x))
    if g != 0:
        g = g / sp.Poly(g, x).LC()
    assert poly_gcd(a, b) == from_sympy(sp.expand(g), x)


def test_heuristic_gcd_widens_before_it_gives_up():
    # (x - 1)*(-2 + 37x + 35x^2 + x^3) and (x - 1)*(-32 - x + 5x^2 + 5x^3):
    # at the first width X = 2^8 the integer gcd carries a factor that
    # breaks the digits of x - 1, and at twice the width it does not
    f, g = [2, -39, 2, 34, 1], [32, -31, -6, 0, 5]
    assert _heuristic_gcd(f, g) == [-1, 1]
    with mock.patch.object(ratfunc, "_HEURISTIC_WIDENINGS", (1,)):
        assert _heuristic_gcd(f, g) is None
        a, b = LaurentPoly(dict(enumerate(f))), LaurentPoly(dict(enumerate(g)))
        assert poly_gcd(a, b) == lp({0: -1, 1: 1})


def test_reduction_equals_gcd_then_floor_division():
    # num and den share a product of non-monomial factors with rational
    # coefficients; RatFunc divides them out on integers, poly_gcd and
    # LaurentPoly // by Fraction long division
    rng = random.Random(35)
    reduced = 0
    for _ in range(150):
        common = LaurentPoly.one()
        for _ in range(rng.randint(1, 3)):
            common = common * LaurentPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                           for e in range(rng.randint(1, 3) + 1)})
        num, den = rand_poly(rng, 6) * common, rand_poly(rng, 6) * common * lp({1: 1, 0: 2})
        if num.is_zero or den.is_zero:
            continue
        g = poly_gcd(num, den)
        want_num, want_den = num // g, den // g
        lead = want_den.coeff(want_den.deg())
        f = RatFunc(num, den)
        assert (f.num, f.den) == (want_num.scale(1 / lead), want_den.scale(1 / lead))
        reduced += g.deg() > 0 and g.as_monomial() is None
    assert reduced > 100


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num=POLYS, den=POLYS.filter(bool), common=POLYS.filter(bool))
def test_ratfunc_normal_form_matches_sympy(num, den, common):
    x = sp.Symbol("x")
    f = RatFunc(num * common, den * common)
    n, d = sp.fraction(sp.cancel(to_sympy(num, x) / to_sympy(den, x)))
    lead = sp.Poly(d, x).LC()
    assert (f.num, f.den) == (from_sympy(sp.expand(n / lead), x), from_sympy(sp.expand(d / lead), x))


LAURENTS = st.builds(lambda cs, low: LaurentPoly({e + low: c for e, c in enumerate(cs)}),
                     st.lists(COEFF, max_size=5), st.integers(-3, 3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=LAURENTS, num=POLYS, den=POLYS.filter(bool), c=COEFF, n=st.integers(0, 3))
def test_values_reduced_by_construction_equal_the_reduced_quotient(p, num, den, c, n):
    """from_laurent, negation, shift and nonnegative powers build their
    values with no gcd; each equals RatFunc(num, den) reduced as usual."""
    o = 0 if p.is_zero else min(p.ord(), 0)
    cases = [(RatFunc.from_laurent(p), p.shift(-o), LaurentPoly.x_power(-o))]
    f = RatFunc(num, den)
    cases += [(-f, -f.num, f.den), (f.shift(c), poly_shift(f.num, c), poly_shift(f.den, c)),
              (f**n, f.num**n, f.den**n)]
    for got, want_num, want_den in cases:
        want = RatFunc(want_num, want_den)
        assert (got.num, got.den) == (want.num, want.den)


def _sympy_terms(poly):
    return {e: Fraction(int(c.p), int(c.q)) for (e,), c in poly.as_dict().items()}


polynomials = st.dictionaries(
    st.integers(0, 7), st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=6
).map(LaurentPoly)


@settings(max_examples=200, deadline=None)
@given(polynomials, polynomials.filter(bool))
def test_poly_divmod_matches_sympy_div(a, b):
    x = sp.symbols("x")

    def to_sympy(p):
        expr = sum((sp.Rational(c.numerator, c.denominator) * x**e for e, c in p.terms.items()),
                   sp.Integer(0))
        return sp.Poly(expr, x, domain="QQ")

    want_q, want_r = sp.div(to_sympy(a), to_sympy(b))
    q, r = poly_divmod(a, b)
    assert (q.terms, r.terms) == (_sympy_terms(want_q), _sympy_terms(want_r))


# Integer coefficient lists, lowest first, with a nonzero last entry.  Small
# entries make vanishing intermediate top coefficients frequent.
INT_POLYS = st.builds(lambda cs, lead: cs + [lead],
                      st.lists(st.integers(-3, 3), max_size=6),
                      st.integers(-4, 4).filter(bool))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=INT_POLYS, g=INT_POLYS)
def test_pseudo_remainder_matches_sympy_prem(f, g):
    """lead(g)^(deg f - deg g + 1) * f mod g, negative leads included."""
    if len(f) < len(g):
        f, g = g, f
    x = sp.Symbol("x")
    want = sp.prem(sum(c * x**e for e, c in enumerate(f)),
                   sum(c * x**e for e, c in enumerate(g)), x)
    coeffs = [] if want == 0 else [int(c) for c in reversed(sp.Poly(want, x).all_coeffs())]
    assert _pseudo_remainder(f, g) == coeffs


# Divisors of degree 0-4 with leads +-1 and composite, and v*x - u; the
# dividend is random, a planted multiple h*g plus a remainder that is zero
# or shorter than g, zero, or shorter than the divisor.
LEADS = st.sampled_from((1, -1, 4, -6, 12))
DIVISORS = st.one_of(
    st.builds(lambda cs, lead: cs + [lead], st.lists(st.integers(-6, 6), max_size=4), LEADS),
    st.builds(lambda u, v: [-u, v], st.integers(-6, 6), LEADS),
)


def _int_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _stripped(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


@st.composite
def division_cases(draw):
    g = draw(DIVISORS)
    small = st.integers(-20, 20)
    kind = draw(st.sampled_from(("random", "planted", "zero", "short")))
    if kind == "random":
        return draw(st.lists(small, max_size=9)), g
    if kind == "zero":
        return [], g
    if kind == "short":
        return draw(st.lists(small, max_size=len(g) - 1)), g
    h = draw(st.lists(small, min_size=1, max_size=5))
    r = draw(st.one_of(st.just([]), st.lists(small, max_size=len(g) - 1)))
    f = _int_mul(h, g)
    return [x + y for x, y in zip(f, r + [0] * (len(f) - len(r)))], g


@settings(max_examples=400, deadline=None, derandomize=True)
@given(division_cases())
def test_long_divide_matches_fraction_long_division(case):
    """``_long_divide`` against ``poly_divmod`` (``laurent._long_division``
    on Fractions): None exactly when a quotient coefficient over Q is not
    an integer, else q*g + r = f with len r = len g - 1, the same q and r;
    ``_exact_quotient`` is q when r is zero and None otherwise."""
    f, g = case
    want_q, want_r = poly_divmod(LaurentPoly({e: Fraction(c) for e, c in enumerate(f) if c}),
                                 LaurentPoly({e: Fraction(c) for e, c in enumerate(g) if c}))
    out = _long_divide(f, g)
    if any(c.denominator != 1 for c in want_q.terms.values()):
        assert out is None and _exact_quotient(f, g) is None
        return
    assert out is not None
    q, r = out
    assert len(r) == len(g) - 1
    total = _int_mul(q, g) + [0] * len(r)
    for i, c in enumerate(r):
        total[i] += c
    assert _stripped(total) == _stripped(f)
    assert {e: c for e, c in enumerate(q) if c} == want_q.terms
    assert {e: c for e, c in enumerate(r) if c} == want_r.terms
    assert _exact_quotient(f, g) == (None if any(r) else q)
