import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.laurent import LaurentPoly, X, exponent_range, lp


def rand_poly(rng, max_terms=4, exp_range=(-3, 3)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = rng.randint(*exp_range)
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return LaurentPoly(terms)


def test_mul_worked_examples():
    assert lp({1: 1, -1: 1}) * X == lp({2: 1, 0: 1})
    assert lp({1: 1, -1: 1}) * LaurentPoly.zero() == LaurentPoly.zero()
    # (x^-1 + 2)(x - 1), expanded by hand: 1 - x^-1 + 2x - 2 = 2x - 1 - x^-1
    assert lp({-1: 1, 0: 2}) * lp({1: 1, 0: -1}) == lp({1: 2, 0: -1, -1: -1})


def test_mul_degree_additivity():
    rng = random.Random(101)
    for _ in range(200):
        p, q = rand_poly(rng), rand_poly(rng)
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
            continue
        prod = p * q
        assert prod.ord() == p.ord() + q.ord()
        assert prod.deg() == p.deg() + q.deg()


def test_ring_axioms_random():
    rng = random.Random(202)
    for _ in range(150):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p + q == q + p
        assert p - p == LaurentPoly.zero()


coefficients = st.fractions(-9, 9, max_denominator=6)
polys = st.dictionaries(st.integers(-6, 6), coefficients, max_size=5).map(LaurentPoly)


def schoolbook(p, q):
    """The term map of p*q, one product per pair of terms."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def clean(p):
    return all(type(e) is int and type(c) is Fraction and c for e, c in p.terms.items())


@settings(max_examples=300, deadline=None)
@given(polys, st.integers(-9, 9), coefficients)
def test_mul_by_a_monomial(p, k, c):
    # a unit monomial x^k only shifts the other factor, in either order
    unit = LaurentPoly.x_power(k)
    assert p * unit == unit * p == p.shift(k)
    # c*x^k, c = 0 included, is the schoolbook product
    mono = lp({k: c})
    for prod in (p * mono, mono * p):
        assert prod.terms == schoolbook(p, mono) and clean(prod)
    zero = LaurentPoly.zero()
    assert (p * zero).is_zero and (zero * p).is_zero and (zero * unit).is_zero


def test_monomial_detection():
    assert lp({2: 3}).as_monomial() == (Fraction(3), 2)
    assert lp({0: 1, 1: 1}).as_monomial() is None
    assert lp({-5: Fraction(-1, 2)}).as_monomial() == (Fraction(-1, 2), -5)
    assert LaurentPoly.zero().as_monomial() is None


def test_shift_reciprocal_derivative():
    p = lp({-1: 1, 2: Fraction(3, 2)})
    assert p.shift(2) == lp({1: 1, 4: Fraction(3, 2)})
    assert p.reciprocal_substitution() == lp({1: 1, -2: Fraction(3, 2)})
    assert p.derivative() == lp({-2: -1, 1: 3})
    assert lp({0: 5}).derivative().is_zero


def test_pow_and_eval():
    p = lp({1: 1, 0: 1})
    assert p**0 == LaurentPoly.one()
    assert p**3 == lp({3: 1, 2: 3, 1: 3, 0: 1})
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        lp({-1: 1}).evaluate(0)


def test_exact_division_random():
    rng = random.Random(31)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero:
            continue
        assert (a * b) // b == a
        assert (a * b) // b.shift(5) == a.shift(-5)
    assert lp({2: 1, 0: -1}) // lp({1: 1, 0: -1}) == lp({1: 1, 0: 1})
    assert lp({0: 6}) // 3 == lp({0: 2})
    with pytest.raises(ArithmeticError):
        lp({2: 1, 0: 1}) // lp({1: 1, 0: -1})
    with pytest.raises(ZeroDivisionError):
        X // LaurentPoly.zero()


def test_zero_poly_has_no_order():
    with pytest.raises(ValueError):
        LaurentPoly.zero().ord()
    with pytest.raises(ValueError):
        LaurentPoly.zero().deg()


def test_str_canonical():
    assert str(lp({-1: 1, 2: Fraction(3, 2)})) == "x^-1 + 3/2*x^2"
    assert str(lp({0: -1, 1: 1})) == "-1 + x"
    assert str(lp({1: -1})) == "-x"
    assert str(LaurentPoly.zero()) == "0"
    assert str(lp({0: Fraction(1, 3)})) == "1/3"


def test_exponent_range_helper():
    assert exponent_range([lp({-2: 1}), lp({5: 1}), LaurentPoly.zero()]) == (-2, 5)
    with pytest.raises(ValueError):
        exponent_range([LaurentPoly.zero()])
