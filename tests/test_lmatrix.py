import random
from fractions import Fraction

import pytest

from bgsplit.errors import DimensionMismatch, NotInvertibleOverLaurentRing
from bgsplit.laurent import LaurentPoly, lp
from bgsplit.lmatrix import LaurentMatrix


def rand_lmatrix(rng, n, exp_range=(-3, 3), max_terms=2):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(0, max_terms)):
                terms[rng.randint(*exp_range)] = Fraction(rng.randint(-3, 3))
            row.append(LaurentPoly(terms))
        rows.append(row)
    return LaurentMatrix(rows)


def test_det_worked_examples():
    assert LaurentMatrix([[lp({1: 1}), 1], [0, lp({-1: 1})]]).det() == LaurentPoly.one()
    assert LaurentMatrix.identity(4).det() == LaurentPoly.one()
    assert LaurentMatrix([[lp({1: 1}), 1], [1, lp({-1: 1})]]).det().is_zero


def test_det_multiplicative_random():
    rng = random.Random(21)
    for n in (2, 3):
        for _ in range(40):
            a, b = rand_lmatrix(rng, n), rand_lmatrix(rng, n)
            assert (a @ b).det() == a.det() * b.det()


def test_inverse_examples_and_round_trip():
    d = LaurentMatrix.diagonal_powers([1, -1])
    assert d.inverse() == LaurentMatrix.diagonal_powers([-1, 1])
    a = LaurentMatrix([[lp({1: 1}), 1], [0, lp({-1: 1})]])
    inv = a.inverse()
    assert inv == LaurentMatrix([[lp({-1: 1}), -1], [0, lp({1: 1})]])
    assert (a @ inv).is_identity()
    assert (inv @ a).is_identity()
    with pytest.raises(NotInvertibleOverLaurentRing):
        LaurentMatrix([[1, 1], [1, 1]]).inverse()


def test_inverse_round_trip_random_units():
    rng = random.Random(22)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        a = rand_lmatrix(rng, n)
        if a.unit_det() is None:
            continue
        done += 1
        assert (a @ a.inverse()).is_identity()


def test_wide_exponent_spans():
    """Large exponents cost their terms, not a dense list over the span:
    x^g substitution when the exponents share a stride, sparse entries
    otherwise."""
    big = 10**11
    a = LaurentMatrix([[lp({big: 1}), 1], [0, lp({-big: 1})]])
    assert a.det() == LaurentPoly.one()
    assert a.inverse() == LaurentMatrix([[lp({-big: 1}), -1], [0, lp({big: 1})]])
    assert (a @ a).column(1) == (lp({big: 1, -big: 1}), lp({-2 * big: 1}))
    b = LaurentMatrix([[lp({big: 1, 1: 2}), 1], [Fraction(1, 3), lp({-big: 1})]])
    assert b.det() == lp({1 - big: 2, 0: Fraction(2, 3)})
    c = LaurentMatrix([[lp({big: 1, 1: 1}), 1], [1, lp({-big: 1})]])
    assert c.unit_det() == (Fraction(1), 1 - big)
    assert (c @ c.inverse()).is_identity() and (c.inverse() @ c).is_identity()
    assert c.apply([1, lp({3: 1})]) == (lp({big: 1, 1: 1, 3: 1}), lp({0: 1, 3 - big: 1}))
    with pytest.raises(NotInvertibleOverLaurentRing):
        LaurentMatrix([[lp({big: 1, 1: 1, 0: 1})]]).inverse()


def test_structure_helpers():
    a = LaurentMatrix([[lp({2: 1}), lp({-1: 3})], [0, 1]])
    assert a.exponent_range() == (-1, 2)
    assert a.transpose()[0, 1].is_zero
    assert a.shift(1)[0, 0] == lp({3: 1})
    assert not a.is_polynomial()
    assert LaurentMatrix.identity(2).is_polynomial()
    assert LaurentMatrix.identity(2).is_antipolynomial()
    assert a.unit_det() == (Fraction(1), 2)  # det = x^2, a unit
    assert a.det() == lp({2: 1})
    with pytest.raises(DimensionMismatch):
        LaurentMatrix([[1, 2]])
    with pytest.raises(ValueError):
        LaurentMatrix([[0]]).exponent_range()


def test_apply_matches_matmul():
    rng = random.Random(23)
    a = rand_lmatrix(rng, 3)
    v = [lp({1: 1}), lp({0: 2}), lp({-2: 1})]
    applied = a.apply(v)
    column = LaurentMatrix([[v[0], 0, 0], [v[1], 0, 0], [v[2], 0, 0]])
    product = a @ column
    assert applied == tuple(product[i, 0] for i in range(3))
