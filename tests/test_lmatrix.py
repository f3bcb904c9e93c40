import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.errors import DimensionMismatch, NotInvertibleOverLaurentRing
from bgsplit.fuchsian import fuchsian_system, local_system
from bgsplit.laurent import LaurentPoly, lp
from bgsplit.lmatrix import LaurentMatrix, _pack, _unpack
from bgsplit.monodromy import jordan_profile, monodromy_rep

from oracles import byte_pack


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


@pytest.mark.parametrize("build", (
    lambda: LaurentMatrix([]),
    lambda: monodromy_rep([()]),
    lambda: jordan_profile([]),
    lambda: local_system(()),
    lambda: fuchsian_system([0], [()]),
), ids=("LaurentMatrix", "monodromy_rep", "jordan_profile", "local_system", "fuchsian_system"))
def test_rank_zero_is_refused(build):
    with pytest.raises(DimensionMismatch, match="matrix dimension must be at least 1"):
        build()


def _balanced(width):
    half = 1 << (8 * width - 1)
    return st.integers(-half, half - 1)


def _packing_oracle(values, width):
    return sum(v << 8 * width * j for j, v in enumerate(values))


def _strip(digits):
    digits = list(digits)
    while digits and not digits[-1]:
        digits.pop()
    return digits


def _lists(element):
    """Lists of 0-300 entries, the length drawn first so that long lists,
    past the 16 entries of one Horner run, are common."""
    return st.integers(0, 300).flatmap(lambda n: st.lists(element, min_size=n, max_size=n))


def _any_values(width):
    """Balanced digits mixed with integers far outside the balanced range,
    of either sign, up to 2^(8*width + 64)."""
    far = 1 << (8 * width + 64)
    return _lists(st.one_of(_balanced(width), st.integers(-far, far)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 40).flatmap(lambda w: st.tuples(st.just(w), _any_values(w))))
def test_pack_is_the_kronecker_sum_of_any_integers(case):
    width, values = case
    assert _pack(values, width) == _packing_oracle(values, width)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 40).flatmap(lambda w: st.tuples(st.just(w), _lists(_balanced(w)))))
def test_pack_matches_the_byte_packer_and_unpacks_on_balanced_digits(case):
    width, digits = case
    packed = _pack(digits, width)
    assert packed == byte_pack(digits, width)
    assert _strip(_unpack(packed, width)) == _strip(digits)


@pytest.mark.parametrize("count", (17, 1024, 4096))
@pytest.mark.parametrize("width", (1, 8, 33))
def test_pack_long_lists(count, width):
    rng = random.Random(count * width)
    half = 1 << (8 * width - 1)
    digits = [rng.randrange(-half, half) for _ in range(count)]
    wide = [rng.randrange(-1 << (8 * width + 64), 1 << (8 * width + 64)) for _ in range(count)]
    assert _pack(digits, width) == byte_pack(digits, width) == _packing_oracle(digits, width)
    assert _strip(_unpack(_pack(digits, width), width)) == _strip(digits)
    assert _pack(wide, width) == _packing_oracle(wide, width)


def test_apply_matches_matmul():
    rng = random.Random(23)
    a = rand_lmatrix(rng, 3)
    v = [lp({1: 1}), lp({0: 2}), lp({-2: 1})]
    applied = a.apply(v)
    column = LaurentMatrix([[v[0], 0, 0], [v[1], 0, 0], [v[2], 0, 0]])
    product = a @ column
    assert applied == tuple(product[i, 0] for i in range(3))
