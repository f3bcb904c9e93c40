import glob
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.bundles import (
    BundleOnP1,
    Factorization,
    SplittingType,
    _clause_report,
    birkhoff_factor,
    bundle,
    splitting_type,
    verify_factorization,
)
from bgsplit.errors import InternalSearchExhausted, NotInvertibleOverLaurentRing
from bgsplit.io import parse_matrix_file
from bgsplit.laurent import lp
from bgsplit.lmatrix import LaurentMatrix
from bgsplit.orderbasis import factor_to_diagonal

from oracles import factor_to_diagonal_reference
from test_bundles import planted_bundle, rand_unimodular, x

HERE = os.path.dirname(os.path.abspath(__file__))


def test_diagonal_input_gives_identity_factors():
    e = bundle(LaurentMatrix.diagonal_powers([2, -1]))
    f = birkhoff_factor(e)
    assert f.b.is_identity() and f.c.is_identity()
    assert f.exponents.indices == (2, -1)
    for n in (1, 2, 4):
        f = birkhoff_factor(bundle(LaurentMatrix.identity(n)))
        assert f.b.is_identity() and f.c.is_identity()
        assert f.exponents.indices == (0,) * n


def test_extension_factorization_multiply_back():
    e = bundle([[x(1), 1], [0, x(-1)]])
    f = birkhoff_factor(e)
    assert verify_factorization(e, f).valid
    assert f.exponents.indices == (1, -1)
    assert (f.b @ e.transition @ f.c) == LaurentMatrix.diagonal_powers([1, -1])


def test_rank_one_short_circuit():
    f = birkhoff_factor(bundle([[lp({-4: Fraction(-3, 2)})]]))
    assert f.exponents.indices == (-4,)
    assert f.c.is_identity()
    assert f.b[0, 0] == lp({0: Fraction(-2, 3)})


def test_verify_clause_reports():
    a = LaurentMatrix([[x(1)]])
    good = Factorization(
        b=LaurentMatrix.identity(1), c=LaurentMatrix.identity(1),
        exponents=SplittingType((1,)),
    )
    assert verify_factorization(a, good).valid

    bad_b = Factorization(
        b=LaurentMatrix([[x(1)]]), c=LaurentMatrix.identity(1),
        exponents=SplittingType((2,)),
    )
    rep = verify_factorization(a, bad_b)
    assert not rep.valid and rep.failed_clause == "det(B) constant"

    bad_c = Factorization(
        b=LaurentMatrix.identity(1), c=LaurentMatrix([[x(-3, 2)]]),
        exponents=SplittingType((-2,)),
    )
    rep = verify_factorization(a, bad_c)
    assert not rep.valid and rep.failed_clause == "det(C) constant"

    neg_in_b = Factorization(
        b=LaurentMatrix([[1, x(-1)], [0, 1]]), c=LaurentMatrix.identity(2),
        exponents=SplittingType((1, -1)),
    )
    rep = verify_factorization(LaurentMatrix.diagonal_powers([1, -1]), neg_in_b)
    assert not rep.valid and rep.failed_clause == "B polynomial"

    pos_in_c = Factorization(
        b=LaurentMatrix.identity(2), c=LaurentMatrix([[1, x(1)], [0, 1]]),
        exponents=SplittingType((1, -1)),
    )
    rep = verify_factorization(LaurentMatrix.diagonal_powers([1, -1]), pos_in_c)
    assert not rep.valid and rep.failed_clause == "C antipolynomial"

    wrong_diag = Factorization(
        b=LaurentMatrix.identity(1), c=LaurentMatrix.identity(1),
        exponents=SplittingType((2,)),
    )
    rep = verify_factorization(a, wrong_diag)
    assert not rep.valid and rep.failed_clause == "product diagonal"

    mismatched = Factorization(
        b=LaurentMatrix.identity(2), c=LaurentMatrix.identity(1),
        exponents=SplittingType((1,)),
    )
    rep = verify_factorization(a, mismatched)
    assert not rep.valid and rep.failed_clause == "shape"


def test_random_round_trip_and_route_agreement():
    rng = random.Random(51)
    for _ in range(40):
        e, d = planted_bundle(rng)
        f = birkhoff_factor(e)
        assert verify_factorization(e, f).valid
        assert f.exponents.indices == d
        # independent route: the section-count scan must agree
        assert splitting_type(e).indices == f.exponents.indices


def test_factor_survives_extra_unimodular_noise():
    rng = random.Random(52)
    for _ in range(10):
        e, d = planted_bundle(rng, n_max=3)
        u = rand_unimodular(rng, e.rank, +1, ops=2)
        v = rand_unimodular(rng, e.rank, -1, ops=2)
        noisy = bundle(u @ e.transition @ v)
        f = birkhoff_factor(noisy)
        assert verify_factorization(noisy, f).valid
        assert f.exponents.indices == d


def _seeded_bundle(rng):
    """A planted bundle, sometimes with extra unimodular noise and an
    overall constant, so columns carry denominators 2, 3 and 7."""
    e, _ = planted_bundle(rng, n_max=rng.choice((2, 4, 5)), spread=rng.choice((1, 2, 3)),
                          window=rng.choice(((-3, 3), (-4, 4))))
    a = e.transition
    if rng.random() < 0.3:
        a = rand_unimodular(rng, a.n, +1, ops=2) @ a @ rand_unimodular(rng, a.n, -1, ops=2)
    if rng.random() < 0.3:
        c = Fraction(rng.choice((-3, 1, 2, 7)), rng.choice((1, 3, 7)))
        a = a.map_entries(lambda p: p.scale(c))
    return bundle(a)


def test_integer_columns_match_the_fraction_loop_on_1000_bundles():
    """Also checks the stop on pivots against the reference's stop on t."""
    rng = random.Random(1800)
    ranks = set()
    for _ in range(1000):
        e = _seeded_bundle(rng)
        ranks.add(e.rank)
        got = factor_to_diagonal(e.transition)
        assert got == factor_to_diagonal_reference(e.transition, e.det_exponent)
    assert ranks == {1, 2, 3, 4, 5}


def test_integer_columns_match_the_fraction_loop_on_the_golden_inputs():
    stems = [os.path.basename(path).split(".")[0]
             for path in sorted(glob.glob(os.path.join(HERE, "data", "golden", "*.factor.json")))]
    assert len(stems) == 5
    for stem in stems:
        path = os.path.join(HERE, "data", f"{stem}.txt")
        if not os.path.exists(path):
            path = os.path.join(HERE, os.pardir, "demos", "data", f"{stem}.txt")
        with open(path, encoding="utf-8") as handle:
            e = bundle(parse_matrix_file(handle.read()).obj)
        got = factor_to_diagonal(e.transition)
        assert got == factor_to_diagonal_reference(e.transition, e.det_exponent)


def test_factor_to_diagonal_refuses_non_units():
    """det A not a unit: G.inverse() raises, or a singular A never pivots
    every column and the loop hits its cap (96 orders for 2 x 2 constants)."""
    for rows in ([[x(1) + 1]], [[1, x(1)], [x(1), 1]], [[x(2) + 1, 0], [0, 1]],
                 [[x(-1) + 1, 0], [0, x(1)]]):
        with pytest.raises(NotInvertibleOverLaurentRing):
            factor_to_diagonal(LaurentMatrix(rows))
    with pytest.raises(InternalSearchExhausted, match="within 96 orders"):
        factor_to_diagonal(LaurentMatrix([[1, 1], [1, 1]]))


def test_factorization_ignores_the_recorded_degree():
    """The factorization route reads the transition only: a wrong
    det_exponent, which the section route would use, changes nothing."""
    for seed in range(5, 10):
        e, _ = planted_bundle(random.Random(seed), n_max=3)
        f = birkhoff_factor(e)
        for delta in (-1, 1, 3):
            wrong = BundleOnP1(e.transition, e.rank, e.det_coeff, e.det_exponent + delta)
            assert birkhoff_factor(wrong) == f


MUTATIONS = ("none", "entry of A", "entry of B", "entry of C", "exponent", "zero row of B(0)",
             "zero column of C_0", "repeated row of B(0)", "x times a row of B",
             "x^-1 times a column of C")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), mutation=st.sampled_from(MUTATIONS),
       coeff=st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3))),
       exp=st.integers(-2, 2), as_matrix=st.booleans())
def test_verify_reports_as_the_clause_by_clause_check(seed, mutation, coeff, exp, as_matrix):
    """On mutated factorizations of planted bundles, the B(0)/C_0 check
    gives the same report as the clause-by-clause check with Laurent
    determinants; the last two mutations keep B*A*C diagonal and B
    polynomial, C antipolynomial, with a non-constant determinant."""
    rng = random.Random(seed)
    e, _ = planted_bundle(rng, n_max=3)
    f = birkhoff_factor(e)
    a, b, c = ([list(row) for row in m.entries] for m in (e.transition, f.b, f.c))
    d = list(f.exponents.indices)
    n, i, j = len(a), rng.randrange(len(a)), rng.randrange(len(a))
    bump = lp({exp: coeff})
    if mutation == "entry of A":
        a[i][j] += bump
    elif mutation == "entry of B":
        b[i][j] += bump
    elif mutation == "entry of C":
        c[i][j] += bump
    elif mutation == "exponent":
        d[i] += exp or 1
    elif mutation == "zero row of B(0)":
        b[i] = [p - p.coeff(0) for p in b[i]]
    elif mutation == "zero column of C_0":
        for row in c:
            row[j] -= row[j].coeff(0)
    elif mutation == "repeated row of B(0)":
        b[i] = [p - p.coeff(0) + q.coeff(0) for p, q in zip(b[i], b[j])]
    elif mutation == "x times a row of B":  # the top exponent stays the largest
        b[0] = [p.shift(1) for p in b[0]]
        d[0] += 1
    elif mutation == "x^-1 times a column of C":  # the bottom one stays the smallest
        for row in c:
            row[n - 1] = row[n - 1].shift(-1)
        d[n - 1] -= 1
    a = LaurentMatrix(a)
    mutated = Factorization(b=LaurentMatrix(b), c=LaurentMatrix(c),
                            exponents=SplittingType(tuple(d)))
    report = verify_factorization(a if as_matrix or mutation == "entry of A" else e, mutated)
    assert report == _clause_report(a, mutated)
    if mutation == "none":
        assert report.valid
    if mutation.startswith(("zero", "x")):
        assert report.failed_clause in ("det(B) constant", "det(C) constant")
