import random
from fractions import Fraction

from bgsplit.bundles import (
    Factorization,
    SplittingType,
    birkhoff_factor,
    bundle,
    splitting_type,
    verify_factorization,
)
from bgsplit.laurent import lp
from bgsplit.lmatrix import LaurentMatrix

from test_bundles import planted_bundle, rand_unimodular, x


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
