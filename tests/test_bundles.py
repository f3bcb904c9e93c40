import random
from fractions import Fraction

import pytest

from bgsplit.bundles import (
    SplittingType,
    _h0_dimension,
    bundle,
    degree,
    det_bundle,
    dual,
    h0_dim,
    h1_dim,
    is_isomorphic,
    riemann_roch_check,
    splitting_type,
    twist,
)
from bgsplit.cli import main
from bgsplit.errors import InternalSearchExhausted, InvalidBundle
from bgsplit.laurent import LaurentPoly, lp
from bgsplit.lmatrix import LaurentMatrix

from oracles import h0_dimension_oracle, raw_entries, splitting_oracle


def x(e, c=1):
    return lp({e: c})


def line(k):
    return bundle([[x(k)]])


EXT_UP = bundle([[x(1), 1], [0, x(-1)]])          # extension, splits (1, -1)
EXT_DOWN = bundle([[x(-1), x(-1)], [0, x(1)]])    # also splits (1, -1)
OBSTRUCTED = bundle([[x(-1), 1], [0, x(1)]])      # obstructed, splits (0, 0)


def elem(rng, n, sign):
    m = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)]
         for i in range(n)]
    i, j = rng.sample(range(n), 2)
    e = rng.randint(0, 1) if sign > 0 else rng.randint(-1, 0)
    m[i][j] = lp({e: rng.choice([1, -1, 2, Fraction(1, 2)])})
    return LaurentMatrix(m)


def rand_unimodular(rng, n, sign, ops=3):
    u = LaurentMatrix.identity(n)
    if n == 1:
        return u
    for _ in range(ops):
        u = (elem(rng, n, sign) @ u) if sign > 0 else (u @ elem(rng, n, sign))
    return u


def planted_bundle(rng, n_max=4, spread=2, window=(-3, 3)):
    """Random unit-determinant transition with known splitting type."""
    while True:
        n = rng.randint(1, n_max)
        d = tuple(sorted((rng.randint(-spread, spread) for _ in range(n)), reverse=True))
        a = rand_unimodular(rng, n, +1) @ LaurentMatrix.diagonal_powers(d) \
            @ rand_unimodular(rng, n, -1)
        lo, hi = a.exponent_range()
        if window[0] <= lo and hi <= window[1]:
            return bundle(a), d


# -- section counts -------------------------------------------------------


def test_h0_line_bundle_counts():
    for k in range(0, 8):
        assert _h0_dimension(line(0), k) == k + 1
        assert h0_dim(line(k), 0).dimension == k + 1
    for k in range(-5, 0):
        assert _h0_dimension(line(0), k) == 0


def test_h0_extension_example_and_oracle():
    # dimension 2 = sum(max(0, d_i + 1)) for splitting (1, -1)
    space = h0_dim(EXT_UP, 0)
    assert space.dimension == 2
    assert h0_dimension_oracle(raw_entries(EXT_UP.transition), 0, 8) == 2


def test_h0_oracle_cross_check_small_random():
    rng = random.Random(41)
    for _ in range(6):
        e, _ = planted_bundle(rng, n_max=2, spread=1)
        for k in (-1, 0, 1):
            theirs = h0_dimension_oracle(raw_entries(e.transition), k, 8)
            ours = _h0_dimension(e, k)
            assert ours == theirs


def test_section_basis_invariant_and_normalization():
    for e in (EXT_UP, EXT_DOWN, OBSTRUCTED):
        for k in (-1, 0, 1, 2):
            space = h0_dim(e, k)
            for s0, s1 in space.basis:
                assert all(p.is_polynomial() for p in s0)
                assert all(p.is_antipolynomial() for p in s1)
                assert tuple(p.shift(k) for p in e.transition.apply(s1)) == s0
            assert space.dimension == len(space.basis)


def test_h0_basis_and_dimension_paths_agree():
    rng = random.Random(48)
    for _ in range(6):
        e, _ = planted_bundle(rng, n_max=3)
        for k in (-2, 0, 1):
            assert h0_dim(e, k).dimension == _h0_dimension(e, k)


def test_section_count_formula_random():
    rng = random.Random(42)
    for _ in range(10):
        e, d = planted_bundle(rng, n_max=3)
        for k in (-2, 0, 1):
            assert _h0_dimension(e, k) == sum(max(0, di + k + 1) for di in d)


# -- splitting types ------------------------------------------------------


def test_splitting_worked_values():
    assert splitting_type(bundle(LaurentMatrix.identity(2))).indices == (0, 0)
    assert splitting_type(bundle(LaurentMatrix.diagonal_powers([3, -1]))).indices == (3, -1)
    assert splitting_type(EXT_UP).indices == (1, -1)
    # The off-diagonal x^-1 lies below the sub-bundle degree, so it is
    # removable and the matrix still splits as (1, -1); the off-diagonal
    # constant in OBSTRUCTED is the class that actually obstructs (-1, 1).
    assert splitting_type(EXT_DOWN).indices == (1, -1)
    assert splitting_type(OBSTRUCTED).indices == (0, 0)


def test_splitting_matches_sympy_oracle():
    for e in (EXT_UP, EXT_DOWN, OBSTRUCTED):
        expected = splitting_oracle(raw_entries(e.transition), e.det_exponent)
        assert splitting_type(e).indices == expected


def test_splitting_uniqueness_invariance():
    rng = random.Random(43)
    for _ in range(8):
        e, d = planted_bundle(rng, n_max=3)
        u = rand_unimodular(rng, e.rank, +1, ops=2)
        v = rand_unimodular(rng, e.rank, -1, ops=2)
        assert splitting_type(bundle(u @ e.transition @ v)).indices == d


def test_splitting_sum_rule_and_planted():
    rng = random.Random(44)
    for _ in range(10):
        e, d = planted_bundle(rng)
        st = splitting_type(e)
        assert st.indices == d
        assert st.degree == e.det_exponent


def test_twist_covariance_and_dual_reversal():
    rng = random.Random(45)
    e, d = planted_bundle(rng, n_max=3)
    for k in (-2, 1, 3):
        assert splitting_type(twist(e, k)).indices == tuple(di + k for di in d)
        ek = twist(e, k)
        assert (ek.det_coeff, ek.det_exponent) == ek.transition.unit_det()
    assert splitting_type(dual(e)).indices == tuple(-di for di in reversed(d))
    assert (dual(e).det_coeff, dual(e).det_exponent) == dual(e).transition.unit_det()
    assert splitting_type(dual(EXT_UP)).indices == (1, -1)


# -- degree, duality, Riemann-Roch ---------------------------------------


def test_degree_and_det_bundle():
    e = bundle(LaurentMatrix.diagonal_powers([2, -1]))
    assert degree(e) == 1
    assert degree(det_bundle(e)) == 1
    assert det_bundle(e).rank == 1
    d = det_bundle(e)
    assert (d.det_coeff, d.det_exponent) == d.transition.unit_det()
    assert degree(twist(e, 3)) == 1 + 2 * 3
    assert splitting_type(dual(line(5))).indices == (-5,)


def test_h1_examples():
    assert h1_dim(line(-3), 0) == 2
    assert h1_dim(line(0), 0) == 0
    assert h1_dim(EXT_UP, 0) == 0


def test_serre_duality_agreement():
    rng = random.Random(46)
    for _ in range(6):
        e, d = planted_bundle(rng, n_max=3)
        for k in (-2, 0, 2):
            assert h1_dim(e, k) == sum(max(0, -di - k - 1) for di in d)


def test_riemann_roch_examples_and_random():
    rep = riemann_roch_check(line(-3), 0)
    assert rep.holds and (rep.h0, rep.h1, rep.degree, rep.rank) == (0, 2, -3, 1)
    assert riemann_roch_check(bundle(LaurentMatrix.identity(2)), 0).holds
    rng = random.Random(47)
    for _ in range(8):
        e, _ = planted_bundle(rng, n_max=3)
        for k in (-3, 0, 2):
            assert riemann_roch_check(e, k).holds


def test_is_isomorphic():
    assert is_isomorphic(bundle(LaurentMatrix.diagonal_powers([1, -1])), EXT_UP)
    assert not is_isomorphic(
        bundle(LaurentMatrix.diagonal_powers([1, -1])),
        bundle(LaurentMatrix.identity(2)),
    )
    assert is_isomorphic(EXT_UP, twist(EXT_UP, 0))
    assert not is_isomorphic(line(0), bundle(LaurentMatrix.identity(2)))


def test_a_crippled_degree_bound_is_caught(monkeypatch, tmp_path, capsys):
    # Starve the section degree bound: the profile undercounts, and the
    # count/sum check must report a defect rather than answer.
    import bgsplit.bundles as bundles_module

    monkeypatch.setattr(bundles_module, "_degree_bound", lambda e, k, inverse_lo=None: 0)
    for e in (EXT_UP, bundle(LaurentMatrix.diagonal_powers([3, -1]))):
        with pytest.raises(InternalSearchExhausted):
            splitting_type(e)
    path = tmp_path / "ext.txt"
    path.write_text("kind = laurent_matrix, n = 2\nx, 1\n0, x^-1\n", encoding="utf-8")
    assert main(["split", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal consistency failure: ")
    assert "Traceback" not in captured.err


def test_invalid_bundle_rejected():
    with pytest.raises(InvalidBundle):
        bundle([[1, 1], [1, 1]])
    with pytest.raises(InvalidBundle):
        bundle([[lp({1: 1, 0: 1})]])


def test_splitting_type_normalizes_order():
    assert SplittingType((0, 2, -1)).indices == (2, 0, -1)
