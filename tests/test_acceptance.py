"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every check is exact (zero tolerance); the only timed criteria carry
explicit wall-clock budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from bgsplit.bundles import (
    _h0_dimension,
    birkhoff_factor,
    bundle,
    riemann_roch_check,
    splitting_type,
    verify_factorization,
)
from bgsplit.errors import ResonantExponents
from bgsplit.fuchsian import (
    frobenius_series,
    fuchs_relation_scalar,
    fuchs_relation_system,
    fuchsian_system,
    local_system,
    ode_residual,
    scalar_ode,
)
from bgsplit.laurent import LaurentPoly, lp
from bgsplit.linalg import det_q, inverse_q, mat_mul, qmat
from bgsplit.lmatrix import LaurentMatrix
from bgsplit.monodromy import (
    COUNTEREXAMPLE_MATRICES,
    bolibrukh_criterion,
    monodromy_rep,
)
from bgsplit.ratfunc import RatFunc

from oracles import raw_entries, splitting_oracle

F = Fraction


# -- shared random generators (seeded; the suite is deterministic) --------


def _elem(rng, n, sign):
    m = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)]
         for i in range(n)]
    i, j = rng.sample(range(n), 2)
    exp = rng.randint(0, 1) if sign > 0 else rng.randint(-1, 0)
    m[i][j] = lp({exp: rng.choice([1, -1, 2, F(1, 2)])})
    return LaurentMatrix(m)


def _unimodular(rng, n, sign, ops=3):
    u = LaurentMatrix.identity(n)
    if n == 1:
        return u
    for _ in range(ops):
        u = (_elem(rng, n, sign) @ u) if sign > 0 else (u @ _elem(rng, n, sign))
    return u


def _planted(rng):
    """Random A = U diag(x^d) V with entry exponents within [-3, 3]."""
    while True:
        n = rng.randint(1, 4)
        d = tuple(sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True))
        a = _unimodular(rng, n, +1) @ LaurentMatrix.diagonal_powers(d) \
            @ _unimodular(rng, n, -1)
        lo, hi = a.exponent_range()
        if -3 <= lo and hi <= 3:
            return a, d


def test_criterion_1_bolibrukh_counterexample():
    start = time.perf_counter()
    report = bolibrukh_criterion(monodromy_rep(COUNTEREXAMPLE_MATRICES))
    elapsed = time.perf_counter() - start
    assert report.product_is_identity
    assert report.reducible
    assert report.invariant_subspace_witness == (0, 1)  # span{e1, e2}
    assert report.all_single_block
    assert report.eigenvalues == (F(1), F(1), F(-1))
    assert report.eigenvalue_product == F(-1)
    assert report.applies
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - counterexample certified in {elapsed:.3f}s")


def test_criterion_2_section_counts():
    start = time.perf_counter()
    for k in range(0, 11):
        assert _h0_dimension(bundle([[lp({k: 1})]]), 0) == k + 1
    for k in range(-5, 0):
        assert _h0_dimension(bundle([[lp({k: 1})]]), 0) == 0
    canonical_twisted = bundle([[lp({-2: 1})]])  # O(-2), then twist by 2
    assert _h0_dimension(canonical_twisted, 2) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2: PASS - line bundle section counts in {elapsed:.3f}s")


def test_criterion_3_factorization_suite_200():
    rng = random.Random(20250810)
    start = time.perf_counter()
    for _ in range(200):
        a, d = _planted(rng)
        e = bundle(a)
        f = birkhoff_factor(e)
        assert verify_factorization(e, f).valid
        assert f.exponents.indices == d
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3: PASS - 200 certified factorizations in {elapsed:.2f}s")


def test_criterion_4_uniqueness_invariance_100():
    rng = random.Random(4)
    for _ in range(100):
        a, _ = _planted(rng)
        u = _unimodular(rng, a.n, +1, ops=2)
        v = _unimodular(rng, a.n, -1, ops=2)
        assert splitting_type(bundle(u @ a @ v)) == splitting_type(bundle(a))
    print("ACCEPTANCE 4: PASS - splitting invariant under 100 unimodular changes")


def test_criterion_5_riemann_roch_100():
    rng = random.Random(5)
    for _ in range(100):
        a, _ = _planted(rng)
        e = bundle(a)
        for k in range(-4, 5):
            assert riemann_roch_check(e, k).holds
    print("ACCEPTANCE 5: PASS - Riemann-Roch on 100 bundles, all twists in [-4, 4]")


def test_criterion_6_fuchs_relations():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 3)
        count = rng.randint(1, 4)
        points = rng.sample([F(0), F(1), F(-1), F(2), F(1, 2), F(-3)], count)
        residues = [
            [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
            for _ in points
        ]
        holds, total = fuchs_relation_system(fuchsian_system(points, residues))
        assert holds and total == 0

    nonzero = [F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(-1, 3), F(1, 5), F(3, 5), F(-2, 5)]
    for _ in range(25):
        a, b, c = rng.choice(nonzero), rng.choice(nonzero), rng.choice(nonzero)
        den = {2: 1, 1: -1}
        ode = scalar_ode([
            RatFunc(lp({1: a + b + 1, 0: -c}), lp(den)),
            RatFunc(lp({0: a * b}), lp(den)),
        ])
        report = fuchs_relation_scalar(ode)
        assert report.holds and report.lhs == 1 and report.rhs == 1
    print("ACCEPTANCE 6: PASS - system and scalar exponent-sum identities, exact")


def test_criterion_7_frobenius_certificates():
    rng = random.Random(7)
    fifths = [F(1, 5), F(2, 5), F(3, 5), F(4, 5)]
    order = 8
    for _ in range(50):
        n = rng.randint(1, 3)
        offsets = rng.sample(fifths, n)
        eigs = [rng.randint(-2, 2) + offsets[i] for i in range(n)]
        while True:
            s = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                s[i][i] += 1
            if det_q(s) != 0:
                break
        diag = [[eigs[i] if i == j else F(0) for j in range(n)] for i in range(n)]
        r = mat_mul(mat_mul(qmat(s), qmat(diag)), inverse_q(qmat(s)))
        tail = [
            [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            for _ in range(rng.randint(0, 3))
        ]
        loc = local_system(r, tail)
        series = frobenius_series(loc, order)
        assert ode_residual(loc, series) >= order
    with pytest.raises(ResonantExponents):
        frobenius_series(
            local_system([[1, 0], [0, 0]], [[[0, 1], [1, 0]]]), order
        )
    print("ACCEPTANCE 7: PASS - 50 residual certificates at order 8; resonance raised")


EXT_UP = [[lp({1: 1}), lp({0: 1})], [lp({}), lp({-1: 1})]]
EXT_DOWN = [[lp({-1: 1}), lp({-1: 1})], [lp({}), lp({1: 1})]]


def test_criterion_8_worked_splitting_values():
    e_up = bundle(EXT_UP)
    st_up = splitting_type(e_up)
    assert st_up.indices == (1, -1)
    assert splitting_oracle(raw_entries(e_up.transition), e_up.det_exponent) == (1, -1)

    e_down = bundle(EXT_DOWN)
    st_down = splitting_type(e_down)
    oracle_down = splitting_oracle(raw_entries(e_down.transition), e_down.det_exponent)
    assert st_down.indices == oracle_down  # main path agrees with the oracle
    print(
        "ACCEPTANCE 8: PASS with recorded-value deviation - "
        f"[[x,1],[0,x^-1]] -> (1, -1) confirmed; [[x^-1,x^-1],[0,x]] -> "
        f"{st_down.indices} (oracle {oracle_down}); the recorded value (0, 0) "
        "for the second matrix is unattainable (see xfail test)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The recorded expected splitting (0, 0) for [[x^-1, x^-1], [0, x]] is "
        "mathematically unattainable: B = [[1, 0], [x, 1]] and "
        "C = [[1 + x^-1, -1], [-x^-1, 1]] give B*A*C = diag(x^-1, x) exactly, "
        "so by uniqueness of the descending index sequence the splitting is "
        "(1, -1); the independent h0-scan oracle agrees.  The matrix matching "
        "the intended obstruction is [[x^-1, 1], [0, x]], which does split as "
        "(0, 0) and is covered in test_bundles."
    ),
)
def test_criterion_8_recorded_value_for_second_matrix():
    st = splitting_type(bundle(EXT_DOWN))
    print(f"ACCEPTANCE 8 (recorded value): FAIL - got {st.indices}, recorded (0, 0)")
    assert st.indices == (0, 0)


# -- cross-route check at higher rank ---------------------------------------


@pytest.mark.parametrize("n", (5, 6, 7, 8, 12))
def test_cross_route_planted_rank_5_to_8(n):
    """The section-count scan and the order-basis factorization are
    independent routes to the splitting type; on planted bundles with 3n
    elementary factors a side both must give the planted indices.  The
    seeded rank-12 case reaches past the ranks the name says."""
    rng = random.Random(n)
    for _ in range(3):
        d = tuple(sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True))
        a = _unimodular(rng, n, +1, ops=3 * n) @ LaurentMatrix.diagonal_powers(d) \
            @ _unimodular(rng, n, -1, ops=3 * n)
        e = bundle(a)
        f = birkhoff_factor(e)
        assert splitting_type(e).indices == f.exponents.indices == d
        assert verify_factorization(e, f).valid
