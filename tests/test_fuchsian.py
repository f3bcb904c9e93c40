import random
from contextlib import ExitStack
from dataclasses import astuple
from fractions import Fraction
from math import factorial
from pathlib import Path
from unittest import mock

import pytest

from bgsplit import fuchsian
from bgsplit.errors import (
    BGSplitError,
    NotFirstKind,
    NotFuchsian,
    NotInvertible,
    ResonantExponents,
    WorkBudgetExceeded,
)
from bgsplit.fuchsian import (
    _lah,
    FIRST_KIND,
    FROBENIUS_BUDGET,
    INF,
    ORDINARY,
    SECOND_KIND,
    FrobeniusSeries,
    classify_singularity_scalar,
    classify_singularity_system,
    exponents_system,
    frobenius_series,
    fuchs_relation_scalar,
    fuchs_relation_system,
    fuchsian_system,
    gauge_transform,
    indicial_polynomial,
    local_system,
    ode_residual,
    rfmat,
    scalar_ode,
)
from bgsplit.io import parse_matrix_file
from bgsplit.laurent import LaurentPoly, lp
from bgsplit.ratfunc import RatFunc
from oracles import fuchs_relation_oracle, rf_mat_mul, scalar_chart_oracle

F = Fraction


def rf(num_terms, den_terms=None):
    num = lp(num_terms) if isinstance(num_terms, dict) else LaurentPoly.constant(num_terms)
    den = lp(den_terms) if den_terms else None
    return RatFunc(num, den)


def hypergeometric(a, b, c):
    """z(1-z) w'' + (c - (a+b+1) z) w' - a b w = 0, made monic."""
    den = {2: 1, 1: -1}
    return scalar_ode([rf({1: a + b + 1, 0: -c}, den), rf({0: a * b}, den)])


EULER = scalar_ode([rf({0: 1}, {1: 1}), rf({0: -1}, {2: 1})])  # w'' + w'/z - w/z^2


# -- classification -------------------------------------------------------


def test_classify_scalar_worked_examples():
    ode = scalar_ode([rf({0: 1}, {1: 1}), rf({0: 1}, {2: 1})])
    assert classify_singularity_scalar(ode, 0).kind == FIRST_KIND
    second = scalar_ode([rf({0: 1}, {2: 1})])
    rep = classify_singularity_scalar(second, 0)
    assert rep.kind == SECOND_KIND and rep.rank == 1
    g = hypergeometric(F(1, 3), F(1, 7), F(1, 2))
    for point in (0, 1, INF):
        assert classify_singularity_scalar(g, point).kind == FIRST_KIND
    assert classify_singularity_scalar(g, 2).kind == ORDINARY


def test_classify_scalar_coordinate_stable():
    g = hypergeometric(F(1, 2), F(2, 3), F(5, 7))
    shifted = scalar_ode([c.shift(1) for c in g.coeffs])
    at_one = classify_singularity_scalar(g, 1)
    at_zero = classify_singularity_scalar(shifted, 0)
    assert (at_one.kind, at_one.rank) == (at_zero.kind, at_zero.rank)


def test_classify_system_coordinate_stable():
    rng = random.Random(65)
    base = rfmat([
        [rf({0: 1}, {2: 1, 1: -3, 0: 2}), rf({1: 1}, {1: 1, 0: -1})],
        [0, rf({0: 1}, {3: 1, 2: -3, 1: 3, 0: -1})],
    ])  # poles at 1 (orders 1..3) and 2 (order 1)
    for p in (F(1), F(2), F(5)):
        shifted = tuple(tuple(v.shift(p) for v in row) for row in base)
        direct = classify_singularity_system(base, p)
        moved = classify_singularity_system(shifted, 0)
        assert (direct.kind, direct.rank) == (moved.kind, moved.rank)


def test_classify_system_worked_examples():
    r_over_z = rfmat([[rf({0: 1}, {1: 1}), 0], [0, rf({0: 2}, {1: 1})]])
    assert classify_singularity_system(r_over_z, 0).kind == FIRST_KIND
    r_over_z2 = rfmat([[rf({0: 1}, {2: 1}), 0], [0, 0]])
    rep = classify_singularity_system(r_over_z2, 0)
    assert rep.kind == SECOND_KIND and rep.rank == 1
    const = rfmat([[1, 0], [0, 2]])
    rep = classify_singularity_system(const, INF)
    assert rep.kind == SECOND_KIND and rep.rank == 1
    assert classify_singularity_system(const, 5).kind == ORDINARY


# -- exponents and Fuchs relations ---------------------------------------


def test_exponents_system_examples():
    sys1 = fuchsian_system([0, 1], [[[1, 0], [0, 0]], [[-1, 0], [0, 0]]])
    at0 = exponents_system(sys1, 0)
    assert at0.charpoly == lp({2: 1, 1: -1}) and at0.trace == 1
    assert at0.rational_roots == ((F(0), 1), (F(1), 1)) and at0.splits_over_q

    nil = fuchsian_system([0], [[[0, 1], [0, 0]]])
    atn = exponents_system(nil, 0)
    assert atn.charpoly == lp({2: 1}) and atn.trace == 0

    at_inf = exponents_system(sys1, INF)
    assert at_inf.charpoly == lp({2: 1}) and at_inf.trace == 0

    with pytest.raises(ValueError):
        exponents_system(sys1, 7)

    # irrational eigenvalue pair: polynomial reported, no roots extracted
    swap = fuchsian_system([0], [[[0, 2], [1, 0]]])
    data = exponents_system(swap, 0)
    assert data.charpoly == lp({2: 1, 0: -2})
    assert data.rational_roots == () and not data.splits_over_q
    assert data.trace == 0


def test_fuchs_relation_system():
    sys1 = fuchsian_system([0, 1], [[[1, 0], [0, 0]], [[-1, 0], [0, 0]]])
    assert fuchs_relation_system(sys1) == (True, 0)
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(1, 3)
        pts = rng.sample([0, 1, 2, -1, F(1, 2)], rng.randint(1, 3))
        mats = [
            [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for _ in pts
        ]
        assert fuchs_relation_system(fuchsian_system(pts, mats)) == (True, 0)


def test_indicial_worked_examples():
    ind = indicial_polynomial(EULER, 0)
    assert ind.polynomial == lp({2: 1, 0: -1})
    assert ind.exponent_sum == 0

    free = scalar_ode([RatFunc.zero(), RatFunc.zero()])
    ind0 = indicial_polynomial(free, 0)
    assert ind0.polynomial == lp({2: 1, 1: -1})
    assert ind0.exponent_sum == 1

    g = hypergeometric(F(1, 3), F(1, 7), F(1, 2))
    at0 = indicial_polynomial(g, 0)
    # roots {0, 1 - c}
    assert at0.polynomial == lp({1: 1}) * lp({1: 1, 0: -(1 - F(1, 2))})
    assert at0.exponent_sum == F(1, 2)
    at_inf = indicial_polynomial(g, INF)
    # roots {a, b}
    assert at_inf.polynomial == lp({1: 1, 0: -F(1, 3)}) * lp({1: 1, 0: -F(1, 7)})

    with pytest.raises(NotFirstKind):
        indicial_polynomial(scalar_ode([rf({0: 1}, {2: 1})]), 0)


def test_indicial_degree_and_vieta():
    rng = random.Random(62)
    for _ in range(10):
        a, b, c = (F(rng.randint(-3, 3), rng.choice([1, 2, 3, 5])) for _ in range(3))
        g = hypergeometric(a, b, c)
        for point in (0, 1, INF):
            ind = indicial_polynomial(g, point)
            n = g.order
            assert ind.polynomial.deg() == n
            assert ind.polynomial.coeff(n) == 1
            assert ind.exponent_sum == -ind.polynomial.coeff(n - 1)


def test_fuchs_relation_scalar_families():
    g = hypergeometric(F(1, 3), F(1, 7), F(1, 2))
    rep = fuchs_relation_scalar(g)
    assert rep.holds and rep.lhs == 1 and rep.rhs == 1 and rep.num_singularities == 3

    rep = fuchs_relation_scalar(EULER)
    assert rep.holds and rep.lhs == 0 and rep.num_singularities == 2

    free = scalar_ode([RatFunc.zero(), RatFunc.zero()])
    rep = fuchs_relation_scalar(free)
    assert rep.holds and rep.lhs == -1 and rep.num_singularities == 1

    with pytest.raises(NotFuchsian):
        fuchs_relation_scalar(scalar_ode([rf({0: 1}, {2: 1})]))
    with pytest.raises(NotFuchsian):
        # constant a_0 is irregular at infinity
        fuchs_relation_scalar(scalar_ode([RatFunc.zero(), RatFunc.one()]))


def test_fuchs_relation_scalar_irrational_locus():
    # poles at +-sqrt(2): still exactly summable through residue identities
    den = {2: 1, 0: -2}
    ode = scalar_ode([rf({1: 1}, den), rf({0: 1}, den)])
    rep = fuchs_relation_scalar(ode)
    assert rep.num_singularities >= 2
    assert rep.holds


def test_fuchs_relation_lhs_matches_per_point_indicial_sums():
    # The residue-sum shortcut must agree with summing indicial exponent
    # sums point by point whenever the singular locus is rational.
    rng = random.Random(64)

    def sep(points):
        out = LaurentPoly.one()
        for p in points:
            out = out * lp({1: 1, 0: -p})
        return out

    def rand_poly(max_deg):
        return LaurentPoly(
            {e: F(rng.randint(-4, 4)) for e in range(rng.randint(0, max_deg) + 1)}
        )

    for _ in range(25):
        pts = rng.sample([F(0), F(1), F(-1), F(2), F(1, 2)], rng.randint(1, 3))
        s = sep(pts)
        ds = s.deg()
        if rng.random() < 0.5:
            ode = scalar_ode([
                RatFunc(rand_poly(max(0, ds - 1)), s),
                RatFunc(rand_poly(max(0, 2 * ds - 2)), s * s),
            ])
        else:
            ode = scalar_ode([
                RatFunc(rand_poly(max(0, ds - 1)), s),
                RatFunc(rand_poly(max(0, 2 * ds - 2)), s * s),
                RatFunc(rand_poly(max(0, 3 * ds - 3)), s * s * s),
            ])
        rep = fuchs_relation_scalar(ode)
        assert rep.holds
        direct = F(0)
        count = 0
        for p in pts:
            if classify_singularity_scalar(ode, p).kind != ORDINARY:
                direct += indicial_polynomial(ode, p).exponent_sum
                count += 1
        if rep.infinity_singular:
            direct += indicial_polynomial(ode, INF).exponent_sum
            count += 1
        assert direct == rep.lhs
        assert count == rep.num_singularities


def test_lah_numbers_satisfy_their_recurrence():
    # L(j + 1, i) = (j + i) L(j, i) + L(j, i - 1), from L(0, 0) = 1
    for j in range(8):
        assert _lah(j + 1, 0) == 0
        for i in range(1, j + 2):
            assert _lah(j + 1, i) == (j + i) * _lah(j, i) + _lah(j, i - 1)
        assert _lah(j, j + 1) == 0
    assert _lah(0, 0) == 1


def _indicial(data, n):
    return [data.polynomial.coeff(e) for e in range(n + 1)], data.exponent_sum


def _outcome(call):
    """The call's value, or the (class name, message) of the error it raises."""
    try:
        return call()
    except (NotFirstKind, NotFuchsian) as exc:
        return type(exc).__name__, str(exc)


def test_scalar_charts_agree_with_the_sympy_oracle():
    # a_(n-k) has poles at up to three of 0, 1, 1/3 and -2, of order up to
    # k (up to k + 1 one time in five), and a numerator of degree up to
    # deg den - k (one more one time in five), so every kind occurs at
    # every point; one coefficient in five, and any with deg den < k, is 0.
    rng = random.Random(1515)
    poles = (F(0), F(1), F(1, 3), F(-2))
    kinds = set()
    for _ in range(40):
        n = rng.randint(1, 3)
        coeffs = []
        for k in range(1, n + 1):
            den = LaurentPoly.one()
            for p in rng.sample(poles, rng.randint(0, 3)):
                den = den * lp({1: 1, 0: -p}) ** rng.randint(1, k + (rng.random() < 0.2))
            top = den.deg() - k + (rng.random() < 0.2) if rng.random() < 0.8 else -1
            num = {e: F(rng.randint(-3, 3)) for e in range(top + 1)}
            coeffs.append(({e: c for e, c in num.items() if c}, dict(den.terms)))
        ode = scalar_ode([RatFunc(LaurentPoly(num), LaurentPoly(den)) for num, den in coeffs])
        for point in poles + (INF,):
            kind, rank, indicial = scalar_chart_oracle(coeffs, None if point is INF else point)
            kinds.add((point is INF, kind))
            report = classify_singularity_scalar(ode, point)
            assert (report.kind, report.rank) == (kind, rank), (coeffs, point)
            assert _outcome(lambda: _indicial(indicial_polynomial(ode, point), n)) == indicial
        assert _outcome(lambda: astuple(fuchs_relation_scalar(ode))) == fuchs_relation_oracle(coeffs)
    assert kinds == {(at_inf, kind) for at_inf in (False, True)
                     for kind in (ORDINARY, FIRST_KIND, SECOND_KIND)}


# -- Frobenius series ------------------------------------------------------


def test_frobenius_scalar_exact_case():
    loc = local_system([[F(5, 7)]])
    series = frobenius_series(loc, 3)
    assert series.s[0] == ((F(1),),)
    assert all(series.s[k] == ((F(0),),) for k in range(1, 4))
    assert ode_residual(loc, series) == 4  # identically zero: sentinel N+1


def test_frobenius_worked_sylvester_solve():
    loc = local_system([[F(1, 2), 0], [0, 0]], [[[0, 1], [1, 0]]])
    series = frobenius_series(loc, 1)
    assert series.s[1] == ((F(0), F(2)), (F(2, 3), F(0)))
    assert ode_residual(loc, series) >= 1


def test_frobenius_resonant_rejected():
    with pytest.raises(ResonantExponents):
        frobenius_series(local_system([[1, 0], [0, 0]], [[[0, 1], [0, 0]]]), 2)
    # gap exactly N is still caught
    with pytest.raises(ResonantExponents):
        frobenius_series(local_system([[3, 0], [0, 0]]), 3)
    # gap beyond the truncation order is acceptable
    frobenius_series(local_system([[3, 0], [0, 0]]), 2)


def test_frobenius_singular_step_is_an_internal_failure(monkeypatch):
    """A step that ``solve`` finds inconsistent past the resonance check is
    a defect: the base error, never a domain error or a silent series."""
    monkeypatch.setattr(fuchsian, "solve", lambda a, b: None)
    with pytest.raises(BGSplitError, match="despite the resonance check") as raised:
        frobenius_series(local_system([[F(1, 2), 0], [0, 0]], [[[0, 1], [1, 0]]]), 1)
    assert type(raised.value) is BGSplitError


def test_frobenius_residual_certificate_random():
    rng = random.Random(63)
    for _ in range(8):
        n = rng.randint(1, 3)
        fifths = rng.sample([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], n)
        diag = [[rng.randint(-2, 2) + fifths[i] if i == j else F(0) for j in range(n)]
                for i in range(n)]
        s = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            s[i][i] += 1  # keep it invertible most of the time
        from bgsplit.linalg import det_q, inverse_q, mat_mul, qmat
        if det_q(s) == 0:
            continue
        r = mat_mul(mat_mul(qmat(s), qmat(diag)), inverse_q(qmat(s)))
        tail = [
            [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            for _ in range(rng.randint(0, 2))
        ]
        loc = local_system(r, tail)
        order = 5
        series = frobenius_series(loc, order)
        assert ode_residual(loc, series) >= order


def test_frobenius_budget_admits_its_last_order_and_refuses_the_next():
    # w' = w in rank 1: S_k = 1/k!, with (order + 1) * 1 coefficients
    series = frobenius_series(local_system([[0]], [[[1]]]), FROBENIUS_BUDGET - 1)
    assert series.s[-1] == ((F(1, factorial(FROBENIUS_BUDGET - 1)),),)
    with pytest.raises(WorkBudgetExceeded, match="over the work budget of 4096"):
        frobenius_series(local_system([[0]]), FROBENIUS_BUDGET)
    with pytest.raises(WorkBudgetExceeded):
        frobenius_series(local_system([[0, 0], [0, 0]]), FROBENIUS_BUDGET // 4)


def test_residual_detects_corruption():
    loc = local_system([[F(1, 2), 0], [0, 0]], [[[0, 1], [1, 0]]])
    series = frobenius_series(loc, 1)
    corrupted = FrobeniusSeries(
        r=series.r,
        s=(series.s[0], ((F(1), F(2)), (F(2, 3), F(0)))),
    )
    assert ode_residual(loc, corrupted) == 0


# -- gauge transformations -------------------------------------------------


def test_gauge_worked_examples():
    out = gauge_transform([[0, 0], [0, 0]], [[lp({1: 1}), 0], [0, 1]])
    assert out[0][0] == RatFunc(lp({0: -1}), lp({1: 1}))
    assert out[0][1].is_zero and out[1][0].is_zero and out[1][1].is_zero

    a = rfmat([[rf({0: 1}, {1: 1}), 1], [0, 2]])
    assert gauge_transform(a, [[1, 0], [0, 1]]) == a

    with pytest.raises(NotInvertible):
        gauge_transform(a, [[1, 1], [1, 1]])


def test_gauge_round_trip_and_composition():
    a = rfmat([[rf({0: 1}, {1: 1}), 1], [0, 2]])
    p = rfmat([[lp({1: 1}), 1], [0, 1]])
    q = rfmat([[1, 0], [lp({1: 1, 0: -1}), 1]])
    once = gauge_transform(a, p)
    p_inv = rfmat([[rf({0: 1}, {1: 1}), rf({0: -1}, {1: 1})], [0, 1]])  # 1/x, -1/x
    assert gauge_transform(once, p_inv) == a
    assert gauge_transform(once, q) == gauge_transform(a, rf_mat_mul(p, q))


RATFUNC_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__neg__", "derivative")
DATA = Path(__file__).resolve().parent / "data"
GOLDEN_GAUGES = {
    "extension.gauge_p": (DATA.parent.parent / "demos" / "data" / "extension.txt",
                          DATA / "gauge_p.txt"),
    "gauge_a4.gauge_p4": (DATA / "gauge_a4.txt", DATA / "gauge_p4.txt"),
}


def _gauge_inputs(case):
    if case == "rational3":
        return (rfmat([[rf({0: 1}, {1: 1, 0: -1}), lp({1: 1}), 0],
                       [2, rf({0: 1}, {2: 1, 0: 1}), rf({1: 1}, {1: 1, 0: 2})],
                       [0, 1, rf({0: 3}, {1: 1, 0: -1})]]),
                rfmat([[lp({1: 1, 0: 1}), rf({0: 1}, {1: 1, 0: -2}), 0],
                       [0, 1, rf({1: 1}, {1: 1, 0: 1})],
                       [1, 0, 2]]))
    return tuple(parse_matrix_file(path.read_text(encoding="utf-8")).obj.entries
                 for path in GOLDEN_GAUGES[case])


@pytest.mark.parametrize("case", sorted(GOLDEN_GAUGES) + ["rational3"])
def test_gauge_transform_runs_no_ratfunc_arithmetic(case):
    # A P is one unreduced Z[x] product and each entry of L (A P - P') one
    # RatFunc built from polynomials, so no RatFunc operator runs.
    a, p = _gauge_inputs(case)

    def refuse(*args):
        raise AssertionError("RatFunc arithmetic inside gauge_transform")

    with ExitStack() as stack:
        for name in RATFUNC_ARITHMETIC:
            stack.enter_context(mock.patch.object(RatFunc, name, refuse))
        out = gauge_transform(a, p)
    assert len(out) == len(a) and any(v for row in out for v in row)
