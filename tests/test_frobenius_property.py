"""Property tests of ``frobenius_series`` and ``ode_residual`` against the
dense oracles of ``tests/oracles.py``.

``frobenius_series`` solves each order as one n x n Cayley-Hamilton system
on integers; the oracle solves the n^2 x n^2 Kronecker system with sympy
and finds resonance as a singular Kronecker matrix.  ``ode_residual``
multiplies back on integer matrices; the oracle sums Fractions.  Residues
R (n <= 5) are non-triangular rational, scalar (derogatory), nilpotent or
resonant (eigenvalues a and a + j, 1 <= j <= 4, conjugated by integer
elementary matrices; a single exponent is never resonant), with 0-3 tail
terms and orders 0-6.  Ranks 6-8, the benchmark's rank class, run on
fewer examples: rational or conjugated triangular residues whose
exponents lie in distinct classes mod 1 (denominators 2, 3 and 7), with
tails over denominators 2, 3 and 7.  The width tests pin the packed
Horner sum of ``frobenius_series`` at the edge of its digit width.
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frobenius_oracle, residual_oracle

from bgsplit.errors import ResonantExponents
from bgsplit.fuchsian import FrobeniusSeries, frobenius_series, local_system, ode_residual
from bgsplit.lmatrix import _digit_bytes

SMALL = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3)))
KINDS = ("rational", "scalar", "nilpotent", "resonant")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
# Exponents in distinct classes mod 1, so a triangular residue on them is
# never resonant; an integer added to one keeps its class.
CLASSES = tuple(Fraction(a, b) for b in (2, 3, 7) for a in range(1, b)) + (Fraction(0),)
TAIL_ENTRIES = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 7)))


def square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def conjugated(m, steps):
    """E m E^-1 for each E = I + c e_i e_j^T in turn (i != j): row i of m
    gains c times row j, then column j loses c times column i."""
    m = [list(row) for row in m]
    for i, j, c in steps:
        if i == j:
            continue
        m[i] = [v + c * w for v, w in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return m


@st.composite
def residues(draw, n, kind):
    if kind == "rational":
        return draw(square(n, SMALL))
    if kind == "scalar":
        c = draw(SMALL)
        return [[c if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    if kind == "nilpotent":
        diagonal = [Fraction(0)] * n
    elif kind == "triangular":
        classes = draw(st.lists(st.sampled_from(CLASSES), min_size=n, max_size=n, unique=True))
        diagonal = [c + draw(st.integers(-1, 1)) for c in classes]
    else:
        base = draw(st.sampled_from((Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))))
        diagonal = [base] + [base + draw(st.integers(1, 4)) for _ in range(n - 1)]
    upper = draw(square(n, st.integers(-2, 2)))
    triangular = [[diagonal[i] if i == j else Fraction(upper[i][j]) if j > i else Fraction(0)
                   for j in range(n)] for i in range(n)]
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     st.integers(-2, 2)), max_size=2 * n))
    return conjugated(triangular, steps)


@st.composite
def local_data(draw):
    n = draw(st.integers(1, 5))
    r = draw(residues(n, draw(st.sampled_from(KINDS))))
    tail = draw(st.lists(square(n, SMALL), max_size=3))
    return r, tail, draw(st.integers(0, 6))


@st.composite
def rank_class_data(draw):
    n = draw(st.integers(6, 8))
    r = draw(residues(n, draw(st.sampled_from(("rational", "triangular")))))
    tail = draw(st.lists(square(n, TAIL_ENTRIES), min_size=1, max_size=2))
    return r, tail, draw(st.integers(1, 3))


def as_lists(series):
    return [[list(row) for row in m] for m in series]


@SETTINGS
@given(case=local_data())
def test_frobenius_series_matches_kronecker_oracle(case):
    r, tail, order = case
    try:
        expected = frobenius_oracle(r, tail, order)
    except ValueError as resonance:
        with pytest.raises(ResonantExponents) as caught:
            frobenius_series(local_system(r, tail), order)
        assert str(caught.value) == str(resonance)
        return
    series = frobenius_series(local_system(r, tail), order)
    assert as_lists(series.s) == expected


@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=rank_class_data())
def test_rank_class_series_matches_kronecker_oracle(case):
    r, tail, order = case
    try:
        expected = frobenius_oracle(r, tail, order)
    except ValueError as resonance:
        with pytest.raises(ResonantExponents) as caught:
            frobenius_series(local_system(r, tail), order)
        assert str(caught.value) == str(resonance)
        return
    local = local_system(r, tail)
    series = frobenius_series(local, order)
    assert as_lists(series.s) == expected
    assert ode_residual(local, series) == residual_oracle(r, tail, expected)


@SETTINGS
@given(case=local_data(), data=st.data())
def test_residual_order_matches_fraction_oracle(case, data):
    r, tail, order = case
    local = local_system(r, tail)
    try:
        series = frobenius_series(local, order)
    except ResonantExponents:
        return
    s = as_lists(series.s)
    if data.draw(st.booleans()):  # corrupt one entry of one order
        k = data.draw(st.integers(0, order))
        i, j = data.draw(st.integers(0, len(r) - 1)), data.draw(st.integers(0, len(r) - 1))
        s[k][i][j] += data.draw(SMALL.filter(bool))
    corrupted = FrobeniusSeries(r=series.r, s=tuple(tuple(map(tuple, m)) for m in s))
    assert ode_residual(local, corrupted) == residual_oracle(r, tail, s)


def test_frobenius_n10_order8_is_fast_and_certified():
    """The dense n^2 x n^2 route took about a minute on this case; one
    n x n solve per order takes well under a second."""
    rng = random.Random(10)
    n = 10
    r = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    tail = [[[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            for _ in range(2)]
    local = local_system(r, tail)
    started = time.perf_counter()
    series = frobenius_series(local, 8)
    assert time.perf_counter() - started < 20
    assert ode_residual(local, series) >= 8


def _permutation_edge_cases():
    """R = 0 and the tail c/q * P for a permutation matrix P, so that
    S_k = (c/q)^k P^k / k!.  Here N = 0, g(t) = t^n and H_i = 0 for i < n-1,
    so Y = (-k)^(n-1) c^k P^k and the width bound k^(n-1) c^k of
    ``frobenius_series`` is exact; c is the least integer that puts Y at
    the last order past a balanced digit of some number of bytes."""
    rng = random.Random(22)
    for n in range(1, 9):
        for order in (1, 3, 8):
            for target in (2, 5, 9):
                c = max(1, round((2 ** (8 * target - 1) / order ** (n - 1)) ** (1 / order)) - 2)
                while order ** (n - 1) * c**order < 2 ** (8 * target - 1):
                    c += 1
                perm = rng.sample(range(n), n)
                p = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
                yield n, order, c, rng.choice((1, 2, 3, 7)), p


def test_frobenius_horner_sum_at_the_edge_of_its_packed_width():
    # The largest Horner entry, k^(n-1) c^k at the last order, is no
    # balanced digit one byte narrower than the width the series packs at,
    # so a narrower width would read it wrongly.
    for n, order, c, q, p in _permutation_edge_cases():
        tail = [[Fraction(c * v, q) for v in row] for row in p]
        series = frobenius_series(local_system([[0] * n] * n, [tail]), order)
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        for k, s_k in enumerate(series.s):
            assert as_lists([s_k]) == [[[Fraction(c**k * v, q**k * factorial(k)) for v in row]
                                        for row in power]]
            power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*p)] for row in power]
        largest = order ** (n - 1) * c**order
        width = _digit_bytes(largest)
        assert largest >= 1 << 8 * (width - 1) - 1, (n, order, c)


def test_frobenius_step_whose_shifted_residue_vanishes():
    # R = c*I with integer c: at k = c the Horner matrix N - k*d is 0, so
    # Y = K_0, and for n = 4 the packed K_1 exceeds the width that bounds
    # Y (a packing that needs balanced digits raised OverflowError here).
    for n in (2, 4):
        for c in (1, 2):
            for a in (1, 43, 46, 397):
                r = [[Fraction(c * (i == j)) for j in range(n)] for i in range(n)]
                tail = [[Fraction(a * (i == j)) for j in range(n)] for i in range(n)]
                local = local_system(r, [tail])
                series = frobenius_series(local, c + 1)
                assert as_lists(series.s) == frobenius_oracle(r, [tail], c + 1)
                assert ode_residual(local, series) >= c + 1
