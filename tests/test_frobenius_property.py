"""Property tests of ``frobenius_series`` and ``ode_residual`` against the
dense oracles of ``tests/oracles.py``.

``frobenius_series`` solves each order as one n x n Cayley-Hamilton system
on integers; the oracle solves the n^2 x n^2 Kronecker system with sympy
and finds resonance as a singular Kronecker matrix.  ``ode_residual``
multiplies back on integer matrices; the oracle sums Fractions.  Residues
R (n <= 5) are non-triangular rational, scalar (derogatory), nilpotent or
resonant (eigenvalues a and a + j, 1 <= j <= 4, conjugated by integer
elementary matrices; a single exponent is never resonant), with 0-3 tail
terms and orders 0-6.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frobenius_oracle, residual_oracle

from bgsplit.errors import ResonantExponents
from bgsplit.fuchsian import FrobeniusSeries, frobenius_series, local_system, ode_residual

SMALL = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3)))
KINDS = ("rational", "scalar", "nilpotent", "resonant")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


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
