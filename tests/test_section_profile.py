"""Property tests for the one-elimination section-count profile."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.bundles import _h0_dimension, bundle, section_profile
from bgsplit.laurent import LaurentPoly
from bgsplit.linalg import sparse_int_rows
from bgsplit.lmatrix import LaurentMatrix

# The acceptance recipe's elementary-factor coefficients.
COEFFS = (1, -1, 2, Fraction(1, 2))


def _elementary(n, i, j, term):
    rows = [[LaurentPoly.one() if r == c else LaurentPoly.zero() for c in range(n)]
            for r in range(n)]
    rows[i][j] = term
    return LaurentMatrix(rows)


@st.composite
def planted_bundles(draw):
    """(A, d) with A = U diag(x^d) V, U polynomial and V antipolynomial
    products of elementary factors, as in the acceptance suite."""
    n = draw(st.integers(1, 4))
    d = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    a = LaurentMatrix.diagonal_powers(d)
    if n > 1:
        for sign in (1, -1):
            for _ in range(draw(st.integers(0, n + 1))):
                i, j = draw(st.permutations(range(n)))[:2]
                term = LaurentPoly({sign * draw(st.integers(0, 1)): draw(st.sampled_from(COEFFS))})
                e = _elementary(n, i, j, term)
                a = (e @ a) if sign > 0 else (a @ e)
    return a, d


@settings(max_examples=40, deadline=None, derandomize=True)
@given(planted_bundles(), st.integers(0, 3), st.integers(0, 3))
def test_profile_matches_per_twist_counts(planted, below, above):
    a, d = planted
    e = bundle(a)
    lo, hi = a.exponent_range()
    kmin, kmax = -hi - 1 - below, -lo + above
    profile = section_profile(e, kmin, kmax)
    assert list(profile) == list(range(kmin, kmax + 1))
    for k, h in profile.items():
        assert h == _h0_dimension(e, k)
        assert h == sum(max(0, di + k + 1) for di in d)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(-3, 3), st.integers(0, 4))
def test_profile_window_inside_the_scan(kmin, width):
    # A window anywhere, including one that misses every jump.
    e = bundle([[LaurentPoly({1: 1}), 1], [0, LaurentPoly({-1: 1})]])
    profile = section_profile(e, kmin, kmin + width)
    assert profile == {k: max(0, k + 2) + max(0, k) for k in range(kmin, kmin + width + 1)}


int_rows = st.lists(st.lists(
    st.tuples(st.integers(0, 12), st.lists(st.integers(-50, 50), max_size=6)), max_size=3
), max_size=5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(int_rows)
def test_sparse_int_rows_same_for_int_and_fraction_input(rows):
    as_fractions = [[(c, [Fraction(v) for v in entries]) for c, entries in row] for row in rows]
    assert sparse_int_rows(rows) == sparse_int_rows(as_fractions) == rows
