"""Property tests for the one-elimination section-count profile."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.bundles import (
    _degree_bound, _h0_dimension, bundle, degree, dual, h0_dim, h1_dim, section_profile,
)
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
def planted_bundles(draw, max_rank=4):
    """(A, d) with A = U diag(x^d) V, U polynomial and V antipolynomial
    products of elementary factors, as in the acceptance suite."""
    n = draw(st.integers(1, max_rank))
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
@given(planted_bundles(), st.integers(-4, 3))
def test_h0_basis_has_the_profile_dimension_and_riemann_roch(planted, k):
    e = bundle(planted[0])
    h0 = len(h0_dim(e, k).basis)
    assert h0 == section_profile(e, k, k)[k]
    assert h0 - h1_dim(e, k) == degree(e) + e.rank * (k + 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(-3, 3), st.integers(0, 4))
def test_profile_window_inside_the_scan(kmin, width):
    # A window anywhere, including one that misses every jump.
    e = bundle([[LaurentPoly({1: 1}), 1], [0, LaurentPoly({-1: 1})]])
    profile = section_profile(e, kmin, kmin + width)
    assert profile == {k: max(0, k + 2) + max(0, k) for k in range(kmin, kmin + width + 1)}


def _old_bound(e, k):
    """The static bound the proven one replaced; it had room to spare."""
    lo, hi = e.transition.exponent_range()
    return e.rank * (max(0, -lo) + max(0, hi)) + abs(k) + e.rank


@settings(max_examples=30, deadline=None, derandomize=True)
@given(planted_bundles(max_rank=5))
def test_proven_degree_bound_loses_no_section(planted):
    # On a planted bundle and on its dual, whose indices are -d: the profile
    # equals the planted counts and the one on the bound padded by the old
    # formula, and every basis section stays within the bound.
    a, d = planted
    e = bundle(a)
    for bundle_, indices in ((e, d), (dual(e), [-di for di in d])):
        lo, hi = bundle_.transition.exponent_range()
        kmin, kmax = -hi - 2, -lo + 1
        profile = section_profile(bundle_, kmin, kmax)
        padded = max(_old_bound(bundle_, kmin), _old_bound(bundle_, kmax))
        assert profile == section_profile(bundle_, kmin, kmax, padded)
        assert profile == {k: sum(max(0, di + k + 1) for di in indices)
                           for k in range(kmin, kmax + 1)}
        for k in (kmin, -min(indices) - 1, kmax):
            bound = _degree_bound(bundle_, k, 0)
            for _, s1 in h0_dim(bundle_, k).basis:
                assert all(-p.ord() <= bound for p in s1 if not p.is_zero)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 6))
def test_degree_bound_is_attained_on_a_diagonal_bundle(a, b, k):
    a, b = min(a, b), max(a, b)
    e = bundle([[LaurentPoly({a: 1}), 0], [0, LaurentPoly({b: 1})]])
    assert _degree_bound(e, k, 0) == max(0, k + b)
    top = max((-p.ord() for _, s1 in h0_dim(e, k).basis for p in s1 if not p.is_zero),
              default=0)
    assert top == max(0, k + b)


int_rows = st.lists(st.lists(
    st.tuples(st.integers(0, 12), st.lists(st.integers(-50, 50), max_size=6)), max_size=3
), max_size=5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(int_rows)
def test_sparse_int_rows_same_for_int_and_fraction_input(rows):
    as_fractions = [[(c, [Fraction(v) for v in entries]) for c, entries in row] for row in rows]
    assert sparse_int_rows(rows) == sparse_int_rows(as_fractions) == rows
