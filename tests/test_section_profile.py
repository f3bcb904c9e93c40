"""Property tests for the one-elimination section-count profile."""

from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit import bundles
from bgsplit.bundles import (
    _degree_bound, _h0_dimension, _toeplitz_pass, bundle, degree, dual, h0_dim, h1_dim,
    riemann_roch_check, section_profile, splitting_type,
)
from bgsplit.io import parse_matrix_file
from bgsplit.laurent import LaurentPoly
from bgsplit.linalg import sparse_int_rows
from bgsplit.lmatrix import LaurentMatrix
from oracles import adjugate_degree_bound

PLANTED_RANK4 = Path(__file__).resolve().parent / "data" / "planted_rank4.txt"

# The acceptance recipe's elementary-factor coefficients.
COEFFS = (1, -1, 2, Fraction(1, 2))


def _elementary(n, i, j, term):
    rows = [[LaurentPoly.one() if r == c else LaurentPoly.zero() for c in range(n)]
            for r in range(n)]
    rows[i][j] = term
    return LaurentMatrix(rows)


@st.composite
def planted_bundles(draw, max_rank=4, lowest=-2):
    """(A, d) with A = U diag(x^d) V, U polynomial and V antipolynomial
    products of elementary factors, as in the acceptance suite."""
    n = draw(st.integers(1, max_rank))
    d = draw(st.lists(st.integers(lowest, 2), min_size=n, max_size=n))
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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(planted_bundles(max_rank=5))
def test_proven_degree_bound_loses_no_section(planted):
    # On a planted bundle and on its dual, whose indices are -d: the profile
    # equals the planted counts, and every basis section stays within the
    # bound, with lo(A^-1) from the Toeplitz pass at the top twist.
    a, d = planted
    e = bundle(a)
    for bundle_, indices in ((e, d), (dual(e), [-di for di in d])):
        lo, hi = bundle_.transition.exponent_range()
        kmin, kmax = -hi - 2, -lo + 1
        profile = section_profile(bundle_, kmin, kmax)
        assert profile == {k: sum(max(0, di + k + 1) for di in indices)
                           for k in range(kmin, kmax + 1)}
        inverse_lo = _toeplitz_pass(bundle_, kmax, {})[1]
        for k in (kmin, -min(indices) - 1, kmax):
            bound = _degree_bound(bundle_, k, inverse_lo)
            for _, s1 in h0_dim(bundle_, k).basis:
                assert all(-p.ord() <= bound for p in s1 if not p.is_zero)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 6))
def test_degree_bound_is_attained_on_a_diagonal_bundle(a, b, k):
    a, b = min(a, b), max(a, b)
    e = bundle([[LaurentPoly({a: 1}), 0], [0, LaurentPoly({b: 1})]])
    assert _degree_bound(e, k) == max(0, k + b)
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(planted_bundles(max_rank=8, lowest=-4), st.integers(-30, 30))
def test_toeplitz_pass_finds_the_lowest_exponent_of_the_inverse(planted, k):
    # At a twist far from the profile the pass may stop at its cap and
    # find nothing; at split's top twist it always reaches e_n, and the
    # degree bound of a twist that high is k - lo(A^-1).  For n <= 2 no
    # pass runs and the adjugate bound is exact.
    a, _ = planted
    e = bundle(a)
    exact = a.inverse().exponent_range()[0]
    assert _toeplitz_pass(e, k, {})[1] in (None, exact)
    top = -a.exponent_range()[0] + 1
    inverse_lo = _toeplitz_pass(e, top, {})[1]
    assert _degree_bound(e, top, inverse_lo) == top - exact
    assert dual(e).inverse_lo == a.exponent_range()[0]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(planted_bundles(max_rank=8, lowest=-4), st.integers(-14, 4), st.integers(0, 6))
def test_sections_equal_those_on_the_adjugate_bound(planted, k, above):
    # The profile over a window reaching far below the jumps, the h0 basis
    # and h1 at a twist down there, each against the adjugate bound, on
    # which the system is built afresh, with no Toeplitz pass.
    a, _ = planted
    lo, hi = a.exponent_range()
    k, kmax = k - hi, -lo + above
    answers = [section_profile(bundle(a), k, kmax), h0_dim(bundle(a), k), h1_dim(bundle(a), k)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bundles, "_degree_bound", adjugate_degree_bound)
        patch.setattr(bundles, "_toeplitz_pass", lambda e, k, pivots: (0, None))
        assert answers == [section_profile(bundle(a), k, kmax), h0_dim(bundle(a), k),
                           h1_dim(bundle(a), k)]


def test_the_section_route_leaves_the_bundle_as_it_found_it():
    # Every answer is a function of the bundle alone: asked twice on one
    # object, each is the same, and no field of the object has moved.
    e = bundle(parse_matrix_file(PLANTED_RANK4.read_text(encoding="utf-8")).obj)
    before = {f.name: getattr(e, f.name) for f in fields(e)}
    lo, hi = e.transition.exponent_range()

    def answers():
        return [section_profile(e, -hi - 2, -lo + 1), splitting_type(e), h0_dim(e, 4),
                h1_dim(e, 0), riemann_roch_check(e, -1)]

    assert answers() == answers()
    assert {f.name: getattr(e, f.name) for f in fields(e)} == before
    assert e.inverse_lo is None
