"""Property tests for the integer monodromy paths on rational input.

Every benchmark tuple is integral, so only these tests reach the
denominator scaling in the word-span closure, in ``charpoly`` and in
``check_product_identity``.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bgsplit.linalg import charpoly, det_q, identity_q, inverse_q, mat_mul, qmat
from bgsplit.monodromy import (
    _word_span_dimension,
    check_product_identity,
    coordinate_invariant_subspace,
    jordan_profile,
    monodromy_rep,
)

from oracles import (
    _sympy_matrix,
    charpoly_oracle,
    invariant_coordinate_subspace_bruteforce,
    word_span_dimension_oracle,
)

# Numerators drawn with 0 last, so shrinking does not pile up singular matrices.
RATIONALS = st.builds(
    Fraction, st.sampled_from((1, -2, 3, -1, 2, -3, 0)), st.sampled_from((1, 2, 3, 7))
)


def square(n, triangular=False):
    """n x n rational matrices; triangular ones are upper triangular with
    a nonzero diagonal, so a tuple of them fixes each span{e_0, ..., e_k}."""
    rows = st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n)
    if not triangular:
        return rows

    def upper(m, diagonal):
        return [[diagonal[i] if i == j else m[i][j] if i < j else Fraction(0)
                 for j in range(n)] for i in range(n)]

    return st.builds(upper, rows, st.lists(RATIONALS.filter(bool), min_size=n, max_size=n))


@pytest.mark.parametrize("triangular", (False, True))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_word_span_dimension_matches_sympy_closure(n, triangular, data):
    mats = data.draw(st.lists(square(n, triangular), min_size=1, max_size=3))
    assume(all(det_q(m) != 0 for m in mats))
    # relabel the coordinates, so the invariant sets are not all prefixes
    p = data.draw(st.permutations(range(n)))
    mats = [[[m[p[i]][p[j]] for j in range(n)] for i in range(n)] for m in mats]
    rep = monodromy_rep(mats)
    assert _word_span_dimension(rep) == word_span_dimension_oracle(mats)
    assert coordinate_invariant_subspace(rep) == invariant_coordinate_subspace_bruteforce(
        rep.matrices, n
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(square))
def test_charpoly_matches_sympy(matrix):
    p = charpoly(matrix)
    n = len(matrix)
    assert [p.coeff(e) for e in range(n, -1, -1)] == charpoly_oracle(matrix)


def fraction_product(mats):
    """M_1 M_2 ... M_N multiplied as Fraction matrices."""
    out = identity_q(len(mats[0]))
    for m in mats:
        out = mat_mul(out, qmat(m))
    return out


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_identity_matches_the_fraction_product(n, data):
    """Half the tuples are closed by a last factor c * (M_1 ... M_N)^-1,
    which is the identity exactly when c = 1."""
    mats = data.draw(st.lists(square(n), min_size=1, max_size=3))
    assume(all(det_q(m) != 0 for m in mats))
    if data.draw(st.booleans()):
        c = data.draw(st.sampled_from((1, 1, 2, -1)))
        mats.append([[c * v for v in row] for row in inverse_q(fraction_product(mats))])
    assert check_product_identity(monodromy_rep(mats)) == (fraction_product(mats) == identity_q(n))


@st.composite
def conjugated_jordan(draw):
    """(S^-1 J S, block eigenvalues), J a direct sum of Jordan blocks of
    sizes summing to n <= 5, with eigenvalues from a small set so that
    blocks often share one; S = L U with L unit lower and U upper
    triangular, U with a nonzero diagonal, so S is invertible."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 5))
    mus = [draw(st.sampled_from((Fraction(2), Fraction(-1, 3), Fraction(5, 2)))) for _ in sizes]
    n = sum(sizes)
    j = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for size, mu in zip(sizes, mus):
        for i in range(start, start + size):
            j[i][i] = mu
            if i + 1 < start + size:
                j[i][i + 1] = Fraction(1)
        start += size
    lower, upper = draw(square(n)), draw(square(n, triangular=True))
    lower = [[Fraction(int(i == k)) if i <= k else lower[i][k] for k in range(n)]
             for i in range(n)]
    s = mat_mul(lower, upper)
    return mat_mul(mat_mul(inverse_q(s), j), s), mus


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(st.integers(1, 5).flatmap(square).map(lambda m: (m, None)), conjugated_jordan()))
def test_jordan_profile_matches_the_definition(case):
    """Against the definition: single eigenvalue mu = tr/n when
    charpoly(m) == (x - mu)^n, and a single block when moreover
    rank(m - mu*I) == n - 1; on conjugated blocks, also against J."""
    matrix, mus = case
    profile = jordan_profile(matrix)
    n = len(matrix)
    char = charpoly_oracle(matrix)
    assert [profile.charpoly.coeff(e) for e in range(n, -1, -1)] == char
    mu = sum(matrix[i][i] for i in range(n)) / n
    if char == [comb(n, k) * (-mu) ** k for k in range(n + 1)]:
        shifted = [[v - mu * (i == j) for j, v in enumerate(row)] for i, row in enumerate(matrix)]
        expected = (mu, _sympy_matrix(shifted).rank() == n - 1)
    else:
        expected = (None, False)
    assert (profile.single_eigenvalue, profile.single_block) == expected
    if mus is not None:
        assert expected == (mus[0] if len(set(mus)) == 1 else None, len(mus) == 1)
