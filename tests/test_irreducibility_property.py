"""Property tests of the certificate-first irreducibility check and of
``linalg.rational_roots``.

``is_irreducible`` must agree with the exact word-span closure
(``_word_span_dimension(rep) == n^2``, Burnside) on tuples with n <= 5:
conjugated triangular tuples (reducible, with a rational eigenvector),
tuples built around the block R = [[0, -1], [1, 0]] (an invariant plane
with no rational eigenvector in it, or none over Q at all, which leaves
the decision to the exact fallback) and generic tuples (irreducible).
Conjugators have denominators up to 10^6.  Every certificate is checked
here, independently of the code that found it: a subspace U needs
0 < dim U < n and rank [U; M_i U] = dim U for every i; a word list is
recomputed through ``loop_image`` and must have rank n^2 modulo
``WORD_SPAN_PRIME``, by a separate elimination, or over Q when that
prime was unlucky and the exact closure found the words.

``rational_roots`` must equal sympy's rational roots on products of
linear factors with roots a/q (q prime, up to 30011), repeated roots,
irreducible quadratic factors and a zero root.
"""

from fractions import Fraction

import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bgsplit.laurent import LaurentPoly
from bgsplit.linalg import det_q, mat_mul, rank, rational_roots
from bgsplit.monodromy import (
    WORD_SPAN_PRIME,
    _word_span_dimension,
    irreducibility_certificate,
    is_irreducible,
    monodromy_rep,
)

R = ((0, -1), (1, 0))
SETTINGS = settings(max_examples=40, deadline=None)


def rank_mod(rows, p):
    """Rank over F_p by plain Gauss-Jordan, one pivot per column."""
    rows = [[v % p for v in row] for row in rows]
    found = 0
    for c in range(len(rows[0]) if rows else 0):
        r = next((i for i in range(found, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[found], rows[r] = rows[r], rows[found]
        inv = pow(rows[found][c], -1, p)
        pivot = [v * inv % p for v in rows[found]]
        for i in range(len(rows)):
            if i != found and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], pivot)]
        found += 1
    return found


def mod_p(v: Fraction, p: int) -> int:
    assert v.denominator % p
    return v.numerator * pow(v.denominator, -1, p) % p


def check_certificate(rep, cert):
    n = rep.size
    if cert.subspace is not None:
        assert not cert.irreducible and cert.words is None
        u = [list(v) for v in cert.subspace]
        dim = rank(u)
        assert dim == len(u) and 0 < dim < n
        for m in rep.matrices:
            assert rank(u + [[w for (w,) in mat_mul(m, [[c] for c in v])] for v in u]) == dim
    elif cert.words is not None:
        assert cert.irreducible and len(cert.words) == n * n
        images = [[v for row in rep.loop_image(w) for v in row] for w in cert.words]
        rows = [[mod_p(v, WORD_SPAN_PRIME) for v in image] for image in images]
        if rank_mod(rows, WORD_SPAN_PRIME) < n * n:  # an unlucky prime: the exact closure
            assert rank(images) == n * n
    else:
        assert not cert.irreducible
        assert _word_span_dimension(rep) < n * n


def agree(rep):
    cert = irreducibility_certificate(rep)
    check_certificate(rep, cert)
    assert is_irreducible(rep) == cert.irreducible
    assert cert.irreducible == (_word_span_dimension(rep) == rep.size**2)
    return cert


small = st.integers(-3, 3)
wide_fraction = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 10**6))


@st.composite
def conjugator(draw, n):
    s = [[Fraction(int(i == j)) + draw(wide_fraction) for j in range(n)] for i in range(n)]
    assume(det_q(s) != 0)
    return s


@st.composite
def invertible(draw, n, shape):
    """An invertible random n x n integer matrix, reshaped in place by
    ``shape``."""
    m = [[draw(small) for _ in range(n)] for _ in range(n)]
    shape(draw, m)
    assume(det_q(m) != 0)
    return m


@st.composite
def conjugated_tuple(draw, n, shape, count):
    mats = [draw(invertible(n, shape)) for _ in range(count)]
    return monodromy_rep(mats).conjugated(draw(conjugator(n)))


def triangular(draw, m):
    n = len(m)
    for i in range(n):
        m[i][i] = draw(st.sampled_from((-2, -1, 1, 2, 3)))
        for j in range(i):
            m[i][j] = 0


def r_block(draw, m):
    """Upper block triangular with a top-left block a*I + b*R, b != 0."""
    a, b = draw(small), draw(st.sampled_from((-2, -1, 1, 2)))
    for i in range(2):
        for j in range(2):
            m[i][j] = a * int(i == j) + b * R[i][j]
    for i in range(2, len(m)):
        m[i][0] = m[i][1] = 0


def generic(draw, m):
    pass


@SETTINGS
@given(st.data(), st.integers(2, 5), st.integers(1, 3))
def test_conjugated_triangular_tuples_are_reducible_with_a_subspace(data, n, count):
    cert = agree(data.draw(conjugated_tuple(n, triangular, count)))
    assert not cert.irreducible and cert.subspace is not None


@SETTINGS
@given(st.data(), st.integers(3, 5), st.integers(1, 3))
def test_tuples_with_an_r_block(data, n, count):
    assert not agree(data.draw(conjugated_tuple(n, r_block, count))).irreducible


@SETTINGS
@given(st.data(), st.integers(1, 5))
def test_generic_pairs(data, n):
    agree(data.draw(conjugated_tuple(n, generic, 2)))


integer_matrix = st.lists(st.lists(small, min_size=2, max_size=2), min_size=2, max_size=2)


@SETTINGS
@example(([[1, 1], [0, 1]], [[1, 0], [WORD_SPAN_PRIME, 1]]))  # the identity modulo the prime
@given(st.tuples(integer_matrix, integer_matrix))
def test_integer_pairs(pair):
    assume(all(det_q(m) for m in pair))
    agree(monodromy_rep(list(pair)))


def _gaussian(z):
    """a + bi as the 2 x 2 rational block a*I + b*R."""
    a, b = z
    return [[a, -b], [b, a]]


@SETTINGS
@given(st.data(), st.integers(1, 2), st.integers(1, 2))
def test_tuples_reducible_only_over_q_i_take_the_exact_fallback(data, k, count):
    """Matrices over Q(i) written as 2k x 2k rational matrices commute with
    diag(R, ..., R): reducible over C, with no rational witness."""
    gaussian = st.tuples(small, st.integers(1, 3))  # b != 0: no rational eigenvalue
    mats = []
    for _ in range(count):
        entries = [[data.draw(gaussian if i == j else st.tuples(small, small))
                    for j in range(k)] for i in range(k)]
        for i in range(k):  # upper triangular over Q(i), eigenvalues a + bi
            for j in range(i):
                entries[i][j] = (0, 0)
        mats.append([[_gaussian(entries[i // 2][j // 2])[i % 2][j % 2]
                      for j in range(2 * k)] for i in range(2 * k)])
    rep = monodromy_rep(mats).conjugated(data.draw(conjugator(2 * k)))
    cert = agree(rep)
    assert not cert.irreducible and cert.subspace is None


def test_a_scalar_generator_does_not_end_the_search():
    # ker(2I - 2) is all of Q^3 and every basis vector spins to Q^3, but
    # only a one-dimensional kernel may stop the search for a subspace
    s = [[3, -2, -2], [2, 2, 1], [-2, -1, 3]]  # no e_i lies in an invariant subspace
    rep = monodromy_rep([[[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[1, 1, 1], [0, 2, 1], [0, 0, 3]]])
    cert = agree(rep.conjugated(s))
    assert cert.subspace is not None


def test_invariant_plane_without_rational_eigenvector_is_found_on_the_transposed_side():
    # span{e0, e1} is invariant, and R acts on it without a real eigenvalue
    a = [[0, -1, 2], [1, 0, 1], [0, 0, 3]]
    b = [[1, -2, 0], [2, 1, -1], [0, 0, -1]]
    rep = monodromy_rep([a, b])
    cert = agree(rep)
    assert rank([list(v) for v in cert.subspace] + [[1, 0, 0], [0, 1, 0]]) == 2


# -- rational_roots ---------------------------------------------------------

PRIMES = (2, 3, 7, 101, 2003, 30011)


@SETTINGS
@given(
    st.lists(st.tuples(st.integers(-50, 50), st.sampled_from(PRIMES), st.integers(1, 3)),
             max_size=4),
    st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9)), max_size=2),
    st.integers(0, 2),
    st.integers(1, 5),
)
def test_rational_roots_match_sympy(linear, quadratic, zero_power, scale):
    x = sp.Symbol("x")
    expr = scale * x**zero_power
    for a, q, mult in linear:
        expr *= (q * x - a) ** mult
    for b, c in quadratic:  # x^2 + b x + c with b^2 < 4c has no real root
        expr *= x**2 + b * x + (b * b // 4 + c)
    poly = sp.Poly(expr, x, domain=sp.QQ)
    coeffs = {e: Fraction(int(c.p), int(c.q)) for (e,), c in poly.terms()}
    want = sorted((Fraction(int(r.p), int(r.q)), m) for r, m in poly.ground_roots().items())
    assert rational_roots(LaurentPoly(coeffs)) == want
