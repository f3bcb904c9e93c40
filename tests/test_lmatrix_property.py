"""Property tests of the Laurent matrix kernel against sympy.

``det``, ``@``, ``apply`` and ``inverse`` share one fraction-free Z[x]
kernel (shift, row or column denominator scaling, Kronecker packing,
Bareiss / Gauss-Jordan elimination).  Inputs have rank <= 5, exponents
in [-4, 4], coefficients with denominators in {1, 2, 3, 7}, zero entries
and zero rows, singular matrices and matrices whose determinant is not
a unit, next to unit-determinant ones.  Each property runs on three
routes through the kernel: packed integers, packed integers after the
x^g substitution (every exponent times 5), and sparse entries (packing
switched off).
"""

from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.errors import NotInvertibleOverLaurentRing
from bgsplit.laurent import LaurentPoly
from bgsplit import lmatrix as lmatrix_module
from bgsplit.lmatrix import LaurentMatrix

from oracles import laurent_det_oracle, laurent_product_oracle, raw_entries

COEFFS = st.builds(
    Fraction, st.sampled_from((1, -2, 3, -1, 2, -5, 7)), st.sampled_from((1, 2, 3, 7))
)


def terms(lo=-4, hi=4, max_size=3):
    """{exponent: coefficient}; a repeated exponent keeps its last draw."""
    return st.lists(st.tuples(st.integers(lo, hi), COEFFS), max_size=max_size).map(dict)


def general(n):
    """Entries in [-4, 4], many of them zero; one in five matrices gets a
    zero row, and one in five a copied row."""
    def shape(rows, zero_row, copy_row):
        if zero_row is not None:
            rows[zero_row] = [{}] * n
        if copy_row is not None and n > 1:
            rows[copy_row] = list(rows[(copy_row + 1) % n])
        return rows

    maybe_row = st.sampled_from((None,) * (4 * n) + tuple(range(n)))
    rows = st.lists(st.lists(terms(), min_size=n, max_size=n), min_size=n, max_size=n)
    return st.builds(shape, rows, maybe_row, maybe_row)


def unit(n):
    """Row-permuted L*U, L lower and U upper triangular with monomial
    diagonals and entries in [-2, 2], so det is a unit and every entry of
    the product lies in [-4, 4]."""
    def build(lower, upper, diag_l, diag_u, perm):
        def tri(m, diag, below):
            return [[diag[i] if i == j else m[i][j] if (i > j) == below else {}
                     for j in range(n)] for i in range(n)]

        lo, up = tri(lower, diag_l, True), tri(upper, diag_u, False)
        prod = [[{} for _ in range(n)] for _ in range(n)]
        for i, j, k in product(range(n), repeat=3):
            for e, c in lo[i][k].items():
                for f, d in up[k][j].items():
                    prod[i][j][e + f] = prod[i][j].get(e + f, 0) + c * d
        return [[{e: c for e, c in prod[p][j].items() if c} for j in range(n)] for p in perm]

    square = st.lists(st.lists(terms(-2, 2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    monomials = st.lists(st.builds(lambda e, c: {e: c}, st.integers(-2, 2), COEFFS),
                         min_size=n, max_size=n)
    return st.builds(build, square, square, monomials, monomials, st.permutations(range(n)))


MATRICES = {n: st.one_of(general(n), unit(n)) for n in range(1, 6)}
VECTORS = {n: st.lists(terms(), min_size=n, max_size=n) for n in range(1, 6)}


def lmatrix(entries):
    return LaurentMatrix([[LaurentPoly(t) for t in row] for row in entries])


def stretched(entries, stride):
    """Every exponent times ``stride``: the same matrix in x^stride."""
    return [[{stride * e: c for e, c in t.items()} for t in row] for row in entries]


# (packing limit, exponent stride); a limit of 0 keeps every entry sparse
ROUTES = {"packed": (lmatrix_module._PACKED_SPAN, 1),
          "substituted": (lmatrix_module._PACKED_SPAN, 5),
          "sparse": (0, 1)}
ROUTE = pytest.mark.parametrize("route", sorted(ROUTES))
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def drawn(data, strategy, route):
    return stretched(data.draw(strategy), ROUTES[route][1])


def on_route(route):
    return mock.patch.object(lmatrix_module, "_PACKED_SPAN", ROUTES[route][0])


@ROUTE
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
@SETTINGS
@given(data=st.data())
def test_det_matches_oracle(route, n, data):
    entries = drawn(data, MATRICES[n], route)
    with on_route(route):
        det = lmatrix(entries).det()
    assert det == LaurentPoly(laurent_det_oracle(entries))


@ROUTE
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
@SETTINGS
@given(data=st.data())
def test_product_and_apply_match_oracle(route, n, data):
    left, right = drawn(data, MATRICES[n], route), drawn(data, MATRICES[n], route)
    vector = stretched([data.draw(VECTORS[n])], ROUTES[route][1])[0]
    with on_route(route):
        product = lmatrix(left) @ lmatrix(right)
        applied = lmatrix(left).apply([LaurentPoly(t) for t in vector])
    assert raw_entries(product) == laurent_product_oracle(left, right)
    column = laurent_product_oracle(left, [[t] for t in vector])
    assert [dict(p.terms) for p in applied] == [row[0] for row in column]


@ROUTE
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
@SETTINGS
@given(data=st.data())
def test_inverse_round_trips_or_raises(route, n, data):
    entries = drawn(data, MATRICES[n], route)
    a = lmatrix(entries)
    if len(laurent_det_oracle(entries)) != 1:  # zero or not a monomial
        with on_route(route), pytest.raises(NotInvertibleOverLaurentRing):
            a.inverse()
        return
    with on_route(route):
        inverse = raw_entries(a.inverse())
    identity = [[{0: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]
    assert laurent_product_oracle(entries, inverse) == identity
    assert laurent_product_oracle(inverse, entries) == identity
