import random
import time
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit import lmatrix
from bgsplit.errors import NotInvertible
from bgsplit.laurent import lp
from bgsplit.linalg import (
    charpoly,
    det_q,
    identity_q,
    inverse_q,
    mat_mul,
    nullspace,
    rank,
    rational_roots,
    resultant,
    solve,
)

from oracles import faddeev_leverrier, sylvester_resultant


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    """Entries all int, all Fraction with small denominators, or mixed; the
    kind is drawn per matrix, so each test below runs on all three."""
    kind = rng.choice(("int", "fraction", "mixed"))

    def entry():
        v = rng.randint(lo, hi)
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return v
        return Fraction(v, rng.randint(1, 3))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def test_nullspace_worked_examples():
    assert nullspace([[1, 1]]) == [(Fraction(-1), Fraction(1))]
    assert nullspace(identity_q(3)) == []
    basis = nullspace([[1, 2, 3], [2, 4, 6]])
    assert len(basis) == 2
    assert basis[0] == (Fraction(-2), Fraction(1), Fraction(0))
    assert basis[1] == (Fraction(-3), Fraction(0), Fraction(1))


def test_nullspace_rank_nullity_and_exactness():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        basis = nullspace(m)
        assert len(basis) == cols - rank(m)
        for vec in basis:
            assert all(row == (0,) for row in mat_mul(m, [[c] for c in vec]))


def test_solve_random_consistent_and_inconsistent():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        x = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))] for _ in range(n)]
        b = mat_mul(a, x)
        sol = solve(a, b)
        assert sol is not None
        d, x = sol
        assert mat_mul(a, [[Fraction(v, d) for v in row] for row in x]) == b
    assert solve([[1, 0], [1, 0]], [[1], [2]]) is None


def test_solve_returns_a_primitive_integer_solution():
    """On square nonsingular systems of int, Fraction or mixed entries,
    n = 1-8 with 1-3 right-hand columns, solve gives (d, X) with d > 0,
    X an integer matrix, A X = d B exactly and gcd(d, X) = 1."""
    rng = random.Random(31)
    for n in range(1, 9):
        done = 0
        while done < 6:
            a = rand_matrix(rng, n, n)
            if det_q(a) == 0:
                continue
            done += 1
            b = rand_matrix(rng, n, rng.randint(1, 3))
            d, x = solve(a, b)
            assert d > 0 and all(type(v) is int for v in chain.from_iterable(x))
            assert mat_mul(a, x) == tuple(tuple(d * v for v in row) for row in b)
            assert gcd(d, *chain.from_iterable(x)) == 1
    assert solve([[1, 2], [2, 4]], [[1], [3]]) is None


def test_inverse_round_trip_and_singular():
    rng = random.Random(13)
    done = 0
    while done < 25:
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        if det_q(a) == 0:
            continue
        done += 1
        inv = inverse_q(a)
        assert mat_mul(tuple(map(tuple, a)), inv) == identity_q(n)
        # rational entries: both routines work on d*A, d the denominator lcm
        q = tuple(tuple(Fraction(v, rng.randint(1, 7)) for v in row) for row in a)
        if det_q(q) != 0:
            inv = inverse_q(q)
            assert mat_mul(q, inv) == identity_q(n)
            assert det_q(q) * det_q(inv) == 1
    with pytest.raises(NotInvertible):
        inverse_q([[1, 1], [1, 1]])


def test_det_multiplicative_and_values():
    assert det_q([[1, 2], [3, 4]]) == -2
    assert det_q([[2, 1], [-4, -2]]) == 0
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(1, 4)
        a, b = rand_matrix(rng, n, n), rand_matrix(rng, n, n)
        ab = mat_mul(tuple(map(tuple, a)), tuple(map(tuple, b)))
        assert det_q(ab) == det_q(a) * det_q(b)


def test_charpoly_matches_determinant_at_points():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        cp = charpoly(a)
        assert cp.deg() == n and cp.coeff(n) == 1
        for lam in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)):
            shifted = [
                [lam * (1 if i == j else 0) - a[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert cp.evaluate(lam) == det_q(shifted)


def _shaped(rng, n):
    """A random n x n matrix, general or of a shape with a special
    characteristic polynomial."""
    shape = rng.choice(("general", "zero_row", "zero_diagonal", "scalar", "nilpotent", "singular"))
    a = rand_matrix(rng, n, n)
    if shape == "zero_row" and n:
        a[rng.randrange(n)] = [0] * n
    elif shape == "zero_diagonal":
        for i in range(n):
            a[i][i] = 0
    elif shape == "scalar" and n:
        a = [[a[0][0] if i == j else 0 for j in range(n)] for i in range(n)]
    elif shape == "nilpotent":  # strictly upper triangular, conjugated by a permutation
        perm = rng.sample(range(n), n)
        a = [[a[perm[i]][perm[j]] if perm[i] < perm[j] else 0 for j in range(n)]
             for i in range(n)]
    elif shape == "singular" and n > 1:
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        a[i] = [v + c * w for v, w in zip(a[i], a[j])] if rng.random() < 0.5 else a[j]
    return a


def test_charpoly_matches_the_faddeev_leverrier_oracle():
    rng = random.Random(17)
    for count in range(2100):
        n = count % 13
        a = _shaped(rng, n)
        p = charpoly(a)
        assert [p.coeff(e) for e in range(n, -1, -1)] == faddeev_leverrier(a), a


def test_charpoly_takes_no_laurent_determinant(monkeypatch):
    calls = {"det": 0, "_form": 0}

    def counted(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return orig(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(lmatrix.LaurentMatrix, "det")
    counted(lmatrix, "_form")
    rng = random.Random(18)
    for n in range(9):
        a = _shaped(rng, n)
        p = charpoly(a)
        assert [p.coeff(e) for e in range(n, -1, -1)] == faddeev_leverrier(a)
    assert calls == {"det": 0, "_form": 0}
    lmatrix.LaurentMatrix([[lp({1: 1})]]).det()  # the counters do count
    assert calls == {"det": 1, "_form": 1}


def _width_edge_cases():
    """Triangular matrices with diagonal -c/d, ones below it, conjugated by
    a permutation: det(d*lambda*I - d*A) = (d*lambda + c)^n, and c is the
    least integer with c^n >= 2^(8k - 1), so that the constant term is
    just past a balanced digit of k bytes while the 1-norm bound of the
    earlier packed determinant stays below 2^(8k).  charpoly packs nothing
    now; they stay as value cases whose coefficients sit at byte edges."""
    rng = random.Random(19)
    for n in range(1, 7):
        for k in range(n + 1, n + 8):
            for d in (1, 3):
                c = 1
                while c**n < 2 ** (8 * k - 1):
                    c = max(c + 1, int(2 ** ((8 * k - 1) / n)))
                perm = rng.sample(range(n), n)
                a = [[Fraction(-c, d) if i == j else int(i > j) for j in range(n)]
                     for i in range(n)]
                yield [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def test_charpoly_at_the_edge_of_its_packed_width():
    # Some coefficient of det N, N the rows of lambda*I - A each scaled by
    # the lcm of its denominators, is no balanced digit one byte narrower
    # than the 1-norm bound's width.  charpoly has no packed width left;
    # these are value cases, and the second assertion keeps them at the edge.
    for a in _width_edge_cases():
        scales = [lcm(*(Fraction(v).denominator for v in row)) for row in a]
        width = lmatrix._digit_bytes(prod(
            1 + s + sum(abs(int(v * s)) for v in row) for s, row in zip(scales, a)))
        half = 1 << 8 * (width - 1) - 1
        want = faddeev_leverrier(a)
        p = charpoly(a)
        assert [p.coeff(e) for e in range(len(a), -1, -1)] == want, a
        assert any(not -half <= c * prod(scales) < half for c in want), a


def _wide_matrix(rng, n, bits, den):
    """An n x n matrix of bits-bit numerators over denominators up to den."""
    return [[Fraction(rng.getrandbits(bits) - (1 << bits - 1), rng.randint(1, den))
             for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("bits", [200, 1000])
def test_charpoly_on_wide_entries_matches_the_faddeev_leverrier_oracle(bits):
    rng = random.Random(bits)
    for n in range(1, 11):
        for den in (1, 10**6):
            a = _wide_matrix(rng, n, bits, den)
            p = charpoly(a)
            assert [p.coeff(e) for e in range(n, -1, -1)] == faddeev_leverrier(a), (n, den)


def _best_of_3(f, a):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        f(a)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("n", [6, 8])
def test_charpoly_is_no_slower_than_the_oracle_on_1000_bit_entries(n):
    # The packed Bareiss charpoly took 129-165 ms at n = 8 against 16-25 ms
    # for the oracle; Berkowitz's recurrence is several times faster than it.
    a = _wide_matrix(random.Random(n), n, 1000, 1)
    assert _best_of_3(charpoly, a) <= _best_of_3(faddeev_leverrier, a)


def test_rational_roots():
    # (x - 1/2)^2 (x + 3) x
    p = lp({1: 1, 0: Fraction(-1, 2)}) ** 2 * lp({1: 1, 0: 3}) * lp({1: 1})
    assert rational_roots(p) == [
        (Fraction(-3), 1),
        (Fraction(0), 1),
        (Fraction(1, 2), 2),
    ]
    # x^2 - 2 has no rational roots
    assert rational_roots(lp({2: 1, 0: -2})) == []


def test_resultant_common_root_detection():
    p = lp({2: 1, 0: -1})          # x^2 - 1
    assert resultant(p, lp({2: 1, 0: -4})) != 0
    assert resultant(lp({1: 1, 0: -1}), p) == 0
    # resultant of (x-a)(x-b) with (x-c): (c-a)(c-b)
    pa = lp({1: 1, 0: -2}) * lp({1: 1, 0: -3})
    assert resultant(pa, lp({1: 1, 0: -5})) == Fraction((5 - 2) * (5 - 3))


COEFFICIENTS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
LEADING = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))


@st.composite
def polynomials(draw, low=0, high=8):
    """Rational polynomials of degree low..high, leading coefficient of
    either sign and not 1 in general, denominators 1-7."""
    degree = draw(st.integers(low, high))
    coeffs = draw(st.lists(COEFFICIENTS, min_size=degree, max_size=degree)) + [draw(LEADING)]
    return lp(dict(enumerate(coeffs)))


@st.composite
def polynomial_pairs(draw):
    """A pair of degrees 0-8, or, half the time, a pair of degrees at most
    8 sharing a planted factor of degree 1-3, whose resultant is 0."""
    if draw(st.booleans()):
        return draw(polynomials()), draw(polynomials()), False
    common = draw(polynomials(1, 3))
    room = 8 - common.deg()
    return (common * draw(polynomials(0, room)), common * draw(polynomials(0, room)), True)


def _sympy_resultant(p, q):
    """sympy's resultant, always asked with the higher degree first: sympy
    1.14 returns Res(q, p) for deg p < deg q, so the other order is read
    through Res(p, q) = (-1)^(deg p * deg q) Res(q, p)."""
    x = sp.Symbol("x")

    def poly(f):
        return sp.Poly([sp.Rational(c.numerator, c.denominator)
                        for c in map(f.coeff, range(f.deg(), -1, -1))], x, domain="QQ")

    sign = 1
    if p.deg() < q.deg():
        p, q, sign = q, p, (-1) ** (p.deg() * q.deg())
    value = sp.Rational(poly(p).resultant(poly(q)))
    return sign * Fraction(int(value.p), int(value.q))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=polynomial_pairs())
def test_resultant_matches_sylvester_and_sympy(pair):
    p, q, planted = pair
    value = resultant(p, q)
    assert value == sylvester_resultant(p, q) == _sympy_resultant(p, q)
    if planted:
        assert value == 0


def test_resultant_refuses_zero_and_laurent_input():
    p = lp({2: 3, 0: -1})
    for zero_pair in ((lp({}), p), (p, lp({}))):
        with pytest.raises(ValueError, match="zero polynomial"):
            resultant(*zero_pair)
    for laurent_pair in ((lp({-1: 1, 1: 1}), p), (p, lp({-2: 1}))):
        with pytest.raises(ValueError, match="polynomial inputs"):
            resultant(*laurent_pair)
