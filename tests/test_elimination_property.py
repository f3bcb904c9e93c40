"""Property tests of ``fuchsian.gauge_transform``, the ``rf_mat_mul``
oracle and ``linalg.solve``.

``gauge_transform`` scales each row of the gauge P by the lcm of its
denominators, inverts the polynomial matrix on the Z[x] Gauss-Jordan of
``lmatrix``, forms A P as one unreduced Z[x] product and reduces each
entry of L (A P - P') once, without forming P^-1;
``oracles.rf_mat_mul`` puts the rows of the left and the columns of the
right factor over their lcms and forms one Z[x] product.  Inputs have
rank <= 4, nonzero entries and denominators with a root other than 0, so
none is a monomial; one in three matrices is made singular by a row that
is a rational-function multiple of another.  Each property runs on the
packed and on the sparse route of the kernel.  ``rf_mat_mul`` is checked
against sums of ``RatFunc`` products, and the gauge B against
P B = A P - P', an oracle with no inverse: A P - P' is summed in
``RatFunc`` arithmetic and P B is formed by ``rf_mat_mul``, since B's
denominators make ``RatFunc`` sums of P B take over a minute at rank 4.
Singularity is decided exactly by Leibniz determinants at rational
points (``is_singular``).

``solve`` runs on rectangular systems with a vector right-hand side or
one of 1-3 columns, its integer pair (d, X) read as X/d; sympy gives the
ranks and the pivot columns of A.

The sparse integer echelon core runs on row sets given as runs (first
column, entries), with integer or rational entries, some in a band whose
first column shifts from row to row as in a section system, and some
with stretches of zeros longer than ``linalg._GAP`` between their runs,
which combinations must keep or fill in.  Its pivot map must
equal that of the dict-row insertion (``oracles.echelon_reference``), and
``sparse_kernel`` and ``solve`` must give the vectors read off sympy's
``rref``.  The same holds at the edges of the packed layout: rows long
enough to be packed, split into runs exactly ``_GAP`` and ``_GAP + 1``
zeros apart, with leads of either sign, entries within a factor of 2 of
the first digit limit (so that a combination must widen the digits), and
rows that reduce to zero.  Below the layout, one-run rows of the 16
lengths just under ``_PACKED_MIN``, with small, 2^63-sized and 1,000-bit
entries, must match it entry by entry, without reaching the packed path.
Mixed together in one echelon, all of these leave stored rows that keep
the row invariant of ``linalg.Row``, packed cache included.
``monodromy._spin`` must give the bases the
same spins give on dict rows, on the reducible golden tuples.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd, prod
from pathlib import Path
from unittest import mock

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit import linalg as linalg_module
from bgsplit import lmatrix as lmatrix_module
from bgsplit.errors import NotInvertible
from bgsplit.fuchsian import gauge_transform
from bgsplit.io import parse_matrix_file
from bgsplit.laurent import LaurentPoly
from bgsplit.linalg import (_GAP, _PACKED_MIN, echelon_sparse, integer_scaled, solve,
                            sparse_int_rows, sparse_kernel, transpose)
from bgsplit.monodromy import _spin
from bgsplit.ratfunc import RatFunc

from oracles import echelon_insert, echelon_reference, rf_mat_mul

SMALL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
ROOTS = st.sampled_from((Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2)))


def poly(coeffs):
    return LaurentPoly(dict(enumerate(coeffs)))


def denominator(roots, x_power):
    out = LaurentPoly.x_power(x_power)
    for r in roots:
        out = out * poly((-r, 1))
    return out


NONZERO = SMALL.filter(bool)
RATFUNCS = st.builds(
    lambda low, num, roots, x_power: RatFunc(poly([low] + num), denominator(roots, x_power)),
    NONZERO,
    st.lists(SMALL, max_size=2),
    st.lists(ROOTS, min_size=1, max_size=2),
    st.integers(0, 1),
)


def matrices(n):
    """n x n RatFunc matrices; one in three gets row j = r * row i, i != j.
    Every entry may then be written in x^3 and multiplied by x^4, so the
    kernel also meets an exponent gcd g > 1 and a lowest exponent lo > 0."""
    def shape(rows, copy, factor, stride, lift):
        if copy is not None and n > 1:
            i, j = copy
            rows[j] = [factor * v for v in rows[i]]
        return [[RatFunc(stretched(v.num, stride).shift(lift), stretched(v.den, stride))
                 for v in row] for row in rows]

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    copy = st.sampled_from((None,) * (2 * max(1, len(pairs))) + tuple(pairs))
    rows = st.lists(st.lists(RATFUNCS, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.builds(shape, rows, copy, RATFUNCS, st.sampled_from((1, 3)), st.sampled_from((0, 4)))


def stretched(p, stride):
    return LaurentPoly({stride * e: c for e, c in p.terms.items()})


def leibniz_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def is_singular(a):
    """det A = 0 as a rational function.  det A times the product of all
    denominators is a polynomial of degree at most D, the sum over the
    entries of max(deg num, deg den), so it is zero exactly when det A(p)
    vanishes at D + 1 points p that are not poles (every pole has
    absolute value at most 2)."""
    bound = sum(max(0 if v.is_zero else v.num.deg(), v.den.deg()) for row in a for v in row)
    return all(
        leibniz_det([[v.evaluate(Fraction(p)) for v in row] for row in a]) == 0
        for p in range(3, bound + 4)
    )


def ratfunc_product(a, b):
    """a @ b summed entry by entry in RatFunc arithmetic."""
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), RatFunc.zero())
                       for col in zip(*b)) for row in a)


ROUTES = {"packed": lmatrix_module._PACKED_SPAN, "sparse": 0}
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
@settings(max_examples=10, deadline=None, derandomize=True)  # a rank-4 example takes ~1 s
@given(data=st.data())
def test_gauge_transform_solves_its_defining_equation_or_raises(route, n, data):
    a = tuple(tuple(row) for row in data.draw(matrices(n)))
    p = tuple(tuple(row) for row in data.draw(matrices(n)))
    with mock.patch.object(lmatrix_module, "_PACKED_SPAN", ROUTES[route]):
        if is_singular(p):
            with pytest.raises(NotInvertible):
                gauge_transform(a, p)
            return
        b = gauge_transform(a, p)
    rhs = tuple(tuple(x - v.derivative() for x, v in zip(r1, r2))
                for r1, r2 in zip(ratfunc_product(a, p), p))
    assert rf_mat_mul(p, b) == rhs


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
@SETTINGS
@given(data=st.data())
def test_rf_mat_mul_matches_ratfunc_arithmetic(route, n, data):
    a = tuple(tuple(row) for row in data.draw(matrices(n)))
    b = tuple(tuple(row) for row in data.draw(matrices(n)))
    with mock.patch.object(lmatrix_module, "_PACKED_SPAN", ROUTES[route]):
        assert rf_mat_mul(a, b) == ratfunc_product(a, b)


def _over_scale(solution):
    """``solve``'s (d, X) as the Fraction matrix X/d; None stays None."""
    if solution is None:
        return None
    d, x = solution
    return [[Fraction(v, d) for v in row] for row in x]


SPARSE_ENTRY = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), SMALL)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_solve_rectangular_systems(data):
    """A right-hand side with 1-3 columns gives the rows of X; each column
    is checked."""
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    width = data.draw(st.sampled_from((1, 2, 3)))
    a = data.draw(st.lists(st.lists(SPARSE_ENTRY, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    b_columns = []
    for _ in range(width):
        if data.draw(st.booleans()):  # a consistent right-hand side A * x0
            x0 = data.draw(st.lists(SMALL, min_size=cols, max_size=cols))
            b_columns.append([sum(v * w for v, w in zip(row, x0)) for row in a])
        else:
            b_columns.append(data.draw(st.lists(SMALL, min_size=rows, max_size=rows)))
    b = [list(row) for row in zip(*b_columns)]
    sa = sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in row] for row in a])
    sb = sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in column]
                    for column in b_columns]).T
    x = _over_scale(solve(a, b))
    if sa.row_join(sb).rank() > sa.rank():
        assert x is None
        return
    assert x is not None and len(x) == cols
    x_columns = [list(column) for column in zip(*x)]
    assert all(len(row) == width for row in x)
    _, pivots = sa.rref()
    for x_col, b_col in zip(x_columns, b_columns):
        assert [sum(v * w for v, w in zip(row, x_col)) for row in a] == b_col
        assert all(x_col[j] == 0 for j in range(cols) if j not in pivots)


@st.composite
def run_rows(draw):
    """(rows, ncols) with rows given as runs (first column, entries).  A
    banded set keeps one width and moves its first column by a fixed step
    per row; the other rows start and end anywhere.  Entries are all int
    or all rational, and a row may carry a common factor.  The columns are
    then spread apart at up to three cuts, by 1 to 2 * _GAP columns, and
    each row is split into runs at the cuts it spans."""
    ncols = draw(st.integers(1, 12))
    entry = draw(st.sampled_from((st.integers(-9, 9), SPARSE_ENTRY)))
    banded = draw(st.booleans())
    width, step = draw(st.integers(1, ncols)), draw(st.integers(0, 2))
    cuts = {c: draw(st.sampled_from((1, _GAP, _GAP + 1, 2 * _GAP)))
            for c in draw(st.sets(st.integers(1, max(1, ncols - 1)), max_size=3))}
    spread = [j + sum(gap for c, gap in cuts.items() if c <= j) for j in range(ncols)]
    rows = []
    for i in range(draw(st.integers(0, 10))):
        if banded:
            start, length = (i * step) % (ncols - width + 1), width
        else:
            start = draw(st.integers(0, ncols - 1))
            length = draw(st.integers(1, ncols - start))
        factor = draw(st.sampled_from((1, 1, 6, -4)))
        entries = [factor * v for v in draw(st.lists(entry, min_size=length, max_size=length))]
        ends = [start, *sorted(c for c in cuts if start < c < start + length), start + length]
        rows.append([(spread[a], entries[a - start:b - start]) for a, b in zip(ends, ends[1:])])
    return rows, spread[-1] + 1


def _dense(rows, ncols):
    out = [[0] * ncols for _ in rows]
    for dense, row in zip(out, rows):
        for start, entries in row:
            dense[start:start + len(entries)] = entries
    return out


def _fraction(v):
    return Fraction(int(v.p), int(v.q))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run_rows())
def test_echelon_pivots_match_the_per_step_gcd_reference(drawn):
    rows, _ = drawn
    as_dicts = [{c + i: Fraction(v) for c, entries in row for i, v in enumerate(entries)}
                for row in rows]
    assert echelon_sparse(sparse_int_rows(rows)) == echelon_reference(as_dicts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_rows())
def test_sparse_kernel_matches_sympy_rref(drawn):
    rows, ncols = drawn
    m = sp.Matrix(_dense(rows, ncols) or [[0] * ncols])
    want = [tuple(_fraction(v) for v in vec) for vec in m.nullspace()]
    got = [tuple(vec.get(j, 0) for j in range(ncols))
           for vec in sparse_kernel(sparse_int_rows(rows), ncols)]
    assert got == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_rows(), st.data())
def test_solve_matches_sympy_rref(drawn, data):
    rows, ncols = drawn
    a = _dense(rows, ncols)
    b = data.draw(st.lists(SMALL, min_size=len(a), max_size=len(a)))
    if not a:
        return
    reduced, pivots = sp.Matrix([[*row, v] for row, v in zip(a, b)]).rref()
    x = _over_scale(solve(a, [[v] for v in b]))
    if ncols in pivots:
        assert x is None
        return
    want = [Fraction(0)] * ncols
    for i, j in enumerate(pivots):
        want[j] = _fraction(reduced[i, ncols])
    assert [row[0] for row in x] == want


@st.composite
def packed_rows(draw):
    """Rows of at least ``_PACKED_MIN`` entries, so that they are reduced
    packed, over columns spread at up to three cuts by exactly _GAP or
    _GAP + 1 zeros, each row split into runs at the cuts it spans.  Each
    drawn row starts with a lead of either sign; entries are small, or
    within a factor of 2 of 2^63, the limit of the first digit width; the
    rows drawn last are combinations of earlier ones, so reduce to zero."""
    ncols = draw(st.integers(_PACKED_MIN, _PACKED_MIN + 16))
    size = st.integers(2**62, 2**63 - 1) if draw(st.booleans()) else st.integers(1, 9)
    entry = st.builds(lambda v, sign: sign * v, size, st.sampled_from((1, -1)))
    cuts = {c: draw(st.sampled_from((_GAP, _GAP + 1)))
            for c in draw(st.sets(st.integers(1, ncols - 1), max_size=3))}
    spread = [j + sum(gap for c, gap in cuts.items() if c <= j) for j in range(ncols)]
    dense = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, ncols - _PACKED_MIN))
        tail = draw(st.lists(st.one_of(st.just(0), entry), min_size=ncols - start - 1,
                             max_size=ncols - start - 1))
        dense.append([0] * start + [draw(entry)] + tail)
    for _ in range(draw(st.integers(0, 2))):
        i, j = (draw(st.integers(0, len(dense) - 1)) for _ in range(2))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        dense.append([a * x + b * y for x, y in zip(dense[i], dense[j])])
    rows = []
    for row in dense:
        start = next((j for j, v in enumerate(row) if v), 0)
        ends = [start, *sorted(c for c in cuts if c > start), ncols]
        rows.append([(spread[a], row[a:b]) for a, b in zip(ends, ends[1:])])
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(packed_rows())
def test_packed_pivots_match_the_reference_at_the_layout_edges(rows):
    as_dicts = [{c + i: Fraction(v) for c, entries in row for i, v in enumerate(entries)}
                for row in rows]
    assert echelon_sparse(sparse_int_rows(rows)) == echelon_reference(as_dicts)


@st.composite
def short_rows(draw):
    """One-run rows of ``_PACKED_MIN - 16`` to ``_PACKED_MIN - 1`` entries,
    just below the switch, so that they combine entry by entry: the
    lengths that a switch at 16 sent to the packed path.  Each drawn row
    starts with a lead of either sign after up to 4 zeros; entries are
    small, within a factor of 2 of 2^63, or of about 1,000 bits; the rows
    drawn last are combinations of earlier ones, so reduce to zero."""
    length = draw(st.integers(_PACKED_MIN - 16, _PACKED_MIN - 1))
    size = draw(st.sampled_from((st.integers(1, 9), st.integers(2**62, 2**63 - 1),
                                 st.integers(2**999, 2**1000))))
    entry = st.builds(lambda v, sign: sign * v, size, st.sampled_from((1, -1)))
    dense = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, 4))
        tail = draw(st.lists(st.one_of(st.just(0), entry), min_size=length - start - 1,
                             max_size=length - start - 1))
        dense.append([0] * start + [draw(entry)] + tail)
    for _ in range(draw(st.integers(0, 3))):
        i, j = (draw(st.integers(0, len(dense) - 1)) for _ in range(2))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        dense.append([a * x + b * y for x, y in zip(dense[i], dense[j])])
    return [[(0, row)] for row in dense]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(short_rows())
def test_rows_below_the_switch_match_the_reference_entry_by_entry(rows):
    as_dicts = [{i: Fraction(v) for i, v in enumerate(row[0][1])} for row in rows]
    with mock.patch.object(linalg_module, "_reduce_packed", side_effect=AssertionError):
        assert echelon_sparse(sparse_int_rows(rows)) == echelon_reference(as_dicts)


@st.composite
def mixed_rows(draw):
    """The rows of ``short_rows``, ``packed_rows`` and ``run_rows``, drawn
    together and interleaved, so that one echelon holds rows stored by the
    entry-by-entry pass and by the packed one, rows packed where a packed
    row met them, and rows that reduce to zero."""
    rows = sparse_int_rows(draw(run_rows())[0]) + draw(short_rows()) + draw(packed_rows())
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_rows())
def test_stored_rows_keep_the_row_invariant(rows):
    """Every stored row is [lead, runs, width, bound, packed]: runs
    primitive, ascending and disjoint, lead = runs[0][1][0] > 0 at the
    pivot column, the last entry nonzero; at width > 0 packed unpacks to
    runs and every |digit| <= bound < 2^(8*width - 1) (``linalg.Row``)."""
    as_dicts = [{c + i: Fraction(v) for c, entries in row for i, v in enumerate(entries)}
                for row in rows]
    pivots = {}
    for row in rows:
        linalg_module.echelon_insert(pivots, row)
    for c, (lead, runs, width, bound, packed) in pivots.items():
        assert lead == runs[0][1][0] > 0 and runs[0][0] == c and runs[-1][1][-1]
        assert all(a + len(x) < b for (a, x), (b, _) in zip(runs, runs[1:]))
        assert gcd(*(v for _, run in runs for v in run)) == 1
        if not width:
            assert packed == ()
            continue
        assert bound < 2 ** (8 * width - 1)
        assert [col for col, _, _ in packed] == [col for col, _ in runs]
        for (_, value, m), (_, run) in zip(packed, runs):
            digits = lmatrix_module._unpack(value, width)
            assert m >= len(run) and not any(digits[m:])
            assert digits[:m] + [0] * (m - len(digits)) == run + [0] * (m - len(run))
            assert max(map(abs, run)) <= bound
    assert echelon_sparse([], pivots) == echelon_reference(as_dicts)


def _spin_reference(seed, gens):
    """``monodromy._spin`` on dict rows through ``oracles.echelon_insert``."""
    n = len(seed)
    pivots, queue = {}, []

    def add(vec):
        c = echelon_insert(pivots, {j: v for j, v in enumerate(vec) if v})
        if c is not None:
            queue.append(c)

    def dense(row):
        return tuple(row.get(j, 0) for j in range(n))

    add(seed)
    for c in queue:
        if len(pivots) == n:
            break
        row = dense(pivots[c])
        for g in gens:
            add(sum(w * v for w, v in zip(g[i], row)) for i in range(n))
    return tuple(dense(row) for _, row in sorted(pivots.items()))


REDUCIBLE_TUPLES = ("demos/data/monodromy.txt", "tests/data/monodromy_gaussian4.txt",
                    "tests/data/monodromy_jordan6.txt", "tests/data/monodromy_reducible6.txt")


@pytest.mark.parametrize("path", REDUCIBLE_TUPLES)
def test_spin_bases_match_the_dict_row_spins_on_reducible_tuples(path):
    text = (Path(__file__).resolve().parents[1] / path).read_text(encoding="utf-8")
    gens = [integer_scaled(m)[1] for m in parse_matrix_file(text).obj.matrices]
    n = len(gens[0])
    seeds = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [g[0] for g in gens]
    for side in (gens, [transpose(g) for g in gens]):
        for seed in seeds:
            assert _spin(seed, side) == _spin_reference(seed, side)
