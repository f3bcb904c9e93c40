"""Exact linear algebra over the rationals, on two elimination cores.

Matrices are sequences of rows whose entries are ``int`` or ``Fraction``.
Both types carry ``numerator`` and ``denominator``, and every entry point
clears denominators once through those two attributes, on one path for
either type: row by row in ``sparse_int_rows``, matrix by matrix in
``integer_scaled``.  The sparse core (``echelon_insert``) runs an integer
echelon reduction on rows kept as dense runs, split only across long
stretches of zeros (``Runs``): two rows combine after their leading
entries are divided by their gcd, and a row loses its content only when
it is stored, which bounds swell without leaving exact arithmetic.  A
long row is combined on packed runs: each run one integer built by
``lmatrix._pack``, so a combination is one multiply-subtract per run,
with the digit width checked against a proven bound on the entries
before each combination and widened only when that bound would
overflow it (the width invariant).  One-run rows shorter than
``_PACKED_MIN`` = 48 entries, the measured crossover, combine entry by
entry.  Every stored row has one shape (``Row``): its runs, always
present, and a cache of them packed, filled when a packed row first
meets it.  Rank, kernels, ``solve`` (A X = B, the right-hand side
a matrix: a vector is one column; ``inverse_q`` solves A X = I), section
counts and the exact word-span closure use it; kernels and solutions
share one integer back-substitution to reduced echelon form, whose rows
stay on integers, each with its own denominator.  ``solve`` returns its
solution on integers too, as (d, X) for X/d, and its callers build
``Fraction``s only where they need them.
Its F_p counterpart (``echelon_insert_mod``) runs on rows packed into one
integer each, one big-integer multiply-add per pivot.  The dense
fraction-free core (``lmatrix.eliminate``) serves ``det_q`` on integer
rows (and through it ``resultant``, whose rows are pseudo-remainders by
``ratfunc._pseudo_remainder``).  ``charpoly`` needs no elimination: it
runs Berkowitz's division-free recurrence on the integer matrix d*A,
with vector-matrix products on plain integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NotInvertible
from .laurent import LaurentPoly, _trusted
from .lmatrix import _digit_mask, _pack, _shift, _unpack, eliminate
from .ratfunc import _primitive_coeffs, _pseudo_remainder, poly_radical, root_multiplicity

Matrix = Tuple[Tuple[Fraction, ...], ...]
IntMatrix = Tuple[Tuple[int, ...], ...]
SparseRow = Dict[int, int]
# A row as runs (first column, entries), ascending and disjoint, so that it
# costs the columns its runs cover; runs at most _GAP zeros apart merge.
Runs = List[Tuple[int, List[int]]]
# A row the echelon core keeps: [lead, runs, width, bound, packed], primitive,
# lead = runs[0][1][0] > 0 its entry at its pivot column, the last entry of its
# last run nonzero.  packed caches its runs at width bytes a digit, each as
# (first column, value, length, which may count zero digits past the run's
# end): value = sum of e_j * X^j at X = 2^(8*width)
# (``lmatrix._pack``), with every |e_j| <= bound < 2^(8*width - 1), so its
# digits are balanced (the width invariant).  Width 0 means that the row has
# not met a packed row yet: packed is empty, and the bound is found when the
# row is first packed (``_common_width``).
Row = List[Any]
_GAP = 32
_WIDTH = 8  # the fewest bytes per digit of a packed row
# Entries from which a one-run row is combined packed: the measured crossover.
# Below it the entry-by-entry pass wins on the section rows (at most 40
# entries), the n = 8 Frobenius solves and the exact word-span closure at
# n <= 6; at 56 and above it already slows the growth bundles of rank 8 and 16
# by about a tenth (see ``echelon_insert``).
_PACKED_MIN = 48


def qmat(rows: Sequence[Sequence]) -> Matrix:
    """Normalize a nested sequence to an immutable Fraction matrix."""
    out = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows)
    _width(out)
    return out


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows (0 when there are none);
    DimensionMismatch when they differ."""
    if any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("ragged matrix")
    return len(rows[0]) if rows else 0


def identity_q(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def integer_scaled(a: Sequence[Sequence]) -> Tuple[int, IntMatrix]:
    """(d, d*A) for a matrix A, with d the lcm of its denominators, so that
    d*A is an integer matrix."""
    d = lcm(*(v.denominator for row in a for v in row))
    return d, tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return ()
    if len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


# -- integer echelon engine -------------------------------------------


def runs(entries: Iterable[Tuple[int, Any]]) -> Runs:
    """The row holding the (column, value) pairs, given in ascending column."""
    row: Runs = []
    for c, v in entries:
        gap = c - row[-1][0] - len(row[-1][1]) if row else _GAP + 1
        if gap > _GAP:
            row.append((c, [v]))
        else:
            row[-1][1].extend([0] * gap + [v])
    return row


def sparse_int_rows(rows: Sequence[Sequence[Tuple[int, Sequence]]]) -> List[Runs]:
    """Clear denominators per row: each row of runs with int or Fraction
    entries, scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        mult = lcm(*(v.denominator for _, entries in row for v in entries))
        out.append([(c, [v.numerator * (mult // v.denominator) for v in entries])
                    for c, entries in row])
    return out


def echelon_insert(pivots: Dict[int, Row], row: Runs) -> Optional[int]:
    """Reduce an integer row given as runs against the echelon rows; keep
    the rest.  The row is consumed: it may be reduced in place.

    ``pivots`` maps each pivot column to its row (see ``Row``); a nonzero
    remainder joins it under its own first nonzero column, which is
    returned (None when the row reduces to zero).  Rows combine
    fraction-free: with a and b the row's and the pivot's leading entries
    divided by their gcd, the row R becomes b*R - a*P.  The remainder is
    then a multiple of the one a reduction to content 1 at every step
    keeps, so dividing its content out once, when it is stored, stores the
    same row.  A row of one run shorter than ``_PACKED_MIN`` entries that
    meets pivots of the same kind is combined entry by entry; any other
    row is combined packed (``_reduce_packed``), one multiply-subtract per
    run of P.  Both paths store the same primitive row.  On replayed
    rows of 16 to 128 entries, the entry-by-entry pass is 1.8-2.8x faster
    on entries near 2^63 or of 1,000 bits, since packing pads each digit
    to the widest entry, and the packed one up to 1.4x faster on small
    entries from 24 entries on.  Section rows start small and grow: on
    the benchmark's rows and the growth bundles' the two cross at about
    48 entries.
    """
    if len(row) != 1 or len(row[0][1]) >= _PACKED_MIN:
        return _reduce_packed(pivots, row)
    c, run = row[0]
    s = 0  # run[s] is the entry in column c + s
    while True:
        while s < len(run) and not run[s]:
            s += 1
        if s == len(run):
            return None
        p = pivots.get(c + s)
        if p is None:
            return _store(pivots, [(c + s, run[s:])] if s else row)
        p_runs = p[1]
        if len(p_runs) > 1 or len(p_runs[0][1]) >= _PACKED_MIN:
            return _reduce_packed(pivots, row)
        entries = p_runs[0][1]
        g = gcd(run[s], entries[0])
        a, b = run[s] // g, entries[0] // g
        if b != 1:
            run[:] = [b * x for x in run]  # in place: row stays [(c, run)]
        end = s + len(entries)
        if end > len(run):
            run += [0] * (end - len(run))
        run[s:end] = [x - a * y for x, y in zip(run[s:end], entries)]


def _reduce_packed(pivots: Dict[int, Row], row: Runs) -> Optional[int]:
    """``echelon_insert`` with each run of the row and of the pivots it meets
    packed into one integer by ``lmatrix._pack``.

    Width: the row and the pivot it meets are packed at one width w, and
    each digit of either is at most its bound B in absolute value, with
    B < 2^(8w - 1), so the digits are balanced and, ``_pack`` being
    Z-linear, b*R - a*P packs the digitwise combination, whose digits are
    at most |b|*B_R + |a|*B_P.  That sum is checked before each
    combination; when it would reach 2^(8w - 1), B_R is first tightened to
    the row's largest digit, and only when that fails are the row and the
    pivot repacked wider.  The remainder is unpacked run by run (every
    digit is read for its content anyway) and stored with its packed runs
    and its runs, both divided by the content (exactly, digit by digit),
    and its largest digit as B.

    The next leading entry is the lowest nonzero digit, and it lies in the
    digit of the lowest set bit: with d_k the first nonzero digit, the
    value is X^k * (d_k + X*r) for an integer r, X = 2^(8w), and d_k + X*r
    is d_k modulo X, nonzero since 0 < |d_k| < X/2, so its lowest set bit
    is below bit 8w.  Dropping the k zero digits below it is an exact
    shift: the value is a multiple of X^k, so the floor of value / X^k is
    the quotient, whose digits are d_k, d_(k+1), ... (balanced still), and
    d_k is its residue modulo X read in [-X/2, X/2).
    """
    i = 0
    while i < len(row) and not any(row[i][1]):
        i += 1
    if i == len(row):
        return None
    c, first = row[i]
    s = 0
    while not first[s]:
        s += 1
    c, lead = c + s, first[s]
    p = pivots.get(c)
    if p is None:
        rest = [run for run in row[i + 1:] if any(run[1])]
        if i or s or len(rest) < len(row) - 1:
            row = [(c, first[s:] if s else first)] + rest
        return _store(pivots, row)
    bound = max(max(first), -min(first)) if len(row) == i + 1 else \
        max(max(max(run), -min(run)) for _, run in row[i:] if run)
    width = p[2] or _WIDTH
    if bound.bit_length() >= 8 * width:
        width = max(width, _digit_width(bound))
    v, n = _pack(first[s:] if s else first, width), len(first) - s
    rest = [(col, _pack(run, width), len(run)) for col, run in row[i + 1:]]
    bits, mask = 8 * width, _digit_mask(width)
    half = mask >> 1  # the largest balanced digit
    while True:
        if p[2] != width:
            width, v, rest = _common_width(p, width, width, v, rest)
            bits, mask = 8 * width, _digit_mask(width)
            half = mask >> 1
        p_lead, _, _, p_bound, p_runs = p
        g = gcd(lead, p_lead)
        a, b = lead // g, p_lead // g
        new_bound = b * bound + abs(a) * p_bound
        if new_bound > half:
            bound = max(abs(d) for x in [v] + [x for _, x, _ in rest] for d in _unpack(x, width))
            new_bound = b * bound + abs(a) * p_bound
            if new_bound > half:
                width, v, rest = _common_width(p, width, _digit_width(new_bound), v, rest)
                bits, mask, p_runs = 8 * width, _digit_mask(width), p[4]
                half = mask >> 1
        bound = new_bound
        _, pv, pn = p_runs[0]
        if len(p_runs) == 1 and (not rest or c + pn + _GAP < rest[0][0]):  # run meets run
            v = b * v - a * pv
            if pn > n:
                n = pn
            if rest and b != 1:
                rest = [(col, b * x, m) for col, x, m in rest]
        else:
            merged = [(c, v, n)] + rest
            if b != 1:
                merged = [(col, b * x, m) for col, x, m in merged]
            for col, x, m in p_runs:
                _subtract(merged, col, a, x, m, width)
            (c, v, n), rest = merged[0], merged[1:]
        if v:  # its digit 0, at column c, is now 0: drop it
            v >>= bits
            c, n = c + 1, n - 1
        else:
            while not v:
                if not rest:
                    return None
                (c, v, n), rest = rest[0], rest[1:]
        lead = v & mask
        if not lead:  # the lowest nonzero digit is further up
            k = ((v & -v).bit_length() - 1) // bits
            v >>= bits * k
            c, n = c + k, n - k
            lead = v & mask
        if lead > half:
            lead -= mask + 1
        p = pivots.get(c)
        if p is None:
            break
    packed = [(c, v, n)] + [run for run in rest if run[1]] if rest else [(c, v, n)]
    runs = [(col, _unpack(x, width)[:m]) for col, x, m in packed]
    last = runs[-1][1]
    while not last[-1]:
        last.pop()
    g = gcd(*(d for _, run in runs for d in run))
    g = g if lead > 0 else -g
    if g != 1:
        packed = [(col, x // g, m) for col, x, m in packed]
        runs = [(col, [d // g for d in run]) for col, run in runs]
    pivots[c] = [lead // g, runs, width, max(max(max(run), -min(run)) for _, run in runs), packed]
    return c


def _store(pivots: Dict[int, Row], runs: Runs) -> int:
    """Store a row whose first entry is nonzero, in a column without a
    pivot, divided by its content with that entry made positive, and
    return the column.  The row is stored unpacked, width 0, on the very
    runs given when the content is 1."""
    last = runs[-1][1]
    while not last[-1]:
        last.pop()
    g = 0
    for _, run in runs:  # the content, run by run, stopping at 1
        g = gcd(g, *run)
        if g == 1:
            break
    g = g if runs[0][1][0] > 0 else -g
    if g != 1:
        runs = [(col, [v // g for v in run]) for col, run in runs]
    pivots[runs[0][0]] = [runs[0][1][0], runs, 0, 0, ()]
    return runs[0][0]


def _digit_width(bound: int) -> int:
    """Bytes per digit for entries up to ``bound`` in absolute value: the
    least width w = 8 * 2^j with bound < 2^(8w - 1), so that rows of one
    echelon mostly share a width and widening doubles it."""
    width = _WIDTH
    while bound.bit_length() >= 8 * width:
        width *= 2
    return width


def _common_width(p: Row, width: int, need: int, v: int, rest: List[Tuple[int, int, int]]):
    """(w, v, rest): the stored row p packed at w, the least width of at
    least ``need`` bytes, p's own width and what p's entries need; and the
    partly reduced row, its first run's value v and its other runs, packed
    at ``width``, repacked at w."""
    _, _, old, bound, _ = p
    if not old:
        bound = p[3] = max(max(max(run), -min(run)) for _, run in p[1])
    wider = max(need, old, _digit_width(bound))
    if wider != old:
        p[2], p[4] = wider, [(c, _pack(run, wider), len(run)) for c, run in p[1]]
    if wider != width:
        v = _pack(_unpack(v, width), wider)
        rest = [(col, _pack(_unpack(x, width), wider), m) for col, x, m in rest]
    return wider, v, rest


def row_entries(row: Row) -> SparseRow:
    """The nonzero entries of a stored row, as {column: value}."""
    return {c + i: v for c, run in row[1] for i, v in enumerate(run) if v}


def _subtract(row: List[Tuple[int, int, int]], col: int, a: int, value: int, length: int,
              width: int) -> None:
    """row -= a * (the run ``value`` of ``length`` digits placed at column
    col), in place; the runs of row within ``_GAP`` columns of that span
    merge with it into one run, each shifted into place."""
    end, i = col + length, 0
    while i < len(row) and row[i][0] + row[i][2] + _GAP < col:
        i += 1
    j = i
    while j < len(row) and row[j][0] <= end + _GAP:
        j += 1
    start = min(col, row[i][0]) if j > i else col
    stop = max(end, row[j - 1][0] + row[j - 1][2]) if j > i else end
    total = -a * _shift(value, col - start, width)
    for c, v, _ in row[i:j]:
        total += _shift(v, c - start, width)
    row[i:j] = [(start, total, stop - start)]


def echelon_insert_mod(pivots: Dict[int, int], row: int, p: int, width: int) -> Optional[int]:
    """``echelon_insert`` over F_p on packed rows: the row of entries r_j >= 0
    is the integer sum of r_j * X^j, X = 2^(8*width) (``lmatrix._pack``).
    ``pivots`` maps each pivot column c to the complement of its row P_c,
    made monic at c: the sum of (-P_c[c + j] mod p) * X^j.  The row is read
    from its lowest digit up, each digit shifted away once it is 0 mod p;
    at a pivot column, adding f times the complement, f the digit's
    residue, subtracts f*P_c modulo p digit by digit, with no borrow.  The
    first nonzero residue off the pivot columns keeps the rest of the row
    as a new pivot; returns its column, or None.

    No digit carries into the next when the row's digits are below k*p^2
    and (k + m)*p^2 <= 2^(8*width - 1), m the number of columns: each of at
    most m steps, one per pivot, adds at most (p - 1)^2 to a digit.
    """
    mask, c = _digit_mask(width), 0
    while row:
        f = (row & mask) % p
        if f:
            if c not in pivots:
                inv = pow(f, -1, p)
                pivots[c] = _pack([-v * inv % p for v in _unpack(row, width)], width)
                return c
            row += f * pivots[c]
        row >>= 8 * width
        c += 1
    return None


def echelon_sparse(
    rows: Sequence[Runs], pivots: Optional[Dict[int, Row]] = None
) -> Dict[int, SparseRow]:
    """Echelon form of integer rows given as runs, after the rows of
    ``pivots`` when given (an ``echelon_insert`` form, which grows): a map
    {pivot column: integer row} where each row's minimal column is its
    pivot.  The rows are consumed: they are reduced in place."""
    pivots = {} if pivots is None else pivots
    for row in rows:
        echelon_insert(pivots, row)
    return {c: row_entries(row) for c, row in pivots.items()}


def _back_substitute(pivots: Dict[int, SparseRow]) -> Dict[int, Tuple[int, SparseRow]]:
    """Reduced echelon form of the echelon rows on integers, as {pivot
    column c: (d, {free column f: w})} for the rows d * x_c + sum of
    w * x_f, each primitive with d > 0: over Q, x_c + sum of (w/d) * x_f.
    Each row is cleared of the pivot columns after it, last row first."""
    reduced: Dict[int, Tuple[int, SparseRow]] = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        den, free = 1, {f: v for f, v in row.items() if f != c and f not in reduced}
        for p in row.keys() & reduced.keys():
            m, other = reduced[p]
            g = gcd(den, m)
            scale, v = m // g, row[p] * (den // g)
            free = {f: w * scale for f, w in free.items()} if scale != 1 else free
            for f, w in other.items():
                free[f] = free.get(f, 0) - v * w
            den *= scale
        den *= row[c]
        g = gcd(den, *free.values())
        reduced[c] = (den // g, {f: w // g for f, w in free.items() if w})
    return reduced


def sparse_kernel(
    rows: Sequence[Runs], ncols: int, pivots: Optional[Dict[int, Row]] = None
) -> List[Dict[int, Fraction]]:
    """Basis of the exact right kernel of an integer matrix with rows
    given as runs, and the rows of ``pivots`` when given, as sparse
    vectors {column: value}; the rows are consumed (see ``echelon_sparse``).

    The basis is in the reduced-echelon normal form parametrization: one
    vector per free column in ascending order, with a 1 in the free
    position.
    """
    echelon = echelon_sparse(rows, pivots)
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in echelon}
    for c, (den, frow) in _back_substitute(echelon).items():
        for f, w in frow.items():
            basis[f][c] = Fraction(-w, den)
    return list(basis.values())


def nullspace(matrix: Sequence[Sequence]) -> List[Tuple[Fraction, ...]]:
    """Canonical basis of the right kernel of a dense rational matrix."""
    ncols = len(matrix[0]) if matrix else 0
    return [tuple(vec.get(j, Fraction(0)) for j in range(ncols))
            for vec in sparse_kernel(sparse_int_rows([[(0, row)] for row in matrix]), ncols)]


def rank(matrix: Sequence[Sequence]) -> int:
    return len(echelon_sparse(sparse_int_rows([[(0, row)] for row in matrix])))


def solve(a: Sequence[Sequence], b: Sequence[Sequence]) -> Optional[Tuple[int, IntMatrix]]:
    """One exact solution of A X = B as (d, X'), X = X'/d with X' an
    integer matrix and d > 0 the lcm of the denominators of
    ``_back_substitute``'s rows; None when the system is inconsistent.

    B is a matrix given by its rows (a vector is one column); X has one
    column per column of B.  Free variables, if any, are set to zero.
    When A is square and nonsingular, each row is primitive over the
    columns of B alone, so gcd(d, X') = 1: X' = d*X with d the lcm of
    X's denominators.
    """
    ncols = _width(a)
    if len(b) != len(a):
        raise DimensionMismatch("right-hand side length mismatch")
    width = _width(b)
    pivots = echelon_sparse(sparse_int_rows([[(0, (*arow, *brow))] for arow, brow in zip(a, b)]))
    if pivots and max(pivots) >= ncols:
        return None
    reduced = _back_substitute(pivots)
    d = lcm(*(den for den, _ in reduced.values()))
    x = [(0,) * width] * ncols
    for c, (den, frow) in reduced.items():
        x[c] = tuple(frow.get(ncols + t, 0) * (d // den) for t in range(width))
    return d, tuple(x)


# -- square-matrix routines -------------------------------------------


def det_q(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("determinant of a non-square matrix")
    mult, scaled = integer_scaled(a)
    sign, pivot = eliminate([list(row) for row in scaled], n, jordan=False)
    return Fraction(sign * pivot, mult**n)


def inverse_q(a: Sequence[Sequence]) -> Matrix:
    """Exact inverse, the solution X of A X = I on the echelon core;
    raises NotInvertible when singular."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("inverse of a non-square matrix")
    solution = solve(a, [[int(i == j) for j in range(n)] for i in range(n)])
    if solution is None:
        raise NotInvertible("singular rational matrix")
    d, x = solution
    return tuple(tuple(Fraction(v, d) for v in row) for row in x)


def charpoly(a: Sequence[Sequence]) -> LaurentPoly:
    """Monic characteristic polynomial det(lambda*I - A), exact, with
    lambda written as x, so the exponent is the power of lambda.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18, 1984) on
    the one integer matrix M = d*A of ``integer_scaled``: with
    c = (c_0, ..., c_n) the coefficients of det(lambda*I - M), highest
    power first, det(lambda*I - A) = d^-n * det(d*lambda*I - M), so the
    coefficient of lambda^(n-k) is c_k / d^k.  Write M_r for the leading
    r x r block, p = (p_0 = 1, ..., p_r) for the coefficients of
    det(lambda*I - M_r), R for row r left of the diagonal and C for
    column r above it.  By the Schur complement,

        det(lambda*I - M_(r+1)) = (lambda - m_rr) * det(lambda*I - M_r)
                                  - R * adj(lambda*I - M_r) * C,

    and Cayley-Hamilton (p(M_r) = 0) expands the adjugate as
    adj(lambda*I - M_r) = sum_(j<r) lambda^(r-1-j) sum_(i<=j) p_i M_r^(j-i).
    So the coefficients of det(lambda*I - M_(r+1)) are T * p, T the
    (r+2) x (r+1) lower-triangular Toeplitz matrix whose first column is
    (1, -m_rr, -R*C, -R*M_r*C, ..., -R*M_r^(r-1)*C).  Starting from
    c = (1) for the 0 x 0 block, n such steps give c on integers, with no
    division and no bound to size anything by.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    d, m = integer_scaled(a)
    c = [1]
    for r, row in enumerate(m):
        block = m[:r]
        col, t = [v[r] for v in block], [1, -row[r]]
        for j in range(r):  # map stops at len(col) = r: rows are read left of column r
            if j:
                col = [sum(map(mul, v, col)) for v in block]
            t.append(-sum(map(mul, row, col)))
        t.reverse()  # c_k of T * c is sum_j c_j t_(k-j): c against the last k + 1 of t
        c = [sum(map(mul, c, t[r + 1 - k:])) for k in range(r + 2)]
    scale, terms = d**n, {}
    for k in range(n, -1, -1):
        if c[k]:
            terms[n - k] = Fraction(c[k], scale)
        scale //= d
    return _trusted(terms)


def rational_roots(p: LaurentPoly) -> List[Tuple[Fraction, int]]:
    """All rational roots of a nonzero polynomial, with multiplicities.

    Returned sorted ascending.  Polynomial-time, by p-adic lifting (Loos,
    SIAM J. Comput. 1983): with f the primitive integer form of the
    square-free part ``poly_radical(p)`` and a its leading coefficient, the
    roots x of f are y/a for the integer roots y of the monic
    h(y) = a^(m-1) f(y/a), m = deg f.  Those are the roots of h modulo
    the first prime q at which every root of h is simple, Newton-lifted
    past twice the Cauchy bound of h, read as symmetric residues and
    each confirmed exactly.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if not p.is_polynomial():
        raise ValueError("Laurent input; shift to a polynomial first")
    roots = []
    low = p.ord()
    if low > 0:
        roots.append((Fraction(0), low))
        p = p.shift(-low)
    if p.deg() == 0:
        return roots
    f = _primitive_coeffs(poly_radical(p))
    m, a = len(f) - 1, f[-1]
    h = [c * a ** (m - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    dh = [i * c for i, c in enumerate(h)][1:]
    bound = 2 * (1 + max(abs(c) for c in h))
    q = 1
    while True:  # h is square-free, so only primes dividing its discriminant fail
        q += 1
        if all(q % d for d in range(2, isqrt(q) + 1)):
            residues = [r for r in range(q) if _horner(h, r) % q == 0]
            if all(_horner(dh, r) % q for r in residues):
                break
    for r in residues:
        mod = q
        while mod <= bound:  # Newton: a simple root mod q^j lifts to q^2j
            mod *= mod
            r = (r - _horner(h, r) * pow(_horner(dh, r), -1, mod)) % mod
        y = r - mod if 2 * r > mod else r
        if _horner(h, y) == 0:
            x = Fraction(y, a)
            roots.append((x, root_multiplicity(p, x)))
    return sorted(roots)


def _horner(coeffs: Sequence[int], x: int) -> int:
    """Value at x of the integer polynomial with coefficients lowest first."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def resultant(p: LaurentPoly, q: LaurentPoly) -> Fraction:
    """Resultant of two nonzero polynomials, lc(p)^deg q * det M, with M the
    deg p x deg p matrix whose row i holds the coefficients of t^i*q mod p.

    Proof: for m = deg p >= 1, M is the matrix of multiplication by q on
    A = Q[t]/(p) in the basis 1, t, ..., t^(m-1).  Multiplication by t has
    characteristic polynomial p/lc(p), so over a splitting field it is
    triangular with diagonal alpha_1, ..., alpha_m, the roots of p with
    multiplicity, and q(t) is triangular with diagonal q(alpha_j): det M
    is the product of the q(alpha_j).  The Sylvester determinant equals
    lc(p)^deg q times that product (Poisson's formula), so the value is
    the same.  For m = 0 the Sylvester matrix is p(0) times the identity
    of size deg q.

    The rows run on integers: with P = a*p and Q = b*q integral and c the
    leading coefficient of P, a row of k > m coefficients (its top one
    possibly 0) is replaced by its pseudo-remainder
    c^(k - m) * row mod P (``ratfunc._pseudo_remainder``), so row i is
    c^(e_i)*(t^i*Q mod P) with e_i the sum of those k - m so far, and
    det M = det(rows) / (c^(sum e_i) * b^m); ``det_q`` takes the rows.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial")
    if not (p.is_polynomial() and q.is_polynomial()):
        raise ValueError("polynomial inputs required")
    m, n = p.deg(), q.deg()
    if m == 0:
        return p.coeff(0) ** n
    (a, (big_p,)), (b, (row,)) = (integer_scaled([[f.coeff(e) for e in range(f.deg() + 1)]])
                                  for f in (p, q))
    c, row = big_p[-1], list(row)
    rows, power, total = [], 0, 0
    for _ in range(m):
        if len(row) > m:
            power += len(row) - m
            row = _pseudo_remainder(row, big_p)
        rows.append(row + [0] * (m - len(row)))
        total += power
        row = [0] + rows[-1]
    det = det_q(rows)
    return Fraction(det.numerator * c**n, det.denominator * c**total * a**n * b**m)
