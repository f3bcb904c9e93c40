"""Exact linear algebra over the rationals, on two elimination cores.

Matrices are sequences of rows whose entries are ``int`` or ``Fraction``.
Both types carry ``numerator`` and ``denominator``, and every entry point
clears denominators once through those two attributes, on one path for
either type: row by row in ``sparse_int_rows``, matrix by matrix in
``integer_scaled``.  The sparse core (``echelon_insert``) runs a
division-controlled integer echelon reduction (every combined row is
divided by the gcd of its entries), which bounds swell without leaving
exact arithmetic; rank, kernels, ``solve``, section counts and the
word-span closure use it, and kernels and solutions share one
back-substitution to reduced echelon form, so results are deterministic.
The dense fraction-free core (``eliminate``) serves ``det_q``,
``inverse_q`` and the Laurent and rational-function matrices of
``lmatrix``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NotInvertible
from .laurent import LaurentPoly
from .ratfunc import _primitive_coeffs, poly_radical, root_multiplicity

Matrix = Tuple[Tuple[Fraction, ...], ...]
IntMatrix = Tuple[Tuple[int, ...], ...]
SparseRow = Dict[int, int]


def qmat(rows: Sequence[Sequence]) -> Matrix:
    """Normalize a nested sequence to an immutable Fraction matrix."""
    out = tuple(tuple(Fraction(v) for v in row) for row in rows)
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
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    if a and len(a[0]) != len(v):
        raise DimensionMismatch("matrix-vector shape mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def is_identity(a: Matrix) -> bool:
    n = len(a)
    return all(
        a[i][j] == (1 if i == j else 0) for i in range(n) for j in range(len(a[i]))
    ) and all(len(r) == n for r in a)


# -- integer echelon engine -------------------------------------------


def _gcd_reduce(row: SparseRow) -> SparseRow:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _normalize_sign(row: SparseRow) -> SparseRow:
    if row and row[min(row)] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def sparse_int_rows(rows: Sequence[Dict[int, Fraction]]) -> List[SparseRow]:
    """Clear denominators per row, returning gcd-reduced integer sparse
    rows; zero entries, and rows left empty, are dropped."""
    out = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row.values()))
        intified = {c: v.numerator * (mult // v.denominator) for c, v in row.items() if v}
        if intified:
            out.append(_gcd_reduce(intified))
    return out


def echelon_insert(pivots: Dict[int, SparseRow], row: SparseRow) -> Optional[int]:
    """Reduce an integer row against the echelon rows and keep what is left.

    ``pivots`` maps each pivot column to its row, whose minimal column is
    that pivot; a nonzero remainder joins it under its own minimal column,
    which is returned (None when the row reduces to zero).  Rows are
    combined fraction-free (cross-multiplied then gcd-reduced), which is
    exact and keeps entries as small minors.
    """
    while row:
        c = min(row)
        p = pivots.get(c)
        if p is None:
            pivots[c] = _normalize_sign(_gcd_reduce(row))
            return c
        a, b = row[c], p[c]
        new: SparseRow = {col: b * v for col, v in row.items()}
        for col, v in p.items():
            s = new.get(col, 0) - a * v
            if s:
                new[col] = s
            else:
                new.pop(col, None)
        row = _gcd_reduce(new)
    return None


def echelon_insert_mod(pivots: Dict[int, List[int]], row: List[int], p: int) -> Optional[int]:
    """``echelon_insert`` over F_p on dense rows: ``pivots`` maps each pivot
    column c to the tail from c of its row, made monic at c.  Entries are
    reduced modulo the prime p only once the row is reduced; returns the
    pivot column of the kept remainder, or None."""
    for c in sorted(pivots):
        f = row[c] % p
        if f:
            row[c:] = [x - f * y for x, y in zip(row[c:], pivots[c])]
    row = [x % p for x in row]
    c = next((c for c, x in enumerate(row) if x), None)
    if c is not None:
        inv = pow(row[c], -1, p)
        pivots[c] = [x * inv % p for x in row[c:]]
    return c


def echelon_sparse(rows: Sequence[Dict[int, Fraction]]) -> Dict[int, SparseRow]:
    """Reduce sparse rows to echelon form.

    Returns a map {pivot column: integer row} where each row's minimal
    column is its pivot (see ``echelon_insert``).
    """
    pivots: Dict[int, SparseRow] = {}
    for row in sparse_int_rows(rows):
        echelon_insert(pivots, row)
    return pivots


def _back_substitute(pivots: Dict[int, SparseRow]) -> Dict[int, Dict[int, Fraction]]:
    """Reduced echelon form over Q of the echelon rows: each row is divided
    by its pivot entry and cleared of the other pivot columns."""
    reduced: Dict[int, Dict[int, Fraction]] = {}
    for c in sorted(pivots, reverse=True):
        prow = pivots[c]
        lead = prow[c]
        frow = {col: Fraction(v, lead) for col, v in prow.items()}
        for col in sorted(col for col in frow if col != c and col in reduced):
            factor = frow.pop(col)
            for col2, v2 in reduced[col].items():
                if col2 == col:
                    continue
                s = frow.get(col2, Fraction(0)) - factor * v2
                if s:
                    frow[col2] = s
                else:
                    frow.pop(col2, None)
        reduced[c] = frow
    return reduced


def sparse_kernel(
    rows: Sequence[Dict[int, Fraction]], ncols: int
) -> List[Dict[int, Fraction]]:
    """Basis of the exact right kernel of a sparse rational matrix, as
    sparse vectors {column: value}.

    The basis is in the reduced-echelon normal form parametrization: one
    vector per free column in ascending order, with a 1 in the free
    position.
    """
    pivots = echelon_sparse(rows)
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivots}
    # A reduced row holds its pivot c and free columns only.
    for c, frow in _back_substitute(pivots).items():
        for f, coeff in frow.items():
            if f != c:
                basis[f][c] = -coeff
    return list(basis.values())


def nullspace(matrix: Sequence[Sequence]) -> List[Tuple[Fraction, ...]]:
    """Canonical basis of the right kernel of a dense rational matrix."""
    ncols = len(matrix[0]) if matrix else 0
    return [tuple(vec.get(j, Fraction(0)) for j in range(ncols))
            for vec in sparse_kernel([dict(enumerate(row)) for row in matrix], ncols)]


def rank(matrix: Sequence[Sequence]) -> int:
    return len(echelon_sparse([dict(enumerate(row)) for row in matrix]))


def solve(a: Sequence[Sequence], b: Sequence) -> Optional[tuple]:
    """One exact solution of A x = b, or None when inconsistent.

    b is a vector, giving a vector x, or a matrix given by its rows,
    giving the matrix X with A X = b, one column per column of b.  Free
    variables, if any, are set to zero.
    """
    ncols = _width(a)
    if len(b) != len(a):
        raise DimensionMismatch("right-hand side length mismatch")
    columns = bool(b) and isinstance(b[0], Sequence)
    if not columns:
        b = [[v] for v in b]
    width = _width(b)
    pivots = echelon_sparse([dict(enumerate((*arow, *brow))) for arow, brow in zip(a, b)])
    if pivots and max(pivots) >= ncols:
        return None
    x = [[Fraction(0)] * width for _ in range(ncols)]
    for c, frow in _back_substitute(pivots).items():
        x[c] = [frow.get(ncols + t, Fraction(0)) for t in range(width)]
    if columns:
        return tuple(map(tuple, x))
    return tuple(row[0] for row in x)


# -- square-matrix routines -------------------------------------------


def eliminate(m: List[list], n: int, jordan: bool) -> Tuple[int, object]:
    """Fraction-free elimination on the first n columns of the n rows m, in
    place; returns (sign of the row swaps, last pivot).

    The entries may be ints or elements of any other exact integral domain
    with ``*``, ``-`` and an exact ``//`` (``LaurentPoly``).  Step k
    replaces every entry v right of column k by (pivot*v - f*w) //
    (previous pivot), an exact division (Sylvester's identity), so each
    entry stays a minor of the input and the last pivot is sign * det.
    Bareiss updates the rows below the pivot; Gauss-Jordan (``jordan``)
    all other rows, so that [N | I] ends with R right of column n,
    N^-1 = R/p for the last pivot p.  Columns up to k are cleared
    implicitly: they are never read again.  A column without a pivot
    (det = 0) stops the elimination and its zero diagonal entry is
    returned as the pivot.
    """
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            r = next((i for i in range(k + 1, n) if m[i][k]), None)
            if r is None:
                return sign, m[k][k]
            m[k], m[r] = m[r], m[k]
            sign = -sign
        pivot = m[k][k]
        tail = m[k][k + 1:]
        for i in range(n) if jordan else range(k + 1, n):
            if i != k:
                row = m[i]
                f = row[k]
                row[k + 1:] = [(pivot * v - f * w) // prev for v, w in zip(row[k + 1:], tail)]
        prev = pivot
    return sign, prev


def det_q(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("determinant of a non-square matrix")
    mult, scaled = integer_scaled(a)
    sign, pivot = eliminate([list(row) for row in scaled], n, jordan=False)
    return Fraction(sign * pivot, mult**n)


def inverse_q(a: Sequence[Sequence]) -> Matrix:
    """Exact inverse by fraction-free Gauss-Jordan on [d*A | I]; raises
    NotInvertible when singular."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("inverse of a non-square matrix")
    mult, scaled = integer_scaled(a)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(scaled)]
    _, pivot = eliminate(work, n, jordan=True)
    if not pivot:
        raise NotInvertible("singular rational matrix")
    # (d*A)^-1 = R/p, so A^-1 = d*R/p
    return tuple(tuple(Fraction(mult * v, pivot) for v in row[n:]) for row in work)


def charpoly(a: Sequence[Sequence]) -> LaurentPoly:
    """Monic characteristic polynomial det(lambda*I - A), exact.

    Computed by the Faddeev-LeVerrier recurrence on the integer matrix
    N = d*A (d the lcm of A's denominators), whose iterates and
    coefficients c_k are integers; the coefficient of lambda^(n-k) in
    p_A is c_k / d^k.  Returned as a polynomial in the variable
    (exponent = power of lambda).
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    d, scaled = integer_scaled(a)
    coeffs = {n: Fraction(1)}
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for k in range(1, n + 1):
        m = mat_mul(scaled, m)
        c, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible on an integer matrix")
        if c:
            coeffs[n - k] = Fraction(c, d**k)
        m = tuple(
            tuple(v + c if i == j else v for j, v in enumerate(row)) for i, row in enumerate(m)
        )
    return LaurentPoly(coeffs)


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
    """Resultant of two nonzero polynomials via the Sylvester determinant."""
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial")
    if not (p.is_polynomial() and q.is_polynomial()):
        raise ValueError("polynomial inputs required")
    m, n = p.deg(), q.deg()
    if m == 0:
        return p.coeff(0) ** n
    if n == 0:
        return q.coeff(0) ** m
    size = m + n
    rows = []
    for i in range(n):
        rows.append([p.coeff(m - (j - i)) if 0 <= j - i <= m else Fraction(0)
                     for j in range(size)])
    for i in range(m):
        rows.append([q.coeff(n - (j - i)) if 0 <= j - i <= n else Fraction(0)
                     for j in range(size)])
    return det_q(rows)
