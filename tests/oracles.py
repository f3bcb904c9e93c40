"""Test oracles, nearly all deliberately not built on the library.

The Frobenius oracles keep the dense route the package took before each
order became one n x n solve: the n^2 x n^2 Kronecker system per order,
solved by sympy, and the residual check in plain Fraction sums.

The section-count oracle re-derives dim H^0 from scratch with sympy:
symbolic coefficients for s1, symbolic expansion of x^k * A(x) * s1(1/x),
and a sympy rank computation for the vanishing conditions.  It shares no
code path with the package, so agreement is meaningful evidence.

The scalar chart oracle re-derives the local data of a Fuchsian equation
with sympy: at a finite point p it takes b_(n-k) = lim (z - p)^k a_(n-k),
and at infinity it differentiates W(1/z) symbolically and collects the
coefficients of the derivatives of W, so it uses neither the package's
chart code nor the Lah-number form of the chain rule.

The Faddeev-LeVerrier oracle is the package's characteristic polynomial
as it was before it became a determinant of lambda*I - A: the trace
recurrence on integer matrices, kept as a separate route to the same
coefficients.

The Sylvester resultant oracle is the package's ``resultant`` as it was
before it became lc(p)^deg q times the determinant of multiplication by
q modulo p: the (m + n)-square Sylvester determinant, kept verbatim, so
the values of the two can be compared exactly.

The root-multiplicity oracle is the package's ``root_multiplicity`` as
it was before it divided integer coefficients: evaluate at the point and,
while the value is 0, divide by x - point with Fraction coefficients.
It is kept verbatim, so the multiplicities of the two can be compared.

The order-basis oracle is the package's factorization loop as it was
before it ran on integer columns: the same van Barel-Bultheel iteration
with every column update in Fraction arithmetic on ``LaurentPoly``
entries, kept verbatim, so B, the exponents and C of the two can be
compared exactly.

The echelon oracle is the reference for the package's integer echelon
core, which combines rows as runs of ints or as packed runs: the
sparse insertion on dict rows {column: value}, the gcd of the whole row
divided out after every combination.  It shares no representation with
the core and is kept verbatim, so the pivot rows of the two can be
compared exactly.

The adjugate degree bound is the section route's degree bound as it
was before it read the lowest exponent of A^-1 from Toeplitz ranks:
k + t - (n - 1)*lo, the worst case of adj(A), kept verbatim, so the
section counts, bases and h1 of the two bounds can be compared exactly.

The modular word-span oracle is the F_p branch of the package's word-span
closure as it was before it ran on packed integer rows: the same
breadth-first search, each candidate reduced entry by entry into [0, p)
and eliminated on plain lists.  It is kept verbatim, so the dimension and
the accepted words of the two can be compared exactly.

The byte packer is the package's ``lmatrix._pack`` as it was before it
became Horner's scheme on any integers: each balanced digit biased into
one little-endian block of bytes, and the bias subtracted once.  It is
kept verbatim, so the two can be compared on balanced digits.

The rational-function product ``rf_mat_mul`` is the package's product of
``RatFunc`` matrices as it was before the gauge transform stopped calling
it: the rows of the left and the columns of the right factor over their
denominator lcms, one Z[x] product on the ``lmatrix`` kernel, and one
reduction per entry.  It is checked against sums of ``RatFunc`` products
and serves as the P B oracle of the gauge property, where ``RatFunc`` sums
would take over a minute at rank 4.
"""

from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Optional

import sympy as sp

from bgsplit.errors import DimensionMismatch, InternalSearchExhausted
from bgsplit.fuchsian import _over_denominator_lcms
from bgsplit.laurent import LaurentPoly, _coerce
from bgsplit.linalg import det_q, integer_scaled, mat_mul
from bgsplit.lmatrix import LaurentMatrix, _product
from bgsplit.ratfunc import RatFunc

SparseRow = Dict[int, int]


# -- echelon reference: per-step gcd on dict rows ----------------------


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


def echelon_reference(rows):
    """Pivot map of rational dict rows {column: value}: denominators cleared
    and the gcd divided out per row, then ``echelon_insert`` row by row."""
    pivots: Dict[int, SparseRow] = {}
    for row in rows:
        mult = lcm(*(v.denominator for v in row.values()))
        intified = {c: v.numerator * (mult // v.denominator) for c, v in row.items() if v}
        if intified:
            echelon_insert(pivots, _gcd_reduce(intified))
    return pivots


def _to_sympy_entry(terms, x):
    """{exponent: Fraction} -> sympy expression."""
    total = sp.Integer(0)
    for e, c in terms.items():
        frac = Fraction(c)
        total += sp.Rational(frac.numerator, frac.denominator) * x**e
    return total


def h0_dimension_oracle(entries, k, bound):
    """Brute-force dim of sections of E(k) with s1 degree <= bound in 1/x.

    entries: nested list of {exponent: coefficient} maps for the
    transition matrix.  Solves 'all negative-exponent coefficients of
    x^k * A * s1(1/x) vanish' as a symbolic linear system.
    """
    n = len(entries)
    x = sp.Symbol("x")
    unknowns = [
        sp.Symbol(f"c_{j}_{b}") for j in range(n) for b in range(bound + 1)
    ]
    s1 = [
        sum(
            sp.Symbol(f"c_{j}_{b}") * x**(-b) for b in range(bound + 1)
        )
        for j in range(n)
    ]
    equations = []
    lowest = min((min(t) for row in entries for t in row if t), default=0)
    for i in range(n):
        expr = sp.expand(
            x**k * sum(_to_sympy_entry(entries[i][j], x) * s1[j] for j in range(n))
        )
        for e in range(k + lowest - bound, 0):
            coeff = expr.coeff(x, e)
            if coeff != 0:
                equations.append(coeff)
    if not equations:
        return len(unknowns)
    mat, _ = sp.linear_eq_to_matrix(equations, unknowns)
    return len(unknowns) - mat.rank()


def splitting_oracle(entries, det_exponent, bound_pad=4):
    """Index multiset from the h0 scan, all sympy.

    Scans twists over the entry exponent range (padded), reads the
    multiplicity of index v from the increments of the section counts,
    and checks the counts add up; returns the descending tuple.
    """
    n = len(entries)
    exps = [e for row in entries for t in row for e in t]
    lo, hi = min(exps), max(exps)
    kmin, kmax = -hi - 1, -lo + 1
    bound = n * (max(0, -lo) + max(0, hi)) + max(abs(kmin), abs(kmax)) + n + bound_pad
    h = {
        k: h0_dimension_oracle(entries, k, bound) for k in range(kmin - 1, kmax + 1)
    }
    delta = {k: h[k] - h[k - 1] for k in range(kmin, kmax + 1)}
    indices = []
    for v in range(-kmin - 1, -kmax - 1, -1):
        mult = delta[-v] - delta[-v - 1]
        assert mult >= 0
        indices.extend([v] * mult)
    assert len(indices) == n, (indices, h)
    assert sum(indices) == det_exponent
    return tuple(indices)


def adjugate_degree_bound(e, k, extra):
    """Most 1/x-degree of s1 in a section of E(k), plus ``extra``.

    With det A = c*x^t, s0 = x^k*A*s1 gives s1 = c^-1*x^(-k-t)*adj(A)*s0.
    Every adjugate entry is a sum of products of n - 1 entries of A, so
    its exponents are at least (n - 1)*lo, lo the lowest entry exponent;
    s0 has no negative exponent.  So s1 has 1/x-degree at most
    k + t - (n - 1)*lo.
    """
    lo = e.transition.exponent_range()[0]
    return max(0, k + e.det_exponent - (e.rank - 1) * lo) + extra


def raw_entries(matrix):
    """bgsplit LaurentMatrix -> plain nested {exponent: Fraction} data."""
    return [
        [dict(matrix[i, j].terms) for j in range(matrix.n)] for i in range(matrix.n)
    ]


def invariant_coordinate_subspace_bruteforce(matrices, n):
    """Smallest coordinate-aligned invariant subspace, or None.

    matrices: nested lists of Fractions.  Independent of the library.
    """
    from itertools import combinations

    for size in range(1, n):
        for subset in combinations(range(n), size):
            inside = set(subset)
            good = True
            for m in matrices:
                for j in subset:
                    for i in range(n):
                        if i not in inside and m[i][j] != 0:
                            good = False
            if good:
                return subset
    return None


def _sympy_matrix(rows):
    return sp.Matrix([
        [sp.Rational(Fraction(v).numerator, Fraction(v).denominator) for v in row]
        for row in rows
    ])


def word_span_dimension_oracle(matrices):
    """Dimension of the unital algebra the matrices generate, all sympy.

    Breadth-first closure of {I} under right multiplication by the
    generators: a word is kept, and extended, when it raises the rank of
    the flattened words kept so far.  matrices: nested lists of
    Fractions, at least one, all n x n.
    """
    from sympy.polys.matrices import DomainMatrix

    gens = [DomainMatrix.from_Matrix(_sympy_matrix(m)).convert_to(sp.QQ) for m in matrices]
    n = gens[0].shape[0]
    kept = []
    frontier = [DomainMatrix.eye(n, sp.QQ)]
    while frontier:
        word = frontier.pop(0)
        flat = DomainMatrix([sum(word.to_list(), [])], (1, n * n), sp.QQ)
        if DomainMatrix.vstack(*kept, flat).rank() > len(kept):
            kept.append(flat)
            frontier.extend(word * g for g in gens)
    return len(kept)


# -- Kronecker packing by bytes ------------------------------------------


def _bias(count, width):
    """The integer whose ``count`` base-2^(8*width) digits all equal
    2^(8*width - 1); adding it makes balanced digits nonnegative."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * count, "little")


def byte_pack(coeffs, width):
    """P(2^(8*width)) for the Z[x] coefficient list of P."""
    half = 1 << (8 * width - 1)
    raw = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _bias(len(coeffs), width)


# -- modular word-span reference: list rows over F_p ---------------------


def echelon_insert_mod(pivots, row, p):
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


def word_span_mod_reference(rep, prime, words):
    """Dimension over F_p of the unital algebra the integer-scaled
    generators of ``rep`` generate, by the breadth-first closure of {I}
    under right multiplication; the accepted words, one per dimension, are
    appended to ``words``."""
    n = rep.size
    pivots = {}
    frontier = deque()

    def reduced(mat):
        return tuple(tuple(v % prime for v in row) for row in mat)

    def visit(word, mat):
        if echelon_insert_mod(pivots, [v for r in mat for v in r], prime) is not None:
            frontier.append((word, mat))
            words.append(word)

    gens = [reduced(integer_scaled(m)[1]) for m in rep.matrices]
    visit((), tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    while frontier and len(pivots) < n * n:
        word, mat = frontier.popleft()
        for i, gen in enumerate(gens):
            visit((i,) + word, reduced(mat_mul(mat, gen)))
    return len(pivots)


def charpoly_oracle(matrix):
    """Coefficients of det(lambda*I - A), highest power first, as Fractions."""
    poly = _sympy_matrix(matrix).charpoly(sp.Symbol("lam"))
    return [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]


def faddeev_leverrier(matrix):
    """Coefficients of det(lambda*I - A), highest power first, as Fractions,
    by the Faddeev-LeVerrier recurrence: the loop ``linalg.charpoly`` ran
    before it became a Laurent determinant, kept as its reference.

    It runs on the integer matrix N = d*A (d the lcm of A's denominators),
    whose iterates M_k = N*M_(k-1) + c_(k-1)*I and coefficients
    c_k = -tr(N*M_(k-1))/k are integers; lambda^(n-k) has c_k / d^k.
    """
    n = len(matrix)
    d = lcm(*(Fraction(v).denominator for row in matrix for v in row))
    scaled = [[int(Fraction(v) * d) for v in row] for row in matrix]
    coeffs = [Fraction(1)]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [[sum(scaled[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        assert not rem, "Faddeev-LeVerrier trace not divisible on an integer matrix"
        coeffs.append(Fraction(c, d**k))
        for i in range(n):
            m[i][i] += c
    return coeffs


def sylvester_resultant(p: LaurentPoly, q: LaurentPoly) -> Fraction:
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
    rows = [[f.coeff(d - (j - i)) if 0 <= j - i <= d else Fraction(0) for j in range(size)]
            for f, d, count in ((p, m, n), (q, n, m)) for i in range(count)]
    return det_q(rows)


def root_multiplicity_by_division(p, point):
    """Multiplicity of (x - point) in the nonzero polynomial p."""
    if point == 0:
        return p.ord()
    factor = LaurentPoly({1: 1, 0: -_coerce(point)})
    mult = 0
    while p.evaluate(point) == 0:
        p = p // factor
        mult += 1
    return mult


def expression_oracle(tree):
    """Cancelled fraction of an entry-expression tree, all sympy.

    tree: nested tuples ``("x",)``, ``("z",)`` (the same variable),
    ``("int", n)``, ``("neg", t)``, ``("pos", t)``, ``("paren", t)``,
    ``(op, a, b)`` for op in ``+ - * /`` and ``("^", t, e)`` with an
    integer e.  Every subtree is evaluated, so any zero divisor or zero
    base under a negative exponent raises ZeroDivisionError.  Returns
    (num, den) as {exponent: Fraction} maps with den monic.
    """
    x = sp.Symbol("x")

    def value(node):
        kind = node[0]
        if kind in ("x", "z"):
            return x
        if kind == "int":
            return sp.Integer(node[1])
        if kind == "neg":
            return -value(node[1])
        if kind in ("pos", "paren"):
            return value(node[1])
        if kind == "^":
            base = sp.cancel(value(node[1]))
            if node[2] < 0 and base == 0:
                raise ZeroDivisionError("zero base under a negative exponent")
            return base ** node[2]
        a, b = value(node[1]), value(node[2])
        if kind == "+":
            return a + b
        if kind == "-":
            return a - b
        if kind == "*":
            return a * b
        if sp.cancel(b) == 0:
            raise ZeroDivisionError("zero divisor")
        return a / b

    num, den = sp.fraction(sp.cancel(value(tree)))
    lead = sp.Poly(den, x).LC()

    def terms(p):
        out = {}
        for (e,), c in sp.Poly(p / lead, x).terms():
            if c != 0:
                out[e] = Fraction(int(c.p), int(c.q))
        return out

    return terms(num), terms(den)


def _qqx_matrix(entries, shift):
    """DomainMatrix over QQ[x] of x^shift times a matrix of
    {exponent: Fraction} maps (any rectangular shape)."""
    from sympy.polys.matrices import DomainMatrix

    dom = sp.QQ[sp.Symbol("x")]
    rows = [[dom.ring.from_dict({(e + shift,): sp.QQ(Fraction(c).numerator, Fraction(c).denominator)
                            for e, c in t.items()}) for t in row] for row in entries]
    return DomainMatrix(rows, (len(rows), len(rows[0])), dom)


def _lowest(entries):
    return min((e for row in entries for t in row for e in t), default=0)


def _laurent_terms(element, shift):
    """{exponent + shift: Fraction} of a QQ[x] domain element."""
    return {e + shift: Fraction(int(c.numerator), int(c.denominator))
            for (e,), c in element.terms() if c}


def laurent_det_oracle(entries):
    """Determinant of a square matrix of {exponent: Fraction} maps, all
    sympy: det over QQ[x] of the matrix shifted into Q[x], shifted back."""
    shift = -_lowest(entries)
    return _laurent_terms(_qqx_matrix(entries, shift).det(), -len(entries) * shift)


def laurent_product_oracle(left, right):
    """left @ right for matrices of {exponent: Fraction} maps, all sympy;
    right may have any number of columns."""
    sl, sr = -_lowest(left), -_lowest(right)
    product = _qqx_matrix(left, sl) * _qqx_matrix(right, sr)
    return [[_laurent_terms(v, -sl - sr) for v in row] for row in product.to_list()]


def rf_mat_mul(a, b):
    """A B over the rational-function field as one Z[x] product: with the
    rows of A and the columns of B over their denominator lcms,
    A_i. = P_i / L_i and B_.j = Q_j / K_j, (A B)_ij = (P_i . Q_j) / (L_i K_j),
    reduced once per entry."""
    n = len(a)
    if len(b) != n:
        raise DimensionMismatch("matrix dimension mismatch")
    if not n:
        return ()
    row_lcms, rows = _over_denominator_lcms(a)
    col_lcms, cols = _over_denominator_lcms(tuple(zip(*b)))
    return tuple(
        tuple(RatFunc(v, m * q) for v, q in zip(line, col_lcms))
        for line, m in zip(_product(rows, cols), row_lcms)
    )


def _kronecker_step(r, k):
    """The n^2 x n^2 matrix of S -> k S + S R - R S on row-major S."""
    n = len(r)
    mat = [[Fraction(0)] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            eq = i * n + j
            mat[eq][eq] += k
            for q in range(n):
                mat[eq][i * n + q] += r[q][j]      # (S R) term
            for p in range(n):
                mat[eq][p * n + j] -= r[i][p]      # (R S) term
    return mat


def _tail_convolution(tail, series, k):
    """sum_(m=0)^(k-1) tail[m] * S_(k-1-m), missing terms being zero."""
    n = len(series[0])
    total = [[Fraction(0)] * n for _ in range(n)]
    for m in range(min(k, len(tail))):
        idx = k - 1 - m
        if idx >= len(series):
            continue
        for i in range(n):
            for j in range(n):
                total[i][j] += sum(tail[m][i][q] * series[idx][q][j] for q in range(n))
    return total


def frobenius_oracle(r, tail, order):
    """S_0..S_order of W = S(z) z^R for w' = (R/z + sum_m tail[m] z^m) w,
    each order solved as the dense n^2 x n^2 Kronecker system
    k S + S R - R S = sum_m tail[m] S_(k-1-m) over sympy's QQ.

    An order whose system is singular is resonant: raises ValueError with
    the message of ``ResonantExponents`` for the smallest such k, before
    any order is solved.  r and tail: nested lists of Fractions."""
    from sympy.polys.matrices import DomainMatrix

    n = len(r)

    def qq(rows):
        return DomainMatrix([[sp.QQ(v.numerator, v.denominator) for v in row] for row in rows],
                            (len(rows), len(rows[0])), sp.QQ)

    steps = [qq(_kronecker_step(r, k)) for k in range(1, order + 1)]
    for k, step in enumerate(steps, start=1):
        if step.det() == 0:
            raise ValueError(f"two exponents differ by the positive integer {k}")
    series = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
    for k, step in enumerate(steps, start=1):
        rhs = _tail_convolution(tail, series, k)
        sol = step.lu_solve(qq([[v] for row in rhs for v in row])).to_list()
        flat = [Fraction(int(v[0].numerator), int(v[0].denominator)) for v in sol]
        series.append([flat[i * n:(i + 1) * n] for i in range(n)])
    return series


def residual_oracle(r, tail, series):
    """Order through which W' - A W vanishes formally for the series
    S_0..S_N, in Fraction sums: the first k in 1..N whose coefficient
    k S_k + S_k R - R S_k - sum_m tail[m] S_(k-1-m) is nonzero gives k - 1,
    a nonzero coefficient past N (S_k = 0 there) gives N, and none gives
    the sentinel N + 1."""
    n = len(r)
    cap = len(series) - 1
    zero = [[Fraction(0)] * n for _ in range(n)]

    def nonzero(k):
        s_k = series[k] if k <= cap else zero
        conv = _tail_convolution(tail, series, k)
        return any(
            k * s_k[i][j]
            + sum(s_k[i][q] * r[q][j] for q in range(n))
            - sum(r[i][p] * s_k[p][j] for p in range(n))
            - conv[i][j]
            for i in range(n) for j in range(n)
        )

    for k in range(1, cap + 1):
        if nonzero(k):
            return k - 1
    for k in range(cap + 1, cap + len(tail) + 2):
        if nonzero(k):
            return cap
    return cap + 1


# -- order-basis reference: Fraction column updates -----------------------


def factor_to_diagonal_reference(a, t):
    """(B, exponents, C) with B*A*C diagonal, for A = ``a`` with det
    c*x^t: ``orderbasis.factor_to_diagonal`` as it was with Fraction
    column updates and the stop read from t (sum(mu) = n*sigma - tau),
    verbatim."""
    n = a.n
    lo, hi = a.exponent_range()
    m = -lo
    tau = t + n * m
    cols = [
        [LaurentPoly.one() if i == j else LaurentPoly.zero() for i in range(n)]
        + [a[i, j].shift(m) for i in range(n)]
        for j in range(n)
    ]
    mu = [0] * n
    cap = 8 * (n * (hi - lo + 1) + abs(tau) + 8)
    sigma = 0
    while True:
        pivots = []
        for j in sorted(range(n), key=lambda jj: (mu[jj], jj)):
            for row, pcol in pivots:
                v = cols[j][row].coeff(sigma)
                if v:
                    alpha = v / cols[pcol][row].coeff(sigma)
                    cols[j] = [pt - ps.scale(alpha) for pt, ps in zip(cols[j], cols[pcol])]
            row = next((i for i in range(n, 2 * n) if cols[j][i].coeff(sigma)), None)
            if row is not None:
                pivots.append((row, j))
        for _, j in pivots:
            cols[j] = [p.shift(1) for p in cols[j]]
            mu[j] += 1
        sigma += 1
        if sum(mu) == n * sigma - tau:
            break
        if sigma >= cap:
            raise InternalSearchExhausted(
                f"order-basis iteration did not converge within {cap} orders"
            )
    order = sorted(range(n), key=lambda j: (mu[j], j))
    g = LaurentMatrix([[cols[j][n + i] for j in order] for i in range(n)]).shift(-sigma)
    c = LaurentMatrix([[cols[j][i].shift(-mu[j]) for j in order] for i in range(n)])
    return g.inverse(), tuple(sigma - m - mu[j] for j in order), c


# -- scalar Fuchsian charts: limits and the chain rule in sympy ----------

_Z, _T, _RHO = sp.symbols("z t rho")


@lru_cache(maxsize=None)
def _chain_rule(m):
    """[g_0, ..., g_m] with (d/dz)^m W(1/z) = sum_i g_i(t) W^(i)(t), t = 1/z,
    from sympy's own differentiation of the composite."""
    w = sp.Function("W")
    d = sp.expand(sp.diff(w(1 / _Z), _Z, m).subs(_Z, 1 / _T).doit())
    return [d.coeff(w(_T)) if i == 0 else d.coeff(sp.Derivative(w(_T), (_T, i)))
            for i in range(m + 1)]


def _local_coefficients(coeffs, point):
    """[a_(n-1), ..., a_0] as functions of the local coordinate t at the point
    (None for infinity); coeffs are ({exp: Fraction}, {exp: Fraction})
    numerator/denominator pairs in z."""
    n = len(coeffs)
    a = [_to_sympy_entry(num, _Z) / _to_sympy_entry(den, _Z) for num, den in coeffs]
    if point is not None:
        return [sp.cancel(f.subs(_Z, sp.Rational(point.numerator, point.denominator) + _T))
                for f in a]
    on_t = [sp.Integer(1)] + [f.subs(_Z, 1 / _T) for f in a]  # index k: a_(n-k)(1/t)
    total = [sum(on_t[k] * _chain_rule(n - k)[i] for k in range(n - i + 1)) for i in range(n + 1)]
    return [sp.cancel(total[n - k] / total[n]) for k in range(1, n + 1)]


def _pole_at_zero(f):
    if f == 0:
        return 0
    num, den = sp.fraction(sp.cancel(f))
    low = [min(sp.Poly(p, _T).monoms())[0] for p in (num, den)]
    return max(0, low[1] - low[0])


def scalar_chart_oracle(coeffs, point):
    """(kind, rank, indicial) of w^(n) + a_(n-1) w^(n-1) + ... + a_0 w = 0 at
    the point (a Fraction, or None for infinity).  indicial is the
    indicial polynomial's coefficients, lowest first, and the exponent sum;
    at an irregular point it is the class name and message of the error
    the package raises."""
    n = len(coeffs)
    local = _local_coefficients(coeffs, point)
    poles = [_pole_at_zero(f) for f in local]
    rank = max(0, *(pole - k for k, pole in enumerate(poles, start=1)))
    kind = "ordinary" if not any(poles) else "first_kind" if rank == 0 else "second_kind"
    if kind == "second_kind":
        where = "oo" if point is None else point
        return kind, rank, ("NotFirstKind", f"irregular singularity at {where} (rank {rank})")
    b = [sp.limit(_T**k * f, _T, 0) for k, f in enumerate(local, start=1)]
    poly = sp.ff(_RHO, n) + sum(b[k - 1] * sp.ff(_RHO, n - k) for k in range(1, n + 1))
    coeffs_low = [Fraction(int(c.p), int(c.q)) for c in reversed(sp.Poly(poly, _RHO).all_coeffs())]
    return kind, rank, (coeffs_low, -coeffs_low[n - 1])


def fuchs_relation_oracle(coeffs):
    """(holds, lhs, rhs, number of singular points, infinity singular) of
    the Fuchs relation, summing exponent sums point by point over the roots
    of the denominators and infinity; ("NotFuchsian", the package's
    message) on an irregular point."""
    n = len(coeffs)
    dens = [sp.fraction(sp.cancel(_to_sympy_entry(num, _Z) / _to_sympy_entry(den, _Z)))[1]
            for num, den in coeffs]
    points = sorted({Fraction(int(r.p), int(r.q)) for d in dens for r in sp.roots(sp.Poly(d, _Z))})
    local = {p: _local_coefficients(coeffs, p) for p in points}
    for k in range(1, n + 1):
        if any(_pole_at_zero(local[p][k - 1]) > k for p in points):
            return "NotFuchsian", f"coefficient of derivative order {n - k} has a pole of order > {k}"
    kind, rank, at_inf = scalar_chart_oracle(coeffs, None)
    if kind == "second_kind":
        return "NotFuchsian", f"irregular singularity at infinity (rank {rank})"
    singular = [scalar_chart_oracle(coeffs, p)[2][1] for p in points]
    if kind == "first_kind":
        singular.append(at_inf[1])
    lhs, rhs = sum(singular, Fraction(0)), Fraction(n * (n - 1), 2) * (len(singular) - 2)
    return lhs == rhs, lhs, rhs, len(singular), kind != "ordinary"
