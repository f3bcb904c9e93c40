"""Square matrices over the Laurent polynomial ring Q[x, x^-1].

These are the transition-matrix data for vector bundles on the sphere
and the B/C factors of their diagonal factorizations.  A matrix is
invertible over the ring exactly when its determinant is a monomial
c*x^t.

``det``, ``inverse``, ``__matmul__``, ``apply`` and the gauge
transform of rational-function matrices in ``fuchsian`` share one
exact kernel over Z[x]; the
characteristic polynomial ``linalg.charpoly`` needs none of it, since
its recurrence (Berkowitz's) is division-free and runs on plain
integers.  An operand is converted once: shifted by x^-lo (lo its
lowest exponent), written in y = x^g (g the gcd of the shifted
exponents) and scaled per row, or per column for a right factor, by the
lcm of the denominators.  Each integer polynomial entry P is packed into
the integer P(2^w) (Kronecker substitution, a ring homomorphism
Z[y] -> Z, Z-linear on any integers: ``_pack``, the package's one
packer), so fraction-free Bareiss and Gauss-Jordan elimination
(``eliminate``, which ``linalg.det_q`` runs on plain integers too) and
products run on plain integers; their exact divisions by the previous
pivot are the exact polynomial divisions over Z[y].  Every value read
back is a minor of the (augmented) operand or an entry of a product,
with coefficients bounded by a product of coefficient 1-norms; w
exceeds that bound, so the balanced base-2^w digits of the value are
the polynomial's coefficients, and the result is exact.  When rank
times span in y is large (a few far-apart exponents), packing would
cost the span rather than the terms, so the same elimination and sums
run on the sparse LaurentPoly entries, with exact Laurent division.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from struct import unpack_from
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DimensionMismatch, NotInvertibleOverLaurentRing
from .laurent import LaurentPoly, Scalar, _trusted, exponent_range

Entry = Union[LaurentPoly, int, Fraction]


def _coerce_entry(value: Entry) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.constant(value)
    raise TypeError(f"Laurent entry expected, got {type(value).__name__}")


class LaurentMatrix:
    """Immutable square matrix of LaurentPoly entries."""

    __slots__ = ("n", "entries", "_range")

    def __init__(self, rows: Sequence[Sequence[Entry]]):
        entries = tuple(tuple(_coerce_entry(v) for v in row) for row in rows)
        n = len(entries)
        if n < 1:
            raise DimensionMismatch("matrix dimension must be at least 1")
        if any(len(row) != n for row in entries):
            raise DimensionMismatch("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_range", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        return LaurentMatrix.diagonal([1] * n)

    @staticmethod
    def diagonal(values: Sequence[Entry]) -> "LaurentMatrix":
        n = len(values)
        return LaurentMatrix(
            [[_coerce_entry(values[i]) if i == j else LaurentPoly.zero()
              for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def diagonal_powers(exponents: Sequence[int]) -> "LaurentMatrix":
        """diag(x^e1, ..., x^en)."""
        return LaurentMatrix.diagonal([LaurentPoly.x_power(e) for e in exponents])

    # -- structure -----------------------------------------------------

    def __getitem__(self, ij: Tuple[int, int]) -> LaurentPoly:
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> Tuple[LaurentPoly, ...]:
        return tuple(self.entries[i][j] for i in range(self.n))

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(tuple(zip(*self.entries)))

    def map_entries(self, fn: Callable[[LaurentPoly], LaurentPoly]) -> "LaurentMatrix":
        return LaurentMatrix([[fn(v) for v in row] for row in self.entries])

    def shift(self, k: int) -> "LaurentMatrix":
        """Multiply every entry by x^k."""
        return self.map_entries(lambda p: p.shift(k))

    def is_identity(self) -> bool:
        return self == LaurentMatrix.identity(self.n)

    def is_polynomial(self) -> bool:
        """All entries in Q[x] (no negative exponents)."""
        return all(v.is_polynomial() for row in self.entries for v in row)

    def is_antipolynomial(self) -> bool:
        """All entries in Q[x^-1] (no positive exponents)."""
        return all(v.is_antipolynomial() for row in self.entries for v in row)

    def exponent_range(self) -> Tuple[int, int]:
        """(min, max) exponent over all nonzero entries, found on the first
        call and kept."""
        if self._range is None:
            object.__setattr__(self, "_range",
                               exponent_range(v for row in self.entries for v in row))
        return self._range

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_shape(other)
        return LaurentMatrix(_product(self.entries, tuple(zip(*other.entries))))

    def apply(self, vector: Sequence[Entry]) -> Tuple[LaurentPoly, ...]:
        if len(vector) != self.n:
            raise DimensionMismatch("vector length mismatch")
        vec = tuple(_coerce_entry(v) for v in vector)
        return tuple(row[0] for row in _product(self.entries, (vec,)))

    def _check_shape(self, other: "LaurentMatrix") -> None:
        if not isinstance(other, LaurentMatrix) or other.n != self.n:
            raise DimensionMismatch("matrix dimension mismatch")

    # -- determinant, units, inverse ------------------------------------

    def det(self) -> LaurentPoly:
        """Exact determinant (fraction-free Bareiss elimination)."""
        f = _form((self.entries,), _minor_bound)
        sign, pivot = eliminate(f.rows[0], self.n, jordan=False)
        return _laurent(f.decode(pivot), f.g, self.n * f.lows[0], sign, prod(f.scales[0]))

    def unit_det(self) -> Optional[Tuple[Fraction, int]]:
        """(c, t) with det = c*x^t when the determinant is a unit, else None."""
        return self.det().as_monomial()

    def inverse(self) -> "LaurentMatrix":
        """Inverse over the Laurent ring, by fraction-free Gauss-Jordan.

        Raises NotInvertibleOverLaurentRing unless A^-1 = S/q has a
        monomial q = x^t, which is exactly when det A is a unit.
        """
        s, q = _gauss_jordan(self.entries)
        unit = q.as_monomial()
        if unit is None:
            raise NotInvertibleOverLaurentRing(
                "determinant is not a unit c*x^t of Q[x, x^-1]"
            )
        return LaurentMatrix([[v.shift(-unit[1]) for v in row] for row in s])

    # -- comparison and display ---------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.entries
        )

    def __repr__(self) -> str:
        return f"LaurentMatrix({self.n}x{self.n})"


# -- the Z[x] kernel ------------------------------------------------------

# A packed minor has about rank * span digits however few terms it has,
# so beyond this rank times span (in y = x^g) the kernel runs the same
# loops on the sparse entries instead.
_PACKED_SPAN = 1 << 12


class _Form(NamedTuple):
    """Operands converted once for the kernel.

    ``rows[k]`` holds operand k's rows (or columns) as kernel elements:
    entry v of row i stands for x^lows[k] * P(x^g) / scales[k][i], with
    P read back by ``decode(v)`` as (exponent, coefficient) pairs.
    ``one`` is the kernel's identity element.
    """

    lows: List[int]
    g: int
    scales: List[List[int]]
    rows: List[List[list]]
    one: object
    decode: Callable[[object], Iterable[Tuple[int, Scalar]]]


def _form(operands, width_bound: Callable[[list], int]) -> _Form:
    """Convert operands (sequences of rows of LaurentPoly) for the kernel.

    Each operand is shifted by x^-lo (lo its lowest exponent) and written
    in y = x^g, g the gcd of the shifted exponents of all operands.  If
    rank times the span in y is at most _PACKED_SPAN, every row is scaled
    by its denominator lcm and each Z[y] entry is packed into one integer,
    with digits wide enough for any coefficient of absolute value up to
    ``width_bound`` of the integer operands; otherwise the entries stay
    sparse LaurentPoly values.
    """
    exps = [{e for row in op for p in row for e in p._terms} for op in operands]
    lows = [min(es, default=0) for es in exps]
    g = gcd(*(e - lo for es, lo in zip(exps, lows) for e in es)) or 1
    span = max((max(es, default=lo) - lo) // g for es, lo in zip(exps, lows))
    if max(map(len, operands)) * span > _PACKED_SPAN:
        return _Form([0] * len(operands), 1, [[1] * len(op) for op in operands],
                     [[list(row) for row in op] for op in operands],
                     LaurentPoly.one(), lambda v: v._terms.items())
    converted = [_integer_rows(op, lo, g) for op, lo in zip(operands, lows)]
    ints = [rows for _, rows in converted]
    width = _digit_bytes(width_bound(ints))
    return _Form(lows, g, [scales for scales, _ in converted],
                 [[[_pack(p, width) for p in row] for row in rows] for rows in ints],
                 1, lambda v: enumerate(_unpack(v, width)))


def _integer_rows(rows, lo: int, g: int) -> Tuple[List[int], List[List[List[int]]]]:
    """(scales, out) with out[i][j] the Z[y] coefficient list (index =
    exponent in y = x^g) of scales[i] * x^-lo * rows[i][j]; scales[i] is
    the lcm of row i's denominators."""
    scales, out = [], []
    for row in rows:
        terms = [p._terms for p in row]
        scale = lcm(*(c.denominator for t in terms for c in t.values()))
        dense = []
        for t in terms:
            coeffs = [0] * ((max(t, default=lo - g) - lo) // g + 1)
            for e, c in t.items():
                coeffs[(e - lo) // g] = c.numerator * (scale // c.denominator)
            dense.append(coeffs)
        scales.append(scale)
        out.append(dense)
    return scales, out


def _norm(row: Sequence[Sequence[int]]) -> int:
    """Sum of the coefficient 1-norms of a row (or column) of Z[x] entries."""
    return sum(abs(c) for p in row for c in p)


def _minor_bound(ints) -> int:
    """Every entry of N and every minor of [N | I] has coefficients of
    absolute value at most prod_i (1 + |row i of N|_1): expanded over
    permutations, a minor on rows I has 1-norm at most the product over I
    of its rows' 1-norms, and a row of [N | I] has 1-norm at most 1 + that
    of N's row."""
    return prod(1 + _norm(row) for row in ints[0])


def _product_bound(ints) -> int:
    """|coefficient of sum_k a_ik*b_kj| <= |row i|_1 * |column j|_1; the
    1 + keeps every input coefficient a digit when a factor is zero."""
    rows, cols = ints
    return (1 + max(map(_norm, rows))) * (1 + max(map(_norm, cols)))


def _digit_bytes(bound: int) -> int:
    """Bytes per packed digit so that every coefficient of absolute value at
    most ``bound`` is a balanced digit: |c| < 2^(8*bytes - 1)."""
    return bound.bit_length() // 8 + 1


_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes of unsigned digits by byte width


def _pack(values: Sequence[int], width: int) -> int:
    """sum_j values[j] * X^j at X = 2^(8*width) for any integers, a Z-linear
    map: P(X) for the Z[x] coefficient list of P.  Horner's scheme on up to
    16 values; a longer list joins its packed halves with one shift."""
    count = len(values)
    if count > 16:
        half = count // 2
        return (_pack(values[half:], width) << 8 * width * half) + _pack(values[:half], width)
    bits, out = 8 * width, 0
    for v in reversed(values):
        out = (out << bits) + v
    return out


def _unpack(value: int, width: int) -> List[int]:
    """Inverse of ``_pack`` on balanced digits: the balanced base-2^(8*width)
    digits of value, lowest first (possibly with trailing zeros), read as
    bytes after adding the bias whose digits all equal 2^(8*width - 1);
    digits of 1, 2, 4 or 8 bytes are read by one ``struct`` call."""
    if not value:
        return []
    count = value.bit_length() // (8 * width) + 2
    bias = int.from_bytes((b"\0" * (width - 1) + b"\x80") * count, "little")
    raw = (value + bias).to_bytes(width * count, "little")
    half = 1 << (8 * width - 1)
    if width in _WORDS:
        return [v - half for v in unpack_from(f"<{count}{_WORDS[width]}", raw)]
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, len(raw), width)]


def _shift(value: int, digits: int, width: int) -> int:
    """value * X^digits at X = 2^(8*width): the digits moved up by
    ``digits`` places, so a packed run placed ``digits`` columns later."""
    return value << 8 * width * digits


def _digit_mask(width: int) -> int:
    """2^(8*width) - 1: value & mask is the lowest digit of a packed value
    modulo X = 2^(8*width), its balanced digit less X when its top bit is
    set."""
    return (1 << 8 * width) - 1


def _laurent(pairs: Iterable[Tuple[int, Scalar]], g: int, shift: int,
             num: Scalar, den: Scalar) -> LaurentPoly:
    """x^shift * (num/den) * P(x^g) for the (exponent, coefficient) pairs of
    P.  The exponents are ints and g and num are nonzero, so the terms are
    distinct and nonzero."""
    return _trusted({g * k + shift: Fraction(c * num, den) for k, c in pairs if c})


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


def _gauss_jordan(rows) -> Tuple[List[List[LaurentPoly]], LaurentPoly]:
    """(S, q) with A^-1 = S/q for the square matrix A with these LaurentPoly
    rows: q monic (0 when A is singular), and S polynomial when A is.

    Fraction-free Gauss-Jordan of [M | I], M the kernel form of A, ends at
    [p*I | R] with p = +-det M, so M^-1 = R/p.  A = x^lo * D^-1 * M(x^g),
    so A^-1 = x^-lo * R(x^g) * D / p(x^g): S = R(x^g) * D / c and
    q = x^lo * p(x^g) / c, c the leading coefficient of p.
    """
    n = len(rows)
    f = _form((rows,), _minor_bound)
    m = f.rows[0]
    for i, row in enumerate(m):
        row.extend(f.one * int(i == j) for j in range(n))
    _, p = eliminate(m, n, jordan=True)
    pairs = [(k, a) for k, a in f.decode(p) if a]
    c = max(pairs)[1] if pairs else 1
    s = [[_laurent(f.decode(v), f.g, 0, d, c) for v, d in zip(row[n:], f.scales[0])]
         for row in m]
    return s, _laurent(pairs, f.g, f.lows[0], 1, c)


def _product(left, right_cols) -> List[List[LaurentPoly]]:
    """left @ right as rows of LaurentPoly, from the rows of the left
    factor and the columns of the right one."""
    f = _form((left, right_cols), _product_bound)
    (lo_a, lo_b), (da, db), (ra, cb) = f.lows, f.scales, f.rows
    return [
        [_laurent(f.decode(sum(map(mul, row, col))), f.g, lo_a + lo_b, 1, di * dj)
         for col, dj in zip(cb, db)]
        for row, di in zip(ra, da)
    ]
