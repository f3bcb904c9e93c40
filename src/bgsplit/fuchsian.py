"""Exact singularity analysis of linear ODEs and systems on the sphere.

Scalar equations w^(n) + a_(n-1) w^(n-1) + ... + a_0 w = 0 carry
rational-function coefficients; first-order systems are either given by
a rational matrix A(z) (w' = A w) or, in residue form, by marked points
p with rational residue matrices R_p (w' = sum R_p/(z - p) w), the
residue at infinity being -sum R_p.

All charts are handled by exact substitutions: a finite point p moves to
the origin by z -> z + p, and infinity by z = 1/t, under which d/dz
becomes -t^2 d/dt.  Scalar charts keep each coefficient as an unreduced
numerator/denominator pair, the chart at infinity in closed form, so no
gcd runs there.  Exponents are reported through characteristic or
indicial polynomials (with rational roots factored out when present)
rather than through algebraic numbers, so every check stays in Q.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from math import comb, factorial, gcd, lcm
from typing import Iterable, List, Sequence, Tuple

from .errors import (
    BGSplitError,
    DimensionMismatch,
    NotFirstKind,
    NotFuchsian,
    NotInvertible,
    ResonantExponents,
    WorkBudgetExceeded,
    decimal,
)
from .laurent import LaurentPoly
from .linalg import (
    IntMatrix,
    Matrix,
    charpoly,
    identity_q,
    integer_scaled,
    mat_mul,
    qmat,
    rational_roots,
    resultant,
    solve,
    trace,
)
from .lmatrix import _digit_bytes, _gauss_jordan, _pack, _product, _unpack
from .ratfunc import (
    INF,
    Infinity,
    Point,
    RatFunc,
    poly_divmod,
    poly_lcm,
    poly_radical,
    poly_shift,
)

# Most coefficients (order + 1)*n^2 of a Frobenius series; past it a series is
# refused before any work.  It counts coefficients, not their size: each order
# is one n x n solve whose entries grow with the order, so a 2 x 2 series to
# order 1,000 takes under a second on demos/data/local_system.txt, but seconds
# when the residue and the tail have several coprime denominators.
FROBENIUS_BUDGET = 1 << 12

ORDINARY = "ordinary"
FIRST_KIND = "first_kind"
SECOND_KIND = "second_kind"


def _as_ratfunc(value) -> RatFunc:
    out = RatFunc._lift(value)
    if out is NotImplemented:
        raise TypeError(f"rational function expected, got {type(value).__name__}")
    return out


RFMatrix = Tuple[Tuple[RatFunc, ...], ...]


def rfmat(rows: Sequence[Sequence]) -> RFMatrix:
    out = tuple(tuple(_as_ratfunc(v) for v in row) for row in rows)
    if any(len(r) != len(out) for r in out):
        raise DimensionMismatch("square rational-function matrix expected")
    return out


# -- domain types --------------------------------------------------------


@dataclass(frozen=True)
class ScalarODE:
    """w^(n) + coeffs[0] w^(n-1) + ... + coeffs[n-1] w = 0 (monic)."""

    order: int
    coeffs: Tuple[RatFunc, ...]  # a_(n-1), ..., a_0


def scalar_ode(coeffs: Sequence) -> ScalarODE:
    """The monic equation with coefficients a_(n-1), ..., a_0, at least one."""
    cs = tuple(_as_ratfunc(c) for c in coeffs)
    if not cs:
        raise ValueError("an equation needs order at least 1")
    return ScalarODE(order=len(cs), coeffs=cs)


@dataclass(frozen=True)
class FuchsianSystem:
    """w' = sum_p R_p / (z - p) w with distinct finite rational points."""

    size: int
    points: Tuple[Fraction, ...]
    residues: Tuple[Matrix, ...]

    @cached_property
    def residue_at_infinity(self) -> Matrix:
        """-sum_p R_p, formed once per system."""
        return _lincomb(self.size, ((-1, m) for m in self.residues))


def fuchsian_system(points: Sequence, residues: Sequence) -> FuchsianSystem:
    """The system with residues R_p at distinct points p, square of one size."""
    pts = tuple(Fraction(p) for p in points)
    if len(set(pts)) != len(pts):
        raise DimensionMismatch("marked points must be pairwise distinct")
    mats = tuple(qmat(r) for r in residues)
    if len(pts) != len(mats):
        raise DimensionMismatch("one residue matrix per marked point")
    if not mats:
        raise DimensionMismatch("at least one marked point required")
    n = len(mats[0])
    if any(len(m) != n or any(len(row) != n for row in m) for m in mats):
        raise DimensionMismatch("residues must be square of equal size")
    if not n:
        raise DimensionMismatch("matrix dimension must be at least 1")
    return FuchsianSystem(size=n, points=pts, residues=mats)


@dataclass(frozen=True)
class LocalSystemData:
    """Truncated local shape w' = (R/z + sum_m tail[m] z^m) w at z = 0."""

    size: int
    r: Matrix
    tail: Tuple[Matrix, ...]


def local_system(r: Sequence[Sequence], tail: Sequence = ()) -> LocalSystemData:
    """The local shape with residue R and tail matrices, square of R's size."""
    rm = qmat(r)
    n = len(rm)
    if any(len(row) != n for row in rm):
        raise DimensionMismatch("residue matrix must be square")
    if not n:
        raise DimensionMismatch("matrix dimension must be at least 1")
    tl = tuple(qmat(m) for m in tail)
    if any(len(m) != n or any(len(row) != n for row in m) for m in tl):
        raise DimensionMismatch("tail matrices must match the residue size")
    return LocalSystemData(size=n, r=rm, tail=tl)


@dataclass(frozen=True)
class FrobeniusSeries:
    """Truncated fundamental matrix W = (sum_k s[k] z^k) z^R, s[0] = I."""

    r: Matrix
    s: Tuple[Matrix, ...]


@dataclass(frozen=True)
class SingularityReport:
    point: Point
    kind: str
    rank: int

    def __str__(self) -> str:
        return f"{self.kind} (rank {self.rank}) at {self.point}"


@dataclass(frozen=True)
class IndicialData:
    point: Point
    polynomial: LaurentPoly  # monic, degree n, variable = exponent rho
    exponent_sum: Fraction


@dataclass(frozen=True)
class ExponentData:
    point: Point
    charpoly: LaurentPoly
    trace: Fraction
    rational_roots: Tuple[Tuple[Fraction, int], ...]
    splits_over_q: bool


@dataclass(frozen=True)
class FuchsRelationReport:
    holds: bool
    lhs: Fraction
    rhs: Fraction
    num_singularities: int
    infinity_singular: bool

    def __bool__(self) -> bool:
        return self.holds


# -- local charts ---------------------------------------------------------

Pair = Tuple[LaurentPoly, LaurentPoly]


def _lah(j: int, i: int) -> int:
    """Unsigned Lah number L(j, i) = C(j-1, i-1) j!/i!, with L(0, 0) = 1
    and L(j, 0) = L(0, i) = 0 otherwise."""
    if i == 0 or j == 0:
        return int(i == j)
    return comb(j - 1, i - 1) * factorial(j) // factorial(i)


def _local_pairs(ode: ScalarODE, point: Point) -> List[Pair]:
    """Unreduced (num, den) with a_(n-k) = num/den in the local coordinate t
    of the point, for k = 1..n; no gcd runs.

    At a finite p, t = z - p and both parts are shifted.  At infinity,
    t = 1/z and d/dz = -t^2 d/dt, so

        (d/dz)^j = (-1)^j sum_i L(j, i) t^(j+i) (d/dt)^i,

    by induction on j: -t^2 d/dt maps t^(j+i) (d/dt)^i to
    -(j+i) t^(j+i+1) (d/dt)^i - t^(j+i+2) (d/dt)^(i+1), which is
    L(j+1, i) = (j+i) L(j, i) + L(j, i-1).  Divided by its leading
    coefficient (-1)^n t^(2n), the equation has (d/dt)^i coefficient

        c_i = sum_k (-1)^k L(n-k, i) t^(i-n-k) a_(n-k)(1/t),  a_n = 1,

    here summed over the product of the denominators, as Laurent
    polynomials in t.
    """
    pairs = [(a.num, a.den) for a in ode.coeffs]
    if not isinstance(point, Infinity):
        p = Fraction(point)
        return pairs if p == 0 else [(poly_shift(u, p), poly_shift(v, p)) for u, v in pairs]
    n, one = ode.order, LaurentPoly.one()
    recip = [(one, one)] + [(u.reciprocal_substitution(), v.reciprocal_substitution())
                            for u, v in pairs]  # index k: a_(n-k)(1/t)
    den = reduce(operator.mul, (v for _, v in recip))
    nums = [u * (den // v) for u, v in recip]
    return [(sum((nums[k].shift(i - n - k).scale((-1) ** k * _lah(n - k, i))
                  for k in range(n - i + 1)), LaurentPoly.zero()), den)
            for i in range(n - 1, -1, -1)]


def _pole(pair: Pair) -> int:
    num, den = pair
    return 0 if num.is_zero else max(0, den.ord() - num.ord())


def _lowest(pair: Pair, k: int) -> Fraction:
    """b(0) for b = t^k num/den with a pole of num/den of order at most k."""
    num, den = pair
    return num.coeff(den.ord() - k) / den.coeff(den.ord())


# -- classification ------------------------------------------------------


def classify_singularity_scalar(ode: ScalarODE, point: Point) -> SingularityReport:
    """Ordinary / first kind / second kind at the point, with the rank.

    With b_(n-k) = z^k a_(n-k) in the local coordinate: ordinary means
    every a is finite, first kind means every b is finite, and the rank
    is the highest pole order among the b's (0 for the first two kinds).
    """
    return _classify_local(_local_pairs(ode, point), point)


def _classify_local(pairs: Sequence[Pair], point: Point) -> SingularityReport:
    """classify_singularity_scalar on the coefficient pairs already in the
    local coordinate of the point."""
    poles = [_pole(pair) for pair in pairs]  # of a_(n-k), k = 1..n
    rank = max(0, *(pole - k for k, pole in enumerate(poles, start=1)))
    if not any(poles):
        return SingularityReport(point, ORDINARY, 0)
    if rank == 0:
        return SingularityReport(point, FIRST_KIND, 0)
    return SingularityReport(point, SECOND_KIND, rank)


def classify_singularity_system(matrix: Sequence[Sequence], point: Point) -> SingularityReport:
    """Classification of w' = A(z) w at a point by the pole order of A.

    Pole order 0 is an ordinary point, 1 a first-kind singularity, and
    otherwise the rank is the pole order of (local coordinate) * A,
    i.e. pole order minus one.  At infinity the matrix in the chart
    t = 1/z is -A(1/t)/t^2, whose entries have poles of order
    2 - (order of A's entry at infinity).
    """
    a = rfmat(matrix)
    if isinstance(point, Infinity):
        pole = max((max(0, 2 - v.order_at(INF)) for row in a for v in row if v), default=0)
    else:
        pole = max((v.pole_order(Fraction(point)) for row in a for v in row), default=0)
    if pole == 0:
        return SingularityReport(point, ORDINARY, 0)
    if pole == 1:
        return SingularityReport(point, FIRST_KIND, 0)
    return SingularityReport(point, SECOND_KIND, pole - 1)


# -- exponents and Fuchs relations --------------------------------------


def exponents_system(system: FuchsianSystem, point: Point) -> ExponentData:
    """Exponent data at a marked point (or infinity): the characteristic
    polynomial and trace of the residue matrix, with rational eigenvalues
    factored out when the polynomial splits over Q."""
    if isinstance(point, Infinity):
        r = system.residue_at_infinity
    else:
        p = Fraction(point)
        if p not in system.points:
            raise ValueError(f"{p} is not a marked point of the system")
        r = system.residues[system.points.index(p)]
    cp = charpoly(r)
    roots = tuple(rational_roots(cp))
    total_mult = sum(m for _, m in roots)
    return ExponentData(
        point=point,
        charpoly=cp,
        trace=trace(r),
        rational_roots=roots,
        splits_over_q=(total_mult == len(r)),
    )


def fuchs_relation_system(system: FuchsianSystem) -> Tuple[bool, Fraction]:
    """Sum of all exponent sums (traces), including infinity; (holds, sum).

    The residue at infinity is -sum R_p, so the total is identically zero.
    """
    r_inf = system.residue_at_infinity
    total = sum((trace(m) for m in system.residues), Fraction(0)) + trace(r_inf)
    return (total == 0, total)


def _falling_factorial(length: int) -> LaurentPoly:
    """rho (rho - 1) ... (rho - length + 1), a polynomial in rho."""
    out = LaurentPoly.one()
    for i in range(length):
        out = out * LaurentPoly({1: 1, 0: -i})
    return out


def indicial_polynomial(ode: ScalarODE, point: Point) -> IndicialData:
    """The monic degree-n indicial polynomial at a first-kind (or
    ordinary) point, whose roots are the local exponents.

        sum_k b_(n-k)(0) * rho (rho-1) ... (rho - (n-k) + 1),  b_n = 1,

    in the local coordinate; the exponent sum is n(n-1)/2 - b_(n-1)(0),
    which matches the negated subleading coefficient (Vieta).
    """
    local = _local_pairs(ode, point)
    report = _classify_local(local, point)
    if report.kind == SECOND_KIND:
        raise NotFirstKind(f"irregular singularity at {point} (rank {report.rank})")
    n = ode.order
    poly = _falling_factorial(n)
    for k, pair in enumerate(local, start=1):
        beta = _lowest(pair, k)  # b_(n-k)(0), b_(n-k) = t^k a_(n-k)
        if beta:
            poly = poly + _falling_factorial(n - k).scale(beta)
    return IndicialData(
        point=point,
        polynomial=poly,
        exponent_sum=Fraction(n * (n - 1), 2) - _lowest(local[0], 1),
    )


def _sum_of_finite_residues(f: RatFunc) -> Fraction:
    """Sum of the residues of f over all its finite poles, exactly.

    Equals the 1/z coefficient of the expansion at infinity: reduce f
    modulo polynomials and read the subleading numerator coefficient.
    """
    if f.is_zero:
        return Fraction(0)
    _, rem = poly_divmod(f.num, f.den)
    if rem.is_zero:
        return Fraction(0)
    want = f.den.deg() - 1
    return rem.coeff(want)


def fuchs_relation_scalar(ode: ScalarODE) -> FuchsRelationReport:
    """Global exponent-count identity for a Fuchsian equation on the sphere.

    lhs sums the indicial exponent sums over every singular point
    (finite ones and, when singular, infinity); rhs is
    n(n-1)/2 * (N - 2) with N the number of singularities.  The finite
    part is evaluated through residue sums of a_(n-1) and the degree of
    the squarefree singular locus, so irrational singular points are
    handled exactly without root extraction.

    Raises NotFuchsian when any singularity (including infinity) is not
    of the first kind.
    """
    n = ode.order
    locus = LaurentPoly.one()
    for k in range(1, n + 1):
        a = ode.coeffs[k - 1]
        if a.is_zero or a.den.deg() == 0:
            continue
        rad = poly_radical(a.den)
        # all poles of a_(n-k) must have order <= k
        if not poly_divmod(rad**k, a.den)[1].is_zero:
            raise NotFuchsian(
                f"coefficient of derivative order {n - k} has a pole of order > {k}"
            )
        locus = poly_lcm(locus, rad)
    num_finite = locus.deg() if not locus.is_zero else 0

    local_inf = _local_pairs(ode, INF)
    at_inf = _classify_local(local_inf, INF)
    if at_inf.kind == SECOND_KIND:
        raise NotFuchsian(f"irregular singularity at infinity (rank {at_inf.rank})")
    infinity_singular = at_inf.kind == FIRST_KIND

    half = Fraction(n * (n - 1), 2)
    lhs = num_finite * half - _sum_of_finite_residues(ode.coeffs[0])
    if infinity_singular:  # plus the exponent sum n(n-1)/2 - b_(n-1)(0) at infinity
        lhs += half - _lowest(local_inf[0], 1)
    num_sing = num_finite + (1 if infinity_singular else 0)
    rhs = half * (num_sing - 2)
    return FuchsRelationReport(
        holds=(lhs == rhs),
        lhs=lhs,
        rhs=rhs,
        num_singularities=num_sing,
        infinity_singular=infinity_singular,
    )


# -- Frobenius series ----------------------------------------------------


def frobenius_series(local: LocalSystemData, order: int) -> FrobeniusSeries:
    """Truncated fundamental matrix W = S(z) z^R at a first-kind point.

    S_0 = I and, for k = 1..order,

        k S_k + S_k R - R S_k = C_k = sum_(m=0)^(k-1) tail[m] S_(k-1-m),

    each solved exactly.  Requires that no two eigenvalues of R differ
    by a positive integer k <= order, verified exactly by resultants of
    the characteristic polynomial g of N = d*R below against its shifts
    g(t - k*d); violation raises ResonantExponents.  More than
    FROBENIUS_BUDGET coefficients (order + 1)*n^2 raise WorkBudgetExceeded
    before any work.

    Each step is one n x n solve (Jameson, SIAM J. Appl. Math. 1968).
    The step reads A S - S R = -C_k with A = R - k; for any polynomial
    q, q(A) S - S q(R) = sum_m q_m sum_(i+j=m-1) A^i (A S - S R) R^j,
    and q = charpoly(R) kills q(R) (Cayley-Hamilton), so

        q(R - k) S_k = -sum_m q_m sum_(i+j=m-1) (R - k)^i C_k R^j,

    where det q(R - k) = +-Res(q(x), q(x - k)) is nonzero by the check.
    It runs on integers: N = d*R (d the lcm of R's denominators) has
    characteristic polynomial g(t) = d^n q(t/d), the matrices
    H_i = sum_(m>i) g_m N^(m-1-i) are formed once, and with C_k = C/e
    for an integer matrix C the step becomes

        g(N - k*d) S_k = -(d/e) * Y,  Y = sum_(i<n) M^i K_i,

    with M = N - k*d, K_i = C H_i and K_(n-1) = C.  Y is summed by
    Horner, y <- M y + K_i, on rows packed into one integer each by
    ``lmatrix._pack`` at X = 2^(8w): a step costs n^2 products of
    an entry of M with a packed row, and the K_i are plain integer
    products.  ``solve`` returns the solution on integers, as V/v, so
    S_k = V/(v*e), and the next steps read it as the pair (v*e, V)
    divided by gcd(v*e, V): a matrix has one primitive pair (s, S') with
    S'/s equal to it and s > 0, so that pair is ``integer_scaled(S_k)``.

    Width: ``_pack`` is Z-linear on any integers, and each Horner step is
    an integer combination of packed rows, so the packed sum is the
    packing of the exact -d*Y whatever its intermediate digits; only -d*Y,
    which is unpacked, needs balanced digits.  Write |A| for the largest
    absolute row sum: |A B| <= |A| |B|, |A + B| <= |A| + |B|, and every
    entry of A is at most |A|.  So every entry of -d*Y is at most
    B = d |C| sum_i |M|^i |H_i| (H_(n-1) = I), and w = ``_digit_bytes(B)``
    gives B < 2^(8w - 1): every digit is balanced and ``_unpack`` reads
    -d*Y back exactly.  The |H_i| are formed once, so the bound costs O(n)
    per step.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    n = local.size
    if (order + 1) * n * n > FROBENIUS_BUDGET:
        raise WorkBudgetExceeded(f"Frobenius series to order {decimal(order)} in rank {n} has "
                                 f"{decimal((order + 1) * n * n)} coefficients, over the work "
                                 f"budget of {FROBENIUS_BUDGET}")
    d, big_n = integer_scaled(local.r)
    g = charpoly(big_n)
    shifted = []
    for k in range(1, order + 1):
        shifted.append(poly_shift(g, -k * d))  # g(t - k*d)
        if resultant(g, shifted[-1]) == 0:
            raise ResonantExponents(
                f"two exponents differ by the positive integer {k}"
            )
    coeffs = [int(g.coeff(m)) for m in range(n + 1)]
    powers = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
    for _ in range(n):
        powers.append(mat_mul(big_n, powers[-1]))
    h = [_lincomb(n, zip(coeffs[i + 1:], powers)) for i in range(n - 1)]  # H_(n-1) = I
    h_norms = [_norm(h_i) for h_i in h] + [1]
    h_wide = [tuple(chain.from_iterable(rows)) for rows in zip(*h)]  # [H_0 ... H_(n-2)]
    tails = [integer_scaled(m) for m in local.tail]
    series: List[Matrix] = [identity_q(n)]
    scaled = [(1, powers[0])]
    for k, g_k in enumerate(shifted, start=1):
        terms = [(t * s, mat_mul(t_mat, s_mat))
                 for (t, t_mat), (s, s_mat) in zip(tails, reversed(scaled))]
        e = lcm(*(den for den, _ in terms))
        c = _lincomb(n, ((e // den, m) for den, m in terms))
        m_rows = [list(row) for row in big_n]
        for i, row in enumerate(m_rows):
            row[i] -= k * d
        m_norm, bound = _norm(m_rows), 0
        for h_norm in reversed(h_norms):
            bound = m_norm * bound + h_norm
        width = _digit_bytes(d * _norm(c) * bound)
        wide = mat_mul(c, h_wide)  # [K_0 ... K_(n-2)]
        y = [_pack(row, width) for row in c]
        for i in range(n * (n - 2), -1, -n):  # Horner in M = N - k*d
            y = [sum(map(operator.mul, m_row, y)) + _pack(k_row[i:i + n], width)
                 for m_row, k_row in zip(m_rows, wide)]
        p_k = _lincomb(n, zip((int(g_k.coeff(m)) for m in range(n + 1)), powers))
        s_k = solve(p_k, [(_unpack(-d * row, width) + [0] * n)[:n] for row in y])
        if s_k is None:
            raise BGSplitError(
                "Frobenius step became singular despite the resonance check; defect"
            )
        den, x = s_k
        content = gcd(den * e, *chain.from_iterable(x))
        den, x = den * e // content, tuple(tuple(v // content for v in row) for row in x)
        series.append(tuple(tuple(Fraction(v, den) for v in row) for row in x))
        scaled.append((den, x))
    return FrobeniusSeries(r=local.r, s=tuple(series))


def _norm(m: Sequence[Sequence[int]]) -> int:
    """The largest absolute row sum of an integer matrix, a norm with
    |A B| <= |A| |B| that bounds every entry."""
    return max(sum(map(abs, row)) for row in m)


def _lincomb(n: int, terms: Iterable[Tuple[int, IntMatrix]]) -> IntMatrix:
    """sum of c * M over the (c, M) pairs of n x n matrices."""
    terms = [(c, m) for c, m in terms if c]
    if not terms:
        return ((0,) * n,) * n
    cs = [c for c, _ in terms]
    flat = [sum(map(operator.mul, cs, entries))
            for entries in zip(*(chain.from_iterable(m) for _, m in terms))]
    return tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))


def ode_residual(local: LocalSystemData, series: FrobeniusSeries) -> int:
    """Order through which W' - A W vanishes formally; >= truncation order
    certifies the series.  Identically-zero residual (the exact case)
    reports order + 1 as a sentinel.

    The order-k coefficient k S_k + S_k R - R S_k - sum_m tail[m] S_(k-1-m)
    is multiplied back on integer matrices over one common denominator e:
    with R = R'/r, tail[m] = T_m/t_m and S_j = S'_j/s_j, e times it is

        (e/(r s_k)) ((k r - R') S'_k + S'_k R') - sum_m (e/(t_m s_j)) T_m S'_j,

    j = k-1-m.  The rows of each S'_j are packed into one integer each by
    ``lmatrix._pack``, so a product with the small left factor
    k r - R' or T_m costs n^2 products of an entry with a packed row;
    S'_k R' is formed on plain integers and its rows packed after.

    Width: ``_pack`` is Z-linear, so each packed sum is the packing of the
    exact row of e times the coefficient.  In the largest absolute row sum
    |.|, each of its entries is at most (e/(r s_k)) (k r + 2|R'|) |S'_k|
    plus the (e/(t_m s_j)) |T_m| |S'_j|; at w = ``_digit_bytes`` of that
    bound, all its digits are balanced, so a packed row is 0 exactly when
    the row is.
    """
    if len(series.r) != local.size:
        raise DimensionMismatch("series size disagrees with the local system")
    n = local.size
    cap = len(series.s) - 1
    r, r_mat = integer_scaled(local.r)
    tails = [integer_scaled(m) for m in local.tail]
    scaled = [integer_scaled(m) for m in series.s]
    norms, r_norm = [_norm(m) for _, m in scaled], _norm(r_mat)
    for k in range(1, cap + len(tails) + 2):  # (sign, den, left, j, bound) per term
        terms = [(-1, t * scaled[j][0], t_mat, j, _norm(t_mat) * norms[j])
                 for (t, t_mat), j in zip(tails, range(k - 1, -1, -1)) if j <= cap]
        if k <= cap:
            shift = [[k * r * (i == c) - v for c, v in enumerate(row)]
                     for i, row in enumerate(r_mat)]
            terms.append((1, r * scaled[k][0], shift, k, (k * r + 2 * r_norm) * norms[k]))
        e = lcm(*(den for _, den, _, _, _ in terms))
        width = _digit_bytes(sum(e // den * bound for _, den, _, _, bound in terms))
        total = [0] * n
        for sign, den, left, j, _ in terms:
            f = sign * (e // den)
            if j == k:  # the S'_k R' half of the S_k term
                total = [acc + f * _pack(row, width)
                         for acc, row in zip(total, mat_mul(scaled[k][1], r_mat))]
            packed = [_pack(row, width) for row in scaled[j][1]]
            total = [acc + f * sum(map(operator.mul, l_row, packed))
                     for acc, l_row in zip(total, left)]
        if any(total):
            return k - 1 if k <= cap else cap
    return cap + 1


# -- gauge transformations ------------------------------------------------


def _over_denominator_lcms(lines) -> Tuple[List[LaurentPoly], List[List[LaurentPoly]]]:
    """(L, P) with lines[i][j] = P[i][j] / L[i]: each row (or column) of
    RatFunc over L[i], the lcm of its denominators, P[i][j] in Q[x]."""
    lcms = [reduce(poly_lcm, {v.den for v in line}) for line in lines]
    return lcms, [[v.num if v.den == m else v.num * (m // v.den) for v in line]
                  for line, m in zip(lines, lcms)]


def gauge_transform(a: Sequence[Sequence], p: Sequence[Sequence]) -> RFMatrix:
    """System matrix after the substitution w = P v:

        A  ->  P^-1 (A P - P')   (exact rational arithmetic).

    P^-1 is never formed.  With L the row denominator lcms of P, N = L*P
    is polynomial and the Z[x] Gauss-Jordan of ``lmatrix`` gives
    N^-1 = S/q, so the result is S*(L*(A P - P'))/q.  With the rows of A
    over their lcms K and the columns of P over theirs J, A P = u/(K J)
    for the unreduced Z[x] product u, and P' = (L N' - L' N)/L^2, so

        (L*(A P - P'))_ij = (L_i^2 u_ij - K_i J_j (L_i N'_ij - L'_i N_ij)) / (L_i K_i J_j),

    reduced once.  The result is one product with the columns of
    L*(A P - P') over their lcms, reduced once per entry.
    Raises NotInvertible when P is singular over the rational functions.
    """
    am = rfmat(a)
    pm = rfmat(p)
    if len(am) != len(pm):
        raise DimensionMismatch("gauge and system sizes disagree")
    if not pm:
        return ()
    lcms, rows = _over_denominator_lcms(pm)
    s, q = _gauss_jordan(rows)
    if not q:
        raise NotInvertible("matrix is singular over the rational functions")
    a_lcms, a_rows = _over_denominator_lcms(am)
    p_lcms, p_cols = _over_denominator_lcms(tuple(zip(*pm)))
    lap = [[RatFunc(m * m * v - k * j * (m * w.derivative() - m.derivative() * w), m * k * j)
            for v, w, j in zip(u_row, n_row, p_lcms)]
           for u_row, n_row, m, k in zip(_product(a_rows, p_cols), rows, lcms, a_lcms)]
    col_lcms, cols = _over_denominator_lcms(tuple(zip(*lap)))
    return tuple(tuple(RatFunc(v, q * k) for v, k in zip(row, col_lcms))
                 for row in _product(s, cols))
