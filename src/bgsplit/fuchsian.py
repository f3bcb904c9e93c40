"""Exact singularity analysis of linear ODEs and systems on the sphere.

Scalar equations w^(n) + a_(n-1) w^(n-1) + ... + a_0 w = 0 carry
rational-function coefficients; first-order systems are either given by
a rational matrix A(z) (w' = A w) or, in residue form, by marked points
p with rational residue matrices R_p (w' = sum R_p/(z - p) w), the
residue at infinity being -sum R_p.

All charts are handled by exact substitutions: a finite point p moves to
the origin by z -> z + p, and infinity by z = 1/t, under which d/dz
becomes -t^2 d/dt.  Exponents are reported through characteristic or
indicial polynomials (with rational roots factored out when present)
rather than through algebraic numbers, so every check stays in Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import (
    BGSplitError,
    DimensionMismatch,
    NotFirstKind,
    NotFuchsian,
    NotInvertible,
    ResonantExponents,
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
from .lmatrix import _gauss_jordan, _laurent, _product
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

    @staticmethod
    def from_coeffs(coeffs: Sequence) -> "ScalarODE":
        cs = tuple(_as_ratfunc(c) for c in coeffs)
        if not cs:
            raise ValueError("an equation needs order at least 1")
        return ScalarODE(order=len(cs), coeffs=cs)


def scalar_ode(coeffs: Sequence) -> ScalarODE:
    return ScalarODE.from_coeffs(coeffs)


@dataclass(frozen=True)
class FuchsianSystem:
    """w' = sum_p R_p / (z - p) w with distinct finite rational points."""

    size: int
    points: Tuple[Fraction, ...]
    residues: Tuple[Matrix, ...]

    @staticmethod
    def from_data(points: Sequence, residues: Sequence[Sequence[Sequence]]) -> "FuchsianSystem":
        pts = tuple(Fraction(p) for p in points)
        if len(set(pts)) != len(pts):
            raise ValueError("marked points must be pairwise distinct")
        mats = tuple(qmat(r) for r in residues)
        if len(pts) != len(mats):
            raise DimensionMismatch("one residue matrix per marked point")
        if not mats:
            raise ValueError("at least one marked point required")
        n = len(mats[0])
        if any(len(m) != n or any(len(row) != n for row in m) for m in mats):
            raise DimensionMismatch("residues must be square of equal size")
        return FuchsianSystem(size=n, points=pts, residues=mats)

    def residue_at_infinity(self) -> Matrix:
        n = self.size
        total = [[Fraction(0)] * n for _ in range(n)]
        for m in self.residues:
            for i in range(n):
                for j in range(n):
                    total[i][j] += m[i][j]
        return tuple(tuple(-v for v in row) for row in total)


def fuchsian_system(points: Sequence, residues: Sequence) -> FuchsianSystem:
    return FuchsianSystem.from_data(points, residues)


@dataclass(frozen=True)
class LocalSystemData:
    """Truncated local shape w' = (R/z + sum_m tail[m] z^m) w at z = 0."""

    size: int
    r: Matrix
    tail: Tuple[Matrix, ...]

    @staticmethod
    def from_data(r: Sequence[Sequence], tail: Sequence = ()) -> "LocalSystemData":
        rm = qmat(r)
        n = len(rm)
        if any(len(row) != n for row in rm):
            raise DimensionMismatch("residue matrix must be square")
        tl = tuple(qmat(m) for m in tail)
        if any(len(m) != n or any(len(row) != n for row in m) for m in tl):
            raise DimensionMismatch("tail matrices must match the residue size")
        return LocalSystemData(size=n, r=rm, tail=tl)


def local_system(r: Sequence[Sequence], tail: Sequence = ()) -> LocalSystemData:
    return LocalSystemData.from_data(r, tail)


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


# -- chart changes -------------------------------------------------------


def _shift_ode(ode: ScalarODE, p: Fraction) -> ScalarODE:
    """Coefficients of the same equation in the coordinate centered at p."""
    if p == 0:
        return ode
    return ScalarODE(ode.order, tuple(c.shift(p) for c in ode.coeffs))


def _infinity_chart_ode(ode: ScalarODE) -> ScalarODE:
    """The equation in the chart t = 1/z, monic in d/dt.

    d/dz = -t^2 d/dt, so each (d/dz)^j expands into a differential
    operator sum_i q_i(t) (d/dt)^i computed by exact composition; the
    transformed equation is normalized by its leading coefficient
    (-1)^n t^(2n), which never vanishes identically.
    """
    n = ode.order
    # ops[j] = coefficient list of (d/dz)^j as polynomials in t: index i -> q_i
    ops: List[List[RatFunc]] = [[RatFunc.one()]]
    minus_t2 = RatFunc.from_laurent(LaurentPoly({2: -1}))
    for _ in range(n):
        prev = ops[-1]
        cur = [RatFunc.zero()] * (len(prev) + 1)
        for i, q in enumerate(prev):
            if q.is_zero:
                continue
            cur[i] = cur[i] + minus_t2 * q.derivative()
            cur[i + 1] = cur[i + 1] + minus_t2 * q
        ops.append(cur)
    total = [RatFunc.zero()] * (n + 1)
    for k in range(n + 1):
        a = RatFunc.one() if k == 0 else ode.coeffs[k - 1]
        if a.is_zero:
            continue
        a_inf = a.reciprocal_substitution()
        for i, q in enumerate(ops[n - k]):
            if not q.is_zero:
                total[i] = total[i] + a_inf * q
    lead = total[n]
    return ScalarODE(n, tuple(total[n - 1 - i] / lead for i in range(n)))


def _localize_ode(ode: ScalarODE, point: Point) -> ScalarODE:
    if isinstance(point, Infinity):
        return _infinity_chart_ode(ode)
    return _shift_ode(ode, Fraction(point))


# -- classification ------------------------------------------------------


def classify_singularity_scalar(ode: ScalarODE, point: Point) -> SingularityReport:
    """Ordinary / first kind / second kind at the point, with the rank.

    With b_(n-k) = z^k a_(n-k) in the local coordinate: ordinary means
    every a is finite, first kind means every b is finite, and the rank
    is the highest pole order among the b's (0 for the first two kinds).
    """
    return _classify_local(_localize_ode(ode, point), point)


def _classify_local(local: ScalarODE, point: Point) -> SingularityReport:
    """classify_singularity_scalar on the equation already in the local
    coordinate of the point."""
    n = local.order
    ordinary = True
    rank = 0
    for k in range(1, n + 1):
        a = local.coeffs[k - 1]  # a_(n-k)
        pole = a.pole_order(Fraction(0))
        if pole > 0:
            ordinary = False
        rank = max(rank, pole - k)
    if ordinary:
        return SingularityReport(point, ORDINARY, 0)
    if rank <= 0:
        return SingularityReport(point, FIRST_KIND, 0)
    return SingularityReport(point, SECOND_KIND, rank)


def classify_singularity_system(matrix: Sequence[Sequence], point: Point) -> SingularityReport:
    """Classification of w' = A(z) w at a point by the pole order of A.

    Pole order 0 is an ordinary point, 1 a first-kind singularity, and
    otherwise the rank is the pole order of (local coordinate) * A,
    i.e. pole order minus one.  At infinity the matrix in the chart
    t = 1/z is -A(1/t)/t^2.
    """
    a = rfmat(matrix)
    if isinstance(point, Infinity):
        minus_t2 = RatFunc.from_laurent(LaurentPoly({-2: -1}))
        local = tuple(
            tuple(minus_t2 * v.reciprocal_substitution() for v in row) for row in a
        )
        at = Fraction(0)
    else:
        local = a
        at = Fraction(point)
    pole = max((v.pole_order(at) for row in local for v in row), default=0)
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
        r = system.residue_at_infinity()
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


def fuchs_relation_system(
    system: FuchsianSystem, residue_at_infinity: Optional[Sequence[Sequence]] = None
) -> Tuple[bool, Fraction]:
    """Sum of all exponent sums (traces), including infinity; (holds, sum).

    For residue-built systems the residue at infinity is forced to
    -sum R_p and the total is identically zero; passing an explicit
    matrix checks externally supplied data instead.
    """
    r_inf = (
        system.residue_at_infinity()
        if residue_at_infinity is None
        else qmat(residue_at_infinity)
    )
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
    local = _localize_ode(ode, point)
    report = _classify_local(local, point)
    if report.kind == SECOND_KIND:
        raise NotFirstKind(f"irregular singularity at {point} (rank {report.rank})")
    n = local.order
    xk = RatFunc.from_laurent(LaurentPoly({1: 1}))
    poly = _falling_factorial(n)
    b1_at_0 = Fraction(0)
    power = RatFunc.one()
    for k in range(1, n + 1):
        power = power * xk
        b = local.coeffs[k - 1] * power  # b_(n-k) = z^k a_(n-k)
        beta = b.evaluate(Fraction(0))
        if k == 1:
            b1_at_0 = beta
        if beta:
            poly = poly + _falling_factorial(n - k).scale(beta)
    return IndicialData(
        point=point,
        polynomial=poly,
        exponent_sum=Fraction(n * (n - 1), 2) - b1_at_0,
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

    local_inf = _infinity_chart_ode(ode)
    at_inf = _classify_local(local_inf, INF)
    if at_inf.kind == SECOND_KIND:
        raise NotFuchsian(f"irregular singularity at infinity (rank {at_inf.rank})")
    infinity_singular = at_inf.kind == FIRST_KIND

    half = Fraction(n * (n - 1), 2)
    lhs = num_finite * half - _sum_of_finite_residues(ode.coeffs[0])
    if infinity_singular:  # plus the exponent sum n(n-1)/2 - b_(n-1)(0) at infinity
        b1 = local_inf.coeffs[0] * RatFunc.from_laurent(LaurentPoly({1: 1}))
        lhs += half - b1.evaluate(Fraction(0))
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
    g(t - k*d); violation raises ResonantExponents.

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

        g(N - k*d) S_k = -(d/e) * sum_i (N - k*d)^i C H_i.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    n = local.size
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
    tails = [integer_scaled(m) for m in local.tail]
    series: List[Matrix] = [identity_q(n)]
    scaled = [(1, powers[0])]
    for k, g_k in enumerate(shifted, start=1):
        e, c = _over_lcm(n, [
            (1, mat_mul(t_mat, s_mat), t * s)
            for (t, t_mat), (s, s_mat) in zip(tails, reversed(scaled))])
        y = c
        for i in range(n - 2, -1, -1):  # Horner in N - k*d
            y = _lincomb(n, ((1, mat_mul(big_n, y)), (-k * d, y), (1, mat_mul(c, h[i]))))
        p_k = _lincomb(n, zip((int(g_k.coeff(m)) for m in range(n + 1)), powers))
        s_k = solve(p_k, [[-d * v for v in row] for row in y])
        if s_k is None:
            raise BGSplitError(
                "Frobenius step became singular despite the resonance check; defect"
            )
        s_k = tuple(tuple(v / e for v in row) for row in s_k)
        series.append(s_k)
        scaled.append(integer_scaled(s_k))
    return FrobeniusSeries(r=local.r, s=tuple(series))


def _lincomb(n: int, terms: Iterable[Tuple[int, IntMatrix]]) -> IntMatrix:
    """sum of c * M over the (c, M) pairs of n x n integer matrices."""
    terms = [(c, m) for c, m in terms if c]
    return tuple(
        tuple(sum(c * m[i][j] for c, m in terms) for j in range(n)) for i in range(n)
    )


def _over_lcm(n: int, terms: Sequence[Tuple[int, IntMatrix, int]]) -> Tuple[int, IntMatrix]:
    """(e, E) with E / e = sum of c * M / den over the (c, M, den) terms and
    e the lcm of the dens (1 for no terms)."""
    e = lcm(*(den for _, _, den in terms))
    return e, _lincomb(n, ((c * (e // den), m) for c, m, den in terms))


def ode_residual(local: LocalSystemData, series: FrobeniusSeries) -> int:
    """Order through which W' - A W vanishes formally; >= truncation order
    certifies the series.  Identically-zero residual (the exact case)
    reports order + 1 as a sentinel.

    The order-k coefficient k S_k + S_k R - R S_k - sum_m tail[m] S_(k-1-m)
    is multiplied back on integer matrices over one common denominator.
    """
    if len(series.r) != local.size:
        raise DimensionMismatch("series size disagrees with the local system")
    n = local.size
    cap = len(series.s) - 1
    r, r_mat = integer_scaled(local.r)
    tails = [integer_scaled(m) for m in local.tail]
    scaled = [integer_scaled(m) for m in series.s]

    def term_is_zero(k: int) -> bool:
        terms = [(-1, mat_mul(t_mat, scaled[k - 1 - m][1]), t * scaled[k - 1 - m][0])
                 for m, (t, t_mat) in enumerate(tails[:k]) if k - 1 - m <= cap]
        if k <= cap:
            s, s_mat = scaled[k]
            terms += [(k, s_mat, s), (1, mat_mul(s_mat, r_mat), s * r),
                      (-1, mat_mul(r_mat, s_mat), r * s)]
        _, total = _over_lcm(n, terms)
        return not any(v for row in total for v in row)

    for k in range(1, cap + 1):
        if not term_is_zero(k):
            return k - 1
    for k in range(cap + 1, cap + len(local.tail) + 2):
        if not term_is_zero(k):
            return cap
    return cap + 1


# -- gauge transformations ------------------------------------------------


def _over_denominator_lcms(lines) -> Tuple[List[LaurentPoly], List[List[LaurentPoly]]]:
    """(L, P) with lines[i][j] = P[i][j] / L[i]: each row (or column) of
    RatFunc over L[i], the lcm of its denominators, P[i][j] in Q[x]."""
    lcms = [reduce(poly_lcm, {v.den for v in line}) for line in lines]
    return lcms, [[v.num if v.den == m else v.num * poly_divmod(m, v.den)[0] for v in line]
                  for line, m in zip(lines, lcms)]


def rf_mat_mul(a: RFMatrix, b: RFMatrix) -> RFMatrix:
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


def rf_mat_inverse(a: RFMatrix) -> RFMatrix:
    """Inverse over the rational-function field: A^-1 = (L*A)^-1 * L, where L
    scales each row by the lcm of its denominators, and the polynomial matrix
    L*A is inverted by the Z[x] Gauss-Jordan of ``lmatrix``."""
    lcms, rows = _over_denominator_lcms(a)
    f, s, q = _gauss_jordan(rows)
    if not q:
        raise NotInvertible("matrix is singular over the rational functions")
    # L*A = x^lo * D^-1 * N(x^g) and N^-1 = S/q: A^-1_ij = S_ij(x^g) D_j L_j / (x^lo q(x^g)).
    den = _laurent(f.decode(q), f.g, f.lows[0], 1, 1)
    return tuple(tuple(RatFunc(_laurent(f.decode(v), f.g, 0, f.scales[0][j], 1) * lcms[j], den)
                       for j, v in enumerate(row)) for row in s)


def gauge_transform(a: Sequence[Sequence], p: Sequence[Sequence]) -> RFMatrix:
    """System matrix after the substitution w = P v:

        A  ->  P^-1 (A P - P')   (exact rational arithmetic).

    Raises NotInvertible when P is singular over the rational functions.
    """
    am = rfmat(a)
    pm = rfmat(p)
    if len(am) != len(pm):
        raise DimensionMismatch("gauge and system sizes disagree")
    p_inv = rf_mat_inverse(pm)
    ap = rf_mat_mul(am, pm)
    return rf_mat_mul(p_inv, tuple(
        tuple(x - v.derivative() for x, v in zip(r1, r2)) for r1, r2 in zip(ap, pm)
    ))
