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
from typing import List, Optional, Sequence, Tuple

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
    Matrix,
    charpoly,
    identity_q,
    mat_mul,
    qmat,
    rational_roots,
    resultant,
    solve,
    trace,
)
from .lmatrix import _gauss_jordan, _laurent
from .ratfunc import (
    INF,
    Infinity,
    Point,
    RatFunc,
    poly_divmod,
    poly_lcm,
    poly_radical,
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

    def system_matrix(self) -> RFMatrix:
        n = self.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                entry = RatFunc.zero()
                for p, m in zip(self.points, self.residues):
                    if m[i][j]:
                        pole = LaurentPoly({1: 1, 0: -p})
                        entry = entry + RatFunc(LaurentPoly.constant(m[i][j]), pole)
                row.append(entry)
            rows.append(tuple(row))
        return tuple(rows)


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

    @property
    def truncation_order(self) -> int:
        return len(self.s) - 1


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
    local = _localize_ode(ode, point)
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
    report = classify_singularity_scalar(ode, point)
    if report.kind == SECOND_KIND:
        raise NotFirstKind(f"irregular singularity at {point} (rank {report.rank})")
    local = _localize_ode(ode, point)
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

    at_inf = classify_singularity_scalar(ode, INF)
    if at_inf.kind == SECOND_KIND:
        raise NotFuchsian(f"irregular singularity at infinity (rank {at_inf.rank})")
    infinity_singular = at_inf.kind == FIRST_KIND

    half = Fraction(n * (n - 1), 2)
    lhs = num_finite * half - _sum_of_finite_residues(ode.coeffs[0])
    if infinity_singular:
        lhs += indicial_polynomial(ode, INF).exponent_sum
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

        k S_k + S_k R - R S_k = sum_(m=0)^(k-1) tail[m] S_(k-1-m),

    each solved exactly.  Requires that no two eigenvalues of R differ
    by a positive integer <= order, verified exactly by resultants of
    the characteristic polynomial against its integer shifts; violation
    raises ResonantExponents.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    n = local.size
    r = local.r
    cp = charpoly(r)
    from .ratfunc import poly_shift

    for k in range(1, order + 1):
        if resultant(cp, poly_shift(cp, -k)) == 0:
            raise ResonantExponents(
                f"two exponents differ by the positive integer {k}"
            )
    series: List[Matrix] = [identity_q(n)]
    for k in range(1, order + 1):
        rhs_mat = _tail_convolution(local, series, k)
        mat = [[Fraction(0)] * (n * n) for _ in range(n * n)]
        for i in range(n):
            for j in range(n):
                eq = i * n + j
                mat[eq][eq] += k
                for q in range(n):
                    mat[eq][i * n + q] += r[q][j]      # (S R) term
                for p in range(n):
                    mat[eq][p * n + j] -= r[i][p]      # (R S) term
        rhs_vec = [rhs_mat[i][j] for i in range(n) for j in range(n)]
        sol = solve(mat, rhs_vec)
        if sol is None:
            raise BGSplitError(
                "Frobenius step became singular despite the resonance check; defect"
            )
        series.append(
            tuple(tuple(sol[i * n + j] for j in range(n)) for i in range(n))
        )
    return FrobeniusSeries(r=r, s=tuple(series))


def _tail_convolution(local: LocalSystemData, series: Sequence[Matrix], k: int) -> Matrix:
    """sum_(m=0)^(k-1) tail[m] * S_(k-1-m), missing terms being zero."""
    n = local.size
    total = [[Fraction(0)] * n for _ in range(n)]
    for m in range(min(k, len(local.tail))):
        idx = k - 1 - m
        if idx >= len(series):
            continue
        prod = mat_mul(local.tail[m], series[idx])
        for i in range(n):
            for j in range(n):
                total[i][j] += prod[i][j]
    return tuple(tuple(row) for row in total)


def ode_residual(local: LocalSystemData, series: FrobeniusSeries) -> int:
    """Order through which W' - A W vanishes formally; >= truncation order
    certifies the series.  Identically-zero residual (the exact case)
    reports order + 1 as a sentinel."""
    if len(series.r) != local.size:
        raise DimensionMismatch("series size disagrees with the local system")
    n = local.size
    cap = len(series.s) - 1
    r = local.r
    zero_mat = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))

    def term(k: int) -> Matrix:
        s_k = series.s[k] if k <= cap else zero_mat
        lhs = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                lhs[i][j] = k * s_k[i][j]
                lhs[i][j] += sum(s_k[i][q] * r[q][j] for q in range(n))
                lhs[i][j] -= sum(r[i][p] * s_k[p][j] for p in range(n))
        conv = _tail_convolution(local, series.s, k)
        return tuple(
            tuple(lhs[i][j] - conv[i][j] for j in range(n)) for i in range(n)
        )

    def is_zero(m: Matrix) -> bool:
        return all(not v for row in m for v in row)

    for k in range(1, cap + 1):
        if not is_zero(term(k)):
            return k - 1
    for k in range(cap + 1, cap + len(local.tail) + 2):
        if not is_zero(term(k)):
            return cap
    return cap + 1


# -- gauge transformations ------------------------------------------------


def rf_mat_mul(a: RFMatrix, b: RFMatrix) -> RFMatrix:
    n = len(a)
    if len(b) != n:
        raise DimensionMismatch("matrix dimension mismatch")
    bt = tuple(zip(*b))
    return tuple(
        tuple(
            sum((x * y for x, y in zip(row, col)), RatFunc.zero()) for col in bt
        )
        for row in a
    )


def rf_mat_inverse(a: RFMatrix) -> RFMatrix:
    """Inverse over the rational-function field: A^-1 = (L*A)^-1 * L, where L
    scales each row by the lcm of its denominators, and the polynomial matrix
    L*A is inverted by the Z[x] Gauss-Jordan of ``lmatrix``."""
    lcms = [reduce(poly_lcm, (v.den for v in row)) for row in a]
    f, s, q = _gauss_jordan(
        [[v.num * poly_divmod(m, v.den)[0] for v in row] for row, m in zip(a, lcms)])
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
