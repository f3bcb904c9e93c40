"""Vector bundles on the Riemann sphere from Laurent transition matrices.

Conventions (fixed once, everything else is calibrated to them):

* A rank-n bundle is the gluing of two trivial patches over the
  punctured chart overlap by an invertible Laurent matrix A(x): a global
  section is a pair (s0, s1) of vector polynomials, s0 in x and s1 in
  1/x, with

      s0(x) = A(x) * s1(1/x)        (exactly).

  Internally s1 is stored already evaluated at 1/x, i.e. as a Laurent
  vector with nonpositive exponents, so the identity reads
  ``s0 = A @ s1`` termwise.

* The line bundle O(k) has the 1x1 transition x^k, so the section pair
  condition gives dim H^0(O(k)) = k + 1 for k >= 0 and 0 otherwise.
  Twisting by O(k) multiplies the transition by x^k.

* Every bundle splits as O(d_1) + ... + O(d_n) with a unique descending
  index sequence; equivalently B * A * C = diag(x^d_i) for polynomial B
  and antipolynomial C, both of constant nonzero determinant.  The index
  multiset is recovered here from section counts alone (splitting_type),
  and independently by an explicit factorization (birkhoff_factor); the
  two routes are cross-checked in the test suite, never merged.

All arithmetic is exact; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import linalg  # sparse_int_rows and det_q, looked up per call: perfbench wraps them
from .errors import InternalSearchExhausted, InvalidBundle, WorkBudgetExceeded, decimal
from .laurent import LaurentPoly
from .linalg import Row, Runs, echelon_insert, sparse_kernel
from .lmatrix import LaurentMatrix, _product
from .orderbasis import factor_to_diagonal


@dataclass(frozen=True)
class BundleOnP1:
    """Rank-n bundle presented by its transition matrix (unit det).

    ``inverse_lo`` is the lowest exponent of A^-1 when the constructor is
    given it, as ``dual`` is; the section route never writes it back."""

    transition: LaurentMatrix
    rank: int
    det_coeff: Fraction
    det_exponent: int
    inverse_lo: Optional[int] = field(default=None, compare=False, repr=False)


def bundle(rows_or_matrix: Union[LaurentMatrix, Sequence[Sequence]]) -> BundleOnP1:
    """The bundle with transition A (a LaurentMatrix or entry rows), det A = c*x^t."""
    if not isinstance(rows_or_matrix, LaurentMatrix):
        rows_or_matrix = LaurentMatrix(rows_or_matrix)
    unit = rows_or_matrix.unit_det()
    if unit is None:
        raise InvalidBundle("transition determinant is not a unit c*x^t; not a bundle datum")
    c, t = unit
    return BundleOnP1(rows_or_matrix, rows_or_matrix.n, c, t)


@dataclass(frozen=True)
class SplittingType:
    """Descending multiset of line-bundle indices d_1 >= ... >= d_n."""

    indices: Tuple[int, ...]

    def __post_init__(self):
        if any(self.indices[i] < self.indices[i + 1] for i in range(len(self.indices) - 1)):
            object.__setattr__(self, "indices", tuple(sorted(self.indices, reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.indices)

    @property
    def degree(self) -> int:
        return sum(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __str__(self) -> str:
        return "(" + ", ".join(str(d) for d in self.indices) + ")"


@dataclass(frozen=True)
class SectionSpace:
    """Global sections of E(k): basis pairs satisfying s0 = x^k * A @ s1."""

    twist: int
    dimension: int
    basis: Tuple[Tuple[Tuple[LaurentPoly, ...], Tuple[LaurentPoly, ...]], ...]


@dataclass(frozen=True)
class Factorization:
    """Certified diagonal form: b @ a @ c = diag(x^d) exactly, d the
    ``claimed`` exponents in their order when given (as a document's
    diagonal may be), else the descending splitting type."""

    b: LaurentMatrix
    c: LaurentMatrix
    exponents: SplittingType
    claimed: Optional[Tuple[int, ...]] = None

    def diagonal(self) -> LaurentMatrix:
        return LaurentMatrix.diagonal_powers(self.claimed or self.exponents.indices)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    failed_clause: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class RiemannRochReport:
    h0: int
    h1: int
    degree: int
    rank: int
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


# -- section spaces ----------------------------------------------------

# Most unknowns n*(bound+1), or target exponents, of a section system, and most
# n*(span+1) of a factorization, whose order-basis loop takes about that many
# steps.  A section system is charged on the adjugate degree bound, before the
# exact one is read, so no refusal depends on the Toeplitz pass.  On that bound
# the benchmark's systems have under 10^2 unknowns, a planted rank-24 bundle's
# 5*10^3 (4*10^2 on the exact bound) and h0 on x^20000 2*10^4; h0 on
# x^99999999999 would need 10^11, split on it 2.  [[x^N, 1], [0, x^-N]] fits up
# to N = 16,383 for split and factor and up to N = 32,767 for h0.
SECTION_BUDGET = 1 << 16


def _adjugate_lo(e: BundleOnP1) -> int:
    """(n - 1)*lo - t, the lower bound on the exponents of A^-1 that its
    adjugate gives (see _degree_bound)."""
    return (e.rank - 1) * e.transition.exponent_range()[0] - e.det_exponent


def _charge(e: BundleOnP1, kmin: int, kmax: int) -> None:
    """WorkBudgetExceeded when the twist-kmin section system on the
    adjugate degree bound of twist kmax is over SECTION_BUDGET."""
    lo, hi = e.transition.exponent_range()
    bound = max(0, kmax - _adjugate_lo(e))
    if max(e.rank * (bound + 1), min(0, kmin + hi + 1) - (kmin + lo - bound)) > SECTION_BUDGET:
        raise WorkBudgetExceeded(f"section system of twist {decimal(kmin)} needs degree bound "
                                 f"{decimal(bound)} in rank {e.rank}, over the work budget of "
                                 f"{SECTION_BUDGET}")


def _degree_bound(e: BundleOnP1, k: int, inverse_lo: Optional[int] = None) -> int:
    """Most 1/x-degree of s1 in a section of E(k).

    s0 = x^k*A*s1 gives s1 = x^-k*A^-1*s0, and s0 has no negative
    exponent, so s1 has 1/x-degree at most k - lo(A^-1), lo(A^-1) the
    lowest exponent of A^-1, given as ``inverse_lo`` once known.  The
    bound grows with k, and diag(x^a, x^b) attains it: its top section
    has degree k + max(a, b).

    lo(A^-1) without A^-1: with lo the lowest entry exponent of A and
    det A = c*x^t, P = x^-lo*A is polynomial, det P = c*x^tau with
    tau = t - n*lo.  Over Q[[x]], P = U*diag(x^e_1, ..., x^e_n)*V with U
    and V invertible and e_1 <= ... <= e_n (the local Smith form at 0), so
    P^-1 has x-adic order -e_n and lo(A^-1) = -lo - e_n.  The kernel of
    T_m, the block lower-triangular Toeplitz matrix of P's first m
    coefficient blocks, is the v of degree below m with P*v = 0 mod x^m;
    U and V carry it onto the w with x^e_i*w_i = 0 mod x^m, so it has
    dimension sum(min(e_i, m)), and e_n (<= tau) is the first m at which
    m*n - rank(T_m) reaches tau.  T_m is the first m target-exponent
    groups of every section system on a bound of m - 1 or more: with w_q
    the coefficients of x^(q - bound) in s1, at columns q*n to q*n + n - 1
    (_section_groups), group r is sum_s P_s*w_(r-s) at any twist and
    bound.  So _toeplitz_pass inserts the groups one at a time and reads
    each rank.

    The adjugate gives a lower bound: A^-1 = c^-1*x^-t*adj(A), and every
    adjugate entry is a sum of products of n - 1 entries of A, so
    lo(A^-1) >= (n - 1)*lo - t, the bound used until lo(A^-1) is found.
    It is exact for n <= 2, where adj(A) holds A's own entries up to
    sign, and for tau = 0, where e_n = 0.
    """
    return max(0, k - (_adjugate_lo(e) if inverse_lo is None else inverse_lo))


def _toeplitz_pass(e: BundleOnP1, k: int, pivots: Dict[int, Row]) -> Tuple[int, Optional[int]]:
    """Insert the first groups of the section systems into ``pivots`` one
    at a time until the ranks give e_n (see _degree_bound); return how
    many groups, and lo(A^-1) = -lo - e_n or None.

    At most min(tau, k - (n - 1)*lo + t) groups are read, no more
    unknowns than the twist-k system on the adjugate bound has; when e_n
    lies beyond them lo(A^-1) is None.  No pass runs when the bundle
    holds lo(A^-1), which is returned, nor for n <= 2, where the
    adjugate bound is exact.
    """
    if e.inverse_lo is not None or e.rank <= 2:
        return 0, e.inverse_lo
    adjugate, lo = _adjugate_lo(e), e.transition.exponent_range()[0]
    tau = -lo - adjugate
    cap = min(tau, k - adjugate)
    m = 0  # the twist -lo - 1 system on the bound cap - 1 has exactly cap groups
    for m, group in enumerate(_section_groups(e.transition, -lo - 1, cap - 1), 1):
        for row in group:
            echelon_insert(pivots, row)
        if m * e.rank - len(pivots) == tau:
            return m, -lo - m
    return m, None


def _section_groups(a: LaurentMatrix, k: int, bound: int, start: int = 0) -> Iterator[List[Runs]]:
    """Linear system 'negative-exponent coefficients of x^k*A*s1 vanish'.

    Unknowns are the coefficients c[j, b] of s1_j = sum_b c[j, b] x^-b,
    0 <= b <= bound, laid out so the system is banded: column index
    (bound - b) * n + j.  Rows are indexed by (target exponent e < 0,
    component i) and grouped by e in ascending order, from k + lo - bound
    up to min(-1, k + hi), above which x^k*A*s1 has no term; rows without
    an entry are left out.  Each row is a window of row i of the
    generator, which holds the x^t coefficient of A[i, j] at
    (hi - t) * n + j and is scaled by the lcm of its denominators, and is
    given as integer runs (see ``linalg.Runs``).  Yields the groups from
    the ``start``-th on.
    """
    n = a.n
    lo, hi = a.exponent_range()
    generator = linalg.sparse_int_rows([linalg.runs(sorted(
        ((hi - t) * n + j, v) for j in range(n) for t, v in a[i, j]._terms.items()))
        for i in range(n)])
    ncols = n * (bound + 1)
    for e in range(k + lo - bound + start, min(0, k + hi + 1)):
        base = (bound - k + e - hi) * n  # the column of generator offset 0
        first, stop = -base, ncols - base  # the generator offsets of columns 0 and ncols
        group = []
        for runs in generator:
            row = [(base + o if o > first else 0, window) for o, entries in runs if o < stop
                   and any(window := entries[first - o if o < first else 0:stop - o])]
            if row:
                group.append(row)
        yield group


def _section_rows(
    a: LaurentMatrix, k: int, bound: int, start: int
) -> Tuple[List[List[Runs]], int, int]:
    """The groups of the twist-k section system on ``bound`` from the
    ``start``-th on (_section_groups), the number of unknowns and the
    target exponent of the first group returned."""
    return (list(_section_groups(a, k, bound, start)), a.n * (bound + 1),
            k + a.exponent_range()[0] - bound + start)


def _section_system(
    e: BundleOnP1, kmin: int, kmax: int
) -> Tuple[Dict[int, Row], List[List[Runs]], int, int, int]:
    """The twist-kmin section system on the degree bound of twist kmax,
    charged to SECTION_BUDGET on the adjugate bound first:
    (pivots, groups, ncols, low, bound), pivots the echelon form of the
    groups _toeplitz_pass inserted and groups the rest, the first at target
    exponent low.  The pass's groups are this system's own up to group
    ``bound``, and the system has at least as many: bound + hi - lo + 1
    when kmin < -hi - 1, else at least kmax - kmin + e_n (kmax - kmin + tau
    when the pass found no lo(A^-1)).  Past ``bound`` a group is cut at the
    last column, so there the system starts afresh.
    """
    _charge(e, kmin, kmax)
    pivots: Dict[int, Row] = {}
    done, inverse_lo = _toeplitz_pass(e, kmax, pivots)
    bound = _degree_bound(e, kmax, inverse_lo)
    if done > bound + 1:  # a twist below -lo - 1: the pass read past the bound
        pivots, done = {}, 0
    groups, ncols, low = _section_rows(e.transition, kmin, bound, done)
    return pivots, groups, ncols, low, bound


def _h0_dimension(e: BundleOnP1, k: int) -> int:
    return section_profile(e, k, k)[k]


def section_profile(e: BundleOnP1, kmin: int, kmax: int) -> Dict[int, int]:
    """{k: dim H^0(E(k))} for kmin <= k <= kmax, from one elimination.

    With one degree bound valid for every twist in the range, the twist-k
    system is the prefix of the twist-kmin system whose target exponents
    are below kmin - k (the rows where A*s1 has exponent below -k).  The
    rows are inserted into one echelon form in ascending target exponent,
    and the nullity is read off each time the prefix reaches a cutoff.
    """
    pivots, groups, ncols, low, _ = _section_system(e, kmin, kmax)  # the bound grows with k
    done = 0
    profile = {}
    for k in range(kmax, kmin - 1, -1):
        cutoff = min(len(groups), kmin - k - low)  # the groups below kmin - k
        for group in groups[done:cutoff]:
            for row in group:
                echelon_insert(pivots, row)
        done = cutoff
        profile[k] = ncols - len(pivots)
    return dict(sorted(profile.items()))


def h0_dim(e: BundleOnP1, k: int = 0) -> SectionSpace:
    """Global sections of E(k), with an explicit exact basis.

    The dimension equals sum(max(0, d_i + k + 1)) over the splitting
    indices; the basis pairs satisfy s0 = x^k * A @ s1 exactly, with s0
    polynomial in x and s1 polynomial in 1/x (stored with nonpositive
    exponents).  Basis vectors are echelon-normalized for determinism.
    """
    a = e.transition
    n = e.rank
    pivots, groups, ncols, _, bound = _section_system(e, k, k)
    columns = []
    for vec in sparse_kernel([row for group in groups for row in group], ncols, pivots):
        # column (bound - b) * n + j holds the x^-b coefficient of s1_j
        terms: List[Dict[int, Fraction]] = [{} for _ in range(n)]
        for col, v in vec.items():
            terms[col % n][col // n - bound] = v
        columns.append(tuple(LaurentPoly(t) for t in terms))
    images = zip(*_product(a.entries, columns)) if columns else ()
    basis = tuple((tuple(p.shift(k) for p in s0), s1) for s0, s1 in zip(images, columns))
    return SectionSpace(twist=k, dimension=len(basis), basis=basis)


# -- splitting type from the section-count profile ----------------------


def splitting_type(e: BundleOnP1) -> SplittingType:
    """The splitting type alone; see splitting_type_and_profile."""
    return splitting_type_and_profile(e)[0]


def splitting_type_and_profile(e: BundleOnP1) -> Tuple[SplittingType, Dict[int, int]]:
    """The splitting type, and the section_profile it was read from.

    With h(k) = dim H^0(E(k)), the increment h(k) - h(k-1) counts the
    indices d_i >= -k, so consecutive increments recover every
    multiplicity.  All indices lie within the entry exponent range
    (lo, hi) of the transition matrix, so the profile over
    -hi - 2 <= k <= -lo + 1 holds them all.  It comes from one
    elimination (section_profile): each twist's section system is a
    prefix of the lowest twist's, so ranks of the nested prefixes give
    every h(k) -- the partial indices from ranks of nested block-Toeplitz
    sections (Gohberg-Feldman, Convolution Equations and Projection
    Methods, 1974; Adukov, Wiener-Hopf factorization of meromorphic
    matrix functions, 1992).  On the exact degree bound (_degree_bound)
    h(-hi - 2) is 0, every multiplicity is nonnegative, and the indices
    number n and sum to the determinant exponent; a profile that fails
    any of these is a defect and raises InternalSearchExhausted.
    """
    lo, hi = e.transition.exponent_range()
    h = section_profile(e, -hi - 2, -lo + 1)
    mults = {v: h[-v] - 2 * h[-v - 1] + h[-v - 2] for v in range(hi, lo - 2, -1)}
    if (h[-hi - 2] or min(mults.values()) < 0 or sum(mults.values()) != e.rank
            or sum(v * m for v, m in mults.items()) != e.det_exponent):
        raise InternalSearchExhausted("section-count profile is inconsistent; "
                                      "this indicates a defect, not bad input")
    return SplittingType(tuple(v for v, m in mults.items() for _ in range(m))), h


# -- explicit factorization ---------------------------------------------


def birkhoff_factor(e: BundleOnP1) -> Factorization:
    """Explicit B @ A @ C = diag(x^d) with descending d, certified exactly.

    B has polynomial entries, C antipolynomial ones, both of constant
    determinant.  The pair is not unique but the exponents are a bundle
    invariant.  Only e.transition is read, never the det_exponent of the
    section route.  The result is verified by multiply-back; a failure is
    a defect and raises InternalSearchExhausted.  The iteration steps
    once per order up to about rank * span orders, so that product is
    held to SECTION_BUDGET first (WorkBudgetExceeded).
    """
    lo, hi = e.transition.exponent_range()
    if e.rank * (hi - lo + 1) > SECTION_BUDGET:
        raise WorkBudgetExceeded(f"factorization in rank {e.rank} needs more than "
                                 f"{SECTION_BUDGET // e.rank} orders, over the work budget "
                                 f"of {SECTION_BUDGET}")
    b, exponents, c = factor_to_diagonal(e.transition)
    factorization = Factorization(b=b, c=c, exponents=SplittingType(exponents))
    report = verify_factorization(e, factorization)
    if not report.valid:
        raise InternalSearchExhausted(f"factorization failed its own certificate: {report.detail}")
    return factorization


def verify_factorization(
    e: Union[BundleOnP1, LaurentMatrix], factorization: Factorization
) -> VerificationReport:
    """Exact check of every factorization clause; never raises.

    Clauses, in reporting order: shapes agree; det(B) is a nonzero
    constant; det(C) is a nonzero constant; B has no negative exponents;
    C has no positive exponents; B @ A @ C equals the claimed diagonal.

    A valid factorization is recognised without a Laurent determinant:
    the shapes agree, B is polynomial, C antipolynomial, the constant
    terms B(0) and C_0 are nonsingular over Q, and B @ A @ C equals the
    diagonal.  Those five imply the two determinant clauses.  From
    B*A*C = diag(x^d), det B * det A * det C = x^(sum d), a unit of
    Q[x, x^-1], so each factor is a unit, det B = c*x^e with c != 0.
    B is polynomial, so det B is too and e >= 0; det B(0) is its
    constant term, nonzero only when e = 0.  Likewise det C = c'*x^e'
    with e' <= 0, and det C_0 != 0 forces e' = 0.  Any other document
    goes through the clauses in order, so the first failing clause and
    its detail are those of the full check.
    """
    a = e.transition if isinstance(e, BundleOnP1) else e
    b, c = factorization.b, factorization.c
    if (a.n == b.n == c.n == len(factorization.exponents.indices)
            and b.is_polynomial() and c.is_antipolynomial()
            and linalg.det_q(_constant_terms(b)) and linalg.det_q(_constant_terms(c))
            and b @ a @ c == factorization.diagonal()):
        return VerificationReport(True)
    return _clause_report(a, factorization)


def _constant_terms(m: LaurentMatrix) -> List[List[Fraction]]:
    return [[v.coeff(0) for v in row] for row in m.entries]


def _clause_report(a: LaurentMatrix, factorization: Factorization) -> VerificationReport:
    """verify_factorization clause by clause, with the Laurent determinants."""
    b, c = factorization.b, factorization.c
    exps = factorization.exponents.indices
    if not (a.n == b.n == c.n == len(exps)):
        return VerificationReport(False, "shape", "dimensions disagree")
    for name, factor in (("B", b), ("C", c)):
        det = factor.det()
        unit = det.as_monomial()
        if unit is None or unit[1] != 0:
            return VerificationReport(False, f"det({name}) constant",
                                      f"det({name}) = {det} is not a nonzero constant")
    if not b.is_polynomial():
        return VerificationReport(False, "B polynomial", "B has a negative exponent")
    if not c.is_antipolynomial():
        return VerificationReport(False, "C antipolynomial", "C has a positive exponent")
    if b @ a @ c != factorization.diagonal():
        return VerificationReport(False, "product diagonal",
                                  "B*A*C differs from the claimed diagonal")
    return VerificationReport(True)


# -- functorial operations ----------------------------------------------


def dual(e: BundleOnP1) -> BundleOnP1:
    """Dual bundle: transition (A^T)^-1, whose determinant is 1 / det A and
    whose inverse A^T has A's lowest exponent."""
    return BundleOnP1(e.transition.transpose().inverse(), e.rank,
                      1 / e.det_coeff, -e.det_exponent, e.transition.exponent_range()[0])


def twist(e: BundleOnP1, k: int) -> BundleOnP1:
    """E(k) = E tensor O(k): transition x^k * A, whose determinant is
    x^(nk) det A."""
    n = e.rank
    return BundleOnP1(e.transition.shift(k), n, e.det_coeff, e.det_exponent + n * k)


def det_bundle(e: BundleOnP1) -> BundleOnP1:
    """Determinant line bundle, with 1x1 transition det(A) = c*x^t."""
    c, t = e.det_coeff, e.det_exponent
    return BundleOnP1(LaurentMatrix([[LaurentPoly({t: c})]]), 1, c, t)


def degree(e: BundleOnP1) -> int:
    """deg E = deg det E = the exponent t in det A = c*x^t."""
    return e.det_exponent


def h1_dim(e: BundleOnP1, k: int = 0) -> int:
    """dim H^1(E(k)), via duality against the canonical bundle O(-2):

        h1(E(k)) = h0(E* (-k-2)) = sum(max(0, -d_i - k - 1)).
    """
    return _h0_dimension(dual(e), -k - 2)


def riemann_roch_check(e: BundleOnP1, k: int = 0) -> RiemannRochReport:
    """h0 - h1 = deg + rank on E(k); holds for every bundle (self-test).

    h1 is h1_dim's h0 on the dual, which also gives E's degree bounds:
    A^-1 = ((A^T)^-1)^T has the lowest exponent of the dual's transition.
    The twist-k system is charged before the dual is inverted, as in h0.
    """
    _charge(e, k, k)
    d = dual(e)
    h0 = _h0_dimension(replace(e, inverse_lo=d.transition.exponent_range()[0]), k)
    h1, deg_k = _h0_dimension(d, -k - 2), e.det_exponent + e.rank * k
    return RiemannRochReport(h0=h0, h1=h1, degree=deg_k, rank=e.rank,
                             holds=(h0 - h1 == deg_k + e.rank))


def is_isomorphic(e1: BundleOnP1, e2: BundleOnP1) -> bool:
    """Bundles are isomorphic iff ranks and splitting types agree."""
    return e1.rank == e2.rank and splitting_type(e1) == splitting_type(e2)
