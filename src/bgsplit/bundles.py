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

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import linalg  # sparse_int_rows and det_q, looked up per call: perfbench wraps them
from .errors import InternalSearchExhausted, InvalidBundle, WorkBudgetExceeded, decimal
from .laurent import LaurentPoly
from .linalg import Row, Runs, echelon_insert, sparse_kernel
from .lmatrix import LaurentMatrix, _product
from .orderbasis import factor_to_diagonal


@dataclass(frozen=True)
class BundleOnP1:
    """Rank-n bundle presented by its transition matrix (unit det)."""

    transition: LaurentMatrix
    rank: int
    det_coeff: Fraction
    det_exponent: int


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
# steps.  On the proven degree bound the benchmark's systems have under 10^2
# unknowns, a planted rank-24 bundle's 5*10^3 and h0 on x^20000 2*10^4; h0 on
# x^99999999999 would need 10^11, split on it 2.  [[x^N, 1], [0, x^-N]] fits
# up to N = 16,383 for split and factor and up to N = 32,767 for h0.
SECTION_BUDGET = 1 << 16


def _degree_bound(e: BundleOnP1, k: int, extra: int) -> int:
    """Most 1/x-degree of s1 in a section of E(k), plus ``extra``.

    With det A = c*x^t, s0 = x^k*A*s1 gives s1 = c^-1*x^(-k-t)*adj(A)*s0.
    Every adjugate entry is a sum of products of n - 1 entries of A, so
    its exponents are at least (n - 1)*lo, lo the lowest entry exponent;
    s0 has no negative exponent.  So s1 has 1/x-degree at most
    k + t - (n - 1)*lo.  The bound grows with k, and diag(x^a, x^b)
    attains it: its top section has degree k + max(a, b).
    """
    lo = e.transition.exponent_range()[0]
    return max(0, k + e.det_exponent - (e.rank - 1) * lo) + extra


def _section_rows(a: LaurentMatrix, k: int, bound: int) -> Tuple[List[List[Runs]], int, int]:
    """Linear system 'negative-exponent coefficients of x^k*A*s1 vanish'.

    Unknowns are the coefficients c[j, b] of s1_j = sum_b c[j, b] x^-b,
    0 <= b <= bound, laid out so the system is banded: column index
    (bound - b) * n + j.  Rows are indexed by (target exponent e < 0,
    component i) and grouped by e in ascending order, from k + lo - bound
    up to min(-1, k + hi), above which x^k*A*s1 has no term; rows without
    an entry are left out.  Each row is a window of row i of the
    generator, which holds the x^t coefficient of A[i, j] at
    (hi - t) * n + j and is scaled by the lcm of its denominators, and is
    given as integer runs (see ``linalg.Runs``).  Returns the groups, the
    number of unknowns and the target exponent of the first group.
    """
    n = a.n
    lo, hi = a.exponent_range()
    low, top = k + lo - bound, min(0, k + hi + 1)  # top: past the last target exponent
    if max(n * (bound + 1), top - low) > SECTION_BUDGET:
        raise WorkBudgetExceeded(f"section system of twist {decimal(k)} needs degree bound "
                                 f"{decimal(bound)} in rank {n}, over the work budget of "
                                 f"{SECTION_BUDGET}")
    generator = linalg.sparse_int_rows([linalg.runs(sorted(
        ((hi - t) * n + j, v) for j in range(n) for t, v in a[i, j]._terms.items()))
        for i in range(n)])
    ncols = n * (bound + 1)
    groups: List[List[Runs]] = []
    for e in range(low, top):
        base = (bound - k + e - hi) * n  # the column of generator offset 0
        first, stop = -base, ncols - base  # the generator offsets of columns 0 and ncols
        group = []
        for runs in generator:
            row = [(base + o if o > first else 0, window) for o, entries in runs if o < stop
                   and any(window := entries[first - o if o < first else 0:stop - o])]
            if row:
                group.append(row)
        groups.append(group)
    return groups, ncols, low


def _h0_dimension(e: BundleOnP1, k: int) -> int:
    return section_profile(e, k, k)[k]


def section_profile(
    e: BundleOnP1, kmin: int, kmax: int, extra: int = 0
) -> Dict[int, int]:
    """{k: dim H^0(E(k))} for kmin <= k <= kmax, from one elimination.

    With one degree bound valid for every twist in the range, the twist-k
    system is the prefix of the twist-kmin system whose target exponents
    are below kmin - k (the rows where A*s1 has exponent below -k).  The
    rows are inserted into one echelon form in ascending target exponent,
    and the nullity is read off each time the prefix reaches a cutoff.
    """
    bound = _degree_bound(e, kmax, extra)  # it grows with k
    groups, ncols, low = _section_rows(e.transition, kmin, bound)
    pivots: Dict[int, Row] = {}
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
    bound = _degree_bound(e, k, 0)
    groups, ncols, _ = _section_rows(a, k, bound)
    columns = []
    for vec in sparse_kernel([row for group in groups for row in group], ncols):
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
    multiplicity.  All indices lie within the entry exponent range of
    the transition matrix, which bounds the scan.  The whole profile
    comes from one elimination (section_profile): each twist's section
    system is a prefix of the lowest twist's, so ranks of the nested
    prefixes give every h(k) -- the partial indices from ranks of nested
    block-Toeplitz sections (Gohberg-Feldman, Convolution Equations and
    Projection Methods, 1974; Adukov, Wiener-Hopf factorization of
    meromorphic matrix functions, 1992).  The result must account for
    all n indices and sum to the determinant exponent, and on any
    inconsistency the scan widens, the section degree bound doubles, and
    the profile is recomputed.  The profile returned covers at least
    -hi - 2 <= k <= -lo + 1, (lo, hi) the entry exponent range.
    """
    lo, hi = e.transition.exponent_range()
    n, t, pad, extra = e.rank, e.det_exponent, 1, 0
    for _ in range(4):
        kmin, kmax = -hi - pad, -lo + pad
        h = section_profile(e, kmin - 1, kmax, extra)
        delta = {k: h[k] - h[k - 1] for k in range(kmin, kmax + 1)}
        indices: List[int] = []
        ok = h[kmin - 1] == 0
        for v in range(-kmin - 1, -kmax - 1, -1):
            mult = delta[-v] - delta[-v - 1]
            if mult < 0:
                ok = False
                break
            indices.extend([v] * mult)
        if ok and len(indices) == n and sum(indices) == t:
            return SplittingType(tuple(indices)), h
        pad *= 2
        extra = 2 * extra + n * (hi - lo + 1)
    raise InternalSearchExhausted("section-count profile stayed inconsistent after widening; "
                                  "this indicates a defect, not bad input")


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
    """Dual bundle: transition (A^T)^-1, whose determinant is 1 / det A."""
    return BundleOnP1(e.transition.transpose().inverse(), e.rank,
                      1 / e.det_coeff, -e.det_exponent)


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
    """h0 - h1 = deg + rank on E(k); holds for every bundle (self-test)."""
    h0, h1, deg_k = _h0_dimension(e, k), h1_dim(e, k), e.det_exponent + e.rank * k
    return RiemannRochReport(h0=h0, h1=h1, degree=deg_k, rank=e.rank,
                             holds=(h0 - h1 == deg_k + e.rank))


def is_isomorphic(e1: BundleOnP1, e2: BundleOnP1) -> bool:
    """Bundles are isomorphic iff ranks and splitting types agree."""
    return e1.rank == e2.rank and splitting_type(e1) == splitting_type(e2)
