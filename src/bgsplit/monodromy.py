"""Exact checks on monodromy-style tuples of invertible rational matrices.

A representation is an ordered tuple (M_1, ..., M_N) of invertible n x n
rational matrices, the images of small loops around the punctures.
Composition of loops acts contravariantly: the image of the composite
loop g1 g2 is M(g2) M(g1).  The product-identity convention therefore
fixes the stored order, and check_product_identity multiplies
left-to-right in that order.

Irreducibility over C rests on Burnside's theorem: the unital algebra
generated by the matrices acts irreducibly on C^n exactly when it is all
of the n x n matrices, and the dimension of the word span over Q equals
its dimension over any extension field.  The cheapest certificate
decides, as in the MeatAxe (Holt-Rees 1994): a proper invariant subspace
spun from a rational eigenvector (reducible), else n^2 words independent
modulo the prime WORD_SPAN_PRIME = 2^25 - 39 (irreducible), else the
exact word-span closure over Q, the only step that sees a tuple
reducible over C but not over Q.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NotInvertible
from .laurent import LaurentPoly
from .lmatrix import _digit_bytes, _pack, _unpack
from .linalg import (
    IntMatrix,
    Matrix,
    Row,
    charpoly,
    det_q,
    echelon_insert,
    echelon_insert_mod,
    identity_q,
    integer_scaled,
    inverse_q,
    mat_mul,
    nullspace,
    qmat,
    rank,
    rational_roots,
    row_entries,
    trace,
    transpose,
)

WORD_SPAN_PRIME = 2**25 - 39  # of the modular word-span closure, the largest prime below 2^25
Word = Tuple[int, ...]


@dataclass(frozen=True)
class MonodromyRep:
    """Ordered tuple of invertible rational matrices (loop images)."""

    size: int
    matrices: Tuple[Matrix, ...]

    def loop_image(self, word: Sequence[int]) -> Matrix:
        """Image of the composite loop word[0] word[1] ...; matrices
        multiply in reversed order (anti-homomorphism bookkeeping)."""
        out = identity_q(self.size)
        for idx in reversed(word):
            out = mat_mul(out, self.matrices[idx])
        return out

    def conjugated(self, s: Sequence[Sequence]) -> "MonodromyRep":
        """The isomorphic representation S^-1 M S, matrix by matrix."""
        sm = qmat(s)
        s_inv = inverse_q(sm)
        return MonodromyRep(
            size=self.size,
            matrices=tuple(mat_mul(mat_mul(s_inv, m), sm) for m in self.matrices),
        )


def monodromy_rep(matrices: Sequence[Sequence[Sequence]]) -> MonodromyRep:
    """The tuple of loop images, invertible and square of one size."""
    mats = tuple(qmat(m) for m in matrices)
    if not mats:
        raise DimensionMismatch("a representation needs at least one matrix")
    n = len(mats[0])
    if not n:
        raise DimensionMismatch("matrix dimension must be at least 1")
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise DimensionMismatch("matrices must be square of equal size")
        if det_q(m) == 0:
            raise NotInvertible("loop images must be invertible")
    return MonodromyRep(size=n, matrices=mats)


@dataclass(frozen=True)
class JordanProfile:
    """Whether a matrix has a single eigenvalue, and a single Jordan block.

    A single eigenvalue of full multiplicity forces mu = trace/n, which
    is rational, so the check is complete over Q: the candidate is
    mu = trace/n and the test is charpoly == (lambda - mu)^n exactly;
    single_block additionally requires rank(M - mu I) = n - 1.  ``charpoly``
    is the characteristic polynomial of M that the test computed.
    """

    single_eigenvalue: Optional[Fraction]
    single_block: bool
    charpoly: LaurentPoly


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """Evidence for the answer of ``is_irreducible``.

    ``subspace`` is an integer basis of a proper nonzero subspace that
    every matrix maps into itself (reducible).  ``words`` are n^2 words
    whose loop images ``rep.loop_image(word)`` are linearly independent,
    modulo ``WORD_SPAN_PRIME`` = 2^25 - 39 or, after an unlucky prime,
    over Q, so they span all n x n matrices (irreducible).  Both are None
    when the exact closure found a word span below n^2: reducible over C,
    with no rational witness.
    """

    irreducible: bool
    subspace: Optional[Tuple[Tuple[int, ...], ...]] = None
    words: Optional[Tuple[Tuple[int, ...], ...]] = None


@dataclass(frozen=True)
class CriterionReport:
    """Joint report of the non-realizability test hypotheses.

    applies = product_is_identity and reducible and all_single_block and
    eigenvalue_product != 1, with size >= 4 required; when it holds the
    representation is not the monodromy of any differential system on
    the sphere with only simple poles.
    """

    size: int
    product_is_identity: bool
    reducible: bool
    all_single_block: bool
    eigenvalues: Optional[Tuple[Fraction, ...]]
    eigenvalue_product: Optional[Fraction]
    applies: bool
    reason: str = ""
    invariant_subspace_witness: Optional[Tuple[int, ...]] = None
    certificate: Optional[IrreducibilityCertificate] = None


def check_product_identity(rep: MonodromyRep) -> bool:
    """Exact test M_1 M_2 ... M_N = identity, in stored order, on the
    integer forms N_i = d_i*M_i: N_1 N_2 ... N_N = (d_1 d_2 ... d_N)*I."""
    n = rep.size
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    scale, out = 1, identity
    for m in rep.matrices:
        d, big_n = integer_scaled(m)
        scale, out = scale * d, mat_mul(out, big_n)
    return out == tuple(tuple(scale * v for v in row) for row in identity)


def _word_span_dimension(
    rep: MonodromyRep, prime: Optional[int] = None, words: Optional[List[Word]] = None
) -> int:
    """Dimension over Q of the unital algebra generated by the matrices,
    or with a ``prime`` p the dimension over F_p, a lower bound for it.

    Breadth-first closure of {I} under right multiplication by the
    generators, tracked by echelon reduction of the flattened matrices
    over Z (``echelon_insert``) or over F_p (``echelon_insert_mod``).  Each
    generator is scaled once to an integer matrix; a nonzero scalar does
    not change whether a word lies in a span, so the accepted words and
    the dimension are those of the rational tuple.  Words independent
    modulo p are independent over Q, since a minor nonzero modulo p is
    nonzero.  The accepted words, one per dimension, are appended to
    ``words`` when it is given.

    Over F_p a word's matrix M has entries in [0, p), and each generator
    G, reduced into [0, p), is the column G_X of its rows packed by
    ``lmatrix._pack`` at X = 2^(8*width).  Row i of the one product M G_X
    packs row i of M G, with entries at most n*(p - 1)^2; these rows,
    packed in turn at X^n, are M G flattened, with digits below n*p^2.
    By the bound of ``echelon_insert_mod`` with k = n and m = n^2
    columns, a width with (n^2 + n)*p^2 < 2^(8*width - 1) keeps every
    digit exact, and so does any wider one.  The width is at least 8
    bytes: at ``WORD_SPAN_PRIME`` = 2^25 - 39 and n <= 90, where
    (n^2 + n)*p^2 < 2^63, every digit is then exactly one unsigned 8-byte
    word, which ``_unpack`` reads by one ``struct`` call; n >= 91 needs 9.
    """
    n = rep.size
    pivots: dict = {}
    frontier: deque = deque()
    gens = [integer_scaled(m)[1] for m in rep.matrices]
    if prime:
        width = max(8, _digit_bytes((n * n + n) * prime * prime))
        gens = [tuple((_pack([v % prime for v in row], width),) for row in g) for g in gens]
        start = tuple((_pack([0] * i + [1], width),) for i in range(n))  # the packed rows of I

        def insert(column: IntMatrix) -> Optional[IntMatrix]:
            row = _pack([v for (v,) in column], n * width)
            if echelon_insert_mod(pivots, row, prime, width) is None:
                return None
            digits = [v % prime for v in _unpack(row, width)] + [0] * (n * n)
            return tuple(tuple(digits[n * i:n * i + n]) for i in range(n))
    else:
        start = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

        def insert(mat: IntMatrix) -> Optional[IntMatrix]:
            kept = echelon_insert(pivots, [(0, [v for r in mat for v in r])])
            return None if kept is None else mat

    def visit(word: Word, candidate: IntMatrix) -> None:
        mat = insert(candidate)
        if mat is not None:
            frontier.append((word, mat))
            if words is not None:
                words.append(word)

    visit((), start)
    while frontier and len(pivots) < n * n:
        word, mat = frontier.popleft()
        for i, gen in enumerate(gens):
            visit((i,) + word, mat_mul(mat, gen))
    return len(pivots)


def _spin(seed: Sequence[int], gens: Sequence[IntMatrix]) -> Tuple[Tuple[int, ...], ...]:
    """Echelon basis of the smallest subspace that contains ``seed`` and
    that every generator maps into itself, exact over Z.  The spin stops
    as soon as it is all of Q^n."""
    n = len(seed)
    pivots: Dict[int, Row] = {}
    queue: List[int] = []

    def add(vec) -> None:
        c = echelon_insert(pivots, [(0, list(vec))])
        if c is not None:
            queue.append(c)

    def dense(row: Row) -> Tuple[int, ...]:
        out = [0] * n
        for c, v in row_entries(row).items():
            out[c] = v
        return tuple(out)

    add(seed)
    for c in queue:
        if len(pivots) == n:
            break
        row = dense(pivots[c])
        for g in gens:
            add(sum(w * v for w, v in zip(g[i], row)) for i in range(n))
    return tuple(dense(row) for _, row in sorted(pivots.items()))


def _invariant_subspace(
    rep: MonodromyRep, charpolys: Sequence[LaurentPoly]
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Integer basis of a proper invariant subspace spun from a rational
    eigenvector, or None.

    For each generator's integer form N = d*M and each rational (hence
    integer) eigenvalue lam = d*mu of N, mu a rational root of the
    characteristic polynomial ``charpolys[k]`` of M, generator k, each
    basis vector of ker(N - lam) is spun under the integer generators and
    each basis vector of ker(N^T - lam) under their transposes.  A spin
    short of Q^n is invariant; for the transposes its annihilator is.
    Absence of a witness proves nothing, but the search stops at a
    one-dimensional kernel whose two spins are both full, because then no
    invariant subspace exists even over C (Norton's argument): a proper
    invariant U either contains the kernel vector of N - lam, or N - lam
    is invertible on U and the kernel vector of N^T - lam annihilates U.
    """
    n = rep.size
    scaled = [integer_scaled(m) for m in rep.matrices]
    gens = [g for _, g in scaled]
    sides = (gens, [transpose(g) for g in gens])
    for k, (d, _) in enumerate(scaled):
        for mu, _ in rational_roots(charpolys[k]):
            lam = int(d * mu)
            for side, act in enumerate(sides):
                shifted = [[v - lam if i == j else v for j, v in enumerate(row)]
                           for i, row in enumerate(act[k])]
                kernel = integer_scaled(nullspace(shifted))[1]
                for vec in kernel:
                    span = _spin(vec, act)
                    if len(span) < n:
                        return span if side == 0 else integer_scaled(nullspace(span))[1]
            if len(kernel) == 1:  # ker(N - lam) has the dimension of ker(N^T - lam)
                return None
    return None


def irreducibility_certificate(rep: MonodromyRep) -> IrreducibilityCertificate:
    """Decide irreducibility over C by the cheapest certificate: a
    rational invariant subspace, then n^2 words independent modulo
    ``WORD_SPAN_PRIME``, then the exact word-span closure."""
    return _certificate(rep, [charpoly(m) for m in rep.matrices])


def _certificate(rep: MonodromyRep, charpolys: Sequence[LaurentPoly]) -> IrreducibilityCertificate:
    """``irreducibility_certificate``, given the generators' characteristic
    polynomials."""
    subspace = _invariant_subspace(rep, charpolys)
    if subspace is not None:
        return IrreducibilityCertificate(irreducible=False, subspace=subspace)
    for prime in (WORD_SPAN_PRIME, None):
        words: List[Word] = []
        if _word_span_dimension(rep, prime, words) == rep.size * rep.size:
            return IrreducibilityCertificate(irreducible=True, words=tuple(words))
    return IrreducibilityCertificate(irreducible=False)


def is_irreducible(rep: MonodromyRep) -> bool:
    """True when no common invariant subspace exists over C (Burnside)."""
    return irreducibility_certificate(rep).irreducible


def coordinate_invariant_subspace(rep: MonodromyRep) -> Optional[Tuple[int, ...]]:
    """Cheap reducibility witness: a proper nonzero coordinate subspace
    span{e_i : i in S} preserved by every matrix, if one exists.

    Returns the first such S in (size, sorted tuple) order.  S is
    invariant exactly when m[r][j] != 0 and j in S imply r in S, and a
    smallest invariant S is the closure of each of its elements under
    that rule, so the closures of the single coordinates contain it.
    Absence of a witness proves nothing.
    """
    n = rep.size
    images = [{r for m in rep.matrices for r in range(n) if m[r][j]} for j in range(n)]
    best: Optional[Tuple[int, ...]] = None
    for i in range(n):
        closure, stack = {i}, [i]
        while stack:
            for r in images[stack.pop()] - closure:
                closure.add(r)
                stack.append(r)
        found = tuple(sorted(closure))
        if len(found) < n and (best is None or (len(found), found) < (len(best), best)):
            best = found
    return best


def jordan_profile(m: Sequence[Sequence]) -> JordanProfile:
    """Single-eigenvalue and single-Jordan-block test, exact over Q."""
    mat = qmat(m)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise DimensionMismatch("square matrix expected")
    if not n:
        raise DimensionMismatch("matrix dimension must be at least 1")
    char = charpoly(mat)
    mu = trace(mat) / n
    if char != LaurentPoly({1: 1, 0: -mu}) ** n:
        return JordanProfile(single_eigenvalue=None, single_block=False, charpoly=char)
    shifted = tuple(
        tuple(mat[i][j] - (mu if i == j else 0) for j in range(n)) for i in range(n)
    )
    return JordanProfile(single_eigenvalue=mu, single_block=rank(shifted) == n - 1, charpoly=char)


def bolibrukh_criterion(rep: MonodromyRep) -> CriterionReport:
    """Evaluate the non-realizability hypotheses exactly.

    Checks, in order: the loop images multiply (in stored order) to the
    identity; the representation is reducible; every matrix is a single
    Jordan block with a single eigenvalue mu_P; and the product of the
    mu_P differs from 1.  All four together (with size >= 4) certify
    that no system with only simple poles on the sphere has this
    monodromy.  Sizes below 4 are reported but never certified.
    """
    product_ok = check_product_identity(rep)
    profiles = [jordan_profile(m) for m in rep.matrices]
    certificate = _certificate(rep, [p.charpoly for p in profiles])
    reducible = not certificate.irreducible
    witness = coordinate_invariant_subspace(rep) if reducible else None
    all_single = all(p.single_block for p in profiles)
    eigenvalues: Optional[Tuple[Fraction, ...]] = None
    product: Optional[Fraction] = None
    if all(p.single_eigenvalue is not None for p in profiles):
        eigenvalues = tuple(p.single_eigenvalue for p in profiles)
        product = Fraction(1)
        for mu in eigenvalues:
            product *= mu
    applies = (
        rep.size >= 4
        and product_ok
        and reducible
        and all_single
        and product is not None
        and product != 1
    )
    if applies:
        reason = "all hypotheses hold; not realizable with only simple poles"
    elif rep.size < 4:
        reason = "criterion requires size at least 4; not certified"
    elif not product_ok:
        reason = "loop images do not multiply to the identity"
    elif not reducible:
        reason = "representation is irreducible"
    elif not all_single:
        reason = "some loop image is not a single Jordan block"
    else:
        reason = "eigenvalue product equals 1"
    return CriterionReport(
        size=rep.size,
        product_is_identity=product_ok,
        reducible=reducible,
        all_single_block=all_single,
        eigenvalues=eigenvalues,
        eigenvalue_product=product,
        applies=applies,
        reason=reason,
        invariant_subspace_witness=witness,
        certificate=certificate,
    )


# The four-puncture counterexample tuple: product = identity, reducible
# with invariant span{e_0, e_1}, single Jordan blocks with eigenvalues
# (1, 1, -1), eigenvalue product -1.
COUNTEREXAMPLE_MATRICES: Tuple[Matrix, ...] = (
    qmat([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
    qmat([[3, 1, 1, -1], [-4, -1, 1, 2], [0, 0, 3, 1], [0, 0, -4, -1]]),
    qmat([[-1, 0, 2, -1], [4, -1, 0, 1], [0, 0, -1, 0], [0, 0, 4, -1]]),
)
