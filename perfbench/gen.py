"""Seeded benchmark inputs whose answers are known by construction.

Laurent polynomials are plain ``{exponent: Fraction}`` dicts and matrices
are lists of rows of them, so neither the inputs nor the expected answers
pass through the package under test.  ``fmt_*`` writes the package's
line-oriented input syntax; ``parse_poly`` reads the canonical text form
the package prints for Laurent polynomials.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Poly = Dict[int, Fraction]
PMatrix = List[List[Poly]]
QMatrix = List[List[Fraction]]

# Coefficients of the elementary factors, as in the acceptance suite.
ELEMENTARY_COEFFS = (1, -1, 2, Fraction(1, 2))


# -- Laurent polynomials -------------------------------------------------


def padd(p: Poly, q: Poly, scale: Fraction = Fraction(1)) -> Poly:
    """p + scale*q."""
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pshift(p: Poly, k: int) -> Poly:
    return {e + k: c for e, c in p.items()}


def pderiv(p: Poly) -> Poly:
    return {e - 1: c * e for e, c in p.items() if e}


def mono(exp: int, coeff=1) -> Poly:
    return {exp: Fraction(coeff)}


def pm_identity(n: int) -> PMatrix:
    return [[mono(0) if i == j else {} for j in range(n)] for i in range(n)]


def pm_mul(a: PMatrix, b: PMatrix) -> PMatrix:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: Poly = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = padd(acc, pmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def exponent_range(a: PMatrix) -> Tuple[int, int]:
    exps = [e for row in a for p in row for e in p]
    return min(exps), max(exps)


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit length among Fractions."""
    return max(
        (max(abs(Fraction(v).numerator).bit_length(), Fraction(v).denominator.bit_length())
         for v in values),
        default=0,
    )


def fmt_poly(p: Poly) -> str:
    if not p:
        return "0"
    out = ""
    for e in sorted(p):
        c = p[e]
        sign = "-" if c < 0 else "+"
        body = f"{abs(c)}*x^{e}" if e else f"{abs(c)}"
        out += (sign if not out and sign == "-" else f" {sign} " if out else "") + body
    return out


_TERM = re.compile(r"^(?:(-?\d+(?:/\d+)?)(?:\*x(?:\^(-?\d+))?)?|(-?)x(?:\^(-?\d+))?)$")


def parse_poly(text: str) -> Poly:
    """Read the canonical form ``-x^-1 + 2 + 3/2*x^2``; raises ValueError."""
    text = text.strip()
    if text == "0":
        return {}
    out: Poly = {}
    parts = re.split(r" ([+-]) ", text)
    signs = ["+"] + parts[1::2]
    for sign, term in zip(signs, parts[0::2]):
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"unreadable term {term!r} in {text!r}")
        if m.group(1) is not None:
            coeff = Fraction(m.group(1))
            if "*x" in term:
                exp = int(m.group(2)) if m.group(2) is not None else 1
            else:
                exp = 0
        else:
            coeff = Fraction(-1 if m.group(3) else 1)
            exp = int(m.group(4)) if m.group(4) is not None else 1
        if sign == "-":
            coeff = -coeff
        if exp in out:
            raise ValueError(f"repeated exponent in {text!r}")
        out[exp] = coeff
    return out


# -- planted bundles A = U diag(x^d) V -----------------------------------


def _elementary(rng, n: int, sign: int) -> Tuple[int, int, int, Fraction]:
    """(i, j, e, c) for I + c*x^e*E_ij, e in {0, 1} (sign > 0) or {-1, 0}."""
    i, j = rng.sample(range(n), 2)
    exp = rng.randint(0, 1) if sign > 0 else rng.randint(-1, 0)
    return i, j, exp, Fraction(rng.choice(ELEMENTARY_COEFFS))


def elementary_factors(rng, n: int, ops: int):
    """Draws for V (``ops`` antipolynomial factors) and U (``ops`` polynomial)."""
    return [_elementary(rng, n, -1) for _ in range(ops)], [_elementary(rng, n, +1) for _ in range(ops)]


def planted_bundle(d: Sequence[int], factors) -> PMatrix:
    """U diag(x^d) V for the drawn factors, so the splitting type is d."""
    n = len(d)
    a = [[mono(d[i]) if i == j else {} for j in range(n)] for i in range(n)]
    right, left = factors
    for i, j, e, c in right:  # column j += c x^e column i
        for r in range(n):
            if a[r][i]:
                a[r][j] = padd(a[r][j], pshift(a[r][i], e), c)
    for i, j, e, c in left:  # row i += c x^e row j
        for col in range(n):
            if a[j][col]:
                a[i][col] = padd(a[i][col], pshift(a[j][col], e), c)
    return a


def planted_support(d: Sequence[int], factors) -> List[List[set]]:
    """Exponent sets of ``planted_bundle(d, factors)``, cancellation ignored:
    a cheap filter before the exact product."""
    n = len(d)
    a = [[{d[i]} if i == j else set() for j in range(n)] for i in range(n)]
    right, left = factors
    for i, j, e, _ in right:
        for r in range(n):
            a[r][j] |= {x + e for x in a[r][i]}
    for i, j, e, _ in left:
        for col in range(n):
            a[i][col] |= {x + e for x in a[j][col]}
    return a


def planted_in_window(rng, d: Sequence[int], lo_hi: Tuple[int, int], terms: Tuple[int, int]) -> PMatrix:
    """A planted bundle with entry exponent range exactly ``lo_hi`` and a
    total term count within ``terms``, so inputs of one template cost alike."""
    n = len(d)
    for _ in range(200_000):
        factors = elementary_factors(rng, n, 3 * n)
        support = planted_support(d, factors)
        exps = [x for row in support for s in row for x in s]
        if (min(exps), max(exps)) != lo_hi or not terms[0] <= len(exps) <= terms[1]:
            continue
        a = planted_bundle(d, factors)
        count = sum(len(p) for row in a for p in row)
        if exponent_range(a) == lo_hi and terms[0] <= count <= terms[1]:
            return a
    raise RuntimeError(f"no planted bundle with d={tuple(d)}, range {lo_hi}, terms {terms}")


def fmt_laurent_matrix(a: PMatrix, comment: str = "") -> str:
    head = f"# {comment}\n" if comment else ""
    rows = "\n".join(", ".join(fmt_poly(p) for p in row) for row in a)
    return f"{head}kind = laurent_matrix, n = {len(a)}, format_version = 1\n{rows}\n"


def section_count(d: Sequence[int], k: int) -> int:
    return sum(max(0, di + k + 1) for di in d)


# -- rational matrices -----------------------------------------------------


def qm_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def qm_identity(n: int) -> QMatrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def qm_inverse(a: QMatrix) -> QMatrix:
    n = len(a)
    work = [list(row) + qm_identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col])
        work[col], work[piv] = work[piv], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [v - f * w for v, w in zip(work[i], work[col])]
    return [row[n:] for row in work]


def qm_rank(a: QMatrix) -> int:
    rows = [list(r) for r in a]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def unimodular_q(rng, n: int, size: int) -> QMatrix:
    """L U with L, U unit triangular integer matrices whose off-diagonal
    entries are +-size: determinant 1, and entries of a steady size, so the
    conjugated tuples of one class cost alike."""
    low = qm_identity(n)
    up = qm_identity(n)

    def entry() -> Fraction:
        return Fraction(rng.choice((-size, size)))

    for i in range(n):
        for j in range(i):
            low[i][j] = entry()
            up[j][i] = entry()
    return qm_mul(low, up)


def conjugate_all(mats: Sequence[QMatrix], s: QMatrix) -> List[QMatrix]:
    s_inv = qm_inverse(s)
    return [qm_mul(qm_mul(s_inv, m), s) for m in mats]


def fmt_q(v: Fraction) -> str:
    return str(Fraction(v))


def fmt_rat_blocks(mats: Sequence[QMatrix]) -> str:
    return "\n".join(", ".join(fmt_q(v) for v in row) for m in mats for row in m)


def fmt_monodromy(mats: Sequence[QMatrix], comment: str) -> str:
    return (
        f"# {comment}\nkind = monodromy_rep, n = {len(mats[0])}, count = {len(mats)}, "
        f"format_version = 1\n{fmt_rat_blocks(mats)}\n"
    )


# -- monodromy families -----------------------------------------------------


def reducible_tuple(rng, n: int, size: int) -> List[QMatrix]:
    """Three conjugated upper-triangular generators.  The first has a 2 on
    its diagonal and the others only 1s and -1s, so the product is never
    the identity: reducible, and the criterion does not apply."""
    mats = []
    for g in range(3):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = Fraction(2 if (g == 0 and i == 0) else rng.choice((1, -1)))
            for j in range(i + 1, n):
                m[i][j] = Fraction(rng.randint(-2, 2))
        mats.append(m)
    return conjugate_all(mats, unimodular_q(rng, n, size))


def irreducible_pair(rng, n: int, size: int) -> List[QMatrix]:
    """A cyclic permutation and a diagonal with distinct entries, conjugated:
    their algebra is all n x n matrices, so the pair is irreducible."""
    perm = [[Fraction(int(j == (i + 1) % n)) for j in range(n)] for i in range(n)]
    entries = rng.sample(range(1, n + 1), n)
    diag = [[Fraction(entries[i] if i == j else 0) for j in range(n)] for i in range(n)]
    return conjugate_all([perm, diag], unimodular_q(rng, n, size))


_A2 = [[3, 1], [-4, -1]]  # eigenvalue 1, one Jordan block; J2(1) @ _A2 has eigenvalue -1


def _single_block(m: QMatrix, mu: Fraction) -> bool:
    n = len(m)
    shifted = [[m[i][j] - (mu if i == j else 0) for j in range(n)] for i in range(n)]
    power = shifted
    for _ in range(n - 1):
        power = qm_mul(power, shifted)
    return qm_rank(shifted) == n - 1 and not any(v for row in power for v in row)


def jordan_tuple(rng, n: int, size: int) -> List[QMatrix]:
    """(M1, M2, M3) with M1 M2 M3 = I, each one Jordan block, eigenvalues
    (1, 1, -1), block upper-triangular with 2x2 diagonal blocks (so
    reducible), conjugated.  For even n >= 4 the criterion applies, like
    the shipped four-dimensional counterexample."""
    if n % 2 or n < 4:
        raise ValueError("Jordan tuples need an even size of at least 4")
    one = Fraction(1)
    m1 = [[one if j in (i, i + 1) else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(1000):
        m2 = [[Fraction(0)] * n for _ in range(n)]
        for b in range(0, n, 2):
            for i in range(2):
                for j in range(2):
                    m2[b + i][b + j] = Fraction(_A2[i][j])
            for col in range(b + 2, n):
                for i in range(2):
                    m2[b + i][col] = Fraction(rng.randint(-2, 2))
        m3 = qm_inverse(qm_mul(m1, m2))
        if _single_block(m2, one) and _single_block(m3, -one):
            return conjugate_all([m1, m2, m3], unimodular_q(rng, n, size))
    raise RuntimeError("no single-block Jordan tuple found")


# -- Fuchsian inputs ----------------------------------------------------------


def local_system(rng, n: int, tail_count: int) -> List[QMatrix]:
    """Residue R upper-triangular with eigenvalues i/(n+1) (no two differ by
    an integer, so Frobenius is never resonant), then the analytic tail."""
    r = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        r[i][i] = Fraction(i, n + 1)
        for j in range(i + 1, n):
            r[i][j] = Fraction(rng.randint(-2, 2))
    tail = [
        [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        for _ in range(tail_count)
    ]
    return [r] + tail


def fmt_rat_matrix_list(mats: Sequence[QMatrix], comment: str) -> str:
    return (
        f"# {comment}\nkind = rat_matrix_list, n = {len(mats[0])}, count = {len(mats)}, "
        f"format_version = 1\n{fmt_rat_blocks(mats)}\n"
    )


def residue_system(rng, n: int, npoints: int, integral: bool) -> Tuple[List[Fraction], List[QMatrix]]:
    """Random residues at distinct integer points.  Integral residues keep
    the characteristic polynomials' rational-root search short."""
    points = sorted(Fraction(p) for p in rng.sample(range(-9, 10), npoints))
    dens = (1,) if integral else (1, 2, 3)
    residues = [
        [[Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(n)] for _ in range(n)]
        for _ in points
    ]
    return points, residues


def fmt_fuchsian_system(points, residues, comment: str) -> str:
    pts = " ".join(fmt_q(p) for p in points)
    return (
        f"# {comment}\nkind = fuchsian_system, n = {len(residues[0])}, points = {pts}, "
        f"format_version = 1\n{fmt_rat_blocks(residues)}\n"
    )


def hypergeometric(a: Fraction, b: Fraction, c: Fraction) -> str:
    """x(1-x) w'' + (c - (a+b+1) x) w' - ab w = 0 in monic form.  Its
    exponents are {0, 1-c} at 0, {0, c-a-b} at 1 and {a, b} at infinity."""
    return (
        f"# hypergeometric a = {a}, b = {b}, c = {c}\n"
        "kind = scalar_ode, n = 2, format_version = 1\n"
        f"({a + b + 1}*x - {c})/(x^2 - x)\n"
        f"({a * b})/(x^2 - x)\n"
    )


def gauge_pair(rng, n: int, deg: int) -> Tuple[PMatrix, PMatrix, PMatrix]:
    """(A, P, B) with P polynomial of constant determinant and
    A = (P B + P') P^-1, so the gauge transform of A by P is exactly B."""
    p = pm_identity(n)
    p_inv = pm_identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        e = mono(rng.randint(0, 1), rng.choice(ELEMENTARY_COEFFS))
        # P <- P (I + e E_ij): column j += e * column i; inverse on the left.
        for r in range(n):
            if p[r][i]:
                p[r][j] = padd(p[r][j], pmul(p[r][i], e))
        for col in range(n):
            if p_inv[j][col]:
                p_inv[i][col] = padd(p_inv[i][col], pmul(e, p_inv[j][col]), Fraction(-1))
    b = [
        [{k: Fraction(rng.randint(-3, 3)) for k in range(deg + 1) if rng.random() < 0.6}
         for _ in range(n)]
        for _ in range(n)
    ]
    b = [[{k: v for k, v in entry.items() if v} for entry in row] for row in b]
    pb = pm_mul(p, b)
    dp = [[pderiv(v) for v in row] for row in p]
    lhs = [[padd(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(pb, dp)]
    return pm_mul(lhs, p_inv), p, b
