"""Diagonal factorization engine over the Laurent polynomial ring.

Given A with unit determinant c*x^t, computes B (polynomial entries,
constant determinant), C (entries in Q[x^-1], constant determinant) and
descending integers d_1 >= ... >= d_n with

    B * A * C = diag(x^d_1, ..., x^d_n)      (exactly).

Method: shift A to a polynomial matrix F = x^m * A and grow a minimal
approximant basis P of F order by order (van Barel-Bultheel iteration).
Column j is kept as one stacked list of 2n entries, P_j on top and the
residual (F*P)_j below, so every column operation acts on both at once.
At order s the constant coefficient of the residual is column-reduced,
and the columns that remain nonzero are multiplied by x.  Every P
produced this way has det P = x^(sum of column multiplications), so
G := x^-sigma * F * P has det G = c * x^(tau + sum(mu) - n*sigma) with
tau = t + n*m.  The iteration has converged exactly when that exponent
is zero; then B = G^-1 is polynomial with constant determinant,
C = P * diag(x^-mu_j) has nonpositive exponents and constant determinant,
and A*C = G*Lambda with Lambda = diag(x^(sigma - m - mu_j)).

The exponent t comes from the caller, which already holds det A; this
module computes no determinant.  The caller certifies the output by an
exact multiply-back check, so the iteration cap is a backstop only;
hitting it is a defect, not a user error.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import InternalSearchExhausted
from .laurent import LaurentPoly
from .lmatrix import LaurentMatrix


def factor_to_diagonal(
    a: LaurentMatrix, t: int
) -> Tuple[LaurentMatrix, Tuple[int, ...], LaurentMatrix]:
    """Return (B, exponents, C) with B*A*C diagonal; exponents descending.

    ``t`` is the exponent of det A = c*x^t.
    """
    n = a.n
    lo, hi = a.exponent_range()
    m = -lo
    tau = t + n * m
    # Stacked column j: P_j (P starts as I) above (F*P)_j (starts as F_j).
    cols: List[List[LaurentPoly]] = [
        [LaurentPoly.one() if i == j else LaurentPoly.zero() for i in range(n)]
        + [a[i, j].shift(m) for i in range(n)]
        for j in range(n)
    ]
    mu = [0] * n

    cap = 8 * (n * (hi - lo + 1) + abs(tau) + 8)
    sigma = 0
    while True:
        pivots: List[Tuple[int, int]] = []  # (pivot row in the stacked column, column)
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
        # Tested after the step: tested before it, tau = 0 would stop at
        # sigma = 0 and give a different (still valid) pair B, C.
        if sum(mu) == n * sigma - tau:
            break
        if sigma >= cap:
            raise InternalSearchExhausted(
                f"order-basis iteration did not converge within {cap} orders"
            )

    # Columns by descending exponent sigma - m - mu_j, ties by index; then
    # G = x^-sigma * F * P is polynomial with constant determinant.
    order = sorted(range(n), key=lambda j: (mu[j], j))
    g = LaurentMatrix([[cols[j][n + i] for j in order] for i in range(n)]).shift(-sigma)
    c = LaurentMatrix([[cols[j][i].shift(-mu[j]) for j in order] for i in range(n)])
    return g.inverse(), tuple(sigma - m - mu[j] for j in order), c
