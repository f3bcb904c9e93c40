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
produced this way has det P = x^(sum of column multiplications), so the
polynomial G := x^-sigma * F * P has det G = c * x^e with
e = t + n*m + sum(mu) - n*sigma >= 0.  The step at order sigma reduces
G(0), nonsingular exactly when e = 0, so the loop has converged, with no
t read, once every column pivots (from sigma = 1 on; at sigma = 0,
t + n*m = 0 would give another valid pair), and restores the columns and
scales saved before that step, which the eliminations left intact.  Then
B = G^-1 is polynomial with constant determinant, C = P * diag(x^-mu_j)
has nonpositive exponents and constant determinant, and A*C = G*Lambda
with Lambda = diag(x^(sigma - m - mu_j)).

The loop runs on integers.  Stacked column j is a list of 2n integer
coefficient lists over one positive scale s_j: the rational column is the
integer one divided by s_j, and s_j is coprime to the content of the
integer column, so s_j is the lcm of the rational column's denominators.
Eliminating the pivot coefficient p of column q from the coefficient v
of column j is w*col_j - u*col_q with (w, u) = (p, v) / gcd(p, v), sign
made w > 0; s_j is multiplied by w, and the gcd of s_j and the new
content is divided out of both.  That is the rational update
col_j - (v/p)*col_q exactly, so the pivots, G and C are those of the same
loop run in Fraction arithmetic; the scales are divided out only when G
and C are built.

The lists are indexed so that multiplying a column by x moves no
coefficient.  A residual list starts at x^sigma, the order of the current
step, for every column: after a step every residual vanishes at x^sigma,
so each column that was not multiplied by x drops its first entry.  P_j
has degree at most mu_j (a pivot column has mu no larger than the
columns it is subtracted from), and its list holds the coefficients of
x^mu_j, x^(mu_j - 1), ..., so it is also the list of C_j, from x^0 down.

This module computes no determinant.  The caller certifies the output by
an exact multiply-back check, so the iteration cap is a backstop only;
hitting it on a unit A is a defect, not a user error.
"""

from __future__ import annotations

from itertools import chain, zip_longest
from math import gcd
from typing import List, Tuple

from .errors import InternalSearchExhausted
from .lmatrix import LaurentMatrix, _integer_rows, _laurent

Column = List[List[int]]


def factor_to_diagonal(a: LaurentMatrix) -> Tuple[LaurentMatrix, Tuple[int, ...], LaurentMatrix]:
    """Return (B, exponents, C) with B*A*C diagonal; exponents descending.
    If det A is not a unit, G.inverse() raises or the cap is hit."""
    n = a.n
    lo, hi = a.exponent_range()
    m = -lo
    # Stacked column j over scales[j]: P_j (P starts as I) above (F*P)_j
    # (starts as F_j), each entry a list of integer coefficients.
    scales, residuals = _integer_rows(tuple(zip(*a.entries)), lo, 1)
    cols: List[Column] = [[[s] if i == j else [] for i in range(n)] + f
                          for j, (s, f) in enumerate(zip(scales, residuals))]
    mu = [0] * n

    cap = 8 * (2 * n * (hi - lo + 1) + 8)
    for sigma in range(cap):
        before = list(cols), list(scales)
        pivots: List[Tuple[int, int]] = []  # (pivot row in the stacked column, column)
        for j in sorted(range(n), key=lambda jj: (mu[jj], jj)):
            col = cols[j]
            for row, q in pivots:
                if col[row] and col[row][0]:
                    col, scales[j] = _eliminate(col, scales[j], cols[q], row, mu[j] - mu[q], n)
            cols[j] = col
            row = next((i for i in range(n, 2 * n) if col[i] and col[i][0]), None)
            if row is not None:
                pivots.append((row, j))
        if sigma and len(pivots) == n:
            cols, scales = before
            break
        shifted = {j for _, j in pivots}
        for j in range(n):
            if j in shifted:
                mu[j] += 1
            else:
                cols[j][n:] = [p[1:] for p in cols[j][n:]]
    else:
        raise InternalSearchExhausted(
            f"order-basis iteration did not converge within {cap} orders")

    # Columns by descending exponent sigma - m - mu_j, ties by index; then
    # G = x^-sigma * F * P is polynomial with constant determinant.
    order = sorted(range(n), key=lambda j: (mu[j], j))
    g = LaurentMatrix([[_laurent(enumerate(cols[j][n + i]), 1, 0, 1, scales[j]) for j in order]
                       for i in range(n)])
    c = LaurentMatrix([[_laurent(enumerate(cols[j][i]), -1, 0, 1, scales[j]) for j in order]
                       for i in range(n)])
    return g.inverse(), tuple(sigma - m - mu[j] for j in order), c


def _eliminate(col: Column, scale: int, pcol: Column, row: int, lag: int,
               n: int) -> Tuple[Column, int]:
    """(column, scale) of col/scale minus v/p times the pivot column, for
    v and p their coefficients at the start of residual list ``row``, with
    the gcd of the scale and the content divided out; ``lag`` is
    mu_j - mu_q, the offset of the pivot column's P lists."""
    p, v = pcol[row][0], col[row][0]
    h = gcd(p, v)
    w, u = (p // h, v // h) if p > 0 else (-p // h, -v // h)
    pad = [0] * lag
    new = [[w * x - u * y for x, y in zip_longest(a, pad + b if b else b, fillvalue=0)]
           for a, b in zip(col[:n], pcol[:n])]
    new += [[w * x - u * y for x, y in zip_longest(a, b, fillvalue=0)]
            for a, b in zip(col[n:], pcol[n:])]
    scale *= w
    k = gcd(scale, *chain.from_iterable(new))
    if k > 1:
        new = [[x // k for x in entry] for entry in new]
        scale //= k
    return new, scale
