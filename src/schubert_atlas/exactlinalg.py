"""Exact integer/rational linear algebra: no floating point anywhere.

All matrices are sequences of equal-length rows.  Entries are Python ints
(arbitrary precision, so the checked-overflow policy for 64-bit builds is
vacuously satisfied) or ``fractions.Fraction`` for rational results.
Dimensions in this package never exceed a few dozen, so the simple
fraction-free algorithms below are the right tool: exactness over speed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import NotSquareError, SingularMatrixError

IntMatrix = Tuple[Tuple[int, ...], ...]
RatMatrix = Tuple[Tuple[Fraction, ...], ...]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]):
    cols = range(len(b[0])) if b else ()
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in cols)
        for row in a
    )


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSquareError(f"det of a {len(m)}x? non-square matrix")
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals (fraction-free elimination)."""
    if not m or not m[0]:
        return 0
    a = [list(map(int, row)) for row in m]
    nr, nc = len(a), len(a[0])
    piv = 0
    prev = 1
    for col in range(nc):
        pr = next((i for i in range(piv, nr) if a[i][col]), None)
        if pr is None:
            continue
        a[piv], a[pr] = a[pr], a[piv]
        pivot = a[piv][col]
        for i in range(piv + 1, nr):
            for j in range(col + 1, nc):
                a[i][j] = (a[i][j] * pivot - a[i][col] * a[piv][j]) // prev
            a[i][col] = 0
        prev = pivot
        piv += 1
        if piv == nr:
            break
    return piv


def inverse_rational(m: Sequence[Sequence[int]]) -> RatMatrix:
    """Exact inverse over Q (Gauss-Jordan with fractions)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSquareError("inverse of a non-square matrix")
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pr = next((i for i in range(col, n) if a[i][col]), None)
        if pr is None:
            raise SingularMatrixError("matrix is singular over Q")
        a[col], a[pr] = a[pr], a[col]
        inv_piv = 1 / a[col][col]
        a[col] = [x * inv_piv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def invert_unimodular(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Integer inverse of a matrix with determinant +-1."""
    inv = inverse_rational(m)
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise SingularMatrixError("matrix is not invertible over Z")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def smith_normal_form(m: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    Only the r = rank(m) positive invariant factors are returned; the
    unimodular transforms are not needed by any caller and are dropped.
    """
    if not m or not m[0]:
        return ()
    a = [list(map(int, row)) for row in m]
    nr, nc = len(a), len(a[0])
    factors: List[int] = []
    t = 0
    while t < nr and t < nc:
        # pivot = entry of least absolute value in the remaining block
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, nc):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, nr):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(nr):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
        d = a[t][t]
        offender = None
        for i in range(t + 1, nr):
            if any(a[i][j] % d for j in range(t + 1, nc)):
                offender = i
                break
        if offender is not None:
            for j in range(t, nc):
                a[t][j] += a[offender][j]
            continue
        factors.append(abs(d))
        t += 1
    return tuple(factors)
