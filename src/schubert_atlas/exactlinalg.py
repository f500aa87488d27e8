"""Exact integer/rational linear algebra: no floating point anywhere.

All matrices are sequences of equal-length rows of Python ints (arbitrary
precision, so nothing overflows) or ``fractions.Fraction`` for rational
results.  Dimensions stay below a few dozen, so simple fraction-free
algorithms are the right tool: exactness over speed.  Every exact inverse
is the one fraction-free ``adjugate`` divided by the determinant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import NotSquareError, SingularMatrixError

IntMatrix = Tuple[Tuple[int, ...], ...]
RatMatrix = Tuple[Tuple[Fraction, ...], ...]


def identity(n: int) -> IntMatrix:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


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


def adjugate(m: Sequence[Sequence[int]]) -> Tuple[IntMatrix, int]:
    """(adj(m), det(m)) of an invertible integer matrix, by fraction-free
    (Bareiss) Gauss-Jordan on [m | I]: each step sets row_i <- (p * row_i -
    f * pivot_row) // prev, an exact division.  The right block ends as
    +-det(m) m^-1; the sign of the row swaps fixes the sign."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSquareError("inverse of a non-square matrix")
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    sign = prev = 1
    for col in range(n):
        pr = next((i for i in range(col, n) if a[i][col]), None)
        if pr is None:
            raise SingularMatrixError("matrix is singular over Q")
        if pr != col:
            a[col], a[pr] = a[pr], a[col]
            sign = -sign
        pivot_row, p = a[col], a[col][col]
        for i in range(n):
            if i != col:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return tuple(tuple(sign * x for x in row[n:]) for row in a), sign * prev


def inverse_rational(m: Sequence[Sequence[int]]) -> RatMatrix:
    """Exact inverse over Q: adj(m) / det(m)."""
    adj, d = adjugate(m)
    return tuple(tuple(Fraction(x, d) for x in row) for row in adj)


def invert_unimodular(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Integer inverse of a matrix with determinant +-1."""
    adj, d = adjugate(m)
    if d not in (1, -1):
        raise SingularMatrixError("matrix is not invertible over Z")
    return adj if d == 1 else tuple(tuple(-x for x in row) for row in adj)


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
