"""A small dense linear solver for the direct Pade construction.

Gaussian elimination with partial pivoting, written against generic
scalars so that complex (or exact) coefficient types survive the solve,
its pivot threshold included: a pivot below ``_PIVOT_RTOL`` (1e-13) times
the largest entry modulus of the matrix, or below 1e-13 when none exceeds
1, raises ``SingularMatrixError`` rather than an ill-conditioned solution.
"""

from __future__ import annotations

import sys
from typing import Sequence

from .errors import SingularMatrixError

_PIVOT_RTOL = 1e-13


def solve_dense(matrix: Sequence[Sequence], rhs: Sequence) -> list:
    n = len(matrix)
    a = [list(row) for row in matrix]
    if any(len(row) != n for row in a) or len(rhs) != n:
        raise ValueError("solve_dense needs a square system")
    b = list(rhs)
    scale = max((abs(x) for row in a for x in row), default=0.0)
    threshold = type(scale)(_PIVOT_RTOL) * scale if scale > 1 else _PIVOT_RTOL

    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        pivot = abs(a[pivot_row][col])
        if pivot < threshold:  # as a float: an mpf, or a Fraction before 3.12, has no "e" format
            big = pivot > sys.float_info.max  # mpf and Fraction may lie beyond the double range
            shown = "beyond the double range" if big else f"{float(pivot):.3e}"
            raise SingularMatrixError(f"pivot {shown} below threshold")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
            b[r] = b[r] - factor * b[col]

    x = [0] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc = acc - a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x
