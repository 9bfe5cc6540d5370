"""Reference implementations the tests compare the package against.

Each one computes a known quantity by a route that shares no recursion
with the transform it checks: a closed binomial sum, the coefficients of
``Q_m * f - P_l``, or a plain linear solve of the model system.
"""

import math

from seqaccel import InvalidParameterError
from seqaccel.linalg import solve_dense


def richardson_binomial(values, beta, k, n):
    """Closed binomial form of standard Richardson extrapolation, entry (k, n)."""
    acc = 0.0
    for j in range(k + 1):
        weight = (-1.0) ** j * (beta + n + j) ** k / (
            math.factorial(j) * math.factorial(k - j)
        )
        acc = acc + weight * values[n + j]
    return (-1.0) ** k * acc


def order_condition_residuals(approximant, series):
    """Coefficients of ``Q_m * f - P_l`` through order l+m (ideally zero)."""
    g = series.coefficients
    l, m = approximant.l, approximant.m
    q, p = approximant.denominator, approximant.numerator
    out = []
    for i in range(l + m + 1):
        acc = sum(q[t] * g[i - t] for t in range(min(i, m) + 1))
        if i <= l:
            acc = acc - p[i]
        out.append(acc)
    return out


def e_oracle(samples, phis):
    """Brute-force model-sequence solver.

    Given k+1 consecutive elements of ``s_n = s + sum_j c_j phi_j(n)`` and
    the matrix ``phis[i][j] = phi_j(n+i)``, solve the linear system for
    the k+1 unknowns and return the limit s.  A singular system raises
    ``seqaccel.errors.SingularMatrixError``.
    """
    k = len(samples) - 1
    if len(phis) != k + 1 or any(len(row) != k for row in phis):
        raise InvalidParameterError(
            f"phis must be a {k + 1} x {k} matrix to match {k + 1} samples"
        )
    matrix = [[1.0, *phis[i]] for i in range(k + 1)]
    return solve_dense(matrix, list(samples))[0]
