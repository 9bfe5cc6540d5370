"""Reference implementations the tests compare the package against.

Each one computes a known quantity by a route that shares no recursion
with the transform it checks: a closed binomial sum, the coefficients of
``Q_m * f - P_l``, or a plain linear solve of the model system.
"""

import functools
import math
from fractions import Fraction

import mpmath

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


@functools.lru_cache(maxsize=None)
def pochhammer_weights(zeta, n, k):
    """Exact ``(-1)^j C(k, j) (zeta+n+j)_{k-1}``, j = 0..k: the Pochhammer weights
    of entry (k, n) without their common divisor ``(zeta+n+k)_{k-1}``."""
    b = Fraction(zeta) + n
    return tuple((-1) ** j * math.comb(k, j) * math.prod(b + j + i for i in range(k - 1))
                 for j in range(k + 1))


@functools.lru_cache(maxsize=None)
def power_weights(zeta, n, k):
    """Exact ``(-1)^j C(k, j) (zeta+n+j)^(k-1)``, j = 0..k: Levin's power weights
    of entry (k, n) without their common divisor ``(zeta+n+k)^(k-1)``."""
    b = Fraction(zeta) + n
    return tuple((-1) ** j * math.comb(k, j) * (b + j) ** (k - 1) for j in range(k + 1))


def closed_form(values, omegas, weights):
    """``(X, kappa)`` of the weighted-difference entry of order ``k = len(weights) - 1``
    whose window starts at ``values[0]``, from its binomial sums at 50 digits
    with the exact ``weights`` on the same inputs; ``(None, None)`` where the
    exact denominator is zero.  kappa is
    ``(sum |num terms| + |X| sum |den terms|) / |den|``."""
    k = len(weights) - 1
    with mpmath.workdps(50):
        w = [mpmath.mpf(c.numerator) / c.denominator for c in weights]
        s = [mpmath.mpmathify(v) for v in values[:k + 1]]
        om = [mpmath.mpmathify(v) for v in omegas[:k + 1]]
        nums = [c * v / o for c, v, o in zip(w, s, om)]
        dens = [c / o for c, o in zip(w, om)]
        den = mpmath.fsum(dens)
        den_scale = mpmath.fsum(map(abs, dens))
        # 50 digits cannot tell a denominator this small from zero: decide exactly
        if abs(den) <= mpmath.mpf(10) ** -30 * den_scale and all(
                type(o) is float for o in omegas[:k + 1]):
            if sum(c / Fraction(o) for c, o in zip(weights, omegas)) == 0:
                return None, None
        x = mpmath.fsum(nums) / den
        return x, (mpmath.fsum(map(abs, nums)) + abs(x) * den_scale) / abs(den)
