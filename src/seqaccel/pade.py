"""Pade approximants: direct linear-system construction and extraction
from the epsilon table.

``pade_direct`` solves the order conditions for [l/m] with partial
pivoting and is the oracle; ``pade_via_epsilon`` reads the same numbers
off Wynn's epsilon algorithm applied to the partial sums, entry
``eps_{2k}^(n)`` being [n+k/k] evaluated at z.  The staircase
[0/0], [1/0], [1/1], [2/1], ... spends each new series coefficient at the
highest approximant order available.
"""

from __future__ import annotations

from .core import (
    GuardPolicy,
    PathSpec,
    PowerSeries,
    Record,
    Scalar,
    SequenceSample,
    TransformTable,
    check_integer,
    constant_type,
    cross_rule_table,
    walk_path,
)
from .errors import DegeneratePadeError, InvalidParameterError, SingularMatrixError
from .linalg import solve_dense


def _polyval(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


class PadeApproximant(Record):
    """The rational function [l/m] = P_l / Q_m with Q normalized to Q(0) = 1."""

    l: int
    m: int
    numerator: tuple
    denominator: tuple

    def __call__(self, z: Scalar) -> Scalar:
        return _polyval(self.numerator, z) / _polyval(self.denominator, z)


def pade_direct(series: PowerSeries, l: int, m: int) -> PadeApproximant:
    """Solve the [l/m] order conditions directly.

    The Taylor expansion of P_l/Q_m matches the series through order
    l+m.  A singular system signals a block in the Pade table and raises
    ``DegeneratePadeError``.
    """
    check_integer("numerator degree l", l, 0)
    check_integer("denominator degree m", m, 0)
    g = series.coefficients
    if l + m > series.order:
        raise InvalidParameterError(
            f"[{l}/{m}] needs {l + m + 1} coefficients, series has {series.order + 1}"
        )

    def gamma(i: int) -> Scalar:
        return g[i] if i >= 0 else 0

    one = constant_type(g)(1)  # Q(0): 1.0 on float and complex series, Fraction(1) on Fraction ones
    matrix = [[gamma(l + 1 + r - c) for c in range(1, m + 1)] for r in range(m)]
    rhs = [-gamma(l + 1 + r) for r in range(m)]
    try:
        solution = solve_dense(matrix, rhs)  # [] at m = 0
    except SingularMatrixError as exc:
        raise DegeneratePadeError(
            f"[{l}/{m}] order conditions are singular: {exc}"
        ) from exc
    q = (one, *solution)
    p = tuple(
        sum(q[i] * gamma(j - i) for i in range(min(j, m) + 1))
        for j in range(l + 1)
    )
    return PadeApproximant(l, m, p, q)


def pade_epsilon(sample: SequenceSample, guard: GuardPolicy = GuardPolicy()) -> TransformTable:
    """Wynn's epsilon table of ``sample``, named ``pade_epsilon``: its numerator is 1."""
    return cross_rule_table("pade_epsilon", sample.values, lambda k, rows: 1, guard)


def pade_via_epsilon(series: PowerSeries, guard: GuardPolicy = GuardPolicy()) -> TransformTable:
    """Run the epsilon algorithm on the partial sums of the series.

    The even entry (2k, n) of the returned table is the value of [n+k/k]
    at ``series.z``; use ``pade_label`` to translate indices.
    """
    return pade_epsilon(series.sample(), guard)


def pade_label(k: int, n: int) -> tuple:
    """Map an even epsilon-table position to its Pade indices (l, m)."""
    if k % 2 != 0:
        raise InvalidParameterError(f"odd epsilon column {k} holds no approximant")
    return n + k // 2, k // 2


def staircase_sequence(series: PowerSeries, guard: GuardPolicy = GuardPolicy()) -> list:
    """The staircase [0/0], [1/0], [1/1], [2/1], [2/2], ... at z.

    Each successive entry consumes exactly one more partial sum.  Entries
    whose epsilon recursion tripped the guard are reported as
    ``(l, m, None)`` markers.
    """
    table = pade_via_epsilon(series, guard)
    return [(*pade_label(k, n), value) for k, n, value, _ in walk_path(table, PathSpec.staircase())]
