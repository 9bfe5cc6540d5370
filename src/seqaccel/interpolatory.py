"""Extrapolation methods built on interpolation: Richardson/Neville schemes,
Wynn's rho algorithm and its variants, and the decay-parameter estimator.

These transforms aim at logarithmically convergent sequences.  The
polynomial (Richardson) and rational (rho) standard forms handle remainders
``(n+beta)**(-alpha)`` with integer alpha; Osada's variant and the
Bjorstad-Dahlquist-Grosse (BDG) iteration take a known alpha > 0 and restore
the ``O(n**(-alpha-2k))`` error order.  The standard ``rho`` and
``rho_iterated`` are Osada's rho and BDG at alpha = 1, one kernel per shape.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    GuardPolicy,
    Record,
    Scalar,
    SequenceSample,
    TransformTable,
    check_integer,
    check_positive,
    compute_column,
    cross_rule_table,
    finite_scalars,
    stencil_table,
)
from .errors import InsufficientDataError, InvalidParameterError

TO_ZERO = "to_zero"
TO_INFINITY = "to_infinity"


class InterpolationPoints(Record):
    """The grid ``x_n`` on which a sequence is read as samples of a function.

    Polynomial extrapolation sends strictly decreasing positive points to
    zero; rational extrapolation of the rho kind sends strictly increasing
    points to infinity.
    """

    x: tuple
    direction: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", finite_scalars(self.x, "an interpolation point"))
        if self.direction not in (TO_ZERO, TO_INFINITY):
            raise InvalidParameterError(f"unknown direction {self.direction!r}")
        if not self.x:
            raise InvalidParameterError("interpolation points must be nonempty")
        if any(isinstance(p, complex) or not p > 0 for p in self.x):
            raise InvalidParameterError("interpolation points must be positive")
        pairs = zip(self.x, self.x[1:])
        if self.direction == TO_ZERO:
            if any(not a > b for a, b in pairs):
                raise InvalidParameterError("to_zero points must decrease strictly")
        elif any(not a < b for a, b in pairs):
            raise InvalidParameterError("to_infinity points must increase strictly")

    def __len__(self) -> int:
        return len(self.x)


def reciprocal_points(length: int, beta: float = 1.0) -> InterpolationPoints:
    """The customary Richardson grid ``x_n = 1 / (n + beta)``."""
    check_integer("length", length)
    check_positive("beta", beta)
    return InterpolationPoints(tuple(1.0 / (n + beta) for n in range(length)), TO_ZERO)


def natural_points(length: int) -> InterpolationPoints:
    """The customary rho grid ``x_n = n + 1``."""
    check_integer("length", length)
    return InterpolationPoints(tuple(float(n + 1) for n in range(length)), TO_INFINITY)


def _require_points(points: InterpolationPoints, direction: str, length: int) -> tuple:
    if points.direction != direction:
        raise InvalidParameterError(f"interpolation points must run {direction}")
    if len(points) < length:
        raise InvalidParameterError(
            f"{len(points)} interpolation points for {length} sequence elements"
        )
    return points.x


def neville_richardson(
    sample: SequenceSample,
    points: InterpolationPoints,
    guard: GuardPolicy = GuardPolicy(),
) -> TransformTable:
    """Neville's scheme for the value at x=0 of the interpolating polynomial.

    Richardson extrapolation in its general form: column k holds the
    degree-k polynomial through ``(x_n, s_n) .. (x_{n+k}, s_{n+k})``
    evaluated at zero, hence it is exact once the sequence is polynomial
    of degree <= k in x.
    """
    s = sample.values
    x = _require_points(points, TO_ZERO, len(s))

    def kernel(cur, k, rows):
        return ([x[n] * cur[n + 1] - x[n + k] * cur[n] for n in rows],
                [x[n] - x[n + k] for n in rows])

    return stencil_table("richardson_general", s, 2, kernel, guard)


def richardson_standard(
    sample: SequenceSample,
    beta: float = 1.0,
    guard: GuardPolicy = GuardPolicy(),
) -> TransformTable:
    """Richardson extrapolation on the standard grid ``x_n = 1/(n + beta)``.

    Accelerates remainders ``(n+beta)**(-alpha)`` when alpha is a positive
    integer; fails for nonintegral alpha.  It takes ``guard`` only for the
    registry's one call signature: its kernel divides by ``k``, never by data.
    """
    s = sample.values
    beta = check_positive("beta", beta, s)
    bases = [beta + n for n in range(len(s))]

    def kernel(cur, k, rows):
        return [cur[n + 1] + bases[n] / k * (cur[n + 1] - cur[n]) for n in rows]

    return stencil_table("richardson", s, 2, kernel, guard)


def wynn_rho(
    sample: SequenceSample,
    points: InterpolationPoints,
    guard: GuardPolicy = GuardPolicy(),
) -> TransformTable:
    """Wynn's rho algorithm on explicit interpolation points.

    The rational-extrapolation counterpart of the epsilon algorithm: even
    columns hold the value at infinity of the rational interpolant through
    the points consumed.  Strong on logarithmic convergence, useless for
    linear convergence and divergent series.
    """
    s = sample.values
    x = _require_points(points, TO_INFINITY, len(s))
    return cross_rule_table(
        "rho_general", s, lambda k, rows: [x[n + k] - x[n] for n in rows], guard
    )


def rho_standard(sample: SequenceSample, guard: GuardPolicy = GuardPolicy()) -> TransformTable:
    """Wynn's rho on ``x_n = n + 1``: its numerator ``x_(n+k) - x_n`` is exactly k,
    Osada's ``k - 1 + alpha`` at alpha = 1, so it is Osada's table to the last bit."""
    return _osada_table("rho", sample.values, 1, guard)


def osada_rho(
    sample: SequenceSample,
    alpha: float,
    guard: GuardPolicy = GuardPolicy(),
) -> TransformTable:
    """Osada's variant of the rho algorithm for a known decay exponent.

    Replaces the numerator k+1 of the standard rho recursion by k+alpha;
    for remainders ``(n+beta)**(-alpha)`` the even-column error falls like
    ``n**(-alpha-2k)`` for any alpha > 0 (Osada 1990).
    """
    return _osada_table("rho_osada", sample.values, alpha, guard)


def _osada_table(name: str, s: Sequence[Scalar], alpha: float,
                 guard: GuardPolicy) -> TransformTable:
    alpha = check_positive("alpha", alpha, s)
    return cross_rule_table(name, s, lambda k, rows: k - 1 + alpha, guard)


def iterated_rho(
    sample: SequenceSample,
    points: InterpolationPoints,
    guard: GuardPolicy = GuardPolicy(),
) -> TransformTable:
    """Iteration of the closed-form rho_2 expression on explicit points.

    Column k consumes 2k+1 elements and inherits the rho algorithm's
    affinity for logarithmic convergence.
    """
    s = sample.values
    x = _require_points(points, TO_INFINITY, len(s))
    if len(s) < 3:
        raise InsufficientDataError("iterated rho needs at least 3 elements")

    def kernel(cur, k, rows):
        d = [(n, cur[n + 1] - cur[n], cur[n + 2] - cur[n + 1]) for n in rows]
        return ([(x[n + 2 * k] - x[n]) * d1 * d0 for n, d0, d1 in d],
                [(x[n + 2 * k] - x[n + 1]) * d0 - (x[n + 2 * k - 1] - x[n]) * d1
                 for n, d0, d1 in d],
                [cur[n + 1] for n in rows])

    return stencil_table("rho_iterated_general", s, 3, kernel, guard)


def iterated_rho_standard(
    sample: SequenceSample, guard: GuardPolicy = GuardPolicy()
) -> TransformTable:
    """Iterated rho_2 on ``x_n = n + 1``, which is BDG at alpha = 1: both scale by 2k/(2k-1)."""
    if len(sample.values) < 3:
        raise InsufficientDataError("iterated rho needs at least 3 elements")
    return _bdg_table("rho_iterated", sample.values, 1, guard)


def bdg_transform(
    sample: SequenceSample,
    alpha: float,
    guard: GuardPolicy = GuardPolicy(),
) -> TransformTable:
    """The Bjorstad-Dahlquist-Grosse iteration for a known decay exponent.

    Iterates the closed-form Osada rho_2 step with alpha increased by two
    per level; the column-k error falls like ``n**(-alpha-2k)``.
    """
    if len(sample.values) < 3:
        raise InsufficientDataError("the BDG transformation needs at least 3 elements")
    return _bdg_table("bdg", sample.values, alpha, guard)


def _bdg_table(name: str, s: Sequence[Scalar], alpha: float,
               guard: GuardPolicy) -> TransformTable:
    alpha = check_positive("alpha", alpha, s)  # an mpf factor on an mpf column

    def kernel(cur, k, rows):
        factor = (2 * (k - 1) + alpha + 1) / (2 * (k - 1) + alpha)
        # cur[n+1] - num / den
        d = [(cur[n + 1] - cur[n], cur[n + 2] - cur[n + 1]) for n in rows]
        return ([-(factor * d1 * d0) for d0, d1 in d],
                [d1 - d0 for d0, d1 in d],
                [cur[n + 1] for n in rows])

    return stencil_table(name, s, 3, kernel, guard)


def estimate_decay(
    sample: SequenceSample, guard: GuardPolicy = GuardPolicy()
) -> list:
    """Estimate the decay exponent alpha from a weighted third difference.

    For remainders ``(n+beta)**(-alpha) * (c0 + c1/(n+beta) + ...)`` the
    returned ``T_n`` satisfy ``alpha = T_n + O(1/n**2)``.  A third-
    difference ratio is potentially very unstable, so the full list, one
    ``compute_column`` column whose ``None`` marks a guard trip or a
    non-finite estimate, is returned and any aggregation is left to the
    caller; the CLI summarizes with the median of the last quartile.
    """
    s = sample.values
    if len(s) < 4:
        raise InsufficientDataError("decay estimation needs at least 4 elements")
    # T_n = dd_n dd_{n+1} / (d_{n+1} dd_{n+1} - d_{n+2} dd_n) - 1, with
    # d_n = s_{n+1} - s_n and dd_n = d_{n+1} - d_n
    d = [b - a for a, b in zip(s, s[1:])]
    dd = [b - a for a, b in zip(d, d[1:])]

    def column(rows):  # then t - 1, not the guard's base -1: -1 + t turns -0.0 imaginary parts +0.0
        return ([dd[n] * dd[n + 1] for n in rows],
                [d[n + 1] * dd[n + 1] - d[n + 2] * dd[n] for n in rows])
    return [None if t is None else t - 1 for t in compute_column(len(s) - 3, (), column, guard)[0]]


def median_last_quartile(estimates: Sequence[Optional[Scalar]]) -> Scalar:
    """Median of the valid entries in the last quarter of the list."""
    tail = [t for t in estimates[3 * len(estimates) // 4:] if t is not None]
    if not tail:
        raise InsufficientDataError("no valid decay estimates in the last quartile")
    tail.sort(key=lambda t: (t.real, t.imag))  # every scalar's: a float may meet a complex
    mid = len(tail) // 2
    if len(tail) % 2 == 1:
        return tail[mid]
    return (tail[mid - 1] + tail[mid]) / 2
