"""Aitken's delta-squared process, Wynn's epsilon algorithm, and Brezinski's
theta algorithm, together with their iterations.

These are the classic accelerators for linearly convergent sequences.  The
epsilon algorithm is exact for remainders built from k exponential terms
and sums many alternating divergent series; the theta algorithm and its
iteration additionally handle a good deal of logarithmic convergence.
"""

from __future__ import annotations

from itertools import cycle

from .core import (
    GuardPolicy,
    SequenceSample,
    TransformTable,
    build_table,
    constant_type,
    cross_rule_table,
    lozenge_rule,
    stencil_table,
)
from .errors import InsufficientDataError


def iterated_aitken(sample: SequenceSample, guard: GuardPolicy = GuardPolicy()) -> TransformTable:
    """Aitken's delta-squared process applied to its own output, repeatedly.

    Column 1 is the plain step ``s_n - (s_{n+1} - s_n)^2 / (s_{n+2} -
    2 s_{n+1} + s_n)``, exact for ``s_n = s + c * lambda**n``; column k+1
    applies it to column k, so column k consumes 2k+1 elements.  Singular
    steps (arithmetic progressions) flag entries invalid; they are never
    fatal here.
    """
    s = sample.values
    if len(s) < 3:
        raise InsufficientDataError("iterated Aitken needs at least 3 elements")
    two = constant_type(s)(2)

    def kernel(cur, k, rows):
        # cur[n] - d^2 / dd
        d = [cur[n + 1] - cur[n] for n in rows]
        return guard.divide(
            [-(x * x) for x in d],
            [cur[n + 2] - two * cur[n + 1] + cur[n] for n in rows],
            [cur[n] for n in rows],
        )

    return stencil_table("aitken", s, 3, kernel)


def wynn_epsilon(sample: SequenceSample, guard: GuardPolicy = GuardPolicy()) -> TransformTable:
    """Wynn's epsilon algorithm.

    The even columns hold the approximants; eps_{2k} is exact when the
    remainder is a sum of k exponential terms, and on the partial sums of
    a power series it produces the [n+k/k] Pade approximants.  Odd
    columns are auxiliary quantities only.
    """
    s = sample.values
    one = constant_type(s)(1)
    return cross_rule_table("epsilon", s, lambda k, rows: one, guard)


def brezinski_theta(sample: SequenceSample, guard: GuardPolicy = GuardPolicy()) -> TransformTable:
    """Brezinski's theta algorithm.

    A modification of the epsilon recursion that also accelerates many
    logarithmically convergent sequences.  Even columns are approximants;
    theta_{2k} consumes 3k+1 elements.
    """
    one, two = map(constant_type(sample.values), (1, 2))

    def rules(columns, valid):
        while True:
            # odd rule: theta_{2j+1}^(n) = theta_{2j-1}^(n+1) + 1 / (theta_{2j}^(n+1) - theta_{2j}^(n))
            yield lozenge_rule(columns, valid, lambda k, rows: one, guard)
            # even rule: theta_{2j+2}^(n) = theta_{2j}^(n+1)
            #   + (D theta_{2j}^(n+1)) (D theta_{2j+1}^(n+1)) / (D^2 theta_{2j+1}^(n));
            # the even reads are implied: a valid theta_{2j+1}^(m) was computed
            # from theta_{2j}^(m) and theta_{2j}^(m+1), m = n+1 and n+2 among them
            even, odd = columns[-2], columns[-1]
            yield [(valid[-1], (0, 1, 2))], lambda rows: guard.divide(
                [(even[n + 2] - even[n + 1]) * (odd[n + 2] - odd[n + 1]) for n in rows],
                [odd[n + 2] - two * odd[n + 1] + odd[n] for n in rows],
                [even[n + 1] for n in rows],
            )

    return build_table("theta", sample.values, cycle((1, 2)), rules, order_step=2)


def iterated_theta(sample: SequenceSample, guard: GuardPolicy = GuardPolicy()) -> TransformTable:
    """Iteration of the closed-form theta_2 expression.

    Column k+1 applies the four-element theta_2 step to column k, so
    column k consumes 3k+1 elements.  Shares the theta algorithm's reach:
    linear and logarithmic convergence, many divergent series.
    """
    s = sample.values
    if len(s) < 4:
        raise InsufficientDataError("iterated theta needs at least 4 elements")

    def kernel(cur, k, rows):
        # cur[n+1] - num / den
        d = [(cur[n + 1] - cur[n], cur[n + 2] - cur[n + 1], cur[n + 3] - cur[n + 2])
             for n in rows]
        return guard.divide(
            [-(d0 * d1 * (d2 - d1)) for d0, d1, d2 in d],
            [d2 * (d1 - d0) - d0 * (d2 - d1) for d0, d1, d2 in d],
            [cur[n + 1] for n in rows],
        )

    return stencil_table("theta_iterated", s, 4, kernel)
