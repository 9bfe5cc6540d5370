"""Sequence transformations with explicit remainder estimates.

The transforms here assume the remainder factorizes as
``s_n - s = omega_n * z_n`` with a user-supplied (or rule-derived)
estimate ``omega_n`` and a smooth correction ``z_n``.  Annihilating the
correction with a weighted k-th difference gives the ratio

    T_k^(n) = D^k { w_k(n) s_n / omega_n } / D^k { w_k(n) / omega_n }.

Power weights ``w_k(n) = (n+zeta)**(k-1)`` give Levin's transformation,
exact when ``z_n`` is a polynomial of degree < k in ``1/(n+zeta)``;
Pochhammer weights ``w_k(n) = (n+zeta)_{k-1}`` give the factorial-series
variant, the tool of choice for strongly divergent alternating series.

Remainder estimate rules follow Levin and Smith/Ford:

    u: omega_n = (zeta+n) * (s_n - s_{n-1})      t: omega_n = s_n - s_{n-1}
    v: omega_n = product/difference of adjacent  d: omega_n = s_{n+1} - s_n
       backward and forward differences

The backward difference at n=0 exists only when the series terms are
stored (then ``s_0 - s_{-1} = a_0``); otherwise the u/t/v tables simply
start at n=1.  User-supplied estimates ``omega_n`` go through
``weighted_ratio_transform``; ``levin_variant`` and ``weniger_variant``
take a rule name.  All three share one front end, which forms ``1/omega_n``,
``s_n/omega_n`` and the bases ``zeta+n`` for either weight family and hands
that family's column rules to ``core.build_table``.

Weniger's numerator and denominator follow the three-term recursion
``X_k^(n) = X_{k-1}^(n+1) - f_k(n) X_{k-1}^(n)`` of Weniger (Comput. Phys.
Rep. 10 (1989) 189), one pass per column keeping only the current N and D:
O(N^2) operations and little memory beyond the table.  A Levin entry is
still its (k+1)-term binomial sum, which each row sums in a loop of its
own: O(N^3) operations until it has its own recursion.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import count, repeat
from typing import Callable, Iterator, Sequence

from .core import (
    GuardPolicy,
    Scalar,
    SequenceSample,
    TransformTable,
    build_table,
    check_positive,
    compute_column,
    constant_type,
    finite_scalars,
)
from .errors import InsufficientDataError, InvalidParameterError, ZeroRemainderError

LEVIN_POWER = "levin_power"
WENIGER_POCHHAMMER = "weniger_pochhammer"

_ESTIMATE_RULES = ("u", "t", "v", "d")

#: Names of the Weniger variants by the estimate rule they use.
WENIGER_NAMES = {"u": "y", "t": "tau", "v": "phi", "d": "delta"}


def _omega_with_start(sample: SequenceSample, kind: str, zeta: float) -> tuple:
    """Start index, remainder estimates and ``zeta`` in the sample's ``constant_type``."""
    values, terms = sample.values, sample.terms
    zeta = check_positive("zeta", zeta, values)
    if kind not in _ESTIMATE_RULES:
        raise InvalidParameterError(f"unknown remainder estimate kind {kind!r}")
    forward = [values[i + 1] - values[i] for i in range(len(values) - 1)]  # s_{n+1} - s_n
    # s_n - s_{n-1} from n = start; at n = 0 it is the series term a_0 when stored
    backward = forward if terms is None else [terms[0], *forward]
    start = 0 if kind == "d" or terms is not None else 1
    last = len(values) - 2 if kind in ("v", "d") else len(values) - 1
    if last < start:
        raise InsufficientDataError(f"too few elements for the {kind} remainder estimate")
    if kind == "u":
        omegas = [(zeta + n) * b for n, b in enumerate(backward, start)]
    elif kind == "t":
        omegas = backward
    elif kind == "d":
        omegas = forward
    else:  # v
        dens = [b - f for b, f in zip(backward, forward[start:])]
        if 0 in dens:
            n = start + dens.index(0)
            raise ZeroRemainderError(n, f"v estimate undefined at n={n}: equal differences")
        omegas = [b * f / den for b, f, den in zip(backward, forward[start:], dens)]
    _reject_zero(omegas, start)
    return start, omegas, zeta


def _reject_zero(omegas: Sequence[Scalar], start: int) -> None:
    for i, w in enumerate(omegas):
        if w == 0:
            raise ZeroRemainderError(start + i)


def omega_sequence(sample: SequenceSample, kind: str, zeta: float = 1.0) -> list:
    """The remainder estimates ``omega_n`` for the rule ``kind`` (u/t/v/d).

    The list starts at n=1 for the u/t/v rules on a plain value sample
    (no backward difference exists at n=0) and at n=0 otherwise.
    """
    return _omega_with_start(sample, kind, zeta)[1]


def weighted_ratio_transform(
    sample: SequenceSample,
    omegas: Sequence[Scalar],
    family: str = LEVIN_POWER,
    zeta: float = 1.0,
    guard: GuardPolicy = GuardPolicy(),
) -> TransformTable:
    """The weighted-difference ratio transform for user-supplied estimates.

    ``omegas`` holds one estimate per sample value.  The
    entry ``T_k^(n)`` is exact for ``s_n = s + omega_n z_n`` whenever the
    chosen weight family annihilates ``z_n`` at order k.
    """
    if family not in _BUILDERS:
        raise InvalidParameterError(f"unknown weight family {family!r}")
    values = sample.values
    zeta = check_positive("zeta", zeta, values)
    omegas = finite_scalars(omegas, "a remainder estimate")
    if len(omegas) != len(values):
        raise InvalidParameterError(
            f"{len(omegas)} remainder estimates for {len(values)} elements"
        )
    _reject_zero(omegas, 0)
    name = "levin_ratio" if family == LEVIN_POWER else "weniger_ratio"
    return _table(family, name, values, omegas, zeta, guard, n_start=0, lookahead=0)


def _table(family: str, name: str, values: Sequence[Scalar], omegas: Sequence[Scalar],
           zeta: float, guard: GuardPolicy, n_start: int, lookahead: int) -> TransformTable:
    """Both builders' front end: ``1/omega_n``, ``s_n/omega_n``, the bases ``zeta+n`` and
    their ``constant_type``, ``zeta``'s.  ``lookahead`` is 1 for a forward difference."""
    inv = [1 / w for w in omegas]
    ratio = [v * iw for v, iw in zip(values, inv)]
    bases = [zeta + n for n in range(n_start, n_start + len(values))]
    rules = partial(_BUILDERS[family], ratio, inv, bases, constant_type((zeta,)))
    return build_table(name, values, repeat(1), rules, guard, n_start=n_start, lookahead=lookahead)


def _ratio_table(ratio: list, inv: list, bases: list, lift: Callable,
                 columns: list, valid: list) -> Iterator[tuple]:
    """Levin's columns: every entry its (k+1)-term binomial sum with power weights, its
    constants taken through the front end's ``lift`` (plain ints slow the row loop;
    exact on ``Fraction`` bases).  The rules stop at k = 1030, whose weight ``comb(k, k
    // 2)`` is beyond the double range, and ``build_table`` makes the rest dead."""
    one, zero = lift(1), lift(0)
    for k in count(1):
        if math.comb(k, k // 2).bit_length() > 1024:
            return
        top, p = lift(k), lift(k - 1)

        def column(rows):  # rows are the whole column
            # Each entry sums its k+1 terms in a row loop of its own, in the order of
            # the per-entry binomial sums; the signed weights and lifted j are formed
            # once per column.  w_k(n+j)/w_k(n+k) (1 at k=1) keeps the terms moderate.
            terms = [((-one) ** j * math.comb(k, j), lift(j)) for j in range(k + 1)]
            nums, dens = [], []
            for n, b in zip(rows, bases):
                h, x, z = b + top, zero, zero
                for (c, lj), r, u in zip(terms, ratio[n:n + k + 1], inv[n:n + k + 1]):
                    y = c * ((b + lj) / h) ** p
                    x += y * r
                    z += y * u
                nums.append(x)
                dens.append(z)
            return nums, dens

        yield (), column


def _factorial_table(ratio: list, inv: list, bases: list, lift: Callable,
                     columns: list, valid: list) -> Iterator[tuple]:
    """Weniger's columns by the three-term recursion of their numerator and denominator.

    ``X_k^(n) = X_{k-1}^(n+1) - f_k(n) X_{k-1}^(n)`` from ``X_0 = s_n/omega_n``
    and ``1/omega_n`` gives (-1)^k times the binomial sums of the Pochhammer
    weights, so ``T_k = N_k / D_k`` is the same ratio.  A column is one pass:
    ``f_k(n)`` once for N and D (``f_1 = 1``: the general factor, with n the
    absolute index, is 0/0 at zeta = 1, n = 0), N_k and D_k in place of the
    working columns before them, and ``T_k`` by one guarded division.  A
    guard trip on ``T`` stays in its entry; only a non-finite N or D spreads.
    """

    def advance(cur, ok, f):  # X_k and its mask from X_{k-1}, or None; no division, no guard
        return compute_column(len(cur) - 1, [(ok, (0, 1))], lambda rows: (
            [cur[n + 1] - cur[n] for n in rows] if f is None
            else [cur[n + 1] - f[n] * cur[n] for n in rows]), None)

    num, num_ok, den, den_ok = ratio, b"\x01" * len(ratio), inv, b"\x01" * len(inv)
    for k in count(1):
        p, q, r, t = map(lift, (k - 1, k - 2, 2 * k - 2, 2 * k - 3))
        f = [(b + p) * (b + q) / ((b + r) * (b + t)) for b in bases[:len(num) - 1]] if k > 1 else None
        nums, dens = advance(num, num_ok, f), advance(den, den_ok, f)
        if not (nums and dens):
            return  # T_k has no computable row either
        (num, num_ok), (den, den_ok) = nums, dens
        yield [(num_ok, (0,)), (den_ok, (0,))], lambda rows: (
            [num[n] for n in rows], [den[n] for n in rows])


_BUILDERS = {LEVIN_POWER: _ratio_table, WENIGER_POCHHAMMER: _factorial_table}


def _variant(sample: SequenceSample, kind: str, zeta: float, guard: GuardPolicy,
             family: str) -> TransformTable:
    start, omegas, zeta = _omega_with_start(sample, kind, zeta)
    values = sample.values[start:start + len(omegas)]
    name = "levin_" + kind if family == LEVIN_POWER else "weniger_" + WENIGER_NAMES[kind]
    return _table(family, name, values, omegas, zeta, guard, start, int(kind in ("v", "d")))


def levin_variant(
    sample: SequenceSample,
    kind: str,
    zeta: float = 1.0,
    guard: GuardPolicy = GuardPolicy(),
) -> TransformTable:
    """Levin's u/t/v/d transformations (power weights).

    u and v handle linear and much logarithmic convergence; t and d are
    at their best on alternating series but fail on logarithmic
    convergence.
    """
    return _variant(sample, kind, zeta, guard, LEVIN_POWER)


def weniger_variant(
    sample: SequenceSample,
    kind: str,
    zeta: float = 1.0,
    guard: GuardPolicy = GuardPolicy(),
) -> TransformTable:
    """The factorial-series analogues y/tau/phi/delta (Pochhammer weights).

    ``kind`` still names the estimate rule (u/t/v/d).  The delta variant
    is particularly effective at summing strongly divergent alternating
    series.
    """
    return _variant(sample, kind, zeta, guard, WENIGER_POCHHAMMER)
