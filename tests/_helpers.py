"""Shared test utilities."""

import math
from itertools import accumulate

import mpmath
from hypothesis import strategies as st

from seqaccel import make_partial_sums


def rel_diff(a, b):
    """Relative difference normalized to guard against tiny denominators."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def table_rel_spread(table_a, table_b, orders=None):
    """Worst relative difference between matching valid entries of two tables."""
    worst = 0.0
    orders = orders if orders is not None else range(
        min(table_a.max_order, table_b.max_order) + 1
    )
    for k in orders:
        if k > table_a.max_order or k > table_b.max_order:
            continue
        for n, value, ok in table_a.column(k):
            if ok and table_b.has_entry(k, n) and table_b.is_valid(k, n):
                worst = max(worst, rel_diff(value, table_b.entry(k, n)))
    return worst


def lsq_slope(points):
    """Least-squares slope of (x, y) pairs."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def error_slope(table, order, limit, n_lo, n_hi, shift=0.0, step=1):
    """Log-log slope of |T_order^(n) - limit| against n + shift.

    ``n + shift`` is the abscissa of the fit.  For an entry built from a
    contiguous stencil, choose the shift that puts this abscissa at the
    stencil midpoint in the input's own variable (for ``s_m = f(m + 1)``
    and a stencil ``s_n .. s_{n+2k}``, ``shift = 1 + k``): the asymptotic
    slope does not depend on the shift, but on a finite window an
    off-centre abscissa adds an ``O(1/n)`` bias to it.
    """
    points = []
    for n in range(n_lo, n_hi + 1, step):
        if table.is_valid(order, n):
            err = abs(table.entry(order, n) - limit)
            if err != 0:
                points.append((math.log(n + shift), math.log(float(err))))
    return lsq_slope(points)


@st.composite
def mpf_samples(draw):
    """A 40-50-digit sample of 3-14 elements and its precision: a rational function
    of n, the partial sums of an alternating or a logarithmically convergent
    series, or random values."""
    dps, size = draw(st.integers(40, 50)), draw(st.integers(3, 14))
    kind = draw(st.sampled_from(("rational", "alternating", "logarithmic", "random")))
    with mpmath.workdps(dps):
        if kind == "random":
            floats = draw(st.lists(st.floats(-10, 10), min_size=size, max_size=size))
            values = list(map(mpmath.mpf, floats))
        elif kind == "rational":
            a, b, c, d = draw(st.lists(st.integers(1, 9), min_size=4, max_size=4))
            values = [mpmath.mpf(a * n + b) / (c * n + d) for n in range(size)]
        else:
            p, sign = mpmath.mpf(draw(st.integers(3, 8))) / 2, -1 if kind == "alternating" else 1
            values = list(accumulate(sign ** j / mpmath.mpf(j + 1) ** p for j in range(size)))
    return dps, tuple(values)


def assert_agrees_with_mpmath(dps, build):
    """Assert that ``build()``'s two lists, seqaccel's values and an mpmath oracle's,
    agree on a ``dps``-digit draw; a ``None`` from ``build()`` at either precision
    (a case left out) passes.

    Both are built at 20 and at 40 digits past the draw.  At the higher precision
    each pair must agree within how far its two values moved between the two (an
    ill-conditioned draw moves them far, while their gap shrinks with the
    rounding), plus ``10**-dps`` of ``max(1, |oracle|)`` for a pair that did not move.
    """
    builds = []
    for digits in (dps + 20, dps + 40):
        with mpmath.workdps(digits):
            builds.append(build())
    if None in builds:
        return
    (got_lo, want_lo), (got, want) = builds
    assert len(got) == len(want)
    for g0, w0, g, w in zip(got_lo, want_lo, got, want):
        assert abs(g - w) <= abs(g - g0) + abs(w - w0) + max(1, abs(w)) / mpmath.mpf(10) ** dps


def zeta2_mpf_error(build, count):
    """The error of the best entry of ``build(sample)``'s whole table on the first
    ``count`` partial sums of zeta(2) at 40 digits: the measure of an mpf table whose
    default or ``int`` parameters must enter in mpf, not as doubles."""
    with mpmath.workdps(40):
        table = build(make_partial_sums([1 / mpmath.mpf(k + 1) ** 2 for k in range(count)]))
        return min(abs(v - mpmath.pi ** 2 / 6) for col in table.columns for v in col if v is not None)
