import math
import random
from fractions import Fraction
from functools import partial
from itertools import accumulate

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from seqaccel import (
    LEVIN_POWER,
    WENIGER_POCHHAMMER,
    GuardPolicy,
    InterpolationPoints,
    SequenceSample,
    InsufficientDataError,
    bdg_transform,
    brezinski_theta,
    iterated_aitken,
    iterated_rho,
    iterated_theta,
    make_partial_sums,
    neville_richardson,
    osada_rho,
    richardson_standard,
    rho_standard,
    weighted_ratio_transform,
    wynn_epsilon,
    wynn_rho,
)
from seqaccel.interpolatory import TO_INFINITY, TO_ZERO
from _helpers import rel_diff


def theta2_closed_form(s, n):
    """Independent single-entry evaluation of the theta_2 expression."""
    d = [s[i + 1] - s[i] for i in range(len(s) - 1)]
    dd = [d[i + 1] - d[i] for i in range(len(d) - 1)]
    return s[n + 1] - d[n] * d[n + 1] * dd[n + 1] / (
        d[n + 2] * dd[n] - d[n] * dd[n + 1]
    )


def random_values(seed, count, lo=0.25, hi=1.75):
    rng = random.Random(seed)
    return tuple(rng.uniform(lo, hi) for _ in range(count))


class TestAitkenStep:
    """Entry (1, 0) of the iterated table is one Aitken step on s_0, s_1, s_2."""

    def test_exact_on_geometric(self):
        # s_n = 1 + 2^-n
        table = iterated_aitken(SequenceSample((2.0, 1.5, 1.25)))
        assert table.entry(1, 0) == pytest.approx(1.0)

    def test_arithmetic_progression_is_singular(self):
        table = iterated_aitken(SequenceSample((0.0, 1.0, 2.0)))
        assert not table.is_valid(1, 0)
        assert table.entry(1, 0) is None

    def test_ln2_partial_sums(self):
        table = iterated_aitken(SequenceSample((1.0, 0.5, 0.8333333333333333)))
        assert table.entry(1, 0) == pytest.approx(0.7)


class TestIteratedAitken:
    def test_single_exponential_exact(self):
        vals = tuple(1.0 + 2.0 ** -n for n in range(3))
        table = iterated_aitken(SequenceSample(vals))
        assert table.entry(1, 0) == pytest.approx(1.0, abs=1e-12)

    def test_accelerates_two_exponentials_along_column(self):
        # not exact for two exponential terms (that is the epsilon algorithm's
        # model), but the second column still beats the raw tail clearly
        vals = tuple(5.0 + 2.0 * 0.7 ** n + 0.3 ** n for n in range(9))
        table = iterated_aitken(SequenceSample(vals))
        raw_err = abs(vals[-1] - 5.0)
        assert abs(table.entry(2, 4) - 5.0) < raw_err / 100

    def test_constant_sequence_flags_singular_column(self):
        table = iterated_aitken(SequenceSample((7.0, 7.0, 7.0)))
        assert not table.is_valid(1, 0)
        assert table.entry(0, 1) == 7.0

    def test_needs_three_elements(self):
        with pytest.raises(InsufficientDataError):
            iterated_aitken(SequenceSample((1.0, 2.0)))

    def test_column_lengths(self):
        table = iterated_aitken(SequenceSample(random_values(0, 9)))
        assert [len(c) for c in table.columns] == [9, 7, 5, 3, 1]
        assert table.consumed(2, 0) == 5


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


class TestWynnEpsilon:
    def test_exp_partial_sums_give_one_one_pade(self):
        table = wynn_epsilon(SequenceSample((1.0, 2.0, 2.5)))
        assert table.entry(2, 0) == pytest.approx(3.0)

    def test_even_columns_are_approximants(self):
        table = wynn_epsilon(SequenceSample(random_values(1, 7)))
        assert table.order_step == 2
        assert table.approximant_orders() == [0, 2, 4, 6]

    def test_exact_on_geometric_along_column(self):
        vals = tuple(-2.0 + 0.4 ** n for n in range(6))
        table = wynn_epsilon(SequenceSample(vals))
        for n, value, ok in table.column(2):
            assert ok and value == pytest.approx(-2.0, abs=1e-12)

    def test_matches_aitken_everywhere(self):
        vals = random_values(2, 10)
        eps = wynn_epsilon(SequenceSample(vals))
        ait = iterated_aitken(SequenceSample(vals))
        for n in range(len(vals) - 2):
            assert rel_diff(eps.entry(2, n), ait.entry(1, n)) < 1e-12

    def test_exact_on_two_exponentials(self):
        vals = tuple(5.0 + 3.0 * 2.0 ** -n + (-4.0) ** -n for n in range(5))
        table = wynn_epsilon(SequenceSample(vals))
        assert table.entry(4, 0) == pytest.approx(5.0, abs=1e-9)

    def test_complex_sequences_pass_through(self):
        # the summed geometric series of a complex ratio
        lam = 0.4 + 0.3j
        limit = 1.0 / (1.0 - lam)
        sample = make_partial_sums([lam ** k for k in range(6)])
        table = wynn_epsilon(sample)
        assert table.entry(2, 0) == pytest.approx(limit, abs=1e-12)

    @given(mpf_samples())
    @settings(max_examples=50, deadline=None)
    def test_every_entry_is_mpmath_shanks(self, drawn):
        # an independent implementation of the same lozenge: row i of mpmath's table
        # holds eps_{j+1}^(i-j), with the same operations in the same order; it stops
        # before a zero difference, where GuardPolicy(0) leaves the entry invalid
        dps, values = drawn
        with mpmath.workdps(dps):
            rows = mpmath.shanks(values)
            table = wynn_epsilon(SequenceSample(values), GuardPolicy(0))
            for i, row in enumerate(rows):
                for j, value in enumerate(row):
                    assert table.entry(j + 1, i - j) == value, (i, j)


class TestBrezinskiTheta:
    def test_inverse_square_partial_sums(self):
        sample = make_partial_sums([(nu + 1.0) ** -2 for nu in range(4)])
        table = brezinski_theta(SequenceSample(sample.values))
        # hand evaluation of the closed form; true limit pi^2/6 = 1.6449...
        assert table.entry(2, 0) == pytest.approx(1.6388888888888888, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_recursion_matches_closed_form(self, seed):
        vals = random_values(seed, 9)
        table = brezinski_theta(SequenceSample(vals))
        for n, value, ok in table.column(2):
            if ok:
                assert rel_diff(value, theta2_closed_form(vals, n)) < 1e-12

    def test_exact_on_geometric(self):
        vals = tuple(1.5 - 0.8 * (-0.7) ** n for n in range(6))
        table = brezinski_theta(SequenceSample(vals))
        assert table.entry(2, 0) == pytest.approx(1.5, abs=1e-10)

    def test_column_lengths_consume_three_per_even_step(self):
        table = brezinski_theta(SequenceSample(random_values(3, 10)))
        assert len(table.columns[0]) == 10
        assert len(table.columns[2]) == 7
        assert len(table.columns[4]) == 4
        assert table.consumed(4, 0) == 7


class TestIteratedTheta:
    def test_first_column_is_theta2(self):
        vals = random_values(4, 10)
        theta = brezinski_theta(SequenceSample(vals))
        itth = iterated_theta(SequenceSample(vals))
        for n, value, ok in itth.column(1):
            if ok and theta.is_valid(2, n):
                assert rel_diff(value, theta.entry(2, n)) < 1e-13

    def test_accelerates_logarithmic_zeta2(self):
        sample = make_partial_sums([(nu + 1.0) ** -2 for nu in range(10)])
        limit = math.pi ** 2 / 6
        table = iterated_theta(SequenceSample(sample.values))
        raw_err = abs(sample.values[-1] - limit)
        assert abs(table.entry(3, 0) - limit) < raw_err / 1e3

    def test_constant_sequence_invalid_beyond_column_zero(self):
        table = iterated_theta(SequenceSample((3.0,) * 5))
        assert all(not ok for _, _, ok in table.column(1))

    def test_needs_four_elements(self):
        with pytest.raises(InsufficientDataError):
            iterated_theta(SequenceSample((1.0, 2.0, 3.0)))


_EXACT_N = 13
_ONE = Fraction(1)  # zeta, alpha and beta, exact
_NATURAL = InterpolationPoints(tuple(Fraction(n + 1) for n in range(_EXACT_N)), TO_INFINITY)
_RECIPROCAL = InterpolationPoints(tuple(Fraction(1, n + 1) for n in range(_EXACT_N)), TO_ZERO)
#: remainder estimates of both signs for the weighted-ratio kernels
_OMEGAS = [Fraction((-1) ** n * (n + 2), (n + 1) ** 2 + 3) for n in range(_EXACT_N)]


def _exact(term):
    """The sample ``2 + term(n)``, n = 0..12, in ``Fraction``: every kernel's limit is 2."""
    return SequenceSample(tuple(2 + term(n) for n in range(_EXACT_N)))


def _exponentials(k):
    pairs = ((Fraction(9, 10), 1), (Fraction(-7, 10), Fraction(1, 2)), (Fraction(1, 3), -2))[:k]
    return _exact(lambda n: sum(c * lam ** n for lam, c in pairs))


def _rational(k):
    """2 plus a rational function of x_n = n + 1, degree k - 1 over degree k."""
    def term(n):
        x = n + 1
        return Fraction(sum(c * x ** i for i, c in enumerate((3, -1, 2)[:k])),
                        x ** k + sum(c * x ** i for i, c in enumerate((5, 3, 7)[:k])))
    return _exact(term)


def _remainder_model(family, k):
    """2 plus omega_n times a polynomial of degree k - 1 in 1/(n + zeta) (power
    weights) or a factorial series of that degree (Pochhammer weights)."""
    def scale(n, j):
        b = n + _ONE
        return b ** j if family == LEVIN_POWER else math.prod(b + i for i in range(j))
    coefficients = (Fraction(3), Fraction(-2), Fraction(5, 2))[:k]
    return _exact(lambda n: _OMEGAS[n] * sum(c / scale(n, j) for j, c in enumerate(coefficients)))


_GEOMETRIC = _exact(lambda n: Fraction(3, 2) * Fraction(-3, 5) ** n)
_CUBIC = _exact(lambda n: sum(c * Fraction(1, n + 1) ** j for j, c in ((1, 1), (2, -3), (3, 5))))

#: id: (builder, kernel sample, column).  ``iterated_rho_standard`` is left out:
#: its int alpha makes BDG's factor a float, so its tables are not exact.
_KERNEL_CASES = {
    "aitken": (iterated_aitken, _GEOMETRIC, 1),
    "theta_iterated": (iterated_theta, _GEOMETRIC, 1),
    "theta": (brezinski_theta, _GEOMETRIC, 2),
    **{f"epsilon-{k}": (wynn_epsilon, _exponentials(k), 2 * k) for k in (1, 2, 3)},
    **{f"rho-{k}": (rho_standard, _rational(k), 2 * k) for k in (1, 2, 3)},
    **{f"rho_general-{k}": (partial(wynn_rho, points=_NATURAL), _rational(k), 2 * k)
       for k in (1, 2, 3)},
    **{f"rho_osada-{k}": (partial(osada_rho, alpha=_ONE), _rational(k), 2 * k) for k in (1, 2, 3)},
    "bdg": (partial(bdg_transform, alpha=_ONE), _rational(1), 1),
    "rho_iterated_general": (partial(iterated_rho, points=_NATURAL), _rational(1), 1),
    "richardson": (partial(richardson_standard, beta=_ONE), _CUBIC, 3),
    "richardson_general": (partial(neville_richardson, points=_RECIPROCAL), _CUBIC, 3),
    **{f"{family}-{k}": (
        partial(weighted_ratio_transform, omegas=_OMEGAS, family=family, zeta=_ONE),
        _remainder_model(family, k), k)
       for family in (LEVIN_POWER, WENIGER_POCHHAMMER) for k in (1, 2, 3)},
}


class TestExactArithmetic:
    """On ``Fraction`` samples (and parameters) the tables are exact: no float
    literal in a recursion turns an entry into a float, and each transform
    gives its limit exactly on its kernel."""

    # s + two exponential terms, exact; N = 12 keeps the fractions small
    SAMPLE = SequenceSample(tuple(
        2 + Fraction(9, 10) ** n + Fraction(1, 2) * Fraction(-7, 10) ** n for n in range(13)))

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_limit_at_the_documented_column_of_its_kernel(self, case):
        # every entry of column k is the limit 2 as a Fraction: exact on its kernel
        build, sample, k = _KERNEL_CASES[case]
        column = [(type(v), v, ok) for _, v, ok in build(sample).column(k)]
        assert len(column) >= 7 and column == [(Fraction, 2, True)] * len(column)

    @pytest.mark.parametrize("build", [iterated_aitken, wynn_epsilon, brezinski_theta,
                                       rho_standard])
    def test_every_valid_entry_is_a_fraction(self, build):
        table = build(self.SAMPLE)
        kinds = {type(v) for k, n, v, ok in table.entries() if ok}
        assert kinds == {Fraction}


class TestDataBudget:
    """``consumed(k, n)`` of every column, worked by hand on 13 elements.

    eps_k^(n) reads s_n .. s_{n+k}.  theta_{2j}^(n) reads s_n .. s_{n+3j}, and
    theta_{2j+1}^(n) reads theta_{2j}^(n+1), hence s_n .. s_{n+3j+1}."""

    SAMPLE = SequenceSample(random_values(5, 13))

    @pytest.mark.parametrize("build, first", [
        (wynn_epsilon, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]),
        (brezinski_theta, [1, 2, 4, 5, 7, 8, 10, 11, 13]),
    ], ids=["epsilon", "theta"])
    def test_every_column(self, build, first):
        table = build(self.SAMPLE)
        assert [table.consumed(k, 0) for k in range(table.max_order + 1)] == first
        for k, n, _, _ in table.entries():
            assert table.consumed(k, n) == first[k] + n
            assert table.consumed(k, n) <= 13


class TestCovariance:
    """Translation and scaling covariance shared by the whole family, in exact arithmetic.

    Each table is built on ``Fraction`` copies of the drawn doubles, moved by
    the drawn shift or scale as a ``Fraction``, under ``GuardPolicy(0)``; the
    moved table has the same validity flags, and each approximant is the
    moved approximant, ``==``.  Stated on floats with a 1e-8 tolerance, the
    property failed on the examples below: a large eps_4 read off a near-equal
    eps_3 pair amplifies the table's own rounding, and ``v + shift`` of the
    doubles is itself rounded, so some of them fail at 60 digits too.
    """

    BUILDS = (iterated_aitken, wynn_epsilon, brezinski_theta, iterated_theta)

    def assert_covariant(self, seed, move):
        vals = tuple(map(Fraction, random_values(seed, 8)))
        for build in self.BUILDS:
            base = build(SequenceSample(vals), GuardPolicy(0))
            moved = build(SequenceSample(tuple(map(move, vals))), GuardPolicy(0))
            for k in base.approximant_orders()[1:]:
                want = [None if v is None else move(v) for _, v, _ in base.column(k)]
                assert [v for _, v, _ in moved.column(k)] == want, (build.__name__, k)

    @given(
        st.floats(-25, 25).filter(lambda c: abs(c) > 1e-3),
        st.integers(0, 2 ** 31 - 1),
    )
    @example(1.0, 1073741824)
    @example(1.0, 488)
    @example(1.0, 26058214)
    @example(1.0, 45017999)
    @example(1.0, 558)
    @example(1.0, 59191558)
    @example(2.0, 8900)
    @example(2.0, 3296)
    @example(3.0, 1236)
    @example(4.0, 9586508)
    @settings(max_examples=40, deadline=None)
    def test_translation(self, shift, seed):
        self.assert_covariant(seed, Fraction(shift).__add__)

    @given(
        st.floats(-8, 8).filter(lambda c: abs(c) > 0.1),
        st.integers(0, 2 ** 31 - 1),
    )
    @example(3.0, 284)
    @example(3.0, 1073741824)
    @example(1.5, 1073741824)
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, scale, seed):
        self.assert_covariant(seed, Fraction(scale).__mul__)
