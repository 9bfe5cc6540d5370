import math
import random
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from seqaccel import (
    DegeneratePadeError,
    GuardPolicy,
    InvalidParameterError,
    PowerSeries,
    pade_direct,
    pade_label,
    pade_via_epsilon,
    staircase_sequence,
)
from _helpers import assert_agrees_with_mpmath, mpf_samples, rel_diff
from oracles import order_condition_residuals


#: ln(1+z) through z^10, exact
LN1P_COEFFICIENTS = (Fraction(0), *(Fraction((-1) ** (j + 1), j) for j in range(1, 11)))


def exp_series(count, z=1.0):
    return PowerSeries(tuple(1.0 / math.factorial(k) for k in range(count)), z)


@st.composite
def pade_problems(draw):
    """A 40-50-digit series from ``mpf_samples``, its precision and a degree pair
    [l/m] it has the coefficients for; not [0/0], where ``mpmath.pade`` gives 1 for a_0."""
    dps, coefficients = draw(mpf_samples())
    l = draw(st.integers(0, len(coefficients) - 1))
    m = draw(st.integers(0 if l else 1, len(coefficients) - 1 - l))
    return dps, coefficients, l, m


with mpmath.workdps(50):  # ln(1+z)/z through z^7, to 50 digits
    LN1P_OVER_Z = tuple(mpmath.mpf(c.numerator) / c.denominator for c in LN1P_COEFFICIENTS[1:9])


def _pade_pair(coefficients, l, m):
    """``pade_direct``'s and ``mpmath.pade``'s [l/m] coefficients, P's then Q's; None
    for a system singular to ``pade_direct``'s pivot threshold, which mpmath may solve."""
    try:
        approximant = pade_direct(PowerSeries(coefficients, 1), l, m)
    except DegeneratePadeError:
        return None
    p, q = mpmath.pade(list(coefficients), l, m)
    return [*approximant.numerator, *approximant.denominator], [*p, *q]


class TestPadeDirect:
    def test_one_one_of_exp(self):
        approximant = pade_direct(exp_series(3), 1, 1)
        assert approximant.numerator == pytest.approx((1.0, 0.5))
        assert approximant.denominator == pytest.approx((1.0, -0.5))
        assert approximant(1.0) == pytest.approx(3.0)

    def test_zero_zero_is_leading_coefficient(self):
        series = PowerSeries((4.0, 1.0, 7.0), 0.2)
        approximant = pade_direct(series, 0, 0)
        assert approximant.numerator == (4.0,)
        assert approximant.denominator == (1.0,)

    def test_geometric_series_is_reproduced_exactly(self):
        approximant = pade_direct(PowerSeries((1.0, 1.0, 1.0), 0.3), 0, 1)
        assert approximant.denominator == pytest.approx((1.0, -1.0))
        assert approximant(0.3) == pytest.approx(1.0 / 0.7)

    def test_degenerate_table_block_detected(self):
        # geometric coefficients make the [1/2] system singular
        with pytest.raises(DegeneratePadeError):
            pade_direct(PowerSeries((1.0, 1.0, 1.0, 1.0), 0.5), 1, 2)

    @given(pade_problems())
    @example((50, LN1P_OVER_Z, 3, 4))
    @settings(max_examples=50, deadline=None)
    def test_coefficients_are_mpmath_pade(self, drawn):
        # mpmath.pade solves the same order conditions by an LU solve of its own
        dps, coefficients, l, m = drawn
        assert_agrees_with_mpmath(dps, partial(_pade_pair, coefficients, l, m))

    @pytest.mark.parametrize("kind", ("float", "fraction", "mpf"))
    def test_singular_system_raises_degenerate_for_every_scalar_type(self, kind):
        # gamma_0 = 0 makes [0/1]'s one pivot zero; the message is the float's
        convert = {"float": float, "fraction": Fraction, "mpf": mpmath.mpf}[kind]
        series = PowerSeries(tuple(map(convert, (0, 1, -0.5))), convert(1))
        with pytest.raises(DegeneratePadeError) as info:
            pade_direct(series, 0, 1)
        assert str(info.value) == (
            "[0/1] order conditions are singular: pivot 0.000e+00 below threshold")

    @pytest.mark.parametrize("z", (Fraction(1), Fraction(1, 2), Fraction(-3, 2)))
    def test_exact_series_below_the_diagonal(self, z):
        # every [l/m] with l < m and l + m <= 10 of ln(1+z) reads gamma at negative
        # indices, which must be exact zeros; with gamma_0 = 0 each [0/m] is singular
        series = PowerSeries(LN1P_COEFFICIENTS, z)
        solved = 0
        for m in range(1, 11):
            for l in range(min(m, 11 - m)):
                if l == 0:
                    with pytest.raises(DegeneratePadeError):
                        pade_direct(series, l, m)
                    continue
                approximant = pade_direct(series, l, m)
                coefficients = approximant.numerator + approximant.denominator[1:]
                assert all(type(c) is Fraction for c in coefficients), (l, m)
                assert type(approximant(z)) is Fraction, (l, m)
                assert order_condition_residuals(approximant, series) == [0] * (l + m + 1)
                solved += 1
        assert solved == 20

    @pytest.mark.parametrize("exponent", (4, 400))
    def test_exact_series_beyond_the_double_range(self, exponent):
        # the pivot threshold of a Fraction matrix is a Fraction: 1e-13 times a scale
        # past the double range has no float
        big = Fraction(10**exponent)
        approximant = pade_direct(PowerSeries((Fraction(1), big, 10 * big), Fraction(1)), 1, 1)
        assert approximant.numerator == (1, big - 10)
        assert approximant.denominator == (1, -10)
        # Q(0) included: the 1 enters a Fraction series as Fraction(1)
        assert all(type(c) is Fraction for c in approximant.numerator + approximant.denominator)

    def test_pivot_threshold_is_absolute_below_a_scale_of_one(self):
        series = PowerSeries((Fraction(1), Fraction(1, 10**400), Fraction(1)), Fraction(1))
        with pytest.raises(DegeneratePadeError, match="pivot 0.000e.00 below threshold"):
            pade_direct(series, 1, 1)

    def test_solve_dense_of_an_empty_or_a_non_square_system(self):
        from seqaccel.linalg import solve_dense

        assert solve_dense([], []) == []
        for matrix, rhs in (([[1.0, 2.0]], [1.0]), ([[1.0]], [1.0, 2.0])):
            with pytest.raises(ValueError, match="square system"):
                solve_dense(matrix, rhs)

    def test_needs_enough_coefficients(self):
        with pytest.raises(InvalidParameterError):
            pade_direct(exp_series(3), 2, 2)
        with pytest.raises(InvalidParameterError):
            pade_direct(exp_series(3), -1, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_order_conditions_hold(self, seed):
        rng = random.Random(seed)
        coeffs = tuple(rng.uniform(-1, 1) for _ in range(rng.randint(5, 9)))
        series = PowerSeries(coeffs, 0.3)
        scale = max(abs(c) for c in coeffs)
        for l in range(4):
            for m in range(4):
                if l + m > series.order:
                    continue
                try:
                    approximant = pade_direct(series, l, m)
                except DegeneratePadeError:
                    continue
                residuals = order_condition_residuals(approximant, series)
                assert max(abs(r) for r in residuals) <= 1e-12 * scale


class TestPadeViaEpsilon:
    def test_gauge_column_is_partial_sums(self):
        series = exp_series(4, z=0.5)
        table = pade_via_epsilon(series)
        sums = [sum(0.5 ** j / math.factorial(j) for j in range(n + 1)) for n in range(4)]
        assert [v for _, v, _ in table.column(0)] == pytest.approx(sums)

    def test_label_mapping(self):
        assert pade_label(2, 0) == (1, 1)
        assert pade_label(4, 3) == (5, 2)
        with pytest.raises(InvalidParameterError):
            pade_label(3, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_direct_solver(self, seed):
        rng = random.Random(seed)
        coeffs = tuple(rng.uniform(-1, 1) for _ in range(rng.randint(6, 9)))
        series = PowerSeries(coeffs, rng.uniform(-0.5, 0.5))
        table = pade_via_epsilon(series)
        for k in table.approximant_orders():
            for n, value, ok in table.column(k):
                if not ok:
                    continue
                l, m = pade_label(k, n)
                try:
                    direct = pade_direct(series, l, m)(series.z)
                except DegeneratePadeError:
                    continue
                assert rel_diff(value, direct) < 1e-10

    @pytest.mark.parametrize("z, entries", (
        (Fraction(1), 36), (Fraction(1, 2), 36), (Fraction(-3, 2), 25),
    ))
    def test_exact_series_agrees_with_direct_solver_exactly(self, z, entries):
        # ln(1+z) through z^10: no float constant may enter either route
        series = PowerSeries(LN1P_COEFFICIENTS, z)
        table = pade_via_epsilon(series, GuardPolicy(0))
        checked = 0
        for k in table.approximant_orders():
            for n, value, ok in table.column(k):
                if ok:
                    direct = pade_direct(series, *pade_label(k, n))(z)
                    assert type(value) is Fraction and value == direct, (k, n)
                    checked += 1
        assert checked == entries

    @pytest.mark.parametrize("z", (0.5, 0.5 + 0.25j))
    def test_denominator_leads_with_a_float_one(self, z):
        approximant = pade_direct(PowerSeries((1.0, 0.5, 0.25, 0.125), z), 1, 1)
        assert repr(approximant.denominator[0]) == "1.0"


class TestStaircase:
    def test_three_sums_give_first_three_approximants(self):
        labels = [(l, m) for l, m, _ in staircase_sequence(exp_series(3))]
        assert labels == [(0, 0), (1, 0), (1, 1)]

    def test_exp_staircase_ends_at_diagonal_two_two(self):
        entries = staircase_sequence(exp_series(5))
        assert [(l, m) for l, m, _ in entries] == [
            (0, 0), (1, 0), (1, 1), (2, 1), (2, 2),
        ]
        direct = pade_direct(exp_series(5), 2, 2)(1.0)
        assert entries[-1][2] == pytest.approx(direct)
        assert direct == pytest.approx(19.0 / 7.0)

    def test_invalid_entries_are_marked(self):
        # constant partial sums trip the epsilon guard immediately
        series = PowerSeries((1.0, 0.0, 0.0, 0.0), 0.5)
        entries = staircase_sequence(series)
        assert entries[0][2] == 1.0
        assert any(value is None for _, _, value in entries[1:])

    def test_overflowing_partial_sum_is_rejected(self):
        # s_1 = 1e308 + 1e308 is not a finite number, so the series has no sample
        series = PowerSeries((1e308, 1e308, 1.0, 1.0), 1.0)
        with pytest.raises(InvalidParameterError, match="not a finite number"):
            staircase_sequence(series)
        with pytest.raises(InvalidParameterError, match="not a finite number"):
            pade_via_epsilon(series)
