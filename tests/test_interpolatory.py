import math
import random
from fractions import Fraction

import mpmath
import pytest

from seqaccel import (
    GuardPolicy,
    InsufficientDataError,
    InterpolationPoints,
    InvalidParameterError,
    SequenceSample,
    bdg_transform,
    estimate_decay,
    iterated_rho,
    iterated_rho_standard,
    make_partial_sums,
    median_last_quartile,
    natural_points,
    neville_richardson,
    osada_rho,
    reciprocal_points,
    richardson_standard,
    rho_standard,
    wynn_rho,
)
from seqaccel.interpolatory import TO_INFINITY
from _helpers import error_slope, rel_diff, table_rel_spread
from oracles import richardson_binomial

PI2_6 = math.pi ** 2 / 6


def random_values(seed, count):
    rng = random.Random(seed)
    return tuple(rng.uniform(0.25, 1.75) for _ in range(count))


class TestInterpolationPoints:
    def test_direction_validation(self):
        with pytest.raises(InvalidParameterError):
            InterpolationPoints((1.0, 2.0), "to_zero")
        with pytest.raises(InvalidParameterError):
            InterpolationPoints((2.0, 1.0), "to_infinity")
        with pytest.raises(InvalidParameterError):
            InterpolationPoints((1.0, 1.0), "to_zero")
        with pytest.raises(InvalidParameterError):
            InterpolationPoints((0.0, 1.0), "to_infinity")
        with pytest.raises(InvalidParameterError):
            InterpolationPoints((1.0,), "sideways")

    @pytest.mark.parametrize("x, direction", (
        ((1j, 2j), "to_infinity"), ((2j, 1j), "to_zero"), ((1.0, 2 + 0j), "to_infinity"),
    ))
    def test_complex_points_are_refused(self, x, direction):
        with pytest.raises(InvalidParameterError, match="interpolation points must be positive"):
            InterpolationPoints(x, direction)

    def test_standard_grids(self):
        assert reciprocal_points(3).x == pytest.approx((1.0, 0.5, 1 / 3))
        assert natural_points(3).x == (1.0, 2.0, 3.0)


class TestNevilleRichardson:
    def test_exact_for_degree_one(self):
        # s_n = x_n with x_n = 1/(n+1): value at x=0 is 0
        points = reciprocal_points(5)
        vals = points.x
        table = neville_richardson(SequenceSample(vals), points)
        assert table.entry(1, 0) == pytest.approx(0.0, abs=1e-15)

    def test_constant_sequence(self):
        points = reciprocal_points(4)
        table = neville_richardson(SequenceSample((2.5,) * 4), points)
        for k, n, value, ok in ((1, 0, 2.5, True), (3, 0, 2.5, True)):
            assert table.is_valid(k, n) == ok
            assert table.entry(k, n) == pytest.approx(value)

    def test_exact_for_degree_two_polynomial(self):
        points = reciprocal_points(6)
        vals = tuple(x * x + 2 * x + 5 for x in points.x)
        table = neville_richardson(SequenceSample(vals), points)
        assert table.entry(2, 0) == pytest.approx(5.0, abs=1e-12)

    def test_requires_matching_direction_and_length(self):
        with pytest.raises(InvalidParameterError):
            neville_richardson(SequenceSample((1.0, 2.0)), natural_points(2))
        with pytest.raises(InvalidParameterError):
            neville_richardson(SequenceSample((1.0, 2.0, 3.0)), reciprocal_points(2))


class TestRichardsonStandard:
    def test_exact_for_integer_alpha_one(self):
        # s_n = s + c/(n+beta), beta = 1
        vals = tuple(2.0 + 3.0 / (n + 1.0) for n in range(6))
        table = richardson_standard(SequenceSample(vals), beta=1.0)
        for n, value, ok in table.column(1):
            assert ok and value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_recursion_matches_binomial_form(self, seed):
        vals = random_values(seed, 8)
        table = richardson_standard(SequenceSample(vals), beta=1.5)
        for k in range(table.max_order + 1):
            for n, value, ok in table.column(k):
                assert ok
                assert rel_diff(value, richardson_binomial(vals, 1.5, k, n)) < 1e-12

    def test_fails_for_nonintegral_alpha(self):
        # s_n = (n+1)^(-1/2): limit 0, alpha = 1/2 breaks the polynomial model
        vals = tuple((n + 1.0) ** -0.5 for n in range(4))
        table = richardson_standard(SequenceSample(vals), beta=1.0)
        assert abs(table.entry(3, 0)) > abs(vals[3]) / 10

    def test_beta_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            richardson_standard(SequenceSample((1.0, 2.0)), beta=0.0)


class TestWynnRho:
    def test_exact_for_one_one_rational(self):
        vals = tuple(1.0 + 1.0 / (n + 1) for n in range(8))
        table = wynn_rho(SequenceSample(vals), natural_points(8))
        for n, value, ok in table.column(2):
            assert ok and value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_natural_points_reduce_to_standard_form(self, seed):
        vals = random_values(seed, 9)
        general = wynn_rho(SequenceSample(vals), natural_points(9))
        standard = rho_standard(SequenceSample(vals))
        assert table_rel_spread(general, standard) < 1e-12

    @pytest.mark.parametrize("kind", ("float", "complex", "mpf"))
    def test_standard_form_is_natural_points_to_the_bit(self, kind):
        # x_(n+k) - x_n is exactly k on x_n = n + 1, the numerator rho_standard uses
        reals, imags = random_values(3, 12), random_values(4, 12)
        with mpmath.workdps(30):
            vals = {
                "float": reals,
                "complex": tuple(map(complex, reals, imags)),
                "mpf": tuple(mpmath.mpf(v) / 3 for v in reals),
            }[kind]
            sample = SequenceSample(vals)
            general = wynn_rho(sample, natural_points(len(vals)))
            standard = rho_standard(sample)
            assert repr(standard.columns) == repr(general.columns) and standard.name == "rho"

    def test_does_not_accelerate_linear_convergence(self):
        vals = tuple(1.0 + 2.0 ** -n for n in range(12))
        table = rho_standard(SequenceSample(vals))
        raw_err = abs(vals[-1] - 1.0)
        best = min(
            abs(value - 1.0)
            for k in table.approximant_orders()[1:]
            for _, value, ok in table.column(k)
            if ok
        )
        assert best > raw_err / 10

    def test_no_divergent_summation(self):
        # alternating divergent: s_n = 1/3 + (2/3) (-2)^n, antilimit 1/3
        vals = tuple(1.0 / 3.0 + (2.0 / 3.0) * (-2.0) ** n for n in range(12))
        table = rho_standard(SequenceSample(vals))
        closest = min(
            abs(value - 1.0 / 3.0)
            for k in table.approximant_orders()
            for _, value, ok in table.column(k)
            if ok
        )
        assert closest > 1e-2


class TestRhoOnZeta2:
    """Recorded desk runs on the inverse-square partial sums (limit pi^2/6)."""

    @pytest.fixture()
    def sums(self):
        return make_partial_sums([(nu + 1.0) ** -2 for nu in range(9)]).values

    def test_rho4_recorded_error(self, sums):
        table = rho_standard(SequenceSample(sums))
        assert abs(table.entry(4, 0) - PI2_6) == pytest.approx(3.9171953329e-05, rel=1e-5)

    def test_deeper_column_keeps_improving(self, sums):
        table = rho_standard(SequenceSample(sums))
        assert abs(table.entry(8, 0) - PI2_6) < 1e-8

    def test_iterated_rho_recorded_error(self, sums):
        table = iterated_rho_standard(SequenceSample(sums))
        assert abs(table.entry(2, 0) - PI2_6) == pytest.approx(3.2671946832e-05, rel=1e-5)
        assert abs(table.entry(4, 0) - PI2_6) < 1e-8


class TestIteratedRho:
    def test_first_column_is_rho2(self):
        vals = random_values(7, 9)
        points = natural_points(9)
        rho = wynn_rho(SequenceSample(vals), points)
        itr = iterated_rho(SequenceSample(vals), points)
        for n, value, ok in itr.column(1):
            if ok and rho.is_valid(2, n):
                assert rel_diff(value, rho.entry(2, n)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_natural_points_match_standard_form(self, seed):
        vals = random_values(seed, 9)
        general = iterated_rho(SequenceSample(vals), natural_points(9))
        standard = iterated_rho_standard(SequenceSample(vals))
        assert table_rel_spread(general, standard) < 1e-12

    @pytest.mark.parametrize("kind", ("float", "complex", "mpf"))
    def test_standard_form_is_bdg_at_alpha_one(self, kind):
        # both scale column k by 2k/(2k-1); the standard form is BDG's table by another name
        reals, imags = random_values(5, 60), random_values(6, 60)
        with mpmath.workdps(30):
            vals = {
                "float": reals,
                "complex": tuple(map(complex, reals, imags)),
                "mpf": tuple(mpmath.mpf(v) / 3 for v in reals),
            }[kind]
            sample = SequenceSample(vals)
            bdg = bdg_transform(sample, 1.0)
            standard = iterated_rho_standard(sample)
            assert repr(standard.columns) == repr(bdg.columns) and standard.name == "rho_iterated"

    def test_standard_form_needs_three_elements(self):
        with pytest.raises(InsufficientDataError, match="iterated rho needs at least 3 elements"):
            iterated_rho_standard(SequenceSample((1.0, 2.0)))


class TestOsadaRho:
    def test_recorded_value_for_inverse_sqrt(self):
        # alpha = 1/2 on (1, 1/sqrt2, 1/sqrt3); limit 0
        vals = (1.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0))
        table = osada_rho(SequenceSample(vals), alpha=0.5)
        assert table.entry(2, 0) == pytest.approx(0.008218041752945094, rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_alpha_one_is_standard_rho(self, seed):
        vals = random_values(seed, 9)
        assert table_rel_spread(
            osada_rho(SequenceSample(vals), alpha=1.0),
            rho_standard(SequenceSample(vals)),
        ) < 1e-12

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            osada_rho(SequenceSample((1.0, 2.0, 3.0)), alpha=0.0)

    def test_error_slope_first_order(self):
        # alpha = 0.7 decay: |rho_bar_2^(n)| falls like n^(-alpha-2)
        alpha = 0.7
        vals = tuple((n + 1.0) ** -alpha for n in range(66))
        table = osada_rho(SequenceSample(vals), alpha=alpha)
        slope = error_slope(table, 2, 0.0, 20, 60, shift=1.0)
        assert slope == pytest.approx(-(alpha + 2.0), abs=0.2)


class TestBdgTransform:
    @pytest.mark.parametrize("alpha", (0.4, 0.7, 1.3))
    def test_first_column_is_osada_rho2(self, alpha):
        vals = random_values(17, 9)
        bdg = bdg_transform(SequenceSample(vals), alpha=alpha)
        osa = osada_rho(SequenceSample(vals), alpha=alpha)
        for n, value, ok in bdg.column(1):
            if ok and osa.is_valid(2, n):
                assert rel_diff(value, osa.entry(2, n)) < 1e-12

    def test_exact_for_alpha_one_pure_decay(self):
        vals = tuple(2.5 - 3.0 / (n + 1.0) for n in range(8))
        table = bdg_transform(SequenceSample(vals), alpha=1.0)
        for n, value, ok in table.column(1):
            assert ok and value == pytest.approx(2.5, abs=1e-10)

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            bdg_transform(SequenceSample((1.0, 2.0, 3.0)), alpha=-1.0)

    @pytest.mark.parametrize("build, message", [
        (lambda s: bdg_transform(s, 1.0), "the BDG transformation needs at least 3 elements"),
        (lambda s: iterated_rho(s, natural_points(2)), "iterated rho needs at least 3 elements"),
    ], ids=["bdg", "iterated_rho_explicit_points"])
    def test_needs_three_elements(self, build, message):
        with pytest.raises(InsufficientDataError, match=message):
            build(SequenceSample((1.0, 2.0)))


class TestExactIdentities:
    """On exact input (ln 2's partial sums in ``Fraction``, N = 12, on the
    points ``x_n = n + 1``) the standard-grid tables are their general forms
    to the last digit."""

    SAMPLE = make_partial_sums([Fraction((-1) ** j, j + 1) for j in range(13)])
    POINTS = InterpolationPoints(tuple(Fraction(n + 1) for n in range(13)), TO_INFINITY)

    def test_rho_standard_is_wynn_rho(self):
        got, want = rho_standard(self.SAMPLE), wynn_rho(self.SAMPLE, self.POINTS)
        assert got.columns == want.columns and got.valid == want.valid

    def test_iterated_rho_is_bdg_at_alpha_one(self):
        got = iterated_rho(self.SAMPLE, self.POINTS)
        want = bdg_transform(self.SAMPLE, Fraction(1))
        assert got.columns == want.columns and got.valid == want.valid
        assert sum(map(sum, got.valid)) == 49


@pytest.fixture(scope="module")
def tables():
    with mpmath.workdps(50):
        alpha = mpmath.mpf("0.6")
        beta = mpmath.mpf(1)
        limit = mpmath.mpf(3)
        vals = tuple(
            limit + (n + beta) ** (-alpha) * (2 + mpmath.mpf("-0.7") / (n + beta))
            for n in range(811)
        )
        sample = SequenceSample(vals)
        return (
            float(alpha),
            limit,
            osada_rho(sample, alpha=alpha),
            bdg_transform(sample, alpha=alpha),
        )


class TestErrorOrderProperty:
    """Asymptotic transformation error n^(-alpha-2k) for known alpha.

    Measured at 50-digit precision over n in [200, 800]: the window must
    sit in the asymptotic regime, and double precision cannot resolve the
    k=2 errors there (they fall below the rounding floor of the input).
    The limit is 3, so ``entry - limit`` is also taken at 50 digits.
    """

    @pytest.mark.parametrize("k", (1, 2))
    def test_osada_error_order(self, tables, k):
        alpha, limit, osa, _ = tables
        with mpmath.workdps(50):
            slope = error_slope(osa, 2 * k, limit, 200, 800, step=10)
        assert slope == pytest.approx(-(alpha + 2 * k), abs=0.1)

    @pytest.mark.parametrize("k", (1, 2))
    def test_bdg_error_order(self, tables, k):
        alpha, limit, _, bdg = tables
        with mpmath.workdps(50):
            slope = error_slope(bdg, k, limit, 200, 800, step=10)
        assert slope == pytest.approx(-(alpha + 2 * k), abs=0.1)


class TestEstimateDecay:
    def test_exact_for_alpha_one(self):
        vals = tuple((n + 1.0) ** -1 for n in range(34))
        estimates = estimate_decay(SequenceSample(vals))
        assert 0.999 <= estimates[30] <= 1.001

    def test_alpha_half_at_n50(self):
        vals = tuple((n + 1.0) ** -0.5 for n in range(55))
        estimates = estimate_decay(SequenceSample(vals))
        assert estimates[50] == pytest.approx(0.5, abs=1e-3)

    def test_exact_on_fraction_input(self):
        # s_n = 3 + 2/(n+1) decays with alpha = 1 exactly, and no float may enter
        estimates = estimate_decay(SequenceSample(tuple(3 + Fraction(2, n + 1) for n in range(8))))
        assert [(type(t), t) for t in estimates] == [(Fraction, 1)] * 5

    @pytest.mark.parametrize("threshold", (1e-14, 0.0))
    def test_none_exactly_where_the_guard_trips_or_the_estimate_overflows(self, threshold):
        # row 0's ratio, -1e290 / -1e-20, overflows unless the guard trips first;
        # rows 11-14 read differences beyond the double range, rows 1, 2 and 8-10
        # a zero denominator
        s = (1e300, 0.0, 1e-10, 1e-10, 1e-10, 1.0, 3.0, 4.0, 6.0, 7.0, 7.0, 7.0, 7.0,
             1.7e308, -1.7e308, 2.0, 5.0, 6.0, 1.0)
        d = [b - a for a, b in zip(s, s[1:])]
        dd = [b - a for a, b in zip(d, d[1:])]
        causes, expected = [], []
        for n in range(len(s) - 3):
            num, den = dd[n] * dd[n + 1], d[n + 1] * dd[n + 1] - d[n + 2] * dd[n]
            if den == 0 or abs(den) < threshold * max(1.0, abs(num)):
                causes.append("trip")
            elif not math.isfinite(num / den - 1):
                causes.append("overflow")
            else:
                causes.append("valid")
            expected.append(num / den - 1 if causes[-1] == "valid" else None)
        assert estimate_decay(SequenceSample(s), GuardPolicy(threshold)) == expected
        assert causes[0] == ("trip" if threshold else "overflow")
        assert {"trip", "overflow", "valid"} <= set(causes)

    def test_complex_estimates_keep_a_negative_zero_imaginary_part(self):
        # t - 1 keeps the -0.0 of complex(x, -0.0); the guard's base, -1 + t, makes it +0.0
        sample = SequenceSample(tuple(complex(v) for v in (-1.6, 0.3, -0.8, 0.6, 0.8, -2.6)))
        estimates = estimate_decay(sample)
        assert [repr(t) for t in estimates[1:]] == ["(0.37614678899082543-0j)", "(-1.9-0j)"]

    def test_constant_sequence_all_invalid(self):
        estimates = estimate_decay(SequenceSample((4.0,) * 8))
        assert estimates == [None] * 5

    def test_needs_four_elements(self):
        with pytest.raises(InsufficientDataError):
            estimate_decay(SequenceSample((1.0, 2.0, 3.0)))

    def test_median_last_quartile(self):
        # last quartile of 12 entries is the final 3
        estimates = [float(i) for i in range(9)] + [4.0, None, 8.0]
        assert median_last_quartile(estimates) == 6.0
        with pytest.raises(InsufficientDataError):
            median_last_quartile([1.0, None, None, None])
