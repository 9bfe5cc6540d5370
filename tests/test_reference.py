import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from seqaccel import (
    DomainError,
    InvalidParameterError,
    ProblemSpec,
    euler_maclaurin_zeta,
    euler_series_value,
    generate_problem,
    pochhammer,
)
from seqaccel.errors import SingularMatrixError
from seqaccel.reference import _bernoulli_even
from oracles import e_oracle

# frozen reference values, each anchored by an independent oracle below
ZETA_1_1 = 10.584448464950801
EULER_1 = 0.596347362323194
EULER_HALF = 0.7226572337764451


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0

    def test_rising_factorial(self):
        assert pochhammer(2.0, 3) == 24.0

    def test_fractional_base(self):
        assert pochhammer(0.5, 2) == pytest.approx(0.75)

    def test_rejects_negative_order(self):
        with pytest.raises(InvalidParameterError):
            pochhammer(1.0, -1)


class TestBernoulli:
    def test_anchor_numbers_are_exact(self):
        b2, b4, b6 = _bernoulli_even()[:3]
        assert b2 == float(Fraction(1, 6))
        assert b4 == float(Fraction(-1, 30))
        assert b6 == float(Fraction(1, 42))

    def test_integer_tables_match_the_fraction_recurrence(self):
        """The integer-pair tables give floats identical to the floats of
        the exact Fraction recurrence's B_2 .. B_40."""
        oracle = [Fraction(1)]
        for m in range(1, 41):
            acc = Fraction(0)
            for j in range(m):
                acc += math.comb(m + 1, j) * oracle[j]
            oracle.append(-acc / (m + 1))
        assert len(_bernoulli_even()) == 20
        for j, value in enumerate(_bernoulli_even(), start=1):
            assert repr(value) == repr(float(oracle[2 * j]))


class TestEulerMaclaurinZeta:
    def test_zeta_two_matches_pi_squared_over_six(self):
        assert abs(euler_maclaurin_zeta(2.0, 20, 8) - math.pi ** 2 / 6) < 1e-12

    @pytest.mark.parametrize("z", (1.1, 1.5, 2.0, 3.0))
    def test_stable_under_refinement(self, z):
        assert abs(
            euler_maclaurin_zeta(z, 20, 8) - euler_maclaurin_zeta(z, 40, 10)
        ) < 1e-12

    def test_recorded_value_near_the_pole(self):
        assert euler_maclaurin_zeta(1.1) == pytest.approx(ZETA_1_1, abs=1e-12)

    def test_agrees_with_independent_zeta(self):
        for z in (1.1, 1.5, 2.5):
            assert abs(
                euler_maclaurin_zeta(z) - float(mpmath.zeta(z))
            ) < 1e-12

    def test_complex_argument(self):
        z = 1.5 + 0.3j
        got = euler_maclaurin_zeta(z)
        want = complex(mpmath.zeta(mpmath.mpc(1.5, 0.3)))
        assert abs(got - want) < 1e-12

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            euler_maclaurin_zeta(1.0)

    def test_parameter_guards(self):
        with pytest.raises(InvalidParameterError):
            euler_maclaurin_zeta(2.0, n=-1)
        with pytest.raises(InvalidParameterError):
            euler_maclaurin_zeta(2.0, k=99)


class TestEulerSeriesValue:
    def test_recorded_value_at_one(self):
        assert euler_series_value(1.0) == pytest.approx(EULER_1, abs=1e-12)

    def test_small_argument_limit(self):
        assert euler_series_value(1e-8) == pytest.approx(1.0, abs=1e-7)

    def test_recorded_value_at_half(self):
        assert euler_series_value(0.5) == pytest.approx(EULER_HALF, abs=1e-12)

    def test_domain(self):
        for x in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(DomainError):
                euler_series_value(x)


_LOG_UNIFORM = random.Random(20261018)
# the extremes of the double range, both sides of the series/fraction switch
# at x = 0.125 (y = 8) and of its former place at x = 0.5 (y = 2), the
# series' deepest cancellation just above the switch, and log-uniform draws
# across twelve decades
EULER_GRID = [
    1e-8, 1e-4, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3,
    5e-324, 1e-300, 1e300, 1.7e308, sys.float_info.max,
    math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
    math.nextafter(0.125, 0.0), 0.125, math.nextafter(0.125, 1.0), 0.13, 0.2, 0.3, 0.45,
    *(10 ** _LOG_UNIFORM.uniform(-6, 6) for _ in range(300)),
]


class TestEulerSeriesClosedForm:
    """``euler_series_value`` is ``y e^y E1(y)``, y = 1/x, correctly rounded."""

    @pytest.mark.parametrize("x", EULER_GRID)
    def test_within_half_ulp_of_60_digits(self, x):
        value = euler_series_value(x)
        with mpmath.workdps(60):
            y = 1 / mpmath.mpf(x)
            exact = y * mpmath.exp(y) * mpmath.e1(y)
            assert abs(mpmath.mpf(value) - exact) <= mpmath.mpf(math.ulp(value)) / 2

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_matches_the_stieltjes_integral(self, x):
        with mpmath.workdps(30):
            integral = mpmath.quad(
                lambda t: mpmath.exp(-t) / (1 + x * t), [0, 1, mpmath.inf]
            )
        assert euler_series_value(x) == pytest.approx(float(integral), rel=1e-15)

    def test_infinite_x_gives_nan(self):
        assert math.isnan(euler_series_value(math.inf))


class TestModelOracle:
    def test_single_exponential(self):
        lam = 0.3
        samples = [4.0 + 2.0 * lam ** n for n in range(2)]
        assert e_oracle(samples, [[lam ** n] for n in range(2)]) == pytest.approx(4.0)

    def test_two_basis_functions(self):
        phis = [[1.0 / (n + 1.0), 1.0 / (n + 1.0) ** 2] for n in range(3)]
        samples = [7.0 + 2 * p[0] - 3 * p[1] for p in phis]
        assert e_oracle(samples, phis) == pytest.approx(7.0)

    def test_rank_deficiency(self):
        with pytest.raises(SingularMatrixError):
            e_oracle([1.0, 2.0, 3.0], [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])

    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            e_oracle([1.0, 2.0], [[1.0]] * 3)


class TestGenerateProblem:
    def test_geometric_attaches_antilimit(self):
        sample = generate_problem(
            ProblemSpec("geometric", 6, {"s": 5.0, "c": -5.0, "lam": 0.8})
        )
        assert len(sample.values) == 7
        assert sample.limit == 5.0
        assert sample.values[3] == pytest.approx(5.0 - 5.0 * 0.8 ** 3)
        assert sample.terms is not None  # partial-sum invariant checked on build

    def test_zeta_dirichlet_attaches_oracle_limit(self):
        sample = generate_problem(ProblemSpec("zeta_dirichlet", 20, {"z": 1.1}))
        assert len(sample.values) == 21
        assert sample.limit == pytest.approx(ZETA_1_1, abs=1e-12)
        assert sample.terms[3] == pytest.approx(4.0 ** -1.1)

    def test_euler_factorial_attaches_quadrature_limit(self):
        sample = generate_problem(ProblemSpec("euler_factorial", 25, {"x": 1.0}))
        assert sample.terms[4] == pytest.approx(24.0)
        assert sample.limit == pytest.approx(EULER_1, abs=1e-9)

    def test_power_series_families(self):
        sample = generate_problem(
            ProblemSpec("power_series", 8, {"name": "exp", "z": 1.0})
        )
        assert sample.limit == pytest.approx(math.e)
        sample = generate_problem(
            ProblemSpec("power_series", 8, {"name": "geometric", "z": 2.0})
        )
        assert sample.limit == pytest.approx(-1.0)  # antilimit of the divergent case
        sample = generate_problem(
            ProblemSpec("power_series", 8, {"name": "log1p", "z": 0.5})
        )
        assert sample.limit == pytest.approx(math.log(1.5))

    @pytest.mark.parametrize("z", (800.0, 800.0 + 1j))
    def test_power_series_whose_limit_overflows_has_none(self, z):
        # exp(800) is beyond the double range, its first six partial sums are not
        sample = generate_problem(ProblemSpec("power_series", 5, {"name": "exp", "z": z}))
        assert sample.limit is None and len(sample.values) == 6
        assert sample.values[5] == pytest.approx(sum(z ** k / math.factorial(k) for k in range(6)))

    def test_power_series_whose_limit_is_infinite_has_none(self):
        # 1 / (1 - z) is an infinite complex here, though every term is finite
        z = 1 + 1e-320j
        sample = generate_problem(ProblemSpec("power_series", 5, {"name": "geometric", "z": z}))
        assert sample.limit is None and sample.values[5] == sum(z ** k for k in range(6))

    def test_decay_model(self):
        sample = generate_problem(
            ProblemSpec("decay_model", 5, {"s": 1.0, "alpha": 0.5, "c1": 2.0})
        )
        assert sample.values[0] == pytest.approx(1.0 + 1.0 * (1.0 + 2.0))
        assert sample.limit == 1.0

    def test_exponential_sum(self):
        sample = generate_problem(
            ProblemSpec("exponential_sum", 6, {"s": 2.0, "c": (1.0, 0.5), "lam": (1.5, 0.4)})
        )
        assert sample.values[0] == pytest.approx(3.5)
        assert sample.limit == 2.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("does_not_exist", 5)
        with pytest.raises(InvalidParameterError):
            generate_problem(ProblemSpec("zeta_dirichlet", 5, {"z": 1.0}))
        with pytest.raises(InvalidParameterError):
            generate_problem(ProblemSpec("euler_factorial", 5, {"x": -1.0}))
        with pytest.raises(InvalidParameterError):
            generate_problem(ProblemSpec("decay_model", 5, {"alpha": -0.5}))
        with pytest.raises(InvalidParameterError):
            generate_problem(ProblemSpec("exponential_sum", 5, {"c": (1.0,), "lam": ()}))
        with pytest.raises(InvalidParameterError):
            generate_problem(ProblemSpec("power_series", 5, {"name": "tan", "z": 0.1}))
        with pytest.raises(InvalidParameterError):
            generate_problem(ProblemSpec("zeta_dirichlet", 5))
        # a nan limit, and c * lam**n overflowing to inf, are not finite
        for params in ({"s": float("nan"), "c": 1.0, "lam": 0.5},
                       {"s": 0.0, "c": 1e308, "lam": 10.0}):
            with pytest.raises(InvalidParameterError, match="not a finite number"):
                generate_problem(ProblemSpec("geometric", 3, params))
