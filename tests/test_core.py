import math
import random
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import accumulate, count, repeat

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from seqaccel import (
    EmptyInputError,
    ConsistencyError,
    GuardPolicy,
    InterpolationPoints,
    InvalidParameterError,
    LEVIN_POWER,
    PathRangeError,
    PathSpec,
    PowerSeries,
    ProblemSpec,
    SequenceSample,
    WENIGER_POCHHAMMER,
    bdg_transform,
    brezinski_theta,
    euler_maclaurin_zeta,
    extract_path,
    generate_problem,
    iterated_aitken,
    levin_variant,
    make_partial_sums,
    natural_points,
    osada_rho,
    pade_direct,
    pochhammer,
    reciprocal_points,
    richardson_standard,
    staircase_sequence,
    walk_path,
    weighted_ratio_transform,
    wynn_epsilon,
)
from seqaccel import core, levin
from seqaccel.core import Record, is_finite, magnitude
from seqaccel.reference import power_series_coefficients


class TestMakePartialSums:
    def test_ln2_prefix(self):
        sample = make_partial_sums([1.0, -0.5, 1.0 / 3.0])
        assert sample.values == pytest.approx((1.0, 0.5, 0.8333333333333333))
        assert sample.terms == (1.0, -0.5, 1.0 / 3.0)
        assert sample.limit is None

    def test_zeros(self):
        sample = make_partial_sums([0.0, 0.0, 0.0])
        assert sample.values == (0.0, 0.0, 0.0)

    def test_inverse_squares(self):
        terms = [(nu + 1.0) ** -2 for nu in range(4)]
        sample = make_partial_sums(terms)
        assert sample.values == pytest.approx(
            (1.0, 1.25, 1.3611111111111112, 1.4236111111111112)
        )

    def test_empty_input(self):
        with pytest.raises(EmptyInputError, match="cannot form partial sums of an empty series"):
            make_partial_sums([])

    def test_limit_and_the_first_overflowing_sum(self):
        assert make_partial_sums([1.0, 0.5], 2.0) == SequenceSample((1.0, 1.5), (1.0, 0.5), 2.0)
        with pytest.raises(InvalidParameterError,
                           match="^partial sum s_1 overflows: not a finite number"):
            make_partial_sums([1e308, 1e308, 1.0])
        # a term that is not finite is named as such, not as an overflow
        with pytest.raises(InvalidParameterError, match="^a series term is not a finite"):
            make_partial_sums([1.0, math.inf])


def _loop_check_partial_sums(values, terms):
    """The element-by-element partial-sum check the comprehension replaced."""
    deltas = [(values[0], terms[0])]
    deltas += [(values[n] - values[n - 1], terms[n]) for n in range(1, len(values))]
    for n, (got, want) in enumerate(deltas):
        scale = max(1.0, abs(values[n]), abs(want))
        if abs((got - want) / scale) > 1e-9:
            raise ConsistencyError(
                f"values are not the partial sums of terms at n={n}: "
                f"difference {got!r} vs term {want!r}"
            )


def _perturbed(terms, at, rel):
    values = list(accumulate(terms))
    for n in at:
        values[n] *= 1 + rel
    return tuple(values), tuple(terms)


_TERMS = [random.Random(3).uniform(-1, 1) * 10.0 ** (k % 7 - 3) for k in range(60)]
_PARTIAL_SUM_CASES = [
    lambda: _perturbed(_TERMS, (), 0.0),
    lambda: _perturbed(_TERMS, (0,), 1e-3),
    lambda: _perturbed(_TERMS, (17,), 1e-6),
    lambda: _perturbed(_TERMS, (59,), 1e-6),
    lambda: _perturbed(_TERMS, (23, 41), 1e-6),
    lambda: _perturbed(_TERMS, (30,), 0.9e-9),
    lambda: _perturbed(_TERMS, (30,), 3e-9),
    lambda: _perturbed([1e300 * t for t in _TERMS], (12,), 1e-12),
    lambda: _perturbed([1e300 * t for t in _TERMS], (12,), 1e-6),
    lambda: ((1e308, -1e308), (1e308, 1e308)),  # the difference overflows
    lambda: _perturbed([complex(t, -2 * t) for t in _TERMS], (), 0.0),
    lambda: _perturbed([complex(t, -2 * t) for t in _TERMS], (44,), 1e-6j),
    lambda: _perturbed([mpmath.mpf(t) / 3 for t in _TERMS], (), 0),
    lambda: _perturbed([mpmath.mpf(t) / 3 for t in _TERMS], (5,), mpmath.mpf(1e-6)),
]


class TestSequenceSample:
    def test_consistency_check(self):
        with pytest.raises(ConsistencyError):
            SequenceSample((1.0, 2.0), terms=(1.0, 0.5))

    def test_terms_length_mismatch(self):
        with pytest.raises(ConsistencyError):
            SequenceSample((1.0, 2.0), terms=(1.0,))

    def test_empty_or_non_number_values_are_refused(self):
        with pytest.raises(EmptyInputError, match="needs at least one element"):
            SequenceSample(())
        with pytest.raises(InvalidParameterError, match="a sequence value is not a finite number"):
            SequenceSample((None,))  # None * 0 raises TypeError, which the edge check takes

    def test_offset_bounds(self):
        with pytest.raises(InvalidParameterError):
            SequenceSample((1.0, 2.0), start_offset=2)
        with pytest.raises(InvalidParameterError):
            SequenceSample((1.0, 2.0), start_offset=-1)

    def test_offset_applies_once_at_construction(self):
        values, terms = (1.0, 1.5, 1.75), (1.0, 0.5, 0.25)
        want = SequenceSample((1.75,), None, 2.0)
        assert SequenceSample(values, terms, 2.0, 2) == want
        assert SequenceSample(values, terms, limit=2.0, start_offset=2) == want
        # a later offset counts from the sample it is applied to
        assert SequenceSample(values, terms, 2.0, 1).with_offset(1) == want
        with pytest.raises(InvalidParameterError, match="must be an integer in"):
            SequenceSample(values, start_offset=1.0)
        # the whole input is checked before the offset drops any of it
        with pytest.raises(ConsistencyError):
            SequenceSample(values, (1.0, 0.5, 9.0), start_offset=2)

    def test_effective_views(self):
        sample = make_partial_sums([1.0, 2.0, 3.0])
        shifted = sample.with_offset(1)
        assert shifted.values == sample.values[1:]
        # truncated values are no longer partial sums of any stored terms
        assert shifted.terms is None
        assert sample.with_offset(0).terms == sample.terms

    def test_complex_values(self):
        sample = make_partial_sums([1 + 1j, -0.5j, 0.25])
        assert sample.values[-1] == pytest.approx(1.25 + 0.5j)

    @pytest.mark.parametrize("case", range(len(_PARTIAL_SUM_CASES)))
    def test_consistency_check_matches_the_element_loop(self, case):
        values, terms = _PARTIAL_SUM_CASES[case]()

        def outcome(check):
            try:
                check(values, terms)
            except ConsistencyError as error:
                return str(error)
            return None

        assert outcome(core._check_partial_sums) == outcome(_loop_check_partial_sums)

    def test_with_offset_keeps_the_checked_sample(self, monkeypatch):
        sample = SequenceSample((1.0, 1.5, 1.75, 1.875), (1.0, 0.5, 0.25, 0.125), limit=2.0)
        want = SequenceSample(sample.values, sample.terms, sample.limit, 2)

        def unexpected(*args):
            raise AssertionError("checked again")

        monkeypatch.setattr(core, "_check_partial_sums", unexpected)
        monkeypatch.setattr(core, "finite_scalars", unexpected)
        shifted = sample.with_offset(2)
        assert type(shifted) is SequenceSample and shifted == want
        assert shifted.values == (1.75, 1.875) and len(sample) == 4
        for bad in (4, -1, 1.0):
            with pytest.raises(InvalidParameterError, match="must be an integer in"):
                sample.with_offset(bad)


def trips(guard, den, num=1.0):
    """True when the guard rejects ``num / den``."""
    return guard.divide([num], [den])[0] is None


class TestGuardPolicy:
    def test_trips_on_small_denominator(self):
        guard = GuardPolicy()
        assert trips(guard, 0.0)
        assert trips(guard, 1e-15)
        assert not trips(guard, 1e-3)

    def test_scales_with_numerator(self):
        guard = GuardPolicy(1e-14)
        assert trips(guard, 1e-10, 1e6)
        assert not trips(guard, 1e-10, 1.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            GuardPolicy(-1.0)

    @pytest.mark.parametrize("threshold", (float("nan"), float("inf")))
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(InvalidParameterError, match="finite nonnegative number"):
            GuardPolicy(threshold)

    @pytest.mark.parametrize("scalar", (float, complex, mpmath.mpf))
    def test_zero_threshold_never_crashes(self, scalar):
        # division by exact zero must still yield an invalid flag, not an error:
        # on a constant sequence every denominator of column 1 is exactly zero
        from seqaccel import (
            bdg_transform, brezinski_theta, estimate_decay, iterated_rho,
            iterated_rho_standard, iterated_theta, natural_points, osada_rho,
            rho_standard, wynn_rho,
        )

        guard = GuardPolicy(0.0)
        sample = SequenceSample(tuple(scalar(7) for _ in range(9)))
        points = natural_points(9)
        builders = [
            iterated_aitken, wynn_epsilon, brezinski_theta, iterated_theta,
            rho_standard, iterated_rho_standard,
            lambda s, g: osada_rho(s, 0.7, g),
            lambda s, g: bdg_transform(s, 0.7, g),
            lambda s, g: wynn_rho(s, points, g),
            lambda s, g: iterated_rho(s, points, g),
        ]
        for build in builders:
            table = build(sample, guard)
            assert not any(table.valid[1])
            assert all(v is None for v in table.columns[1])
        assert estimate_decay(sample, guard) == [None] * 6

    @pytest.mark.parametrize("threshold", (1e-14, 0.0))
    def test_divide_trips_on_the_guard_rule(self, threshold):
        guard = GuardPolicy(threshold)
        tiny = math.nextafter(threshold, 0.0)
        cases = [
            (0.0, 1.0, True), (-0.0, 1.0, True), (0.0, 0.0, True), (0j, 1.0, True),
            (mpmath.mpf(0), 1.0, True), (5e-324, 1.0, threshold > 0),
            (math.nan, 1.0, False),  # not tripped: the non-finite quotient is rejected later
            (1j, 1.0, False), (mpmath.mpf(1), 1.0, False), (mpmath.mpf(1), mpmath.mpf(2), False),
        ]
        # a zero denominator trips in every column type, GuardPolicy(0) included
        cases += [(0j, 1j, True), (mpmath.mpf(0), mpmath.mpf(1), True),
                  (Fraction(0), Fraction(1), True)]
        if threshold:
            cases += [
                (threshold, 1.0, False),  # |d| < threshold fails on the boundary
                (tiny, 1.0, True), (-tiny, 1.0, True), (threshold * 1j, 0.5, False),
                (tiny * 1j, 1.0, True), (mpmath.mpf(tiny), 1.0, True),
                (2 * threshold, 3.0, True), (2 * threshold, 1.5, False),
            ]
            # float, complex, mpf and Fraction columns: |num| exactly 1 and one ulp
            # above it, |d| exactly on the bound threshold * |num| and one ulp below
            up, on, below = math.nextafter(1.0, 2.0), 2 * threshold, math.nextafter(2 * threshold, 0.0)
            for kind in (float, lambda x: complex(0.0, x), mpmath.mpf, Fraction):
                cases += [
                    (kind(threshold), kind(1.0), False), (kind(threshold), kind(up), True),
                    (kind(on), kind(2.0), False), (kind(below), kind(2.0), True),
                ]
            # a Fraction column's threshold * |num| is exact, where the float product
            # threshold * 5.0 rounds up: exactly 5 * threshold sits on the bound
            cases.append((Fraction(threshold) * 5, Fraction(5), False))
        for den, num, tripped in cases:
            for nums in ([num], num):  # one numerator per row, and the scalar form
                for bases, base in ((None, 0), ([1.0], 1.0)):
                    got = guard.divide(nums, [den], bases)
                    want = None if tripped else num / den if bases is None else base + num / den
                    assert repr(got) == repr([want]), (den, num, nums, bases)

        # a column that mixes mpf and float takes no lift: each row keeps the type
        # and the guard of its operands, where a threshold lifted into 30 digits
        # would keep the float row that 5 * threshold (exact) now trips
        with mpmath.workdps(30):
            exact = mpmath.mpf(threshold) * 5
            got = guard.divide([5.0, mpmath.mpf(1)], [exact, mpmath.mpf(4)])  # mpf denominators
            assert repr(got) == repr([None, mpmath.mpf(1) / 4])  # at threshold 0, exact is 0
            got = guard.divide([mpmath.mpf(1), 1.0], [mpmath.mpf(4), 4.0])
            assert repr(got) == repr([mpmath.mpf(1) / 4, 0.25])
            assert repr(guard.divide(1.0, [mpmath.mpf(4), 4.0])) == repr([mpmath.mpf(1) / 4, 0.25])
            # an mpf threshold meets a float column as an mpf, even one that is a
            # double: its product with 3.0 is exact, where 1e-14 * 3.0 rounds down
            tau = mpmath.mpf(1e-14)
            assert 1e-14 * 3.0 < tau * 3
            assert GuardPolicy(tau).divide([3.0], [1e-14 * 3.0]) == [None]
            assert GuardPolicy(tau).divide(3.0, [1e-14 * 3.0]) == [None]

    def test_constant_type_is_the_conversion_a_mixed_operation_makes(self):
        # float for float and complex operands; mpf, Fraction or Decimal where every
        # operand is one and the type holds the constant; else the constant as written
        lift = core.constant_type
        assert repr(lift([0.5, 1.5])(2)) == repr(lift([0.5, 1j])(2)) == repr(lift([])(2)) == "2.0"
        assert repr(lift([Fraction(1)])(2)) == repr(Fraction(2))
        assert repr(lift([Fraction(1)])(1e-14)) == repr(Fraction(1e-14))
        assert repr(lift([Decimal(1)])(0.5)) == repr(Decimal("0.5"))
        with mpmath.workdps(30):
            assert repr(lift([mpmath.mpf(1)])(2)) == repr(mpmath.mpf(2))
            assert repr(lift([mpmath.mpf(1)])(1e-14)) == repr(mpmath.mpf(1e-14))
        with mpmath.workprec(30):
            assert repr(lift([mpmath.mpf(1)])(1e-14)) == "1e-14"

        class Measured(float):  # a number not made from an int alone
            def __new__(cls, value, error):
                return super().__new__(cls, value)

        for operands in ([Fraction(1), 0.5], [mpmath.mpf(1), 0.5],
                         [mpmath.mpc(1)], [1, 2], [Measured(1.0, 0.1)]):
            assert repr(lift(operands)(2)) == "2", operands
        # a constant of another type meets a float as it is: an mpf threshold or
        # alpha makes an mpf product on a float column, a Fraction a float one
        with mpmath.workdps(30):
            tau = mpmath.mpf(1) / 3
            assert lift([0.5])(tau) is tau and repr(lift([0.5])(Fraction(1, 3))) == "Fraction(1, 3)"

    def test_an_int_operand_takes_the_type_of_the_others(self):
        # an int among the operands is a kernel's constant, as the lozenge's 1 the
        # guard meets beside an mpf column: the column's type decides alone
        lift = core.constant_type
        with mpmath.workdps(30):
            assert repr(lift([mpmath.mpf(1), 1])(1e-14)) == repr(mpmath.mpf(1e-14))
        assert repr(lift([0.5, 1])(2)) == "2.0"
        assert repr(lift([Fraction(1), 1])(2)) == repr(Fraction(2))
        for operands in ([mpmath.mpf(1), 0.5, 1], [1]):
            assert repr(lift(operands)(2)) == "2", operands

    def test_divide_adds_bases_in_order(self):
        guard = GuardPolicy()
        assert guard.divide([1.0, -2.0, 3.0], [4.0, 0.0, -8.0]) == [0.25, None, -0.375]
        got = guard.divide([1.0, -2.0], [4.0, 2.0], [-0.0, 1.0])
        assert got == [0.25, 0.0] and repr(got) == "[0.25, 0.0]"

    def test_divide_trips_a_row_whose_modulus_overflows(self):
        # abs() raises on these finite parts: that row alone trips the guard
        guard = GuardPolicy()
        wide = 1.7e308 + 1.7e308j
        assert guard.divide([1.0, 1.0, 2.0], [2.0, wide, 4.0]) == [0.5, None, 0.5]
        assert guard.divide([wide, 1.0], [1.0, 2.0], [1.0, 1.0]) == [None, 1.5]
        assert guard.divide(repeat(1.0), [2.0, wide, 0.0], repeat(0.0)) == [0.5, None, None]
        assert guard.divide([wide], [1.0]) == [None]
        # the scalar form: a row whose denominator overflows its modulus, a column
        # that starts with one, and a numerator whose own modulus overflows
        assert guard.divide(1.0, [2.0, wide, 4.0]) == [0.5, None, 0.25]
        assert guard.divide(1.0, [wide, 2.0], [1.0, 1.0]) == [None, 1.5]
        assert guard.divide(1.0, [2.0, wide, 0.0], repeat(0.0)) == [0.5, None, None]
        assert guard.divide(wide, [1.0, 2.0]) == [None, None]
        # an infinite part is no overflow: the quotient is left to the finite check
        assert guard.divide([1.0, wide], [complex(math.inf, 0.0), 1.0]) == [0j, None]


class TestRecord:
    """The value-type base: binding, immutability, equality, repr."""

    def test_positional_keyword_and_default_binding(self):
        sample = SequenceSample([1.0, 2.0], None, limit=3.0)
        assert (sample.values, sample.terms, sample.limit) == ((1.0, 2.0), None, 3.0)
        assert SequenceSample((1.0, 2.0), None, 3.0, 1).values == (2.0,)
        assert sample == SequenceSample(limit=3.0, values=(1.0, 2.0))
        assert PathSpec("order_constant", 2).order == 2
        assert GuardPolicy().relative_threshold == 1e-14

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),
        ((), {"limit": 1.0}),
        (((1.0,),), {"unknown": 1}),
        (((1.0,),), {"values": (2.0,)}),
        (((1.0,), None, None, 0, "extra"), {}),
    ], ids=["missing", "missing-with-keyword", "unknown", "repeated", "too-many"])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            SequenceSample(*args, **kwargs)

    @pytest.mark.parametrize("args, kwargs, message", [
        (((1.0,),), {}, "PowerSeries() missing required argument 'z'"),
        (((1.0,), 0.5), {"w": 1}, "PowerSeries() got an unexpected keyword argument 'w'"),
        (((1.0,), 0.5), {"z": 0.5}, "PowerSeries() got multiple values for argument 'z'"),
        (((1.0,), 0.5, 2), {}, "PowerSeries() takes 2 positional arguments but 3 were given"),
    ], ids=["missing", "unknown", "repeated", "too-many"])
    def test_record_binding_errors_raise_type_error(self, args, kwargs, message):
        # PowerSeries has no __init__ of its own: Record.__init__ binds and refuses
        with pytest.raises(TypeError) as info:
            PowerSeries(*args, **kwargs)
        assert str(info.value) == message

    def test_assignment_and_deletion_are_refused(self):
        from dataclasses import FrozenInstanceError

        guard = GuardPolicy()
        with pytest.raises(FrozenInstanceError):
            guard.relative_threshold = 0.5
        with pytest.raises(FrozenInstanceError):
            guard.other = 0.5
        with pytest.raises(FrozenInstanceError):
            del guard.relative_threshold
        assert guard.relative_threshold == 1e-14

    def test_equality_needs_the_same_type(self):
        class Left(Record):
            x: int

        class Right(Record):
            x: int

        assert Left(1) == Left(1) and hash(Left(1)) == hash(Left(1))
        assert Left(1) != Left(2)
        assert (Left(1) == Right(1)) is False
        assert GuardPolicy(1e-3) == GuardPolicy(1e-3)
        assert hash(GuardPolicy(1e-3)) == hash(GuardPolicy(1e-3))

    def test_records_of_hashable_fields_hash_and_tables_do_not(self):
        for one, other in [
            (SequenceSample((1.0, 2.0), limit=3.0), SequenceSample([1.0, 2.0], None, 3.0)),
            (GuardPolicy(1e-3), GuardPolicy(relative_threshold=1e-3)),
            (PathSpec.order_constant(2), PathSpec("order_constant", 2)),
        ]:
            assert one == other and one is not other and hash(one) == hash(other)
        # a list or dict field: the record compares equal, but does not hash
        for unhashable in (wynn_epsilon(SequenceSample((1.0, 2.0, 2.5))),
                           ProblemSpec("geometric", 5, {"c": 1.0, "lam": 0.5})):
            with pytest.raises(TypeError, match="unhashable type"):
                hash(unhashable)

    def test_subclass_fields_follow_the_base_fields(self):
        class Base(Record):
            x: int
            y: int = 2

        class Child(Base):
            z: int = 3

        child = Child(1, z=4)
        assert (child.x, child.y, child.z) == (1, 2, 4)
        assert Child(1, 5, 6) == Child(x=1, y=5, z=6)

    def test_repr_matches_the_former_dataclass_repr(self):
        from seqaccel import ProblemSpec

        assert repr(GuardPolicy()) == "GuardPolicy(relative_threshold=1e-14)"
        assert repr(PathSpec.staircase()) == "PathSpec(kind='staircase', order=None, index=None)"
        assert repr(ProblemSpec("zeta_dirichlet", 20, {"z": 1.1})) == (
            "ProblemSpec(family='zeta_dirichlet', length=20, params={'z': 1.1})")


#: Tables of every reading geometry: Richardson on three elements; Levin's v
#: on ln 2's partial sums without terms, which starts at n = 1 and reads one
#: element ahead (columns of 4, 3, 2, 1 rows); theta, whose columns shorten
#: by 1 and by 2 in turn (7, 6, 4, 3, 1 rows); epsilon on three elements
#: and on one.
LN2_VALUES = tuple(accumulate((-1) ** k / (k + 1) for k in range(7)))
PATH_TABLES = {
    "richardson": lambda: richardson_standard(SequenceSample((1.0, 2.0, 3.0))),
    "levin_v": lambda: levin_variant(SequenceSample(LN2_VALUES[:6]), "v"),
    "theta": lambda: brezinski_theta(SequenceSample(LN2_VALUES)),
    "epsilon_exp": lambda: wynn_epsilon(SequenceSample((1.0, 2.0, 2.5))),
    "epsilon_one": lambda: wynn_epsilon(SequenceSample((1.0,))),
}


def along(table, path):
    """The ``(k, n)`` of ``extract_path``, each value checked against ``table.entry``."""
    found = extract_path(table, path)
    assert all(v == table.entry(k, n) and table.is_valid(k, n) for k, n, v in found)
    return [(k, n) for k, n, _ in found]


class TestPaths:
    @pytest.mark.parametrize("name, n0, want", [
        ("richardson", 0, [(0, 0), (1, 0), (2, 0)]),
        ("richardson", 2, [(0, 2)]),  # the last index: only column 0 holds it
        ("levin_v", None, [(0, 1), (1, 1), (2, 1), (3, 1)]),
        ("levin_v", 3, [(0, 3), (1, 3)]),
        ("levin_v", 4, [(0, 4)]),
        ("theta", 2, [(0, 2), (2, 2)]),
        ("theta", 6, [(0, 6)]),
        ("epsilon_one", None, [(0, 0)]),
    ])
    def test_index_constant_collects_orders(self, name, n0, want):
        assert along(PATH_TABLES[name](), PathSpec.index_constant(n0)) == want

    @pytest.mark.parametrize("name, k, want", [
        ("richardson", 1, [(1, 0), (1, 1)]),
        ("levin_v", 1, [(1, 1), (1, 2), (1, 3)]),
        ("levin_v", 3, [(3, 1)]),
        ("theta", 2, [(2, 0), (2, 1), (2, 2), (2, 3)]),
        ("theta", 3, [(3, 0), (3, 1), (3, 2)]),
        ("theta", 4, [(4, 0)]),
    ])
    def test_order_constant_walks_column(self, name, k, want):
        assert along(PATH_TABLES[name](), PathSpec.order_constant(k)) == want

    @pytest.mark.parametrize("name, want, last, rel", [
        # three partial sums of exp(1): [0/0], [1/0], [1/1]
        ("epsilon_exp", [(0, 0), (0, 1), (2, 0)], 3.0, 1e-6),
        ("levin_v", [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)], math.log(2), 1e-4),
        ("theta", [(0, 0), (0, 1), (2, 0), (2, 1), (4, 0)], math.log(2), 1e-4),
        ("epsilon_one", [(0, 0)], 1.0, 1e-6),  # columns of one row
    ])
    def test_staircase_on_epsilon_table_is_pade_order(self, name, want, last, rel):
        table = PATH_TABLES[name]()
        assert along(table, PathSpec.staircase()) == want
        assert extract_path(table, PathSpec.staircase())[-1][2] == pytest.approx(last, rel=rel)

    @pytest.mark.parametrize("name, order, index, entries", [
        ("richardson", 5, 7, ((3, 0), (2, 1), (0, 3), (0, -1), (-1, 0))),
        ("levin_v", 4, 0, ((0, 0), (0, 5), (1, 4), (3, 2), (4, 1))),
        ("theta", 5, 7, ((2, 4), (4, 1), (5, 0), (0, 7))),
    ])
    def test_out_of_range(self, name, order, index, entries):
        table = PATH_TABLES[name]()
        with pytest.raises(PathRangeError):
            extract_path(table, PathSpec.order_constant(order))
        with pytest.raises(PathRangeError):
            extract_path(table, PathSpec.index_constant(index))
        for k, n in entries:
            assert not table.is_valid(k, n)
            with pytest.raises(PathRangeError, match=rf"has no entry \({k}, {n}\)"):
                table.entry(k, n)

    @pytest.mark.parametrize("k", [-1, -4, 4, 9])
    def test_column_refuses_an_order_outside_the_table(self, k):
        table = PATH_TABLES["levin_v"]()  # orders 0..3, rows from n = 1
        with pytest.raises(PathRangeError, match=rf"^order {k} outside table orders \[0, 3\]$"):
            table.column(k)
        assert table.column(3) == [(1, table.entry(3, 1), True)]

    @pytest.mark.parametrize("k, n", [(-1, 1), (9, 1), (4, 1), (0, 0), (0, 6), (3, 2), (-1, 0)])
    def test_consumed_refuses_an_entry_outside_the_table(self, k, n):
        table = PATH_TABLES["levin_v"]()  # column k holds n = 1 .. 5 - k
        with pytest.raises(PathRangeError, match=rf"has no entry \({k}, {n}\)"):
            table.consumed(k, n)
        assert [table.consumed(j, 1) for j in range(4)] == [3, 4, 5, 6]  # lookahead 1

    @pytest.mark.parametrize("read, args", [
        ("entry", (1.5, 1)), ("entry", (0, 1.5)), ("is_valid", (1.5, 1)), ("is_valid", (0, "1")),
        ("has_entry", (1.5, 1)), ("has_entry", (0, 1.5)), ("consumed", (1.5, 1)),
        ("consumed", (0, 1.5)), ("column", (1.5,)), ("column", ("1",)),
    ])
    def test_every_read_refuses_an_index_of_another_kind(self, read, args):
        # an InvalidParameterError naming the index, never a bare TypeError or a budget
        table = PATH_TABLES["levin_v"]()
        with pytest.raises(InvalidParameterError, match=r"^[kn] must be an integer, got"):
            getattr(table, read)(*args)

    def test_skips_invalid_but_walk_reports_them(self):
        table = iterated_aitken(SequenceSample((7.0, 7.0, 7.0)))
        assert extract_path(table, PathSpec.index_constant(0)) == [(0, 0, 7.0)]
        walked = walk_path(table, PathSpec.index_constant(0))
        assert [(k, ok) for k, _, _, ok in walked] == [(0, True), (1, False)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            PathSpec("diagonal")
        with pytest.raises(InvalidParameterError):
            PathSpec.order_constant(None)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_path_monotonicity(self, seed):
        rng = random.Random(seed)
        vals = tuple(rng.uniform(-2, 2) for _ in range(rng.randint(3, 10)))
        table = wynn_epsilon(SequenceSample(vals))
        order = extract_path(table, PathSpec.order_constant(0))
        assert [n for _, n, _ in order] == sorted(n for _, n, _ in order)
        index = extract_path(table, PathSpec.index_constant(0))
        ks = [k for k, _, _ in index]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)
        stair = extract_path(table, PathSpec.staircase())
        positions = [(k, n) for k, n, _ in stair]
        assert positions == sorted(positions)


class TestGaugeCondition:
    def test_column_zero_is_offset_input(self):
        rng = random.Random(11)
        values = tuple(rng.uniform(-1, 1) for _ in range(8))
        sample = SequenceSample(values, start_offset=2)
        for build in (wynn_epsilon, iterated_aitken, richardson_standard):
            table = build(sample)
            assert tuple(v for _, v, _ in table.column(0)) == values[2:]


#: any finite double, or a complex with parts up to 1.79e308 whose modulus is
#: a double (a sample refuses any other)
_WIDE_PART = st.floats(-1.79e308, 1.79e308)
_WIDE_VALUES = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=10),
    st.lists(st.builds(complex, _WIDE_PART, _WIDE_PART).filter(
        lambda c: is_finite(magnitude(c))), min_size=5, max_size=10),
)


def _assert_sound(rows):
    """Each ``(..., value, valid)`` row is valid with a finite value, or invalid with ``None``."""
    for *_, value, ok in rows:
        assert (value is not None and is_finite(magnitude(value))) if ok else value is None


class _StrictBases(GuardPolicy):
    """The default guard, failing on a ``None`` in a list of bases: ``divide`` would
    read it as no base, so a kernel whose declared antecedents do not imply the
    validity of each base it reads would give a wrong value and no error."""

    def divide(self, nums, dens, bases=None):
        assert not isinstance(bases, list) or all(b is not None for b in bases)
        return super().divide(nums, dens, bases)


class TestGuardSoundness:
    """No transform may emit NaN or infinity, on any input in the double range;
    bad entries are flagged instead.  The builds run under ``_StrictBases``, so
    every base a kernel reads is valid too."""

    @given(_WIDE_VALUES)
    @settings(deadline=None)
    def test_every_valid_entry_is_finite(self, values):
        from seqaccel import ZeroRemainderError, estimate_decay
        from seqaccel.cli import apply_transform, transform_names

        sample, guard = SequenceSample(tuple(values)), _StrictBases()
        for name in transform_names():
            params = {"alpha": 0.7} if name in ("rho_osada", "bdg") else {}
            build = partial(apply_transform, name, sample, guard, params)
            try:
                _assert_sound(build().entries())
            except ZeroRemainderError:
                continue  # repeated adjacent values: documented estimate failure
            for path in (PathSpec.order_constant(2), PathSpec.index_constant(),
                         PathSpec.staircase()):
                table = build()  # each path reads a fresh table
                try:
                    _assert_sound(walk_path(table, path))
                except PathRangeError:
                    assert path.kind == "order_constant" and table.max_order < 2
                    continue
                if path.kind == "order_constant":  # built through column 2, no further
                    assert ("columns" in vars(table)) == (table.max_order == 2), name
        omegas = values[::-1]
        for family in (LEVIN_POWER, WENIGER_POCHHAMMER):
            try:
                _assert_sound(
                    weighted_ratio_transform(sample, omegas, family, guard=guard).entries())
            except ZeroRemainderError:
                pass  # a zero estimate
        _assert_sound((t, t is not None) for t in estimate_decay(sample, guard))
        for z in (-0.5, values[1]):
            try:
                staircase = staircase_sequence(PowerSeries(tuple(values), z), guard)
            except InvalidParameterError:
                continue  # a term or partial sum beyond the double range
            _assert_sound((v, v is not None) for *_, v in staircase)


class TestNonFiniteScalars:
    NON_FINITE = (
        float("inf"), float("nan"), complex(float("inf"), 0.0), complex(0.0, float("nan")),
        mpmath.mpf("inf"), mpmath.mpf("-inf"), mpmath.mpf("nan"), mpmath.mpc(mpmath.inf, 0),
    )
    FINITE = (0, 3, 0.0, -0.0, 1e308, 5e-324, 1e308 + 1e308j, mpmath.mpf("1e400"), mpmath.mpc(1, 2))

    def test_is_finite_of_any_scalar_type(self):
        from seqaccel.core import is_finite

        assert not any(is_finite(v) for v in self.NON_FINITE)
        assert all(is_finite(v) for v in self.FINITE)

    def test_finite_entries_drops_each_non_finite_value(self):
        from seqaccel.core import finite_entries

        for finite in (list(self.FINITE) + [None], [1e308, 1e308], [1e308j, 1e308j], []):
            assert finite_entries(finite) == finite  # an overflowing sum is no verdict
        for bad in self.NON_FINITE:
            assert finite_entries([1.0, bad, None, 2.0]) == [1.0, None, None, 2.0]
            two = mpmath.mpf(2)
            assert finite_entries([bad, None, two]) == [None, None, two]
        # finite parts, but the modulus overflows: alone, after floats, before a None
        wide = 1.7e308 + 1.7e308j
        for column in ([wide, 1j], [1.0, wide, 2.0], [1j, wide, None]):
            assert finite_entries(column) == [None if v is wide else v for v in column]

    def test_magnitude_never_raises(self):
        from seqaccel.core import magnitude

        assert magnitude(-2.0) == 2.0 and magnitude(3 + 4j) == 5.0
        assert magnitude(1.7e308 + 1.7e308j) == math.inf  # abs() raises OverflowError
        assert magnitude(complex(math.inf, 0.0)) == math.inf
        assert magnitude(mpmath.mpf("-1e400")) == mpmath.mpf("1e400")


_EDGE_SAMPLE = SequenceSample((1.0, 0.5, 0.75, 0.625, 0.6875))
_OUT_OF_RANGE = "is not a finite number in the double range"
_POSITIVE = "must be positive and finite"

#: (place, build(bad), message) for every place a scalar enters from outside
_EDGE_PLACES = [
    ("value", lambda bad: SequenceSample((1.0, bad, 2.0)), _OUT_OF_RANGE),
    ("term", lambda bad: SequenceSample((1.0, 2.0, 3.0), (1.0, bad, 1.0)), _OUT_OF_RANGE),
    ("limit", lambda bad: SequenceSample((1.0, 2.0), limit=bad), _OUT_OF_RANGE),
    ("omega", lambda bad: weighted_ratio_transform(_EDGE_SAMPLE, (1.0, bad, 1.0, 1.0, 1.0)),
     _OUT_OF_RANGE),
    ("coefficient", lambda bad: pade_direct(PowerSeries((1, bad, 1), 1.0), 1, 1), _OUT_OF_RANGE),
    ("z", lambda bad: staircase_sequence(PowerSeries((1, 1, 1), bad)), _OUT_OF_RANGE),
    ("point", lambda bad: InterpolationPoints((bad, 2, 1), "to_zero"), _OUT_OF_RANGE),
    ("alpha", lambda bad: osada_rho(_EDGE_SAMPLE, bad), _POSITIVE),
    ("alpha_bdg", lambda bad: bdg_transform(_EDGE_SAMPLE, bad), _POSITIVE),
    ("beta", lambda bad: richardson_standard(_EDGE_SAMPLE, bad), _POSITIVE),
    ("beta_points", lambda bad: reciprocal_points(5, bad), _POSITIVE),
    ("zeta", lambda bad: levin_variant(_EDGE_SAMPLE, "u", bad), _POSITIVE),
    ("zeta_weighted", lambda bad: weighted_ratio_transform(_EDGE_SAMPLE, (1.0,) * 5, zeta=bad),
     _POSITIVE),
    ("guard_threshold", lambda bad: GuardPolicy(bad),
     "guard threshold must be a finite nonnegative number"),
]

#: (place, build(bad)) for every integer parameter of the library; the CLI
#: parses these values as ints, so only a library call can pass another kind
_INTEGER_PLACES = [
    ("path_order",
     lambda bad: walk_path(wynn_epsilon(_EDGE_SAMPLE), PathSpec.order_constant(bad))),
    ("path_index", lambda bad: PathSpec.index_constant(bad)),
    ("pade_l", lambda bad: pade_direct(PowerSeries((1.0, 1.0, 1.0), 0.5), bad, 1)),
    ("pade_m", lambda bad: pade_direct(PowerSeries((1.0, 1.0, 1.0), 0.5), 1, bad)),
    ("problem_length", lambda bad: ProblemSpec("geometric", bad, {"c": 1.0, "lam": 0.5})),
    ("zeta_n", lambda bad: euler_maclaurin_zeta(2.0, bad)),
    ("zeta_k", lambda bad: euler_maclaurin_zeta(2.0, 20, bad)),
    ("start_offset", lambda bad: _EDGE_SAMPLE.with_offset(bad)),
    ("pochhammer_m", lambda bad: pochhammer(2.0, bad)),
    ("natural_points", lambda bad: natural_points(bad)),
    ("reciprocal_points", lambda bad: reciprocal_points(bad)),
    ("power_series_count", lambda bad: power_series_coefficients("exp", bad)),
    ("table_entry_n", lambda bad: wynn_epsilon(_EDGE_SAMPLE).entry(0, bad)),
    ("table_entry_k", lambda bad: wynn_epsilon(_EDGE_SAMPLE).entry(bad, 0)),
]


class TestEdgeCheck:
    """Every record or parameter that takes scalars from outside admits
    finite ones only, an ``int`` made a ``float``."""

    @pytest.mark.parametrize("build, message", [
        (lambda: PowerSeries((), 0.5), "a power series needs at least one coefficient"),
        (lambda: InterpolationPoints((), "to_infinity"), "interpolation points must be nonempty"),
    ], ids=["power_series", "interpolation_points"])
    def test_empty_records_are_refused(self, build, message):
        with pytest.raises(InvalidParameterError, match=message):
            build()

    @pytest.mark.parametrize(
        "bad",
        (10**400, math.inf, math.nan, 1.7e308 + 1.7e308j, mpmath.mpf("inf"), "a", (1.0, 2.0), True),
        ids=("int", "inf", "nan", "wide_complex", "mpf_inf", "str", "tuple", "bool"),
    )
    @pytest.mark.parametrize("place, build, message", _EDGE_PLACES,
                             ids=[place for place, _, _ in _EDGE_PLACES])
    def test_out_of_range_scalar_is_rejected_at_construction(self, place, build, message, bad):
        # never an OverflowError or any other traceback: the edge check
        # raises before any arithmetic reads the scalar
        with pytest.raises(InvalidParameterError, match=message):
            build(bad)

    @pytest.mark.parametrize("bad", (1.5, "2", True), ids=("float", "str", "bool"))
    @pytest.mark.parametrize("place, build", _INTEGER_PLACES,
                             ids=[place for place, _ in _INTEGER_PLACES])
    def test_integer_parameter_of_another_kind_is_refused(self, place, build, bad):
        # an InvalidParameterError naming the parameter, never a bare TypeError
        with pytest.raises(InvalidParameterError, match=r"must be an integer.*, got"):
            build(bad)

    def test_in_range_int_sample_keeps_its_table_values(self):
        from seqaccel.cli import apply_transform, transform_names

        ints = (1, 2, 4, 7, 11, 16, 22)
        sample = SequenceSample(ints, limit=0)
        assert sample.values == ints and {type(v) for v in sample.values} == {float}
        assert type(sample.limit) is float
        assert type(PowerSeries((1, 2), 1).z) is float
        floats = SequenceSample(tuple(map(float, ints)))
        for name in transform_names():
            params = {"alpha": 1.0} if name in ("rho_osada", "bdg") else {}
            got = apply_transform(name, sample, GuardPolicy(), params)
            want = apply_transform(name, floats, GuardPolicy(), params)
            assert [repr(c) for c in got.columns] == [repr(c) for c in want.columns], name
            assert got.valid == want.valid, name
        assert iterated_aitken(sample).columns[1] == [0.0, -2.0, -5.0, -9.0, -14.0]


def _registry_tables(sample, guard, alpha, skip=()):
    """``{name: table or the exception it raises}`` of every registered transform whose
    name does not start with ``skip``, ``alpha`` given to the two that take it."""
    from seqaccel.cli import apply_transform, transform_names

    tables = {}
    for name in (name for name in transform_names() if not name.startswith(skip)):
        params = {"alpha": alpha} if name in ("rho_osada", "bdg") else {}
        try:
            tables[name] = apply_transform(name, sample, guard, params)
        except Exception as exc:  # the mirror must raise it too
            tables[name] = exc
    return tables


def _assert_mpf_mirror(sample):
    """At 53 bits an mpf copy of ``sample`` builds every table but Levin's, under both
    guards, as the float sample does: ``mpf(x) == y`` entry for entry, the same
    validity, the same exception.  Levin's weights come from libm's ``**`` on floats
    and mpmath's on mpf, which round some of them differently."""
    with mpmath.workprec(53):
        copy = SequenceSample(tuple(map(mpmath.mpf, sample.values)),
                              sample.terms and tuple(map(mpmath.mpf, sample.terms)))
        for guard in (GuardPolicy(), GuardPolicy(0)):
            mpfs = _registry_tables(copy, guard, 0.3, "levin_")
            for name, want in _registry_tables(sample, guard, 0.3, "levin_").items():
                got = mpfs[name]
                if isinstance(want, Exception):
                    assert repr(got) == repr(want), name
                    continue
                assert len(got.columns) == len(want.columns), name
                for k, (col, ref) in enumerate(zip(got.columns, want.columns)):
                    assert [None if x is None else mpmath.mpf(x) for x in ref] == col, (name, k)


def _entry_types(table) -> set:
    return {type(v) for col in table.columns for v in col if v is not None}


class TestExactTypes:
    """A table keeps its sample's scalar type: each kernel constant, parameter and
    guard threshold enters it through ``core.constant_type``."""

    def test_fraction_tables_hold_only_fractions(self):
        sample = make_partial_sums([Fraction((-1) ** n, n + 1) for n in range(13)])
        for name, table in _registry_tables(sample, GuardPolicy(), Fraction(1, 2)).items():
            assert _entry_types(table) == {Fraction}, name
        # a float alpha, the default zeta and beta enter as Fractions too
        for name, table in _registry_tables(sample, GuardPolicy(), 0.5).items():
            assert _entry_types(table) == {Fraction}, name

    def test_decimal_tables_hold_only_decimals(self):
        # a Decimal series passes the partial-sum check; its tables build in Decimal
        sample = make_partial_sums([Decimal((-1) ** n) / (n + 1) for n in range(13)])
        for name, table in _registry_tables(sample, GuardPolicy(), 0.5).items():
            assert _entry_types(table) == {Decimal}, name
            assert any(table.valid[1]), name

    def test_a_pivot_floor_takes_the_matrix_type(self):
        from seqaccel.errors import SingularMatrixError
        from seqaccel.linalg import solve_dense

        exact = solve_dense([[Fraction(3), Fraction(1)], [Fraction(1), Fraction(2)]], [1, 1])
        assert exact == [Fraction(1, 5), Fraction(2, 5)]
        # the floor of an int matrix is 1e-13 times its scale, not int(1e-13) = 0
        with pytest.raises(SingularMatrixError):
            solve_dense([[10**15, 10**15 + 1], [10**15 + 1, 10**15 + 2]], [1, 1])


class TestMpfMirror:
    """An mpf table at 53 bits is its float table: the lift of a kernel's constants
    and of the guard's threshold into mpf changes no entry."""

    @pytest.mark.parametrize("sample", [
        make_partial_sums([(n + 1) ** -2.0 for n in range(61)]),
        make_partial_sums([(-1) ** n / (n + 1) for n in range(61)]),
        generate_problem(ProblemSpec("euler_factorial", 60, {"x": 0.1})),
    ], ids=["zeta2", "ln2", "euler"])
    def test_fixed_samples(self, sample):
        _assert_mpf_mirror(sample)

    # moderate doubles: the float build overflows or underflows to a subnormal where
    # mpf, whose exponent has no bound, does not
    @settings(deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) >= 1e-3),
                    min_size=1, max_size=25))
    def test_drawn_samples(self, values):
        _assert_mpf_mirror(SequenceSample(tuple(values)))


#: (finite entries, entries that are not) of each scalar kind a kernel returns;
#: None is a guard trip, and the wide complex has finite parts but no finite modulus
_KIND_ENTRIES = {
    "float": ((1.5, -2.0, 0.0, 1e308, -1e308), (math.inf, -math.inf, math.nan, None)),
    "complex": ((1.5 + 2j, -2j, 0j, 1e308 + 1e308j),
                (complex(1.7e308, 1.7e308), complex(math.inf, 0.0), complex(0.0, math.nan), None)),
    "mpf": (tuple(map(mpmath.mpf, (1.5, -2, 0, "1e400"))), (mpmath.inf, -mpmath.inf, mpmath.nan, None)),
}


def _finite_modulus(v) -> bool:
    if v is None:
        return False
    try:
        m = abs(v)
    except OverflowError:
        return False
    return bool(mpmath.isfinite(m)) if isinstance(m, mpmath.mpf) else math.isfinite(m)


@st.composite
def _column_cases(draw):
    """``(length, antecedents, value)``: one to three antecedent masks, each with
    shifts up to 3 and mostly valid, all valid or sparse; ``value(i)`` is row ``i``'s
    entry, of one kind per column, now and then one that is invalid."""
    length = draw(st.sampled_from((1, 7, 8, 9, 63, 64, 65, 400)) | st.integers(1, 80))
    rng = draw(st.randoms(use_true_random=False))
    antecedents = []
    for _ in range(draw(st.integers(1, 3))):
        shifts = tuple(sorted(draw(st.sets(st.integers(0, 3), min_size=1))))
        p = draw(st.sampled_from((1.0, 0.98, 0.8, 0.5, 0.0)))
        size = length + shifts[-1] + draw(st.integers(0, 1))
        antecedents.append((bytes(rng.random() < p for _ in range(size)), shifts))
    good, bad = _KIND_ENTRIES[draw(st.sampled_from(sorted(_KIND_ENTRIES)))]
    noise = draw(st.sampled_from((0.0, 0.02, 0.3)))
    picks = [rng.choice(bad) if rng.random() < noise else rng.choice(good) for _ in range(length)]
    return length, antecedents, picks.__getitem__


class TestColumnPrimitives:
    def test_column_runs_on_usable_rows_only(self):
        from seqaccel.core import compute_column

        calls = []

        def column(rows):
            calls.append(list(rows))
            return [{0: 1.0, 2: None, 3: float("inf")}[i] for i in rows]

        got = compute_column(4, [(bytes([1, 0, 1, 1]), (0,))], column, GuardPolicy())
        assert calls == [[0, 2, 3]]
        assert got == ([1.0, None, None, None], bytes([1, 0, 0, 0]))

    def test_unusable_column_skips_column(self):
        from seqaccel.core import build_table, compute_column

        def column(rows):
            raise AssertionError("column called without a usable row")

        flags = bytes(3)
        assert compute_column(3, [(flags, (0,))], column, GuardPolicy()) is None
        # build_table makes that column, and every later one, dead
        table = build_table("probe", [1.0] * 4, repeat(1),
                            lambda columns, valid: repeat(([(flags, (0,))], column)), GuardPolicy())
        assert table.columns[1:] == [[None] * 3, [None] * 2, [None]]
        assert table.valid[1:] == [[False] * 3, [False] * 2, [False]]
        assert table.valid[1] is not flags

    def test_disjoint_antecedents_skip_column(self):
        # theta's even rule: each antecedent slice holds a valid row, their AND none
        from seqaccel.core import compute_column

        def column(rows):
            raise AssertionError("column called without a usable row")

        odd, even = bytes([1, 0, 1, 0]), bytes([0, 0, 1])
        assert compute_column(2, [(odd, (0, 2)), (even, (1,))], column, GuardPolicy()) is None

    def test_finite_float_column_whose_sum_overflows_stays_valid(self):
        from seqaccel.core import compute_column

        entries = [1e308, 1e308, -1e308]
        got = compute_column(3, (), lambda rows: entries, GuardPolicy())
        assert got == (entries, bytes([1, 1, 1]))

    def test_non_finite_and_tripped_rows_are_invalid(self):
        from seqaccel.core import compute_column

        entries = [1.0, math.inf, 2.0, None, -math.inf, math.nan, 3.0]
        assert compute_column(7, (), lambda rows: entries, GuardPolicy()) == (
            [1.0, None, 2.0, None, None, None, 3.0],
            bytes([1, 0, 1, 0, 0, 0, 1]),
        )
        # the column ran, so a later column may still have a computable row
        assert compute_column(2, (), lambda rows: [None, math.nan], GuardPolicy()) == (
            [None, None], bytes([0, 0]))

    @pytest.mark.parametrize("entries", [
        [1.0, complex(1.7e308, 1.7e308)],
        [complex(1.7e308, 1.7e308), 1.0],
        [complex(1.7e308, 1.7e308), 2j, complex(1e308, 1e308), 1.0],
    ], ids=["complex_last", "float_last", "mixed"])
    def test_complex_entry_whose_modulus_overflows_is_invalid(self, entries):
        # a float sum would pass these columns; |1e308 + 1e308j| is finite
        from seqaccel.core import compute_column

        wide = [v == complex(1.7e308, 1.7e308) for v in entries]
        assert compute_column(len(entries), (), lambda rows: entries, GuardPolicy()) == (
            [None if w else v for v, w in zip(entries, wide)], bytes([not w for w in wide]))

    @given(_column_cases())
    def test_usable_rows_match_a_row_by_row_oracle(self, case):
        from seqaccel.core import compute_column

        length, antecedents, value = case
        usable = [i for i in range(length)
                  if all(mask[i + shift] for mask, shifts in antecedents for shift in shifts)]
        calls = []

        def column(rows):
            calls.append(list(rows))
            return [value(i) for i in rows]

        got = compute_column(length, antecedents, column, GuardPolicy())
        if not usable:
            assert got is None and calls == []
            return
        assert calls == [usable]
        kept = {i: v for i in usable if _finite_modulus(v := value(i))}
        entries, mask = got
        assert [i for i, v in enumerate(entries) if v is not None] == sorted(kept)
        assert all(entries[i] is v for i, v in kept.items())
        assert type(mask) is bytes and mask == bytes(i in kept for i in range(length))

    def test_masks_test_entries_by_identity(self):
        # list.__contains__ and list.count call __eq__ per entry, at Python speed for mpf
        from seqaccel.core import compute_column

        compared = []

        class Spy(mpmath.mpf):
            def __eq__(self, other):
                compared.append(other)
                return mpmath.mpf.__eq__(self, other)

            __hash__ = mpmath.mpf.__hash__

        entries = [Spy(1), None, Spy(mpmath.inf), Spy(2)]
        for antecedents in ((), [(bytes([1, 0, 1, 1]), (0,))]):
            got = compute_column(4, antecedents, lambda rows: [entries[i] for i in rows],
                                 GuardPolicy())
            assert got == ([entries[0], None, None, entries[3]], bytes([1, 0, 0, 1]))
        assert None not in compared

    def test_compute_column_mutates_nothing(self):
        from seqaccel.core import compute_column

        flags, entries = bytearray([1, 0, 1]), [1.0, math.inf]
        antecedents = [(flags, (0,))]
        got = compute_column(3, antecedents, lambda rows: entries, GuardPolicy())
        assert got == ([1.0, None, None], bytes([1, 0, 0]))
        assert flags == bytes([1, 0, 1]) and entries == [1.0, math.inf]
        assert antecedents == [(flags, (0,))]

    def test_a_rule_that_divides_is_divided_by_the_guard_before_the_finiteness_pass(self):
        from seqaccel.core import compute_column

        calls = []

        class Recording(GuardPolicy):
            def divide(self, nums, dens, bases=None):
                calls.append((nums, dens, bases))
                return super().divide(nums, dens, bases)

        guard = Recording()
        nums, dens, bases = [1.0, 1.0, 1e308, 2.0], [2.0, 0.0, 1e-10, 4.0], [1.0, 1.0, 1.0, -1.0]
        # a zero denominator trips the guard; 1e308 / 1e-10 overflows to an infinity
        assert compute_column(4, (), lambda rows: (nums, dens, bases), guard) == (
            [1.5, None, None, -0.5], bytes([1, 0, 0, 1]))
        assert compute_column(4, (), lambda rows: (nums, dens), guard) == (
            [0.5, None, None, 0.5], bytes([1, 0, 0, 1]))
        # a rule that runs on some rows only divides those
        got = compute_column(4, [(bytes([0, 1, 1, 1]), (0,))],
                             lambda rows: ([nums[i] for i in rows], [dens[i] for i in rows]), guard)
        assert got == ([None, None, None, 0.5], bytes([0, 0, 0, 1]))
        assert calls == [(nums, dens, bases), (nums, dens, None), (nums[1:], dens[1:], None)]
        # plain entries are the column as they are
        assert compute_column(2, (), lambda rows: [1.0, 2.0], guard) == ([1.0, 2.0], b"\x01\x01")
        assert len(calls) == 3

    # (build, the call of GuardPolicy.divide that trips every row): each
    # computed column divides once, so that column is the last one computed
    # and the next the first without a computable row; theta's 2 and 4 are
    # its even rule, 3 its odd (lozenge) rule
    _DEAD_AT = [(iterated_aitken, 2), (wynn_epsilon, 2), (wynn_epsilon, 3),
                (brezinski_theta, 2), (brezinski_theta, 3), (brezinski_theta, 4)]

    @staticmethod
    def _spy(monkeypatch, kernels, computed, live=False):
        """Record each column ``build_table`` computes and each that runs its kernel;
        ``live`` turns every ``None`` of ``compute_column``, Weniger's working
        columns' included, into a dead column, which disables the dead tail."""
        monkeypatch.undo()
        compute = core.compute_column

        def forced(length, antecedents, column, guard):
            pair = compute(length, antecedents, column, guard)
            return pair if pair or not live else ([None] * length, bytes(length))

        def spy(length, antecedents, column, guard):
            k = len(computed) + 1  # build_table computes columns 1, 2, ... in order
            computed.append(k)
            return forced(length, antecedents, lambda rows: (kernels.append(k), column(rows))[1],
                          guard)

        monkeypatch.setattr(core, "compute_column", spy)
        monkeypatch.setattr(levin, "compute_column", forced)

    @staticmethod
    def _assert_same_table(table, full):
        assert [repr(c) for c in table.columns] == [repr(c) for c in full.columns]
        assert table.valid == full.valid
        assert table.lookahead == full.lookahead
        assert [table.consumed(k, n) for k, n, _, _ in table.entries()] == [
            full.consumed(k, n) for k, n, _, _ in full.entries()]
        assert (table.order_step, table.n_start) == (full.order_step, full.n_start)

    @pytest.mark.parametrize("build, dead", _DEAD_AT,
                             ids=[f"{b.__name__}-{d}" for b, d in _DEAD_AT])
    def test_dead_tail_ends_the_arithmetic_and_keeps_the_table(self, monkeypatch, build, dead):
        sample = SequenceSample(tuple(2.0 + 0.9 ** n + 0.5 * (-0.7) ** n for n in range(16)))
        divides, computed, kernels = [], [], []

        class Tripping(GuardPolicy):
            def divide(self, nums, dens, bases=None):
                divides.append(len(divides) + 1)
                rows = GuardPolicy.divide(self, nums, dens, bases)
                return [None] * len(rows) if len(divides) == dead else rows

        self._spy(monkeypatch, kernels, computed)
        table = build(sample, Tripping())
        assert not any(table.valid[dead]) and all(any(table.valid[k]) for k in range(dead))
        assert table.max_order >= dead + 3
        assert divides == list(range(1, dead + 1))
        assert kernels == list(range(1, dead + 1))
        assert computed == list(range(1, dead + 2))

        # the full build: no dead tail, every later column through compute_column,
        # whose kernel still never runs
        divides.clear(), computed.clear(), kernels.clear()
        self._spy(monkeypatch, kernels, computed, live=True)
        full = build(sample, Tripping())
        self._assert_same_table(table, full)  # a read of the whole table builds it
        assert computed == list(range(1, full.max_order + 1))
        assert kernels == list(range(1, dead + 1))

    def test_weniger_dead_tail_once_numerator_and_denominator_die(self, monkeypatch):
        # 1/omega_n alternates at 0.7e308: N_1 and D_1 stay finite, every row of
        # N_2 and D_2 overflows, so T_2 is the first column without a computable row
        values = tuple(1.0 + 0.1 * 0.5 ** n for n in range(10))
        omegas = [(-1.0) ** n / 0.7e308 for n in range(10)]
        computed, kernels = [], []
        self._spy(monkeypatch, kernels, computed)
        table = weighted_ratio_transform(SequenceSample(values), omegas, WENIGER_POCHHAMMER)
        assert all(table.valid[1]) and not any(map(any, table.valid[2:]))
        assert table.max_order == 9
        assert kernels == [1] and computed == [1, 2]

        computed.clear(), kernels.clear()
        self._spy(monkeypatch, kernels, computed, live=True)
        full = weighted_ratio_transform(SequenceSample(values), omegas, WENIGER_POCHHAMMER)
        self._assert_same_table(table, full)
        assert kernels == [1] and computed == list(range(1, 10))

    def test_weniger_rules_stop_once_a_working_column_has_no_computable_row(self, monkeypatch):
        # 1/omega_n runs +a, -a, -a, +a, +a, ... near 0.9e308: N_1 and D_1 overflow
        # at every even row, so T_1 has its odd rows, and no two adjacent rows of
        # N_1 are valid: N_2 has no computable row, the rules stop, T_2 is dead
        x = [(-1.0) ** ((n + 1) // 2) * 0.9e308 * (1 + 0.01 * n) for n in range(10)]
        values = tuple(1.0 + 0.5 ** n for n in range(10))
        omegas = [1 / v for v in x]
        computed, kernels = [], []
        self._spy(monkeypatch, kernels, computed)
        table = weighted_ratio_transform(SequenceSample(values), omegas, WENIGER_POCHHAMMER)
        assert table.valid[1] == [n % 2 == 1 for n in range(9)]
        assert not any(map(any, table.valid[2:])) and table.max_order == 9
        assert kernels == [1] and computed == [1]

        computed.clear(), kernels.clear()
        self._spy(monkeypatch, kernels, computed, live=True)
        full = weighted_ratio_transform(SequenceSample(values), omegas, WENIGER_POCHHAMMER)
        self._assert_same_table(table, full)
        assert kernels == [1] and computed == list(range(1, 10))

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_stencil_table_propagates_invalidity(self, width):
        from seqaccel.core import stencil_table

        values = [float(v) for v in range(12)]
        seen = set()

        def kernel(cur, k, rows):
            # the entry at n = 2 of column 1 trips; everything else sums its stencil
            seen.update((k, n) for n in rows)
            return [None if (k, n) == (1, 2) else sum(cur[n:n + width]) for n in rows]

        table = stencil_table("probe", values, width, kernel, GuardPolicy())
        assert table.max_order == (len(values) - 1) // (width - 1)
        bad = {(1, 2)}
        for k in range(2, table.max_order + 1):
            bad |= {(k, n) for n in range(len(table.columns[k]))
                    if any((k - 1, n + j) in bad for j in range(width))}
        for k, n, value, ok in table.entries():
            assert ok == ((k, n) not in bad)
            assert (value is None) == ((k, n) in bad)
            assert table.consumed(k, n) == (width - 1) * k + 1 + n
            # only rows with valid antecedents were computed
            assert ((k, n) in seen) == (k > 0 and ((k, n) not in bad or (k, n) == (1, 2)))

    @pytest.mark.parametrize("build, width", [(iterated_aitken, 3), (wynn_epsilon, 2)])
    def test_dead_columns_keep_shape(self, build, width):
        # column 1 of Aitken and column 2 of epsilon are exactly 1.0 on this
        # geometric sequence, so every later denominator vanishes
        values = tuple(1.0 + 0.5 ** n for n in range(13))
        table = build(SequenceSample(values))
        exact = 1 if width == 3 else 2
        assert table.columns[exact] == [1.0] * len(table.columns[exact])
        dead = range(exact + 1, table.max_order + 1)
        assert len(dead) >= 3
        for k in range(table.max_order + 1):
            assert len(table.columns[k]) == len(values) - (width - 1) * k
        for k in dead:
            assert table.columns[k] == [None] * len(table.columns[k])
            assert table.valid[k] == [False] * len(table.columns[k])
        if width == 3:
            assert [table.consumed(k, 0) for k in dead] == [2 * k + 1 for k in dead]

    def test_dead_column_never_calls_the_kernel(self):
        from seqaccel.core import stencil_table

        calls = []

        def kernel(cur, k, rows):
            calls.append(k)
            return [None if k == 2 else cur[n] + cur[n + 1] for n in rows]

        table = stencil_table("probe", [1.0] * 9, 2, kernel, GuardPolicy())
        assert table.max_order == 8
        assert all(v is None for k in range(2, 9) for v in table.columns[k])
        assert calls == [1, 2]
        assert [table.consumed(k, 0) for k in range(9)] == list(range(1, 10))

    def test_tables_are_frozen(self):
        from dataclasses import FrozenInstanceError

        table = wynn_epsilon(SequenceSample((1.0, 0.5, 0.75, 0.625)))
        with pytest.raises(FrozenInstanceError):
            table.name = "renamed"

    def test_builders_name_their_tables(self):
        from seqaccel import (
            PowerSeries, ProblemSpec, generate_problem, pade_via_epsilon, rho_standard,
        )
        from seqaccel.cli import apply_transform, transform_names

        sample = generate_problem(ProblemSpec("zeta_dirichlet", 12, {"z": 2.0}))
        for name in transform_names():
            params = {"alpha": 1.0} if name in ("rho_osada", "bdg") else {}
            assert apply_transform(name, sample, GuardPolicy(), params).name == name
        assert rho_standard(sample).name == "rho"
        assert pade_via_epsilon(PowerSeries((1.0, 1.0, 0.5), 1.0)).name == "pade_epsilon"


def _lazy_samples():
    """The inputs of ``TestLazyColumns``: ζ(2)'s partial sums in float, complex
    (at z = 2 + 0.5i) and 30-digit mpf, and ln 2's in ``Fraction``, N = 12."""
    zeta = make_partial_sums([(k + 1.0) ** -2 for k in range(13)])
    with mpmath.workdps(30):
        mpf = make_partial_sums([mpmath.mpf(k + 1) ** -2 for k in range(13)])
    return {
        "float": zeta,
        "complex": make_partial_sums([(k + 1.0) ** -(2 + 0.5j) for k in range(13)]),
        "mpf": mpf,
        "fraction": make_partial_sums([Fraction((-1) ** k, k + 1) for k in range(13)]),
    }


def _lazy_params(name):
    return {"alpha": 1.0} if name in ("rho_osada", "bdg") else {}


class TestLazyColumns:
    """A table builds a column when a read first needs it, and every read sees
    the table a build of every column gives."""

    @pytest.mark.parametrize("scalars", ["float", "complex", "mpf", "fraction"])
    def test_order_constant_walk_first_reads_the_eager_table(self, scalars):
        from seqaccel.cli import apply_transform, transform_names

        sample = _lazy_samples()[scalars]
        with mpmath.workdps(30):
            for name in transform_names():
                build = partial(apply_transform, name, sample, GuardPolicy(), _lazy_params(name))
                eager = build()
                eager.columns  # every column built before any walk
                for k in sorted({0, 2, eager.max_order} & set(range(eager.max_order + 1))):
                    path, lazy = PathSpec.order_constant(k), build()
                    assert repr(walk_path(lazy, path)) == repr(walk_path(eager, path)), (name, k)
                    assert lazy == eager and repr(lazy) == repr(eager), (name, k)

    def test_an_order_constant_walk_builds_the_columns_through_its_order(self):
        from seqaccel.core import stencil_table

        calls = []

        def kernel(cur, k, rows):
            calls.append(k)
            return [cur[n] + cur[n + 1] for n in rows]

        table = stencil_table("probe", [1.0] * 9, 2, kernel, GuardPolicy())
        assert (table.max_order, table.max_index, table.consumed(8, 0), calls) == (8, 8, 9, [])
        assert table.has_entry(8, 0) and not table.has_entry(8, 1)
        assert [v for _, _, v in extract_path(table, PathSpec.order_constant(2))] == [4.0] * 7
        assert calls == [1, 2] and table.column(1) == [(n, 2.0, True) for n in range(8)]
        assert table.entry(3, 0) == 8.0 and calls == [1, 2, 3]
        assert table.entry(3, 5) == 8.0 and calls == [1, 2, 3]
        assert len(list(table.entries())) == 45 and calls == list(range(1, 9))
        assert vars(table).keys() == {"name", "columns", "n_start", "order_step", "lookahead"}

    @pytest.mark.parametrize("where", ["kernel", "rules"])
    def test_a_rule_that_raised_raises_again_at_every_read_of_its_column(self, where):
        from seqaccel.core import build_table

        def rules(columns, valid):
            for k in count(1):
                if where == "rules" and k == 3:
                    raise ArithmeticError("no rule for column 3")
                cur = columns[-1]
                yield [(valid[-1], (0, 1))], lambda rows, k=k, cur=cur: (
                    [cur[n] + cur[n + 1] for n in rows] if where != "kernel" or k != 3
                    else 1 / 0)

        table = build_table("probe", [1.0] * 9, repeat(1), rules, GuardPolicy())
        error = ArithmeticError  # ZeroDivisionError is one
        for _ in range(2):
            with pytest.raises(error):
                walk_path(table, PathSpec.order_constant(5))
            with pytest.raises(error):
                table.column(3)
            with pytest.raises(error):
                table.columns
            assert [v for _, v, _ in table.column(2)] == [4.0] * 7
            assert table.max_order == 8 and table.consumed(8, 0) == 9

    def test_threads_walking_one_table_agree_with_the_eager_table(self):
        import sys
        import threading

        sample = make_partial_sums([(k + 1.0) ** -2 for k in range(61)])
        eager = wynn_epsilon(sample)
        orders = list(range(eager.max_order + 1))
        want = {k: walk_path(eager, PathSpec.order_constant(k)) for k in orders}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                table, got, start = wynn_epsilon(sample), {}, threading.Barrier(8, timeout=30)

                def walk(mine):
                    start.wait()
                    for k in mine:
                        got[k] = walk_path(table, PathSpec.order_constant(k))

                threads = [threading.Thread(target=walk, args=(orders[i::8][::-1],)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                    assert not thread.is_alive()
                assert got == want and table == eager
        finally:
            sys.setswitchinterval(interval)

    def test_threads_reading_one_column_build_each_column_once(self):
        import threading
        import time
        from seqaccel.core import stencil_table

        calls = []

        def kernel(cur, k, rows):
            calls.append(k)
            time.sleep(0.02)  # the other readers reach the build meanwhile
            return [cur[n] + cur[n + 1] for n in rows]

        table = stencil_table("probe", [1.0] * 6, 2, kernel, GuardPolicy())
        start = threading.Barrier(4, timeout=30)

        def read():
            start.wait()
            table.column(3)

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert calls == [1, 2, 3] and table.column(3) == [(n, 8.0, True) for n in range(3)]

    def test_a_column_takes_the_mpmath_precision_of_the_build(self):
        with mpmath.workdps(30):
            sample = make_partial_sums([mpmath.mpf(k + 1) ** -2 for k in range(13)])
            lazy = wynn_epsilon(sample)
            eager = wynn_epsilon(sample)
            eager.columns
        prec = mpmath.mp.prec
        assert repr(lazy.column(4)) == repr(eager.column(4))
        assert lazy == eager and mpmath.mp.prec == prec

    def test_copies_hold_the_completed_table(self):
        import copy
        import pickle

        sample = make_partial_sums([(k + 1.0) ** -2 for k in range(13)])
        eager = wynn_epsilon(sample)
        eager.columns
        for lazy in (copy.copy(wynn_epsilon(sample)), copy.deepcopy(wynn_epsilon(sample)),
                     pickle.loads(pickle.dumps(wynn_epsilon(sample)))):
            assert vars(lazy).keys() == vars(eager).keys() and lazy == eager


def test_no_unused_imports():
    """Every name a module imports at top level is used in that module."""
    import ast
    import pathlib

    import seqaccel

    package = pathlib.Path(seqaccel.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert not unused, unused


def test_only_core_names_finite_entries():
    """``core.compute_column`` is the one place an entry turns invalid: no other
    module runs a finiteness pass of its own."""
    import ast
    import pathlib

    import seqaccel

    package = pathlib.Path(seqaccel.__file__).parent
    naming = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if "finite_entries" in names:
            naming.append(path.name)
    assert naming == ["core.py"]


def test_only_core_calls_divide():
    """``core.compute_column`` makes each column's one guarded division: a column
    rule returns its numerators, denominators and bases, and no other module calls
    ``GuardPolicy.divide``."""
    import ast
    import pathlib

    import seqaccel

    package = pathlib.Path(seqaccel.__file__).parent
    calling = [
        path.name for path in sorted(package.glob("*.py"))
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "divide"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert calling == ["core.py"]


def test_public_surface():
    """The names ``seqaccel`` exports; a change to them is a change to this list."""
    import seqaccel

    assert sorted(seqaccel.__all__) == [
        "CompareError", "ConfigError", "ConsistencyError", "DegeneratePadeError",
        "DomainError", "EmptyInputError", "GuardPolicy", "IngestError",
        "InsufficientDataError", "InterpolationPoints", "InvalidParameterError",
        "LEVIN_POWER", "PadeApproximant", "PathRangeError", "PathSpec", "PowerSeries",
        "ProblemSpec", "Scalar", "SequenceSample", "SequenceTransformError",
        "TransformTable", "WENIGER_POCHHAMMER", "ZeroRemainderError", "bdg_transform",
        "brezinski_theta", "classic", "core", "errors", "estimate_decay",
        "euler_maclaurin_zeta", "euler_series_value", "extract_path", "generate_problem",
        "interpolatory", "iterated_aitken", "iterated_rho", "iterated_rho_standard",
        "iterated_theta", "levin", "levin_variant", "linalg", "make_partial_sums",
        "median_last_quartile", "natural_points", "neville_richardson", "omega_sequence",
        "osada_rho", "pade", "pade_direct", "pade_label", "pade_via_epsilon", "pochhammer",
        "reciprocal_points", "reference", "rho_standard", "richardson_standard",
        "staircase_sequence", "walk_path", "weighted_ratio_transform", "weniger_variant",
        "wynn_epsilon", "wynn_rho",
    ]
