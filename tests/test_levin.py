import math
import pathlib
import random
from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import sub

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from seqaccel import (
    GuardPolicy,
    InsufficientDataError,
    InvalidParameterError,
    LEVIN_POWER,
    WENIGER_POCHHAMMER,
    PathSpec,
    SequenceSample,
    ZeroRemainderError,
    extract_path,
    generate_problem,
    levin_variant,
    make_partial_sums,
    omega_sequence,
    pochhammer,
    weighted_ratio_transform,
    weniger_variant,
    ProblemSpec,
)
from seqaccel.cli import ingest
from seqaccel.core import is_finite
from seqaccel.levin import WENIGER_NAMES
from _helpers import assert_agrees_with_mpmath, mpf_samples, rel_diff, zeta2_mpf_error
from oracles import closed_form, e_oracle, pochhammer_weights, power_weights

LN2_SUMS = (1.0, 0.5, 0.5 + 1.0 / 3.0)

with mpmath.workdps(50):  # zeta(2)'s first 14 partial sums, to 50 digits
    ZETA2_SUMS = tuple(accumulate(1 / mpmath.mpf(j + 1) ** 2 for j in range(14)))


class TestOmegaSequence:
    def test_t_estimates_are_backward_differences(self):
        # values-only sample: the estimates start at n=1
        omegas = omega_sequence(SequenceSample(LN2_SUMS), "t")
        assert omegas == pytest.approx([-0.5, 1.0 / 3.0])

    def test_u_scales_by_index_shift(self):
        omegas = omega_sequence(SequenceSample(LN2_SUMS), "u", zeta=1.0)
        assert omegas == pytest.approx([-1.0, 1.0])

    def test_v_combines_adjacent_differences(self):
        omegas = omega_sequence(SequenceSample(LN2_SUMS), "v")
        assert omegas == pytest.approx([0.2])

    def test_d_uses_forward_differences(self):
        omegas = omega_sequence(SequenceSample(LN2_SUMS), "d")
        assert omegas == pytest.approx([-0.5, 1.0 / 3.0])

    def test_terms_extend_u_t_to_index_zero(self):
        sample = make_partial_sums([1.0, -0.5, 1.0 / 3.0])
        assert omega_sequence(sample, "t") == pytest.approx([1.0, -0.5, 1.0 / 3.0])
        assert omega_sequence(sample, "u", zeta=2.0) == pytest.approx(
            [2.0, -1.5, 4.0 / 3.0]
        )

    def test_u_estimate_takes_zeta_in_the_sample_type(self):
        # the float 0.3 enters as mpf(0.3), so each (zeta + n) is formed at 30 digits
        with mpmath.workdps(30):
            s = ZETA2_SUMS[:8]
            want = [(mpmath.mpf(0.3) + n) * (s[n] - s[n - 1]) for n in range(1, len(s))]
            assert repr(omega_sequence(SequenceSample(s), "u", 0.3)) == repr(want)

    def test_levin_u_with_the_default_zeta_reaches_mpf_accuracy(self):
        # with zeta + n as doubles the best entry stayed near 7.6e-15
        assert zeta2_mpf_error(lambda s: levin_variant(s, "u", guard=GuardPolicy(1e-35)), 24) < 1e-20

    def test_zero_estimate_rejected(self):
        with pytest.raises(ZeroRemainderError) as info:
            omega_sequence(SequenceSample((1.0, 1.0, 2.0)), "t")
        assert info.value.index == 1
        with pytest.raises(ZeroRemainderError):
            omega_sequence(SequenceSample((1.0, 2.0, 3.0)), "v")
        # a user-supplied estimate that is zero, of any type, at its own index
        for zero in (-0.0, mpmath.mpf(0)):
            with pytest.raises(ZeroRemainderError) as info:
                weighted_ratio_transform(SequenceSample((1.0, 2.0, 3.0)), (1.0, zero, 1.0))
            assert info.value.index == 1

    def test_unknown_kind_and_zeta_validation(self):
        with pytest.raises(InvalidParameterError):
            omega_sequence(SequenceSample(LN2_SUMS), "q")
        with pytest.raises(InvalidParameterError):
            omega_sequence(SequenceSample(LN2_SUMS), "t", zeta=0.0)
        # user-supplied estimates go through weighted_ratio_transform only
        with pytest.raises(InvalidParameterError, match="unknown remainder estimate kind"):
            levin_variant(SequenceSample(LN2_SUMS), [1.0, 2.0, 3.0])

    def test_explicit_must_align(self):
        # a sequence is not a rule name; alignment of user-supplied estimates
        # is checked by weighted_ratio_transform (test_misaligned_estimates_rejected)
        with pytest.raises(InvalidParameterError, match="unknown remainder estimate kind"):
            omega_sequence(SequenceSample(LN2_SUMS), [1.0, 2.0])


class TestWeightedRatioTransform:
    def test_exact_for_constant_correction(self):
        # s_n = 2 + 3 (-1)^n with omega_n = (-1)^n
        vals = tuple(2.0 + 3.0 * (-1.0) ** n for n in range(5))
        omegas = [(-1.0) ** n for n in range(5)]
        table = weighted_ratio_transform(SequenceSample(vals), omegas)
        assert table.entry(1, 0) == pytest.approx(2.0)

    def test_families_coincide_at_first_order(self):
        rng = random.Random(9)
        vals = tuple(rng.uniform(0.5, 1.5) for _ in range(7))
        omegas = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(7)]
        power = weighted_ratio_transform(SequenceSample(vals), omegas, LEVIN_POWER)
        pochh = weighted_ratio_transform(SequenceSample(vals), omegas, WENIGER_POCHHAMMER)
        for n, value, ok in power.column(1):
            assert ok and rel_diff(value, pochh.entry(1, n)) < 1e-14

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_power_weights_annihilate_inverse_power_polynomials(self, k):
        rng = random.Random(k)
        limit = rng.uniform(-2, 2)
        coeffs = [rng.uniform(-2, 2) for _ in range(k)]
        omegas = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(k + 4)]
        vals = tuple(
            limit + omegas[n] * sum(c / (n + 1.0) ** j for j, c in enumerate(coeffs))
            for n in range(k + 4)
        )
        table = weighted_ratio_transform(SequenceSample(vals), omegas, LEVIN_POWER)
        assert rel_diff(table.entry(k, 0), limit) < 1e-10

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_pochhammer_weights_annihilate_factorial_series(self, k):
        rng = random.Random(10 + k)
        limit = rng.uniform(-2, 2)
        coeffs = [rng.uniform(-2, 2) for _ in range(k)]
        omegas = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(k + 4)]
        vals = tuple(
            limit
            + omegas[n] * sum(c / pochhammer(n + 1.0, j) for j, c in enumerate(coeffs))
            for n in range(k + 4)
        )
        table = weighted_ratio_transform(
            SequenceSample(vals), omegas, WENIGER_POCHHAMMER
        )
        assert rel_diff(table.entry(k, 0), limit) < 1e-10

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_matches_model_sequence_oracle(self, k):
        # phi_j(n) = omega_n / (n+zeta)^j reproduces the power-weight ratio
        rng = random.Random(20 + k)
        zeta = 1.0
        vals = tuple(rng.uniform(0.5, 1.5) for _ in range(k + 4))
        omegas = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(k + 4)]
        table = weighted_ratio_transform(SequenceSample(vals), omegas, LEVIN_POWER, zeta)
        for n in range(len(vals) - k):
            phis = [
                [omegas[n + i] / (n + i + zeta) ** j for j in range(k)]
                for i in range(k + 1)
            ]
            oracle = e_oracle(list(vals[n:n + k + 1]), phis)
            if table.is_valid(k, n):
                assert rel_diff(table.entry(k, n), oracle) < 1e-8

    def test_misaligned_estimates_rejected(self):
        with pytest.raises(InvalidParameterError):
            weighted_ratio_transform(SequenceSample(LN2_SUMS), [1.0, 2.0])

    @pytest.mark.parametrize("size", (1, 2, 5))
    def test_unknown_family_rejected_at_any_size(self, size):
        sample = SequenceSample(tuple(1.0 + 0.5 ** n for n in range(size)))
        with pytest.raises(InvalidParameterError, match="unknown weight family"):
            weighted_ratio_transform(sample, [0.5 ** n for n in range(size)], family="bogus")

    @pytest.mark.parametrize("zeta", (0.0, -1.0, float("inf"), float("nan"), 1j))
    def test_zeta_must_be_positive_and_finite(self, zeta):
        sample = SequenceSample(LN2_SUMS)
        with pytest.raises(InvalidParameterError, match="zeta must be positive and finite"):
            weighted_ratio_transform(sample, [1.0, -0.5, 1.0 / 3.0], zeta=zeta)
        with pytest.raises(InvalidParameterError, match="zeta must be positive and finite"):
            levin_variant(sample, "t", zeta=zeta)


class TestLevinVariants:
    def test_u_reaches_tight_error_on_slow_zeta_series(self):
        sample = generate_problem(ProblemSpec("zeta_dirichlet", 20, {"z": 1.1}))
        table = levin_variant(sample, "u")
        raw_err = abs(sample.values[-1] - sample.limit)
        best = min(
            abs(v - sample.limit)
            for _, _, v in extract_path(table, PathSpec.index_constant())
        )
        assert best < 1e-6 * raw_err

    def test_t_sums_geometric_series(self):
        sample = make_partial_sums([0.8 ** k for k in range(11)])
        table = levin_variant(sample, "t")
        assert abs(table.entry(8, 0) - 5.0) < 1e-8

    def test_t_fails_on_logarithmic_convergence(self):
        sample = generate_problem(ProblemSpec("zeta_dirichlet", 15, {"z": 2.0}))
        table = levin_variant(sample, "t")
        raw_err = abs(sample.values[-1] - sample.limit)
        best = min(
            abs(v - sample.limit)
            for _, _, v in extract_path(table, PathSpec.index_constant())
        )
        assert best > raw_err / 100

    def test_index_alignment_without_terms(self):
        table = levin_variant(SequenceSample(LN2_SUMS), "t")
        assert table.n_start == 1
        assert table.entry(0, 1) == 0.5
        table_d = levin_variant(SequenceSample(LN2_SUMS), "d")
        assert table_d.n_start == 0

    def test_offset_drops_term_alignment(self):
        sample = generate_problem(ProblemSpec("zeta_dirichlet", 8, {"z": 2.0}))
        assert levin_variant(sample, "u").n_start == 0
        assert levin_variant(sample.with_offset(2), "u").n_start == 1

    def test_single_element_insufficient_for_t(self):
        with pytest.raises(InsufficientDataError):
            levin_variant(SequenceSample((1.0,)), "t")

    @given(mpf_samples())
    @example((50, ZETA2_SUMS))
    @settings(max_examples=50, deadline=None)
    def test_last_entry_is_mpmath_levin(self, drawn):
        # mpmath's Levin and Sidi (Weniger) transforms run a backward recursion of
        # their own over the partial sums; at zeta = 1 their value is T_{N-1}^(0) for
        # u and t and T_{N-2}^(0) for v.  Built 20 or more digits past the draw, a
        # denominator that cancels to rounding trips the 1e-45 guard.
        dps, values = drawn
        for method, variant in (("levin", levin_variant), ("sidi", weniger_variant)):
            for kind in "utv":
                assert_agrees_with_mpmath(dps, partial(_levin_pair, method, variant, kind, values))


def _levin_pair(method, variant, kind, values):
    """``[T]`` and ``[mpmath.levin's value]`` at zeta = 1 under ``GuardPolicy(1e-45)``,
    T the last entry of row 0; None where the guard trips or a zero estimate stops both."""
    oracle = mpmath.levin(method=method, variant=kind)
    sample = SequenceSample(values, (values[0], *map(sub, values[1:], values)))
    try:
        table = variant(sample, kind, mpmath.mpf(1), GuardPolicy(1e-45))
    except ZeroRemainderError:
        with pytest.raises((ValueError, ZeroDivisionError)):
            oracle.update_psum(values)
        return None
    got = table.entry(table.max_order, 0)
    return None if got is None else ([got], [oracle.update_psum(values)[0]])


class TestWenigerVariants:
    def test_tau_equals_t_at_first_order(self):
        rng = random.Random(31)
        vals = tuple(rng.uniform(0.5, 1.5) for _ in range(8))
        t = levin_variant(SequenceSample(vals), "t")
        tau = weniger_variant(SequenceSample(vals), "t")
        for n, value, ok in t.column(1):
            if ok and tau.is_valid(1, n):
                assert rel_diff(value, tau.entry(1, n)) < 1e-13

    def test_y_exact_at_first_order_on_its_model(self):
        # s_n = s + c (zeta+n) (s_n - s_{n-1}) solved as a recurrence
        limit, c = 2.0, 0.3
        vals = [5.0]
        for n in range(1, 8):
            vals.append((limit - c * (1 + n) * vals[-1]) / (1 - c * (1 + n)))
        table = weniger_variant(SequenceSample(tuple(vals)), "u")
        for n, value, ok in table.column(1):
            assert ok and value == pytest.approx(limit, abs=1e-8)

    def test_delta_sums_divergent_factorial_series(self):
        sample = generate_problem(ProblemSpec("euler_factorial", 15, {"x": 1.0}))
        table = weniger_variant(sample, "d")
        assert abs(table.entry(14, 0) - sample.limit) < 1e-8

    def test_guard_trip_stays_in_its_entry(self):
        # 1/omega_1 = 1/omega_2 makes D_1^(1) exactly zero; the recursion runs on
        # N and D, so the entries above (1, 1) keep their values
        vals = tuple(1.0 + 0.5 ** n for n in range(7))
        omegas = [1.0, 2.0, 2.0, 3.0, 5.0, 8.0, 13.0]
        table = weighted_ratio_transform(SequenceSample(vals), omegas, WENIGER_POCHHAMMER)
        assert table.valid[1] == [True, False, True, True, True, True]
        assert all(map(all, table.valid[2:]))

    @pytest.mark.parametrize("j", (0, 3, 8))
    def test_non_finite_numerator_and_denominator_spread_over_their_cone(self, j):
        # 1/omega_j overflows to inf, so N_0 and D_0 are not finite at j, and
        # T_k^(m) reads them exactly when m <= j <= m + k; alternating
        # estimates keep every other denominator clear of zero
        vals = tuple(accumulate((-1.0) ** n / (n + 1) for n in range(9)))
        omegas = [(-1.0) ** n * (n + 2.0) ** 2 for n in range(9)]
        omegas[j] = 1e-310
        table = weighted_ratio_transform(SequenceSample(vals), omegas, WENIGER_POCHHAMMER)
        assert all(table.valid[0])
        for k in range(1, table.max_order + 1):
            assert table.valid[k] == [not m <= j <= m + k for m in range(9 - k)], k
            assert all(is_finite(v) for v, ok in zip(table.columns[k], table.valid[k]) if ok)

    def test_guard_threshold_trips_entries_the_default_keeps(self):
        sample = generate_problem(ProblemSpec("euler_factorial", 18, {"x": 1.0}))
        default = weniger_variant(sample, "d")
        loose = weniger_variant(sample, "d", guard=GuardPolicy(1e-3))
        tripped = {(k, n) for k, n, _, ok in loose.entries() if not ok}
        assert {(k, n) for k, n, _, ok in default.entries() if not ok} < tripped
        for k, n, value, ok in loose.entries():
            assert not ok or repr(value) == repr(default.entry(k, n))

    def test_names_follow_estimate_rule(self):
        sample = SequenceSample(LN2_SUMS + (0.583333333333,))
        assert weniger_variant(sample, "d").name == "weniger_delta"
        assert levin_variant(sample, "v").name == "levin_v"


class TestInvariances:
    @given(
        st.floats(-5, 5),
        st.floats(-4, 4).filter(lambda c: abs(c) > 0.05),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_covariance_with_fixed_estimates(self, shift, scale, seed):
        rng = random.Random(seed)
        vals = tuple(rng.uniform(0.5, 1.5) for _ in range(7))
        omegas = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(7)]
        base = weighted_ratio_transform(SequenceSample(vals), omegas)
        moved = weighted_ratio_transform(
            SequenceSample(tuple(scale * v + shift for v in vals)), omegas
        )
        for k in range(base.max_order + 1):
            for n, value, ok in base.column(k):
                if ok and moved.is_valid(k, n):
                    want = scale * value + shift
                    assert abs(moved.entry(k, n) - want) < 1e-7 * max(1.0, abs(want))

    @given(
        st.floats(-6, 6).filter(lambda c: abs(c) > 0.01),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_estimate_scaling_leaves_transform_unchanged(self, factor, seed):
        rng = random.Random(seed)
        vals = tuple(rng.uniform(0.5, 1.5) for _ in range(7))
        omegas = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(7)]
        base = weighted_ratio_transform(SequenceSample(vals), omegas)
        scaled = weighted_ratio_transform(
            SequenceSample(vals), [factor * w for w in omegas]
        )
        for k in range(base.max_order + 1):
            for n, value, ok in base.column(k):
                if ok and scaled.is_valid(k, n):
                    assert rel_diff(value, scaled.entry(k, n)) < 1e-9


def _per_entry_ratio_table(values, omegas, family, zeta, guard, n_start):
    """Every entry as its own (k+1)-term binomial sum, in the earlier kernel's
    operation order: the oracle of Levin's bit identity and the accuracy
    Weniger's recursion must match."""

    def weight_ratio(n, k, j):
        if k <= 1:
            return 1.0
        if family == LEVIN_POWER:
            return ((zeta + n + j) / (zeta + n + k)) ** (k - 1)
        r = 1.0
        for i in range(k - 1):
            r *= (zeta + n + j + i) / (zeta + n + k + i)
        return r

    inv = [1.0 / w for w in omegas]
    ratio = [v * iw for v, iw in zip(values, inv)]
    columns = [list(values)]
    for k in range(1, len(values)):
        column = []
        for i in range(len(values) - k):
            num = 0.0
            den = 0.0
            sign = 1.0
            try:
                for j in range(k + 1):
                    w = sign * math.comb(k, j) * weight_ratio(n_start + i, k, j)
                    num += w * ratio[i + j]
                    den += w * inv[i + j]
                    sign = -sign
                value = guard.divide([num], [den])[0]
            except (ZeroDivisionError, OverflowError):
                value = None
            column.append(value if value is not None and is_finite(value) else None)
        columns.append(column)
    return columns


def _assert_bit_identical(table, oracle):
    assert len(table.columns) == len(oracle)
    for k, want in enumerate(oracle):
        assert [repr(v) for v in table.columns[k]] == [repr(v) for v in want], k
        assert table.valid[k] == [v is not None for v in want], k


def _assert_as_accurate(table, values, omegas, zeta, oracle):
    """Every Weniger entry is as accurate as the per-entry binomial sum, or
    within ``(k+2) 2**-53 kappa`` of the 50-digit closed form: the rounding
    bound of the golden-file policy.  An entry whose exact denominator is
    zero is invalid; no entry the sum computes is lost."""
    assert len(table.columns) == len(oracle)
    assert [repr(v) for v in table.columns[0]] == [repr(v) for v in oracle[0]]
    for k in range(1, len(oracle)):
        for i, (new, old) in enumerate(zip(table.columns[k], oracle[k])):
            weights = pochhammer_weights(zeta, table.n_start + i, k)
            x, kappa = closed_form(values[i:], omegas[i:], weights)
            if x is None:
                assert not table.valid[k][i], (k, i)
                continue
            assert table.valid[k][i] or old is None, (k, i)
            if table.valid[k][i]:
                with mpmath.workdps(50):
                    error = abs(mpmath.mpmathify(new) - x)
                    bound = (k + 2) * mpmath.mpf(2) ** -53 * kappa
                    if old is not None:
                        bound = max(bound, abs(mpmath.mpmathify(old) - x))
                    assert error <= bound, (k, i, new, old, x)


def _mpf_alternating(n):
    with mpmath.workdps(30):
        return make_partial_sums([mpmath.mpf(-1) ** j / (j + 1) for j in range(n + 1)])


_BIT_IDENTITY_SAMPLES = {
    "float": lambda: generate_problem(ProblemSpec("euler_factorial", 18, {"x": 1.0})),
    "float_values": lambda: generate_problem(
        ProblemSpec("zeta_dirichlet", 20, {"z": 1.1})).with_offset(1),
    "complex": lambda: generate_problem(ProblemSpec("zeta_dirichlet", 14, {"z": 2.0 + 0.5j})),
    "mpf": lambda: _mpf_alternating(12),
}


def _oracle_zeta(scalars, zeta):
    """``zeta`` as the transforms lift it: an mpf on the mpf sample."""
    return mpmath.mpf(zeta) if scalars == "mpf" else zeta


class TestColumnKernelBitIdentity:
    """Levin's column-wise kernel reproduces the per-entry binomial sums bit for
    bit; Weniger's three-term recursion is as accurate as those sums."""

    @pytest.mark.parametrize("zeta", (1.0, 0.3))
    @pytest.mark.parametrize("kind", ("u", "t", "v", "d"))
    @pytest.mark.parametrize("variant, family", (
        (levin_variant, LEVIN_POWER), (weniger_variant, WENIGER_POCHHAMMER),
    ))
    @pytest.mark.parametrize("scalars", sorted(_BIT_IDENTITY_SAMPLES))
    def test_variants(self, scalars, variant, family, kind, zeta):
        sample = _BIT_IDENTITY_SAMPLES[scalars]()
        guard = GuardPolicy()
        with mpmath.workdps(30):
            table = variant(sample, kind, zeta, guard)
            omegas = omega_sequence(sample, kind, zeta)
            values = sample.values[table.n_start:table.n_start + len(omegas)]
            oracle = _per_entry_ratio_table(values, omegas, family, _oracle_zeta(scalars, zeta),
                                            guard, table.n_start)
        if family == LEVIN_POWER:
            _assert_bit_identical(table, oracle)
        else:
            _assert_as_accurate(table, values, omegas, zeta, oracle)

    @pytest.mark.parametrize("guard", (GuardPolicy(), GuardPolicy(0.0)))
    @pytest.mark.parametrize("zeta", (1.0, 0.3))
    @pytest.mark.parametrize("family", (LEVIN_POWER, WENIGER_POCHHAMMER))
    @pytest.mark.parametrize("scalars", sorted(_BIT_IDENTITY_SAMPLES))
    def test_weighted_ratio_transform(self, scalars, family, zeta, guard):
        sample = _BIT_IDENTITY_SAMPLES[scalars]()
        values = sample.values
        # constant estimates make every denominator from the first order on exactly zero
        for omegas in ([1.0] * len(values), [(-1.0) ** n / (n + 2) for n in range(len(values))]):
            with mpmath.workdps(30):
                table = weighted_ratio_transform(sample, omegas, family, zeta, guard)
                oracle = _per_entry_ratio_table(values, omegas, family,
                                                _oracle_zeta(scalars, zeta), guard, 0)
            if family == LEVIN_POWER:
                _assert_bit_identical(table, oracle)
            else:
                _assert_as_accurate(table, values, omegas, zeta, oracle)

    # 1022: comb(5, 2) << 1022 has 1026 bits, just past the 1024-bit cutoff, and
    # its float conversion overflows if the cutoff lets that column through
    @pytest.mark.parametrize("shift", (1100, 1022))
    def test_columns_beyond_the_binomial_range_have_no_entry(self, monkeypatch, shift):
        # comb(k, k // 2) leaves the double range from k = 1030 on; scaled by
        # 2**shift from k = 5 on, a short table meets the same columns
        sample = _BIT_IDENTITY_SAMPLES["float"]()
        weniger = weniger_variant(sample, "t")
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda k, j: comb(k, j) << (shift if k >= 5 else 0))
        table = levin_variant(sample, "t")
        omegas = omega_sequence(sample, "t")
        oracle = _per_entry_ratio_table(sample.values, omegas, LEVIN_POWER, 1.0, GuardPolicy(), 0)
        _assert_bit_identical(table, oracle)
        assert any(table.valid[4]) and not any(map(any, table.valid[5:]))
        # the recursion uses no binomial weight: Weniger keeps those columns
        patched = weniger_variant(sample, "t")
        assert repr(patched) == repr(weniger) and all(map(any, patched.valid[5:]))


class TestDataBudget:
    """``consumed(k, n)``, worked by hand: T_k^(n) reads s_n .. s_{n+k} and the
    estimates omega_n .. omega_{n+k}.  u, t and v read s_{n-1} too, which is
    why they start at n = 1 without stored terms (a_0 stands in for s_0 - s_{-1}
    with them), and v and d read s_{n+k+1}.  The budget is the last index read,
    plus one, so the entry at the top of a table reads the whole sample."""

    @pytest.mark.parametrize("stored", (True, False), ids=("terms", "values"))
    @pytest.mark.parametrize("kind", ("u", "t", "v", "d"))
    @pytest.mark.parametrize("variant", (levin_variant, weniger_variant))
    def test_every_rule(self, variant, kind, stored):
        sample = make_partial_sums([(-1.0) ** j / (j + 1) for j in range(10)])
        if not stored:
            sample = SequenceSample(sample.values)
        table = variant(sample, kind)
        assert table.n_start == (0 if stored or kind == "d" else 1)
        ahead = 1 if kind in ("v", "d") else 0
        assert table.max_order == 9 - table.n_start - ahead
        for k, n, _, _ in table.entries():
            assert table.consumed(k, n) == n + k + 1 + ahead, (k, n)
        assert table.consumed(table.max_order, table.n_start) == 10

    @pytest.mark.parametrize("family", (LEVIN_POWER, WENIGER_POCHHAMMER))
    def test_explicit_estimates(self, family):
        omegas = [(-1.0) ** j / (j + 2) for j in range(8)]
        table = weighted_ratio_transform(SequenceSample(LN2_SUMS * 2 + LN2_SUMS[:2]), omegas, family)
        assert [table.consumed(k, n) for k, n, _, _ in table.entries()] == [
            n + k + 1 for k in range(8) for n in range(8 - k)]


#: ln 2's partial sums through N = 12, exact
LN2_EXACT = make_partial_sums([Fraction((-1) ** j, j + 1) for j in range(13)])


def test_weniger_recursion_is_the_exact_pochhammer_sum():
    # on exact input the recursion is the binomial sum of the Pochhammer weights
    # to the last digit, at every one of the 91 entries of ln 2 at N = 12
    sample = LN2_EXACT
    table = weniger_variant(sample, "u", zeta=Fraction(1))
    omegas = omega_sequence(sample, "u", Fraction(1))
    s = sample.values
    columns = [[sum(c * s[n + j] / omegas[n + j] for j, c in enumerate(w))
                / sum(c / omegas[n + j] for j, c in enumerate(w))
                for n in range(13 - k) for w in (pochhammer_weights(1, n, k),)]
               for k in range(13)]
    assert table.columns == columns
    assert table.valid == [[True] * len(c) for c in columns]
    assert sum(map(len, columns)) == 91


@pytest.mark.parametrize("kind, entries", (("u", 91), ("t", 91), ("d", 78)))
def test_levin_is_the_exact_power_weight_sum(kind, entries):
    # with an exact zeta the binomial sums take no float constant: every entry is
    # the exact ratio of the power-weight sums
    table = levin_variant(LN2_EXACT, kind, zeta=Fraction(1))
    omegas = omega_sequence(LN2_EXACT, kind, Fraction(1))
    s, size = LN2_EXACT.values, len(omegas)
    columns = [[sum(c * s[n + j] / omegas[n + j] for j, c in enumerate(w))
                / sum(c / omegas[n + j] for j, c in enumerate(w))
                for n in range(size - k) for w in (power_weights(1, n, k),)]
               for k in range(size)]
    assert table.columns == columns
    assert {type(v) for column in table.columns for v in column} == {Fraction}
    assert sum(map(len, columns)) == entries


@pytest.mark.parametrize("kind", ("u", "d"))
def test_levin_moves_exactly_with_its_sample(kind):
    # T[a s + c] = a T[s] + c to the last digit on exact input, where only an
    # exactly zero denominator trips the guard
    guard, values = GuardPolicy(0), LN2_EXACT.values
    base = levin_variant(SequenceSample(values), kind, Fraction(1), guard)
    assert all(map(all, base.valid))
    for scale, shift in ((1, Fraction(3, 7)), (Fraction(-5, 2), 0), (Fraction(2, 3), -4)):
        moved = levin_variant(SequenceSample(tuple(scale * v + shift for v in values)),
                              kind, Fraction(1), guard)
        assert moved.columns == [[scale * v + shift for v in column] for column in base.columns]


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The ``run_*`` goldens: the sample each report was made from, and its
#: number of valid Levin and Weniger rows with k >= 1.  ``run_geometric``
#: has none: its s_0 = 0, so levin_t stops at a zero remainder estimate.
_GOLDEN_RUNS = {
    "run_zeta11": (lambda: generate_problem(ProblemSpec("zeta_dirichlet", 20, {"z": 1.1})), 20),
    "run_euler": (lambda: generate_problem(ProblemSpec("euler_factorial", 25, {"x": 1.0})), 24),
    "run_geometric": (lambda: generate_problem(
        ProblemSpec("geometric", 15, {"s": 5.0, "c": -5.0, "lam": 0.8})), 0),
    "run_geometric_levin": (lambda: generate_problem(
        ProblemSpec("geometric", 15, {"s": 2.0, "c": -1.0, "lam": 0.8})), 30),
    "run_nolimit": (lambda: ingest(str(GOLDEN_DIR / "sums.csv"), values_mode=True), 10),
}


@pytest.mark.parametrize("stem", sorted(_GOLDEN_RUNS))
def test_golden_levin_rows_are_within_the_rounding_bound(stem):
    """Every valid Levin and Weniger row (k >= 1) of a ``run_*`` golden lies
    within ``(k+2) 2**-53 kappa`` of the 50-digit closed form X on the same
    double inputs, plus half a unit in the 16th printed digit of X."""
    build, count = _GOLDEN_RUNS[stem]
    sample = build()
    kinds = {**{f"levin_{rule}": rule for rule in WENIGER_NAMES},
             **{f"weniger_{name}": rule for rule, name in WENIGER_NAMES.items()}}
    rows = [line.split("\t") for line in (GOLDEN_DIR / f"{stem}.tsv").read_text().splitlines()]
    checked = 0
    for name, k, n, printed, _, valid in (row for row in rows if row[0] in kinds):
        k, n, kind = int(k), int(n), kinds[name]
        if valid != "1" or k == 0:
            continue
        weights = (power_weights if name.startswith("levin_") else pochhammer_weights)(1.0, n, k)
        omegas = omega_sequence(sample, kind)
        start = 0 if kind == "d" or sample.terms is not None else 1
        x, kappa = closed_form(sample.values[n:], omegas[n - start:], weights)
        with mpmath.workdps(50):
            error = abs(mpmath.mpf(printed) - x)
            bound = (k + 2) * mpmath.mpf(2) ** -53 * kappa + mpmath.mpf("0.5e-15") * abs(x)
            assert error <= bound, (name, k, n, printed, x, error / bound)
        checked += 1
    assert checked == count
