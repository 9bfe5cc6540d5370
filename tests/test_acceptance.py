"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines on passing criteria as well).  Tolerances are fixed here;
they are the package's exit criteria, not tuning knobs.
"""

import math
import random
import sys

import mpmath

from seqaccel import (
    DegeneratePadeError,
    PathSpec,
    PowerSeries,
    ProblemSpec,
    SequenceSample,
    bdg_transform,
    brezinski_theta,
    estimate_decay,
    euler_maclaurin_zeta,
    extract_path,
    generate_problem,
    iterated_aitken,
    iterated_rho,
    iterated_rho_standard,
    levin_variant,
    median_last_quartile,
    natural_points,
    osada_rho,
    pade_direct,
    pade_label,
    pade_via_epsilon,
    pochhammer,
    richardson_standard,
    rho_standard,
    weighted_ratio_transform,
    weniger_variant,
    wynn_epsilon,
    wynn_rho,
)
from seqaccel.cli import main as cli_main
from seqaccel.levin import LEVIN_POWER, WENIGER_POCHHAMMER
from _helpers import error_slope, rel_diff
from oracles import order_condition_residuals, richardson_binomial

PI2_6 = math.pi ** 2 / 6


def verdict(number, name, failures):
    state = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {state}"
    if failures:
        line += " (" + "; ".join(failures) + ")"
    print(line, file=sys.stderr)
    assert not failures, line


def best_path_error(table, limit, path=None):
    return min(
        abs(v - limit) for _, _, v in extract_path(table, path or PathSpec.index_constant())
    )


def test_criterion_01_model_sequence_exactness():
    tol = 1e-8
    failures = []
    rng = random.Random(2024)

    # Aitken on the single-exponential model
    for _ in range(10):
        s, c = rng.uniform(-5, 5), rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
        lam = rng.uniform(0.1, 0.9) * rng.choice([-1, 1])
        vals = tuple(s + c * lam ** n for n in range(3))
        got = iterated_aitken(SequenceSample(vals)).entry(1, 0)
        if rel_diff(got, s) > tol:
            failures.append(f"aitken missed s={s}")

    # epsilon on k-exponential models, k <= 3, plus a divergent case
    cases = []
    for _ in range(10):
        k = rng.choice([1, 2, 3])
        lams = []
        while len(lams) < k:
            lam = rng.uniform(0.1, 0.9) * rng.choice([-1, 1])
            if all(abs(abs(lam) - abs(other)) > 0.05 for other in lams):
                lams.append(lam)
        cases.append(lams)
    cases.append([1.5, 0.4])  # |lambda_0| > 1: divergent, epsilon finds the antilimit
    for lams in cases:
        k = len(lams)
        s = rng.uniform(-5, 5)
        cs = [rng.uniform(0.5, 2.0) for _ in lams]
        vals = tuple(
            s + sum(c * lam ** n for c, lam in zip(cs, lams)) for n in range(2 * k + 1)
        )
        got = wynn_epsilon(SequenceSample(vals)).entry(2 * k, 0)
        if got is None or rel_diff(got, s) > tol:
            failures.append(f"epsilon_{2 * k} missed s={s} for lams={lams}")

    # standard Richardson on the decay model with integer alpha
    for alpha in (1, 2, 3):
        s, c0, c1 = rng.uniform(-3, 3), rng.uniform(0.5, 2), rng.uniform(-2, 2)
        vals = tuple(
            s + (n + 1.0) ** -alpha * (c0 + c1 / (n + 1.0)) for n in range(7)
        )
        got = richardson_standard(SequenceSample(vals), beta=1.0).entry(6, 0)
        if rel_diff(got, s) > tol:
            failures.append(f"richardson missed s={s} at alpha={alpha}")

    # rho_2 on (1,1) rational models of x_n = n+1
    for _ in range(10):
        a, b, c, d = (rng.uniform(0.5, 3.0) for _ in range(4))
        vals = tuple((a + b * (n + 1.0)) / (c + d * (n + 1.0)) for n in range(3))
        got = rho_standard(SequenceSample(vals)).entry(2, 0)
        if got is None or rel_diff(got, b / d) > tol:
            failures.append(f"rho_2 missed {b / d}")

    # Levin and factorial-series weights on their own model sequences, k <= 4
    for k in (2, 3, 4):
        s = rng.uniform(-2, 2)
        cs = [rng.uniform(-2, 2) for _ in range(k)]
        omegas = [rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(k + 4)]
        vals_power = tuple(
            s + omegas[n] * sum(c / (n + 1.0) ** j for j, c in enumerate(cs))
            for n in range(k + 4)
        )
        got = weighted_ratio_transform(
            SequenceSample(vals_power), omegas, LEVIN_POWER
        ).entry(k, 0)
        if rel_diff(got, s) > tol:
            failures.append(f"levin weights missed s={s} at k={k}")
        vals_fact = tuple(
            s + omegas[n] * sum(c / pochhammer(n + 1.0, j) for j, c in enumerate(cs))
            for n in range(k + 4)
        )
        got = weighted_ratio_transform(
            SequenceSample(vals_fact), omegas, WENIGER_POCHHAMMER
        ).entry(k, 0)
        if rel_diff(got, s) > tol:
            failures.append(f"pochhammer weights missed s={s} at k={k}")

    verdict(1, "model-sequence exactness", failures)


def test_criterion_02_identity_suite():
    tol = 1e-12
    rng = random.Random(7)
    worst = {}

    def note(label, value):
        worst[label] = max(worst.get(label, 0.0), value)

    for _ in range(50):
        vals = tuple(rng.uniform(0.25, 1.75) for _ in range(8))
        sample = SequenceSample(vals)

        eps = wynn_epsilon(sample)
        ait = iterated_aitken(sample)
        for n in range(len(vals) - 2):
            if eps.is_valid(2, n) and ait.is_valid(1, n):
                note("eps2=aitken1", rel_diff(eps.entry(2, n), ait.entry(1, n)))

        theta = brezinski_theta(sample)
        d = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
        dd = [d[i + 1] - d[i] for i in range(len(d) - 1)]
        for n, value, ok in theta.column(2):
            if ok:
                closed = vals[n + 1] - d[n] * d[n + 1] * dd[n + 1] / (
                    d[n + 2] * dd[n] - d[n] * dd[n + 1]
                )
                note("theta2=closed-form", rel_diff(value, closed))

        rich = richardson_standard(sample, beta=1.0)
        for k in range(rich.max_order + 1):
            for n, value, ok in rich.column(k):
                if ok:
                    note(
                        "richardson=binomial",
                        rel_diff(value, richardson_binomial(vals, 1.0, k, n)),
                    )

        points = natural_points(len(vals))
        rho_gen = wynn_rho(sample, points)
        rho_std = rho_standard(sample)
        for k in range(rho_gen.max_order + 1):
            for n, value, ok in rho_gen.column(k):
                if ok and rho_std.is_valid(k, n):
                    note("rho(n+1)=rho-standard", rel_diff(value, rho_std.entry(k, n)))

        w_gen = iterated_rho(sample, points)
        w_std = iterated_rho_standard(sample)
        for k in range(w_gen.max_order + 1):
            for n, value, ok in w_gen.column(k):
                if ok and w_std.is_valid(k, n):
                    note("W(n+1)=W-standard", rel_diff(value, w_std.entry(k, n)))

        osa1 = osada_rho(sample, alpha=1.0)
        for k in range(osa1.max_order + 1):
            for n, value, ok in osa1.column(k):
                if ok and rho_std.is_valid(k, n):
                    note("osada(1)=rho-standard", rel_diff(value, rho_std.entry(k, n)))

        alpha = rng.uniform(0.3, 2.0)
        bdg = bdg_transform(sample, alpha=alpha)
        osa = osada_rho(sample, alpha=alpha)
        for n, value, ok in bdg.column(1):
            if ok and osa.is_valid(2, n):
                note("bdg1=osada2", rel_diff(value, osa.entry(2, n)))

        lev_t = levin_variant(sample, "t")
        wen_tau = weniger_variant(sample, "t")
        for n, value, ok in lev_t.column(1):
            if ok and wen_tau.is_valid(1, n):
                note("tau1=t1", rel_diff(value, wen_tau.entry(1, n)))

    failures = [f"{k} spread {v:.2e}" for k, v in worst.items() if v > tol]
    assert len(worst) == 8
    verdict(2, "identity suite", failures)


def test_criterion_03_pade_oracle_equivalence():
    rng = random.Random(12)
    failures = []
    worst_value, worst_residual = 0.0, 0.0
    for _ in range(20):
        count = rng.randint(6, 9)
        coeffs = tuple(rng.uniform(-1, 1) for _ in range(count))
        z = rng.uniform(-0.5, 0.5)
        series = PowerSeries(coeffs, z)
        scale = max(abs(c) for c in coeffs)
        table = pade_via_epsilon(series)
        for k in table.approximant_orders():
            if k // 2 > 4:
                continue
            for n, value, ok in table.column(k):
                if not ok:
                    continue
                l, m = pade_label(k, n)
                try:
                    approximant = pade_direct(series, l, m)
                except DegeneratePadeError:
                    continue
                worst_value = max(worst_value, rel_diff(value, approximant(z)))
                residuals = order_condition_residuals(approximant, series)
                worst_residual = max(worst_residual, max(abs(r) for r in residuals) / scale)
    if worst_value > 1e-10:
        failures.append(f"epsilon vs direct spread {worst_value:.2e} > 1e-10")
    if worst_residual > 1e-12:
        failures.append(f"order-condition residual {worst_residual:.2e} > 1e-12")
    verdict(3, "pade oracle equivalence", failures)


def test_criterion_04_slow_zeta_summation():
    failures = []
    sample = generate_problem(ProblemSpec("zeta_dirichlet", 20, {"z": 1.1}))
    raw_err = abs(sample.values[-1] - sample.limit)

    levin_best = best_path_error(levin_variant(sample, "u"), sample.limit)
    if not levin_best < 1e-6 * raw_err:
        failures.append(f"levin_u best {levin_best:.2e} not < 1e-6 * {raw_err:.2e}")

    eps_best = best_path_error(wynn_epsilon(sample), sample.limit)
    improvement = raw_err / eps_best
    if not improvement < 1e2:
        failures.append(f"epsilon improved by {improvement:.1f}, expected < 100")
    verdict(4, "zeta(1.1) summation", failures)


def test_criterion_05_divergent_summation():
    failures = []
    sample = generate_problem(ProblemSpec("euler_factorial", 25, {"x": 1.0}))

    delta = weniger_variant(sample, "d")
    delta_err = abs(delta.entry(24, 0) - sample.limit)
    if not delta_err < 1e-7:
        failures.append(f"delta_24 error {delta_err:.2e} not < 1e-7")

    rho = rho_standard(sample)
    rho_closest = min(
        abs(value - sample.limit)
        for k in rho.approximant_orders()
        for _, value, ok in rho.column(k)
        if ok
    )
    if not rho_closest > 1e-2:
        failures.append(f"rho reached {rho_closest:.2e}, should stay above 1e-2")
    verdict(5, "divergent summation", failures)


def test_criterion_06_nonintegral_decay():
    failures = []

    # Richardson failure witness on s_n = (n+1)^(-1/2)
    vals = tuple((n + 1.0) ** -0.5 for n in range(4))
    lam3 = richardson_standard(SequenceSample(vals), beta=1.0).entry(3, 0)
    if not abs(lam3) >= abs(vals[3]) / 10:
        failures.append(f"richardson unexpectedly accurate: {lam3:.2e}")

    # error orders of the alpha-aware transforms over n in [20, 80],
    # measured at 50 digits: in doubles the k=2 entries fall below the
    # rounding floor of the input inside this window, so the slope would
    # reflect noise rather than the recursion.  The input is a pure power
    # in x = n + 1 and an order-k entry consumes s_n .. s_{n+2k}, so its
    # error is measured against the stencil midpoint x = n + 1 + k.  The
    # asymptotic order does not depend on that shift, but on this window
    # the entry's first index n would bias the k=2 slope by about
    # (alpha + 2k)(k + 1)/n, i.e. by +0.3.
    alpha = 0.5
    with mpmath.workdps(50):
        values = tuple(mpmath.mpf(n + 1) ** mpmath.mpf("-0.5") for n in range(89))
        sample = SequenceSample(values)
        osada = osada_rho(sample, alpha=mpmath.mpf("0.5"))
        bdg = bdg_transform(sample, alpha=mpmath.mpf("0.5"))
        for k in (1, 2):
            want = -(alpha + 2 * k)
            slope_o = error_slope(osada, 2 * k, 0.0, 20, 80, shift=1 + k)
            if abs(slope_o - want) > 0.2:
                failures.append(f"osada k={k} slope {slope_o:.3f} not {want}+-0.2")
            slope_b = error_slope(bdg, k, 0.0, 20, 80, shift=1 + k)
            if abs(slope_b - want) > 0.2:
                failures.append(f"bdg k={k} slope {slope_b:.3f} not {want}+-0.2")
    verdict(6, "nonintegral decay", failures)


def test_criterion_07_decay_estimation():
    failures = []
    for alpha in (0.5, 1.0, 1.7):
        vals = tuple((n + 1.0) ** -alpha for n in range(61))
        estimates = estimate_decay(SequenceSample(vals))
        summary = median_last_quartile(estimates)
        if abs(summary - alpha) > 1e-2:
            failures.append(f"median tail {summary:.4f} misses alpha={alpha}")
        bound = max(
            abs(estimates[n] - alpha) * n * n
            for n in range(20, len(estimates))
            if estimates[n] is not None
        )
        if bound > 1.0:
            failures.append(f"|T_n-alpha| n^2 reached {bound:.2f} for alpha={alpha}")
    verdict(7, "decay estimation", failures)


def test_criterion_08_stieltjes_diagonal():
    failures = []
    sample = generate_problem(ProblemSpec("euler_factorial", 8, {"x": 0.5}))
    coeffs = tuple(math.factorial(k) * (-1.0) ** k for k in range(9))
    table = pade_via_epsilon(PowerSeries(coeffs, 0.5))
    errors = {}
    for k in table.approximant_orders():
        for n, value, ok in table.column(k):
            if ok:
                errors[pade_label(k, n)] = abs(value - sample.limit)
    diagonal = errors[(4, 4)]
    offenders = [lm for lm, err in errors.items() if err < diagonal]
    if offenders:
        failures.append(f"approximants beating [4/4]: {offenders}")
    verdict(8, "stieltjes diagonal optimality", failures)


def test_criterion_09_euler_maclaurin_stability():
    failures = []
    for z in (1.1, 1.5, 2.0, 3.0):
        drift = abs(euler_maclaurin_zeta(z, 20, 8) - euler_maclaurin_zeta(z, 40, 10))
        if not drift < 1e-12:
            failures.append(f"zeta({z}) drifts by {drift:.2e}")
    if not abs(euler_maclaurin_zeta(2.0, 20, 8) - PI2_6) < 1e-12:
        failures.append("zeta(2) misses pi^2/6")
    verdict(9, "euler-maclaurin stability", failures)


GOLDEN_RUNS = (
    (
        "run_zeta11",
        ["run", "--problem", "zeta_dirichlet:z=1.1:N=20",
         "--transforms", "levin_u,epsilon"],
    ),
    (
        "run_euler",
        ["run", "--problem", "euler_factorial:x=1:N=25",
         "--transforms", "weniger_delta,rho"],
    ),
    (
        "run_geometric",
        ["run", "--problem", "geometric:s=5:c=-5:lam=0.8:N=15",
         "--transforms", "aitken,theta,levin_t", "--path", "staircase"],
    ),
)


def test_criterion_10_cli_determinism(tmp_path):
    import pathlib

    golden_dir = pathlib.Path(__file__).parent / "golden"
    failures = []
    for stem, argv in GOLDEN_RUNS:
        for fmt, suffix in (("tsv", ".tsv"), ("json", ".json")):
            out = tmp_path / (stem + suffix)
            code = cli_main(argv + ["--format", fmt, "--output", str(out)])
            if code != 0:
                failures.append(f"{stem}{suffix} exited {code}")
                continue
            golden = golden_dir / (stem + suffix)
            if out.read_bytes() != golden.read_bytes():
                failures.append(f"{stem}{suffix} differs from golden file")
    verdict(10, "cli determinism", failures)
