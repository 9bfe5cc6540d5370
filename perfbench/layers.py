"""Per-layer probes of the traced run.  Each times the benchmark's own calls
into one module's public functions, independently of the workload."""

from __future__ import annotations

import math
import os
import sys
import time
import tracemalloc

import cases
from common import TRANSFORM_OWNER, child_env, median, python_floor_ms, run_child
from lib_workload import registered_owners

LADDER = (25, 50, 100)
FAMILIES = {
    "zeta_dirichlet": {"z": 2.0},
    "power_series": {"name": "log1p", "z": 0.9},
    "euler_factorial": {"x": 0.5},
    "decay_model": {"s": 1.0, "alpha": 0.7, "c1": 0.5},
    "geometric": {"s": 1.0, "c": -1.0, "lam": -0.8},
    "exponential_sum": {"s": 2.0, "c": (1.0, 0.5), "lam": (0.9, -0.7)},
}


def timed(fn, budget_s=0.05, max_reps=25):
    """``(median milliseconds, "ms")`` of ``fn()`` over repeats until
    ``budget_s`` seconds are spent."""
    times, spent = [], 0.0
    while len(times) < max_reps and (spent < budget_s or len(times) < 1):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return median(times) * 1e3, "ms"


def import_layer(root, scratch):
    code = ("import time; t = time.perf_counter(); import seqaccel.cli; "
            "print(time.perf_counter() - t)")
    env = child_env(root)
    times = []
    for _ in range(5):
        _, status, out, _, _ = run_child([sys.executable, "-c", code], root, env, scratch)
        if status != 0:
            raise RuntimeError("importing seqaccel.cli failed")
        times.append(float(out))
    return {
        "import.seqaccel_ms": (median(times) * 1e3, "ms"),
        "import.floor_ms": (python_floor_ms(root, scratch), "ms"),
    }


def cli_layer(root, scratch):
    """Argument parsing, report rendering and a whole in-process ``main`` on
    the golden calls."""
    from seqaccel import cli, generate_problem

    parse, render, main, size = [], [], [], 0
    out = os.path.join(scratch, "report")
    for _, argv in cases.golden_runs(root):
        for fmt in ("tsv", "json"):
            args = list(argv) + ["--format", fmt]
            parse.append(timed(lambda: cli.build_parser().parse_args(args))[0])
            ns = cli.build_parser().parse_args(args)
            config = cli.RunConfig(
                sample=generate_problem(cli.parse_problem(ns.problem)),
                transforms=cli.parse_transforms(ns.transforms),
                path=cli.parse_path(ns.path),
            )
            report = cli.run(config)
            render.append(timed(lambda: report.render(fmt, ns.digits))[0])
            size += len(report.render(fmt, ns.digits).encode())
            main.append(timed(lambda: cli.main(args + ["--output", out]))[0])
    return {
        "cli.parse_ms": (median(parse), "ms"),
        "cli.render_ms": (median(render), "ms"),
        "cli.render_bytes": (size, "bytes"),
        "cli.main_inproc_ms": (median(main), "ms"),
    }


def reference_layer():
    from seqaccel import ProblemSpec, generate_problem
    from seqaccel.reference import euler_maclaurin_zeta, euler_series_value

    metrics = {}
    for family, params in FAMILIES.items():
        spec = ProblemSpec(family, 100, params)
        metrics[f"reference.generate_ms.{family}"] = timed(lambda: generate_problem(spec))
    metrics["reference.oracle_ms.zeta"] = timed(lambda: euler_maclaurin_zeta(2.0))
    metrics["reference.oracle_ms.euler"] = timed(lambda: euler_series_value(0.5))
    return metrics


def _zeta_sample(n):
    from seqaccel import ProblemSpec, generate_problem

    return generate_problem(ProblemSpec("zeta_dirichlet", n, {"z": 2.0}))


def _slope(ns, ts):
    xs, ys = [math.log(n) for n in ns], [math.log(t) for t in ts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _scaling_metric(name):
    """Levin and Weniger get separate exponents: O(N^3) and O(N^4) today."""
    owner = TRANSFORM_OWNER[name]
    suffix = "." + name.split("_")[0] if owner == "levin" else ""
    return f"{owner}.scaling_exp{suffix}"


def scaling_layer():
    """Every registered transform at N = 25, 50, 100 on zeta(2): build time,
    the fitted log-log exponent per family, and the tracemalloc peak at
    N = 100 per module."""
    from seqaccel import GuardPolicy
    from seqaccel.cli import apply_transform

    guard = GuardPolicy()
    samples = {n: _zeta_sample(n) for n in LADDER}
    metrics, slopes, peaks = {}, {}, {}
    for name, owner in registered_owners():
        params = {"alpha": 1.0} if name in ("rho_osada", "bdg") else {}

        def build(n):
            return apply_transform(name, samples[n], guard, params)

        times = []
        for n in LADDER:
            metrics[f"{owner}.build_ms.{name}.N{n}"] = timed(
                lambda: build(n), budget_s=0.1, max_reps=5)
            times.append(metrics[f"{owner}.build_ms.{name}.N{n}"][0])
        slopes.setdefault(_scaling_metric(name), []).append(_slope(LADDER, times))
        # Weniger tables share levin's storage; tracing their allocations
        # would cost about half a minute per transform.
        if not name.startswith("weniger_"):
            tracemalloc.start()
            build(100)
            peaks[owner] = max(peaks.get(owner, 0), tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    for metric, values in slopes.items():
        metrics[metric] = (median(values), "exponent")
    for owner, peak in peaks.items():
        metrics[f"{owner}.peak_kb"] = (peak / 1024.0, "KiB")
    return metrics


def kernel_layer():
    """The Pade, decay-estimate and dense-solve entry points on fixed inputs."""
    from seqaccel import PowerSeries, ProblemSpec, estimate_decay, generate_problem, pade_direct
    from seqaccel import staircase_sequence
    from seqaccel.linalg import solve_dense
    from seqaccel.reference import power_series_coefficients

    exp_series = PowerSeries(tuple(power_series_coefficients("exp", 21)), -2.0)
    log_series = PowerSeries(tuple(power_series_coefficients("log1p", 41)), 0.9)
    decay = generate_problem(ProblemSpec("decay_model", 200, FAMILIES["decay_model"]))
    size = 30
    matrix = [[(size if r == c else 1.0 / (1 + r + c)) for c in range(size)] for r in range(size)]
    rhs = [float(r) for r in range(size)]
    return {
        "pade.direct_ms": timed(lambda: pade_direct(exp_series, 10, 10)),
        "pade.staircase_ms": timed(lambda: staircase_sequence(log_series)),
        "interpolatory.estimate_decay_ms": timed(lambda: estimate_decay(decay)),
        "linalg.solve_ms": timed(lambda: solve_dense(matrix, rhs)),
    }


def probes(root, scratch):
    """Every probe's metrics as ``{name: (value, unit)}``."""
    metrics = {}
    metrics.update(import_layer(root, scratch))
    metrics.update(cli_layer(root, scratch))
    metrics.update(reference_layer())
    metrics.update(scaling_layer())
    metrics.update(kernel_layer())
    return metrics
