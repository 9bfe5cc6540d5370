"""Workload inputs, drawn from the seed.

Each workload is a *cycle*: a fixed list of op slots that a run repeats
whole, so every run executes the same mix of transforms, sizes, paths and
scalar types.  The seed orders the slots and, for ``cli_cold``, draws the
generated problems' parameters from narrow ranges.  ``prepare_lib`` and
``prepare_cli`` turn the slots into the program's inputs with
``seqaccel.reference.generate_problem``; they are what ``setup_s`` times, so
they import nothing heavier than seqaccel (and mpmath for the
extended-precision share of ``lib_classic``).
"""

from __future__ import annotations

import ast
import json
import os
import random

LEVIN_TRANSFORMS = (
    "levin_u", "levin_t", "levin_v", "levin_d",
    "weniger_y", "weniger_tau", "weniger_phi", "weniger_delta",
)

#: Sizes N (last index) of ``lib_levin``: each transform meets every rung of
#: its ladder once per cycle.  Weniger tables cost O(N^4) today (2 s at
#: N = 100, 0.13 s at N = 50), so their ladder stops at 50 to keep a cycle
#: near two and a half seconds and every op repeated about eight times in
#: a run; the traced run builds them at N = 100.
LEVIN_LADDER = (10, 20, 35, 50, 75, 100)
WENIGER_LADDER = (6, 12, 20, 30, 40, 50)

CLASSIC_TRANSFORMS = (
    "aitken", "epsilon", "theta", "theta_iterated", "richardson",
    "rho", "rho_iterated", "rho_osada", "bdg", "pade_epsilon",
)
CLASSIC_LADDER = (25, 50, 100, 200, 400)
PATHS = (("index_constant", None), ("order_constant", 2), ("staircase", None))

#: mpf inputs carry this many digits.
MPF_DPS = 30


def _u(rng, centre, half_width):
    return centre + rng.uniform(-half_width, half_width)


# ---------------------------------------------------------------------------
# problems of the library workloads

#: Their parameters are fixed: several builds (iterated Aitken along a
#: staircase, for one) are dominated by rounding, so their accuracy would
#: follow the last bits of any parameter a seed drew.  The seed orders the
#: ops of a cycle instead.
PROBLEMS = {
    "zeta": ("zeta_dirichlet", {"z": 2.0}),
    "euler": ("euler_factorial", {"x": 0.5}),
    "log1p": ("power_series", {"name": "log1p", "z": 0.9}),
    "exp": ("power_series", {"name": "exp", "z": -2.0}),
    "decay": ("decay_model", {"s": 1.0, "alpha": 0.7, "c1": 0.5}),
    "geometric": ("geometric", {"s": 1.0, "c": -1.0, "lam": -0.8}),
    "expsum": ("exponential_sum", {"s": 2.0, "c": (1.0, 0.5), "lam": (0.9, -0.7)}),
    "complex_expsum": ("exponential_sum",
                       {"s": 1.0, "c": (1 + 1j, 0.5), "lam": (0.6 + 0.5j, -0.7)}),
    "complex_zeta": ("zeta_dirichlet", {"z": 2.0 + 0.5j}),
    "complex_log1p": ("power_series", {"name": "log1p", "z": 0.5 + 0.4j}),
}


# ---------------------------------------------------------------------------
# lib_levin


def lib_levin_slots(seed):
    """One cycle of ``lib_levin``: the eight Levin/Weniger transforms, each at
    every rung of its ladder on the four problems in turn, plus
    explicit-estimate builds through ``weighted_ratio_transform``."""
    problems = ("zeta", "euler", "log1p", "decay")
    slots = []
    for i, name in enumerate(LEVIN_TRANSFORMS):
        ladder = LEVIN_LADDER if name.startswith("levin") else WENIGER_LADDER
        for r, n in enumerate(ladder):
            problem = problems[(i + r) % len(problems)]
            family, params = PROBLEMS[problem]
            slots.append({
                "op": "table", "transform": name, "family": family, "params": params,
                "N": n, "path": PATHS[0], "scalar": "float",
                # log(1+z) has a_0 = 0, a zero u/t/v remainder estimate
                "offset": 1 if problem == "log1p" else 0,
            })
    for weights, n, problem in (
        ("levin_power", 30, "zeta"), ("levin_power", 60, "decay"),
        ("levin_power", 80, "zeta"), ("levin_power", 80, "euler"),
        ("levin_power", 90, "decay"),
        ("weniger_pochhammer", 30, "euler"), ("weniger_pochhammer", 40, "zeta"),
        ("weniger_pochhammer", 45, "euler"), ("weniger_pochhammer", 45, "decay"),
        ("weniger_pochhammer", 50, "zeta"),
    ):
        family, params = PROBLEMS[problem]
        slots.append({
            "op": "weighted", "weights": weights, "family": family, "params": params,
            "N": n, "offset": 0, "path": PATHS[0], "scalar": "float",
        })
    random.Random(seed).shuffle(slots)
    return slots


# ---------------------------------------------------------------------------
# lib_classic

#: Problems suited to each transform, one per ladder rung.  The linear
#: (lozenge and iterated) transforms get linearly convergent or alternating
#: problems, the interpolatory ones logarithmic problems with a known decay
#: exponent, the Pade evaluator power series.  One Aitken step fits a
#: geometric sequence exactly, leaving the later columns of an iterated
#: table without a valid entry, so the geometric rung of ``_LINEAR`` meets
#: the iterated transforms only on the staircase path.
_LINEAR = ("log1p", "expsum", "geometric", "log1p", "expsum")
_LOGARITHMIC = ("zeta", "decay", "zeta", "decay", "zeta")
_PADE = ("exp", "log1p", "exp", "log1p", "log1p")


def _classic_problems(name):
    """Float problems per ladder rung, and the mpf and complex problem."""
    if name in ("richardson", "rho", "rho_iterated", "rho_osada", "bdg"):
        return _LOGARITHMIC, ("zeta", "complex_zeta")
    if name == "pade_epsilon":
        return _PADE, ("log1p", "complex_log1p")
    return _LINEAR, ("expsum", "complex_expsum")


def _decay_alpha(family, params):
    """The decay exponent of the remainder, for Osada and BDG."""
    if family == "zeta_dirichlet":
        return params["z"].real - 1.0 if isinstance(params["z"], complex) else params["z"] - 1.0
    return params["alpha"]


def lib_classic_slots(seed):
    """One cycle of ``lib_classic``: ten lozenge, iterated and Neville
    transforms over a size ladder and all three path kinds, an mpf and a
    complex build of each, and the decay estimator and Pade functions."""
    slots = []

    def table(name, problem, n, path, scalar):
        family, params = PROBLEMS[problem]
        slot = {
            "op": "table", "transform": name, "family": family, "params": params,
            "N": n, "offset": 0, "path": path, "scalar": scalar,
        }
        if name in ("rho_osada", "bdg"):
            slot["transform_params"] = {"alpha": _decay_alpha(family, params)}
        slots.append(slot)

    for i, name in enumerate(CLASSIC_TRANSFORMS):
        floats, others = _classic_problems(name)
        for r, n in enumerate(CLASSIC_LADDER):
            table(name, floats[r], n, PATHS[(i + r) % 3], "float")
        table(name, others[0], 40, PATHS[i % 3], "mpf")
        table(name, others[1], 80, PATHS[(i + 1) % 3], "complex")

    def extra(op, problem, n, scalar, **more):
        family, params = PROBLEMS[problem]
        slots.append({
            "op": op, "family": family, "params": params, "N": n, "offset": 0,
            "scalar": scalar, **more,
        })

    extra("estimate_decay", "decay", 100, "float")
    extra("estimate_decay", "decay", 300, "float")
    extra("estimate_decay", "decay", 40, "mpf")
    extra("pade_direct", "exp", 20, "float", l=5, m=5)
    extra("pade_direct", "log1p", 40, "float", l=10, m=10)
    extra("pade_direct", "complex_log1p", 20, "complex", l=8, m=8)
    extra("staircase", "exp", 30, "float")
    extra("staircase", "log1p", 60, "float")
    extra("staircase", "complex_log1p", 40, "complex")
    random.Random(seed).shuffle(slots)
    return slots


# ---------------------------------------------------------------------------
# input preparation


class Inputs:
    """The program inputs of one slot: the sample, and the power series for
    ``pade_direct`` and ``staircase`` slots or the explicit remainder
    estimates for weighted slots."""

    __slots__ = ("sample", "series", "omegas", "limit")

    def __init__(self, sample, series=None, omegas=None):
        self.sample = sample
        self.series = series
        self.omegas = omegas
        self.limit = sample.limit


def _to_scalar(kind):
    if kind == "mpf":
        import mpmath

        mpmath.mp.dps = MPF_DPS
        return mpmath.mpf
    return None


def prepare_slot(slot):
    from seqaccel import PowerSeries, ProblemSpec, SequenceSample, generate_problem
    from seqaccel.reference import power_series_coefficients

    spec = ProblemSpec(slot["family"], slot["N"], slot["params"])
    sample = generate_problem(spec)
    convert = _to_scalar(slot["scalar"])
    if convert is not None:
        terms = None if sample.terms is None else tuple(convert(t) for t in sample.terms)
        sample = SequenceSample(tuple(convert(v) for v in sample.values), terms, sample.limit)
    if slot["offset"]:
        sample = sample.with_offset(slot["offset"])
    series = None
    if slot["op"] in ("pade_direct", "staircase"):
        coeffs = power_series_coefficients(slot["params"]["name"], slot["N"] + 1)
        z = slot["params"]["z"]
        if convert is not None:
            coeffs, z = [convert(c) for c in coeffs], convert(z)
        series = PowerSeries(tuple(coeffs), z)
    omegas = None
    if slot["op"] == "weighted":
        # Levin's u estimate written out explicitly: (n+1) (s_n - s_{n-1})
        values = sample.values
        omegas = [(n + 1) * (v - (values[n - 1] if n else 0.0)) for n, v in enumerate(values)]
    return Inputs(sample, series, omegas)


def prepare_lib(slots):
    return [prepare_slot(slot) for slot in slots]


# ---------------------------------------------------------------------------
# cli_cold


def golden_runs(root):
    """The ``GOLDEN_RUNS`` table of the acceptance tests, read without
    importing the test module."""
    path = os.path.join(root, "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_RUNS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("GOLDEN_RUNS not found in tests/test_acceptance.py")


def problem_of(argv):
    """``(family, params)`` of a ``--problem family:key=value:...`` argument."""
    family, *parts = argv[argv.index("--problem") + 1].split(":")
    params = {}
    for part in parts:
        key, _, raw = part.partition("=")
        if key != "N":
            try:
                params[key] = float(raw)
            except ValueError:
                params[key] = raw
    return family, params


def _fmt(x):
    return repr(float(x))


def cli_cold_calls(seed, root):
    """One cycle of ``cli_cold``: every call is a fresh CLI process.

    ``kind`` selects the check applied to the call's output; ``family`` and
    ``params`` name the problem whose closed-form limit the check uses.
    ``prepare_cli`` writes the files named by ``file`` and ``text``.
    """
    rng = random.Random(seed)
    calls = []
    for stem, argv in golden_runs(root):
        family, params = problem_of(argv)
        for fmt in ("tsv", "json"):
            calls.append({"kind": "golden", "argv": list(argv) + ["--format", fmt],
                          "golden": f"{stem}.{fmt}", "family": family, "params": params})

    z = _u(rng, 2.0, 0.005)
    compare = {"kind": "compare", "family": "zeta_dirichlet", "params": {"z": z},
               "argv": ["compare", "--problem", f"zeta_dirichlet:z={_fmt(z)}:N=30",
                        "--transforms", "levin_u,rho,epsilon"]}
    calls += [compare, dict(compare)]  # the repeat checks determinism within a cycle

    alpha = _u(rng, 0.7, 0.002)
    calls.append({"kind": "alpha", "alpha": alpha,
                  "argv": ["estimate-alpha", "--problem",
                           f"decay_model:alpha={_fmt(alpha)}:s=1:c1=0.5:N=60"]})
    zl = _u(rng, 0.8, 0.002)
    calls.append({"kind": "pade", "family": "power_series",
                  "params": {"name": "log1p", "z": zl},
                  "argv": ["pade", "--problem", f"power_series:name=log1p:z={_fmt(zl)}:N=20",
                           "--staircase"]})
    ze = _u(rng, -2.0, 0.005)
    calls.append({"kind": "pade", "family": "power_series", "params": {"name": "exp", "z": ze},
                  "argv": ["pade", "--problem", f"power_series:name=exp:z={_fmt(ze)}:N=12",
                           "--l", "6", "--m", "6"]})
    lam = _u(rng, 0.7, 0.002)
    calls.append({"kind": "gen", "family": "geometric",
                  "params": {"s": 3.0, "c": -2.0, "lam": lam}, "N": 20,
                  "argv": ["gen", "--problem", f"geometric:s=3:c=-2:lam={_fmt(lam)}:N=20"]})

    zc = _u(rng, 2.0, 0.005)
    calls.append({"kind": "run", "family": "zeta_dirichlet", "params": {"z": zc},
                  "file": ("terms.csv", "zeta_dirichlet", {"z": zc}, 30),
                  "argv": ["run", "--input", "terms.csv", "--transforms", "levin_u,rho",
                           "--limit", "@limit"]})
    lj = _u(rng, 0.85, 0.001)
    jparams = {"s": 2.0, "c": (1.0, 0.5), "lam": (lj, -0.7)}
    calls.append({"kind": "run", "family": "exponential_sum", "params": jparams,
                  "file": ("problem.json", "exponential_sum", jparams, 25),
                  "argv": ["run", "--input", "problem.json", "--input-format", "json",
                           "--transforms", "epsilon,theta", "--path", "staircase",
                           "--format", "json"]})

    for call in calls:
        call["malformed"] = False

    # Malformed or conflicting calls (the robustness list of the roadmap).
    small = ["run", "--problem", "zeta_dirichlet:z=2:N=10", "--transforms", "epsilon"]
    zeta11 = next(argv for stem, argv in golden_runs(root) if stem == "run_zeta11")
    malformed = [
        {"kind": "reject", "exits": (2,), "argv": small + ["--limit", "abc"]},
        {"kind": "reject", "exits": (2,), "argv": small + ["--config", "digits.cfg"],
         "text": ("digits.cfg", "digits=abc\n")},
        {"kind": "overflow", "argv": ["pade", "--problem", "power_series:name=exp:z=1:N=5000",
                                      "--l", "4", "--m", "4"],
         "family": "power_series", "params": {"name": "exp", "z": 1.0}},
        {"kind": "golden", "argv": list(zeta11) + ["--format", "tsv", "--config", "json.cfg"],
         "golden": "run_zeta11.tsv", "text": ("json.cfg", "format=json\n")},
        {"kind": "nonfinite", "argv": ["run", "--input", "nonfinite.csv", "--transforms",
                                       "epsilon", "--path", "order_constant:0"],
         "text": ("nonfinite.csv", "1\n0.5\ninf\n0.25\nnan\n0.125\n")},
        # README maps parameter errors to exit 2; exit 3 (transform failed)
        # is also accepted, as long as the one-line message reaches stderr.
        {"kind": "reject", "exits": (2, 3),
         "argv": ["run", "--problem", "zeta_dirichlet:z=2:N=10",
                  "--transforms", "levin_u:zeta=-1"]},
    ]
    for call in malformed:
        call["malformed"] = True
    calls += malformed
    rng.shuffle(calls)
    return calls


def prepare_cli(calls, workdir):
    """Write the input and config files the calls read into ``workdir`` and
    fill in ``@limit`` arguments."""
    from seqaccel import ProblemSpec, generate_problem

    for call in calls:
        if "text" in call:
            name, text = call["text"]
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        if "file" in call:
            name, family, params, n = call["file"]
            sample = generate_problem(ProblemSpec(family, n, params))
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as handle:
                if name.endswith(".csv"):
                    handle.write("".join(f"{t!r}\n" for t in sample.terms))
                else:
                    json.dump({"terms": list(sample.terms), "limit": sample.limit}, handle)
            # the CSV carries no limit; the call passes the program's own
            call["argv"] = [repr(sample.limit) if a == "@limit" else a for a in call["argv"]]
