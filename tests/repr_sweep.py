"""Fingerprint every transform's tables over a fixed grid of inputs.

Run against any tree's package, e.g. ``PYTHONPATH=src python tests/repr_sweep.py``;
two trees whose output lines agree build the same tables, estimate lists
and exceptions to the last bit (a float's repr is exact, an mpf's repr
round-trips at its precision, a ``Fraction``'s is its exact value).
``python tests/repr_sweep.py --against ROOT`` runs the sweep on this
tree's ``src/`` and on ``ROOT/src/``, one subprocess each, prints the lines
that differ (``-`` ROOT's, ``+`` this tree's) and exits 1 if any do.  One
sweep takes about 50 s (2 vCPU, Python 3.11); ``--against`` runs its two
sweeps side by side.
Pytest does not collect this file.

Each line reads ``<name> <outcomes> <md5>``: one line per registered
transform, then ``omega_sequence:<rule>`` and
``weighted_ratio_transform:<family>``.  The md5 covers the repr of every
estimate list or exception, and of every table's content (``name``,
``columns``, ``valid``, ``n_start``, ``order_step`` and ``consumed(k,
n_start)`` for each k), in grid order.  The grid: the problems
of ``perfbench/cases.py`` at several N (0 to 3 among them), offsets 0 and
1, each sample also without its terms, mpf copies of the real samples,
the default guard and a zero guard, and two values of zeta.  The grid
stops at N = 24, so ``weniger_large`` fingerprints the four ``weniger_*``
rules and the Pochhammer ``weighted_ratio_transform`` at the sizes the
``lib_levin`` benchmark builds: the same problems at N = 30, 40, 50 and
100, offsets 0 and 1, both values of zeta and the default guard;
``levin_large`` does the same for the four ``levin_*`` rules and the
power-weight ``weighted_ratio_transform`` (800 tables, about 10-14 s of
the sweep); and
``classic_large`` fingerprints every other registered transform at the
sizes the ``lib_classic`` benchmark builds, where most lozenge and iterated
tables end in columns without a valid entry: each real problem in float at
N = 100, 200 and 400 and in mpf at N = 40, each complex problem at N = 80,
both guards.

``fraction`` fingerprints every registered transform on exact input: the
partial sums of ln 2 (with their terms) and ``2 + 0.9^n + 0.5 (-0.7)^n``
in ``Fraction`` at N = 12, both guards, each parameter also as a
``Fraction``, so a constant that leaks a float into an exact table shows.

``entry_points`` fingerprints the entry points that return no table, on
every grid sample and both ``fraction`` samples: ``estimate_decay`` under
both guards, and, for the power series whose coefficients are the sample's
values at z = 0.5 and -1.5 in their scalar type, ``staircase_sequence``
under both guards and ``pade_direct`` for every [l/m] with l + m <= 6.

``walk`` fingerprints how tables are read: ``walk_path`` and
``extract_path`` of every registered transform's table (its first
parameter set, the default guard) on each grid sample of at most 13
elements, along ``index_constant`` (auto, 1 and the last index),
``order_constant`` (0, 2 and the last order) and ``staircase``; a path
beyond the table enters as the exception it raises.  Each path walks a
fresh table, so a walk of ``order_constant`` reads a table that has built
no column beyond its order.

Four more lines fingerprint how samples are built: ``sample_view``, the
``(values, terms, limit)`` of every grid sample as the builders see it;
``power_series_sample``, the partial sums of ``PowerSeries.sample`` for the
power series of ``perfbench/`` and of the golden Pade runs, with float and
mpf coefficients; and ``ingest:csv`` and ``ingest:json``, the samples
``cli.ingest`` reads from the terms of the grid's problems.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial


def against(root):
    """Run the sweep on this tree's package and on ``root``'s, print the lines
    that differ and return 1 if any do."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs = [subprocess.Popen([sys.executable, os.path.abspath(__file__)], stdout=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")}, text=True)
            for tree in (root, here)]
    theirs, ours = (dict(line.split(" ", 1) for line in run.communicate()[0].splitlines())
                    for run in runs)
    if any(run.returncode for run in runs):
        raise SystemExit("repr_sweep: a sweep failed")
    differ = [label for label in {**theirs, **ours} if theirs.get(label) != ours.get(label)]
    for label in differ:
        print(f"- {label} {theirs.get(label, '(none)')}")
        print(f"+ {label} {ours.get(label, '(none)')}")
    return int(bool(differ))


# the comparison imports no package of its own: each sweep finds its tree's
if __name__ == "__main__" and sys.argv[1:]:
    if sys.argv[1] != "--against" or len(sys.argv) != 3:
        sys.exit("usage: repr_sweep.py [--against ROOT]")
    sys.exit(against(sys.argv[2]))

import mpmath  # noqa: E402

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.cases import PROBLEMS  # noqa: E402
from seqaccel import (  # noqa: E402
    LEVIN_POWER,
    WENIGER_POCHHAMMER,
    GuardPolicy,
    PathSpec,
    PowerSeries,
    ProblemSpec,
    SequenceSample,
    TransformTable,
    estimate_decay,
    extract_path,
    generate_problem,
    make_partial_sums,
    omega_sequence,
    pade_direct,
    staircase_sequence,
    walk_path,
    weighted_ratio_transform,
)
from seqaccel.cli import apply_transform, ingest, transform_names  # noqa: E402
from seqaccel.reference import power_series_coefficients  # noqa: E402

SIZES = (0, 1, 2, 3, 6, 12, 24)
WENIGER_SIZES = (30, 40, 50, 100)
CLASSIC_SIZES = (100, 200, 400)
OFFSETS = (0, 1)
GUARDS = (GuardPolicy(), GuardPolicy(0.0))
ZETAS = (1.0, 2.5)
RULES = ("u", "t", "v", "d", "w")  # "w" is no rule
MPF_DPS = 30
FRACTION_N = 12
WALK_LENGTH = 13  # the grid samples of at most this many elements are walked
SERIES_POINTS = (0.5, -1.5)  # z of the entry_points line's power series
PADE_DEGREE = 6  # its [l/m] for l + m up to this


def samples():
    """Every sample of the grid, in a fixed order."""
    mpmath.mp.dps = MPF_DPS
    for family, params in PROBLEMS.values():
        for n in SIZES:
            base = generate_problem(ProblemSpec(family, n, params))
            variants = [base, SequenceSample(base.values, limit=base.limit)]
            if not any(isinstance(v, complex) for v in base.values):
                terms = None if base.terms is None else tuple(map(mpmath.mpf, base.terms))
                variants.append(SequenceSample(tuple(map(mpmath.mpf, base.values)), terms))
            for sample in variants:
                for offset in OFFSETS:
                    if offset < len(sample.values):
                        yield sample.with_offset(offset)


def classic_samples():
    """The samples of ``classic_large``, or the exception raised in place of one."""
    mpmath.mp.dps = MPF_DPS
    for family, params in PROBLEMS.values():
        if any(isinstance(v, complex) for v in generate_problem(ProblemSpec(family, 1, params)).values):
            sizes = ((80, None),)
        else:
            sizes = tuple((n, None) for n in CLASSIC_SIZES) + ((40, mpmath.mpf),)
        for n, convert in sizes:
            try:
                sample = generate_problem(ProblemSpec(family, n, params))
            except Exception as exc:  # an element beyond the double range
                yield exc
                continue
            if convert is not None:
                terms = None if sample.terms is None else tuple(map(convert, sample.terms))
                sample = SequenceSample(tuple(map(convert, sample.values)), terms, sample.limit)
            yield sample


def fraction_samples():
    """The exact samples of the ``fraction`` line."""
    terms = [Fraction((-1) ** k, k + 1) for k in range(FRACTION_N + 1)]
    yield make_partial_sums(terms)
    yield SequenceSample(tuple(2 + Fraction(9, 10) ** n + Fraction(1, 2) * Fraction(-7, 10) ** n
                               for n in range(FRACTION_N + 1)))


def view(sample):
    """``(values, terms, limit)`` as the builders see them; on a tree whose
    samples keep the offset beside the values, through its offset views."""
    if hasattr(sample, "effective_values"):
        return sample.effective_values(), sample.effective_terms(), sample.limit
    return sample.values, sample.terms, sample.limit


def power_series():
    """Every series of the ``power_series_sample`` line, in a fixed order: the
    perfbench power series at the grid's sizes and at the sizes perfbench
    and the CLI workload use, Euler's series, and the golden Pade series."""
    sizes = SIZES + (8, 20, 30, 40, 60)
    for family, params in PROBLEMS.values():
        for n in sizes:
            if family == "power_series":
                yield power_series_coefficients(params["name"], n + 1), params["z"]
            elif family == "euler_factorial":
                yield [math.factorial(k) * (-1.0) ** k for k in range(n + 1)], params["x"]
    yield power_series_coefficients("exp", 9), 1.0
    yield [1.0] * 6, 0.5


def ingest_texts():
    """``(format, text)`` of a terms file for every grid problem that has
    terms: CSV for all, JSON (numbers and the limit) for the real ones."""
    for family, params in PROBLEMS.values():
        for n in SIZES:
            terms = generate_problem(ProblemSpec(family, n, params)).terms
            if terms is None:
                continue
            yield "csv", "".join(f"{t!r}\n" for t in terms)
            if not any(isinstance(t, complex) for t in terms):
                yield "json", json.dumps({"terms": list(terms), "limit": 1.5})


def content(result):
    """A table's content, or any other outcome as it is: the content is what a
    table holds, not how it stores it, so budgets are compared as
    ``consumed(k, n_start)``, whatever field they are formed from."""
    if not isinstance(result, TransformTable):
        return result
    budgets = [result.consumed(k, result.n_start) for k in range(len(result.columns))]
    return (result.name, result.columns, result.valid, result.n_start, result.order_step,
            budgets)


def walk_paths(table):
    """The paths of the ``walk`` line: each kind at its first, a middle and its last
    position, as the table gives them; a path beyond the table raises."""
    return (PathSpec.index_constant(), PathSpec.index_constant(1),
            PathSpec.index_constant(table.max_index), PathSpec.order_constant(0),
            PathSpec.order_constant(2), PathSpec.order_constant(table.max_order),
            PathSpec.staircase())


def outcome(build):
    try:
        return repr(content(build()))
    except Exception as exc:  # an exception is an outcome like a table
        return repr(exc)


def params_of(name):
    if name in ("rho_osada", "bdg"):
        return [{"alpha": 1.0}]
    if name.startswith(("levin_", "weniger_")):
        return [{"zeta": zeta} for zeta in ZETAS]
    return [{}]


def explicit_estimates(sample):
    """Levin's u estimate written out, ``(n+1) (s_n - s_{n-1})``, with ``s_{-1} = 0``."""
    values = view(sample)[0]
    return [(n + 1) * (v - (values[n - 1] if n else 0.0)) for n, v in enumerate(values)]


def main():
    grid = list(samples())
    lines = {}

    def record(label, build):
        entry = lines.setdefault(label, [0, hashlib.md5()])
        entry[0] += 1
        entry[1].update(outcome(build).encode() + b"\n")

    for name in transform_names():
        for params in params_of(name):
            for sample in grid:
                for guard in GUARDS:
                    record(name, lambda: apply_transform(name, sample, guard, params))
    for rule in RULES:
        for zeta in ZETAS:
            for sample in grid:
                record(f"omega_sequence:{rule}", lambda: omega_sequence(sample, rule, zeta))
    for family in (LEVIN_POWER, WENIGER_POCHHAMMER, "power"):  # "power" is no family
        for zeta in ZETAS:
            for sample in grid:
                omegas = explicit_estimates(sample)
                for guard in GUARDS:
                    record(f"weighted_ratio_transform:{family}", lambda: weighted_ratio_transform(
                        sample, omegas, family, zeta, guard))
                record(f"weighted_ratio_transform:{family}", lambda: weighted_ratio_transform(
                    sample, omegas[1:], family, zeta))
    large = [(prefix + "large", [name for name in transform_names() if name.startswith(prefix)], weights)
             for prefix, weights in (("weniger_", WENIGER_POCHHAMMER), ("levin_", LEVIN_POWER))]
    for family, params in PROBLEMS.values():
        for n in WENIGER_SIZES:
            base = generate_problem(ProblemSpec(family, n, params))
            for sample in (base.with_offset(offset) for offset in OFFSETS):
                omegas = explicit_estimates(sample)
                for zeta in ZETAS:
                    for label, names, weights in large:
                        for name in names:
                            record(label, lambda: apply_transform(
                                name, sample, GUARDS[0], {"zeta": zeta}))
                        record(label, lambda: weighted_ratio_transform(sample, omegas, weights, zeta))
    classic = [name for name in transform_names() if not name.startswith(("levin_", "weniger_"))]
    for sample in classic_samples():
        if isinstance(sample, Exception):
            record("classic_large", lambda: sample)
            continue
        for name in classic:
            for params in params_of(name):
                for guard in GUARDS:
                    record("classic_large", lambda: apply_transform(name, sample, guard, params))
    for sample in fraction_samples():
        for name in transform_names():
            for params in params_of(name):
                exact = {key: Fraction(value) for key, value in params.items()}
                for given in (params, exact) if params else (params,):
                    for guard in GUARDS:
                        record("fraction", lambda: apply_transform(name, sample, guard, given))
    for sample in grid + list(fraction_samples()):
        values = view(sample)[0]
        for guard in GUARDS:
            record("entry_points", lambda: estimate_decay(sample, guard))
        for z in map(type(values[0]), SERIES_POINTS):  # a series of the sample's scalar type
            series = partial(PowerSeries, values, z)
            for guard in GUARDS:
                record("entry_points", lambda: staircase_sequence(series(), guard))
            for d in range(min(len(values), PADE_DEGREE + 1)):
                for l in range(d + 1):
                    record("entry_points", lambda: pade_direct(series(), l, d - l))
    for sample in grid:
        if len(sample) > WALK_LENGTH:
            continue
        for name in transform_names():
            build = partial(apply_transform, name, sample, GUARDS[0], params_of(name)[0])
            try:
                paths = walk_paths(build())
            except Exception:  # the transform's own line holds the exception
                continue
            for path in paths:  # each walk reads a fresh table, which it builds as it needs
                table = build()
                record("walk", lambda: walk_path(table, path))
                record("walk", lambda: extract_path(table, path))
    for sample in grid:
        record("sample_view", lambda: view(sample))
    for coefficients, z in power_series():
        record("power_series_sample", lambda: PowerSeries(tuple(coefficients), z).sample().values)
        if not isinstance(z, complex):
            mpf = tuple(map(mpmath.mpf, coefficients)), mpmath.mpf(z)
            record("power_series_sample", lambda: PowerSeries(*mpf).sample().values)
    for fmt, text in ingest_texts():
        record(f"ingest:{fmt}", lambda: view(ingest(io.StringIO(text), fmt=fmt)))
    for label, (count, digest) in lines.items():
        print(label, count, digest.hexdigest())


if __name__ == "__main__":
    main()
