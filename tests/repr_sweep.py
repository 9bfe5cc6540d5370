"""Fingerprint every transform's tables over a fixed grid of inputs.

Run against any tree's package, e.g. ``PYTHONPATH=src python tests/repr_sweep.py``;
two trees whose output lines agree build the same tables, estimate lists
and exceptions to the last bit (a float's repr is exact, an mpf's repr
round-trips at its precision).  Pytest does not collect this file.

Each line reads ``<name> <outcomes> <md5>``: one line per registered
transform, then ``omega_sequence:<rule>`` and
``weighted_ratio_transform:<family>``.  The md5 covers the repr of every
table, estimate list or exception in grid order.  The grid: the problems
of ``perfbench/cases.py`` at several N (0 to 3 among them), offsets 0 and
1, each sample also without its terms, mpf copies of the real samples,
the default guard and a zero guard, and two values of zeta.
"""

from __future__ import annotations

import hashlib
import os
import sys

import mpmath

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.cases import PROBLEMS  # noqa: E402
from seqaccel import (  # noqa: E402
    LEVIN_POWER,
    WENIGER_POCHHAMMER,
    GuardPolicy,
    ProblemSpec,
    SequenceSample,
    generate_problem,
    omega_sequence,
    weighted_ratio_transform,
)
from seqaccel.cli import apply_transform, transform_names  # noqa: E402

SIZES = (0, 1, 2, 3, 6, 12, 24)
OFFSETS = (0, 1)
GUARDS = (GuardPolicy(), GuardPolicy(0.0))
ZETAS = (1.0, 2.5)
RULES = ("u", "t", "v", "d", "w")  # "w" is no rule
MPF_DPS = 30


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


def outcome(build):
    try:
        return repr(build())
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
    values = sample.effective_values()
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
    for label, (count, digest) in lines.items():
        print(label, count, digest.hexdigest())


if __name__ == "__main__":
    main()
