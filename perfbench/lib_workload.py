"""In-process workloads: one op is one table build, its path walk and the
choice of best entry, made through seqaccel's public functions."""

from __future__ import annotations

import math
import time
from contextlib import nullcontext

import mpmath

import oracle
from common import TRANSFORM_OWNER, correct_digits


def _builder(slot):
    """``(owning module, build(inputs, guard))`` for a slot's op.  Table
    slots are built through the CLI's transform registry."""
    import seqaccel as sa
    from seqaccel.cli import apply_transform

    op = slot["op"]
    if op == "weighted":
        return "levin", lambda inp, g: sa.weighted_ratio_transform(
            inp.sample, inp.omegas, slot["weights"], 1.0, g)
    if op == "estimate_decay":
        return "interpolatory", lambda inp, g: sa.estimate_decay(inp.sample, g)
    if op == "pade_direct":
        return "pade", lambda inp, g: sa.pade_direct(inp.series, slot["l"], slot["m"])
    if op == "staircase":
        return "pade", lambda inp, g: sa.staircase_sequence(inp.series, g)
    name, params = slot["transform"], slot.get("transform_params", {})
    return TRANSFORM_OWNER[name], lambda inp, g: apply_transform(name, inp.sample, g, params)


def registered_owners():
    """``(transform, owning module)`` for every transform the CLI registers;
    fails when ``TRANSFORM_OWNER`` has fallen out of step with the registry."""
    from seqaccel.cli import transform_names

    names = transform_names()
    if set(names) != set(TRANSFORM_OWNER):
        raise RuntimeError(
            "TRANSFORM_OWNER does not match seqaccel.cli.transform_names(): "
            f"missing {sorted(set(names) - set(TRANSFORM_OWNER))}, "
            f"extra {sorted(set(TRANSFORM_OWNER) - set(names))}")
    return [(name, TRANSFORM_OWNER[name]) for name in names]


def _path_spec(path):
    from seqaccel import PathSpec

    kind, arg = path
    if kind == "order_constant":
        return PathSpec.order_constant(arg)
    if kind == "staircase":
        return PathSpec.staircase()
    return PathSpec.index_constant()


def _finite(value):
    if isinstance(value, complex):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    if isinstance(value, (mpmath.mpf, mpmath.mpc)):
        return bool(mpmath.isfinite(value))
    return math.isfinite(value)


#: A real entry is a valid value of a complex sequence (a zero imaginary part
#: is not a coercion); an mpf sequence must stay mpf.
_SCALAR_TYPES = {"float": (float,), "complex": (complex, float), "mpf": (mpmath.mpf,)}


class Op:
    """One slot made runnable: its inputs, builder, path and oracle."""

    def __init__(self, slot, inputs):
        from seqaccel import GuardPolicy

        self.slot = slot
        self.inputs = inputs
        self.owner, self.build = _builder(slot)
        self.path = _path_spec(slot["path"]) if "path" in slot else None
        self.guard = GuardPolicy()
        if slot["op"] == "estimate_decay":
            self.reference = mpmath.mpf(slot["params"]["alpha"])
            self.limit_ok = True
        else:
            self.reference = oracle.limit(slot["family"], slot["params"])
            self.limit_ok = oracle.limit_agrees(inputs.limit, self.reference)


def execute(op, tracer=None):
    """Run one op; returns ``(seconds, outcome)``.

    ``outcome`` is ``(best value or None, valid values seen, walked entries,
    invalid entries)``, or the exception the op raised.
    """
    from seqaccel import median_last_quartile, walk_path

    span = tracer.span if tracer is not None else (lambda module: nullcontext())
    inp, kind, limit = op.inputs, op.slot["op"], op.inputs.limit
    start = time.perf_counter()
    try:
        with span(op.owner):
            built = op.build(inp, op.guard)
            if kind == "estimate_decay":
                valid = [t for t in built if t is not None]
                best = median_last_quartile(built)
                entries, invalid = len(built), len(built) - len(valid)
            elif kind == "pade_direct":
                best = built(inp.series.z)
                valid, entries, invalid = [best], 1, 0
            elif kind == "staircase":
                valid = [v for _, _, v in built if v is not None]
                entries, invalid = len(built), len(built) - len(valid)
        if kind in ("table", "weighted"):
            with span("core"):
                positions = walk_path(built, op.path)
            valid = [v for _, _, v, ok in positions if ok]
            entries, invalid = len(positions), len(positions) - len(valid)
        if kind != "estimate_decay" and kind != "pade_direct":
            best = min(valid, key=lambda v: abs(v - limit)) if valid else None
    except Exception as exc:  # check() tells documented errors from failures
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, (best, valid, entries, invalid)


def documented(op, outcome):
    """True when ``outcome`` is an error that the op's kind documents as a
    result: a singular Pade system is a block in the Pade table.  Any other
    exception is a failed op."""
    from seqaccel import DegeneratePadeError

    return op.slot["op"] == "pade_direct" and isinstance(outcome, DegeneratePadeError)


def check(op, outcome):
    """``(failure reason or None, correct digits or None)`` for an outcome."""
    if not op.limit_ok:
        return "limit disagrees with the closed form", None
    if documented(op, outcome):
        return None, None
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}", None
    best, valid, _, _ = outcome
    types = _SCALAR_TYPES[op.slot["scalar"]]
    for value in valid:
        if not _finite(value):
            return "non-finite value reported as valid", None
        if not isinstance(value, types):
            return f"{op.slot['scalar']} input gave a {type(value).__name__} entry", None
    if best is None:
        return "no valid entry", None
    return None, correct_digits(best, op.reference)
