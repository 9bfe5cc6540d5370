"""Command-line harness: apply transforms to sequences and report convergence.

Subcommands:
    run             apply one or more transforms along a table path
    compare         cross-transform error table at matching data budgets
    estimate-alpha  decay-exponent estimates with a median-tail summary
    pade            direct or staircase Pade approximants of a series
    gen             write a corpus problem to a JSON file

Sequences come from a generated problem (``--problem family:key=val:N=20``)
or from a file (``--input``, CSV with one scalar per line, or JSON with
``{"terms"|"values": [...], "limit": ...}``).  Reports are TSV with the
fixed column order transform, k, n, value, abs_error, valid (or a JSON
mirror); invalid entries carry the marker NA, never a number.  Output is
deterministic: identical inputs give byte-identical reports.  Exit codes:
0 success, 2 ingest/config or other package error, 3 total transform
failure; exits 2 and 3 print one ``seqaccel: ...`` line on stderr.
Non-finite input is an ingest error.

A flat ``key=value`` config file (``--config``) supplies defaults that
command-line flags override.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from . import __version__
from .classic import brezinski_theta, iterated_aitken, iterated_theta, wynn_epsilon
from .core import (
    GuardPolicy,
    PathSpec,
    Scalar,
    SequenceSample,
    TransformTable,
    make_partial_sums,
    walk_path,
)
from .errors import (
    CompareError,
    ConfigError,
    DegeneratePadeError,
    IngestError,
    InvalidParameterError,
    SequenceTransformError,
)
from .interpolatory import (
    bdg_transform,
    estimate_decay,
    iterated_rho_standard,
    median_last_quartile,
    osada_rho,
    richardson_standard,
    rho_standard,
)
from .levin import WENIGER_NAMES, levin_variant, weniger_variant
from .pade import PowerSeries, pade_direct, staircase_sequence
from .reference import (
    ProblemSpec,
    euler_factorial_coefficients,
    generate_problem,
    power_series_coefficients,
)

MAX_DIGITS = 17  # double precision carries no more


def fmt_scalar(value: Optional[Scalar], digits: int) -> str:
    if value is None:
        return "NA"
    digits = max(1, min(int(digits), MAX_DIGITS))
    if isinstance(value, complex):
        return f"{value.real:.{digits}g}{value.imag:+.{digits}g}j"
    return f"{float(value):.{digits}g}"


def parse_scalar(text: str) -> Scalar:
    t = text.strip()
    try:
        return float(t)
    except ValueError:
        pass
    try:
        return complex(t.replace(" ", ""))
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None


def parse_finite(raw) -> Scalar:
    """A finite input number: a string is parsed, a JSON number is taken as is."""
    value = parse_scalar(raw) if isinstance(raw, str) else raw + 0.0
    if not cmath.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# ---------------------------------------------------------------------------
# transform registry

def _fixed(fn: Callable) -> Callable:
    return lambda sample, guard, params: fn(sample, guard=guard, **params)


_REGISTRY: Mapping[str, tuple] = {
    # name: (builder(sample, guard, params), allowed params, required params)
    "aitken": (_fixed(iterated_aitken), (), ()),
    "epsilon": (_fixed(wynn_epsilon), (), ()),
    "theta": (_fixed(brezinski_theta), (), ()),
    "theta_iterated": (_fixed(iterated_theta), (), ()),
    "richardson": (_fixed(richardson_standard), ("beta",), ()),
    "rho": (_fixed(rho_standard), (), ()),
    "rho_iterated": (_fixed(iterated_rho_standard), (), ()),
    "rho_osada": (_fixed(osada_rho), ("alpha",), ("alpha",)),
    "bdg": (_fixed(bdg_transform), ("alpha",), ("alpha",)),
    **{
        f"levin_{rule}": (_fixed(partial(levin_variant, kind=rule)), ("zeta",), ())
        for rule in WENIGER_NAMES
    },
    **{
        f"weniger_{name}": (_fixed(partial(weniger_variant, kind=rule)), ("zeta",), ())
        for rule, name in WENIGER_NAMES.items()
    },
    "pade_epsilon": (
        lambda sample, guard, params: replace(wynn_epsilon(sample, guard), name="pade_epsilon"),
        (), (),
    ),
}


def transform_names() -> list:
    return sorted(_REGISTRY)


def apply_transform(
    name: str, sample: SequenceSample, guard: GuardPolicy, params: Mapping
) -> TransformTable:
    try:
        builder, allowed, required = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown transform {name!r}; choose from {', '.join(transform_names())}"
        ) from None
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"{name} does not take parameters {sorted(unknown)}")
    missing = set(required) - set(params)
    if missing:
        raise ConfigError(f"{name} needs parameters {sorted(missing)}")
    return builder(sample, guard, dict(params))


# ---------------------------------------------------------------------------
# reports

@dataclass
class TransformReport:
    name: str
    entries: list = field(default_factory=list)  # (k, n, value|None, abs_error|None, valid)
    summary: Optional[dict] = None
    error: Optional[str] = None


@dataclass
class ConvergenceReport:
    problem: str
    limit: Optional[Scalar]
    path: str
    transforms: list

    def to_tsv(self, digits: int = 16) -> str:
        lines = ["transform\tk\tn\tvalue\tabs_error\tvalid"]
        for tr in self.transforms:
            for k, n, value, err, ok in tr.entries:
                lines.append(
                    f"{tr.name}\t{k}\t{n}\t{fmt_scalar(value, digits)}"
                    f"\t{fmt_scalar(err, digits)}\t{1 if ok else 0}"
                )
        for tr in self.transforms:
            if tr.error is not None:
                lines.append(f"# error\t{tr.name}\t{tr.error}")
            elif tr.summary is not None:
                s = tr.summary
                lines.append(
                    f"# summary\t{tr.name}\tbest_k={s['k']}\tbest_n={s['n']}"
                    f"\tvalue={fmt_scalar(s['value'], digits)}"
                    f"\tabs_error={fmt_scalar(s['abs_error'], digits)}"
                )
        return "\n".join(lines) + "\n"

    def to_json(self, digits: int = 16) -> str:
        payload = {
            "problem": self.problem,
            "limit": None if self.limit is None else fmt_scalar(self.limit, digits),
            "path": self.path,
            "transforms": [
                {
                    "name": tr.name,
                    "error": tr.error,
                    "entries": [
                        {
                            "k": k,
                            "n": n,
                            "value": None if value is None else fmt_scalar(value, digits),
                            "abs_error": None if err is None else fmt_scalar(err, digits),
                            "valid": ok,
                        }
                        for k, n, value, err, ok in tr.entries
                    ],
                    "summary": None if tr.summary is None else {
                        "k": tr.summary["k"],
                        "n": tr.summary["n"],
                        "value": fmt_scalar(tr.summary["value"], digits),
                        "abs_error": fmt_scalar(tr.summary["abs_error"], digits),
                    },
                }
                for tr in self.transforms
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str, digits: int) -> str:
        return self.to_json(digits) if fmt == "json" else self.to_tsv(digits)

    def any_valid(self) -> bool:
        return any(
            ok for tr in self.transforms for (_, _, _, _, ok) in tr.entries
        )


@dataclass(frozen=True)
class RunConfig:
    sample: SequenceSample
    transforms: tuple  # ((name, params dict), ...)
    path: Optional[PathSpec] = None
    guard: GuardPolicy = GuardPolicy()
    problem_label: str = "input"

    def __post_init__(self) -> None:
        if not self.transforms:
            raise ConfigError("at least one transform is required")


def run(config: RunConfig) -> ConvergenceReport:
    """Apply every configured transform and collect a deterministic report.

    Transform-level failures are recorded in the report and never abort
    the other transforms.  Each (problem, transform) pair is independent;
    the report order always follows the request order.
    """
    limit = config.sample.limit
    path = config.path or PathSpec.index_constant()
    out = []
    for name, params in config.transforms:
        report = TransformReport(name=name)
        try:
            table = apply_transform(name, config.sample, config.guard, params)
            positions = walk_path(table, path)
        except ConfigError:
            raise
        except SequenceTransformError as exc:
            report.error = str(exc)
            out.append(report)
            continue
        best = None
        for k, n, value, ok in positions:
            err = None
            if ok and limit is not None:
                err = abs(value - limit)
            report.entries.append((k, n, value if ok else None, err, ok))
            if ok:
                rank = err if limit is not None else None
                if best is None:
                    best = (rank, k, n, value)
                elif limit is not None and rank < best[0]:
                    best = (rank, k, n, value)
                elif limit is None:
                    best = (rank, k, n, value)  # latest valid entry wins
        if best is not None:
            report.summary = {
                "k": best[1], "n": best[2], "value": best[3],
                "abs_error": best[0],
            }
        out.append(report)
    return ConvergenceReport(
        problem=config.problem_label,
        limit=limit,
        path=path.describe(),
        transforms=out,
    )


@dataclass
class CompareTable:
    problem: str
    names: list
    has_limit: bool
    rows: list  # (budget, {name: (value, abs_error)})

    def to_tsv(self, digits: int = 16) -> str:
        metric = "abs_error" if self.has_limit else "value"
        lines = ["budget\t" + "\t".join(f"{n}:{metric}" for n in self.names)]
        for budget, cells in self.rows:
            parts = [str(budget)]
            for name in self.names:
                value, err = cells.get(name, (None, None))
                parts.append(fmt_scalar(err if self.has_limit else value, digits))
            lines.append("\t".join(parts))
        return "\n".join(lines) + "\n"


def compare(configs: Sequence[RunConfig]) -> CompareTable:
    """Merge runs on one problem into an error table keyed by data budget.

    The budget of an entry is the number of input elements it consumed,
    so transforms are compared at equal information.
    """
    if not configs:
        raise CompareError("nothing to compare")
    first = configs[0].sample
    for config in configs[1:]:
        same = (
            config.sample.values == first.values
            and config.sample.limit == first.limit
            and config.sample.start_offset == first.start_offset
        )
        if not same:
            raise CompareError("compare needs identical problems in every config")
    limit = first.limit
    names, rows = [], {}
    for config in configs:
        path = config.path or PathSpec.index_constant()
        for name, params in config.transforms:
            if name in names:
                raise CompareError(f"transform {name} listed twice")
            names.append(name)
            table = apply_transform(name, config.sample, config.guard, params)
            for k, n, value, ok in walk_path(table, path):
                if not ok:
                    continue
                budget = table.consumed(k, n)
                err = abs(value - limit) if limit is not None else None
                cells = rows.setdefault(budget, {})
                # keep the more accurate entry if a budget repeats
                if name not in cells or (err is not None and err < cells[name][1]):
                    cells[name] = (value, err)
    ordered = [(budget, rows[budget]) for budget in sorted(rows)]
    return CompareTable(
        problem=configs[0].problem_label,
        names=names,
        has_limit=limit is not None,
        rows=ordered,
    )


# ---------------------------------------------------------------------------
# ingest and problem parsing

def ingest(
    source,
    fmt: str = "csv",
    values_mode: bool = False,
    limit: Optional[Scalar] = None,
    start_offset: int = 0,
) -> SequenceSample:
    """Read a sequence from a CSV/JSON file path, ``-`` (stdin), or stream."""
    if hasattr(source, "read"):
        text = source.read()
    elif source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise IngestError(f"cannot read {source}: {exc}") from exc
    if fmt == "csv":
        scalars = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            item = line.strip()
            if not item or item.startswith("#"):
                continue
            try:
                scalars.append(parse_finite(item))
            except ValueError as exc:
                raise IngestError(str(exc), line=lineno) from exc
        if not scalars:
            raise IngestError("no data rows found")
        if values_mode:
            sample = SequenceSample(tuple(scalars))
        else:
            sample = make_partial_sums(scalars)
    elif fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise IngestError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
        if not isinstance(payload, dict):
            raise IngestError("JSON input must be an object")
        raw_values = payload.get("values")
        raw_terms = payload.get("terms")
        if raw_values is None and raw_terms is None:
            raise IngestError("JSON input needs a 'values' or 'terms' list")

        def number_list(raw, key):
            try:
                return tuple(parse_finite(v) for v in raw)
            except (TypeError, ValueError, OverflowError) as exc:
                raise IngestError(f"bad entry in {key!r}: {exc}") from exc

        if limit is None and payload.get("limit") is not None:
            (limit,) = number_list([payload["limit"]], "limit")
        if raw_values is not None and raw_terms is not None:
            sample = SequenceSample(
                number_list(raw_values, "values"), terms=number_list(raw_terms, "terms")
            )
        elif raw_terms is not None:
            sample = make_partial_sums(number_list(raw_terms, "terms"))
        else:
            sample = SequenceSample(number_list(raw_values, "values"))
    else:
        raise ConfigError(f"unknown input format {fmt!r}")
    return SequenceSample(sample.values, sample.terms, limit, start_offset)


def _parse_param_value(key: str, raw: str):
    if key == "name":  # power_series:name=exp
        return raw
    try:
        if "," in raw:
            return tuple(parse_scalar(item) for item in raw.split(",") if item)
        return parse_scalar(raw)
    except ValueError:
        raise ConfigError(f"problem parameter {key}={raw!r} is not numeric") from None


def parse_problem(text: str) -> ProblemSpec:
    parts = [p for p in text.split(":") if p]
    if not parts:
        raise ConfigError("empty problem specification")
    family, length, params = parts[0], None, {}
    for part in parts[1:]:
        key, sep, raw = part.partition("=")
        if not sep:
            raise ConfigError(f"problem parameter {part!r} is not key=value")
        if key == "N":
            try:
                length = int(raw)
            except ValueError:
                raise ConfigError(f"N must be an integer, got {raw!r}") from None
        else:
            params[key] = _parse_param_value(key, raw)
    if length is None:
        raise ConfigError("problem needs N=<last index> (N+1 elements are generated)")
    try:
        return ProblemSpec(family, length, params)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def parse_transforms(text: str) -> tuple:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        pieces = item.split(":")
        name, params = pieces[0], {}
        for piece in pieces[1:]:
            key, sep, raw = piece.partition("=")
            if not sep:
                raise ConfigError(f"transform parameter {piece!r} is not key=value")
            try:
                params[key] = parse_scalar(raw)
            except ValueError:
                raise ConfigError(f"transform parameter {piece!r} is not numeric") from None
        out.append((name, params))
    if not out:
        raise ConfigError("at least one transform is required")
    return tuple(out)


def parse_path(text: Optional[str]) -> Optional[PathSpec]:
    if text is None:
        return None
    kind, sep, raw = text.partition(":")
    try:
        if kind == "staircase":
            return PathSpec.staircase()
        if kind == "order_constant":
            if not sep:
                raise ConfigError("order_constant path needs :k")
            return PathSpec.order_constant(int(raw))
        if kind == "index_constant":
            return PathSpec.index_constant(int(raw) if sep else None)
    except ValueError:
        raise ConfigError(f"bad path parameter in {text!r}") from None
    raise ConfigError(f"unknown path {text!r}")


# ---------------------------------------------------------------------------
# argument plumbing

_CONFIG_KEYS = {
    "problem", "input", "input_format", "values", "limit", "start_offset",
    "transforms", "path", "format", "digits", "output", "guard_threshold",
}


def _load_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        item = line.strip()
        if not item or item.startswith("#"):
            continue
        key, sep, raw = item.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown setting {item!r}")
        raw = raw.strip()
        if key == "values":
            out[key] = raw.lower() in ("1", "true", "yes", "on")
            continue
        convert = {"digits": int, "start_offset": int, "guard_threshold": float}.get(key, str)
        try:
            out[key] = convert(raw)
        except ValueError:
            raise ConfigError(f"config line {lineno}: bad {key} value {raw!r}") from None
    return out


def _source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", help="generated problem, e.g. zeta_dirichlet:z=1.1:N=20")
    parser.add_argument("--input", help="sequence file, or - for stdin")
    parser.add_argument("--input-format", choices=("csv", "json"), default="csv")
    parser.add_argument("--values", action="store_true",
                        help="CSV rows are partial sums, not series terms")
    parser.add_argument("--limit", help="known limit for error reporting")
    parser.add_argument("--start-offset", type=int, default=0,
                        help="exclude this many leading elements")


def _common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value defaults file")
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument("--digits", type=int, default=16)
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--guard-threshold", type=float, default=1e-14)


def build_parser(config: Optional[Mapping] = None) -> argparse.ArgumentParser:
    """The argument parser; ``config`` (settings from a ``--config`` file)
    replaces the built-in defaults, so flags given on the command line
    still override it."""
    parser = argparse.ArgumentParser(
        prog="seqaccel",
        description="Convergence acceleration and divergent-series summation harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="apply transforms along a table path")
    _common_arguments(p_run)
    _source_arguments(p_run)
    p_run.add_argument("--transforms",
                       help="comma list, e.g. levin_u,rho_osada:alpha=0.5")
    p_run.add_argument("--path", help="index_constant[:n0] | order_constant:k | staircase")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="error table at matching data budgets")
    _common_arguments(p_cmp)
    _source_arguments(p_cmp)
    p_cmp.add_argument("--transforms")
    p_cmp.add_argument("--path")
    p_cmp.set_defaults(func=cmd_compare)

    p_est = sub.add_parser("estimate-alpha", help="decay-exponent estimates")
    _common_arguments(p_est)
    _source_arguments(p_est)
    p_est.set_defaults(func=cmd_estimate_alpha)

    p_pade = sub.add_parser("pade", help="Pade approximants of a power series")
    _common_arguments(p_pade)
    p_pade.add_argument("--problem", help="power_series:... or euler_factorial:...")
    p_pade.add_argument("--coeffs", help="coefficient file, one per line")
    p_pade.add_argument("--z", help="evaluation point (with --coeffs)")
    p_pade.add_argument("--l", type=int, help="numerator degree (direct solve)")
    p_pade.add_argument("--m", type=int, help="denominator degree (direct solve)")
    p_pade.add_argument("--staircase", action="store_true",
                        help="emit the staircase [0/0],[1/0],[1/1],...")
    p_pade.set_defaults(func=cmd_pade)

    p_gen = sub.add_parser("gen", help="write a corpus problem to JSON")
    _common_arguments(p_gen)
    p_gen.add_argument("--problem", required=True)
    p_gen.set_defaults(func=cmd_gen)

    for command in (p_run, p_cmp, p_est, p_pade, p_gen):
        command.set_defaults(**(config or {}))
    return parser


def _option_scalar(flag: str, text: str) -> Scalar:
    try:
        return parse_finite(text)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _resolve_sample(args: argparse.Namespace) -> tuple:
    """The (sample, label) pair named by --problem or --input."""
    limit = _option_scalar("--limit", args.limit) if getattr(args, "limit", None) else None
    offset = getattr(args, "start_offset", 0)
    if args.problem and args.input:
        raise ConfigError("give either --problem or --input, not both")
    if args.problem:
        spec = parse_problem(args.problem)
        sample = generate_problem(spec)
        if limit is not None:
            sample = SequenceSample(sample.values, sample.terms, limit)
        return sample.with_offset(offset), spec.describe()
    if args.input:
        sample = ingest(
            args.input, fmt=args.input_format, values_mode=args.values,
            limit=limit, start_offset=offset,
        )
        label = "stdin" if args.input == "-" else args.input
        return sample, label
    raise ConfigError("a problem (--problem) or an input file (--input) is required")


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _run_config(args: argparse.Namespace) -> RunConfig:
    if not getattr(args, "transforms", None):
        raise ConfigError("--transforms is required")
    sample, label = _resolve_sample(args)
    return RunConfig(
        sample=sample,
        transforms=parse_transforms(args.transforms),
        path=parse_path(getattr(args, "path", None)),
        guard=GuardPolicy(args.guard_threshold),
        problem_label=label,
    )


def _outcome(ok: bool, reason: str) -> int:
    """Exit code 0, or 3 with the one-line reason on stderr."""
    if ok:
        return 0
    print(f"seqaccel: {reason}", file=sys.stderr)
    return 3


def cmd_run(args: argparse.Namespace) -> int:
    config = _run_config(args)
    report = run(config)
    _emit(args, report.render(args.format, args.digits))
    failures = "; ".join(
        f"{tr.name}: {tr.error or 'no valid entry'}" for tr in report.transforms
    )
    return _outcome(report.any_valid(), f"every requested transform failed ({failures})")


def cmd_compare(args: argparse.Namespace) -> int:
    config = _run_config(args)
    table = compare([config])
    if args.format == "json":
        payload = {
            "problem": table.problem,
            "metric": "abs_error" if table.has_limit else "value",
            "transforms": table.names,
            "rows": [
                {
                    "budget": budget,
                    "cells": {
                        name: fmt_scalar(
                            (cells[name][1] if table.has_limit else cells[name][0]),
                            args.digits,
                        )
                        for name in cells
                    },
                }
                for budget, cells in table.rows
            ],
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit(args, table.to_tsv(args.digits))
    return _outcome(bool(table.rows), "no transform produced a valid entry")


def cmd_estimate_alpha(args: argparse.Namespace) -> int:
    sample, label = _resolve_sample(args)
    estimates = estimate_decay(sample, GuardPolicy(args.guard_threshold))
    valid = [t for t in estimates if t is not None]
    summary = median_last_quartile(estimates) if valid else None
    if args.format == "json":
        payload = {
            "problem": label,
            "estimates": [
                {"n": n, "value": None if t is None else fmt_scalar(t, args.digits),
                 "valid": t is not None}
                for n, t in enumerate(estimates)
            ],
            "alpha_estimate": None if summary is None else fmt_scalar(summary, args.digits),
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = ["n\tT_n\tvalid"]
        for n, t in enumerate(estimates):
            lines.append(f"{n}\t{fmt_scalar(t, args.digits)}\t{1 if t is not None else 0}")
        if summary is not None:
            lines.append(f"# alpha_estimate\t{fmt_scalar(summary, args.digits)}")
        _emit(args, "\n".join(lines) + "\n")
    return _outcome(bool(valid), "no valid decay-exponent estimate")


def _resolve_series(args: argparse.Namespace) -> tuple:
    if args.problem and args.coeffs:
        raise ConfigError("give either --problem or --coeffs, not both")
    if args.problem:
        spec = parse_problem(args.problem)
        if spec.family == "power_series":
            sample = generate_problem(spec)
            coeffs = power_series_coefficients(spec.params["name"], spec.length + 1)
            return PowerSeries(tuple(coeffs), spec.params["z"]), sample.limit, spec.describe()
        if spec.family == "euler_factorial":
            sample = generate_problem(spec)
            coeffs = euler_factorial_coefficients(spec.length + 1)
            return PowerSeries(tuple(coeffs), spec.params["x"]), sample.limit, spec.describe()
        raise ConfigError(
            "pade needs a power_series or euler_factorial problem, or --coeffs"
        )
    if args.coeffs:
        if args.z is None:
            raise ConfigError("--coeffs needs --z")
        coeff_sample = ingest(args.coeffs, fmt="csv", values_mode=True)
        return (
            PowerSeries(coeff_sample.values, _option_scalar("--z", args.z)),
            None,
            args.coeffs,
        )
    raise ConfigError("pade needs --problem or --coeffs")


def cmd_pade(args: argparse.Namespace) -> int:
    series, limit, label = _resolve_series(args)
    rows = []
    if args.staircase:
        for l, m, value in staircase_sequence(series, GuardPolicy(args.guard_threshold)):
            rows.append((l, m, value))
    else:
        if args.l is None or args.m is None:
            raise ConfigError("pade needs --staircase or both --l and --m")
        try:
            approximant = pade_direct(series, args.l, args.m)
        except DegeneratePadeError as exc:
            return _outcome(False, str(exc))
        rows.append((args.l, args.m, approximant(series.z)))
    if args.format == "json":
        payload = {
            "problem": label,
            "z": fmt_scalar(series.z, args.digits),
            "limit": None if limit is None else fmt_scalar(limit, args.digits),
            "approximants": [
                {
                    "l": l, "m": m,
                    "value": None if value is None else fmt_scalar(value, args.digits),
                    "abs_error": fmt_scalar(abs(value - limit), args.digits)
                    if (value is not None and limit is not None) else None,
                    "valid": value is not None,
                }
                for l, m, value in rows
            ],
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = ["l\tm\tvalue\tabs_error\tvalid"]
        for l, m, value in rows:
            err = abs(value - limit) if (value is not None and limit is not None) else None
            lines.append(
                f"{l}\t{m}\t{fmt_scalar(value, args.digits)}"
                f"\t{fmt_scalar(err, args.digits)}\t{1 if value is not None else 0}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return _outcome(any(value is not None for _, _, value in rows), "no valid approximant")


def cmd_gen(args: argparse.Namespace) -> int:
    spec = parse_problem(args.problem)
    sample = generate_problem(spec)

    def plain(value):
        if isinstance(value, complex):
            return fmt_scalar(value, MAX_DIGITS)
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        return value

    payload = {
        "problem": spec.describe(),
        "family": spec.family,
        "N": spec.length,
        "params": {key: plain(val) for key, val in sorted(spec.params.items())},
        "values": [plain(v) for v in sample.values],
        "limit": None if sample.limit is None else plain(sample.limit),
    }
    if sample.terms is not None:
        payload["terms"] = [plain(t) for t in sample.terms]
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_load_config_file(args.config)).parse_args(argv)
        return args.func(args)
    except SequenceTransformError as exc:
        print(f"seqaccel: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
