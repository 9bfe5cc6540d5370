"""Command-line harness: apply transforms to sequences and report convergence.

Subcommands, with the TSV columns and ``#`` trailer lines of their reports:
    run             transform, k, n, value, abs_error, valid; # summary, # error
    compare         budget, <name>:abs_error per transform (<name>:value
                    when no limit is known), at matching data budgets
    estimate-alpha  n, T_n, valid; # alpha_estimate (median-tail summary)
    pade            l, m, value, abs_error, valid (direct or staircase)
    gen             write a corpus problem to a JSON file

Sequences come from a generated problem (``--problem family:key=val:N=20``)
or from a file (``--input``, CSV with one scalar per line, or JSON with
``{"terms"|"values": [...], "limit": ...}``).  Invalid TSV entries carry the
marker NA, never a number.  ``--format json`` mirrors a report with strings
for scalars, ``null`` for a missing number and true/false for the valid
flag; ``gen`` writes plain JSON numbers.  Output is deterministic: identical
inputs give byte-identical reports.  Exit codes: 0 success, 2 ingest/config
or other package error, 3 total transform failure; exits 2 and 3 print one
``seqaccel: ...`` line on stderr.  Non-finite input is an ingest error.

A flat ``key=value`` config file (``--config``) supplies defaults that
command-line flags override.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Mapping, Optional, Sequence

from . import __version__
from .classic import brezinski_theta, iterated_aitken, iterated_theta, wynn_epsilon
from .core import (
    GuardPolicy,
    PathSpec,
    Record,
    Scalar,
    SequenceSample,
    TransformTable,
    is_finite,
    magnitude,
    make_partial_sums,
    walk_path,
)
from .errors import (
    CompareError,
    ConfigError,
    DegeneratePadeError,
    IngestError,
    InsufficientDataError,
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
from .pade import PowerSeries, pade_direct, pade_epsilon, staircase_sequence
from .reference import ProblemSpec, generate_problem, problem_series

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
    if isinstance(raw, bool):  # a JSON true/false would pass for 1 or 0
        raise ValueError(f"not a number: {raw!r}")
    value = parse_scalar(raw) if isinstance(raw, str) else raw + 0.0
    if not is_finite(magnitude(value)):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# ---------------------------------------------------------------------------
# transform registry

_REGISTRY: Mapping[str, tuple] = {
    # name: (builder(sample, guard=..., **params), allowed params, required params)
    "aitken": (iterated_aitken, (), ()),
    "epsilon": (wynn_epsilon, (), ()),
    "theta": (brezinski_theta, (), ()),
    "theta_iterated": (iterated_theta, (), ()),
    "richardson": (richardson_standard, ("beta",), ()),
    "rho": (rho_standard, (), ()),
    "rho_iterated": (iterated_rho_standard, (), ()),
    "rho_osada": (osada_rho, ("alpha",), ("alpha",)),
    "bdg": (bdg_transform, ("alpha",), ("alpha",)),
    **{
        f"levin_{rule}": (partial(levin_variant, kind=rule), ("zeta",), ())
        for rule in WENIGER_NAMES
    },
    **{
        f"weniger_{name}": (partial(weniger_variant, kind=rule), ("zeta",), ())
        for rule, name in WENIGER_NAMES.items()
    },
    "pade_epsilon": (pade_epsilon, (), ()),
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
    return builder(sample, guard=guard, **params)


# ---------------------------------------------------------------------------
# reports

class TransformReport(Record):
    name: str
    entries: list  # (k, n, value|None, abs_error|None, valid)
    summary: Optional[dict] = None
    error: Optional[str] = None


def _cell(value, digits: int, tsv: bool):
    """One report cell, or a JSON tree of them, under the single policy."""
    if isinstance(value, bool):  # before int: a flag is an int subclass
        return int(value) if tsv else value
    if value is None:
        return "NA" if tsv else None
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, tuple):  # a (key, value) trailer field
        return f"{value[0]}={_cell(value[1], digits, tsv)}"
    if isinstance(value, dict):
        return {key: _cell(item, digits, tsv) for key, item in value.items()}
    if isinstance(value, list):
        return [_cell(item, digits, tsv) for item in value]
    return fmt_scalar(value, digits)


def render(fmt: str, digits: int, header, rows, trailers, meta) -> str:
    """A report as TSV (header, rows, then ``#`` trailer lines) or as the
    JSON tree ``meta``; every cell follows ``_cell``."""
    if fmt == "json":
        import json  # only JSON reports and inputs pay for it

        return json.dumps(_cell(meta, digits, False), indent=2, sort_keys=True) + "\n"
    lines = ("\t".join(str(_cell(v, digits, True)) for v in line)
             for line in (header, *rows, *trailers))
    return "".join(line + "\n" for line in lines)


class ConvergenceReport(Record):
    problem: str
    limit: Optional[Scalar]
    path: str
    transforms: list

    def render(self, fmt: str, digits: int) -> str:
        header = ["transform", "k", "n", "value", "abs_error", "valid"]
        rows = [[tr.name, *entry] for tr in self.transforms for entry in tr.entries]
        trailers = []
        for tr in self.transforms:
            if tr.error is not None:
                trailers.append(["# error", tr.name, tr.error])
            elif tr.summary is not None:
                s = tr.summary
                trailers.append(["# summary", tr.name, ("best_k", s["k"]), ("best_n", s["n"]),
                                 ("value", s["value"]), ("abs_error", s["abs_error"])])
        meta = {
            "problem": self.problem, "limit": self.limit, "path": self.path,
            "transforms": [
                {"name": tr.name, "error": tr.error, "summary": tr.summary,
                 "entries": [dict(zip(header[1:], entry)) for entry in tr.entries]}
                for tr in self.transforms
            ],
        }
        return render(fmt, digits, header, rows, trailers, meta)

    def any_valid(self) -> bool:
        return any(
            ok for tr in self.transforms for (_, _, _, _, ok) in tr.entries
        )


class RunConfig(Record):
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
        try:
            table = apply_transform(name, config.sample, config.guard, params)
            positions = walk_path(table, path)
        except ConfigError:
            raise
        except SequenceTransformError as exc:
            out.append(TransformReport(name, [], error=str(exc)))
            continue
        entries = [
            (k, n, value, magnitude(value - limit) if ok and limit is not None else None, ok)
            for k, n, value, ok in positions
        ]
        valid = [entry for entry in entries if entry[4]]
        summary = None
        if valid:
            # the smallest error (the first of equals), else the latest entry
            best = min(valid, key=lambda e: e[3]) if limit is not None else valid[-1]
            summary = dict(zip(("k", "n", "value", "abs_error"), best))
        out.append(TransformReport(name, entries, summary))
    return ConvergenceReport(
        problem=config.problem_label,
        limit=limit,
        path=path.describe(),
        transforms=out,
    )


class CompareTable(Record):
    problem: str
    names: list
    has_limit: bool
    rows: list  # (budget, {name: (value, abs_error)})

    def render(self, fmt: str, digits: int) -> str:
        metric = "abs_error" if self.has_limit else "value"
        pick = 1 if self.has_limit else 0  # cells hold (value, abs_error)
        header = ["budget", *(f"{name}:{metric}" for name in self.names)]
        rows = [
            [budget, *(cells[name][pick] if name in cells else None for name in self.names)]
            for budget, cells in self.rows
        ]
        meta = {
            "problem": self.problem, "metric": metric, "transforms": self.names,
            "rows": [
                {"budget": budget, "cells": {name: cell[pick] for name, cell in cells.items()}}
                for budget, cells in self.rows
            ],
        }
        return render(fmt, digits, header, rows, (), meta)


def compare(config: RunConfig) -> CompareTable:
    """Merge the configured transforms into an error table keyed by data budget.

    The budget of an entry is the number of input elements it consumed,
    so transforms are compared at equal information.
    """
    limit = config.sample.limit
    path = config.path or PathSpec.index_constant()
    names, rows = [], {}
    for name, params in config.transforms:
        if name in names:
            raise CompareError(f"transform {name} listed twice")
        names.append(name)
        table = apply_transform(name, config.sample, config.guard, params)
        for k, n, value, ok in walk_path(table, path):
            if not ok:
                continue
            budget = table.consumed(k, n)
            err = magnitude(value - limit) if limit is not None else None
            cells = rows.setdefault(budget, {})
            # keep the more accurate entry if a budget repeats
            if name not in cells or (err is not None and err < cells[name][1]):
                cells[name] = (value, err)
    ordered = [(budget, rows[budget]) for budget in sorted(rows)]
    return CompareTable(
        problem=config.problem_label,
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
) -> SequenceSample:
    """Read a sequence from a CSV/JSON file path, ``-`` (stdin), or stream."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            if source == "-":  # its bytes, decoded as strictly as a file's
                stdin = getattr(sys.stdin, "buffer", None)
                text = sys.stdin.read() if stdin is None else stdin.read().decode("utf-8")
            else:
                with open(source, "r", encoding="utf-8") as handle:
                    text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
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
        values, terms = (tuple(scalars), None) if values_mode else (None, tuple(scalars))
    elif fmt == "json":
        import json

        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise IngestError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
        except RecursionError as exc:
            raise IngestError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise IngestError("JSON input must be an object")
        raw_values = payload.get("values")
        raw_terms = payload.get("terms")
        if raw_values is None and raw_terms is None:
            raise IngestError("JSON input needs a 'values' or 'terms' list")

        def number_list(raw, key):
            if not isinstance(raw, list):
                raise IngestError(f"{key!r} must be a JSON array")
            try:
                return tuple(parse_finite(v) for v in raw)
            except (TypeError, ValueError, OverflowError) as exc:
                raise IngestError(f"bad entry in {key!r}: {exc}") from exc

        if limit is None and payload.get("limit") is not None:
            (limit,) = number_list([payload["limit"]], "limit")
        values = None if raw_values is None else number_list(raw_values, "values")
        terms = None if raw_terms is None else number_list(raw_terms, "terms")
    else:
        raise ConfigError(f"unknown input format {fmt!r}")
    if values is not None:
        return SequenceSample(values, terms, limit)
    try:
        return make_partial_sums(terms, limit)
    except InvalidParameterError as exc:
        raise IngestError(str(exc)) from exc


def _key_values(pieces: Sequence[str], what: str, parse) -> dict:
    """``key=value`` spec pieces as a dict of ``parse(key, raw)`` by key; a piece
    without ``=`` and a key given twice are refused."""
    out = {}
    for piece in pieces:
        key, sep, raw = piece.partition("=")
        if not sep:
            raise ConfigError(f"{what} parameter {piece!r} is not key=value")
        if key in out:
            raise ConfigError(f"{what} parameter {key} is given twice")
        out[key] = parse(key, raw)
    return out


def _problem_param(key: str, raw: str):
    if key == "name":  # power_series:name=exp
        return raw
    try:
        if key == "N":
            return int(raw)
        if "," in raw:
            return tuple(parse_scalar(item) for item in raw.split(",") if item)
        return parse_scalar(raw)
    except ValueError:
        raise ConfigError(f"N must be an integer, got {raw!r}" if key == "N" else
                          f"problem parameter {key}={raw!r} is not numeric") from None


def _transform_param(key: str, raw: str) -> Scalar:
    try:
        return parse_scalar(raw)
    except ValueError:
        raise ConfigError(f"transform parameter {key + '=' + raw!r} is not numeric") from None


def parse_problem(text: str) -> ProblemSpec:
    parts = [p for p in text.split(":") if p]
    if not parts:
        raise ConfigError("empty problem specification")
    params = _key_values(parts[1:], "problem", _problem_param)
    if "N" not in params:
        raise ConfigError("problem needs N=<last index> (N+1 elements are generated)")
    try:
        return ProblemSpec(parts[0], params.pop("N"), params)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def parse_transforms(text: str) -> tuple:
    out = []
    for item in text.split(","):
        item = item.strip()
        if item:
            name, *pieces = item.split(":")
            out.append((name, _key_values(pieces, "transform", _transform_param)))
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

_INPUT_FORMATS = ("csv", "json")
_REPORT_FORMATS = ("tsv", "json")
_SWITCH = {"1": True, "true": True, "yes": True, "on": True,
           "0": False, "false": False, "no": False, "off": False}


def _one_of(allowed: tuple):
    return lambda raw: allowed[allowed.index(raw)]  # ValueError when raw is not allowed


#: config key -> parser of its raw value (ValueError or KeyError when bad)
_CONFIG_KEYS = {
    "problem": str, "input": str, "limit": str, "transforms": str, "path": str, "output": str,
    "input_format": _one_of(_INPUT_FORMATS), "format": _one_of(_REPORT_FORMATS),
    "values": lambda raw: _SWITCH[raw.lower()],
    "digits": int, "start_offset": int, "guard_threshold": float,
}


def _load_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        try:
            out[key] = _CONFIG_KEYS[key](raw)
        except (KeyError, ValueError):
            raise ConfigError(f"config line {lineno}: bad {key} value {raw!r}") from None
    return out


def _source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", help="generated problem, e.g. zeta_dirichlet:z=1.1:N=20")
    parser.add_argument("--input", help="sequence file, or - for stdin")
    parser.add_argument("--input-format", choices=_INPUT_FORMATS, default="csv")
    parser.add_argument("--values", action="store_true",
                        help="CSV rows are partial sums, not series terms")
    parser.add_argument("--limit", help="known limit for error reporting")
    parser.add_argument("--start-offset", type=int, default=0,
                        help="exclude this many leading elements")


def _common_arguments(parser: argparse.ArgumentParser, report: bool = True) -> None:
    parser.add_argument("--config", help="key=value defaults file")
    parser.add_argument("--output", help="write the report here instead of stdout")
    if report:
        parser.add_argument("--format", choices=_REPORT_FORMATS, default="tsv")
        parser.add_argument("--digits", type=int, default=16)
        parser.add_argument("--guard-threshold", type=float,
                            default=GuardPolicy.relative_threshold)


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

    for name, func, text in (
        ("run", cmd_run, "apply transforms along a table path"),
        ("compare", cmd_compare, "error table at matching data budgets"),
    ):
        command = sub.add_parser(name, help=text)
        _common_arguments(command)
        _source_arguments(command)
        command.add_argument("--transforms",
                             help="comma list, e.g. levin_u,rho_osada:alpha=0.5")
        command.add_argument("--path", help="index_constant[:n0] | order_constant:k | staircase")
        command.set_defaults(func=func)

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
    _common_arguments(p_gen, report=False)
    p_gen.add_argument("--problem", required=True)
    p_gen.set_defaults(func=cmd_gen)

    for command in sub.choices.values():
        command.set_defaults(**(config or {}))
    return parser


def _option_scalar(flag: str, text: str) -> Scalar:
    try:
        return parse_finite(text)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _resolve_sample(args: argparse.Namespace) -> tuple:
    """The (sample, label) pair named by --problem or --input."""
    limit = _option_scalar("--limit", args.limit) if args.limit else None
    if args.problem and args.input:
        raise ConfigError("give either --problem or --input, not both")
    if args.problem:
        spec = parse_problem(args.problem)
        sample, label = generate_problem(spec), spec.describe()
        if limit is not None:
            sample = SequenceSample(sample.values, sample.terms, limit)
    elif args.input:
        sample = ingest(args.input, fmt=args.input_format, values_mode=args.values, limit=limit)
        label = "stdin" if args.input == "-" else args.input
    else:
        raise ConfigError("a problem (--problem) or an input file (--input) is required")
    return sample.with_offset(args.start_offset), label


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _run_config(args: argparse.Namespace) -> RunConfig:
    if not args.transforms:
        raise ConfigError("--transforms is required")
    sample, label = _resolve_sample(args)
    return RunConfig(
        sample=sample,
        transforms=parse_transforms(args.transforms),
        path=parse_path(args.path),
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
    report = run(_run_config(args))
    _emit(args, report.render(args.format, args.digits))
    failures = "; ".join(
        f"{tr.name}: {tr.error or 'no valid entry'}" for tr in report.transforms
    )
    return _outcome(report.any_valid(), f"every requested transform failed ({failures})")


def cmd_compare(args: argparse.Namespace) -> int:
    table = compare(_run_config(args))
    _emit(args, table.render(args.format, args.digits))
    return _outcome(bool(table.rows), "no transform produced a valid entry")


def cmd_estimate_alpha(args: argparse.Namespace) -> int:
    sample, label = _resolve_sample(args)
    estimates = estimate_decay(sample, GuardPolicy(args.guard_threshold))
    rows = [[n, t, t is not None] for n, t in enumerate(estimates)]
    try:
        summary = median_last_quartile(estimates)
    except InsufficientDataError:  # no valid estimate in the last quartile
        summary = None
    meta = {
        "problem": label, "alpha_estimate": summary,
        "estimates": [dict(zip(("n", "value", "valid"), row)) for row in rows],
    }
    trailers = [] if summary is None else [["# alpha_estimate", summary]]
    _emit(args, render(args.format, args.digits, ["n", "T_n", "valid"], rows, trailers, meta))
    return _outcome(summary is not None, "no valid decay-exponent estimate")


def _resolve_series(args: argparse.Namespace) -> tuple:
    if args.problem and args.coeffs:
        raise ConfigError("give either --problem or --coeffs, not both")
    if args.problem:
        spec = parse_problem(args.problem)
        return (*problem_series(spec), spec.describe())
    if args.coeffs:
        if args.z is None:
            raise ConfigError("--coeffs needs --z")
        coeff_sample = ingest(args.coeffs, fmt="csv", values_mode=True)
        return PowerSeries(coeff_sample.values, _option_scalar("--z", args.z)), None, args.coeffs
    raise ConfigError("pade needs --problem or --coeffs")


def cmd_pade(args: argparse.Namespace) -> int:
    """Report [l/m](z), checked here, or the staircase: epsilon entries, checked when built."""
    series, limit, label = _resolve_series(args)
    if args.staircase:
        approximants = staircase_sequence(series, GuardPolicy(args.guard_threshold))
    else:
        if args.l is None or args.m is None:
            raise ConfigError("pade needs --staircase or both --l and --m")
        try:
            value = pade_direct(series, args.l, args.m)(series.z)
        except DegeneratePadeError as exc:
            return _outcome(False, str(exc))
        except ZeroDivisionError:  # z is a pole of [l/m], where it is infinite
            value = float("inf")
        approximants = [(args.l, args.m, value if is_finite(magnitude(value)) else None)]
    header = ["l", "m", "value", "abs_error", "valid"]
    rows = [
        [l, m, value, None if value is None or limit is None else magnitude(value - limit),
         value is not None]
        for l, m, value in approximants
    ]
    meta = {"problem": label, "z": series.z, "limit": limit,
            "approximants": [dict(zip(header, row)) for row in rows]}
    _emit(args, render(args.format, args.digits, header, rows, (), meta))
    return _outcome(any(row[4] for row in rows), "no valid approximant")


def cmd_gen(args: argparse.Namespace) -> int:
    import json

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
        "values": plain(sample.values),
        "limit": plain(sample.limit),
    }
    if sample.terms is not None:
        payload["terms"] = plain(sample.terms)
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
