"""The ``cli_cold`` workload: each op is one fresh ``python -m seqaccel.cli``
process, checked against the golden files and the closed-form oracle."""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath

import oracle
from common import correct_digits

#: Rounding of a number printed with 16 significant digits, relative to it.
_PRINT_RTOL = 1e-15


def command(call):
    return [sys.executable, "-m", "seqaccel.cli", *call["argv"]]


class Checker:
    """Checks each call's exit code, stderr and output; remembers the bytes
    of every argv so that a repeated call must reproduce them exactly."""

    def __init__(self, root, calls):
        self.golden_dir = os.path.join(root, "tests", "golden")
        self.seen = {}
        self.references = {}
        for call in calls:
            if "family" in call:
                self.references[id(call)] = oracle.limit(call["family"], call["params"])

    def __call__(self, call, code, out, err):
        """``(failure reason or None, correct digits or None)``."""
        text = err.decode("utf-8", "replace")
        if "Traceback" in text:
            return f"traceback ({text.strip().splitlines()[-1]})", None
        key = tuple(call["argv"])
        if key in self.seen and self.seen[key] != (code, out, err):
            return "repeated call gave different bytes", None
        self.seen.setdefault(key, (code, out, err))
        lines = text.splitlines()
        if code not in (0, 2, 3):
            return f"exit code {code}", None
        if code != 0 and len(lines) != 1:
            return f"exit {code} with {len(lines)} stderr lines", None
        if code == 0 and lines:
            return "stderr output on success", None
        try:
            return getattr(self, "_" + call["kind"])(call, code, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {exc}", None

    def _reference(self, call):
        return self.references[id(call)]

    def _golden(self, call, code, out):
        with open(os.path.join(self.golden_dir, call["golden"]), "rb") as handle:
            if code != 0 or out != handle.read():
                return f"output differs from golden {call['golden']}", None
        return self._run(call, code, out) if "family" in call else (None, None)

    def _reject(self, call, code, out):
        if code not in call["exits"]:
            return f"exit {code}, expected one of {call['exits']}", None
        return None, None

    def _check_errors(self, rows, reference):
        """Every valid (value, abs_error) pair must be finite and consistent
        with the closed-form limit."""
        scale = max(1.0, float(abs(reference)))
        best = None
        for value, err in rows:
            if not (math.isfinite(abs(value)) and math.isfinite(err)):
                return "non-finite value reported as valid", None
            implied = float(abs(mpmath.mpmathify(value) - reference))
            # the program's limit may differ from the closed form by
            # LIMIT_RTOL, and both printed numbers are rounded
            tolerance = oracle.LIMIT_RTOL * scale + _PRINT_RTOL * (abs(value) + err)
            if abs(implied - err) > tolerance:
                return f"abs_error {err!r} disagrees with the closed form ({implied!r})", None
            if best is None or err < best[1]:
                best = (value, err)
        if best is None:
            return "no valid entry", None
        return None, correct_digits(best[0], reference)

    def _run(self, call, code, out):
        if code != 0:
            return f"exit {code}", None
        rows = []
        if out.startswith(b"{"):
            for tr in json.loads(out)["transforms"]:
                rows += [(float(e["value"]), float(e["abs_error"]))
                         for e in tr["entries"] if e["valid"]]
        else:
            rows = _tsv_rows(out, "transform\tk\tn\tvalue\tabs_error\tvalid", 3, 4, 5)
        return self._check_errors(rows, self._reference(call))

    def _pade(self, call, code, out):
        if code != 0:
            return f"exit {code}", None
        rows = _tsv_rows(out, "l\tm\tvalue\tabs_error\tvalid", 2, 3, 4)
        return self._check_errors(rows, self._reference(call))

    def _overflow(self, call, code, out):
        if code == 0:
            return self._pade(call, code, out)[0], None
        return None, None

    def _compare(self, call, code, out):
        lines = out.decode().splitlines()
        names = call["argv"][call["argv"].index("--transforms") + 1].split(",")
        if code != 0 or lines[0] != "budget\t" + "\t".join(f"{n}:abs_error" for n in names):
            return "compare header or exit code wrong", None
        budgets = []
        for line in lines[1:]:
            cells = line.split("\t")
            budgets.append(int(cells[0]))
            for cell in cells[1:]:
                if cell != "NA" and not (math.isfinite(float(cell)) and float(cell) >= 0):
                    return f"bad compare cell {cell!r}", None
        if not budgets or budgets != sorted(set(budgets)):
            return "compare budgets not strictly increasing", None
        return None, None

    def _alpha(self, call, code, out):
        lines = out.decode().splitlines()
        summary = [line for line in lines if line.startswith("# alpha_estimate\t")]
        if code != 0 or len(summary) != 1:
            return "no alpha estimate", None
        estimate = float(summary[0].split("\t")[1])
        if abs(estimate - call["alpha"]) > 0.02:
            return f"alpha estimate {estimate} far from {call['alpha']}", None
        return None, None

    def _gen(self, call, code, out):
        payload = json.loads(out)
        params, n = call["params"], call["N"]
        values = payload["values"]
        if code != 0 or payload["N"] != n or len(values) != n + 1:
            return "gen payload has the wrong size", None
        if not oracle.limit_agrees(payload["limit"], self._reference(call)):
            return "gen limit disagrees with the closed form", None
        with mpmath.workdps(oracle.DPS):
            lam = mpmath.mpf(params["lam"])
            for k, value in enumerate(values):
                exact = params["s"] + params["c"] * lam ** k
                if abs(value - exact) > 1e-14 * max(1, abs(exact)):
                    return f"gen value {k} is {value!r}, expected {float(exact)!r}", None
        return None, None

    def _nonfinite(self, call, code, out):
        if code == 2:
            return (None if not out else "output written before rejecting"), None
        for line in out.decode().splitlines()[1:]:
            cells = line.split("\t")
            if line.startswith("#"):
                if "value=" in line and not math.isfinite(float(line.split("value=")[1].split("\t")[0])):
                    return "summary reports a non-finite value", None
            elif cells[5] == "1" and not math.isfinite(float(cells[3])):
                return f"non-finite input {cells[3]} reported as valid", None
        return None, None


def _tsv_rows(out, header, value_col, err_col, valid_col):
    lines = out.decode().splitlines()
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        cells = line.split("\t")
        if cells[valid_col] == "1":
            rows.append((float(cells[value_col]), float(cells[err_col])))
    return rows
