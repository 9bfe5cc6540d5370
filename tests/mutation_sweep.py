"""Run tier-1 against source mutants and name each mutant no test kills.

Usage, from anywhere::

    python tests/mutation_sweep.py

Each entry of ``MUTANTS`` replaces one source snippet, which must occur
exactly once in its module.  For each, the sweep copies ``src/`` and
``tests/`` into a temporary directory, applies the replacement and runs
tier-1 there with ``-x`` and one Hypothesis seed (so every run draws the
same examples, and no verdict depends on the draw; Hypothesis's database
stays in the copy).  It prints one line per mutant: ``killed``,
``SURVIVED`` or ``equivalent`` (a survivor the list marks as such, with
its reason).  An unmutated copy runs first and must pass.  Exits 1 when a
mutant survives that the list does not mark equivalent, or when one so
marked is killed; exits 2 when the unmutated copy fails or a snippet is
not found exactly once.  It runs the mutants one after another, 2-22 s
each and about 7 min in all (2 vCPU, Python 3.11).  Its name does not
start with ``test_``, so pytest does not collect it, and it is not part
of tier-1; CI runs it on one Python version.  A change to a kernel, the
guard, a budget, a path or a CLI choice adds its mutants here.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    """Replace ``old`` by ``new`` in ``src/seqaccel/<module>``; ``breaks`` says what
    the mutant gets wrong, ``equivalent`` why no test can tell (``None`` if one can)."""

    module: str
    old: str
    new: str
    breaks: str
    equivalent: Optional[str] = None


MUTANTS = [
    # the lazy table
    Mutant("core.py", "with lock, precision:", "with precision:",
           "threads sharing a table build its columns without the lock"),
    Mutant("core.py", "with lock, precision:", "with lock:",
           "columns build at mpmath's precision of the read, not of the build"),
    Mutant("core.py", "work[3] = exc", "pass",
           "a rule's exception is raised on the first read only"),
    Mutant("core.py", "def __getstate__(self)", "def _getstate(self)",
           "a copy or a pickle of a partly built table holds no columns"),
    Mutant("core.py", "columns = self._extend(high)", "columns = self._extend(self.max_order)",
           "a read builds every column, not those through its order"),
    Mutant("core.py", "work[3] = col and rules", "work[3] = rules",
           "rules resume after a column without a computable row"),
    # the one place an entry turns invalid
    Mutant("core.py", "usable = part if usable is None else usable & part",
           "usable = part if usable is None else usable | part",
           "a row is computed when any antecedent is valid, not all"),
    Mutant("core.py", "if type(total) is float and is_finite(total):", "if type(total) is float:",
           "a full float column with an infinity or a NaN is returned as valid"),
    Mutant("core.py", "bound = threshold * m if (m := abs(nums)) > one else threshold",
           "bound = threshold",
           "a scalar numerator's guard bound is absolute, not relative to |num|"),
    Mutant("interpolatory.py",
           "for n in rows])\n    return [None if t is None else t - 1 for t in compute_column(",
           "for n in rows], [-1] * len(rows))\n    return [t for t in compute_column(",
           "estimate_decay's - 1 as the guard's base: -1 + t turns a -0.0 part +0.0"),
    Mutant("core.py", "guard.divide(*out)", "guard.divide(*out[:2])",
           "the one division drops its bases: lozenge and stencil entries lose T_{k-2} or cur"),
    # each builder's guard passes through its table to compute_column
    Mutant("core.py", "compute_column(length, *rule, guard)",
           "compute_column(length, *rule, GuardPolicy())",
           "every table divides under the default guard, not the one it was built with"),
    Mutant("core.py", "for _ in count()),\n        guard)", "for _ in count()),\n        GuardPolicy())",
           "stencil tables (Aitken, iterated theta and rho, BDG, Neville) ignore their guard"),
    Mutant("core.py", "for _ in count()), guard, order_step=2)",
           "for _ in count()), GuardPolicy(), order_step=2)",
           "lozenge tables (epsilon, rho, Osada, Pade) ignore their guard"),
    Mutant("classic.py", "rules, guard, order_step=2)", "rules, GuardPolicy(), order_step=2)",
           "the theta algorithm ignores its guard"),
    Mutant("levin.py", "rules, guard, n_start=n_start", "rules, GuardPolicy(), n_start=n_start",
           "Levin and Weniger tables ignore their guard"),
    Mutant("interpolatory.py", "(), column, guard)", "(), column, GuardPolicy())",
           "estimate_decay ignores its guard"),
    # the CLI's choices
    Mutant("cli.py", "if name not in cells or (err is not None and err < cells[name][1]):",
           "if name not in cells:",
           "compare keeps the first entry of a repeated budget, not the more accurate"),
    Mutant("cli.py", "value if is_finite(magnitude(value)) else None", "value",
           "pade reports a non-finite [l/m](z) as valid"),
    Mutant("cli.py", "if limit is not None:", "if False:",
           "--limit is ignored for a --problem"),
    Mutant("interpolatory.py", "if len(tail) % 2 == 1:", "if False:",
           "the median of an odd last quartile averages two entries"),
    Mutant("interpolatory.py", "key=lambda t: (t.real, t.imag))",
           "key=lambda t: (t.real, t.imag) if isinstance(t, complex) else t)",
           "the median of a last quartile that mixes float and complex raises TypeError"),
    # the direct Pade solve
    Mutant("linalg.py", "constant_type((scale,))(_PIVOT_RTOL) * scale if scale > 1 else _PIVOT_RTOL",
           "_PIVOT_RTOL * max(1.0, scale)",
           "a Fraction matrix beyond the double range raises OverflowError"),
    Mutant("pade.py", "one = constant_type(g)(1)", "one = 1.0",
           "Q(0) is a float on every series, exact and mpf ones included"),
    # the kernels
    Mutant("classic.py", "[cur[n] for n in rows])", "[cur[n + 1] for n in rows])",
           "Aitken's step adds its correction to s_{n+1}, not s_n"),
    Mutant("classic.py", "[even[n + 1] for n in rows])", "[even[n + 2] for n in rows])",
           "theta's even rule takes its base one row down"),
    Mutant("classic.py", "[-(d0 * d1 * (d2 - d1))", "[-(d1 * d1 * (d2 - d1))",
           "iterated theta's numerator reads d1 d1 for d0 d1"),
    Mutant("interpolatory.py", "bases[n] / k", "bases[n + 1] / k",
           "Richardson's x_n is taken one row down"),
    Mutant("interpolatory.py", "rows: k - 1 + alpha", "rows: k + alpha",
           "Osada's numerator is k + alpha, standard rho's at alpha = 1 off by one"),
    Mutant("interpolatory.py", "(2 * (k - 1) + alpha + 1) / (2 * (k - 1) + alpha)",
           "(2 * k + alpha + 1) / (2 * k + alpha)",
           "BDG's factor is taken from the next level"),
    # parameters pass one gate, which lifts each into the sample's scalar type
    Mutant("core.py", "    return constant_type(values)(value)\n", "    return value\n",
           "zeta, beta and alpha enter every mpf table as doubles"),
    Mutant("levin.py", 'check_positive("zeta", zeta, values)\n    if kind',
           'check_positive("zeta", zeta)\n    if kind',
           "Levin's and Weniger's mpf tables form zeta + n, and the u estimate, as doubles"),
    Mutant("levin.py", 'check_positive("zeta", zeta, values)\n    omegas',
           'check_positive("zeta", zeta)\n    omegas',
           "weighted_ratio_transform's mpf tables form the bases zeta + n as doubles"),
    Mutant("interpolatory.py", 'check_positive("beta", beta, s)', 'check_positive("beta", beta)',
           "an mpf Richardson table forms its bases beta + n as doubles"),
    Mutant("interpolatory.py", 'check_positive("alpha", alpha, s)\n    return',
           'check_positive("alpha", alpha)\n    return',
           "an mpf Osada table forms its numerator k - 1 + alpha in double"),
    Mutant("interpolatory.py", 'check_positive("alpha", alpha, s)  #',
           'check_positive("alpha", alpha)  #',
           "an mpf BDG table takes the double quotient of its factor"),
    Mutant("levin.py", "constant_type((zeta,))", "constant_type(())",
           "Levin's and Weniger's constants are floats, so exact tables turn inexact"),
    Mutant("core.py", "        kinds.discard(int)\n", "        pass\n",
           "an int kernel constant makes an mpf column mixed: the guard's threshold stays a double"),
    Mutant("core.py", "own = kind is float or type(abs(kind(1))) is kind",
           "own = kind is float or type(kind(1) * 1.0) is kind is type(abs(kind(1)))",
           "constants meet Fraction and Decimal columns as floats: exact tables turn inexact"),
    Mutant("core.py", "and v > 1 else w if w > 1 else 1))", "and v > 1.0 else w if w > 1.0 else 1.0))",
           "the partial-sum check of a Decimal series divides by a float and raises TypeError"),
    Mutant("levin.py", "if k > 1 else 1 for b in", "if k > 1 else 0 for b in",
           "Weniger's first column takes X_0^(n+1) for X_0^(n+1) - X_0^(n)"),
    Mutant("levin.py", "    if 0 in omegas:\n        raise ZeroRemainderError(omegas.index(0))\n", "",
           "a zero user-supplied estimate raises ZeroDivisionError, not ZeroRemainderError"),
    Mutant("levin.py", "(b + p) * (b + q) /", "(b + p) * (b + p) /",
           "Weniger's factor reads (b+k-1)^2 for (b+k-1)(b+k-2)"),
    Mutant("levin.py", "omegas = [(zeta + n) * b", "omegas = [(zeta + n + 1) * b",
           "the u estimate is (zeta + n + 1) a_n"),
    Mutant("core.py", "[base[n + 1] for n in rows]", "[base[n] for n in rows]",
           "the lozenge takes its base T_{k-2} at row n, not n + 1"),
    Mutant("core.py", "return [(valid[k - 1], (0, 1))], column",
           "return [(valid[k - 1], (0,))], column",
           "the lozenge computes a row whose T_{k-1}^(n+1) is invalid"),
    Mutant("classic.py", "yield [(valid[-1], (0, 1, 2))]", "yield [(valid[-1], (0, 1))]",
           "theta's even rule computes a row whose theta_{2j+1}^(n+2) is invalid"),
    Mutant("core.py", "[(valid[-1], range(width))]", "[(valid[-1], range(width - 1))]",
           "a stencil computes a row whose last operand is invalid"),
    Mutant("core.py", "or abs(d) < (threshold * m", "or abs(d) <= (threshold * m",
           "the guard trips at |d| equal to its bound, not only below it"),
    # the edge checks refuse a bool
    Mutant("core.py", "if isinstance(value, bool) or not isinstance(value, int) or (",
           "if not isinstance(value, int) or (",
           "True passes for the integer 1: an order, an index or a length"),
    Mutant("core.py", "not isinstance(value, (bool, complex))", "not isinstance(value, complex)",
           "True passes for the positive parameter 1.0, and GuardPolicy(True) for a threshold"),
    Mutant("core.py", "if bool not in kinds and _numbers(", "if _numbers(",
           "a sample, term, limit, coefficient or point keeps True for 1.0"),
    # budgets and paths
    Mutant("core.py", "+ 1 + self.lookahead - self._length(k)", "+ 1 - self._length(k)",
           "budgets leave out the element a forward-difference estimate reads ahead"),
    Mutant("core.py", "table.approximant_orders(), slice(2))",
           "table.approximant_orders(), slice(1))",
           "a staircase visits one row per order, not two"),
]


def tier1(copy: pathlib.Path) -> bool:
    """True when tier-1 passes on the copy's ``src/`` and ``tests/``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--hypothesis-seed=0", "tests"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def copy_tree(target: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)


def main() -> int:
    sources = {m.module: (ROOT / "src" / "seqaccel" / m.module).read_text(encoding="utf-8")
               for m in MUTANTS}
    stale = [m for m in MUTANTS if sources[m.module].count(m.old) != 1]
    for m in stale:
        print(f"stale      {m.module}: {m.old!r} does not occur exactly once")
    if stale:
        return 2
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        copy_tree(pathlib.Path(tmp) / "base")
        if not tier1(pathlib.Path(tmp) / "base"):
            print("tier-1 fails on the unmutated copy")
            return 2
        failed = 0
        for i, m in enumerate(MUTANTS):
            copy = pathlib.Path(tmp) / f"m{i}"
            copy_tree(copy)
            target = copy / "src" / "seqaccel" / m.module
            target.write_text(sources[m.module].replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            killed = not tier1(copy)
            seconds = time.perf_counter() - start
            shutil.rmtree(copy)
            if killed:
                verdict = "killed" if m.equivalent is None else "killed, but listed as equivalent"
            else:
                verdict = "SURVIVED" if m.equivalent is None else f"equivalent ({m.equivalent})"
            failed += killed == (m.equivalent is not None)
            print(f"{verdict:<10} {seconds:5.1f} s  {m.module}: {m.breaks}", flush=True)
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
