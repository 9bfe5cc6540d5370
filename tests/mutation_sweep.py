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
not found exactly once.  It runs the mutants one after another, 2-10 s
each and about 2 min in all (2 vCPU, Python 3.11).  Its name does not
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
    Mutant("core.py", "        while True:\n            yield exc", "        yield exc",
           "a rule's exception is raised on the first read only"),
    Mutant("core.py", "def __getstate__(self)", "def _getstate(self)",
           "a copy or a pickle of a partly built table holds no columns"),
    Mutant("core.py", "columns = self._extend(high)", "columns = self._extend(self.max_order)",
           "a read builds every column, not those through its order"),
    Mutant("core.py", "rule = col and next(pairs, None)", "rule = next(pairs, None)",
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
           "for n in rows])\n        return [None if t is None else t - 1 for t in ratios]",
           "for n in rows], [-1] * len(rows))\n        return ratios",
           "estimate_decay's - 1 as the guard's base: -1 + t turns a -0.0 part +0.0"),
    # the CLI's choices
    Mutant("cli.py", "if name not in cells or (err is not None and err < cells[name][1]):",
           "if name not in cells:",
           "compare keeps the first entry of a repeated budget, not the more accurate"),
    Mutant("cli.py", "value if is_finite(magnitude(value)) else None", "value",
           "pade reports a non-finite [l/m](z) as valid"),
    # the direct Pade solve
    Mutant("linalg.py", "type(scale)(_PIVOT_RTOL) * scale if scale > 1 else _PIVOT_RTOL",
           "_PIVOT_RTOL * max(1.0, scale)",
           "a Fraction matrix beyond the double range raises OverflowError"),
    Mutant("pade.py", "one = constant_type(g)(1)", "one = 1.0",
           "Q(0) is a float on every series, exact and mpf ones included"),
    # the kernels
    Mutant("classic.py", "[cur[n] for n in rows],", "[cur[n + 1] for n in rows],",
           "Aitken's step adds its correction to s_{n+1}, not s_n"),
    Mutant("classic.py", "[even[n + 1] for n in rows],", "[even[n + 2] for n in rows],",
           "theta's even rule takes its base one row down"),
    Mutant("classic.py", "[-(d0 * d1 * (d2 - d1))", "[-(d1 * d1 * (d2 - d1))",
           "iterated theta's numerator reads d1 d1 for d0 d1"),
    Mutant("interpolatory.py", "bases[n] / order", "bases[n + 1] / order",
           "Richardson's x_n is taken one row down"),
    Mutant("interpolatory.py", "lift(k - 1 + alpha)", "lift(k + alpha)",
           "Osada's numerator is k + alpha, standard rho's at alpha = 1 off by one"),
    Mutant("interpolatory.py", "lift((2 * (k - 1) + alpha + 1) / (2 * (k - 1) + alpha))",
           "lift((2 * k + alpha + 1) / (2 * k + alpha))",
           "BDG's factor is taken from the next level"),
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
