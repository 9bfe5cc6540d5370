"""Run a seqaccel command over every golden report the tests pin; compare bytes.

Usage::

    python tests/check_goldens.py seqaccel                        # installed script
    PYTHONPATH=src python tests/check_goldens.py python -m seqaccel.cli

The argv lists are those of ``GOLDEN_RUNS`` (``tests/test_acceptance.py``,
in both report formats) and ``CLI_GOLDENS`` (``tests/test_cli.py``), read
from those modules, so no second copy of them exists.  Each call runs in
``tests/golden``, where the goldens were made (some reports carry their
input path), as a separate process, and must exit 0 with stdout equal to
its golden file.  The tests make the same calls in-process; this script
checks a console script or interpreter as installed.  Its name does not
start with ``test_``, so pytest does not collect it.  Exits 1 after naming
every golden that was not reproduced.
"""

import os
import pathlib
import subprocess
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def golden_calls() -> list:
    """``(golden file name, argv)`` for every golden report the tests pin."""
    from test_acceptance import GOLDEN_RUNS
    from test_cli import CLI_GOLDENS

    runs = [(f"{stem}.{fmt}", [*argv, "--format", fmt])
            for stem, argv in GOLDEN_RUNS for fmt in ("tsv", "json")]
    return runs + list(CLI_GOLDENS)


def main(command: list) -> int:
    if not command:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ)
    if env.get("PYTHONPATH"):  # a relative entry names a directory from here, not tests/golden
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))
    calls, failures = golden_calls(), []
    for golden, argv in calls:
        done = subprocess.run([*command, *argv], cwd=GOLDEN_DIR, env=env, capture_output=True)
        if done.returncode != 0:
            failures.append(f"{golden}: exit {done.returncode}: {done.stderr.decode().strip()}")
        elif done.stdout != (GOLDEN_DIR / golden).read_bytes():
            failures.append(f"{golden}: differs from the golden file")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(calls) - len(failures)} of {len(calls)} golden reports reproduced")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
