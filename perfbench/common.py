"""Timing statistics, span tracing and child-process helpers shared by the
benchmark's workloads and per-layer probes.  Standard library only."""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

#: Layers of the measured system, named after the seqaccel modules.  ``interp``
#: is the part of a CLI child outside the package import and ``main``:
#: interpreter start-up and teardown (and, when traced, the span recorder's own
#: start-up); ``import`` is the package import; the rest are the modules under
#: ``src/seqaccel``.
MODULES = (
    "interp", "import", "cli", "reference", "core",
    "classic", "interpolatory", "levin", "pade", "linalg",
)

#: The module that owns each registered transform; a table build is credited
#: to it.  ``pade_epsilon`` is the epsilon table read as Pade approximants.
TRANSFORM_OWNER = {
    "aitken": "classic", "epsilon": "classic", "theta": "classic",
    "theta_iterated": "classic",
    "richardson": "interpolatory", "rho": "interpolatory",
    "rho_iterated": "interpolatory", "rho_osada": "interpolatory",
    "bdg": "interpolatory",
    "levin_u": "levin", "levin_t": "levin", "levin_v": "levin", "levin_d": "levin",
    "weniger_y": "levin", "weniger_tau": "levin", "weniger_phi": "levin",
    "weniger_delta": "levin",
    "pade_epsilon": "pade",
}

DIGITS_CAP = 16.0


def percentile(values, q):
    """Linear-interpolation percentile (``q`` in [0, 100]) of a non-empty list."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def correct_digits(value, reference) -> float:
    """Correct significant digits of ``value`` against a high-precision
    ``reference``: ``-log10`` of the relative error, within [0, 16]."""
    import mpmath  # not at module level: CLI children import this module

    with mpmath.workdps(50):
        ref = mpmath.mpmathify(reference)
        err = abs(mpmath.mpmathify(value) - ref)
        scale = abs(ref) if ref != 0 else mpmath.mpf(1)
        rel = err / scale
        if rel == 0:
            return DIGITS_CAP
        return float(min(DIGITS_CAP, max(0.0, -mpmath.log10(rel))))


#: Partial sums of zeta(2), the input of the calibration kernel.
_CALIBRATION_INPUT = [sum(1.0 / (k * k) for k in range(1, n + 1)) for n in range(1, 49)]

#: The reference speed, as the calibration kernel's time in milliseconds:
#: about its median within runs on a 2-core Intel Xeon VM with Python
#: 3.11.7.  In-process op times are reported at this speed (see
#: ``host_speed_scale``); any fixed value would do, as it only sets the
#: speed at which times are given.
CALIBRATION_REF_MS = 0.15


def calibration_kernel():
    """A fixed pure-Python workload shaped like seqaccel's table kernels:
    Wynn's epsilon lozenge over 48 partial sums, lists of floats and a
    division per entry.  It imports nothing from seqaccel, so no change to
    the program can change its time."""
    prev = [0.0] * len(_CALIBRATION_INPUT)
    cur = list(_CALIBRATION_INPUT)
    while len(cur) > 1:
        nxt = []
        for i in range(len(cur) - 1):
            diff = cur[i + 1] - cur[i]
            nxt.append(prev[i + 1] + (1.0 / diff if diff else 0.0))
        prev, cur = cur, nxt
    return cur


def calibrate(samples, op_seconds, share=0.05):
    """Time the calibration kernel after an op, at least once and until the
    kernel has run for ``share`` of the op's time; appends the seconds of
    each run to ``samples``."""
    spent = 0.0
    while True:
        start = time.perf_counter()
        calibration_kernel()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
        if spent >= share * op_seconds:
            return


def host_speed_scale(samples):
    """The factor that brings op times measured alongside the calibration
    ``samples`` to the reference speed: below 1 when the host ran slow.

    On a shared host the interpreter's speed drifts by a fifth or more
    from one half-minute to the next, and the pure-Python loops of a run
    drift with it; the kernel's median over the run measures that drift.
    """
    return CALIBRATION_REF_MS / (median(samples) * 1e3)


class Tracer:
    """In-memory spans recorded around calls into seqaccel's layers.

    A span's self time is its duration minus that of its direct children;
    ``self_s`` sums self time per module.  Counters hold counts recorded at
    the same boundaries.
    """

    def __init__(self):
        self.self_s = {}
        self.counts = {}
        self._stack = []  # [module, child seconds]

    @contextmanager
    def span(self, module):
        frame = [module, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.self_s[module] = self.self_s.get(module, 0.0) + duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, module, after=None):
        """``fn`` recording a span under ``module``; ``after(result)`` may
        record counts from the result."""

        def traced(*args, **kwargs):
            with self.span(module):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced


def count_walk(tracer):
    """A post-hook for ``walk_path`` counting path entries and invalid ones."""

    def after(positions):
        tracer.count("core.entries", len(positions))
        tracer.count("core.invalid", sum(1 for *_, ok in positions if not ok))

    return after


def run_child(argv, cwd, env, scratch, timeout=120.0):
    """Run one child process to completion, its output going to files in
    the ``scratch`` directory.

    Returns ``(wall seconds, exit code, stdout bytes, stderr bytes, peak RSS
    in MiB)``; the peak is the child's own, read with ``wait4``.
    """
    out_path = os.path.join(scratch, "child.out")
    err_path = os.path.join(scratch, "child.err")
    with open(out_path, "w+b") as out_f, open(err_path, "w+b") as err_f:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out_f, stderr=err_f,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out_f.seek(0)
        err_f.seek(0)
        out, err = out_f.read(), err_f.read()
    return wall, proc.returncode, out, err, usage.ru_maxrss / 1024.0


def self_maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(root):
    """Environment for children: seqaccel imported from the checkout's src/,
    from cached bytecode as an installed package would be (the cache is
    written under src/ on first use)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python_floor_ms(root, scratch, reps=5):
    """Median wall time of ``python -c pass``: the interpreter's own floor."""
    env = child_env(root)
    times = [
        run_child([sys.executable, "-c", "pass"], root, env, scratch)[0] for _ in range(reps)
    ]
    return median(times) * 1e3
