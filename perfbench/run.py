"""Benchmark of seqaccel, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a seqaccel checkout; the package is imported from its
``src/`` directory.  Workloads, each a closed loop with one client:

cli_cold
    One op is one fresh ``python -m seqaccel.cli`` process: the golden runs
    in TSV and JSON, compare, estimate-alpha, both pade modes, gen, run on
    generated CSV and JSON files, and malformed or conflicting calls.
    Package import dominates; table arithmetic is about 1% of an op.
lib_levin
    In-process Levin and Weniger table builds (and explicit-estimate
    builds) up to N = 100, where ``levin._ratio_table`` does the work.
lib_classic
    In-process lozenge, iterated, Neville and Pade work up to N = 400 over
    all path kinds, a quarter of it on mpf or complex scalars; Levin absent.

A run repeats the workload's cycle of ops whole for up to ``--seconds``
(at least once), checks every op's output, and prints the metrics as the
last line of standard output.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones: it runs half the time
untraced and then the same ops with spans around every call into a
seqaccel module, and adds the per-module probes of ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

import cases
import cli_workload
import common
import layers
import lib_workload

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_cold", "lib_levin", "lib_classic")
SETUP_REPS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many ops (harness self-test)")
    return parser.parse_args(argv)


def find_root():
    """The checkout root: the directory above perfbench/, which must hold
    seqaccel's sources and the golden files."""
    root = os.path.dirname(HERE)
    for needed in ("src/seqaccel/__init__.py", "tests/golden", "tests/test_acceptance.py"):
        if not os.path.exists(os.path.join(root, needed)):
            raise SystemExit(f"perfbench: {needed} not found under {root}; "
                             "run from a seqaccel checkout")
    return root


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist):
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def provenance(root, args, floor_ms):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "python": platform.python_version(), "scipy": _version("scipy"),
        "mpmath": _version("mpmath"), "commit": _git_commit(root),
        "python_floor_ms": round(floor_ms, 3),
        "system_tuning": "none: no CPU pinning, frequency or kernel settings were changed",
    }


# ---------------------------------------------------------------------------
# set-up


def measure_setup(root, args, scratch):
    """Median wall time of a fresh interpreter importing seqaccel and
    generating the workload's inputs (no oracle work)."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "setup",
            args.workload, str(args.seed), scratch]
    times = []
    for _ in range(SETUP_REPS):
        wall, status, _, err, _ = common.run_child(argv, root, common.child_env(root), scratch)
        if status != 0:
            raise RuntimeError("set-up child failed: " + err.decode(errors="replace").strip())
        times.append(wall)
    return common.median(times)


class Ops:
    """The workload's cycle of ops with everything a run needs to execute
    and check them."""

    def __init__(self, root, args, workdir):
        self.workload = args.workload
        self.root = root
        self.workdir = workdir
        if args.workload == "cli_cold":
            self.items = cases.cli_cold_calls(args.seed, root)
            cases.prepare_cli(self.items, workdir)
            self.checker = cli_workload.Checker(root, self.items)
        else:
            slots = (cases.lib_levin_slots if args.workload == "lib_levin"
                     else cases.lib_classic_slots)(args.seed)
            inputs = cases.prepare_lib(slots)
            lib_workload.registered_owners()  # fails if the owner map is stale
            self.items = [lib_workload.Op(s, i) for s, i in zip(slots, inputs)]


class Result:
    """Per-op records of a phase of the run."""

    def __init__(self):
        self.seconds = []
        self.slots = []  # position of each op in the cycle
        self.digits = []
        self.failures = []  # (description, whether the call was malformed)
        self.rss_mb = 0.0
        self.entries = 0
        self.invalid = 0
        self.documented = 0  # ops whose result is a documented error
        self.calibration = []  # seconds of the calibration kernel (in-process ops)

    def record(self, position, seconds, failure, digits, label, malformed=False):
        self.seconds.append(seconds)
        self.slots.append(position)
        if failure is not None:
            self.failures.append((f"{label}: {failure}", malformed))
        elif digits is not None and not malformed:
            self.digits.append(digits)


# ---------------------------------------------------------------------------
# the closed loop


def run_cli_op(ops, position, call, result, tracer_file=None):
    argv = cli_workload.command(call)
    if tracer_file is not None:
        argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", tracer_file, *call["argv"]]
    wall, code, out, err, rss = common.run_child(
        argv, ops.workdir, common.child_env(ops.root), ops.workdir)
    failure, digits = ops.checker(call, code, out, err)
    result.rss_mb = max(result.rss_mb, rss)
    result.record(position, wall, failure, digits, " ".join(call["argv"]), call["malformed"])
    return wall


def run_lib_op(op, position, result, tracer=None):
    seconds, outcome = lib_workload.execute(op, tracer)
    common.calibrate(result.calibration, seconds)
    failure, digits = lib_workload.check(op, outcome)
    if isinstance(outcome, tuple):
        result.entries += outcome[2]
        result.invalid += outcome[3]
    elif lib_workload.documented(op, outcome):
        result.documented += 1
    slot = op.slot
    label = f"{slot['op']} {slot.get('transform', slot.get('weights', ''))} " \
            f"{slot['family']} N={slot['N']} {slot['scalar']}"
    result.record(position, seconds, failure, digits, label)


def loop(ops, result, seconds, max_ops, cycles=None, tracer=None, spans=None):
    """Run whole cycles while the next one is expected to end within
    ``seconds`` (at least one; or ``cycles`` cycles, or ``max_ops`` ops);
    returns the number of cycles run.  A cycle is expected to last as long
    as the previous one, so a workload whose cycle takes more than half of
    ``seconds`` always runs exactly one.  With ``tracer`` (in-process ops)
    or ``spans`` (CLI children) the ops are traced."""
    if ops.workload == "cli_cold":
        def run_one(position, call):
            if spans is None:
                run_cli_op(ops, position, call, result)
                return
            path = os.path.join(ops.workdir, "spans.json")
            wall = run_cli_op(ops, position, call, result, path)
            with open(path, encoding="utf-8") as handle:
                spans.append((wall, json.load(handle)))
            os.remove(path)
    else:
        def run_one(position, op):
            run_lib_op(op, position, result, tracer)

    start = time.perf_counter()
    done = 0
    while True:
        cycle_start = time.perf_counter()
        for position, item in enumerate(ops.items):
            if max_ops is not None and len(result.seconds) >= max_ops:
                return done
            run_one(position, item)
        done += 1
        now = time.perf_counter()
        if cycles is not None:
            if done >= cycles:
                return done
        elif now - start + (now - cycle_start) > seconds:
            return done


# ---------------------------------------------------------------------------
# metrics


def end_to_end(result, setup_s):
    """The BENCHMARK.json end-to-end metrics, and the listing printed above
    them, which adds ``op_ms_p99`` (from 1000 ops on), the failed share, the
    number of ops whose result was a documented error and, for in-process
    workloads, the unscaled op times and the host speed scale.

    Each op of the cycle is timed by the median of its repetitions in the
    run.  The latency percentiles are taken over the cycle's ops, and the
    throughput is the cycle's ops over the sum of their times, so neither
    moves with the number of cycles that fit in ``--seconds``.

    In-process op times are then brought to the reference speed of
    ``common.host_speed_scale``, measured by the calibration kernel run
    between the ops.  On a shared 2-core host whole runs of the same code
    drift with the interpreter's speed: in six to eight runs of a library
    workload the middle half of the op times spread over 0.15 of their
    median, and over 0.02-0.08 once scaled.  ``cli_cold`` times stay as
    measured: process start-up and package import follow the kernel's
    speed only in part.
    """
    ms = [s * 1e3 for s in result.seconds]
    attempted = len(ms)
    repetitions = {}
    for position, value in zip(result.slots, ms):
        repetitions.setdefault(position, []).append(value)
    per_op = [common.median(values) for values in repetitions.values()]
    scale = common.host_speed_scale(result.calibration) if result.calibration else 1.0
    p50, p90 = common.percentile(per_op, 50), common.percentile(per_op, 90)
    ops_per_s = len(per_op) / sum(per_op) * 1e3
    metrics = {
        "op_ms_p50": (p50 * scale, "ms"),
        "op_ms_p90": (p90 * scale, "ms"),
        "ops_per_s": (ops_per_s / scale, "1/s"),
        "setup_s": (setup_s, "s"),
        "accuracy_digits_mean": (sum(result.digits) / max(1, len(result.digits)), "digits"),
        "accuracy_digits_min": (min(result.digits, default=0.0), "digits"),
        "peak_rss_mb": (result.rss_mb or common.self_maxrss_mb(), "MiB"),
        "ok_ops_ratio": (1.0 - len(result.failures) / attempted, "ratio"),
    }
    listing = dict(metrics)
    if attempted >= 1000:
        listing["op_ms_p99"] = (common.percentile(ms, 99) * scale, "ms")
    listing["failed_ops_ratio"] = (len(result.failures) / attempted, "ratio")
    listing["documented_error_ops"] = (result.documented, "count")
    if result.calibration:
        listing["host_speed_scale"] = (scale, "ratio")
        listing["unscaled_op_ms_p50"] = (p50, "ms")
        listing["unscaled_op_ms_p90"] = (p90, "ms")
        listing["unscaled_ops_per_s"] = (ops_per_s, "1/s")
    return metrics, listing


def per_layer(ops, traced, spans, tracer, untraced_s, probe_metrics):
    count = len(traced.seconds)
    total_s = sum(traced.seconds)
    self_s = dict.fromkeys(common.MODULES, 0.0)
    walk_s = 0.0
    entries = invalid = 0
    if ops.workload == "cli_cold":
        for wall, record in spans:
            for module, seconds in record["self_s"].items():
                self_s[module] += seconds
            self_s["interp"] += wall - sum(record["self_s"].values())
            entries += record["counts"].get("core.entries", 0)
            invalid += record["counts"].get("core.invalid", 0)
        walk_s = self_s["core"]
    else:
        for module, seconds in tracer.self_s.items():
            self_s[module] += seconds
        walk_s = tracer.self_s.get("core", 0.0)
        entries, invalid = traced.entries, traced.invalid
    metrics = {}
    for module in common.MODULES:
        metrics[f"{module}.self_ms"] = (self_s[module] / count * 1e3, "ms")
        metrics[f"{module}.share"] = (self_s[module] / total_s, "ratio")
    metrics["core.walk_path_ms"] = (walk_s / count * 1e3, "ms")
    metrics["core.entries"] = (entries / count, "count")
    metrics["core.invalid_entry_ratio"] = (invalid / entries if entries else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (total_s / untraced_s, "ratio")
    metrics.update(probe_metrics)
    return metrics


def emit(metrics, attempted, failures):
    """The result line.  ``correct`` is false when a well-formed op gave a
    wrong answer; a malformed call that the program mishandles counts as a
    failed op without making the run incorrect."""
    for description, _ in failures[:20]:
        print(f"# failed op: {description}")
    payload = {
        "correct": all(malformed for _, malformed in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(payload))


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    root = find_root()
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return _main(root, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def _main(root, args, workdir):
    floor_ms = common.python_floor_ms(root, workdir)
    setup_dir = os.path.join(workdir, "setup")
    os.makedirs(setup_dir)
    setup_s = measure_setup(root, args, setup_dir)
    ops = Ops(root, args, workdir)
    print("# provenance " + json.dumps(provenance(root, args, floor_ms), sort_keys=True))

    result = Result()
    if not args.trace:
        cycles = loop(ops, result, args.seconds, args.max_ops)
        attempted = len(result.seconds)
        metrics, listing = end_to_end(result, setup_s)
        print(f"# {attempted} ops in {cycles} cycles of {len(ops.items)}")
        for name, (value, unit) in listing.items():
            print(f"# {name} = {value:.6g} {unit}")
        failures = result.failures
    else:
        cycles = loop(ops, result, args.seconds / 2, args.max_ops)
        traced = Result()
        tracer = spans = None
        if ops.workload == "cli_cold":
            spans = []
        else:
            import seqaccel.pade

            tracer = common.Tracer()
            solve_dense = seqaccel.pade.solve_dense
            seqaccel.pade.solve_dense = tracer.wrap(solve_dense, "linalg")
        try:
            loop(ops, traced, 0.0, args.max_ops, cycles, tracer, spans)
        finally:
            if tracer is not None:
                seqaccel.pade.solve_dense = solve_dense
        probe_metrics = layers.probes(root, workdir)
        metrics = per_layer(ops, traced, spans, tracer, sum(result.seconds), probe_metrics)
        print(f"# {len(result.seconds)} untraced and {len(traced.seconds)} traced ops")
        attempted = len(result.seconds) + len(traced.seconds)
        failures = result.failures + traced.failures
    emit(metrics, attempted, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
