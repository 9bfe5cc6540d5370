"""Child processes of the benchmark.

``child.py setup WORKLOAD SEED DIR``
    Import seqaccel and generate the workload's inputs, as ``setup_s`` times
    it in a fresh interpreter; cli_cold's files are written into DIR.
``child.py cli SPANS_FILE ARG...``
    Run ``seqaccel.cli.main(ARG...)`` like ``python -m seqaccel.cli`` does,
    with spans around the package import and around every call the cli
    module makes into the other modules; the per-module self times go to
    SPANS_FILE as JSON.
"""

import inspect
import json
import os
import sys

import cases
from common import TRANSFORM_OWNER, Tracer, count_walk


def setup(workload, seed, directory):
    if workload == "cli_cold":
        import seqaccel  # noqa: F401  (the CLI imports the whole package)

        cases.prepare_cli(cases.cli_cold_calls(seed, os.getcwd()), directory)
    else:
        slots = (cases.lib_levin_slots if workload == "lib_levin" else cases.lib_classic_slots)(seed)
        cases.prepare_lib(slots)


def install_cli_spans(cli, tracer):
    """Wrap the functions the cli module imported from seqaccel's other
    modules, and ``apply_transform`` under the module owning the transform."""
    import seqaccel.pade

    for name, value in list(vars(cli).items()):
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("seqaccel.") and module != cli.__name__:
            after = count_walk(tracer) if name == "walk_path" else None
            setattr(cli, name, tracer.wrap(value, module.rsplit(".", 1)[1], after))
    apply_transform = cli.apply_transform

    def traced_apply(name, *args, **kwargs):
        with tracer.span(TRANSFORM_OWNER.get(name, "cli")):
            return apply_transform(name, *args, **kwargs)

    cli.apply_transform = traced_apply
    seqaccel.pade.solve_dense = tracer.wrap(seqaccel.pade.solve_dense, "linalg")


def traced_cli(spans_file, argv):
    tracer = Tracer()
    try:
        with tracer.span("import"):
            import seqaccel.cli as cli
        install_cli_spans(cli, tracer)
        with tracer.span("cli"):
            code = cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump({"self_s": tracer.self_s, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    elif mode == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
