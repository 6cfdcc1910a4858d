"""End-to-end benchmark of the reproduction: replay grids and SQL traffic.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-replay --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` runs the workload once untraced and
once with spans around each layer's public entry points,
reports the per-layer metrics and writes the spans to
``.perfbench/traces/<workload>-seed<seed>.jsonl``.  The last line of
standard output is the result object; the line before it records the
run's context and the work it did.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from common import clock
from probe import Probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig4-replay", "nl-replay", "sql-mix")


def _declared():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _git_revision():
    """HEAD's commit id, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _assemble(values, declared):
    """The metrics object: every declared name with its unit.

    A layer that does no work on this workload reports 0 for its
    per-layer counters and times (see README, "Per-layer metrics").
    """
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in declared.items()}


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    probe = None if args.trace else Probe()
    try:
        if probe is not None:
            probe.start()
        # set-up includes importing the program
        started = clock()
        if args.workload == "sql-mix":
            import sqlmix as workload
            head = (args.seed,)  # the leading arguments of measure*()
        else:
            import replay as workload
            head = (args.workload, args.seed)
        import_span = (started, clock())

        if args.trace:
            from spans import SpanRecorder

            recorder = SpanRecorder()
            values, attempted, failed, work = workload.measure_traced(
                *head, recorder)
            declared = per_layer
        else:
            values, attempted, failed, work = workload.measure(
                *head, args.seconds, probe.reference_s(*import_span), probe)
            declared = end_to_end
    finally:
        if probe is not None:
            probe.stop()
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": _git_revision(),
    }
    if probe is not None:
        context["probe"] = probe.stats()
    if args.trace:
        trace_path = os.path.join(
            ROOT, ".perfbench", "traces",
            f"{args.workload}-seed{args.seed}.jsonl")
        recorder.write(trace_path, {"context": context, "work": work,
                                    "metrics": values})
        context["trace_file"] = os.path.relpath(trace_path, ROOT)
    metrics = _assemble(values, declared)
    print(json.dumps({"context": context, "work": work}))
    print(json.dumps({
        "correct": failed == 0 and not work.get("problems"),
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
