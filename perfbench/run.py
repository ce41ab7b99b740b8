"""The repository benchmark: one command, every metric, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7-pagerank --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` is the timed run: it prints every end-to-end metric with
tracing off. ``--trace 1`` is the separate traced run: one untraced round,
then the same round with span wrappers installed around each layer, and it
prints the per-layer metrics (and writes the spans to
``perfbench/out/``). Progress goes to standard error; the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 5321, "failed": 0, "metrics": {...}}

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits non-zero and prints no result. See
``perfbench/README.md`` for the workloads and metric definitions.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def stop_helpers():
    """Stop the process the run leaves behind and wait until it has ended.

    The process executor joins the workers it forks (and ``multiprocessing``
    ends daemonic ones at exit), but its shared-memory transport also
    starts the ``multiprocessing`` resource tracker, a separate process
    that would otherwise outlive this one until it sees its pipe close.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None):
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SOURCE}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            spans = os.path.join(
                HERE, "out", f"spans-{workload.name}-seed{args.seed}.json.gz"
            )
            checks, metrics = workloads.profile(workload, args.seed, spans)
        else:
            checks, metrics = workloads.measure(
                workload, args.seed, args.seconds)
    finally:
        stop_helpers()
    for failure in checks.failures:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
