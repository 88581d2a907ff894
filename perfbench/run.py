"""Benchmark command for XBUILD and estimate serving.

Usage, from the repository root::

    python3 perfbench/run.py --workload build-imdb --seed 1 \\
        --seconds 10 --trace 0

``--workload`` is one of ``build-imdb``, ``serve-distinct`` and
``serve-skewed`` (see perfbench/README.md for why each exists).
``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` wraps every layer in spans during the set-up
and one pass of the measured work and reports the per-layer metrics
instead.  Every workload reports every metric of its kind.

The process re-executes itself once with a fixed ``PYTHONHASHSEED`` so
that string hashing, and with it every set and dict order, is the same
in every run.  It prints one line per metric (value, unit, sample
count), a ``record`` line with the input properties and host facts, and
as its last line the JSON result.  It exits 1 when a correctness check
fails and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HASH_SEED = "0"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("build-imdb", "serve-distinct",
                                 "serve-skewed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a small document and budget, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    scale = workloads.TINY if args.scale == "tiny" else workloads.FULL
    result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), scale)
    failed_pct = 100.0 * result.failed / max(1, result.attempted)
    print(f"perfbench {result.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    for metric in result.metrics:
        print(f"metric {metric.name} = {metric.value:.6g} {metric.unit} "
              f"(n={metric.n})")
    print(f"metric failed_pct = {failed_pct:.6g} % (n={result.attempted})")
    for problem in result.problems:
        print(f"FAILED {problem}")
    print("record " + json.dumps(result.record, sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric.name: {"value": metric.value, "unit": metric.unit}
            for metric in result.metrics
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
