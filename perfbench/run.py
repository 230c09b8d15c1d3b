"""The repository's benchmark: cold builds, edit loops and the compile service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same inputs through the traced passes of :mod:`layers` and
reports the per-layer metrics.  Human-readable rows go to stdout first;
the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run checks its outputs: digests against the sequential compiler,
fuzz modules' simulated outputs against the reference interpreter in
``tests/``, the workload's self-checks and the determinism of its
counts.  Any failure makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("cold_build", "edit_loop")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.repo_root()
    started = time.perf_counter()
    module = __import__(args.workload)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        harness.cleanup(harness.SCRATCH)
        harness.stop_resource_tracker()

    print(harness.host_facts())
    print(
        f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s "
        f"window, trace {args.trace}, run took "
        f"{time.perf_counter() - started:.1f} s"
    )
    for row in outcome.rows:
        print(row)
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
