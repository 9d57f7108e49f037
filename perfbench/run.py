"""One benchmark run: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  A run
that cannot measure (the program is missing, a server died mid-run) prints
no result and exits non-zero.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

#: The workloads, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("serve_compose", "serve_evolve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: tiny inputs, and one deliberately wrong expectation.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-expected", action="store_true", help=argparse.SUPPRESS)
    return parser


def _terminate(signum, _frame):
    # Turn SIGTERM into an exception so every Workspace closes its children.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGTERM, _terminate)

    import importlib

    from harness import BenchError

    workload = importlib.import_module(args.workload)
    try:
        outcome = workload.run(
            args.seed,
            args.seconds,
            trace=bool(args.trace),
            tiny=args.tiny,
            corrupt=args.corrupt_expected,
        )
    except BenchError as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(outcome, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
