"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch_fit --seed 1 --seconds 30 --trace 0

Workloads: ``batch_fit``, ``stream_store``, ``serve_http`` (see
``perfbench/README.md``).  With ``--trace 0`` the run measures the
workload's end-to-end metrics with nothing recorded in between.  With
``--trace 1`` it reports every per-layer metric, so it traces all three
paths, each for a third of ``--seconds``: it records spans around calls into
each layer's public functions, reports the per-layer metrics derived from
them and writes the spans to ``perfbench/traces/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every correctness
check passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

WORKLOADS = ("batch_fit", "stream_store", "serve_http")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]

    import importlib

    from harness import Run, work_dir

    # Every per-layer metric comes from a traced run, so it traces every path.
    names = WORKLOADS if args.trace else (args.workload,)
    modules = [importlib.import_module(name) for name in names]
    run = Run(args.workload, args.seed, args.seconds / len(modules), bool(args.trace))
    print(
        f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        file=sys.stderr,
    )
    with work_dir() as path:
        run.work_dir = path
        for module in modules:
            (module.trace if run.trace else module.measure)(run)
    return run.finish()


if __name__ == "__main__":
    sys.exit(main())
