"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload route_xl --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a traced run and prints the per-layer metrics.  Each
metric gets one table line with its unit and sample count; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_workloads():
    """The workload module, or exit 2 when the program is not here."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Temporary files of this process and its children stay in the checkout.
    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    try:
        import repro
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the router from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: measuring {repro.__file__}, not this checkout", file=sys.stderr)
        sys.exit(2)
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="net-count scale of the workload's chip (self-tests use small ones)",
    )
    args = parser.parse_args(argv)
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    report = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), scale=args.scale
    )
    # The region pool's shared memory starts multiprocessing's resource
    # tracker; stop it and wait for it, so no process outlives the run.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for name, (value, unit, samples) in report.metrics.items():
        print(f"{args.workload:16} {name:24} {value:16.6f} {unit:9} n={samples}")
    for note in report.notes:
        print(f"{args.workload:16} {note}")
    for failure in report.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in report.metrics.items()
        },
    }))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
