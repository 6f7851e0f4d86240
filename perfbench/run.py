"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-pipeline --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer ones.  Both lists, with their units, are read from
``BENCHMARK.json`` (see ``perfbench/README.md``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import scenarios

    # One CPU for the whole run, child processes included.  The serve
    # workload's threads hand the GIL to each other all the time; spread
    # over two vCPUs of a shared VM its rounds ran about 1.7x slower and
    # far less steadily (see README.md, "Why a run uses one CPU").
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        outcome = scenarios.WORKLOADS[args.workload](scenarios.Run(
            workdir=workdir, src=SRC, seed=args.seed,
            seconds=args.seconds, trace=bool(args.trace),
        ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still works there

    listed = spec["per_layer" if args.trace else "end_to_end"]
    unlisted = set(outcome.metrics) - {m["name"] for m in listed}
    if unlisted:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unlisted)}",
              file=sys.stderr)
        return 2
    # A layer that does not run on this workload reports zero.
    values = {m["name"]: float(outcome.metrics.get(m["name"], 0.0)) if args.trace
              else outcome.metrics[m["name"]] for m in listed}
    for note in outcome.notes:
        print(f"# {note}")
    for m in listed:
        print(f"{m['name']:32s} {values[m['name']]:16.6f} {m['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
