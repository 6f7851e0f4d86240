"""Check that the benchmark is steady, and record a baseline.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/baseline.json

It makes two sets of ``--runs`` untraced runs of every workload in
``BENCHMARK.json``, each run with another seed.  For each set and each
end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the quartile
distance as a share of the median.  Every spread must be within the
metric's bound, and the two sets' medians must differ by no more than
the bound.  It then makes :data:`TRACED_RUNS` traced runs on one seed
per workload and checks that every per-layer count repeats exactly;
counts that depend on thread timing in ``serve-closed`` are listed, not
failed.  The exit code is 0 only when all of that holds and every run
was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

SETS = 2
TRACED_RUNS = 2
FIRST_SEED = 100  # set k uses seeds FIRST_SEED + k * runs onwards

#: Counts that depend on which service thread ran which job, so they
#: may differ between runs of one seed.
THREAD_DEPENDENT = {
    ("serve-closed", "cache_backends.get_calls"),
    ("serve-closed", "serve.polls_per_job"),
    ("serve-closed", "trace.spans"),
}


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    began = perf_counter()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout[-2000:]}")
    result["elapsed_s"] = perf_counter() - began
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report: dict = {"runs": args.runs, "run_seconds": spec["run_seconds"],
                    "sets": [], "agreement": {}, "traced": {}}
    ok = True
    for k in range(SETS):
        summaries: dict = {}
        for workload in workloads:
            seeds = range(FIRST_SEED + k * args.runs, FIRST_SEED + (k + 1) * args.runs)
            results = [run_once(spec["command"], workload, seed, spec["run_seconds"], 0)
                       for seed in seeds]
            elapsed = [r["elapsed_s"] for r in results]
            print(f"set {k + 1}, {workload}: seeds {seeds.start}-{seeds.stop - 1}, "
                  f"{max(elapsed):.0f} s longest run")
            summary = {"elapsed_s": elapsed}
            for name, bound in bounds.items():
                figures = summarize([r["metrics"][name]["value"] for r in results])
                summary[name] = {**figures, "bound": bound}
                within = figures["spread"] <= bound
                ok &= within
                print(f"  {name:16s} median {figures['median']:12.4f}"
                      f"  q1 {figures['q1']:12.4f}  q3 {figures['q3']:12.4f}"
                      f"  spread {figures['spread']:.4f} (bound {bound},"
                      f" third {bound / 3:.4f}){'' if within else '  OUT OF BOUND'}")
            summaries[workload] = summary
        report["sets"].append(summaries)

    print(f"agreement of the {SETS} sets' medians")
    for workload in workloads:
        report["agreement"][workload] = {}
        for name, bound in bounds.items():
            medians = [s[workload][name]["median"] for s in report["sets"]]
            change = max(abs(m / medians[0] - 1) for m in medians[1:])
            within = change <= bound
            ok &= within
            report["agreement"][workload][name] = {"medians": medians, "change": change}
            print(f"  {workload:15s} {name:16s} change {change:.4f} (bound {bound})"
                  f"{'' if within else '  OUT OF BOUND'}")

    for workload in workloads:
        traced = [run_once(spec["command"], workload, FIRST_SEED, spec["run_seconds"], 1)
                  for _ in range(TRACED_RUNS)]
        differing, thread_dependent = [], []
        for name, unit in units.items():
            values = {r["metrics"][name]["value"] for r in traced}
            if unit == "count" and len(values) > 1:
                (thread_dependent if (workload, name) in THREAD_DEPENDENT
                 else differing).append(name)
        ok &= not differing
        print(f"{workload} traced x{TRACED_RUNS}, seed {FIRST_SEED}: counts differing: "
              f"{differing or 'none'}; thread-dependent: {thread_dependent or 'none'}")
        report["traced"][workload] = {
            "runs": [{k: v["value"] for k, v in r["metrics"].items()} for r in traced],
            "elapsed_s": [r["elapsed_s"] for r in traced],
            "counts_differing": differing,
            "thread_dependent_counts_differing": thread_dependent,
        }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
