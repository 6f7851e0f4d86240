"""Record the reference digests every benchmark run is checked against.

Usage, from the repository root (about five minutes)::

    python3 perfbench/record.py

For each input variant it runs the default pipeline and one Pareto
batch and writes their digests to ``perfbench/reference.json``.  Run it
only when a change is meant to alter those outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import scenarios  # noqa: E402


def main() -> int:
    from repro.workloads import spec2000_profiles

    reference: dict[str, dict[str, dict[str, str]]] = {
        "paper-pipeline": {}, "pareto-batch": {},
    }
    profiles = spec2000_profiles()
    for variant in range(scenarios.VARIANTS):
        workdir = Path(tempfile.mkdtemp(prefix="perfbench-record-"))
        try:
            run = scenarios.Run(workdir, SRC, variant, 0.0, False)
            once = scenarios.pipeline_once(run, "pipeline", None)
            if once["code"] != 0:
                raise SystemExit(f"pipeline variant {variant} exited {once['code']}")
            checks = scenarios.Checks()
            digests = scenarios.pipeline_digests(
                once["run_dir"], scenarios.PIPELINE_BASE_SEED + variant, checks
            )
            if not checks.ok:
                raise SystemExit(f"variant {variant}: {checks.failures}")
            reference["paper-pipeline"][str(variant)] = digests
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        candidates = scenarios.pareto_candidates(variant)
        fronts, _, _ = scenarios.pareto_batch_once(profiles, candidates)
        reference["pareto-batch"][str(variant)] = {
            "fronts_sha256": scenarios.fronts_digest(fronts)
        }
        print(f"variant {variant}: {reference['paper-pipeline'][str(variant)]}", flush=True)
    scenarios.REFERENCE_FILE.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {scenarios.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
