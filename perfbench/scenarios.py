"""The benchmark's three workloads, their set-up, timing and checks.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome`: whether every output check passed, how many
user-level operations were attempted and failed, and the metrics of
the requested mode (end-to-end with tracing off, per-layer with it on).

* ``paper-pipeline`` -- the default durable ``repro pipeline`` run.  It
  is what users run: move proposal and refit, scalar simulation, the
  SQLite store, keying and the journal all sit on its critical path.
* ``pareto-batch`` -- one seeded candidate set scored for all 11
  profiles through ``ParetoExplorer.front`` on an in-memory engine.  It
  runs the batch path (keying, ``interval_batch``, ``design``) with no
  proposal, refit or store in the timed part: the control on which
  explore, store and journal changes must show no change.
* ``serve-closed`` -- an in-process service with 2 job slots over a
  fresh ``sqlite:`` store, driven by 2 closed-loop clients (submit,
  then wait for the result, as ``repro client submit --wait`` does,
  but polling every 50 ms) in rounds of 33 jobs.  Every third job
  repeats a spec of the round before and reads the store.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Callable

import layers
import measure
from spans import Tracer

#: Inputs a seed can select: ``seed % VARIANTS`` picks one, and
#: ``reference.json`` holds the expected digests of every variant.
VARIANTS = 8
#: Set-up is repeated this often before a run's measurement; the median
#: is reported.
SETUP_SAMPLES = 8
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

PIPELINE_BASE_SEED = 2008  # the CLI default: variant 0 is `repro pipeline`

PARETO_BASES = 2048  # design points, each in both core types

#: A serve round has this many fresh jobs per profile, and half as many
#: repeats: 22 fresh and 11 repeated jobs over the 11 profiles.
SERVE_FRESH_PER_PROFILE = 2
#: An untraced run serves at least this many timed rounds: 132 jobs, so
#: p90 has 13 samples beyond it.  Its peak RSS is read after the last of
#: them, because the service's memory grows with every job it serves.
SERVE_MIN_ROUNDS = 4
SERVE_ITERATIONS = 200
SERVE_CLIENTS = 2
SERVE_SLOTS = 2
SERVE_INPROCESS_SAMPLE = 2  # served results re-run in-process per run
#: Fixed client poll interval.  ``ServeClient.wait``'s default backoff
#: (50 ms growing by 1.6x) only notices a finished job at 0.06, 0.15,
#: 0.29, 0.5 ... s after submit, so p50 and p90 jump by 1.7x whenever
#: host speed moves jobs across one of those instants.  Polling at a
#: fixed 50 ms (the default's first interval) keeps them continuous.
SERVE_POLL_S = 0.05


@dataclass
class Run:
    """One benchmark invocation."""

    workdir: Path
    src: Path
    seed: int
    seconds: float
    trace: bool

    @property
    def variant(self) -> int:
        return self.seed % VARIANTS


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: Human-readable lines (sample counts, failed checks).
    notes: list[str] = field(default_factory=list)


class Checks:
    """Collects output checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE_FILE.read_text())


def sha256_json(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- set-up ------------------------------------------------------------------


def cold_import_s(run: Run, modules: str) -> float:
    """Time a fresh interpreter takes to import ``modules``, timed inside
    it so that interpreter start-up is left out."""
    env = dict(os.environ, PYTHONPATH=str(run.src))
    code = ("import time; started = time.perf_counter(); "
            f"import {modules}; print(time.perf_counter() - started)")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=run.workdir, check=True,
        capture_output=True, text=True,
    )
    return float(proc.stdout)


def setup_samples(run: Run, modules: str, step: Callable[[int], None]) -> list[float]:
    """:data:`SETUP_SAMPLES` set-ups, each a cold import of ``modules``
    plus ``step(i)``.

    All are taken before the measurement.  Taken after it, the
    in-process part runs beside the measurement's objects: on
    ``pareto-batch`` it took 0.30-0.45 s there, against 0.32-0.37 s
    before, in one run.
    """
    samples = []
    for i in range(SETUP_SAMPLES):
        imported = cold_import_s(run, modules)
        started = perf_counter()
        step(i)
        samples.append(imported + perf_counter() - started)
    return samples


def latency_metrics(latencies: list[float], notes: list[str], what: str) -> dict[str, float]:
    """p50 and p90 of ``latencies``, noting the sample count."""
    n = len(latencies)
    beyond = measure.samples_beyond(n, 90)
    notes.append(f"latency: {n} {what}, {beyond} beyond p90")
    if beyond >= measure.MIN_BEYOND:
        p90 = measure.tail_percentile(latencies, 90)
    else:
        notes.append(
            f"latency: p90 has fewer than {measure.MIN_BEYOND} samples beyond it"
            " on this workload; read it as indicative"
        )
        p90 = measure.percentile(latencies, 90)
    return {"latency_p50_s": measure.percentile(latencies, 50), "latency_p90_s": p90}


def file_bytes(root: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in root.rglob(pattern) if p.is_file())


def traced_metrics(
    tracer: Tracer, gc_s: float, traced_s: list[float], untraced_s: list[float]
) -> dict[str, float]:
    """Per-layer metrics per traced work unit, with coverage and overhead.

    ``traced_s``/``untraced_s`` are the wall times of the traced and
    untraced units of the run; the overhead is the difference of their
    means.
    """
    per = len(traced_s)
    metrics = layers.layer_metrics(tracer.totals(), per=per)
    wall = sum(traced_s) / per
    covered = metrics["trace.covered_s"]
    metrics.update({
        "python.gc_s": gc_s / per,
        "trace.wall_s": wall,
        "trace.other_s": wall - covered,
        "trace.covered_frac": covered / wall,
        "trace.overhead_s": wall - sum(untraced_s) / len(untraced_s),
    })
    return metrics


# -- paper-pipeline ----------------------------------------------------------

_LOOKUPS_RE = re.compile(r"over (\d+) lookups")


def pipeline_once(run: Run, name: str, tracer: Tracer | None) -> dict[str, Any]:
    """One ``repro pipeline --stats`` run in a fresh run directory."""
    from repro.cli import main

    run_dir = run.workdir / name
    argv = ["pipeline", "--run-dir", str(run_dir),
            "--seed", str(PIPELINE_BASE_SEED + run.variant), "--stats"]
    out = io.StringIO()
    gc_timer = measure.GcTimer()
    if tracer is not None:
        layers.install(tracer)
    try:
        with contextlib.redirect_stdout(out), gc_timer:
            started = perf_counter()
            code = main(argv)
            wall = perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    match = _LOOKUPS_RE.search(out.getvalue())
    return {"run_dir": run_dir, "code": code, "wall": wall, "gc": gc_timer,
            "tracer": tracer, "lookups": int(match.group(1)) if match else 0}


def artifact_digests(run_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((run_dir / "artifacts").glob("*.txt"))
    }


def pipeline_digests(run_dir: Path, seed: int, checks: Checks) -> dict[str, str]:
    """Digests of a finished run, after checking its configs and matrix.

    The run is reopened through ``run_pipeline(resume=True)``, which
    restores the exploration and cross matrix from the run's
    checkpoints; every customized config must pass ``validate_config``
    and every cross-matrix cell must equal the scalar
    ``IntervalSimulator`` bit for bit.
    """
    from repro.experiments import run_pipeline
    from repro.sim.interval import IntervalSimulator
    from repro.tech import default_technology
    from repro.uarch.config import validate_config
    from repro.errors import ConfigurationError

    artifacts = artifact_digests(run_dir)
    checks.expect(len(artifacts) == 9, f"expected 9 report artifacts, found {len(artifacts)}")
    pipe = run_pipeline(seed=seed, cache_dir=run_dir / "state", resume=True)
    pipe.engine.close()
    cross = pipe.cross
    tech = default_technology()
    for name, config in zip(cross.names, cross.configs):
        try:
            validate_config(config, tech)
        except ConfigurationError as exc:
            checks.expect(False, f"customized {name} config is illegal: {exc}")
    scalar = IntervalSimulator()
    mismatched = [
        (cross.names[i], cross.names[j])
        for i, profile in enumerate(pipe.profiles)
        for j, config in enumerate(cross.configs)
        if scalar.evaluate(profile, config).ipt != cross.ipt[i, j]
    ]
    checks.expect(not mismatched, f"cross cells differ from the scalar simulator: {mismatched[:3]}")
    return {
        "artifacts_sha256": sha256_json(artifacts),
        "cross_ipt_sha256": sha256_json(
            {"names": list(cross.names), "ipt": [[repr(float(v)) for v in row] for row in cross.ipt]}
        ),
    }


def paper_pipeline(run: Run) -> Outcome:
    setup = setup_samples(run, "repro.cli", lambda i: None)
    untraced = pipeline_once(run, "untraced", None)
    traced = pipeline_once(run, "traced", Tracer()) if run.trace else None

    checks = Checks()
    checks.expect(untraced["code"] == 0, f"repro pipeline exited {untraced['code']}")
    checks.expect(untraced["lookups"] > 0, "no engine lookup count in the --stats output")
    reference = load_reference()["paper-pipeline"][str(run.variant)]
    if checks.ok:
        digests = pipeline_digests(
            untraced["run_dir"], PIPELINE_BASE_SEED + run.variant, checks
        )
        for key, expected in reference.items():
            checks.expect(digests[key] == expected, f"{key} {digests[key]} != reference {expected}")
    if traced is not None:
        checks.expect(traced["code"] == 0, f"traced repro pipeline exited {traced['code']}")
        checks.expect(artifact_digests(traced["run_dir"]) == artifact_digests(untraced["run_dir"]),
                      "traced and untraced pipelines wrote different artifacts")
        checks.expect(traced["lookups"] == untraced["lookups"],
                      "traced and untraced pipelines made different engine lookups")

    notes = [f"pipeline seed {PIPELINE_BASE_SEED + run.variant}, "
             f"{untraced['lookups']} engine lookups"]
    wall = untraced["wall"]
    if traced is not None:
        run_dir = traced["run_dir"]
        metrics = traced_metrics(traced["tracer"], traced["gc"].seconds,
                                 [traced["wall"]], [wall])
        metrics["cache_backends.store_bytes"] = file_bytes(run_dir, "*.sqlite*")
        metrics["telemetry.journal_bytes"] = file_bytes(run_dir, "events.jsonl*")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "evals_per_s": untraced["lookups"] / wall,
            # The pipeline is one job: its latency is its wall time.
            "jobs_per_s": 1 / wall,
            **latency_metrics([wall], notes, "pipeline run"),
            "peak_rss_mb": measure.peak_rss_mb(),
        }
    return _finish(checks, 1, int(untraced["code"] != 0), metrics, notes)


def _finish(checks: Checks, attempted: int, failed: int,
            metrics: dict[str, float], notes: list[str]) -> Outcome:
    notes = notes + [f"check failed: {m}" for m in checks.failures]
    notes.append(f"failed_frac: {measure.failed_frac(attempted, failed):.4f} "
                 f"({failed} of {attempted})")
    return Outcome(checks.ok, attempted, failed, metrics, notes)


# -- pareto-batch ------------------------------------------------------------


def pareto_candidates(seed: int) -> list:
    """``PARETO_BASES`` distinct design points from a seeded move walk,
    each in both core types.

    ``sample_design_space`` would do this, but it catches only
    ``TimingError`` while a move can also raise ``ConfigurationError``
    (the probe in ``tests/test_known_defects.py``), so the benchmark
    walks itself and skips both, as ``engine.bench.generate_configs``
    does.
    """
    import numpy as np
    from repro.errors import ConfigurationError, TimingError
    from repro.explore.moves import MoveGenerator
    from repro.tech import CactiModel, default_technology
    from repro.uarch.config import CORE_TYPES, DesignSpace, initial_configuration

    tech = default_technology()
    moves = MoveGenerator(tech, CactiModel(tech), DesignSpace())
    rng = np.random.default_rng(seed)
    current = initial_configuration(tech)
    bases, seen = [current], {current}
    while len(bases) < PARETO_BASES:
        try:
            current = moves.propose(current, rng)
        except (TimingError, ConfigurationError):
            continue
        if current not in seen:
            seen.add(current)
            bases.append(current)
    return [base.replace(core_type=t) for base in bases for t in CORE_TYPES]


def pareto_batch_once(profiles: list, candidates: list) -> tuple[list, list[float], float]:
    """Every profile's front on a fresh in-memory engine: (fronts,
    per-front latencies, batch wall time)."""
    from repro.design import ParetoExplorer

    started = perf_counter()
    explorer = ParetoExplorer()
    fronts, latencies = [], []
    for profile in profiles:
        began = perf_counter()
        fronts.append(explorer.front(profile, configs=candidates))
        latencies.append(perf_counter() - began)
    return fronts, latencies, perf_counter() - started


def fronts_digest(fronts: list) -> str:
    return sha256_json([front.as_jsonable() for front in fronts])


def pareto_batch(run: Run) -> Outcome:
    from repro.sim.interval import IntervalSimulator
    from repro.workloads import spec2000_profiles

    state: dict[str, Any] = {}

    def step(i: int) -> None:
        state["profiles"] = spec2000_profiles()
        state["candidates"] = pareto_candidates(run.variant)

    setup = setup_samples(run, "repro.design, repro.workloads", step)
    profiles, candidates = state["profiles"], state["candidates"]
    lookups = len(profiles) * len(candidates)

    checks = Checks()
    walls: list[float] = []
    traced_walls: list[float] = []
    latencies: list[float] = []
    digests: set[str] = set()
    first = None
    tracer, gc_timer = Tracer(), measure.GcTimer()
    started = perf_counter()
    batch, wall = 0, 0.0
    while batch == 0 or keep_going(run, started, wall, batch):
        # A traced run alternates traced and untraced batches, so the
        # tracing overhead is measured on the same inputs in one process.
        traced = run.trace and batch % 2 == 1
        if traced:
            layers.install(tracer)
            try:
                with gc_timer:
                    fronts, lat, wall = pareto_batch_once(profiles, candidates)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
        else:
            fronts, lat, wall = pareto_batch_once(profiles, candidates)
            walls.append(wall)
            latencies.extend(lat)
        digests.add(fronts_digest(fronts))
        first = first or fronts
        batch += 1

    expected = load_reference()["pareto-batch"][str(run.variant)]["fronts_sha256"]
    checks.expect(digests == {expected}, f"front digests {sorted(digests)} != reference {expected}")
    scalar = IntervalSimulator()
    points = [(profile, point) for profile, front in zip(profiles, first) for point in front.points]
    mismatched = [point.config for profile, point in points
                  if scalar.evaluate(profile, point.config).ipt != point.ipt]
    checks.expect(not mismatched, f"{len(mismatched)} front points differ from the scalar simulator")

    notes = [f"{len(candidates)} candidates x {len(profiles)} profiles = {lookups} "
             f"lookups per batch; {len(walls)} untraced batches"]
    wall = statistics.median(walls)
    if run.trace:
        metrics = traced_metrics(tracer, gc_timer.seconds, traced_walls, walls)
        notes.append(f"{len(traced_walls)} traced batches; figures are per batch")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "evals_per_s": lookups / wall,
            "jobs_per_s": len(profiles) / wall,
            **latency_metrics(latencies, notes, "fronts"),
            "peak_rss_mb": measure.peak_rss_mb(),
        }
    attempted = batch * len(profiles)
    return _finish(checks, attempted, 0, metrics, notes)


# -- serve-closed ------------------------------------------------------------


def serve_round_specs(rng: random.Random, previous: list[dict[str, Any]],
                      used: set[tuple[str, int]]) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """One round's job list and its fresh specs.

    A round has :data:`SERVE_FRESH_PER_PROFILE` fresh jobs per profile,
    each with a search seed no earlier job used, in seeded order.  After
    every second fresh job comes an exact repeat of a fresh spec from
    ``previous``, the round before, whose results are stored by then.
    So a third of a round's jobs read the store, every round does the
    same mix of work whatever the seed, and the two clients always run
    fresh and repeated jobs side by side in the same pattern (a seeded
    pattern made round times vary by up to 1.5x).  Without ``previous``
    the round is all fresh.
    """
    from repro.workloads import SPEC2000_INT_NAMES

    fresh: list[dict[str, Any]] = []
    for name in SPEC2000_INT_NAMES:
        for _ in range(SERVE_FRESH_PER_PROFILE):
            key = (name, rng.randrange(1 << 20))
            while key in used:
                key = (name, rng.randrange(1 << 20))
            used.add(key)
            fresh.append({"kind": "customize", "benchmarks": [name],
                          "iterations": SERVE_ITERATIONS, "seed": key[1]})
    rng.shuffle(fresh)
    if not previous:
        return list(fresh), fresh
    repeats = [dict(spec) for spec in rng.sample(previous, len(fresh) // 2)]
    jobs = [job for i, spec in enumerate(repeats) for job in (*fresh[2 * i:2 * i + 2], spec)]
    return jobs, fresh


def boot_service(root: Path):
    """A started in-process service over a fresh SQLite store."""
    from repro.engine.cache_backends import make_backend
    from repro.serve import ExplorationService, ServiceThread

    root.mkdir(parents=True)
    spec = f"sqlite:{root / 'results.sqlite'}"
    make_backend(spec).close()  # create the store
    service = ExplorationService(jobs=SERVE_SLOTS, cache_backend=spec,
                                 serve_dir=root / "serve")
    return ServiceThread(service).start()


def drive_clients(url: str, specs: list[dict[str, Any]], seed: int) -> dict[str, Any]:
    """Closed loop: each client submits its next job once its last one
    finished.  Returns per-job records and latencies, and the counts.

    After each submit a client waits a seeded random fraction of
    :data:`SERVE_POLL_S` before its first poll.  Polls at fixed
    offsets from submit put every latency on a 50 ms lattice, and p50
    then jumped between two lattice points (0.22 and 0.27 s) from one
    run to the next.
    """
    from repro.errors import ServeClientError
    from repro.serve import ServeClient

    records: list[dict[str, Any] | None] = [None] * len(specs)
    latency: list[float | None] = [None] * len(specs)
    errors: list[str] = []
    counts = {"refused": 0, "failed": 0, "polls": 0}
    lock = threading.Lock()
    cursor = iter(range(len(specs)))

    def client_loop(k: int) -> None:
        client = ServeClient(url, timeout=60.0)
        phase = random.Random(seed + k)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                break
            began = perf_counter()
            try:
                job = client.submit(specs[i])
                sleep(phase.uniform(0.0, SERVE_POLL_S))
                record = client.wait(job["id"], timeout=120.0, poll_s=SERVE_POLL_S,
                                     max_poll_s=SERVE_POLL_S, backoff=1.0)
            except ServeClientError as exc:
                with lock:
                    refused = getattr(exc, "status", None) == 429
                    counts["refused" if refused else "failed"] += 1
                    errors.append(str(exc))
                continue
            latency[i] = perf_counter() - began
            records[i] = record
        with lock:
            counts["polls"] += client.counters["polls"]

    threads = [threading.Thread(target=client_loop, args=(k,)) for k in range(SERVE_CLIENTS)]
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"records": records, "latency": latency, "errors": errors,
            "wall": perf_counter() - started, **counts}


def serve_round(url: str, specs: list[dict[str, Any]], seed: int,
                tracer: Tracer | None) -> dict[str, Any]:
    gc_timer = measure.GcTimer()
    if tracer is not None:
        layers.install(tracer)
    try:
        with gc_timer:
            outcome = drive_clients(url, specs, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome["gc"] = gc_timer
    return outcome


def _served_ok(record: dict[str, Any] | None) -> bool:
    return record is not None and record.get("state") == "completed"


def _spec_key(spec: dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


def check_round(specs: list[dict[str, Any]], outcome: dict[str, Any],
                served: dict[str, str], checks: Checks) -> None:
    """Every job completed, and a spec served before returned the same
    bytes.  ``served`` maps each spec to its first result's JSON text.
    Sets ``outcome["repeat"]``: per job, whether its spec was served
    before."""
    records = outcome["records"]
    done = sum(_served_ok(r) for r in records)
    checks.expect(done == len(specs), f"{len(specs) - done} of {len(specs)} jobs did not complete")
    checks.expect(not outcome["errors"], f"client errors: {outcome['errors'][:3]}")
    outcome["repeat"] = [_spec_key(spec) in served for spec in specs]
    differing = 0
    for spec, record in zip(specs, records):
        if _served_ok(record):
            text = json.dumps(record["result"], sort_keys=True)
            differing += served.setdefault(_spec_key(spec), text) != text
    checks.expect(not differing, f"{differing} repeated specs returned different results")


def check_in_process(sample: list[dict[str, Any]], served: dict[str, str], checks: Checks) -> None:
    """Each sampled spec, run in-process on a fresh engine, equals its served result."""
    from repro.engine import EvaluationEngine
    from repro.serve import JobSpec, execute_job

    for spec in sample:
        local = execute_job(JobSpec.from_payload(spec), EvaluationEngine())
        local_text = json.dumps(json.loads(json.dumps(local)), sort_keys=True)
        checks.expect(local_text == served.get(_spec_key(spec)),
                      f"job {spec} differs from the in-process run")


def serve_layer_metrics(rounds: list[dict[str, Any]]) -> dict[str, float]:
    """Serve figures from the job records and client counters of ``rounds``."""
    served = [(r, lat) for o in rounds for r, lat in zip(o["records"], o["latency"])
              if _served_ok(r)]
    repeats = [r for o in rounds for r, again in zip(o["records"], o["repeat"])
               if again and _served_ok(r)]
    jobs = sum(len(o["records"]) for o in rounds)
    return {
        "serve.queue_wait_s": statistics.median([r["stats"]["queue_wait_s"] for r, _ in served]),
        "serve.run_s": statistics.median([r["stats"]["seconds"] for r, _ in served]),
        "serve.client_overhead_s": statistics.median(
            [lat - (r["finished_at"] - r["submitted_at"]) for r, lat in served]),
        "serve.polls_per_job": sum(o["polls"] for o in rounds) / jobs,
        "serve.repeat_zero_eval_frac": (
            sum(r["stats"]["evaluations"] == 0 for r in repeats) / len(repeats)
            if repeats else 0.0),
    }


def serve_lookups(outcome: dict[str, Any]) -> int:
    return sum(r["stats"]["cache_hits"] + r["stats"]["cache_misses"]
               for r in outcome["records"] if _served_ok(r))


def serve_closed(run: Run) -> Outcome:
    def step(i: int) -> None:
        root = run.workdir / f"boot{i}"
        boot_service(root).stop()
        shutil.rmtree(root)

    setup = setup_samples(run, "repro.serve", step)
    rng = random.Random(run.seed)
    used: set[tuple[str, int]] = set()
    served: dict[str, str] = {}
    checks = Checks()
    tracer = Tracer()
    root = run.workdir / "service"
    service = boot_service(root)
    try:
        # An untimed warm-up round of fresh jobs gives the first timed
        # round specs to repeat.  A traced run alternates untraced and
        # traced rounds on the one service.
        specs, fresh = serve_round_specs(rng, [], used)
        warm_up = drive_clients(service.base_url, specs, rng.randrange(1 << 30))
        check_round(specs, warm_up, served, checks)
        sample: list[dict[str, Any]] = []
        rounds: list[dict[str, Any]] = []
        started = perf_counter()
        while keep_serving(run, started, rounds):
            traced = run.trace and len(rounds) % 2 == 1
            specs, fresh = serve_round_specs(rng, fresh, used)
            outcome = serve_round(service.base_url, specs, rng.randrange(1 << 30),
                                  tracer if traced else None)
            check_round(specs, outcome, served, checks)
            outcome["traced"] = traced
            rounds.append(outcome)
            sample = sample or rng.sample(fresh, SERVE_INPROCESS_SAMPLE)
            if len(rounds) == SERVE_MIN_ROUNDS:
                rss_mb = measure.peak_rss_mb()
    finally:
        service.stop()
    check_in_process(sample, served, checks)
    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]

    per_round = len(specs)
    notes = [f"{per_round} jobs per round, {sum(rounds[0]['repeat'])} of them repeats; "
             f"{SERVE_CLIENTS} closed-loop clients, {SERVE_SLOTS} job slots; "
             f"1 warm-up and {len(untraced)} untraced rounds"]
    wall = statistics.median([r["wall"] for r in untraced])
    if run.trace:
        metrics = traced_metrics(tracer, sum(r["gc"].seconds for r in traced_rounds),
                                 [r["wall"] for r in traced_rounds],
                                 [r["wall"] for r in untraced])
        metrics.update(serve_layer_metrics(traced_rounds))
        # The store and journals hold every round, the warm-up's too.
        stored = len(rounds) + 1
        metrics["cache_backends.store_bytes"] = file_bytes(root, "*.sqlite*") / stored
        metrics["telemetry.journal_bytes"] = file_bytes(root, "events.jsonl*") / stored
        notes.append(f"{len(traced_rounds)} traced rounds; figures are per round; "
                     "coverage sums self time over concurrent threads")
    else:
        latencies = [x for r in untraced for x in r["latency"] if x is not None]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "evals_per_s": statistics.median([serve_lookups(r) / r["wall"] for r in untraced]),
            "jobs_per_s": per_round / wall,
            **latency_metrics(latencies, notes, "jobs"),
            "peak_rss_mb": rss_mb,
        }
    every = [warm_up, *rounds]
    attempted = sum(len(r["records"]) for r in every)
    failed = sum(not _served_ok(x) for r in every for x in r["records"])
    notes.append(f"{sum(r['refused'] for r in every)} refused, "
                 f"{sum(r['failed'] for r in every)} failed in the client")
    return _finish(checks, attempted, failed, metrics, notes)


def keep_serving(run: Run, started: float, rounds: list[dict[str, Any]]) -> bool:
    """Serve another round while it should end within ``run.seconds``,
    and at least :data:`SERVE_MIN_ROUNDS` rounds.  A traced run serves
    exactly that many: rounds differ in their fresh jobs, so per-round
    counts repeat for a seed only over the same rounds."""
    if run.trace or len(rounds) < SERVE_MIN_ROUNDS:
        return len(rounds) < SERVE_MIN_ROUNDS
    return keep_going(run, started, rounds[-1]["wall"], len(rounds))


def keep_going(run: Run, started: float, last_s: float, done: int) -> bool:
    """Start another unit while it should end within ``run.seconds``; a
    traced run does at least two (one untraced, one traced)."""
    if run.trace and done < 2:
        return True
    return perf_counter() - started + last_s <= run.seconds


WORKLOADS: dict[str, Callable[[Run], Outcome]] = {
    "paper-pipeline": paper_pipeline,
    "pareto-batch": pareto_batch,
    "serve-closed": serve_closed,
}
