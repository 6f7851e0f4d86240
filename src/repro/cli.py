"""Command-line interface: regenerate any paper artifact from a shell.

Examples::

    python -m repro customize mcf
    python -m repro customize gzip mcf --jobs 2        # parallel suite run
    python -m repro customize mcf --strategy multistart --restarts 4
    python -m repro table 5 --iterations 1200 --jobs 4
    python -m repro table 5 --cache-dir .repro-cache   # warm-cache reruns
    python -m repro figure 7
    python -m repro sweep gzip --clocks 0.18 0.30 0.42
    python -m repro search-compare gzip mcf --iterations 400 --max-evals 500
    python -m repro validate
    python -m repro pipeline --run-dir runs/full           # durable run
    python -m repro resume runs/full                       # after a kill
    python -m repro runs list && python -m repro runs verify runs/full

Every exploration-running command accepts the engine flags: ``--jobs N``
(worker processes), ``--cache-dir DIR`` (persistent result cache +
checkpoint), ``--no-cache`` (simulate everything), ``--resume`` (continue
an interrupted exploration from the checkpoint in ``--cache-dir``),
``--stats`` (print evaluation counts, cache hit rate, per-phase wall
time and resilience counters when done), plus the resilience knobs:
``--retries N`` and ``--task-timeout S`` (see ``docs/resilience.md``)
and the chaos-testing hook ``--inject-faults SPEC`` (also honoured from
the ``REPRO_INJECT_FAULTS`` environment variable), e.g.
``--inject-faults 'seed=7,crash=0.05,hang=0.02'``.

``--run-dir DIR`` upgrades any of those commands to a *supervised run*
(see ``docs/runs.md``): DIR gets a versioned manifest, an exclusive
lock, the cache/checkpoints (under ``DIR/state``), a durable event
journal (``DIR/events.jsonl``), and the produced artifacts;
SIGINT/SIGTERM interrupt it cleanly (exit ``128+signum``) and
``repro resume DIR`` continues it with the original arguments.

Observability (see ``docs/observability.md``): ``--journal FILE``
journals any invocation, ``--metrics-out FILE`` exports counters and
latency histograms (Prometheus textfile format, or JSON for ``.json``
paths), and ``repro trace summary|slowest|critical-path|export`` reads
a journal back to answer "where did the time go"::

    python -m repro pipeline --run-dir runs/full --metrics-out metrics.prom
    python -m repro trace summary runs/full
    python -m repro trace slowest runs/full --top 20
    python -m repro trace export runs/full --out trace.json
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Sequence

from . import ops
from .communal import surrogate_merits
from .engine import (
    EvaluationEngine,
    FaultPlan,
    ProgressLine,
    RetryPolicy,
    RunDirectory,
    RunInterrupted,
    RunJournal,
    ShutdownCoordinator,
    digest,
    list_runs,
    write_json_atomic,
    write_text_atomic,
)
from .engine import trace as trace_analysis
from .engine import bench as engine_bench
from .errors import RunError
from .experiments import (
    build_engine,
    write_artifact,
    figure1,
    figure2_scenarios,
    figure4,
    figure6,
    figure7,
    figure8,
    render_kv,
    render_matrix,
    render_surrogate_graph,
    render_table,
    run_pipeline,
    table1_unit_delays,
    table2_fixed_parameters,
    table3_initial_configuration,
    table4_rows,
    table6_rows,
    table7_summary,
)
from .errors import ReproError
from .explore import AnnealingSchedule, XpScalar
from .sim import validate_interval_model
from .uarch import initial_configuration
from .workloads import SPEC2000_INT_NAMES, spec2000_profiles


def _engine_options() -> argparse.ArgumentParser:
    """Shared evaluation-engine flags (a parent parser)."""
    p = argparse.ArgumentParser(add_help=False)
    group = p.add_argument_group("evaluation engine")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for parallel evaluation, clamped to "
             "available cores (default: 1, serial)",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="directory for the persistent result cache and checkpoint",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable result caching (every evaluation simulates)",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted exploration from --cache-dir's checkpoint",
    )
    group.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="supervise this invocation as a durable run under DIR: "
             "manifest + lock + checkpoints + artifacts, clean "
             "SIGINT/SIGTERM shutdown, `repro resume DIR` to continue "
             "(see docs/runs.md)",
    )
    group.add_argument(
        "--stats", action="store_true",
        help="print evaluation/cache/phase statistics when done",
    )
    group.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append every engine event to FILE as a JSONL journal "
             "(--run-dir runs journal to <run-dir>/events.jsonl "
             "automatically; see docs/observability.md)",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write engine metrics (counters + latency histograms) on "
             "exit: Prometheus textfile format, or JSON when FILE ends "
             "in .json",
    )
    group.add_argument(
        "--no-progress", action="store_true",
        help="suppress the TTY heartbeat/progress line on stderr",
    )
    group.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retries per failing evaluation before giving up "
             "(default: 3)",
    )
    group.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="per-task deadline in seconds under --jobs > 1; a task "
             "overrunning it is retried on a fresh pool (default: none)",
    )
    group.add_argument(
        "--inject-faults", default=os.environ.get("REPRO_INJECT_FAULTS"),
        metavar="SPEC",
        help="arm deterministic fault injection for chaos testing, e.g. "
             "'seed=7,crash=0.05,hang=0.02,wrong=0.01' "
             "(default: $REPRO_INJECT_FAULTS)",
    )
    return p


def _pipeline_options() -> argparse.ArgumentParser:
    """The exploration flags of the pipeline commands (a parent parser):
    the cross matrix's iterations and seed plus the search flags."""
    p = argparse.ArgumentParser(add_help=False)
    ops.add_arguments(p, ops.CrossMatrix, only=("iterations", "seed"))
    group = p.add_argument_group("search strategy")
    ops.add_arguments(group, ops.Customize, only=ops.SEARCH_FIELDS)
    return p


def _resilience(args) -> tuple[RetryPolicy | None, FaultPlan | None]:
    """The retry policy and fault plan implied by engine flags."""
    policy = None
    if args.retries is not None or args.task_timeout is not None:
        defaults = RetryPolicy()
        policy = RetryPolicy(
            max_retries=args.retries if args.retries is not None
            else defaults.max_retries,
            timeout_s=args.task_timeout,
        )
    faults = FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    return policy, faults


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Configurational Workload Characterization' "
        "(ISPASS 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_opts = _engine_options()
    pipeline_opts = _pipeline_options()

    for op in ops.OPERATIONS.values():
        if op.command:
            p = sub.add_parser(op.kind, parents=[engine_opts], help=op.summary)
            ops.add_arguments(p, op)

    p = sub.add_parser("table", parents=[engine_opts, pipeline_opts],
                       help="regenerate a table of the paper")
    p.add_argument("which", choices=["1", "2", "3", "4", "5", "6", "7", "a"])

    p = sub.add_parser("figure", parents=[engine_opts, pipeline_opts],
                       help="regenerate a figure of the paper")
    p.add_argument("which", choices=["1", "2", "4", "6", "7", "8"])

    p = sub.add_parser(
        "validate", help="cross-validate the interval model against the cycle simulator"
    )
    p.add_argument("--trace-length", type=int, default=12000)

    p = sub.add_parser(
        "report", parents=[engine_opts, pipeline_opts],
        help="regenerate every table/figure artifact into a directory",
    )
    p.add_argument("--out", default="results")

    p = sub.add_parser(
        "pipeline", parents=[engine_opts, pipeline_opts],
        help="run the full pipeline as a durable, resumable run "
             "(exploration + cross matrix + report artifacts)",
    )
    p.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory (default: <run-dir>/artifacts)",
    )

    p = sub.add_parser(
        "resume",
        help="continue an interrupted supervised run with its original "
             "arguments",
    )
    p.add_argument("run_dir", metavar="RUN_DIR")

    p = sub.add_parser("runs", help="inspect supervised run directories")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    lp = runs_sub.add_parser("list", help="list run directories under a root")
    lp.add_argument(
        "--root", default="runs", metavar="DIR",
        help="directory holding run directories (default: runs)",
    )
    vp = runs_sub.add_parser(
        "verify",
        help="re-checksum a run's recorded artifacts and report corruption",
    )
    vp.add_argument("run_dir", metavar="RUN_DIR")
    vp.add_argument(
        "--quarantine", action="store_true",
        help="move corrupt artifacts aside (<name>.corrupt) so a resume "
             "cannot consume them",
    )

    p = sub.add_parser(
        "serve",
        help="run the long-lived exploration service: submit jobs over "
             "HTTP, stream progress as SSE, share one result store "
             "across replicas (see docs/serve.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8023,
                   help="TCP port (default: 8023; 0 picks an ephemeral port)")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="concurrent job slots / engine leases (default: 2)")
    p.add_argument(
        "--cache-backend", default="memory", metavar="SPEC",
        help="shared result store: 'memory', 'sqlite:<file>', "
             "'file:<dir>', or 'none' (default: memory; use one "
             "sqlite:<file> across replicas to share results)",
    )
    p.add_argument(
        "--tenant-budget", default=None, metavar="SPEC",
        help="per-tenant limits, e.g. "
             "'queued=16,running=2,evals=5000,moves=8000,patience=500'",
    )
    p.add_argument("--max-queued", type=int, default=64, metavar="N",
                   help="global admission queue bound (default: 64)")
    p.add_argument("--serve-dir", default=None, metavar="DIR",
                   help="directory for per-job event journals "
                        "(default: a temp dir)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the serve metrics registry on exit "
                        "(Prometheus textfile, or JSON for .json paths)")
    p.add_argument("--replica-id", default=None, metavar="ID",
                   help="stable replica identity stamped on journals and "
                        "surfaced by /v1/healthz (default: host:pid)")

    p = sub.add_parser(
        "client",
        help="talk to a running exploration service "
             "(submit/status/result/watch/list)",
    )
    p.add_argument(
        "--url", default=os.environ.get("REPRO_SERVE_URL", "http://127.0.0.1:8023"),
        help="service base URL (default: $REPRO_SERVE_URL or "
             "http://127.0.0.1:8023)",
    )
    client_sub = p.add_subparsers(dest="client_command", required=True)
    sp = client_sub.add_parser("submit", help="submit one job")
    submit_opts = argparse.ArgumentParser(add_help=False)
    submit_opts.add_argument("--tenant", default=None)
    submit_opts.add_argument("--wait", action="store_true",
                             help="block until the job finishes and print "
                                  "its result")
    submit_opts.add_argument("--stream", action="store_true",
                             help="stream progress events (SSE), then print "
                                  "the result")
    kinds = sp.add_subparsers(dest="kind", required=True)
    for op in ops.OPERATIONS.values():
        kp = kinds.add_parser(op.kind, parents=[submit_opts], help=op.summary)
        ops.add_arguments(kp, op, submit=True)
    sp = client_sub.add_parser("status", help="one job's state")
    sp.add_argument("job_id")
    sp = client_sub.add_parser("result", help="one finished job's result")
    sp.add_argument("job_id")
    sp = client_sub.add_parser(
        "watch", help="stream a job's events (reconnects resume losslessly)"
    )
    sp.add_argument("job_id")
    sp.add_argument("--after", type=int, default=0, metavar="SEQ",
                    help="resume after this event sequence number")
    sp.add_argument("--json", action="store_true",
                    help="one JSON object per event (machine form; the "
                         "default human lines surface trace ids)")
    client_sub.add_parser("list", help="every job the service knows")
    client_sub.add_parser("health", help="service liveness")

    p = sub.add_parser(
        "serve-bench",
        help="load-test a service (self-booted unless --url) and write "
             "latency percentiles + cache-hit rate to BENCH_serve.json",
    )
    p.add_argument("--url", default=None,
                   help="target an already-running service instead of "
                        "booting one in-process")
    p.add_argument("--jobs", type=int, default=12, metavar="N",
                   help="total jobs to submit (default: 12)")
    p.add_argument("--clients", type=int, default=4, metavar="N",
                   help="concurrent client threads (default: 4)")
    p.add_argument("--iterations", type=int, default=40, metavar="N",
                   help="annealing iterations per job (default: 40)")
    p.add_argument("--repeat-every", type=int, default=3, metavar="N",
                   help="every Nth job repeats the first spec verbatim "
                        "(default: 3)")
    p.add_argument("--service-jobs", type=int, default=2, metavar="N",
                   help="job slots for the self-booted service (default: 2)")
    p.add_argument("--cache-backend", default=None, metavar="SPEC",
                   help="backend for the self-booted service "
                        "(default: sqlite under a temp dir)")
    p.add_argument("--out", default="BENCH_serve.json", metavar="FILE",
                   help="report path (default: BENCH_serve.json)")
    p.add_argument("--check-slo", nargs="?", const="SLO.json", default=None,
                   metavar="SLO_FILE",
                   help="after the run, check the report against a "
                        "committed SLO file (default file: SLO.json); "
                        "exit nonzero on violation")

    p = sub.add_parser(
        "chaos",
        help="network-chaos acceptance run: replicas behind seeded fault "
             "proxies versus a fault-free baseline; exits nonzero on any "
             "non-identical result (see docs/serve.md)",
    )
    p.add_argument("--benchmark", nargs="+", default=["gzip"],
                   choices=SPEC2000_INT_NAMES,
                   help="one job per benchmark (default: gzip)")
    p.add_argument("--iterations", type=int, default=20, metavar="N",
                   help="annealing iterations per job (default: 20)")
    p.add_argument("--seed", type=int, default=5,
                   help="job seed of the first payload; later payloads "
                        "increment it (default: 5)")
    p.add_argument("--replicas", type=int, default=2, metavar="N",
                   help="service replicas behind fault proxies (default: 2)")
    p.add_argument(
        "--faults",
        default="seed=11,refuse=0.08,reset=0.06,truncate=0.06,"
                "error5xx=0.1,delay=0.08,delay-s=0.05",
        metavar="SPEC",
        help="seeded network fault plan, e.g. "
             "'seed=7,refuse=0.1,reset=0.05,truncate=0.05,error5xx=0.1,"
             "delay=0.1,delay-s=0.2,max-consecutive=2' (replayable: the "
             "same spec injects the same fault sequence)",
    )
    p.add_argument("--kill-one", action="store_true",
                   help="kill the replica that served the first job "
                        "mid-run; the survivors must finish the work")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="scratch directory for stores and journals "
                        "(default: a temp dir)")
    p.add_argument("--journal", default=None, metavar="FILE",
                   help="append every proxied connection's fate as JSON "
                        "lines (the chaos artifact CI uploads)")
    p.add_argument("--timeout", type=float, default=600.0, metavar="S",
                   help="per-job wait budget in seconds (default: 600)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the full chaos report (summary + journal) "
                        "as JSON")
    p.add_argument("--fleet-trace", default=None, metavar="FILE",
                   help="after the run, stitch every replica journal and "
                        "write the merged Chrome trace to FILE (the fleet "
                        "trace artifact CI uploads)")

    p = sub.add_parser(
        "bench-engine",
        help="benchmark scalar vs vectorized batch evaluation and write "
             "configs/sec + speedups to BENCH_engine.json",
    )
    p.add_argument("--profile", default="gzip", choices=SPEC2000_INT_NAMES,
                   help="workload profile to evaluate (default: gzip)")
    p.add_argument("--configs", type=int, default=512, metavar="N",
                   help="length of the seeded design-space walk "
                        "(default: 512)")
    p.add_argument("--batch-sizes", type=int, nargs="+",
                   default=list(engine_bench.DEFAULT_BATCH_SIZES), metavar="N",
                   help="batch widths to sweep (default: 16 64 256 512)")
    p.add_argument("--repeats", type=int, default=3, metavar="N",
                   help="timing repeats per measurement, best is kept "
                        "(default: 3)")
    p.add_argument("--seed", type=int, default=7,
                   help="seed for the config walk (default: 7)")
    p.add_argument("--out", default="BENCH_engine.json", metavar="FILE",
                   help="report path (default: BENCH_engine.json)")

    p = sub.add_parser(
        "trace",
        help="analyze a run's event journal: where did the time go? "
             "(see docs/observability.md)",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    def _journal_args(sp) -> None:
        sp.add_argument("target", nargs="?", default=None,
                        metavar="RUN_DIR_OR_JOURNAL")
        sp.add_argument("--journal", action="append", default=None,
                        metavar="PATH",
                        help="read this journal file/dir (repeatable; "
                             "multiple journals are concatenated)")

    sp = trace_sub.add_parser(
        "summary",
        help="phase totals, evaluation/cache counts, search breakdowns",
    )
    _journal_args(sp)
    sp.add_argument("--json", action="store_true",
                    help="emit the summary as JSON instead of text")
    sp = trace_sub.add_parser(
        "slowest", help="the top-N slowest worker tasks/evaluations"
    )
    _journal_args(sp)
    sp.add_argument("--top", type=int, default=10, metavar="N",
                    help="how many tasks to show (default: 10)")
    sp = trace_sub.add_parser(
        "critical-path",
        help="the chain of nested spans dominating the run's wall clock",
    )
    _journal_args(sp)
    sp = trace_sub.add_parser(
        "export",
        help="export the journal as Chrome trace-event JSON "
             "(chrome://tracing, ui.perfetto.dev)",
    )
    _journal_args(sp)
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write to FILE instead of stdout")
    sp = trace_sub.add_parser(
        "fleet",
        help="stitch multiple replica journals into one span tree with "
             "skew alignment; render cross-replica critical paths and "
             "failover seams (see docs/observability.md)",
    )
    sp.add_argument("journals", nargs="+", metavar="SERVE_DIR_OR_JOURNAL",
                    help="replica serve dirs and/or journal files")
    sp.add_argument("--trace", default=None, metavar="TRACE_ID",
                    help="restrict to one distributed trace id")
    sp.add_argument("--json", action="store_true",
                    help="emit the stitched summary as JSON")
    sp.add_argument("--export", default=None, metavar="FILE",
                    help="also write the merged Chrome trace to FILE")

    p = sub.add_parser(
        "fleet",
        help="operate on a fleet of serve replicas: aggregate status "
             "and metrics across every replica's API",
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)
    for name, blurb in (
        ("status", "per-replica health/jobs one-liners + fleet totals"),
        ("metrics", "merged Prometheus metrics (histograms summed "
                    "bucket-wise) with per-replica JSON breakdown"),
    ):
        sp = fleet_sub.add_parser(name, help=blurb)
        sp.add_argument("--url", action="append", required=True,
                        metavar="URL", dest="urls",
                        help="replica base URL (repeatable)")
        sp.add_argument("--json", action="store_true",
                        help="emit the full JSON snapshot")
        sp.add_argument("--out", default=None, metavar="FILE",
                        help="write the output to FILE (metrics: "
                             "Prometheus textfile, or JSON for .json "
                             "paths)")
        sp.add_argument("--timeout", type=float, default=10.0, metavar="S",
                        help="per-replica scrape timeout (default: 10)")

    p = sub.add_parser(
        "bench-compare",
        help="diff current bench reports against committed ones with "
             "tolerances; optionally check the serve report against "
             "SLO.json — exits nonzero on regression (the CI perf gate)",
    )
    p.add_argument("--serve", default="BENCH_serve.json", metavar="FILE",
                   help="current serve bench report "
                        "(default: BENCH_serve.json)")
    p.add_argument("--engine", default="BENCH_engine.json", metavar="FILE",
                   help="current engine bench report "
                        "(default: BENCH_engine.json)")
    p.add_argument("--committed", default=".", metavar="DIR",
                   help="directory holding the committed BENCH_*.json "
                        "(default: the repo root)")
    p.add_argument("--latency-tolerance", type=float, default=1.0,
                   metavar="FRAC",
                   help="allowed fractional p99 latency growth "
                        "(default: 1.0 = up to 2x)")
    p.add_argument("--throughput-tolerance", type=float, default=0.6,
                   metavar="FRAC",
                   help="allowed fractional throughput loss "
                        "(default: 0.6 = down to 0.4x)")
    p.add_argument("--speedup-tolerance", type=float, default=0.5,
                   metavar="FRAC",
                   help="allowed fractional engine-speedup loss "
                        "(default: 0.5 = down to 0.5x)")
    p.add_argument("--check-slo", nargs="?", const="SLO.json", default=None,
                   metavar="SLO_FILE",
                   help="also check the current serve report against "
                        "this SLO file (default file: SLO.json)")
    p.add_argument("--json", action="store_true",
                   help="emit the comparison as JSON")

    return parser


def _build_engine(args) -> EvaluationEngine:
    policy, faults = _resilience(args)
    engine = build_engine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        policy=policy,
        faults=faults,
    )
    run = getattr(args, "_run", None)
    if run is not None:
        # Route durability events (storage_degraded, lock_takeover,
        # quarantine) through the engine bus and mirror engine phases
        # and checkpoint heartbeats into the run manifest.
        run.events = engine.events
        run.lock.events = engine.events
        run.attach_engine(engine.events)
    _attach_telemetry(args, engine)
    return engine


def _attach_telemetry(args, engine: EvaluationEngine) -> None:
    """Hook the journal and TTY heartbeat to the bus.

    Both are strictly passive subscribers: they never touch stdout
    (the golden/determinism suites diff stdout) and never change what
    the engine computes.  A run directory journals automatically;
    ``--journal`` opts standalone invocations in.
    """
    run = getattr(args, "_run", None)
    journal_path = getattr(args, "journal", None)
    if journal_path is None and run is not None:
        journal_path = run.journal_path
    if journal_path is not None:
        args._journal = RunJournal(journal_path).attach(engine.events)
    if not getattr(args, "no_progress", False):
        heartbeat = ProgressLine(engine.events, engine.metrics)
        if heartbeat.active:
            args._heartbeat = heartbeat
        else:
            heartbeat.close()  # non-TTY: don't even subscribe


def _finish(args, engine: EvaluationEngine | None) -> int:
    """Common epilogue: flush the engine and honour ``--stats``."""
    heartbeat = getattr(args, "_heartbeat", None)
    if heartbeat is not None:
        heartbeat.close()
    if engine is not None:
        if getattr(args, "stats", False):
            print(f"--- engine stats ---\n{engine.metrics.summary()}")
        engine.close()
        if getattr(args, "metrics_out", None) is not None:
            engine.metrics.registry.write(pathlib.Path(args.metrics_out))
    journal = getattr(args, "_journal", None)
    if journal is not None:
        journal.close()
    return 0


def _pipeline(args):
    explorer = XpScalar(
        schedule=AnnealingSchedule(iterations=args.iterations),
        engine=_build_engine(args),
        strategy=args.strategy,
        budget=ops.budget_of(args),
        restarts=args.restarts,
        search_batch=args.search_batch,
    )
    return run_pipeline(
        explorer=explorer,
        seed=args.seed,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )


def _strip_resume(argv: Sequence[str]) -> list[str]:
    """The invocation minus ``--resume``: resuming is implied by run state."""
    return [token for token in argv if token != "--resume"]


def _orchestrated(args, fn) -> int:
    """Run ``fn(args)`` as a supervised run inside ``args.run_dir``.

    A fresh directory is initialized with a manifest recording the
    invocation; an existing one is resumed — provided it was created by
    the same command line (minus ``--resume``), so a resumed run cannot
    silently compute something different from what the manifest claims.
    """
    path = pathlib.Path(args.run_dir)
    argv = _strip_resume(getattr(args, "_argv", []))
    if (path / "manifest.json").exists():
        run = RunDirectory.open(path)
        if run.manifest.command != args.command or run.manifest.args_digest != digest(argv):
            raise RunError(
                f"{path} holds a different run "
                f"({' '.join(run.manifest.argv)!r}); refusing to resume it "
                f"with {' '.join(argv)!r} — use a fresh --run-dir"
            )
        args.resume = True
        print(f"resuming run {run.manifest.run_id} in {path}")
    else:
        run = RunDirectory.create(path, args.command, argv)
    if args.cache_dir is None:
        args.cache_dir = str(run.state_dir)
    args._run = run
    coordinator = ShutdownCoordinator()
    try:
        with run.supervise(coordinator):
            return fn(args)
    except RunInterrupted:
        print(
            f"interrupted; the run is resumable:\n  repro resume {path}",
            file=sys.stderr,
        )
        raise


def cmd_operation(args) -> int:
    """Run one :mod:`repro.ops` operation and print its text.

    Under ``--run-dir`` the text becomes the ``<command>.txt`` artifact;
    ``--out FILE`` also writes the operation's JSON document, recorded
    as a run artifact too.
    """
    params = ops.from_args(ops.OPERATIONS[args.command], args)
    engine = _build_engine(args)
    result = params.run(engine, checkpoint_dir=args.cache_dir, resume=args.resume)
    text = params.render(result)
    print(text)
    run = getattr(args, "_run", None)
    if run is not None:
        path = run.artifact_dir / f"{params.kind}.txt"
        write_artifact(path, text)
        run.record_artifact(path)
    out = getattr(params, "out", None)
    if out is not None:
        write_json_atomic(out, params.document(result), indent=2)
        if run is not None:
            run.record_artifact(pathlib.Path(out))
        print(f"wrote {out}")
    return _finish(args, engine)


def cmd_table(args) -> int:
    which = args.which
    if which == "1":
        config = initial_configuration(XpScalar().tech)
        print(render_kv({k: f"{v:.3f} ns" for k, v in table1_unit_delays(config).items()},
                        title="Table 1: unit delays (Table 3 configuration)"))
        return 0
    if which == "2":
        print(render_kv(table2_fixed_parameters(), title="Table 2: fixed parameters"))
        return 0
    if which == "3":
        print("Table 3: initial configuration")
        print(table3_initial_configuration().describe())
        return 0

    pipe = _pipeline(args)
    cross = pipe.cross
    if which == "4":
        headers, rows = table4_rows(pipe.characteristics, list(cross.names))
        print(render_table(headers, rows, title="Table 4: customized configurations"))
    elif which == "5":
        print(render_matrix(list(cross.names), cross.ipt,
                            title="Table 5: cross-configuration IPT"))
    elif which == "6":
        print("Table 6: best core combinations")
        for row in table6_rows(cross):
            c = row.combination
            print(f"  {row.label:35s} {', '.join(c.configs):30s} "
                  f"avg {c.average:.2f}  har {c.harmonic:.2f}  "
                  f"cw {c.contention_weighted:.2f}")
    elif which == "7":
        s = table7_summary(cross)
        rows = [
            ["ideal", f"{s.ideal_harmonic:.2f}", "0%"],
            [f"homogeneous ({s.homogeneous_config})",
             f"{s.homogeneous_harmonic:.2f}",
             f"{s.slowdown_vs_ideal(s.homogeneous_harmonic) * 100:.0f}%"],
            [f"complete search ({', '.join(s.complete_search_configs)})",
             f"{s.complete_search_harmonic:.2f}",
             f"{s.slowdown_vs_ideal(s.complete_search_harmonic) * 100:.0f}%"],
            [f"greedy surrogates ({', '.join(s.surrogate_configs)})",
             f"{s.surrogate_harmonic:.2f}",
             f"{s.slowdown_vs_ideal(s.surrogate_harmonic) * 100:.0f}%"],
        ]
        print(render_table(["scenario", "har IPT", "slowdown"], rows,
                           title="Table 7: dual-core summary"))
    else:  # appendix a
        print(render_matrix(list(cross.names), cross.slowdown_matrix(),
                            percent=True, fmt="{:5.1f}",
                            title="Appendix A: slowdowns"))
    return _finish(args, pipe.engine)


def cmd_figure(args) -> int:
    which = args.which
    if which == "1":
        graphs, dist = figure1()
        rows = [[g.name] + [f"{v:.1f}" for v in g.values] for g in graphs]
        print(render_table(["workload", *graphs[0].axes], rows,
                           title="Figure 1: Kiviat values (0-10)"))
        return 0
    if which == "2":
        rows = [
            [s.name, f"{s.clock_ns:.2f}", s.iq_size, f"{s.iq_slack_ns:.2f}",
             f"{s.l1_capacity_bytes // 1024}K", f"{s.l1_slack_ns:.2f}"]
            for s in figure2_scenarios()
        ]
        print(render_table(
            ["scenario", "clock", "IQ", "IQ slack", "L1", "L1 slack"], rows,
            title="Figure 2: slack scenarios"))
        return 0

    pipe = _pipeline(args)
    cross = pipe.cross
    if which == "4":
        series = figure4(cross)
        rows = [[w] + [f"{s.ipt[w]:.2f}" for s in series] for w in cross.names]
        print(render_table(["benchmark"] + [s.label for s in series], rows,
                           title="Figure 4: IPT per configuration set"))
    else:
        graph = {"6": figure6, "7": figure7, "8": figure8}[which](cross)
        print(render_surrogate_graph(graph))
        merits = surrogate_merits(cross, graph)
        print(f"harmonic IPT {merits['harmonic_ipt']:.2f}, "
              f"average slowdown {merits['average_slowdown'] * 100:.1f}%")
    return _finish(args, pipe.engine)


def cmd_validate(args) -> int:
    config = initial_configuration(XpScalar().tech)
    pairs = [(p, config) for p in spec2000_profiles()]
    report = validate_interval_model(pairs, trace_length=args.trace_length)
    print(f"pairs: {report.pairs}")
    print(f"rank correlation (IPT): {report.rank_correlation:.2f}")
    print(f"geometric-mean IPC ratio (interval/cycle): {report.mean_ratio:.2f}")
    print(f"worst ratio: {report.worst_ratio:.2f}")
    return 0


def _report_artifacts(pipe) -> dict[str, str]:
    """Every report rendering, keyed by artifact stem."""
    from .experiments import appendix_a_matrix, render_heatmap

    cross = pipe.cross
    headers, rows = table4_rows(pipe.characteristics, list(cross.names))
    artifacts = {
        "table4_customization": render_table(
            headers, rows, title="Table 4: customized configurations"
        ),
        "table5_cross_ipt": render_matrix(
            list(cross.names), cross.ipt, title="Table 5: cross-configuration IPT"
        ),
        "appendix_a_slowdowns": render_matrix(
            list(cross.names), appendix_a_matrix(cross), percent=True,
            fmt="{:5.1f}", title="Appendix A: slowdowns",
        ),
        "slowdown_heatmap": render_heatmap(
            list(cross.names), cross.slowdown_matrix(),
            title="cross-configuration slowdowns",
        ),
    }
    for figure_fn, name in ((figure6, "figure6"), (figure7, "figure7"), (figure8, "figure8")):
        artifacts[name] = render_surrogate_graph(figure_fn(cross))
    table6_lines = ["Table 6: best core combinations"]
    for row in table6_rows(cross):
        c = row.combination
        table6_lines.append(
            f"  {row.label:35s} {', '.join(c.configs):30s} "
            f"avg {c.average:.2f}  har {c.harmonic:.2f}"
        )
    artifacts["table6_combinations"] = "\n".join(table6_lines)
    s = table7_summary(cross)
    artifacts["table7_summary"] = (
        f"ideal {s.ideal_harmonic:.2f} | "
        f"homogeneous {s.homogeneous_harmonic:.2f} ({s.homogeneous_config}) | "
        f"search {s.complete_search_harmonic:.2f} "
        f"({', '.join(s.complete_search_configs)}) | "
        f"surrogates {s.surrogate_harmonic:.2f} ({', '.join(s.surrogate_configs)})"
    )
    return artifacts


def _write_report(args, pipe, out: pathlib.Path) -> None:
    """Atomically persist every report artifact into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    run = getattr(args, "_run", None)
    for name, text in _report_artifacts(pipe).items():
        path = out / f"{name}.txt"
        write_artifact(path, text)
        if run is not None:
            run.record_artifact(path, save=False)
        print(f"wrote {path}")
    if run is not None:
        run.save_manifest()


def cmd_report(args) -> int:
    pipe = _pipeline(args)
    _write_report(args, pipe, pathlib.Path(args.out))
    return _finish(args, pipe.engine)


def cmd_pipeline(args) -> int:
    """The full pipeline as a durable run: explore, cross-evaluate, report."""
    pipe = _pipeline(args)
    run = getattr(args, "_run", None)
    if args.out is not None:
        out = pathlib.Path(args.out)
    elif run is not None:
        out = run.artifact_dir
    else:
        out = pathlib.Path("results")
    _write_report(args, pipe, out)
    names = list(pipe.cross.names)
    print(f"pipeline complete: {len(names)} workloads, "
          f"{len(names) ** 2} cross-configuration cells")
    return _finish(args, pipe.engine)


def cmd_resume(args) -> int:
    """Re-dispatch an interrupted run with its recorded arguments."""
    run = RunDirectory.open(args.run_dir)
    manifest = run.manifest
    if manifest.status == "completed":
        print(f"{manifest.run_id}: already completed (exit {manifest.exit_code})")
        return 0
    resumed = build_parser().parse_args(list(manifest.argv))
    resumed._argv = list(manifest.argv)
    if getattr(resumed, "run_dir", None) is None:
        resumed.run_dir = str(args.run_dir)
    return _dispatch(resumed)


def cmd_runs(args) -> int:
    if args.runs_command == "verify":
        run = RunDirectory.open(args.run_dir)
        report = run.verify(quarantine=args.quarantine)
        print(report.render())
        return 0 if report.clean else 1
    rows = []
    for path, manifest in list_runs(args.root):
        if manifest is None:
            rows.append([str(path), "?", "UNREADABLE", "-", "-", "-"])
            continue
        done = sum(1 for p in manifest.phases if p.get("status") == "done")
        rows.append([
            str(path),
            manifest.run_id,
            manifest.status,
            f"{done}/{len(manifest.phases)}",
            len(manifest.artifacts),
            f"{manifest.wall_seconds:.1f}s",
        ])
    if not rows:
        print(f"no runs under {args.root}")
        return 0
    print(render_table(
        ["directory", "run", "status", "phases", "artifacts", "wall"], rows,
        title=f"runs under {args.root}",
    ))
    return 0


def _trace_events(args) -> tuple[list, str]:
    """Resolve a trace subcommand's input: one target and/or --journal paths.

    Returns ``(events, label)`` where *label* names the source for error
    messages.  Multiple journals are concatenated in path order.
    """
    from .serve.fleet import collect_journal_files

    targets = list(args.journal or [])
    if args.target is not None:
        targets.insert(0, args.target)
    if not targets:
        raise ReproError(
            "trace needs a RUN_DIR_OR_JOURNAL argument or --journal"
        )
    if len(targets) == 1 and args.journal is None:
        return list(trace_analysis.read_events(targets[0])), targets[0]
    events: list = []
    for path in collect_journal_files(targets):
        events.extend(trace_analysis.read_events(path))
    return events, ", ".join(str(t) for t in targets)


def cmd_trace(args) -> int:
    """Answer "where did the time go" from a run's event journal."""
    import json as _json

    if args.trace_command == "fleet":
        return _cmd_trace_fleet(args)
    events, label = _trace_events(args)
    if args.trace_command == "summary":
        summary = trace_analysis.summarize(events)
        if summary.events == 0:
            print(f"error: journal at {label} holds no events", file=sys.stderr)
            return 1
        if args.json:
            print(_json.dumps(summary.to_jsonable(), indent=2))
        else:
            print(summary.render())
        return 0
    if args.trace_command == "slowest":
        tasks = trace_analysis.slowest_tasks(events, top=args.top)
        print(trace_analysis.render_slowest(tasks))
        return 0
    if args.trace_command == "critical-path":
        path = trace_analysis.critical_path(events)
        print(trace_analysis.render_critical_path(path))
        return 0
    # export
    payload = trace_analysis.chrome_trace(events)
    text = _json.dumps(payload)
    if args.out is not None:
        out = write_text_atomic(args.out, text + "\n")
        print(f"wrote {out} ({len(payload['traceEvents'])} trace events)")
    else:
        print(text)
    return 0


def _span_jsonable(node, recurse: bool = True) -> dict:
    """JSON form of a :class:`~repro.engine.trace.SpanNode` subtree."""
    out = {
        "span": node.span,
        "name": node.name,
        "kind": node.kind,
        "seconds": round(node.seconds, 6),
        "start_ts": node.start_ts,
    }
    if recurse:
        out["children"] = [_span_jsonable(child) for child in node.children]
    return out


def _cmd_trace_fleet(args) -> int:
    """Stitch replica journals into one cross-replica span tree."""
    import json as _json

    from .serve import fleet as fleet_mod

    stitched = fleet_mod.stitch_journals(args.journals, trace_id=args.trace)
    roots = fleet_mod.fleet_span_tree(stitched)
    if args.export is not None:
        payload = fleet_mod.fleet_chrome_trace(stitched)
        out = write_text_atomic(args.export, _json.dumps(payload) + "\n")
        print(
            f"wrote {out} ({len(payload['traceEvents'])} trace events)",
            file=sys.stderr,
        )
    if args.json:
        print(_json.dumps(
            {
                "trace_ids": sorted(stitched.trace_ids),
                "journals": [
                    {
                        "path": str(view.path),
                        "replica_id": view.replica_id,
                        "events": len(view.events),
                        "shift_s": view.shift_s,
                    }
                    for view in stitched.journals
                ],
                "tree": [_span_jsonable(root) for root in roots],
                "critical_path": [
                    _span_jsonable(node, recurse=False)
                    for node in fleet_mod.fleet_critical_path(roots)
                ],
            },
            indent=2,
        ))
        return 0
    print(fleet_mod.render_fleet_tree(roots))
    print()
    print(fleet_mod.render_fleet_critical_path(
        fleet_mod.fleet_critical_path(roots)
    ))
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived exploration service until SIGINT/SIGTERM."""
    from .serve import ExplorationService, TenantPolicy

    policy = (
        TenantPolicy.parse(args.tenant_budget)
        if args.tenant_budget is not None
        else None
    )
    service = ExplorationService(
        jobs=args.jobs,
        cache_backend=args.cache_backend,
        serve_dir=args.serve_dir,
        tenant_policy=policy,
        max_total_queued=args.max_queued,
        replica_id=args.replica_id,
    )
    shown = args.port if args.port else "<ephemeral>"
    print(
        f"repro serve on http://{args.host}:{shown} "
        f"(jobs={args.jobs}, backend={args.cache_backend}) — "
        "Ctrl-C or SIGTERM drains and exits"
    )
    exit_code = service.serve_forever(host=args.host, port=args.port)
    if args.metrics_out is not None:
        out = service.registry.write(pathlib.Path(args.metrics_out))
        print(f"wrote {out}")
    return exit_code


def _print_client_counters(client) -> None:
    """Nonzero client counters on stderr (stdout stays parseable JSON)."""
    active = {name: count for name, count in client.counters.items() if count}
    if active:
        print(
            "client counters: "
            + " ".join(f"{name}={count}" for name, count in sorted(active.items())),
            file=sys.stderr,
        )


_WATCH_DETAIL_KEYS = (
    "job", "phase", "name", "benchmark", "config", "status", "key",
    "method", "from", "to", "replica", "replica_id", "seconds", "error",
    "evaluation", "cache_hit", "cache_miss",
)


def _format_watch_event(event: dict) -> str:
    """One human line per journal event, surfacing the trace id."""
    seq = event.get("seq", "?")
    kind = event.get("event", "?")
    details = " ".join(
        f"{key}={event[key]}"
        for key in _WATCH_DETAIL_KEYS
        if event.get(key) is not None
    )
    trace_id = event.get("trace_id")
    trace = f" trace={trace_id}" if trace_id else ""
    return f"[{seq}] {kind}" + (f" {details}" if details else "") + trace


def cmd_client(args) -> int:
    """One-shot interactions with a running service."""
    import json as _json

    from .serve import ServeClient

    client = ServeClient(args.url)
    command = args.client_command
    if command == "health":
        print(_json.dumps(client.health(), indent=2))
        return 0
    if command == "list":
        print(_json.dumps(client.list_jobs(), indent=2))
        return 0
    if command == "status":
        print(_json.dumps(client.status(args.job_id), indent=2))
        return 0
    if command == "result":
        print(_json.dumps(client.result(args.job_id), indent=2))
        return 0
    if command == "watch":
        for event in client.events(args.job_id, after_seq=args.after):
            if args.json:
                print(_json.dumps(event))
            else:
                print(_format_watch_event(event))
        _print_client_counters(client)
        return 0
    # submit
    payload = ops.payload_from_args(ops.OPERATIONS[args.kind], args)
    if args.tenant is not None:
        payload["tenant"] = args.tenant
    submitted = client.submit(payload)
    if args.stream:
        for event in client.events(submitted["id"]):
            print(_json.dumps(event))
        print(_json.dumps(client.result(submitted["id"]), indent=2))
        _print_client_counters(client)
    elif args.wait:
        print(_json.dumps(client.wait(submitted["id"]), indent=2))
        _print_client_counters(client)
    else:
        print(_json.dumps(submitted, indent=2))
    return 0


def cmd_serve_bench(args) -> int:
    """Load-test a service and write BENCH_serve.json."""
    from .serve import run_load_test

    report = run_load_test(
        url=args.url,
        total_jobs=args.jobs,
        clients=args.clients,
        iterations=args.iterations,
        repeat_every=args.repeat_every,
        service_jobs=args.service_jobs,
        cache_backend=args.cache_backend,
    )
    out = report.write(args.out)
    summary = report.to_jsonable()
    latency = summary["latency_s"]
    print(
        f"{report.completed}/{report.jobs} jobs completed "
        f"({report.failed} failed, {report.rejected} rejected) "
        f"in {report.wall_seconds:.2f}s"
    )
    print(
        f"latency p50={latency['p50']:.3f}s p95={latency['p95']:.3f}s "
        f"p99={latency['p99']:.3f}s; cache hit rate "
        f"{report.cache_hit_rate:.1%} ({report.cache_hits} hits)"
    )
    print(
        f"repeated jobs served from the store: "
        f"{report.repeated_with_zero_evaluations}/{report.repeated_jobs}"
    )
    print(f"wrote {out}")
    exit_code = 0 if report.failed == 0 else 1
    if args.check_slo is not None:
        from .serve.fleet import load_slo, slo_violations

        slo = load_slo(args.check_slo)
        violations = slo_violations(summary, slo)
        if violations:
            for line in violations:
                print(f"SLO violation: {line}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"SLO check against {args.check_slo}: ok")
    return exit_code


def cmd_chaos(args) -> int:
    """Network-chaos acceptance run (see docs/serve.md)."""
    import json as _json
    import tempfile

    from .serve import NetworkFaultPlan, run_chaos

    plan = NetworkFaultPlan.parse(args.faults)
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    payloads = [
        {
            "kind": "customize",
            "benchmarks": [name],
            "iterations": args.iterations,
            "seed": args.seed + index,
        }
        for index, name in enumerate(args.benchmark)
    ]
    report = run_chaos(
        payloads,
        plan,
        workdir,
        replicas=args.replicas,
        seed=plan.seed,
        kill_first_replica=args.kill_one,
        timeout_s=args.timeout,
        journal_path=args.journal,
    )
    summary = report.as_jsonable()
    print(_json.dumps(summary, indent=2, sort_keys=True))
    if args.out:
        write_text_atomic(
            args.out,
            _json.dumps(
                {**summary, "journal": report.journal}, indent=2, sort_keys=True
            )
            + "\n",
        )
        print(f"wrote {args.out}", file=sys.stderr)
    if args.fleet_trace and report.journal_dirs:
        from .serve import fleet as fleet_mod

        try:
            stitched = fleet_mod.stitch_journals(report.journal_dirs)
            payload = fleet_mod.fleet_chrome_trace(stitched)
            out_path = write_text_atomic(
                args.fleet_trace, _json.dumps(payload) + "\n"
            )
            print(
                f"wrote {out_path} "
                f"({len(payload['traceEvents'])} trace events, "
                f"{len(stitched.journals)} journal(s), "
                f"{len(stitched.trace_ids)} trace id(s))",
                file=sys.stderr,
            )
        except fleet_mod.FleetError as exc:
            print(f"fleet trace skipped: {exc}", file=sys.stderr)
    if not report.identical:
        print(
            "error: chaos run diverged from the fault-free baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_fleet(args) -> int:
    """Aggregate status/metrics across every replica of a serve fleet."""
    import json as _json

    from .serve import fleet as fleet_mod

    scrape = fleet_mod.scrape_fleet(args.urls, timeout=args.timeout)
    aggregate = fleet_mod.aggregate_fleet(scrape)
    if args.fleet_command == "status":
        text = (
            _json.dumps(aggregate, indent=2, sort_keys=True)
            if args.json
            else fleet_mod.render_fleet_status(aggregate)
        )
    else:  # metrics
        text = (
            _json.dumps(aggregate, indent=2, sort_keys=True)
            if args.json
            else fleet_mod.render_fleet_metrics(aggregate)
        )
    if args.out is not None:
        out = pathlib.Path(args.out)
        if args.fleet_command == "metrics" and out.suffix == ".json":
            body = _json.dumps(aggregate, indent=2, sort_keys=True)
        else:
            body = text
        write_text_atomic(out, body + "\n")
        print(f"wrote {out}", file=sys.stderr)
    print(text)
    if aggregate["errors"]:
        for url, error in sorted(aggregate["errors"].items()):
            print(f"error: {url} unreachable: {error}", file=sys.stderr)
        return 1
    if aggregate["fleet_size"] == 0:
        print("error: no replicas reachable", file=sys.stderr)
        return 1
    return 0


def cmd_bench_compare(args) -> int:
    """Perf gate: diff bench reports vs committed ones, check the SLO."""
    import json as _json

    from .serve import fleet as fleet_mod

    result = fleet_mod.compare_benches(
        serve_current=args.serve,
        engine_current=args.engine,
        committed_dir=args.committed,
        latency_tolerance=args.latency_tolerance,
        throughput_tolerance=args.throughput_tolerance,
        speedup_tolerance=args.speedup_tolerance,
    )
    slo_failures: list[str] = []
    if args.check_slo is not None:
        slo = fleet_mod.load_slo(args.check_slo)
        current = fleet_mod._load_report(args.serve)
        if current is None:
            result["skipped"].append(
                f"SLO check: no current serve report at {args.serve}"
            )
        else:
            slo_failures = fleet_mod.slo_violations(current, slo)
    ok = result["ok"] and not slo_failures
    if args.json:
        print(_json.dumps(
            {**result, "ok": ok, "slo_violations": slo_failures}, indent=2
        ))
    else:
        for entry in result["compared"]:
            print(
                f"{entry['metric']}: current={entry['current']:.4g} "
                f"committed={entry['committed']:.4g} "
                f"ratio={entry['ratio']:.2f}"
            )
        for line in result["skipped"]:
            print(f"skipped: {line}")
        for line in result["regressions"]:
            print(f"REGRESSION: {line}", file=sys.stderr)
        for line in slo_failures:
            print(f"SLO violation: {line}", file=sys.stderr)
        print("bench-compare: ok" if ok else "bench-compare: FAILED")
    return 0 if ok else 1


def cmd_bench_engine(args) -> int:
    report = engine_bench.run_engine_bench(
        profile_name=args.profile,
        configs=args.configs,
        batch_sizes=args.batch_sizes,
        repeats=args.repeats,
        seed=args.seed,
    )
    out = engine_bench.write_report(report, args.out)
    print(engine_bench.format_report(report))
    print(f"wrote {out}")
    return 0 if report["equivalence"]["equivalent"] else 1


_COMMANDS = {
    **{kind: cmd_operation for kind, op in ops.OPERATIONS.items() if op.command},
    "table": cmd_table,
    "figure": cmd_figure,
    "validate": cmd_validate,
    "report": cmd_report,
    "pipeline": cmd_pipeline,
    "resume": cmd_resume,
    "runs": cmd_runs,
    "trace": cmd_trace,
    "serve": cmd_serve,
    "client": cmd_client,
    "serve-bench": cmd_serve_bench,
    "chaos": cmd_chaos,
    "fleet": cmd_fleet,
    "bench-compare": cmd_bench_compare,
    "bench-engine": cmd_bench_engine,
}


def _dispatch(args) -> int:
    """Route a parsed invocation, orchestrating when a run dir is in play.

    ``pipeline`` is always supervised (defaulting to ``runs/pipeline``);
    other commands opt in with ``--run-dir``.
    """
    fn = _COMMANDS[args.command]
    if args.command == "pipeline" and args.run_dir is None:
        args.run_dir = os.path.join("runs", "pipeline")
    if getattr(args, "run_dir", None) and args.command not in ("resume", "runs"):
        return _orchestrated(args, fn)
    return fn(args)


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw)
    args._argv = raw
    try:
        return _dispatch(args)
    except RunInterrupted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
