"""Which public callables make up each layer, and the per-layer metrics.

:func:`install` wraps, on one :class:`~spans.Tracer`, the public
callables that bound each layer; :func:`layer_metrics` turns the tracer's
totals into the benchmark's per-layer metrics (their names and units
are listed in ``BENCHMARK.json``).  ``tech.cacti`` is
deliberately not wrapped: its millions of calls per pipeline would make
the wrappers dominate the traced run, so its time counts inside
``uarch.fit_s``/``uarch.refit_s``.
"""

from __future__ import annotations

from typing import Any

from spans import SpanStats, Tracer

#: Report renderers and writers as the CLI binds them.
_REPORT_NAMES = (
    "table4_rows", "table6_rows", "table7_summary", "figure6", "figure7",
    "figure8", "render_table", "render_matrix", "render_surrogate_graph",
    "write_artifact",
)


def _count(result: Any) -> tuple[float, float]:
    return float(len(result)), 0.0


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (undo with ``tracer.uninstall()``)."""
    import repro.cli as cli
    import repro.experiments as experiments
    import repro.experiments.pipeline as pipeline
    import repro.explore.moves as moves
    import repro.design.pareto as pareto
    from repro.design.constraints import ConstraintSet
    from repro.engine.cache import ResultCache
    from repro.engine.cache_backends import SQLiteBackend
    from repro.engine.events import EventBus
    from repro.engine.pool import EvaluationEngine
    from repro.engine.telemetry import RunJournal
    from repro.explore.xpscalar import XpScalar
    from repro.search.anneal import AnnealStrategy, MultiStartAnneal, SimulatedAnnealing
    from repro.search.local import HillClimbStrategy, RandomSearchStrategy
    from repro.sim.interval import IntervalSimulator
    from repro.sim.interval_batch import BatchIntervalModel

    wrap = tracer.wrap
    wrap(moves.MoveGenerator, "propose", "explore.propose")
    wrap(moves, "refit_config", "uarch.refit")
    for name in ("max_iq_size", "max_lsq_size", "max_rob_size",
                 "best_cache_geometry", "fitting_cache_geometries"):
        wrap(moves, name, "uarch.fit")

    wrap(SimulatedAnnealing, "run", "search.anneal",
         tally=lambda a, k, r: (float(r.accepted), float(r.evaluations)))
    for cls in (AnnealStrategy, MultiStartAnneal, HillClimbStrategy, RandomSearchStrategy):
        wrap(cls, "run", "search.strategy")

    wrap(IntervalSimulator, "evaluate", "sim.interval")
    wrap(BatchIntervalModel, "evaluate_batch", "sim.interval_batch",
         tally=lambda a, k, r: _count(r))

    wrap(EvaluationEngine, "evaluate", "engine.dispatch")
    wrap(EvaluationEngine, "evaluate_many", "engine.dispatch")
    wrap(EvaluationEngine, "key_for", "engine.keys")
    wrap(ResultCache, "get", "engine.cache_get",
         tally=lambda a, k, r: (0.0 if r is None else 1.0, 0.0))
    wrap(ResultCache, "put", "engine.cache_put")

    wrap(SQLiteBackend, "get", "cache_backends.get")
    wrap(SQLiteBackend, "put", "cache_backends.put")

    wrap(RunJournal, "append", "telemetry.journal")
    wrap(EventBus, "emit", "telemetry.emit")

    wrap(pipeline, "cross_performance", "characterize.cross")
    wrap(cli, "run_pipeline", "experiments.pipeline")
    wrap(XpScalar, "customize_all", "experiments.pipeline")
    for name in _REPORT_NAMES:
        wrap(cli, name, "experiments.report")
    # The report imports these two from the package at call time.
    wrap(experiments, "appendix_a_matrix", "experiments.report")
    wrap(experiments, "render_heatmap", "experiments.report")

    wrap(pareto.ParetoExplorer, "front", "design.front")
    wrap(ConstraintSet, "measure", "design.measure")
    wrap(pareto, "pareto_filter", "design.pareto_filter",
         tally=lambda a, k, r: _count(r))


#: Spans on the public entry points.  Their self time is whatever no
#: named layer below them covers, so it counts in ``trace.other_s``,
#: not in ``trace.covered_s``; each is still reported on its own.
CATCH_ALL = ("experiments.pipeline", "design.front")


def layer_metrics(totals: dict[str, SpanStats], per: int = 1) -> dict[str, float]:
    """Span-derived per-layer metrics, divided by ``per`` work units.

    Ratios are not divided.  Layers that did not run report zero.
    """
    def get(name: str) -> SpanStats:
        return totals.get(name) or SpanStats()

    def self_s(*names: str) -> float:
        return sum(get(n).self_s for n in names) / per

    def calls(*names: str) -> float:
        return sum(get(n).calls for n in names) / per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    propose = get("explore.propose")
    anneal = get("search.anneal")
    cache_get = get("engine.cache_get")
    return {
        "explore.propose_s": self_s("explore.propose"),
        "explore.propose_calls": calls("explore.propose"),
        "explore.propose_yield": ratio(propose.calls - propose.errors, propose.calls),
        "uarch.refit_s": self_s("uarch.refit"),
        "uarch.refit_calls": calls("uarch.refit"),
        "uarch.fit_s": self_s("uarch.fit"),
        "uarch.fit_calls": calls("uarch.fit"),
        "search.self_s": self_s("search.anneal", "search.strategy"),
        "search.runs": calls("search.anneal"),
        "search.accept_rate": ratio(anneal.a, anneal.b),
        "sim.interval_s": self_s("sim.interval"),
        "sim.interval_calls": calls("sim.interval"),
        "sim.interval_batch_s": self_s("sim.interval_batch"),
        "sim.interval_batch_rows": get("sim.interval_batch").a / per,
        "engine.dispatch_s": self_s("engine.dispatch"),
        "engine.lookups": calls("engine.cache_get"),
        "engine.keys_s": self_s("engine.keys"),
        "engine.keys_calls": calls("engine.keys"),
        "engine.cache_s": self_s("engine.cache_get", "engine.cache_put"),
        "engine.cache_hit_rate": ratio(cache_get.a, cache_get.calls),
        "cache_backends.put_s": self_s("cache_backends.put"),
        "cache_backends.put_calls": calls("cache_backends.put"),
        "cache_backends.get_s": self_s("cache_backends.get"),
        "cache_backends.get_calls": calls("cache_backends.get"),
        "telemetry.journal_s": self_s("telemetry.journal"),
        "telemetry.journal_lines": calls("telemetry.journal"),
        "telemetry.emit_s": self_s("telemetry.emit"),
        "telemetry.emit_calls": calls("telemetry.emit"),
        "characterize.cross_s": self_s("characterize.cross"),
        "experiments.pipeline_s": self_s("experiments.pipeline"),
        "experiments.report_s": self_s("experiments.report"),
        "design.front_s": self_s("design.front"),
        "design.measure_s": self_s("design.measure"),
        "design.pareto_filter_s": self_s("design.pareto_filter"),
        "design.front_points": get("design.pareto_filter").a / per,
        "trace.covered_s": sum(
            s.self_s for n, s in totals.items() if n not in CATCH_ALL) / per,
        "trace.spans": sum(s.calls for s in totals.values()) / per,
    }
