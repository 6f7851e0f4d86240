"""The evaluation engine: cache-aware, optionally parallel batch evaluation.

:class:`EvaluationEngine` is the single funnel through which exploration
and characterization code runs simulations.  It layers, in order:

1. **content-addressed caching** — every request is keyed by
   :func:`repro.engine.keys.evaluation_key`; hits skip the simulator
   entirely and are bit-identical to a fresh evaluation;
2. **batch deduplication** — :meth:`evaluate_many` simulates each
   distinct (workload, configuration) pair at most once per batch, no
   matter how often the batch repeats it (the Table-5 matrix fill
   overlaps heavily with cross-seeding);
3. **process-pool parallelism** — misses are simulated across
   ``jobs`` worker processes (each worker re-instantiates the simulator
   once, during pool initialization), falling back to serial execution
   whenever the work is not picklable or a pool cannot be created;
4. **resilience** — every accepted result passes integrity validation,
   failed or timed-out tasks are retried under the engine's
   :class:`~repro.engine.resilience.RetryPolicy` (bounded exponential
   backoff, deterministic jitter), a dead pool is rebuilt up to the
   policy's restart budget, and beyond that the engine degrades
   gracefully to serial execution instead of aborting the run.

Results are deterministic by construction: caching returns the exact
stored result, batches preserve request order, and the per-item work is
itself deterministic — so ``jobs=1`` and ``jobs=N`` produce bit-identical
outputs, *including* under retries, pool restarts and injected faults
(a retried evaluation re-runs the same deterministic simulator).

The engine also offers a generic :meth:`map` for coarse-grained task
parallelism (one annealing run per workload, one pinned-clock anneal per
sweep point) with the same retry/fallback guarantees.

Fault injection (:class:`~repro.engine.faults.FaultPlan`, the
``faults=`` parameter) exists to *test* all of the above: see
``docs/resilience.md``.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from ..errors import EngineError
from ..sim.interval import IntervalSimulator
from ..sim.interval_batch import BatchIntervalModel
from ..sim.metrics import SimResult
from ..workloads.profile import WorkloadProfile
from .cache import ResultCache
from .events import EventBus
from .faults import WRONG_RESULT, FaultPlan, InjectedCrash, InjectedFault, corrupt_result, enact
from .keys import digest, evaluation_key, simulator_id
from .resilience import (
    ResultIntegrityError,
    RetryPolicy,
    failure_reason,
    validate_result,
)
from .telemetry import EngineMetrics

T = TypeVar("T")
U = TypeVar("U")

Pair = tuple[WorkloadProfile, Any]

#: Sentinel distinguishing "default cache" from "explicitly no cache".
_DEFAULT_CACHE = object()


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def _is_broken_pool(exc: BaseException) -> bool:
    return type(exc).__name__ == "BrokenProcessPool"


# ----------------------------------------------------------------------
# worker-process plumbing (module level: must be picklable by name)
# ----------------------------------------------------------------------

_WORKER_SIMULATOR: Any = None


def _init_worker(simulator: Any) -> None:
    """Pool initializer: install this process's own simulator instance."""
    global _WORKER_SIMULATOR
    _WORKER_SIMULATOR = simulator


def _simulate_pairs(sim: Any, pairs: Sequence[Pair]) -> list[SimResult]:
    """Simulate pairs through the simulator's batch path when it has one.

    Pairs are grouped by profile (first-seen order) and each group goes
    through ``evaluate_batch`` in one call; results come back in input
    order.  Simulators without a batch path — and unbatchable inputs
    (single pair, unhashable profile subtype) — take the plain scalar
    loop.
    """
    evaluate_batch = getattr(sim, "evaluate_batch", None)
    if evaluate_batch is None or len(pairs) < 2:
        return [sim.evaluate(profile, config) for profile, config in pairs]
    groups: dict[Any, list[int]] = {}
    try:
        for i, (profile, _) in enumerate(pairs):
            groups.setdefault(profile, []).append(i)
    except TypeError:  # unhashable profile subtype
        return [sim.evaluate(profile, config) for profile, config in pairs]
    results: list[SimResult | None] = [None] * len(pairs)
    for profile, indices in groups.items():
        batch = evaluate_batch(profile, [pairs[i][1] for i in indices])
        for i, result in zip(indices, batch):
            results[i] = result
    return results  # type: ignore[return-value]


def _evaluate_chunk(pairs: Sequence[Pair]) -> list[SimResult]:
    """Simulate a chunk of (profile, config) pairs in a worker process."""
    sim = _WORKER_SIMULATOR
    if sim is None:  # serial in-process use
        sim = BatchIntervalModel()
    return _simulate_pairs(sim, pairs)


def _evaluate_task(
    task: tuple[WorkloadProfile, Any, str, int, FaultPlan | None],
) -> SimResult:
    """Simulate one pair in a worker, enacting any fault planned for it.

    One task per future (rather than a chunk) so the parent can time
    out, retry and re-attribute failures per evaluation.
    """
    profile, config, key, attempt, plan = task
    in_worker = _WORKER_SIMULATOR is not None
    sim = _WORKER_SIMULATOR if in_worker else IntervalSimulator()
    kind = None
    if plan is not None:
        kind = enact(plan, key, attempt, allow_exit=in_worker)
    result = sim.evaluate(profile, config)
    if kind == WRONG_RESULT:
        result = corrupt_result(result)
    return result


def _worker_record(submit_ts: float, start_ts: float, seconds: float) -> dict:
    """The timing facts a traced worker task ships back to the parent.

    Workers cannot reach the parent's bus, so traced task variants
    return ``(value, record)`` and the parent emits the ``task_span``
    event — with span ids allocated parent-side in harvest order, so
    trace topology stays deterministic.  ``queue_wait_s`` compares two
    wall clocks on the same machine (submit in parent, start in
    worker), which is exactly the pool's dispatch latency.
    """
    return {
        "worker_pid": os.getpid(),
        "start_ts": start_ts,
        "seconds": seconds,
        "queue_wait_s": max(start_ts - submit_ts, 0.0),
    }


def _evaluate_chunk_traced(
    payload: tuple[Sequence[Pair], float],
) -> tuple[list[SimResult], dict]:
    """Traced variant of :func:`_evaluate_chunk`: results + timing record."""
    pairs, submit_ts = payload
    start_ts = time.time()
    t0 = time.perf_counter()
    results = _evaluate_chunk(pairs)
    return results, _worker_record(submit_ts, start_ts, time.perf_counter() - t0)


def _evaluate_task_traced(
    payload: tuple[tuple[WorkloadProfile, Any, str, int, FaultPlan | None], float],
) -> tuple[SimResult, dict]:
    """Traced variant of :func:`_evaluate_task`: result + timing record.

    A failing attempt raises before any record exists — the parent's
    ``retry`` event already covers failed attempts.
    """
    task, submit_ts = payload
    start_ts = time.time()
    t0 = time.perf_counter()
    result = _evaluate_task(task)
    return result, _worker_record(submit_ts, start_ts, time.perf_counter() - t0)


def _map_call_traced(payload: tuple[Callable, Any, float]) -> tuple[Any, dict]:
    """Traced variant of one :meth:`EvaluationEngine.map` call."""
    fn, item, submit_ts = payload
    start_ts = time.time()
    t0 = time.perf_counter()
    value = fn(item)
    return value, _worker_record(submit_ts, start_ts, time.perf_counter() - t0)


def _chunked(items: Sequence[T], size: int) -> list[Sequence[T]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class EvaluationEngine:
    """Shared runtime for all (workload, configuration) evaluations.

    Parameters
    ----------
    simulator:
        Evaluator with ``evaluate(profile, config) -> SimResult``;
        defaults to the interval model.  It is shipped (pickled) to each
        worker process once at pool start-up, so each worker runs its own
        instance.
    jobs:
        Worker processes for batch/task parallelism; ``1`` (the default)
        stays fully serial and in-process.
    clamp_jobs:
        Bound the effective worker count by :func:`available_cpus`
        (default True): oversubscribing a 1-core container with
        ``jobs=4`` would only add dispatch overhead, never speed.  The
        requested ``jobs`` is kept as intent; ``workers`` is what runs.
        Pass False to force the pool regardless (tests do).
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching entirely;
        by default an in-memory cache is created.
    events:
        An :class:`EventBus` to emit progress on; a fresh bus (with an
        attached :class:`EngineMetrics`) is created by default.
    context:
        Extra identity folded into every cache key — pass the technology
        node so caches shared across technologies cannot collide.
    policy:
        The :class:`~repro.engine.resilience.RetryPolicy` governing
        retries, per-task timeouts, backoff and pool restarts; defaults
        to ``RetryPolicy()`` (retries on, no timeout).
    faults:
        Optional :class:`~repro.engine.faults.FaultPlan` injecting
        deterministic failures into evaluations (testing/chaos runs
        only; results remain bit-identical to a fault-free run).
    """

    def __init__(
        self,
        simulator: Any = None,
        jobs: int = 1,
        cache: ResultCache | None | object = _DEFAULT_CACHE,
        events: EventBus | None = None,
        context: Any = None,
        clamp_jobs: bool = True,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {jobs}")
        # The default simulator is the vectorized batch model: scalar
        # calls are inherited unchanged, batches hit the array path, and
        # its shared cache identity keeps keys interoperable with plain
        # IntervalSimulator results.
        self.simulator = simulator if simulator is not None else BatchIntervalModel()
        self.jobs = jobs
        self.workers = min(jobs, available_cpus()) if clamp_jobs else jobs
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults if faults is not None and faults.active else None
        self.cache: ResultCache | None
        if cache is _DEFAULT_CACHE:
            self.cache = ResultCache(path=None)
        else:
            self.cache = cache  # type: ignore[assignment]
        self.events = events or EventBus()
        self.metrics = EngineMetrics(self.events)
        if self.cache is not None:
            self.cache.on_quarantine = self._on_cache_quarantine
            self.cache.on_degrade = self._on_cache_degrade
        self._simulator_id = simulator_id(self.simulator)
        self._context_digest = "" if context is None else digest(context)
        self._context_bound = context is not None
        self._executor: ProcessPoolExecutor | None = None
        self._pool_broken = False
        self._pool_deaths = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def bind_context(self, context: Any) -> None:
        """Fold ``context`` (e.g. the technology node) into cache keys.

        Only the first binding takes effect; later calls with different
        content raise, because silently re-keying a warm cache would make
        earlier entries unreachable.
        """
        new = digest(context)
        if self._context_bound and new != self._context_digest:
            raise EngineError("engine context is already bound to different content")
        self._context_digest = new
        self._context_bound = True

    @property
    def context_bound(self) -> bool:
        return self._context_bound

    @property
    def mode(self) -> str:
        """``"pool"`` while worker parallelism is live, else ``"serial"``."""
        return "pool" if self.workers > 1 and not self._pool_broken else "serial"

    def key_for(self, profile: WorkloadProfile, config: Any) -> str:
        """The cache key this engine uses for one evaluation."""
        return evaluation_key(
            profile, config, simulator=self._simulator_id, context=self._context_digest
        )

    def phase(self, name: str):
        """Context manager timing a named phase (see :mod:`.events`)."""
        return self.events.phase(name)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, profile: WorkloadProfile, config: Any) -> SimResult:
        """One cache-aware evaluation (always in-process)."""
        if self.cache is None:
            key = self.key_for(profile, config) if self.faults is not None else ""
            result = self._evaluate_serial(profile, config, key)
            self.events.emit("evaluation", count=1)
            return result
        key = self.key_for(profile, config)
        hit = self.cache.get(key)
        if hit is not None:
            self.events.emit("cache_hit", count=1)
            return hit
        self.events.emit("cache_miss", count=1)
        result = self._evaluate_serial(profile, config, key)
        self.events.emit("evaluation", count=1)
        self.cache.put(key, result)
        return result

    def evaluate_many(self, pairs: Sequence[Pair]) -> list[SimResult]:
        """Evaluate a batch, dedup'd against the cache and within itself.

        Returns one result per input pair, in input order.  Each distinct
        (workload, configuration) content is simulated at most once; with
        ``jobs > 1`` the distinct misses are simulated across the worker
        pool in deterministic order.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        with self._interrupt_guard():
            if self.events.tracing:
                with self.events.span("batch", kind="batch", size=len(pairs)):
                    return self._evaluate_many(pairs)
            return self._evaluate_many(pairs)

    def _evaluate_many(self, pairs: Sequence[Pair]) -> list[SimResult]:
        if self.cache is None:
            results = self._simulate(pairs)
            self.events.emit("evaluation", count=len(pairs))
            self.events.emit("batch", size=len(pairs), unique=len(pairs), hits=0)
            return results

        keys = [self.key_for(profile, config) for profile, config in pairs]
        resolved: dict[str, SimResult] = {}
        missing: dict[str, Pair] = {}
        hits = 0
        for key, pair in zip(keys, pairs):
            if key in resolved or key in missing:
                continue
            cached = self.cache.get(key)
            if cached is not None:
                resolved[key] = cached
                hits += 1
            else:
                missing[key] = pair
        if hits:
            self.events.emit("cache_hit", count=hits)
        if missing:
            self.events.emit("cache_miss", count=len(missing))
            fresh = self._simulate(list(missing.values()), keys=list(missing))
            self.events.emit("evaluation", count=len(fresh))
            for key, result in zip(missing, fresh):
                self.cache.put(key, result)
                resolved[key] = result
        self.events.emit(
            "batch", size=len(pairs), unique=len(missing), hits=len(pairs) - len(missing)
        )
        return [resolved[key] for key in keys]

    def map(self, fn: Callable[[T], U], items: Iterable[T]) -> list[U]:
        """Apply ``fn`` to every item, in order, across the worker pool.

        ``fn`` must be a module-level (picklable) callable for parallel
        execution; anything unpicklable degrades to an in-process loop
        (announced via a ``fallback`` event), never to an error.  Under
        the pool, a broken worker or a task overrunning the policy's
        ``timeout_s`` triggers retries and pool restarts exactly like
        :meth:`evaluate_many`; exceptions raised by ``fn`` itself
        propagate to the caller.
        """
        items = list(items)
        if self.workers == 1 or len(items) < 2 or not self._picklable(fn, items):
            return [fn(item) for item in items]
        with self._interrupt_guard():
            return self._map_pooled(fn, items)

    def _map_pooled(self, fn: Callable[[T], U], items: list[T]) -> list[U]:
        n = len(items)
        results: dict[int, U] = {}
        attempts = [0] * n
        pending = list(range(n))
        traced = self.events.tracing
        while pending:
            executor = self._ensure_executor()
            if executor is None:
                for i in pending:
                    results[i] = fn(items[i])
                break
            submit_ts = time.time()
            futures = self._submit_all(
                executor,
                [
                    (i, _map_call_traced, ((fn, items[i], submit_ts),))
                    if traced
                    else (i, fn, (items[i],))
                    for i in pending
                ],
            )
            if futures is None:
                continue

            def accept_map(i: int, outcome: Any) -> None:
                if traced:
                    value, record = outcome
                    self._emit_task_span("map", record, key=f"map:{i}")
                else:
                    value = outcome
                results[i] = value

            failed, pool_death = self._collect(
                futures,
                accept_map,
                key_of=lambda i: f"map:{i}",
            )
            if failed is None:  # unpicklable mid-flight: finish serially
                for i in pending:
                    if i not in results:
                        results[i] = fn(items[i])
                break
            pending = self._account_failures(failed, attempts, lambda i: f"map:{i}")
            if pool_death is not None:
                self._note_pool_death(pool_death)
        return [results[i] for i in range(n)]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _emit_task_span(self, name: str, record: dict, **extra: Any) -> None:
        """Stitch one worker-measured task into the parent's trace.

        Called at harvest time, in deterministic (submission) order, so
        span ids and parentage match across runs; only the timing fields
        inside ``record`` vary.
        """
        self.events.emit(
            "task_span",
            name=name,
            span=self.events.next_span_id(),
            parent=self.events.current_span,
            trace=self.events.trace_id,
            **record,
            **extra,
        )

    @contextmanager
    def _interrupt_guard(self) -> Iterator[None]:
        """Never leak worker processes to an interrupt.

        A ``KeyboardInterrupt``/``SIGTERM`` (or any other non-``Exception``
        escape: ``SystemExit``, a run-orchestration interrupt) landing
        mid-batch used to unwind past ``close()``, leaving worker
        children alive and buffered cache writes unflushed.  Ordinary
        :class:`Exception` propagation is untouched — the engine stays
        usable after an evaluation error.
        """
        try:
            yield
        except BaseException as exc:
            if not isinstance(exc, Exception):
                self.terminate()
            raise

    def _evaluate_serial(
        self,
        profile: WorkloadProfile,
        config: Any,
        key: str,
        start_attempt: int = 0,
    ) -> SimResult:
        """One in-process evaluation under the retry policy.

        Injected faults (when a plan is armed) and integrity violations
        are retried with backoff up to ``policy.max_retries``; anything
        else — a genuine simulator error — propagates immediately, since
        a deterministic simulator will not heal on retry.
        """
        attempt = start_attempt
        while True:
            try:
                kind = None
                if self.faults is not None:
                    kind = enact(self.faults, key, attempt, allow_exit=False)
                result = self.simulator.evaluate(profile, config)
                if kind == WRONG_RESULT:
                    result = corrupt_result(result)
                return validate_result(profile, result)
            except (InjectedFault, ResultIntegrityError) as exc:
                attempt = self._before_retry(key, attempt, exc)

    def _before_retry(self, key: str, attempt: int, exc: BaseException) -> int:
        """Account one failed attempt: back off, or give up loudly."""
        next_attempt = attempt + 1
        if next_attempt > self.policy.max_retries:
            raise EngineError(
                f"evaluation {key[:12] or '<unkeyed>'} still failing after "
                f"{next_attempt} attempts: {exc}"
            ) from exc
        delay = self.policy.delay_s(key, next_attempt)
        self.events.emit(
            "retry",
            key=key,
            attempt=next_attempt,
            reason=failure_reason(exc),
            delay_s=delay,
        )
        if delay > 0:
            time.sleep(delay)
        return next_attempt

    def _keys_if_needed(self, pairs: Sequence[Pair], keys: Sequence[str] | None) -> list[str]:
        """Evaluation keys for backoff/fault addressing (cheap when unused)."""
        if keys is not None:
            return list(keys)
        if self.faults is not None:
            return [self.key_for(p, c) for p, c in pairs]
        return [""] * len(pairs)

    def _simulate(
        self, pairs: Sequence[Pair], keys: Sequence[str] | None = None
    ) -> list[SimResult]:
        """Simulate pairs (order-preserving), parallel when worthwhile."""
        if self.workers == 1 or len(pairs) < 2 or not self._picklable(_evaluate_chunk, pairs):
            if self.faults is None and len(pairs) > 1:
                # Serial batch fast path: one vectorized call per profile
                # group, with the same validate-and-raise semantics as
                # the chunked pool path.
                results = _simulate_pairs(self.simulator, pairs)
                for (profile, _), result in zip(pairs, results):
                    validate_result(profile, result)
                return results
            all_keys = self._keys_if_needed(pairs, keys)
            return [
                self._evaluate_serial(p, c, k)
                for (p, c), k in zip(pairs, all_keys)
            ]
        if self.faults is not None or self.policy.timeout_s is not None:
            return self._simulate_resilient(pairs, self._keys_if_needed(pairs, keys))
        return self._simulate_chunked(pairs, keys)

    def _simulate_chunked(
        self, pairs: Sequence[Pair], keys: Sequence[str] | None
    ) -> list[SimResult]:
        """The fast path: chunked pool dispatch, pool restarts on death.

        Without per-task timeouts or fault injection there is nothing to
        retry per evaluation, so work ships in chunks (~4 per worker —
        scheduling slack vs IPC cost).  A broken pool is rebuilt up to
        ``policy.pool_restarts`` times and the whole batch re-dispatched
        (the simulator is deterministic, so recomputation is safe);
        beyond the budget the engine degrades to serial.
        """
        chunk = max(1, -(-len(pairs) // (self.workers * 4)))
        traced = self.events.tracing
        while True:
            executor = self._ensure_executor()
            if executor is None:
                break
            try:
                if traced:
                    submit_ts = time.time()
                    work = [(c, submit_ts) for c in _chunked(pairs, chunk)]
                    outcomes = list(executor.map(_evaluate_chunk_traced, work))
                    chunks = []
                    for (batch_results, record), (batch_pairs, _) in zip(outcomes, work):
                        self._emit_task_span(
                            "chunk", record, items=len(batch_pairs)
                        )
                        chunks.append(batch_results)
                else:
                    chunks = list(executor.map(_evaluate_chunk, _chunked(pairs, chunk)))
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                self._fall_back(f"parallel execution failed ({exc}); retrying serially")
                break
            except Exception as exc:
                if not _is_broken_pool(exc):
                    self._shutdown_executor(cancel=True)
                    raise
                self._note_pool_death(f"worker pool broke ({exc})")
                continue
            flat = [result for batch in chunks for result in batch]
            for (profile, _), result in zip(pairs, flat):
                validate_result(profile, result)
            return flat
        all_keys = self._keys_if_needed(pairs, keys)
        return [
            self._evaluate_serial(p, c, k) for (p, c), k in zip(pairs, all_keys)
        ]

    def _simulate_resilient(
        self, pairs: Sequence[Pair], keys: Sequence[str]
    ) -> list[SimResult]:
        """Per-task pool dispatch with timeouts, retries and restarts.

        Each pending evaluation is its own future, harvested in
        submission order with the policy's per-task deadline.  Failed
        tasks are retried with backoff (fresh attempt numbers, so an
        armed fault plan draws fresh faults); a timeout or broken pool
        condemns the pool, which is rebuilt — or, once the restart
        budget is spent, abandoned for serial execution.  Output order
        and values are identical to the serial path.
        """
        n = len(pairs)
        results: dict[int, SimResult] = {}
        attempts = [0] * n
        pending = list(range(n))
        traced = self.events.tracing
        while pending:
            executor = self._ensure_executor()
            if executor is None:
                for i in pending:
                    profile, config = pairs[i]
                    results[i] = self._evaluate_serial(
                        profile, config, keys[i], start_attempt=attempts[i]
                    )
                break
            submit_ts = time.time()
            futures = self._submit_all(
                executor,
                [
                    (
                        i,
                        _evaluate_task_traced if traced else _evaluate_task,
                        (
                            ((pairs[i][0], pairs[i][1], keys[i], attempts[i], self.faults),
                             submit_ts)
                            if traced
                            else (pairs[i][0], pairs[i][1], keys[i], attempts[i],
                                  self.faults),
                        ),
                    )
                    for i in pending
                ],
            )
            if futures is None:
                continue

            def accept(i: int, outcome: Any) -> None:
                if traced:
                    result, record = outcome
                    self._emit_task_span(
                        "task", record, key=keys[i], attempt=attempts[i]
                    )
                else:
                    result = outcome
                results[i] = validate_result(pairs[i][0], result)

            failed, pool_death = self._collect(
                futures, accept, key_of=lambda i: keys[i]
            )
            if failed is None:  # unpicklable mid-flight: finish serially
                for i in pending:
                    if i not in results:
                        profile, config = pairs[i]
                        results[i] = self._evaluate_serial(
                            profile, config, keys[i], start_attempt=attempts[i]
                        )
                break
            pending = self._account_failures(failed, attempts, lambda i: keys[i])
            if pool_death is not None:
                self._note_pool_death(pool_death)
        return [results[i] for i in range(n)]

    def _submit_all(
        self, executor: ProcessPoolExecutor, work: Sequence[tuple[int, Any, tuple]]
    ) -> list[tuple[int, Any]] | None:
        """Submit every ``(index, fn, args)``; ``None`` if the pool died.

        A pool can break *between* rounds (a worker segfaults while
        idle), in which case ``submit`` itself raises — that counts as
        one pool death and the caller simply re-enters its round loop.
        """
        futures: list[tuple[int, Any]] = []
        try:
            for i, fn, args in work:
                futures.append((i, executor.submit(fn, *args)))
        except Exception as exc:
            if not _is_broken_pool(exc):
                self._shutdown_executor(cancel=True)
                raise
            self._note_pool_death(f"worker pool broke on submit ({exc})")
            return None
        return futures

    def _collect(
        self,
        futures: Sequence[tuple[int, Any]],
        accept: Callable[[int, Any], None],
        key_of: Callable[[int], str],
    ) -> tuple[list[tuple[int, BaseException]] | None, str | None]:
        """Harvest futures in order; sort outcomes into accepted/failed.

        Returns ``(failed, pool_death_reason)``.  ``failed`` is ``None``
        when the work itself proved unpicklable (permanent serial
        fallback was triggered; the caller finishes in-process).  After
        the pool is condemned (first timeout or break), remaining
        futures are only harvested if already done — nothing waits on a
        suspect pool.
        """
        failed: list[tuple[int, BaseException]] = []
        pool_death: str | None = None
        for i, fut in futures:
            if pool_death is not None and not fut.done():
                fut.cancel()
                failed.append((i, RuntimeError("abandoned after pool death")))
                continue
            try:
                accept(i, fut.result(timeout=self.policy.timeout_s))
            except (InjectedFault, ResultIntegrityError) as exc:
                failed.append((i, exc))
            except FuturesTimeout as exc:
                self.events.emit(
                    "task_timeout", key=key_of(i), timeout_s=self.policy.timeout_s
                )
                failed.append((i, exc))
                pool_death = (
                    f"task exceeded {self.policy.timeout_s}s deadline (hung worker)"
                )
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                self._fall_back(f"parallel work failed to pickle ({exc}); "
                                "retrying serially")
                return None, None
            except Exception as exc:
                if not _is_broken_pool(exc):
                    self._shutdown_executor(cancel=True)
                    raise
                failed.append((i, exc))
                pool_death = f"worker pool broke ({exc})"
        return failed, pool_death

    def _account_failures(
        self,
        failed: Sequence[tuple[int, BaseException]],
        attempts: list[int],
        key_of: Callable[[int], str],
    ) -> list[int]:
        """Bump attempt counts, emit retry events, sleep one backoff.

        Backoff is applied once per retry round (the longest delay among
        the round's failures) rather than serially per task, so a wide
        batch does not stack sleeps.
        """
        still_pending: list[int] = []
        worst_delay = 0.0
        for i, exc in failed:
            attempts[i] += 1
            if attempts[i] > self.policy.max_retries:
                self._shutdown_executor(cancel=True)
                raise EngineError(
                    f"task {key_of(i)[:12] or i} still failing after "
                    f"{attempts[i]} attempts: {exc}"
                ) from exc
            delay = self.policy.delay_s(key_of(i), attempts[i])
            worst_delay = max(worst_delay, delay)
            self.events.emit(
                "retry",
                key=key_of(i),
                attempt=attempts[i],
                reason=failure_reason(exc),
                delay_s=delay,
            )
            still_pending.append(i)
        if worst_delay > 0:
            time.sleep(worst_delay)
        return still_pending

    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        if self._pool_broken:
            return None
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(self.simulator,),
                )
            except (OSError, ValueError, pickle.PicklingError) as exc:
                self._fall_back(f"cannot start worker pool ({exc})")
                return None
        return self._executor

    def _picklable(self, fn: Any, items: Any) -> bool:
        try:
            pickle.dumps((fn, items))
            return True
        except Exception as exc:
            self._fall_back(f"work is not picklable ({exc})")
            return False

    def _shutdown_executor(self, cancel: bool = False) -> None:
        """Tear down the current pool (keeping the engine usable)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=not cancel, cancel_futures=cancel)
            except Exception:
                pass

    def _note_pool_death(self, reason: str) -> None:
        """One pool death: rebuild within budget, degrade to serial past it."""
        self._shutdown_executor(cancel=True)
        self._pool_deaths += 1
        if self._pool_deaths > self.policy.pool_restarts:
            self._fall_back(
                f"{reason}; restart budget ({self.policy.pool_restarts}) spent"
            )
            return
        self.events.emit("pool_restart", deaths=self._pool_deaths, reason=reason)

    def _fall_back(self, reason: str) -> None:
        """Degrade permanently to serial execution (never an error).

        The engine stops *claiming* pool mode too: ``workers`` drops to
        1 so later batches take the serial path directly instead of
        re-discovering the broken pool.
        """
        self._pool_broken = True
        self.workers = 1
        self._shutdown_executor(cancel=True)
        self.events.emit("fallback", reason=reason)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool and flush the cache to disk.

        Safe to call in any state — including after an exception escaped
        mid-``evaluate_many`` or the pool broke: outstanding futures are
        cancelled rather than waited on, so close never hangs on a sick
        pool.
        """
        self._shutdown_executor(cancel=self._pool_broken or self._pool_deaths > 0)
        if self.cache is not None:
            self.cache.flush()

    def terminate(self) -> None:
        """Forcibly stop the pool *now*: kill children, flush the cache.

        The interrupt/shutdown path.  Where :meth:`close` shuts down
        politely, ``terminate`` cancels queued work, SIGTERMs the worker
        processes (a cancelled future does not stop a task already
        running), and flushes buffered cache writes so completed work
        survives the exit.  Idempotent and never raises; the engine
        remains usable (a later batch would build a fresh pool).
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            # Grab the children before shutdown forgets them.  The
            # process table is a private attribute, so guard against
            # future stdlib changes — leaking on an unknown Python is
            # acceptable, crashing the shutdown path is not.
            table = getattr(executor, "_processes", None)
            processes = list(table.values()) if isinstance(table, dict) else []
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            for process in processes:
                try:
                    process.terminate()
                except Exception:
                    pass
        if self.cache is not None:
            try:
                self.cache.flush()
            except Exception:
                pass

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # A pickled engine (shipped inside a task to a worker process) wakes
    # up serial, with a fresh private memory cache and bus: workers must
    # not spawn nested pools, share SQLite handles, or carry the parent's
    # subscribers.  The retry policy and fault plan travel with it, so
    # nested evaluations keep the same resilience (and injectability).
    def __getstate__(self) -> dict:
        return {
            "simulator": self.simulator,
            "context_digest": self._context_digest,
            "context_bound": self._context_bound,
            "policy": self.policy,
            "faults": self.faults,
        }

    def __setstate__(self, state: dict) -> None:
        self.simulator = state["simulator"]
        self.jobs = 1
        self.workers = 1
        self.policy = state.get("policy") or RetryPolicy()
        self.faults = state.get("faults")
        self.cache = ResultCache(path=None)
        self.events = EventBus()
        self.metrics = EngineMetrics(self.events)
        self.cache.on_quarantine = self._on_cache_quarantine
        self._simulator_id = simulator_id(self.simulator)
        self._context_digest = state["context_digest"]
        self._context_bound = state["context_bound"]
        self._executor = None
        self._pool_broken = False
        self._pool_deaths = 0

    def _on_cache_quarantine(self, key: str, reason: str) -> None:
        self.events.emit("quarantine", tier="cache", key=key, reason=reason)

    def _on_cache_degrade(self, reason: str) -> None:
        self.events.emit("storage_degraded", tier="cache", reason=reason)
