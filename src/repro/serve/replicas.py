"""Replica discovery, load balancing and failover for ``repro serve``.

One :class:`~repro.serve.client.ServeClient` talks to one replica; this
module makes a *fleet* of replicas usable as a single logical service:

* **health probing** — each replica's ``/v1/healthz`` is probed with a
  short timeout and cached for ``probe_ttl_s``; a replica that fails a
  call is marked down immediately and re-probed lazily, so a restarted
  replica rejoins the rotation without operator action;
* **deterministic load balancing** — jobs are placed by rendezvous
  hashing over the healthy replicas: the replica with the highest
  ``unit_draw(seed, url, job-digest)`` wins.  Placement is a pure
  function of (seed, healthy set, payload), so a replayed run submits
  the same jobs to the same replicas;
* **failover** — when a replica dies mid-job (connection refused/reset
  after the client's own retry budget, or a 404 from a replica that
  restarted and lost its job table), the job is *resubmitted* to the
  next healthy replica.  Replicas sharing one result store make this
  cheap and safe: the re-run is served from the store (or recomputed
  deterministically), so the final record is bit-identical to what the
  dead replica would have produced — the chaos suite asserts exactly
  this;
* **hedged status polls** — a poll that dawdles past ``hedge_s`` gets a
  second, concurrent attempt on a fresh connection; first answer wins.
  A replica with one wedged connection does not stall the wait loop;
* **SSE failover** — event streams resume on the same replica via the
  journal's ``Last-Event-ID`` contract; when the replica is gone, the
  stream fails over with the job (the re-run's journal restarts from
  sequence 1) and a synthetic ``replica_failover`` event marks the seam
  so consumers never mistake the restart for lost history.

Counters for all of it accumulate in :attr:`ReplicaSet.counters` (the
``repro_client_*`` telemetry the chaos harness exports).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..engine.keys import digest, unit_draw
from ..engine.resilience import RetryPolicy
from ..engine.telemetry import TraceContext
from ..errors import ServeClientError
from .client import ServeClient

#: Statuses that mean "this replica cannot take/continue the job right
#: now, another might": connection-level (None), overload, restart-loss.
_FAILOVER_STATUSES = (None, 404, 429, 500, 502, 503, 504)


@dataclass
class JobHandle:
    """One logical job, possibly re-homed across replicas.

    ``attempts`` records every ``(replica_url, job_id)`` incarnation in
    order; the last entry is the live one.
    """

    payload: dict[str, Any]
    replica: str
    job_id: str
    key: str
    attempts: list = field(default_factory=list)
    #: The distributed-trace context minted at first submit; every
    #: incarnation (failover resubmits included) reuses it, so the trace
    #: id is constant across the job's whole cross-replica story.
    trace: TraceContext | None = None

    @property
    def trace_id(self) -> str | None:
        return self.trace.trace_id if self.trace is not None else None

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "id": self.job_id,
            "replica": self.replica,
            "trace_id": self.trace_id,
            "attempts": [list(a) for a in self.attempts],
        }


class ReplicaSet:
    """A failover client over N service replicas sharing one store.

    Parameters
    ----------
    urls:
        Replica base URLs (``http://host:port``).  Order is irrelevant;
        placement is rendezvous-hashed.
    seed:
        Seed of the placement hash and of every per-replica client's
        deterministic retry backoff.
    timeout:
        Per-request timeout handed to each replica's client.
    retry:
        Transient-failure policy for the per-replica clients (each gets
        the policy reseeded per replica index, so their jitter streams
        stay disjoint but replayable).
    hedge_s:
        Status-poll hedging threshold; ``None`` disables hedging.
    probe_ttl_s:
        How long a health verdict stays fresh before re-probing.
    max_failovers:
        Total job re-homes tolerated before giving up (defaults to
        ``3 * len(urls)``).
    """

    def __init__(
        self,
        urls: list[str] | tuple[str, ...],
        seed: int = 0,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        hedge_s: float | None = 0.75,
        probe_ttl_s: float = 2.0,
        max_failovers: int | None = None,
    ) -> None:
        urls = tuple(dict.fromkeys(urls))  # dedupe, keep order for display
        if not urls:
            raise ServeClientError("a replica set needs at least one URL")
        self.urls = urls
        self.seed = seed
        self.hedge_s = hedge_s
        self.probe_ttl_s = probe_ttl_s
        self.max_failovers = (
            max_failovers if max_failovers is not None else 3 * len(urls)
        )
        base_retry = retry or RetryPolicy(
            max_retries=3, backoff_base_s=0.05, backoff_max_s=1.0
        )
        self.clients: dict[str, ServeClient] = {}
        self._probes: dict[str, ServeClient] = {}
        for index, url in enumerate(urls):
            self.clients[url] = ServeClient(
                url,
                timeout=timeout,
                retry=RetryPolicy(
                    max_retries=base_retry.max_retries,
                    backoff_base_s=base_retry.backoff_base_s,
                    backoff_factor=base_retry.backoff_factor,
                    backoff_max_s=base_retry.backoff_max_s,
                    jitter=base_retry.jitter,
                    seed=seed + index,
                ),
                retry_backpressure=True,
            )
            # Probes answer fast or not at all: short timeout, no retries.
            self._probes[url] = ServeClient(
                url,
                timeout=min(timeout, 2.0),
                retry=RetryPolicy(max_retries=0),
            )
        self._health = {
            url: {"ok": True, "at": float("-inf"), "error": None} for url in urls
        }
        self._lock = threading.Lock()
        self.counters = {
            "submits": 0,
            "resubmits": 0,
            "failovers": 0,
            "hedged_polls": 0,
            "set_polls": 0,
            "probes": 0,
        }

    # ------------------------------------------------------------------
    # health + placement
    # ------------------------------------------------------------------

    def probe(self, url: str) -> bool:
        """One live ``/v1/healthz`` round-trip; updates the cached verdict."""
        with self._lock:
            self.counters["probes"] += 1
        try:
            body = self._probes[url].health()
            ok = isinstance(body, dict) and body.get("status") in ("ok", "draining")
            error = None if ok else f"unexpected health body: {body!r}"
        except (ServeClientError, OSError) as exc:
            ok, error = False, str(exc)
        with self._lock:
            self._health[url] = {"ok": ok, "at": time.monotonic(), "error": error}
        return ok

    def mark_down(self, url: str, reason: str) -> None:
        """Record a replica as unhealthy without waiting for a probe."""
        with self._lock:
            self._health[url] = {
                "ok": False,
                "at": time.monotonic(),
                "error": reason,
            }

    def healthy_urls(self) -> list[str]:
        """Every replica currently believed healthy (probing stale ones).

        When *no* replica looks healthy, every one is re-probed once —
        a restarted replica rejoins here — before giving up.
        """
        now = time.monotonic()
        for url in self.urls:
            with self._lock:
                state = self._health[url]
                stale = now - state["at"] > self.probe_ttl_s
            if stale:
                self.probe(url)
        with self._lock:
            healthy = [url for url in self.urls if self._health[url]["ok"]]
        if not healthy:
            for url in self.urls:
                self.probe(url)
            with self._lock:
                healthy = [url for url in self.urls if self._health[url]["ok"]]
        if not healthy:
            with self._lock:
                reasons = {
                    url: self._health[url]["error"] for url in self.urls
                }
            raise ServeClientError(f"no healthy replicas: {reasons}")
        return healthy

    def rank(self, key: str, candidates: list[str] | None = None) -> list[str]:
        """Healthy replicas in rendezvous order for ``key`` (best first)."""
        pool = candidates if candidates is not None else self.healthy_urls()
        return sorted(
            pool,
            key=lambda url: unit_draw("replica-pick", self.seed, url, key),
            reverse=True,
        )

    def pick(self, key: str) -> str:
        """The preferred replica for ``key`` (deterministic)."""
        return self.rank(key)[0]

    def health_report(self) -> dict[str, Any]:
        with self._lock:
            return {url: dict(state) for url, state in self._health.items()}

    # ------------------------------------------------------------------
    # submit / status / result with failover
    # ------------------------------------------------------------------

    @staticmethod
    def payload_key(payload: dict[str, Any]) -> str:
        """Content digest of a job payload (the placement key)."""
        return digest(payload)

    @staticmethod
    def _is_failover(exc: ServeClientError) -> bool:
        return getattr(exc, "status", None) in _FAILOVER_STATUSES

    #: Full passes over the healthy ranking before a placement gives up.
    #: One pass can fail everywhere without any replica being down —
    #: under injected faults the per-connection streak bound protects
    #: the *proxy's* connection sequence, not any single caller's, so
    #: every candidate can lose its whole retry budget to interleaved
    #: bad luck.  A later pass re-probes and tries again.
    _placement_passes = 3

    def _place(
        self,
        payload: dict[str, Any],
        key: str,
        exclude: str | None,
        trace: TraceContext | None = None,
    ):
        """Submit ``payload`` to the best healthy replica; multi-pass walk."""
        last: ServeClientError | None = None
        for attempt in range(self._placement_passes):
            if attempt:
                time.sleep(0.2 * attempt)
            try:
                candidates = self.healthy_urls()
            except ServeClientError as exc:
                last = exc
                continue
            if exclude is not None:
                trimmed = [u for u in candidates if u != exclude]
                # The excluded replica may be the only one left (it
                # might have merely restarted) — reconsider everything.
                candidates = trimmed or candidates
            for url in self.rank(key, candidates):
                try:
                    return url, self.clients[url].submit(payload, trace=trace)
                except ServeClientError as exc:
                    if not self._is_failover(exc):
                        raise
                    last = exc
                    self.mark_down(url, str(exc))
        raise last or ServeClientError("no healthy replicas accepted the job")

    def submit(self, payload: dict[str, Any]) -> JobHandle:
        """Place one job on the best healthy replica (walking the ranking)."""
        key = self.payload_key(payload)
        trace = TraceContext.mint()
        url, submitted = self._place(payload, key, exclude=None, trace=trace)
        with self._lock:
            self.counters["submits"] += 1
        handle = JobHandle(
            payload=dict(payload),
            replica=url,
            job_id=submitted["id"],
            key=key,
            trace=trace,
        )
        handle.attempts.append((url, submitted["id"]))
        return handle

    def _failover(self, handle: JobHandle, reason: str) -> None:
        """Re-home ``handle`` onto the next healthy replica (resubmit)."""
        if len(handle.attempts) > self.max_failovers:
            raise ServeClientError(
                f"job {handle.job_id} exceeded {self.max_failovers} failovers "
                f"({reason})"
            )
        self.mark_down(handle.replica, reason)
        with self._lock:
            self.counters["failovers"] += 1
        # Resubmit under the SAME trace context: the re-run is the same
        # logical job, so its journal joins the original trace.
        url, submitted = self._place(
            handle.payload, handle.key, exclude=handle.replica, trace=handle.trace
        )
        with self._lock:
            self.counters["resubmits"] += 1
        handle.replica = url
        handle.job_id = submitted["id"]
        handle.attempts.append((url, submitted["id"]))

    def _with_failover(self, handle: JobHandle, call):
        """Run ``call(client, job_id)``, re-homing the job on replica loss."""
        while True:
            try:
                return call(self.clients[handle.replica], handle.job_id)
            except ServeClientError as exc:
                if not self._is_failover(exc):
                    raise
                self._failover(handle, str(exc))

    def status(self, handle: JobHandle) -> dict[str, Any]:
        return self._with_failover(handle, lambda c, j: c.status(j))

    def result(self, handle: JobHandle) -> dict[str, Any]:
        return self._with_failover(handle, lambda c, j: c.result(j))

    # ------------------------------------------------------------------
    # waiting (hedged polls)
    # ------------------------------------------------------------------

    def _hedged_status(self, handle: JobHandle) -> dict[str, Any]:
        """One status poll, hedged with a second connection when slow.

        Both attempts target the job's current replica (hedging defeats
        a slow/wedged *connection*; a dead *replica* is the failover
        path's job).  The first successful answer wins; if both fail the
        failure propagates to the failover logic.  Attempts run on
        daemon threads: an abandoned straggler never blocks shutdown.
        """
        client = self.clients[handle.replica]
        job_id = handle.job_id
        if self.hedge_s is None:
            return client.status(job_id)
        answers: "queue.Queue[tuple[str, Any]]" = queue.Queue()

        def attempt() -> None:
            try:
                answers.put(("ok", client.status(job_id)))
            except Exception as exc:  # handed back to the caller below
                answers.put(("error", exc))

        threading.Thread(
            target=attempt, name="repro-replica-poll", daemon=True
        ).start()
        launched = 1
        try:
            outcome, value = answers.get(timeout=self.hedge_s)
        except queue.Empty:
            with self._lock:
                self.counters["hedged_polls"] += 1
            threading.Thread(
                target=attempt, name="repro-replica-hedge", daemon=True
            ).start()
            launched = 2
            outcome, value = self._await_answer(answers, client, job_id)
        if outcome == "ok":
            return value
        if launched == 2:
            # The first answer was a failure; the other attempt may
            # still come through.
            outcome, value = self._await_answer(answers, client, job_id)
            if outcome == "ok":
                return value
        raise value

    def _await_answer(self, answers, client: ServeClient, job_id: str):
        """Next attempt outcome, bounded by the client's worst case."""
        worst = (client.retry.max_retries + 1) * client.timeout + 10.0
        try:
            return answers.get(timeout=worst)
        except queue.Empty:
            return (
                "error",
                ServeClientError(
                    f"hedged status poll for {job_id} produced no answer "
                    f"within {worst:.0f}s"
                ),
            )

    def wait(
        self,
        handle: JobHandle,
        timeout: float = 300.0,
        poll_s: float = 0.05,
        max_poll_s: float = 1.0,
        backoff: float = 1.6,
    ) -> dict[str, Any]:
        """Poll (with hedging + failover) until the job finishes."""
        deadline = time.monotonic() + timeout
        interval = max(poll_s, 0.001)
        while True:
            with self._lock:
                self.counters["set_polls"] += 1
            try:
                status = self._hedged_status(handle)
            except ServeClientError as exc:
                if not self._is_failover(exc):
                    raise
                self._failover(handle, str(exc))
                continue
            if status["state"] in ("completed", "failed"):
                return self.result(handle)
            if time.monotonic() > deadline:
                raise ServeClientError(
                    f"job {handle.job_id} still {status['state']} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(interval)
            interval = min(interval * backoff, max_poll_s)

    def run(self, payload: dict[str, Any], timeout: float = 300.0) -> dict[str, Any]:
        """Submit one job and wait it out (the one-call convenience)."""
        return self.wait(self.submit(payload), timeout=timeout)

    # ------------------------------------------------------------------
    # SSE with failover
    # ------------------------------------------------------------------

    def events(
        self, handle: JobHandle, timeout: float = 300.0
    ) -> Iterator[dict[str, Any]]:
        """Yield the job's journal events, surviving replica loss.

        Same-replica drops resume losslessly from the last seen event id
        (the service's ``Last-Event-ID`` contract).  When the replica is
        gone, the job fails over — the re-run journals from scratch, so
        the stream restarts at sequence 1 after a synthetic
        ``{"event": "replica_failover"}`` marker.
        """
        deadline = time.monotonic() + timeout
        after = 0
        while True:
            incarnation = (handle.replica, handle.job_id)
            client = self.clients[handle.replica]
            dropped: Exception | None = None
            try:
                for event in client.events(
                    handle.job_id,
                    after_seq=after,
                    reconnect=False,
                    timeout=max(deadline - time.monotonic(), 0.1),
                ):
                    after = max(after, int(event.get("seq", after)))
                    yield event
            except ServeClientError as exc:
                if not self._is_failover(exc):
                    raise
                dropped = exc
            if dropped is None:
                # The stream closed; completed streams end with the
                # server's terminator, but a mid-job drop looks the
                # same — only the job state can tell them apart.  The
                # status call may itself re-home the job (its replica
                # died after closing the stream) — detected below by
                # the incarnation check.
                if self.status(handle)["state"] in ("completed", "failed") and (
                    handle.replica,
                    handle.job_id,
                ) == incarnation:
                    return
            if time.monotonic() > deadline:
                raise ServeClientError(
                    f"event stream for {handle.job_id} incomplete "
                    f"after {timeout:.0f}s"
                )
            if (
                dropped is not None
                and (handle.replica, handle.job_id) == incarnation
                and not self.probe(handle.replica)
            ):
                self._failover(handle, str(dropped))
            if (handle.replica, handle.job_id) != incarnation:
                # The job was re-homed (by the drop path above or inside
                # a failover-wrapped status call): the re-run journals
                # from scratch, so restart the cursor and mark the seam.
                after = 0
                yield {
                    "event": "replica_failover",
                    "from": incarnation[0],
                    "to": handle.replica,
                    "job": handle.job_id,
                    "trace_id": handle.trace_id,
                }
            else:
                time.sleep(0.05)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def counters_snapshot(self) -> dict[str, int]:
        """Set-level counters plus the per-replica clients' sums.

        The aggregate keys are the ``repro_client_*`` metrics the chaos
        CLI exports: ``retries`` feeds ``repro_client_retries``.
        """
        with self._lock:
            merged = dict(self.counters)
        for name in ("requests", "retries", "retry_after_waits", "polls",
                     "reconnects"):
            merged[name] = sum(c.counters[name] for c in self.clients.values())
            merged[name] += self._probes_counter(name)
        return merged

    def _probes_counter(self, name: str) -> int:
        return sum(c.counters[name] for c in self._probes.values())

    def close(self) -> None:
        """Nothing to tear down (hedge threads are daemons); kept for
        symmetry with the context-manager protocol."""

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
