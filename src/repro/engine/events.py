"""Progress and metrics hooks for the evaluation engine.

The engine announces what it is doing through a tiny synchronous
:class:`EventBus`; anything — the CLI's ``--stats`` printer, a test
asserting "zero simulator invocations", the durable run journal
(:class:`~repro.engine.telemetry.RunJournal`) — subscribes a callback.
The bus deliberately has no queue or thread: callbacks run inline on the
emitting thread, so subscribers see events in exact program order.

The full event vocabulary (every event name and its payload keys) is
documented in ``docs/observability.md``; the bus itself does not
restrict names.  A raising subscriber never aborts the emitting code:
its exception is swallowed, a warning is printed once per subscriber,
and delivery continues to the remaining subscribers.

Beyond flat events, the bus carries **hierarchical spans**:
:meth:`EventBus.phase` and :meth:`EventBus.span` bracket a code region
with start/end events that carry stable ``trace``/``span``/``parent``
identifiers, so a subscriber (the journal) can reconstruct the nesting
tree of a whole run — including per-task spans stitched in from worker
processes by the pool (see :mod:`repro.engine.telemetry`).

The standard subscriber, :class:`~repro.engine.telemetry.EngineMetrics`,
lives with the metrics registry it feeds.
"""

from __future__ import annotations

import secrets
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Callback = Callable[[str, dict], Any]


def mint_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars, W3C shape)."""
    return secrets.token_hex(16)


class EventBus:
    """Synchronous publish/subscribe hub for engine progress events.

    The bus also owns the run's **trace context**: a ``trace_id`` naming
    this process's event stream and a stack of open spans.  Span
    identifiers are allocated in emission order (``s00001``, ``s00002``,
    ...), so they are stable for a given program order — two runs of the
    same deterministic computation produce the same span topology, and
    only timing fields differ.  ``tracing`` marks whether a durable
    subscriber (the run journal) wants fine-grained spans; the engine
    pool consults it before paying for worker-side span round-trips.
    """

    def __init__(self) -> None:
        self._subscribers: list[Callback] = []
        self._warned: set[int] = set()
        self.trace_id = mint_trace_id()
        self.tracing = False
        self._span_stack: list[str] = []
        self._span_count = 0

    def subscribe(self, callback: Callback) -> Callback:
        """Register ``callback(event, payload)``; returns it for symmetry."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callback) -> None:
        """Remove a previously subscribed callback (no-op if absent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def emit(self, event: str, **payload: Any) -> None:
        """Deliver one event to every subscriber, in subscription order.

        Subscriber exceptions are isolated: a raising callback is warned
        about once (to stderr) and delivery continues — a sick stats
        printer or journal must never abort the engine mid-batch.
        """
        for callback in list(self._subscribers):
            try:
                callback(event, payload)
            except Exception as exc:
                marker = id(callback)
                if marker not in self._warned:
                    self._warned.add(marker)
                    print(
                        f"warning: event subscriber {callback!r} raised "
                        f"{type(exc).__name__}: {exc}; continuing without it "
                        "(warned once)",
                        file=sys.stderr,
                    )

    # -- spans ----------------------------------------------------------

    def next_span_id(self) -> str:
        """Allocate the next span identifier (stable in program order)."""
        self._span_count += 1
        return f"s{self._span_count:05d}"

    @property
    def current_span(self) -> str | None:
        """The innermost open span's id, or ``None`` outside all spans."""
        return self._span_stack[-1] if self._span_stack else None

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "span",
        _start_event: str = "span_start",
        _end_event: str = "span_end",
        **attrs: Any,
    ) -> Iterator[str]:
        """Bracket a code region as a hierarchical span.

        Emits ``span_start``/``span_end`` (payload: ``name``, ``span``,
        ``parent``, ``trace``, ``kind``, plus any ``attrs``; ``seconds``
        on end).  Nested spans parent automatically; yields the span id
        so callers can parent out-of-band work (worker tasks) under it.
        """
        span_id = self.next_span_id()
        parent = self.current_span
        self.emit(
            _start_event,
            name=name,
            span=span_id,
            parent=parent,
            trace=self.trace_id,
            kind=kind,
            **attrs,
        )
        self._span_stack.append(span_id)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            self._span_stack.pop()
            self.emit(
                _end_event,
                name=name,
                span=span_id,
                parent=parent,
                trace=self.trace_id,
                kind=kind,
                seconds=time.perf_counter() - started,
                **attrs,
            )

    def phase(self, name: str):
        """Bracket a code region with ``phase_start``/``phase_end`` events.

        A phase is a span of kind ``"phase"`` that keeps its historical
        event names, so existing subscribers (metrics, run manifests)
        are untouched while the journal gains the span identifiers.
        """
        return self.span(
            name, kind="phase", _start_event="phase_start", _end_event="phase_end"
        )
