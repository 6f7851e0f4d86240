"""Outside-in span tracing: wrap public callables, accumulate self time.

A :class:`Tracer` replaces chosen functions and methods with wrappers
that time each call.  Every thread keeps its own span stack, so spans
from concurrent service threads never nest into each other.  A span's
self time is its duration minus the time its child spans cover; its
duration is then charged to the parent span as child time.

Per-thread accumulators avoid a lock on the hot path; :meth:`Tracer.totals`
merges them once the workload has finished.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable

#: ``tally(args, kwargs, result) -> (a, b)``: two numbers added to the
#: span name's ``a``/``b`` accumulators after each successful call.
Tally = Callable[[tuple, dict, Any], tuple[float, float]]


class SpanStats:
    """Accumulated figures of one span name (summed over threads)."""

    __slots__ = ("self_s", "calls", "errors", "a", "b")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.errors = 0
        self.a = 0.0
        self.b = 0.0

    def add(self, other: "SpanStats") -> None:
        self.self_s += other.self_s
        self.calls += other.calls
        self.errors += other.errors
        self.a += other.a
        self.b += other.b


class Tracer:
    """Installs timing wrappers and keeps per-thread span stacks.

    A stack frame is a one-element list holding the time the frame's
    child spans have covered so far.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict[str, SpanStats]] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    def _state(self) -> tuple[list[list[float]], dict[str, SpanStats]]:
        """This thread's span stack and accumulators."""
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    # -- wrapping ---------------------------------------------------------

    def wrapper(self, fn: Callable, name: str, tally: Tally | None = None) -> Callable:
        """A traced stand-in for ``fn`` that records spans named ``name``.

        Kept flat: it runs around a million times in a traced pipeline,
        and its own cost is the tracing overhead.
        """
        state = self._state

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack, table = state()
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                duration = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats = table.get(name)
                if stats is None:
                    stats = table[name] = SpanStats()
                stats.self_s += duration - frame[0]
                stats.calls += 1
                if failed:
                    stats.errors += 1
                elif tally is not None:
                    a, b = tally(args, kwargs, result)
                    stats.a += a
                    stats.b += b

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap(self, owner: Any, attr: str, name: str, tally: Tally | None = None) -> None:
        """Replace ``owner.attr`` (a module function or a class's own
        method) by a traced wrapper; :meth:`uninstall` puts it back."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{owner.__name__}.{attr}: wrap plain methods only")
        else:
            original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(original, name, tally))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, SpanStats]:
        """Every span name's figures, merged over all threads."""
        merged: dict[str, SpanStats] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, stats in list(table.items()):
                merged.setdefault(name, SpanStats()).add(stats)
        return merged
