"""Small measurement helpers shared by the workloads.

Percentiles use the nearest-rank definition: the ``q``-th percentile of
``n`` samples is the ``ceil(q * n / 100)``-th smallest.  A percentile is
only reported when at least :data:`MIN_BEYOND` samples lie beyond it,
so a single slow sample cannot be the tail figure.
"""

from __future__ import annotations

import gc
import resource
from time import perf_counter
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def nearest_rank(n: int, q: int) -> int:
    """1-based rank of the ``q``-th percentile (0 < q <= 100) of ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, -(-q * n // 100))


def samples_beyond(n: int, q: int) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile's rank."""
    return n - nearest_rank(n, q)


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def tail_percentile(values: Sequence[float], q: int) -> float:
    """:func:`percentile`, refusing a tail with too few samples beyond it."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q} of {len(values)} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return percentile(values, q)


def failed_frac(attempted: int, failed: int, refused: int = 0) -> float:
    """Failed or refused operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if failed < 0 or refused < 0 or failed + refused > attempted:
        raise ValueError(
            f"{failed} failed + {refused} refused of {attempted} attempted"
        )
    return (failed + refused) / attempted


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcTimer:
    """Total time spent in garbage collection while installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: float | None = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        elif self._started is not None:
            self.seconds += perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)
