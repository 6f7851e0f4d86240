"""Sizing-to-fit: the coupling between clock period and unit sizes.

This module implements the paper's central mechanical rule (§3): when the
clock period or a unit's pipeline depth changes, "the size of the issue
queue, register-file/ROB, load-store queue, L1 and L2 caches, and
processor width [are] adjusted to make their access times fit within the
number of pipeline stages assigned to them".

The solver answers two questions for every sized unit:

* given a stage budget, what is the largest legal size that fits?
* given a size, how many stages does it need?

and provides :func:`refit_config`, which repairs an entire configuration
after a clock/depth move (growing a unit's depth when even the smallest
size no longer fits).

Unit delays do not depend on the clock, so both questions are answered
from per-(model, space) delay tables built once: a query only compares
stored delays against its stage budget instead of re-timing every
candidate through the CACTI model.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import TimingError
from ..tech import CactiModel, TechnologyNode
from ..tech.unitdelay import issue_queue_ns, l1_cache_ns, l2_cache_ns, lsq_ns, regfile_ns
from .config import (
    CacheGeometry,
    CoreConfig,
    DesignSpace,
    derived_frontend_stages,
    derived_memory_cycles,
)


def fits(delay_ns: float, budget_ns: float) -> bool:
    """True when a unit delay fits a stage budget (with float slack)."""
    return delay_ns <= budget_ns + 1e-9


def max_fitting(
    sizes: Sequence[int],
    delay_of: Callable[[int], float],
    budget_ns: float,
) -> int | None:
    """Largest size whose delay fits the budget, or None if none fits.

    Delays are monotone in size, so this scans from the top.
    """
    for size in sorted(sizes, reverse=True):
        if fits(delay_of(size), budget_ns):
            return size
    return None


def min_stages(
    delay_ns: float, tech: TechnologyNode, clock_period_ns: float, max_stages: int
) -> int | None:
    """Fewest stages whose budget covers the delay, or None beyond the cap."""
    usable = tech.usable_stage_time(clock_period_ns)
    if usable <= 0:
        return None
    needed = max(1, math.ceil(delay_ns / usable - 1e-9))
    return needed if needed <= max_stages else None


#: (size, delay) rows of one buffer, largest size first.
_Rows = tuple[tuple[int, float], ...]


class _DelayTables:
    """Clock-independent unit delays of one design space under one model.

    A unit's delay depends on its size and port count, never on the clock,
    so each table is built once (lazily, per unit) and every fit query
    becomes a comparison of stored delays against the query's budget.
    Buffers keep (size, delay) rows from the largest size down; a cache
    level keeps one delay per geometry, in the space's geometry order.
    The tables live on the model and hold no reference back to it, so a
    model is still freed as soon as its last user drops it.
    """

    def __init__(self, space: DesignSpace) -> None:
        self.space = space
        self._rows: dict[tuple[str, int], _Rows] = {}
        self._caches: dict[int, tuple[list[tuple[int, int, int]], np.ndarray, dict]] = {}

    def rows(self, model: CactiModel, unit: str, width: int = 0) -> _Rows:
        """Rows of the issue queue or ROB at ``width``, or of the LSQ."""
        rows = self._rows.get((unit, width))
        if rows is None:
            space = self.space
            sizes, delay_of = {
                "iq": (space.iq_sizes, lambda s: issue_queue_ns(model, s, width)),
                "rob": (space.rob_sizes, lambda s: regfile_ns(model, s, width)),
                "lsq": (space.lsq_sizes, lambda s: lsq_ns(model, s)),
            }[unit]
            rows = self._rows[unit, width] = tuple(
                (size, delay_of(size)) for size in sorted(sizes, reverse=True)
            )
        return rows

    def cache(
        self, model: CactiModel, level: int
    ) -> tuple[list[tuple[int, int, int]], np.ndarray, dict]:
        """(geometries, delays, geometry -> delay) of one cache level."""
        table = self._caches.get(level)
        if table is None:
            if level == 1:
                geometries, delay = self.space.l1_geometries(), l1_cache_ns
            elif level == 2:
                geometries, delay = self.space.l2_geometries(), l2_cache_ns
            else:
                raise ValueError(f"cache level must be 1 or 2, got {level}")
            delays = [delay(model, *g) for g in geometries]
            table = self._caches[level] = (
                geometries,
                np.array(delays, dtype=np.float64),
                dict(zip(geometries, delays)),
            )
        return table


def _tables(model: CactiModel, space: DesignSpace) -> _DelayTables:
    """The delay tables of ``space`` under ``model``, built on first use.

    They live on the model (keyed by the space's identity, which the
    entry pins), so they share the model's lifetime and its memo.
    """
    tables = model.derived.get(id(space))
    if tables is None or tables.space is not space:
        tables = model.derived[id(space)] = _DelayTables(space)
    return tables


def _largest_fitting(rows: _Rows, budget_ns: float) -> int | None:
    """:func:`max_fitting` over precomputed (size, delay) rows."""
    limit = budget_ns + 1e-9  # the fits() comparison
    for size, delay in rows:
        if delay <= limit:
            return size
    return None


def _fitting_indices(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    cycles: int,
    space: DesignSpace,
    level: int,
) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """A level's geometries and the (ordered) indices of those that fit."""
    budget = tech.budget(clock_period_ns, cycles)
    geometries, delays, _ = _tables(model, space).cache(model, level)
    return geometries, np.flatnonzero(delays <= budget + 1e-9)


def max_iq_size(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    stages: int,
    width: int,
    space: DesignSpace,
) -> int | None:
    """Largest issue queue whose wake-up+select loop fits ``stages``."""
    budget = tech.budget(clock_period_ns, stages)
    return _largest_fitting(_tables(model, space).rows(model, "iq", width), budget)


def max_rob_size(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    stages: int,
    width: int,
    space: DesignSpace,
) -> int | None:
    """Largest ROB/register file fitting the scheduler/regfile depth."""
    budget = tech.budget(clock_period_ns, stages)
    return _largest_fitting(_tables(model, space).rows(model, "rob", width), budget)


def max_lsq_size(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    stages: int,
    space: DesignSpace,
) -> int | None:
    """Largest LSQ whose associative search fits the LSQ depth."""
    budget = tech.budget(clock_period_ns, stages)
    return _largest_fitting(_tables(model, space).rows(model, "lsq"), budget)


def fitting_cache_geometries(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    cycles: int,
    space: DesignSpace,
    level: int,
) -> list[tuple[int, int, int]]:
    """All (nsets, assoc, block) triples of a level that fit ``cycles``,
    in the space's geometry order."""
    geometries, fitting = _fitting_indices(
        model, tech, clock_period_ns, cycles, space, level
    )
    return [geometries[i] for i in fitting]


def best_cache_geometry(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    cycles: int,
    space: DesignSpace,
    level: int,
    rng: np.random.Generator | None = None,
) -> CacheGeometry | None:
    """A geometry that fits ``cycles`` at this clock, or None.

    With an RNG the pick is random among the fitting geometries (the
    paper's "randomly varied to fit"); otherwise the largest capacity
    (ties broken toward higher associativity) is returned.
    """
    geometries, fitting = _fitting_indices(
        model, tech, clock_period_ns, cycles, space, level
    )
    if not len(fitting):
        return None
    if rng is not None:
        nsets, assoc, block = geometries[fitting[int(rng.integers(0, len(fitting)))]]
    else:
        nsets, assoc, block = max(
            (geometries[i] for i in fitting), key=lambda g: (g[0] * g[1] * g[2], g[1])
        )
    return CacheGeometry(nsets=nsets, assoc=assoc, block_bytes=block, latency_cycles=cycles)


def min_cache_cycles(
    model: CactiModel,
    tech: TechnologyNode,
    clock_period_ns: float,
    geometry: CacheGeometry,
    space: DesignSpace,
    level: int,
) -> int | None:
    """Fewest access cycles for a given geometry at this clock."""
    _, _, delay_of = _tables(model, space).cache(model, level)
    shape = (geometry.nsets, geometry.assoc, geometry.block_bytes)
    delay = delay_of.get(shape)
    if delay is None:  # a geometry outside the space
        delay = (l1_cache_ns if level == 1 else l2_cache_ns)(model, *shape)
    cap = space.max_l1_cycles if level == 1 else space.max_l2_cycles
    return min_stages(delay, tech, clock_period_ns, cap)


def refit_config(
    config: CoreConfig,
    tech: TechnologyNode,
    model: CactiModel,
    space: DesignSpace,
    rng: np.random.Generator | None = None,
) -> CoreConfig:
    """Repair a configuration so every unit fits its stage budget.

    Keeps each unit's pipeline depth if possible, shrinking the unit to
    the largest size that fits; when even the smallest size does not fit
    the current depth, the depth grows to the minimum that accommodates
    the smallest size.  Front-end stages and memory cycles are reset to
    their derived minimums for the (possibly new) clock.  Raises
    :class:`TimingError` when no repair exists inside the design space.
    """
    clock = config.clock_period_ns
    tables = _tables(model, space)

    # Issue queue: keep wakeup_latency (i.e. loop depth 1+latency) if any
    # size fits, else deepen the loop.  Repair only shrinks sizes — growth
    # happens through explicit exploration moves.
    iq_max, wakeup_stage = _refit_scalar_unit(
        rows=tables.rows(model, "iq", config.width),
        current_stage=1 + config.wakeup_latency,
        max_stage=1 + space.max_wakeup_latency,
        tech=tech,
        unit="issue queue",
        clock=clock,
    )
    iq = min(config.iq_size, iq_max)
    wakeup_latency = wakeup_stage - 1

    rob_max, scheduler_depth = _refit_scalar_unit(
        rows=tables.rows(model, "rob", config.width),
        current_stage=config.scheduler_depth,
        max_stage=space.max_scheduler_depth,
        tech=tech,
        unit="register file/ROB",
        clock=clock,
    )
    rob = min(config.rob_size, rob_max)

    lsq_max, lsq_depth = _refit_scalar_unit(
        rows=tables.rows(model, "lsq"),
        current_stage=config.lsq_depth,
        max_stage=space.max_lsq_depth,
        tech=tech,
        unit="load-store queue",
        clock=clock,
    )
    lsq = min(config.lsq_size, lsq_max)

    l1 = _refit_cache(config.l1, tech, model, space, clock, level=1, rng=rng)
    l2 = _refit_cache(config.l2, tech, model, space, clock, level=2, rng=rng)

    iq = min(iq, rob)  # invariant: issue queue never exceeds the ROB
    frontend = derived_frontend_stages(tech, clock)
    memory = derived_memory_cycles(tech, clock, l2.latency_cycles)

    return config.replace(
        iq_size=iq,
        wakeup_latency=wakeup_latency,
        rob_size=rob,
        scheduler_depth=scheduler_depth,
        lsq_size=lsq,
        lsq_depth=lsq_depth,
        l1=l1,
        l2=l2,
        frontend_stages=frontend,
        memory_cycles=memory,
    )


def _refit_scalar_unit(
    rows: _Rows,
    current_stage: int,
    max_stage: int,
    tech: TechnologyNode,
    unit: str,
    clock: float,
) -> tuple[int, int]:
    """Shrink a unit to fit its depth, deepening only when forced.

    Returns (size, stages).  The returned size is the *largest* fitting
    size; callers that want to keep a smaller current size clamp it.
    """
    for stages in range(current_stage, max_stage + 1):
        size = _largest_fitting(rows, tech.budget(clock, stages))
        if size is not None:
            return size, stages
    raise TimingError(
        f"no legal sizing for the {unit} at clock {clock:.3f} ns "
        f"within {max_stage} stages"
    )


def _refit_cache(
    cache: CacheGeometry,
    tech: TechnologyNode,
    model: CactiModel,
    space: DesignSpace,
    clock: float,
    level: int,
    rng: np.random.Generator | None,
) -> CacheGeometry:
    """Keep the cache geometry if its latency can be met, else re-pick."""
    needed = min_cache_cycles(model, tech, clock, cache, space, level)
    if needed is not None and needed <= cache.latency_cycles:
        return cache
    if needed is not None:
        return CacheGeometry(cache.nsets, cache.assoc, cache.block_bytes, needed)
    # Geometry is untenable at this clock: pick a new one at its old cycle
    # count, growing the cycle count only if nothing fits.
    cap = space.max_l1_cycles if level == 1 else space.max_l2_cycles
    for cycles in range(cache.latency_cycles, cap + 1):
        pick = best_cache_geometry(model, tech, clock, cycles, space, level, rng=rng)
        if pick is not None:
            return pick
    raise TimingError(
        f"no legal L{level} geometry at clock {clock:.3f} ns within "
        f"{cap} cycles"
    )
