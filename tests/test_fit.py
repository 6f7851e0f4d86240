"""Size-to-fit solver: the clock/size/depth coupling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TimingError
from repro.tech import (
    CactiModel,
    default_technology,
    issue_queue_ns,
    l1_cache_ns,
    l2_cache_ns,
    lsq_ns,
    regfile_ns,
)
from repro.uarch import (
    CacheGeometry,
    DesignSpace,
    best_cache_geometry,
    fitting_cache_geometries,
    fits,
    initial_configuration,
    max_fitting,
    max_iq_size,
    max_lsq_size,
    max_rob_size,
    min_cache_cycles,
    min_stages,
    refit_config,
    validate_config,
)


class TestPrimitives:
    def test_fits_with_slack(self):
        assert fits(1.0, 1.0)
        assert fits(1.0, 1.2)
        assert not fits(1.2, 1.0)

    def test_max_fitting_picks_largest(self):
        assert max_fitting([16, 32, 64], lambda s: s / 100, 0.4) == 32

    def test_max_fitting_none(self):
        assert max_fitting([16, 32], lambda s: s / 10, 0.4) is None

    def test_min_stages(self, tech):
        assert min_stages(0.5, tech, 0.33, max_stages=6) == 2

    def test_min_stages_beyond_cap(self, tech):
        assert min_stages(10.0, tech, 0.33, max_stages=6) is None


class TestUnitSizers:
    def test_iq_fit_consistent_with_delay(self, model, tech, space):
        size = max_iq_size(model, tech, 0.33, stages=2, width=4, space=space)
        assert size is not None
        budget = tech.budget(0.33, 2)
        assert issue_queue_ns(model, size, 4) <= budget + 1e-9
        bigger = [s for s in space.iq_sizes if s > size]
        if bigger:
            assert issue_queue_ns(model, min(bigger), 4) > budget

    def test_rob_shrinks_with_width(self, model, tech, space):
        narrow = max_rob_size(model, tech, 0.33, 2, width=2, space=space)
        wide = max_rob_size(model, tech, 0.33, 2, width=8, space=space)
        assert narrow is not None and wide is not None
        assert wide <= narrow

    def test_rob_grows_with_stages(self, model, tech, space):
        shallow = max_rob_size(model, tech, 0.25, 1, width=3, space=space)
        deep = max_rob_size(model, tech, 0.25, 3, width=3, space=space)
        if shallow is not None:
            assert deep is not None and deep >= shallow

    def test_lsq_fit(self, model, tech, space):
        size = max_lsq_size(model, tech, 0.33, stages=2, space=space)
        assert size in space.lsq_sizes


class TestCacheFitting:
    def test_fitting_geometries_all_fit(self, model, tech, space):
        budget = tech.budget(0.33, 3)
        from repro.tech import l1_cache_ns

        for geo in fitting_cache_geometries(model, tech, 0.33, 3, space, level=1):
            assert l1_cache_ns(model, *geo) <= budget + 1e-9

    def test_more_cycles_admit_bigger_caches(self, model, tech, space):
        few = fitting_cache_geometries(model, tech, 0.33, 2, space, level=1)
        many = fitting_cache_geometries(model, tech, 0.33, 5, space, level=1)
        assert set(few) <= set(many)
        cap = lambda gs: max((s * a * b for s, a, b in gs), default=0)  # noqa: E731
        assert cap(many) >= cap(few)

    def test_best_geometry_deterministic_is_max_capacity(self, model, tech, space):
        geo = best_cache_geometry(model, tech, 0.40, 5, space, level=1)
        assert geo is not None
        fitting = fitting_cache_geometries(model, tech, 0.40, 5, space, level=1)
        assert geo.capacity_bytes == max(s * a * b for s, a, b in fitting)

    def test_best_geometry_random_is_fitting(self, model, tech, space):
        rng = np.random.default_rng(0)
        geo = best_cache_geometry(model, tech, 0.40, 5, space, level=1, rng=rng)
        assert (geo.nsets, geo.assoc, geo.block_bytes) in set(
            fitting_cache_geometries(model, tech, 0.40, 5, space, level=1)
        )

    def test_min_cycles_roundtrip(self, model, tech, space):
        geo = CacheGeometry(nsets=256, assoc=2, block_bytes=64, latency_cycles=3)
        cycles = min_cache_cycles(model, tech, 0.33, geo, space, level=1)
        assert cycles is not None
        from repro.tech import l1_cache_ns

        delay = l1_cache_ns(model, 256, 2, 64)
        assert tech.budget(0.33, cycles) >= delay - 1e-9
        if cycles > 1:
            assert tech.budget(0.33, cycles - 1) < delay

    def test_invalid_level_rejected(self, model, tech, space):
        with pytest.raises(ValueError):
            fitting_cache_geometries(model, tech, 0.33, 3, space, level=3)


class TestRefit:
    def test_refit_preserves_validity(self, tech, model, space, initial_config):
        refitted = refit_config(initial_config, tech, model, space)
        validate_config(refitted, tech, model)

    def test_refit_never_grows_buffers(self, tech, model, space, initial_config):
        fast = initial_config.replace(clock_period_ns=0.20)
        refitted = refit_config(fast, tech, model, space)
        assert refitted.rob_size <= initial_config.rob_size
        assert refitted.iq_size <= initial_config.iq_size
        assert refitted.lsq_size <= initial_config.lsq_size

    def test_refit_updates_derived_counts(self, tech, model, space, initial_config):
        fast = initial_config.replace(clock_period_ns=0.20)
        refitted = refit_config(fast, tech, model, space)
        assert refitted.frontend_stages > initial_config.frontend_stages
        assert refitted.memory_cycles > initial_config.memory_cycles

    def test_refit_deepens_only_when_forced(self, tech, model, space, initial_config):
        refitted = refit_config(initial_config, tech, model, space)
        assert refitted.scheduler_depth == initial_config.scheduler_depth
        assert refitted.wakeup_latency == initial_config.wakeup_latency

    @settings(deadline=None, max_examples=25)
    @given(clock=st.floats(min_value=0.18, max_value=0.60))
    def test_refit_valid_across_clock_range(self, clock):
        tech = default_technology()
        model = CactiModel(tech)
        space = DesignSpace()
        config = initial_configuration(tech).replace(clock_period_ns=clock)
        refitted = refit_config(config, tech, model, space)
        validate_config(refitted, tech, model)
        assert refitted.clock_period_ns == pytest.approx(clock)


# ---------------------------------------------------------------------------
# Delay tables against the per-candidate CACTI scan they replace
# ---------------------------------------------------------------------------


def _scan_iq(model, tech, clock, stages, width, space):
    budget = tech.budget(clock, stages)
    return max_fitting(space.iq_sizes, lambda s: issue_queue_ns(model, s, width), budget)


def _scan_rob(model, tech, clock, stages, width, space):
    budget = tech.budget(clock, stages)
    return max_fitting(space.rob_sizes, lambda s: regfile_ns(model, s, width), budget)


def _scan_lsq(model, tech, clock, stages, space):
    budget = tech.budget(clock, stages)
    return max_fitting(space.lsq_sizes, lambda s: lsq_ns(model, s), budget)


def _cache_level(space, level):
    if level == 1:
        return space.l1_geometries(), l1_cache_ns, space.max_l1_cycles
    return space.l2_geometries(), l2_cache_ns, space.max_l2_cycles


def _scan_geometries(model, tech, clock, cycles, space, level):
    budget = tech.budget(clock, cycles)
    candidates, delay, _ = _cache_level(space, level)
    return [g for g in candidates if fits(delay(model, *g), budget)]


def _scan_best(model, tech, clock, cycles, space, level, rng=None):
    fitting = _scan_geometries(model, tech, clock, cycles, space, level)
    if not fitting:
        return None
    if rng is not None:
        nsets, assoc, block = fitting[int(rng.integers(0, len(fitting)))]
    else:
        nsets, assoc, block = max(fitting, key=lambda g: (g[0] * g[1] * g[2], g[1]))
    return CacheGeometry(nsets, assoc, block, cycles)


def _boundary_clocks(tech, delay, stages):
    """Clocks whose ``stages``-stage budget lands on ``delay``: exactly,
    at the edge of the 1e-9 slack, and just beyond it."""
    clocks = [(delay - slack) / stages + tech.latch_latency_ns for slack in (0.0, 1e-9, 2e-9)]
    return [c for c in clocks if tech.min_clock_ns <= c <= tech.max_clock_ns]


@pytest.fixture()
def fresh_model(tech):
    """A model whose tables are built inside the test."""
    return CactiModel(tech)


@pytest.fixture(scope="module")
def clock_grid():
    tech = default_technology()
    return [float(c) for c in np.linspace(tech.min_clock_ns, tech.max_clock_ns, 25)]


class TestDelayTablesMatchScan:
    """Table-driven fitting answers exactly what the CACTI scan answers."""

    def test_scalar_units_on_clock_grid(self, fresh_model, tech, space, clock_grid):
        for clock in clock_grid:
            for width in space.widths:
                for stages in range(1, 2 + space.max_wakeup_latency):
                    assert max_iq_size(
                        fresh_model, tech, clock, stages, width, space
                    ) == _scan_iq(fresh_model, tech, clock, stages, width, space)
                for stages in range(1, 1 + space.max_scheduler_depth):
                    assert max_rob_size(
                        fresh_model, tech, clock, stages, width, space
                    ) == _scan_rob(fresh_model, tech, clock, stages, width, space)
            for stages in range(1, 1 + space.max_lsq_depth):
                assert max_lsq_size(fresh_model, tech, clock, stages, space) == _scan_lsq(
                    fresh_model, tech, clock, stages, space
                )

    def test_scalar_units_on_budget_boundaries(self, fresh_model, tech, space):
        checked = 0
        for width in space.widths:
            for stages in range(1, 2 + space.max_wakeup_latency):
                for size in space.iq_sizes:
                    delay = issue_queue_ns(fresh_model, size, width)
                    for clock in _boundary_clocks(tech, delay, stages):
                        assert max_iq_size(
                            fresh_model, tech, clock, stages, width, space
                        ) == _scan_iq(fresh_model, tech, clock, stages, width, space)
                        checked += 1
            for stages in range(1, 1 + space.max_scheduler_depth):
                for size in space.rob_sizes:
                    delay = regfile_ns(fresh_model, size, width)
                    for clock in _boundary_clocks(tech, delay, stages):
                        assert max_rob_size(
                            fresh_model, tech, clock, stages, width, space
                        ) == _scan_rob(fresh_model, tech, clock, stages, width, space)
                        checked += 1
        for stages in range(1, 1 + space.max_lsq_depth):
            for size in space.lsq_sizes:
                for clock in _boundary_clocks(tech, lsq_ns(fresh_model, size), stages):
                    assert max_lsq_size(fresh_model, tech, clock, stages, space) == _scan_lsq(
                        fresh_model, tech, clock, stages, space
                    )
                    checked += 1
        assert checked > 100

    @pytest.mark.parametrize("level", [1, 2])
    def test_cache_levels_on_clock_grid(self, fresh_model, tech, space, clock_grid, level):
        geometries, delay, cap = _cache_level(space, level)
        for clock in clock_grid:
            for cycles in range(1, cap + 1):
                args = (tech, clock, cycles, space, level)
                expected = _scan_geometries(fresh_model, *args)
                assert fitting_cache_geometries(fresh_model, *args) == expected
                assert best_cache_geometry(fresh_model, *args) == _scan_best(fresh_model, *args)
                seed = len(expected) + cycles
                picked = best_cache_geometry(
                    fresh_model, *args, rng=np.random.default_rng(seed)
                )
                assert picked == _scan_best(
                    fresh_model, *args, rng=np.random.default_rng(seed)
                )
            for g in geometries:
                geometry = CacheGeometry(*g, latency_cycles=1)
                expected = min_stages(delay(fresh_model, *g), tech, clock, cap)
                assert (
                    min_cache_cycles(fresh_model, tech, clock, geometry, space, level)
                    == expected
                )

    @pytest.mark.parametrize("level", [1, 2])
    def test_cache_levels_on_budget_boundaries(self, fresh_model, tech, space, level):
        geometries, delay, cap = _cache_level(space, level)
        checked = 0
        for cycles in range(1, cap + 1):
            for g in geometries:
                for clock in _boundary_clocks(tech, delay(fresh_model, *g), cycles):
                    args = (tech, clock, cycles, space, level)
                    assert fitting_cache_geometries(fresh_model, *args) == _scan_geometries(
                        fresh_model, *args
                    )
                    checked += 1
        assert checked > 100

    def test_geometry_outside_the_space(self, fresh_model, tech):
        """min_cache_cycles still times a geometry the space does not list."""
        space = DesignSpace(l1_nsets=(64, 128))
        geometry = CacheGeometry(nsets=1024, assoc=2, block_bytes=64, latency_cycles=1)
        expected = min_stages(l1_cache_ns(fresh_model, 1024, 2, 64), tech, 0.33, 6)
        assert min_cache_cycles(fresh_model, tech, 0.33, geometry, space, 1) == expected


class TestDelayTablesReuse:
    def test_repeat_queries_skip_cacti(self, fresh_model, tech, space):
        """After the first query every answer comes from the tables."""

        def queries():
            for clock in (0.2, 0.33, 0.5):
                max_iq_size(fresh_model, tech, clock, 2, 4, space)
                max_rob_size(fresh_model, tech, clock, 2, 4, space)
                max_lsq_size(fresh_model, tech, clock, 2, space)
                fitting_cache_geometries(fresh_model, tech, clock, 3, space, 1)
                best_cache_geometry(fresh_model, tech, clock, 12, space, 2)

        queries()
        lookups = (fresh_model.memo_hits, fresh_model.memo_misses)
        queries()
        assert (fresh_model.memo_hits, fresh_model.memo_misses) == lookups

    def test_tables_do_not_keep_the_model_alive(self, tech, space):
        """Tables live on the model without a reference cycle, so a model
        (one per customize job) is freed by refcount, not by the cyclic GC."""
        import gc
        import weakref

        model = CactiModel(tech)
        max_rob_size(model, tech, 0.33, 2, 4, space)
        best_cache_geometry(model, tech, 0.33, 12, space, 2)
        alive = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert alive() is None
        finally:
            gc.enable()

    def test_copied_model_rebuilds_for_its_own_space(self, fresh_model, tech):
        """Tables are keyed by the space's identity, and a copied model
        (as a worker process gets one) never answers from a stale entry."""
        import copy

        narrow = DesignSpace(lsq_sizes=(32,))
        assert max_lsq_size(fresh_model, tech, 0.6, 4, narrow) == 32
        clone = copy.deepcopy(fresh_model)
        wide = DesignSpace()
        clone.derived[id(wide)] = next(iter(clone.derived.values()))  # a stale key
        assert max_lsq_size(clone, tech, 0.6, 4, wide) == _scan_lsq(clone, tech, 0.6, 4, wide)
