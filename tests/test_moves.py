"""Exploration moves: every proposal yields a valid configuration."""

import numpy as np
import pytest

from repro.errors import TimingError
from repro.explore import MoveGenerator
from repro.uarch import DesignSpace, initial_configuration, validate_config


@pytest.fixture(scope="module")
def moves(tech, model, space):
    return MoveGenerator(tech, model, space)


def run_moves(moves, tech, model, config, method, n=60, seed=0):
    """Apply a move repeatedly; every successful proposal must validate."""
    rng = np.random.default_rng(seed)
    produced = []
    for _ in range(n):
        try:
            candidate = method(config, rng)
        except TimingError:
            continue
        except Exception as exc:  # ConfigurationError is acceptable too
            from repro.errors import ConfigurationError

            if isinstance(exc, ConfigurationError):
                continue
            raise
        validate_config(candidate, tech, model)
        produced.append(candidate)
        config = candidate
    return produced


class TestIndividualMoves:
    def test_clock_move_changes_clock(self, moves, tech, model, initial_config):
        produced = run_moves(moves, tech, model, initial_config, moves.clock_move)
        assert produced
        clocks = {round(c.clock_period_ns, 4) for c in produced}
        assert len(clocks) > 10

    def test_clock_stays_in_range(self, moves, tech, model, initial_config):
        for c in run_moves(moves, tech, model, initial_config, moves.clock_move, n=100):
            assert tech.min_clock_ns <= c.clock_period_ns <= tech.max_clock_ns

    def test_depth_move_valid(self, moves, tech, model, initial_config):
        produced = run_moves(moves, tech, model, initial_config, moves.depth_move)
        assert produced

    def test_width_move_steps_by_one(self, moves, tech, model, initial_config):
        rng = np.random.default_rng(1)
        config = initial_config
        for _ in range(20):
            try:
                candidate = moves.width_move(config, rng)
            except TimingError:
                continue
            assert abs(candidate.width - config.width) == 1
            config = candidate

    def test_size_move_respects_budget(self, moves, tech, model, initial_config):
        produced = run_moves(moves, tech, model, initial_config, moves.size_move)
        assert produced

    def test_geometry_move_keeps_cycles(self, moves, tech, model, initial_config):
        rng = np.random.default_rng(2)
        for _ in range(30):
            try:
                candidate = moves.geometry_move(initial_config, rng)
            except TimingError:
                continue
            except Exception:
                continue
            # Geometry moves re-pick shape at the same latency budget.
            assert candidate.l1.latency_cycles == initial_config.l1.latency_cycles or (
                candidate.l2.latency_cycles == initial_config.l2.latency_cycles
            )


class TestPropose:
    def test_long_walk_stays_valid(self, moves, tech, model, initial_config):
        produced = run_moves(
            moves, tech, model, initial_config, moves.propose, n=300, seed=3
        )
        assert len(produced) > 150  # most proposals succeed

    def test_walk_explores_diverse_configs(self, moves, tech, model, initial_config):
        produced = run_moves(
            moves, tech, model, initial_config, moves.propose, n=300, seed=4
        )
        widths = {c.width for c in produced}
        robs = {c.rob_size for c in produced}
        l1_caps = {c.l1.capacity_bytes for c in produced}
        assert len(widths) >= 3
        assert len(robs) >= 3
        assert len(l1_caps) >= 4

    def test_invariants_hold_along_walk(self, moves, tech, model, initial_config):
        for c in run_moves(moves, tech, model, initial_config, moves.propose, n=200):
            assert c.iq_size <= c.rob_size
            assert c.l2.capacity_bytes >= c.l1.capacity_bytes

    def test_proposal_sequence_reproducible_from_seed(
        self, moves, tech, model, initial_config
    ):
        """Two walks from the same seed propose identical configurations."""
        first = run_moves(moves, tech, model, initial_config, moves.propose, n=80, seed=17)
        second = run_moves(moves, tech, model, initial_config, moves.propose, n=80, seed=17)
        assert first == second

    def test_distinct_seeds_diverge(self, moves, tech, model, initial_config):
        first = run_moves(moves, tech, model, initial_config, moves.propose, n=80, seed=17)
        second = run_moves(moves, tech, model, initial_config, moves.propose, n=80, seed=18)
        assert first != second


class _ForcedMoveRng:
    """Minimal rng stub: always selects move index ``move`` in propose
    and answers the move's own draws with the first choice offered."""

    #: propose's move weights (clock, depth, width, size, geometry).
    _WEIGHTS = (0.30, 0.25, 0.15, 0.15, 0.15)

    def __init__(self, move: int):
        self._move = move

    def random(self):  # propose's move pick: the middle of the move's slice
        return sum(self._WEIGHTS[: self._move]) + self._WEIGHTS[self._move] / 2

    def uniform(self, lo, hi):
        return hi

    def integers(self, lo, hi):
        return lo


class TestUntenableSpaces:
    """Spaces with no tenable neighbour must raise, never loop."""

    def test_width_move_with_single_width(self, tech, model, initial_config):
        space = DesignSpace(widths=(initial_config.width,))
        moves = MoveGenerator(tech, model, space)
        rng = np.random.default_rng(0)
        for _ in range(10):
            with pytest.raises(TimingError):
                moves.width_move(initial_config, rng)

    def test_size_move_with_only_oversized_buffers(self, tech, model, initial_config):
        """Every candidate size is beyond what any stage budget admits."""
        space = DesignSpace(
            rob_sizes=(65536,), iq_sizes=(65536,), lsq_sizes=(65536,)
        )
        moves = MoveGenerator(tech, model, space)
        rng = np.random.default_rng(1)
        for _ in range(10):
            with pytest.raises(TimingError):
                moves.size_move(initial_config, rng)

    def test_propose_propagates_timing_error(self, tech, model, initial_config):
        """propose must surface the move's TimingError to the caller (the
        search skips the proposal) instead of retrying internally."""
        space = DesignSpace(widths=(initial_config.width,))
        moves = MoveGenerator(tech, model, space)
        with pytest.raises(TimingError):
            moves.propose(initial_config, _ForcedMoveRng(move=2))  # width_move

    def test_search_survives_untenable_space(self, tech, model, initial_config):
        """A search over a space with no tenable width neighbour keeps
        skipping proposals and terminates (no infinite loop)."""
        from repro.search import AnnealingSchedule, SimulatedAnnealing

        space = DesignSpace(widths=(initial_config.width,))
        moves = MoveGenerator(tech, model, space)

        def width_only_propose(config, rng):
            return moves.width_move(config, rng)

        annealer = SimulatedAnnealing(
            propose=width_only_propose,
            evaluate=lambda cfg: 1.0,
            schedule=AnnealingSchedule(iterations=50),
        )
        result = annealer.run(initial_config, seed=0)
        assert result.evaluations == 1
        assert result.best_state == initial_config


# ---------------------------------------------------------------------------
# Draw stream: the lean draws against the rng.choice draws they replace
# ---------------------------------------------------------------------------


def _choice_pick(options, rng):
    """A pick as the moves drew it with ``rng.choice`` over the list (the
    geometry index of ``geometry_move`` was already an ``rng.integers``)."""
    if isinstance(options[0], tuple):
        return options[int(rng.integers(0, len(options)))]
    return rng.choice(list(options)).item()


class _ChoiceDrawMoves(MoveGenerator):
    """The reference: move pick by ``rng.choice(5, p=weights)`` and the
    clock clamped with ``np.clip``."""

    def propose(self, config, rng):
        moves = [
            self.clock_move,
            self.depth_move,
            self.width_move,
            self.size_move,
            self.geometry_move,
        ]
        weights = np.array([0.30, 0.25, 0.15, 0.15, 0.15])
        return moves[int(rng.choice(len(moves), p=weights))](config, rng)

    def clock_move(self, config, rng):
        from repro.uarch import refit_config

        factor = rng.uniform(0.85, 1.18)
        tech = self._tech
        clock = float(
            np.clip(config.clock_period_ns * factor, tech.min_clock_ns, tech.max_clock_ns)
        )
        if abs(clock - config.clock_period_ns) < 1e-6:
            raise TimingError("clock move hit the clock-range boundary")
        return refit_config(
            config.replace(clock_period_ns=clock), self._tech, self._model, self._space, rng=rng
        )


def _walk(generator, config, seed, steps):
    """Every proposal (or the error class it raised) and the final rng state."""
    from repro.errors import ConfigurationError

    rng = np.random.default_rng(seed)
    trail = []
    for _ in range(steps):
        try:
            config = generator.propose(config, rng)
        except (TimingError, ConfigurationError) as exc:
            trail.append(type(exc).__name__)
            continue
        trail.append(config)
    return trail, rng.bit_generator.state


class TestDrawStream:
    def test_lean_draws_match_choice_draws(
        self, tech, model, space, initial_config, monkeypatch
    ):
        import repro.explore.moves as moves_module

        lean = MoveGenerator(tech, model, space)
        reference = _ChoiceDrawMoves(tech, model, space)
        walks = [_walk(lean, initial_config, seed, 500) for seed in range(50)]
        monkeypatch.setattr(moves_module, "_pick", _choice_pick)
        expected = [_walk(reference, initial_config, seed, 500) for seed in range(50)]

        errors = set()
        for (trail, state), (want_trail, want_state) in zip(walks, expected):
            assert trail == want_trail
            assert state == want_state
            errors.update(step for step in trail if isinstance(step, str))
        # Both kinds of skipped proposal occur, at the same positions.
        assert errors == {"TimingError", "ConfigurationError"}
