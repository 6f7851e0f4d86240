"""The exploration operations, each defined once for the CLI and the service.

Each of ``customize``, ``sweep``, ``cross-matrix``, ``pareto``, ``hetero``
and ``search-compare`` is one frozen params dataclass.  Its fields carry
the defaults, CLI flag spellings and range/vocabulary checks; ``run``
makes the library calls on an engine; ``render`` is the CLI's text,
``document`` the ``--out`` JSON and ``served`` the service's result.
The CLI arguments and the ``repro client submit`` parsers
(:func:`add_arguments`) and the service's request parser
(:meth:`Params.from_payload`) all derive from the fields, and both
front-ends execute through ``run``, so a served job computes exactly
what the one-shot command prints.  ``repro.design`` and
``repro.search.compare`` load inside ``run``: the service imports this
module at start-up.
"""

from __future__ import annotations

import pathlib
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from typing import Any, ClassVar

from .communal.combination import DEFAULT_BEAM_WIDTH
from .communal.merit import MERITS
from .engine import CheckpointManager, config_to_jsonable, digest
from .errors import ServeError
from .experiments import DEFAULT_ITERATIONS, DEFAULT_SEED, render_table, run_pipeline
from .explore import AnnealingSchedule, ClockSweep, XpScalar
from .search import SearchBudget, strategy_names
from .workloads import SPEC2000_INT_NAMES, spec2000_profile

_BUDGET_FIELDS = ("max_evaluations", "max_moves", "plateau_patience")

#: The search-flag fields the pipeline commands (table, figure, report,
#: pipeline) share with the operations.
SEARCH_FIELDS = ("strategy", *_BUDGET_FIELDS, "restarts", "search_batch")


def _param(
    default: Any,
    *flags: str,
    parse: type = int,
    positive: bool = False,
    choices: Any = None,
    nargs: str | None = None,
    metavar: str | None = None,
    help: str | None = None,
    local: bool = False,
) -> Any:
    """A params field.  ``local`` fields shape the CLI's output only
    (``--out``, ``--top``) and are not part of a served request."""
    return field(
        default=default,
        metadata={
            "flags": flags, "parse": parse, "positive": positive,
            "choices": choices, "nargs": nargs, "metavar": metavar,
            "help": help, "local": local,
        },
    )


# Fields search-compare shares with the searching operations; it takes
# no ``strategy``, so the two share no base class.


def _restarts() -> Any:
    return _param(
        4, "--restarts", positive=True, metavar="N",
        help="independent restarts for multi-start strategies "
             "(default: %(default)s; other strategies ignore it)",
    )


def _max_evaluations() -> Any:
    return _param(
        None, "--max-evals", positive=True, metavar="N",
        help="stop each search after N fitness evaluations",
    )


def _max_moves() -> Any:
    return _param(
        None, "--max-moves", positive=True, metavar="N",
        help="stop each search after N move proposals",
    )


def _plateau_patience() -> Any:
    return _param(
        None, "--patience", positive=True, metavar="N",
        help="stop each search after N consecutive moves without a new "
             "best score",
    )


def _search_batch() -> Any:
    return _param(
        1, "--search-batch", positive=True, metavar="N",
        help="evaluate N candidates per round through the vectorized "
             "batch model (anneal/hillclimb; default: %(default)s keeps the "
             "sequential, signature-stable walk)",
    )


def _objective_names() -> tuple[str, ...]:
    from .design import OBJECTIVE_NAMES

    return OBJECTIVE_NAMES


def _out(help: str) -> Any:
    return _param(None, "--out", parse=str, metavar="FILE", help=help, local=True)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServeError(message)


def _choices(meta) -> Any:
    choices = meta["choices"]
    return tuple(choices()) if callable(choices) else choices


def _coerce_ok(value: Any, parse: type, positive: bool) -> bool:
    """True for a JSON number of type ``parse`` (> 0 when ``positive``)."""
    number = isinstance(value, (int, parse)) and not isinstance(value, bool)
    return number and (value > 0 or not positive)


def _coerce(f: Field, value: Any) -> Any:
    """One request value of field ``f``, checked (ServeError if invalid)."""
    meta = f.metadata
    if value is None and f.default is None:
        return None
    if meta["nargs"]:
        items = value if isinstance(value, (list, tuple)) and value else None
        if meta["parse"] is float:
            _require(
                items is not None and all(_coerce_ok(v, float, True) for v in items),
                f"{f.name} must be a non-empty list of positive numbers",
            )
            return tuple(float(v) for v in items)
        _require(items is not None, f"{f.name} must be a non-empty list")
        known = _choices(meta)
        bad = [v for v in items if v not in known]
        _require(
            not bad,
            f"unknown {f.name}: {', '.join(map(str, bad))}; "
            f"known: {', '.join(known)}",
        )
        return tuple(items)
    parse = meta["parse"]
    if parse is bool:
        _require(isinstance(value, bool), f"{f.name} must be true or false, got {value!r}")
    elif meta["choices"] is not None:
        known = _choices(meta)
        _require(value in known, f"unknown {f.name} {value!r}; known: {', '.join(known)}")
    else:
        _require(
            _coerce_ok(value, parse, meta["positive"]),
            f"{f.name} must be a{' positive' if meta['positive'] else 'n'} "
            f"{'number' if parse is float else 'integer'}, got {value!r}",
        )
        return parse(value)
    return value


def _served_fields(cls: type[Params]) -> list[Field]:
    return [f for f in fields(cls) if not f.metadata["local"]]


def budget_of(source: Any) -> SearchBudget | None:
    """The search budget of params or parsed CLI arguments (None: unbounded)."""
    bounds = {name: getattr(source, name, None) for name in _BUDGET_FIELDS}
    if all(value is None for value in bounds.values()):
        return None
    return SearchBudget(**bounds)


@dataclass(frozen=True)
class Params:
    """Base of every operation's parameters (see the module docstring)."""

    kind: ClassVar[str]
    #: One line describing the operation (CLI and ``client submit`` help).
    summary: ClassVar[str]
    #: True when the operation has a CLI command of the same name.
    command: ClassVar[bool] = True
    #: True when the operation takes exactly one benchmark.
    single_benchmark: ClassVar[bool] = False

    benchmarks: tuple[str, ...] = _param(
        MISSING, parse=str, choices=SPEC2000_INT_NAMES, nargs="+"
    )

    # -- the service's request form -------------------------------------

    @classmethod
    def from_payload(cls, payload: Any) -> Params:
        """Validate a request body into the params of its ``kind``."""
        _require(isinstance(payload, dict), "job payload must be a JSON object")
        keys = {name: {f.name for f in _served_fields(op)} for name, op in OPERATIONS.items()}
        extra = set(payload) - {"kind", "tenant"}
        unknown = extra - set().union(*keys.values())
        _require(not unknown, f"unknown job fields: {', '.join(sorted(unknown))}")
        kind = payload.get("kind")
        _require(
            kind in OPERATIONS,
            f"unknown job kind {kind!r}; known: {', '.join(OPERATIONS)}",
        )
        for key in sorted(extra - keys[kind]):
            owners = [name for name in OPERATIONS if key in keys[name]]
            raise ServeError(f"{key} only apply to {', '.join(owners)} jobs, not {kind}")
        op = OPERATIONS[kind]
        accepted = {f.name: f for f in _served_fields(op)}
        values = {
            name: _coerce(f, payload.get(name))
            for name, f in accepted.items()
            if name in payload or f.default is MISSING
        }
        _require(
            not op.single_benchmark or len(values["benchmarks"]) == 1,
            f"{kind} takes exactly one benchmark",
        )
        return op(**values)

    def to_jsonable(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        for f in _served_fields(type(self)):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @property
    def content_digest(self) -> str:
        """Content hash of the canonical params (equal requests collide)."""
        return digest(self.to_jsonable())

    @property
    def budget(self) -> SearchBudget | None:
        """The per-search budget (None when unbounded or not searched)."""
        return budget_of(self)

    def with_budget(self, budget: SearchBudget | None) -> Params:
        """A copy whose budget fields are ``budget`` (self without any)."""
        if not hasattr(self, "max_evaluations"):
            return self
        return replace(
            self, **{name: getattr(budget, name, None) for name in _BUDGET_FIELDS}
        )

    # -- the operation --------------------------------------------------

    def profiles(self) -> list:
        return [spec2000_profile(name) for name in self.benchmarks]

    def run(
        self, engine: Any, checkpoint_dir: str | None = None, resume: bool = False
    ) -> Any:
        """Execute on ``engine``; ``checkpoint_dir`` enables the CLI's
        checkpoint/resume (the service runs without one).  ``render``
        turns the result into the CLI's text and ``document`` into the
        ``--out`` JSON (operations with a CLI command define them)."""
        raise NotImplementedError

    def served(self, result: Any) -> dict[str, Any]:
        """The service's result JSON for ``result``."""
        return {"kind": self.kind, **self.document(result)}


@dataclass(frozen=True)
class _Search(Params):
    """The fields of an operation that runs one xp-scalar search per benchmark."""

    iterations: int = _param(DEFAULT_ITERATIONS, "--iterations", positive=True)
    seed: int = _param(0, "--seed")
    strategy: str = _param(
        "anneal", "--strategy", parse=str, choices=strategy_names,
        help="design-space search policy (default: %(default)s, the paper's "
             "simulated annealing)",
    )
    restarts: int = _restarts()
    max_evaluations: int | None = _max_evaluations()
    max_moves: int | None = _max_moves()
    plateau_patience: int | None = _plateau_patience()

    def explorer(self, engine: Any, **kwargs: Any) -> XpScalar:
        """The xp-scalar facade these search fields describe."""
        return XpScalar(
            schedule=AnnealingSchedule(iterations=self.iterations),
            engine=engine,
            strategy=self.strategy,
            budget=self.budget,
            restarts=self.restarts,
            **kwargs,
        )


@dataclass(frozen=True)
class _Envelope(Params):
    """The per-core design envelope (``None`` leaves a budget unbounded)."""

    power_budget: float | None = _param(
        None, "--power-budget", parse=float, positive=True, metavar="W",
        help="peak-power envelope in watts (per core; hetero also caps "
             "the sum over the chosen combination)",
    )
    area_budget: float | None = _param(
        None, "--area-budget", parse=float, positive=True, metavar="MM2",
        help="die-area envelope in mm^2 (per core; hetero also caps the "
             "sum over the chosen combination)",
    )
    epi_budget: float | None = _param(
        None, "--epi-budget", parse=float, positive=True, metavar="NJ",
        help="energy-per-instruction budget in nanojoules per core",
    )

    def constraints(self) -> Any:
        from .design import ConstraintSet

        return ConstraintSet(
            peak_power_w=self.power_budget,
            area_mm2=self.area_budget,
            epi_budget_nj=self.epi_budget,
        )


@dataclass(frozen=True)
class _Tuned(_Envelope, _Search):
    """A single-objective search: one core tuned per benchmark."""

    search_batch: int = _search_batch()
    objective: str = _param(
        "ipt", "--objective", parse=str, choices=_objective_names,
        help="figure of merit to optimize: ipt (the paper's default), "
             "edp (inverse energy-delay product), ed2 (inverse "
             "energy-delay^2), epi (IPT under --epi-budget), or "
             "envelope (IPT discounted by every active budget overrun; "
             "see docs/design.md)",
    )

    def objective_kwargs(self) -> dict[str, Any]:
        """``XpScalar`` objective override per ``objective`` (empty for ipt,
        which leaves ``repro.design`` unloaded)."""
        if self.objective == "ipt":
            return {}
        from .design import make_objective
        from .tech import default_technology

        return {
            "objective": make_objective(
                self.objective, default_technology(), self.constraints()
            )
        }


def _evaluations(explored: Any) -> int:
    return explored.annealing.evaluations if explored.annealing else 0


def _customized(xp: XpScalar, profiles: list, seed: int, **kwargs: Any) -> dict:
    """One benchmark customized alone, several cross-seeded."""
    if len(profiles) == 1:
        return {profiles[0].name: xp.customize(profiles[0], seed=seed)}
    return xp.customize_all(profiles, seed=seed, **kwargs)


@dataclass(frozen=True)
class Customize(_Tuned):
    kind: ClassVar[str] = "customize"
    summary: ClassVar[str] = "customize a core per benchmark (cross-seeded when several)"

    def run(self, engine, checkpoint_dir=None, resume=False):
        xp = self.explorer(
            engine, search_batch=self.search_batch, **self.objective_kwargs()
        )
        checkpoint = None
        if checkpoint_dir is not None and len(self.benchmarks) > 1:
            checkpoint = CheckpointManager(
                pathlib.Path(checkpoint_dir) / "checkpoint.json"
            )
        return _customized(
            xp, self.profiles(), self.seed, checkpoint=checkpoint, resume=resume
        )

    def render(self, result):
        label = "IPT" if self.objective == "ipt" else f"{self.objective} score"
        lines = []
        for name in self.benchmarks:
            explored = result[name]
            evaluations = _evaluations(explored)
            seeded = (
                f" (adopted from {explored.cross_seeded_from})"
                if explored.cross_seeded_from
                else ""
            )
            lines.append(
                f"{name}: {label} {explored.score:.2f} ({evaluations} evaluations){seeded}"
            )
            lines.append(explored.config.describe())
        return "\n".join(lines)

    def served(self, result):
        return {
            "kind": self.kind,
            "benchmarks": [
                {
                    "benchmark": name,
                    "ipt": result[name].score,
                    "evaluations": _evaluations(result[name]),
                    "cross_seeded_from": result[name].cross_seeded_from,
                    "config": config_to_jsonable(result[name].config),
                    "described": result[name].config.describe(),
                }
                for name in self.benchmarks
            ],
        }


@dataclass(frozen=True)
class Sweep(_Tuned):
    kind: ClassVar[str] = "sweep"
    summary: ClassVar[str] = "pinned-clock sweep for one benchmark"
    single_benchmark: ClassVar[bool] = True

    iterations: int = _param(600, "--iterations", positive=True)
    clocks: tuple[float, ...] | None = _param(
        None, "--clocks", parse=float, positive=True, nargs="+"
    )

    def run(self, engine, checkpoint_dir=None, resume=False):
        sweep = ClockSweep(
            XpScalar(engine=engine, **self.objective_kwargs()),
            iterations=self.iterations,
            strategy=self.strategy,
            budget=self.budget,
            restarts=self.restarts,
            search_batch=self.search_batch,
        )
        checkpoint = None
        if checkpoint_dir is not None:
            checkpoint = CheckpointManager(
                pathlib.Path(checkpoint_dir) / "sweep-checkpoint.json"
            )
        return sweep.run(
            self.profiles()[0],
            list(self.clocks) if self.clocks is not None else None,
            seed=self.seed,
            checkpoint=checkpoint,
            resume=resume,
        )

    def render(self, result):
        rows = [
            [f"{p.clock_period_ns:.2f}", f"{p.score:.2f}", p.config.width,
             p.config.rob_size, p.config.iq_size,
             f"{p.config.l1.capacity_bytes // 1024}K",
             f"{p.config.l2.capacity_bytes // 1024}K"]
            for p in result
        ]
        return render_table(["clock", "IPT", "W", "ROB", "IQ", "L1", "L2"], rows,
                            title=f"clock sweep: {self.benchmarks[0]}")

    def served(self, result):
        return {
            "kind": self.kind,
            "benchmark": self.benchmarks[0],
            "points": [
                {
                    "clock_period_ns": p.clock_period_ns,
                    "ipt": p.score,
                    "config": config_to_jsonable(p.config),
                }
                for p in result
            ],
        }


@dataclass(frozen=True)
class CrossMatrix(_Search):
    kind: ClassVar[str] = "cross-matrix"
    summary: ClassVar[str] = (
        "customize every benchmark, then evaluate each on every other's core"
    )
    command: ClassVar[bool] = False

    seed: int = _param(DEFAULT_SEED, "--seed")

    def run(self, engine, checkpoint_dir=None, resume=False):
        return run_pipeline(
            profiles=self.profiles(),
            iterations=self.iterations,
            seed=self.seed,
            explorer=self.explorer(engine),
        ).cross

    def served(self, result):
        return {
            "kind": self.kind,
            "names": list(result.names),
            "ipt": [[float(v) for v in row] for row in result.ipt],
            "configs": [config_to_jsonable(c) for c in result.configs],
        }


@dataclass(frozen=True)
class Pareto(_Envelope):
    kind: ClassVar[str] = "pareto"
    summary: ClassVar[str] = (
        "sweep the design space into per-benchmark (IPT, power, area) "
        "Pareto fronts (see docs/design.md)"
    )

    seed: int = _param(0, "--seed")
    samples: int = _param(
        128, "--samples", positive=True, metavar="N",
        help="design points in the seeded space walk, each evaluated in "
             "both core types (default: %(default)s)",
    )
    top: int | None = _param(
        None, "--top", metavar="N", local=True,
        help="print only the N best-IPT front rows per benchmark",
    )
    out: str | None = _out("also write every front as JSON to FILE")

    def run(self, engine, checkpoint_dir=None, resume=False):
        from .design import ParetoExplorer

        explorer = ParetoExplorer(engine=engine, constraints=self.constraints())
        return explorer.fronts(self.profiles(), samples=self.samples, seed=self.seed)

    def render(self, result):
        return "\n\n".join(result[name].render(top=self.top) for name in self.benchmarks)

    def document(self, result):
        return {name: front.as_jsonable() for name, front in result.items()}

    def served(self, result):
        return {
            "kind": self.kind,
            "fronts": [result[name].as_jsonable() for name in self.benchmarks],
        }


@dataclass(frozen=True)
class Hetero(_Envelope, _Search):
    kind: ClassVar[str] = "hetero"
    summary: ClassVar[str] = (
        "search the best heterogeneous k-core combination (core type + "
        "count) under a shared power/area envelope"
    )

    search_batch: int = _search_batch()
    cores: int = _param(
        2, "--cores", "-k", positive=True, metavar="K",
        help="cores in the combination (default: %(default)s)",
    )
    merit: str = _param(
        "cw-har", "--merit", parse=str, choices=tuple(MERITS),
        help="figure of merit over the workload population (default: %(default)s)",
    )
    mode: str = _param(
        "auto", "--mode", parse=str, choices=("auto", "exact", "beam"),
        help="combination enumeration: exact, beam, or auto (exact while "
             "the count stays tractable)",
    )
    beam_width: int = _param(
        DEFAULT_BEAM_WIDTH, "--beam-width", positive=True, metavar="N",
        help="partial combinations kept per beam level (default: %(default)s)",
    )
    no_inorder: bool = _param(
        False, "--no-inorder", parse=bool,
        help="offer only the out-of-order candidates (no @io twins)",
    )
    out: str | None = _out("also write the result as JSON to FILE")

    def run(self, engine, checkpoint_dir=None, resume=False):
        """``(best, best homogeneous or None, why there is none)``."""
        from .design import DesignError, best_homogeneous, build_design_matrix, hetero_search

        xp = self.explorer(engine, search_batch=self.search_batch)
        profiles = self.profiles()
        results = _customized(xp, profiles, self.seed)
        matrix = build_design_matrix(
            engine,
            profiles,
            {name: results[name].config for name in self.benchmarks},
            tech=xp.tech,
            include_inorder=not self.no_inorder,
        )
        constraints = self.constraints()
        best = hetero_search(
            matrix, self.cores, constraints,
            merit=self.merit, mode=self.mode, beam_width=self.beam_width,
        )
        try:
            homogeneous = best_homogeneous(
                matrix, self.cores, constraints, merit=self.merit
            )
        except DesignError as exc:
            return best, None, str(exc)
        return best, homogeneous, None

    def render(self, result):
        best, homogeneous, why = result
        lines = [
            f"heterogeneous {self.cores}-core search "
            f"({self.constraints().identity})",
            best.render(),
        ]
        if homogeneous is None:
            lines.append(f"best homogeneous: none ({why})")
        else:
            lines.append("best homogeneous:")
            lines.append(homogeneous.render())
            lines.append(
                f"hetero/homogeneous merit ratio: "
                f"{best.merit / homogeneous.merit:.4f}"
            )
        return "\n".join(lines)

    def document(self, result):
        best, homogeneous, _ = result
        return {
            "hetero": best.as_jsonable(),
            "homogeneous": homogeneous.as_jsonable() if homogeneous else None,
        }


@dataclass(frozen=True)
class SearchCompare(Params):
    kind: ClassVar[str] = "search-compare"
    summary: ClassVar[str] = (
        "run every search strategy on the same benchmarks and rank them "
        "on a quality/cost table"
    )

    iterations: int = _param(400, "--iterations", positive=True)
    seed: int = _param(0, "--seed")
    restarts: int = _restarts()
    max_evaluations: int | None = _max_evaluations()
    max_moves: int | None = _max_moves()
    plateau_patience: int | None = _plateau_patience()
    strategies: tuple[str, ...] | None = _param(
        None, "--strategies", parse=str, choices=strategy_names, nargs="+",
        help="strategies to compare (default: all registered)",
    )
    out: str | None = _out("also write the comparison as JSON to FILE")

    def run(self, engine, checkpoint_dir=None, resume=False):
        from .search.compare import compare_strategies

        return compare_strategies(
            self.profiles(),
            strategies=list(self.strategies) if self.strategies else None,
            iterations=self.iterations,
            seed=self.seed,
            budget=self.budget,
            engine=engine,
            restarts=self.restarts,
        )

    def render(self, result):
        return result.render()

    def document(self, result):
        return result.to_jsonable()


#: Every operation by kind, in the order the docs and help list them.
OPERATIONS: dict[str, type[Params]] = {
    op.kind: op
    for op in (Customize, Sweep, CrossMatrix, Pareto, Hetero, SearchCompare)
}


# ----------------------------------------------------------------------
# argparse front-ends
# ----------------------------------------------------------------------


def add_arguments(
    parser: Any, cls: type[Params], submit: bool = False, only: tuple = ()
) -> None:
    """Declare ``cls``'s fields on an argparse parser.

    ``submit`` builds the ``repro client submit`` form: local fields are
    left out and an omitted flag stays out of the namespace (so out of
    the request).  ``only`` restricts to the named fields.
    """
    import argparse

    def positive(parse):
        def check(text: str):
            value = parse(text)
            if value <= 0:
                raise argparse.ArgumentTypeError(f"must be positive, got {text}")
            return value

        check.__name__ = f"positive {parse.__name__}"
        return check

    for f in fields(cls):
        meta = f.metadata
        if (only and f.name not in only) or (submit and meta["local"]):
            continue
        if f.name == "benchmarks":
            parser.add_argument(
                "benchmarks", nargs=None if cls.single_benchmark else "+",
                choices=SPEC2000_INT_NAMES,
            )
            continue
        kwargs: dict[str, Any] = {"action": "store_true"}
        if meta["parse"] is not bool:
            kwargs = {
                "type": positive(meta["parse"]) if meta["positive"] else meta["parse"],
                "choices": _choices(meta),
                "nargs": meta["nargs"],
                "metavar": meta["metavar"],
            }
        # Help is formatted here: under ``submit`` the argparse default
        # is SUPPRESS, not the value the service fills in.
        text = meta["help"] and meta["help"] % {"default": f.default}
        parser.add_argument(
            *meta["flags"], dest=f.name, help=text,
            default=argparse.SUPPRESS if submit else f.default, **kwargs,
        )


def _value(f: Field, args: Any) -> Any:
    """Field ``f`` of a parsed namespace; list arguments become tuples."""
    value = getattr(args, f.name)
    if f.metadata["nargs"] and value is not None:
        return tuple(value) if isinstance(value, list) else (value,)
    return value


def from_args(cls: type[Params], args: Any) -> Params:
    """``cls``'s params from a namespace :func:`add_arguments` filled."""
    return cls(**{f.name: _value(f, args) for f in fields(cls)})


def payload_from_args(cls: type[Params], args: Any) -> dict[str, Any]:
    """The request body for a ``client submit`` namespace: only the
    flags given, under their payload keys."""
    payload: dict[str, Any] = {"kind": cls.kind}
    for f in _served_fields(cls):
        if hasattr(args, f.name):
            value = _value(f, args)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
    return payload
