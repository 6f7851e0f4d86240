"""CLI <-> service parity of the exploration operations (``repro.ops``).

``tests/golden/ops_parity.json`` pins, byte for byte:

* the stdout and the ``--out`` file of small CLI runs of every
  exploration command (``customize``, ``sweep``, ``pareto``, ``hetero``,
  ``search-compare``);
* the served result JSON of every job kind, computed in-process by
  :func:`repro.serve.execute_job`;
* the request body ``repro client submit`` sends for a fixed set of
  flag lists (captured by replacing :meth:`ServeClient.submit`).

Strategy comparison rows carry wall seconds; the corpus runs with the
comparison's clock frozen at zero so those bytes are reproducible.
Temporary paths in stdout are replaced by ``<tmp>``.

Regenerate after an intended output change with::

    PYTHONPATH=src python -m pytest tests/test_ops.py --update-golden

The rest of the module checks what holds by construction once every
operation is defined once: CLI and request defaults agree, the fields a
kind does not take are refused on both sides, the served ``hetero``
result is the CLI's ``--out`` document, and ``docs/serve.md`` lists
every kind with its defaults.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import pytest

from repro import ops
from repro.cli import build_parser, main
from repro.engine import EvaluationEngine
from repro.errors import ServeClientError, ServeError
from repro.serve import ExplorationService, JobSpec, ServeClient, ServiceThread, execute_job

GOLDEN = Path(__file__).parent / "golden" / "ops_parity.json"

#: CLI runs: case id -> argv (``--out`` is appended for ``*-out`` cases).
CLI_CASES = {
    "customize-one": ["customize", "gzip", "--iterations", "25", "--seed", "1"],
    "customize-two": ["customize", "gzip", "mcf", "--iterations", "20", "--seed", "2"],
    "customize-edp": [
        "customize", "gzip", "--iterations", "25", "--seed", "1",
        "--objective", "edp",
    ],
    "sweep": ["sweep", "gzip", "--clocks", "0.24", "0.36", "--iterations", "20"],
    "pareto-out": ["pareto", "gzip", "--samples", "6", "--top", "2"],
    "pareto-power-out": [
        "pareto", "gzip", "--samples", "6", "--top", "2", "--power-budget", "2.5",
    ],
    "hetero-out": ["hetero", "gzip", "mcf", "--iterations", "20", "--seed", "1"],
    "search-compare-out": ["search-compare", "gzip", "--iterations", "20", "--seed", "1"],
}

#: Served jobs: case id -> payload.
SERVED_CASES = {
    "customize": {"kind": "customize", "benchmarks": ["gzip"], "iterations": 25, "seed": 3},
    "sweep": {
        "kind": "sweep", "benchmarks": ["gzip"], "iterations": 20,
        "clocks": [0.24, 0.36],
    },
    "cross-matrix": {
        "kind": "cross-matrix", "benchmarks": ["gzip", "mcf"], "iterations": 20,
    },
    "pareto": {"kind": "pareto", "benchmarks": ["gzip"], "samples": 6, "seed": 4},
    "search-compare": {
        "kind": "search-compare", "benchmarks": ["gzip"], "iterations": 20,
        "strategies": ["anneal", "random"],
    },
}

#: ``repro client submit`` flag lists: case id -> argv after ``submit``.
SUBMIT_CASES = {
    "customize-bare": ["customize", "gzip"],
    "customize-full": [
        "customize", "gzip", "mcf", "--iterations", "40", "--seed", "1",
        "--strategy", "multistart", "--restarts", "3", "--max-evals", "100",
        "--max-moves", "50", "--patience", "10", "--tenant", "alice",
    ],
    "sweep": ["sweep", "gzip", "--clocks", "0.24", "0.36", "--iterations", "30"],
    "cross-matrix": ["cross-matrix", "gzip", "mcf", "--iterations", "20", "--seed", "5"],
    "pareto": ["pareto", "gzip", "--samples", "6", "--seed", "4"],
    "search-compare": [
        "search-compare", "gzip", "--strategies", "anneal", "random",
        "--iterations", "20", "--max-evals", "30",
    ],
}

_recorded: dict[str, dict] = {"cli": {}, "served": {}, "submit": {}}


@pytest.fixture(scope="module")
def golden(update_golden):
    existing = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    yield existing
    if update_golden:
        merged = {
            section: {**existing.get(section, {}), **_recorded[section]}
            for section in _recorded
        }
        GOLDEN.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def frozen_compare_clock(monkeypatch):
    """Strategy-comparison rows report 0.0 seconds (reproducible bytes)."""
    import repro.search.compare as compare

    monkeypatch.setattr(
        compare, "time", types.SimpleNamespace(perf_counter=lambda: 0.0)
    )


def _check(golden, update_golden, section: str, case: str, actual) -> None:
    if update_golden:
        _recorded[section][case] = actual
        return
    assert case in golden.get(section, {}), (
        f"no golden for {section}/{case}; record it with --update-golden"
    )
    assert actual == golden[section][case]


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_is_pinned(
    case, golden, update_golden, tmp_path, capsys, frozen_compare_clock
):
    argv = list(CLI_CASES[case])
    out = tmp_path / "out.json"
    if case.endswith("-out"):
        argv += ["--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    actual = {
        "stdout": stdout,
        "out": out.read_text() if case.endswith("-out") else None,
    }
    _check(golden, update_golden, "cli", case, actual)


@pytest.mark.parametrize("case", sorted(SERVED_CASES))
def test_served_result_is_pinned(case, golden, update_golden, frozen_compare_clock):
    spec = JobSpec.from_payload(dict(SERVED_CASES[case]))
    result = execute_job(spec, EvaluationEngine(jobs=1))
    _check(
        golden, update_golden, "served", case, json.dumps(result, sort_keys=True)
    )


@pytest.mark.parametrize("case", sorted(SUBMIT_CASES))
def test_client_submit_payload_is_pinned(
    case, golden, update_golden, monkeypatch, capsys
):
    sent = []

    def fake_submit(self, payload, *args, **kwargs):
        sent.append(payload)
        return {"id": "j00001-fake"}

    monkeypatch.setattr(ServeClient, "submit", fake_submit)
    argv = ["client", "--url", "http://127.0.0.1:9", "submit", *SUBMIT_CASES[case]]
    assert main(argv) == 0
    capsys.readouterr()
    (payload,) = sent
    _check(golden, update_golden, "submit", case, json.dumps(payload))


# ----------------------------------------------------------------------
# one definition, three front-ends
# ----------------------------------------------------------------------


def _benchmarks(op):
    return ["gzip"] if op.single_benchmark else ["gzip", "mcf"]


@pytest.mark.parametrize("kind", [k for k, op in ops.OPERATIONS.items() if op.command])
def test_cli_defaults_equal_request_defaults(kind):
    op = ops.OPERATIONS[kind]
    args = build_parser().parse_args([kind, *_benchmarks(op)])
    from_cli = ops.from_args(op, args)
    from_request = JobSpec.from_payload({"kind": kind, "benchmarks": _benchmarks(op)})
    assert from_cli == from_request


@pytest.mark.parametrize("kind", sorted(ops.OPERATIONS))
def test_bare_submit_sends_only_kind_and_benchmarks(kind):
    op = ops.OPERATIONS[kind]
    args = build_parser().parse_args(["client", "submit", kind, *_benchmarks(op)])
    assert ops.payload_from_args(op, args) == {"kind": kind, "benchmarks": _benchmarks(op)}


#: The parameters earlier versions accepted and ignored.
IGNORED_FIELDS = [
    ("pareto", "iterations", 10),
    ("pareto", "strategy", "anneal"),
    ("pareto", "restarts", 2),
    ("pareto", "max_evaluations", 10),
    ("pareto", "max_moves", 10),
    ("pareto", "plateau_patience", 10),
    ("search-compare", "strategy", "anneal"),
]


@pytest.mark.parametrize("kind, key, value", IGNORED_FIELDS)
def test_ignored_request_fields_are_rejected(kind, key, value):
    with pytest.raises(ServeError, match=f"{key} only apply to .* jobs, not {kind}"):
        JobSpec.from_payload({"kind": kind, "benchmarks": ["gzip"], key: value})


def test_ignored_request_field_is_http_400(tmp_path):
    service = ExplorationService(jobs=1, cache_backend="memory", serve_dir=tmp_path)
    with ServiceThread(service) as thread:
        client = ServeClient(thread.base_url)
        for kind, key, value in IGNORED_FIELDS:
            with pytest.raises(ServeClientError) as info:
                client.submit({"kind": kind, "benchmarks": ["gzip"], key: value})
            assert info.value.status == 400, (kind, key)


@pytest.mark.parametrize(
    "argv",
    [
        ["search-compare", "gzip", "--strategy", "anneal"],
        ["search-compare", "gzip", "--search-batch", "2"],
        ["pareto", "gzip", "--iterations", "10"],
        ["client", "submit", "pareto", "gzip", "--iterations", "10"],
        ["client", "submit", "search-compare", "gzip", "--strategy", "anneal"],
        ["client", "submit", "pareto", "gzip", "--top", "2"],
        ["customize", "gzip", "--iterations", "0"],
    ],
)
def test_cli_rejects_fields_a_command_does_not_take(argv, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    capsys.readouterr()


def test_served_hetero_is_the_cli_out_document(tmp_path, capsys):
    out = tmp_path / "hetero.json"
    argv = ["hetero", "gzip", "mcf", "--iterations", "20", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    served = execute_job(
        JobSpec.from_payload(
            {"kind": "hetero", "benchmarks": ["gzip", "mcf"], "iterations": 20, "seed": 1}
        ),
        EvaluationEngine(jobs=1),
    )
    assert served.pop("kind") == "hetero"
    assert json.dumps(served, indent=2) + "\n" == out.read_text()


def test_out_document_is_recorded_under_run_dir(tmp_path, capsys):
    out = tmp_path / "front.json"
    run_dir = tmp_path / "run"
    argv = ["pareto", "gzip", "--samples", "4", "--run-dir", str(run_dir), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    recorded = json.dumps(manifest["artifacts"])
    assert "pareto.txt" in recorded and "front.json" in recorded


def test_serve_import_leaves_design_and_compare_lazy():
    code = (
        "import sys, repro.serve; "
        "print(sorted(m for m in sys.modules if m.startswith(('repro.design', 'repro.search.compare'))))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.strip()
    assert loaded == "[]"


def test_docs_job_table_lists_every_kind_with_its_defaults():
    doc = (Path(__file__).parent.parent / "docs" / "serve.md").read_text()
    rows = {
        match.group(1): [cell.strip() for cell in match.group(2).split("|")]
        for match in re.finditer(r"^\| `([a-z-]+)` +\|(.*)\|$", doc, re.MULTILINE)
    }
    for kind, op in ops.OPERATIONS.items():
        assert kind in rows, f"docs/serve.md job table lacks {kind}"
        _, iterations, seed, *_ = rows[kind]
        defaults = {f.name: f.default for f in fields(op)}
        assert iterations == str(defaults.get("iterations", "none")), kind
        assert seed == str(defaults["seed"]), kind
