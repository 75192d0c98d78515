"""Every run-directory reader names the file (and line) it cannot parse.

One traced, health-graded export of the golden scenario is copied per
case; the case truncates (or blank-pads) one file and runs one reader
over it.  A truncated JSON-lines file must raise ``ValueError`` naming the
file and the 1-based number of its last line; a truncated whole-file JSON
document must raise ``ValueError`` naming the file; blank lines in a
JSON-lines file are skipped.
"""

import shutil

import pytest

from repro.cli import main
from repro.health.report import load_health
from repro.metrics import load_spans_jsonl, read_jsonl
from repro.telemetry import TelemetryConfig, inspect_report, load_run
from repro.tracing import load_trace_jsonl, trace_report
from tests.golden_scenario import run_scenario


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    _, telemetry = run_scenario(
        TelemetryConfig(interval=1.0, trace=True, health=True),
        return_telemetry=True,
    )
    run_dir = tmp_path_factory.mktemp("golden") / "run"
    telemetry.export(run_dir)
    # Whole-file JSON the serial export does not write (the sharded
    # coordinator's flight log); load_run reads it when present.
    (run_dir / "flight.json").write_text('{"totals": {}}\n')
    return run_dir


def _copy(exported, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(exported, run_dir)
    return run_dir


def _truncate(path, nbytes=30):
    data = path.read_bytes()
    path.write_bytes(data[:-nbytes])
    return data.count(b"\n")        # the last line's 1-based number


# (file, reader over the run dir) — every reader of every file it parses.
JSONL_CASES = [
    ("spans.jsonl", lambda d: load_spans_jsonl(d / "spans.jsonl")),
    ("spans.jsonl", load_run),
    ("spans.jsonl", inspect_report),
    ("traces.jsonl", lambda d: load_trace_jsonl(d / "traces.jsonl")),
    ("traces.jsonl", load_run),
    ("traces.jsonl", trace_report),
    ("records.jsonl", load_run),
    ("records.jsonl", trace_report),
    ("slo.jsonl", load_run),
    ("slo.jsonl", load_health),
    ("timeseries.jsonl", load_run),
]

JSON_CASES = [
    ("summary.json", load_run),
    ("manifest.json", load_run),
    ("flight.json", load_run),
    ("health.json", load_run),
    ("health.json", load_health),
]


def _case_id(case):
    name, reader = case
    return f"{name}-{getattr(reader, '__name__', 'load')}"


@pytest.mark.parametrize("case", JSONL_CASES, ids=_case_id)
def test_truncated_jsonl_names_file_and_line(exported, tmp_path, case):
    name, reader = case
    run_dir = _copy(exported, tmp_path)
    last_line = _truncate(run_dir / name)
    with pytest.raises(ValueError) as info:
        reader(run_dir)
    assert f"{name}: line {last_line}:" in str(info.value)


@pytest.mark.parametrize("case", JSON_CASES, ids=_case_id)
def test_truncated_json_names_file(exported, tmp_path, case):
    name, reader = case
    run_dir = _copy(exported, tmp_path)
    _truncate(run_dir / name, nbytes=3)
    with pytest.raises(ValueError, match=rf"{name}: line \d+ column \d+"):
        reader(run_dir)


@pytest.mark.parametrize(
    "name", sorted({name for name, _reader in JSONL_CASES})
)
def test_blank_lines_are_skipped(exported, tmp_path, name):
    run_dir = _copy(exported, tmp_path)
    path = run_dir / name
    rows = list(read_jsonl(path))
    assert rows
    lines = path.read_text().splitlines()
    path.write_text("\n" + "\n\n".join(lines) + "\n  \n")
    assert list(read_jsonl(path)) == rows


def test_cli_reports_malformed_file_without_traceback(exported, tmp_path,
                                                      capsys):
    run_dir = _copy(exported, tmp_path)
    last_line = _truncate(run_dir / "spans.jsonl")
    with pytest.raises(SystemExit) as info:
        main(["inspect", str(run_dir)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"spans.jsonl: line {last_line}:" in err
