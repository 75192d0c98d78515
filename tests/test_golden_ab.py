"""Golden A/B pin: the lifecycle pipeline is behaviour-preserving.

``tests/data/golden_cluster_study.json`` was captured by running
``tests/golden_scenario.py`` on the pre-refactor invocation path (commit
8f4f807, where the control flow lived inline in ``Worker._ingest /
_handle / _execute`` and breakdowns were span-derived).  Replaying the
same scenario on the current pipeline must reproduce every invocation
record, every retained span, and every telemetry phase sum **bit for
bit** — floats compared exactly, after the same JSON round-trip.

If this test fails, the refactor changed behaviour: component order, RNG
draw order, a float accumulation order, or component interval stamping.
Fix the regression; do not regenerate the fixture unless the change is an
intentional, reviewed behaviour change (regenerate with
``PYTHONPATH=src:tests python tests/golden_scenario.py``).
"""

import json

import pytest

from tests.golden_scenario import GOLDEN_PATH, normalized, run_scenario


@pytest.fixture(scope="module")
def replay():
    return normalized(run_scenario())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_is_committed(golden):
    assert golden["invocations"] == 42
    outcomes = {row[2] for row in golden["records"]}
    # The scenario exercises every non-drop terminal stage.
    assert {"cold", "warm", "bypass", "timeout"} <= outcomes


def test_records_bit_identical(replay, golden):
    assert replay["invocations"] == golden["invocations"]
    assert replay["records"] == golden["records"]


def test_spans_bit_identical(replay, golden):
    assert replay["spans"] == golden["spans"]


def test_phase_decomposition_bit_identical(replay, golden):
    assert replay["breakdowns"] == golden["breakdowns"]
    assert replay["phase_totals"] == golden["phase_totals"]
    # Sanity: the pinned run has real work in every primary phase.
    for phase in ("queue", "acquire", "cold_create", "exec_comm", "post"):
        assert golden["phase_totals"][phase] > 0.0
