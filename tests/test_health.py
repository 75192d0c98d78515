"""The health observatory: sketches, SLO grading, detectors, live watch.

Four layers of evidence, mirroring the subsystem's own guarantees:

* **Sketch accuracy** — hypothesis-driven: every DDSketch quantile is
  within the configured relative error of the exact nearest-rank sample,
  and a split-merge reduces bit-for-bit to the single-stream sketch.
* **Collector determinism** — sharding a record stream across collectors
  and merging (in any order) equals the serial collector exactly; the
  golden scenario's records stay bit-identical with health enabled.
* **SLO semantics** — windows grade against the first matching target,
  violation spans coalesce, burn rates divide violating fraction by the
  error budget, and the JSON stays NaN-free.
* **Run-dir contract** — serial and sharded (2 and 4 shard) exports of
  the golden scenario produce byte-identical ``health.json`` /
  ``slo.jsonl`` / ``health.prom``; ``repro health`` / ``repro watch`` /
  ``repro inspect`` read them back, with graceful health-off fallbacks.
"""

import io
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.golden_scenario import GOLDEN_PATH, normalized, run_scenario
from tests.test_cluster_shard import FUNCTIONS, GOLDEN_CONFIG, golden_plan
from repro.cli import main
from repro.cluster_shard import ShardingUnavailable, run_sharded_replay
from repro.health import (
    Alert,
    DDSketch,
    EwmaDetector,
    HealthCollector,
    HealthConfig,
    LiveWriter,
    SLOTarget,
    WindowedSketch,
    detect_anomalies,
    evaluate_health,
    health_report,
    health_section,
    load_health,
    normalize_health,
    read_live,
    sparkline,
    summaries_health,
    watch,
    watch_report,
    window_index,
)
from repro.health.detectors import COOLDOWN_SAMPLES, WARMUP_SAMPLES
from repro.metrics.registry import InvocationRecord, Outcome
from repro.telemetry import (
    WORKER_COLUMNS,
    Telemetry,
    TelemetryConfig,
    Timeseries,
    load_run,
)

HEALTH_TC = TelemetryConfig(interval=1.0, sample_energy=True, health=True)


# ---------------------------------------------------------------- sketches
positive_samples = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(samples=positive_samples, q=st.floats(min_value=0.0, max_value=100.0))
def test_sketch_quantile_within_relative_error(samples, q):
    a = 0.01
    sketch = DDSketch(relative_accuracy=a)
    for x in samples:
        sketch.observe(x)
    rank = max(1, math.ceil(q / 100.0 * len(samples)))
    exact = sorted(samples)[rank - 1]
    assert abs(sketch.quantile(q) - exact) <= a * exact + 1e-12


@settings(max_examples=100, deadline=None)
@given(samples=positive_samples, cut=st.integers(min_value=0, max_value=200))
def test_sketch_split_merge_is_bit_identical(samples, cut):
    cut %= len(samples) + 1
    whole = DDSketch()
    for x in samples:
        whole.observe(x)

    def part(xs):
        sketch = DDSketch()
        for x in xs:
            sketch.observe(x)
        return sketch

    # Merge in both orders: the result must equal the single stream.
    left_first = part(samples[:cut])
    left_first.merge(part(samples[cut:]))
    right_first = part(samples[cut:])
    right_first.merge(part(samples[:cut]))
    for merged in (left_first, right_first):
        assert merged.counts == whole.counts
        assert merged == whole
        assert merged.total == whole.total == math.fsum(samples)
        assert merged.mean == whole.mean
        assert merged.summary() == whole.summary()
        for q in (0.0, 50.0, 90.0, 99.0, 100.0):
            assert merged.quantile(q) == whole.quantile(q)


def test_sketch_merge_rejects_mismatched_geometry():
    with pytest.raises(ValueError, match="relative_accuracy 0.01 vs 0.05"):
        DDSketch(relative_accuracy=0.01).merge(DDSketch(relative_accuracy=0.05))
    with pytest.raises(ValueError, match="min_value"):
        DDSketch(min_value=1e-9).merge(DDSketch(min_value=1e-6))


def test_sketch_validation_and_edge_samples():
    with pytest.raises(ValueError, match="relative_accuracy"):
        DDSketch(relative_accuracy=1.5)
    with pytest.raises(ValueError, match="min_value"):
        DDSketch(min_value=0.0)
    sketch = DDSketch()
    with pytest.raises(ValueError, match="non-negative"):
        sketch.observe(-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        sketch.observe(float("nan"))
    with pytest.raises(ValueError, match="q must be"):
        sketch.quantile(101.0)
    assert math.isnan(sketch.quantile(50.0))  # empty
    # Zero-bucket samples report 0.0 (absolute error <= min_value).
    sketch.observe(0.0)
    assert sketch.zero_count == 1
    assert sketch.quantile(50.0) == 0.0
    assert sketch.minimum == 0.0


def test_sketch_merge_empty_is_identity():
    sketch = DDSketch()
    for x in (0.5, 1.0, 2.0):
        sketch.observe(x)
    before_counts = dict(sketch.counts)
    sketch.merge(DDSketch())
    assert sketch.counts == before_counts
    assert sketch.count == 3
    empty = DDSketch()
    empty.merge(sketch)
    assert empty == sketch


def test_sketch_pickle_round_trip():
    sketch = DDSketch()
    for x in (0.01, 0.5, 3.0, 250.0):
        sketch.observe(x)
    clone = pickle.loads(pickle.dumps(sketch))
    assert clone == sketch
    assert clone.quantile(99.0) == sketch.quantile(99.0)


def test_window_index_grid():
    assert window_index(0.0, 10.0) == 0
    assert window_index(9.999, 10.0) == 0
    assert window_index(10.0, 10.0) == 1
    assert window_index(25.0, 2.5) == 10


def test_windowed_sketch_buckets_by_window_and_merges():
    ws = WindowedSketch(window=10.0)
    ws.observe(1.0, 0.5)
    ws.observe(12.0, 1.5)
    ws.observe(13.0, 2.5)
    assert ws.window_indices() == [0, 1]
    assert ws.count == 3
    assert ws.sketch(0).count == 1
    assert ws.sketch(5) is None
    other = WindowedSketch(window=10.0)
    other.observe(12.5, 3.5)
    ws.merge(other)
    assert ws.sketch(1).count == 3
    merged = ws.merged()
    assert merged.count == 4
    with pytest.raises(ValueError, match="different windows"):
        ws.merge(WindowedSketch(window=5.0))
    with pytest.raises(ValueError, match="window must be positive"):
        WindowedSketch(window=0.0)


# --------------------------------------------------------------- collector
def _record(function="f.1", arrival=1.0, outcome=Outcome.WARM, e2e=0.5,
            queue=0.1, overhead=0.2, cold=False, worker="w0"):
    return InvocationRecord(
        function=function, arrival=arrival, outcome=outcome,
        exec_time=e2e - overhead, e2e_time=e2e, queue_time=queue,
        overhead=overhead, cold=cold, worker=worker,
    )


def test_collector_observe_record_outcomes():
    c = HealthCollector(window=10.0)
    c.observe_record(_record(arrival=1.0, e2e=0.5))
    c.observe_record(_record(arrival=2.0, e2e=0.7, cold=True,
                             outcome=Outcome.COLD))
    c.observe_record(_record(arrival=3.0, outcome=Outcome.DROPPED))
    c.observe_record(_record(arrival=4.0, outcome=Outcome.TIMEOUT))
    totals = c.totals()
    assert totals == {"total": 4, "completed": 2, "cold": 1, "dropped": 2}
    assert c.functions() == ["f.1"]
    assert c.workers() == ["w0"]
    assert c.window_range() == (0, 0)
    # Completed invocations land in the window of arrival + e2e.
    c.observe_record(_record(arrival=9.8, e2e=0.5))
    assert c.window_range() == (0, 1)


def test_collector_shard_merge_equals_serial():
    records = [
        _record(function=f"fn-{i % 3}.1", arrival=float(i), e2e=0.1 * (i + 1),
                cold=(i % 4 == 0), worker=f"w{i % 2}",
                outcome=Outcome.COLD if i % 4 == 0 else Outcome.WARM)
        for i in range(40)
    ]
    records.append(_record(function="fn-0.1", arrival=7.0,
                           outcome=Outcome.DROPPED))
    serial = HealthCollector(window=5.0)
    for r in records:
        serial.observe_record(r)
    shards = [HealthCollector(window=5.0) for _ in range(4)]
    for i, r in enumerate(records):
        shards[i % 4].observe_record(r)
    # Merge in reverse shard order: order independence is the contract.
    merged = HealthCollector(window=5.0)
    for part in reversed(shards):
        merged.merge(part)
    assert merged == serial
    assert pickle.loads(pickle.dumps(merged)) == serial


def test_collector_merge_rejects_mismatched_config():
    with pytest.raises(ValueError, match="window 10.0 vs 5.0"):
        HealthCollector(window=10.0).merge(HealthCollector(window=5.0))
    with pytest.raises(ValueError, match="relative_accuracy"):
        HealthCollector(relative_accuracy=0.01).merge(
            HealthCollector(relative_accuracy=0.02))


def test_collector_validation():
    with pytest.raises(ValueError, match="window"):
        HealthCollector(window=-1.0)
    with pytest.raises(ValueError, match="relative_accuracy"):
        HealthCollector(relative_accuracy=2.0)


# --------------------------------------------------------------------- SLO
def test_slo_target_matching_first_wins():
    config = HealthConfig(targets=(
        SLOTarget(function="fn-a*", e2e_p99_s=1.0),
        SLOTarget(function="*", e2e_p99_s=5.0),
    ))
    assert config.target_for("fn-a.1").e2e_p99_s == 1.0
    assert config.target_for("fn-b.1").e2e_p99_s == 5.0
    narrow = HealthConfig(targets=(SLOTarget(function="fn-a*"),))
    assert narrow.target_for("other.1") is None


def test_health_config_validation():
    for bad in (
        dict(window=0.0),
        dict(relative_accuracy=0.0),
        dict(availability=1.0),
        dict(burn_windows=(0,)),
        dict(ewma_alpha=0.0),
        dict(z_threshold=0.0),
        dict(cold_storm_min=0),
        dict(live_interval=0.0),
    ):
        with pytest.raises(ValueError):
            HealthConfig(**bad)


def test_normalize_health():
    assert normalize_health(None) is None
    assert normalize_health(False) is None
    assert normalize_health(True) == HealthConfig()
    cfg = HealthConfig(window=2.0)
    assert normalize_health(cfg) is cfg
    with pytest.raises(TypeError, match="health must be"):
        normalize_health("yes")
    assert TelemetryConfig(health=True).health == HealthConfig()
    assert TelemetryConfig(health=None).health is None


def test_evaluate_health_grades_windows_and_spans():
    config = HealthConfig(
        window=10.0, detectors=False,
        targets=(SLOTarget(function="*", e2e_p99_s=1.0, cold_ratio=0.5,
                           drop_ratio=0.5),),
        availability=0.9, burn_windows=(2,),
    )
    c = config.collector()
    # Windows 0 and 1 violate the p99 ceiling (e2e 3s), window 3 is
    # healthy (e2e 0.1s), window 2 has no traffic (gap).
    for arrival in (1.0, 2.0, 11.0):
        c.observe_record(_record(arrival=arrival, e2e=3.0))
    c.observe_record(_record(arrival=30.0, e2e=0.1))
    report = evaluate_health(c, config=config)
    rows = report.rows
    assert [r["window"] for r in rows] == [0, 1, 3]
    assert rows[0]["violations"] == ["e2e_p99>1"]
    assert rows[0]["ok"] is False
    assert rows[2]["violations"] == []
    fn = report.health["functions"]["f.1"]
    assert fn["violating_windows"] == 2
    assert fn["spans"] == [{
        "start_window": 0, "end_window": 1, "windows": 2,
        "t0": 0.0, "t1": 20.0,
    }]
    # Trailing-2 worst violating fraction is 2/2 = 1.0; budget is 0.1.
    assert fn["burn_rates"]["2"] == pytest.approx(10.0)
    assert report.health["worst_burn"] == {
        "rate": pytest.approx(10.0), "function": "f.1",
    }
    totals = report.health["totals"]
    assert totals["violating_windows"] == 2
    assert totals["slo_rows"] == 3
    # Strict JSON: no NaN anywhere in the artifacts.
    json.loads(json.dumps(report.health, allow_nan=False))
    for row in rows:
        json.loads(json.dumps(row, allow_nan=False))


def test_evaluate_health_dropped_only_window_has_null_quantiles():
    config = HealthConfig(window=10.0, detectors=False)
    c = config.collector()
    c.observe_record(_record(arrival=1.0, outcome=Outcome.DROPPED))
    report = evaluate_health(c, config=config)
    (row,) = report.rows
    assert row["e2e_p99"] is None
    assert row["cold_ratio"] is None
    assert row["drop_ratio"] == 1.0
    assert "drop_ratio>0.01" in row["violations"]
    assert report.health["functions"]["f.1"]["e2e"] is None


def test_evaluate_health_rejects_mismatched_collector():
    with pytest.raises(ValueError, match="does not match"):
        evaluate_health(HealthCollector(window=5.0),
                        config=HealthConfig(window=10.0))


def test_summaries_health_rolls_up_plan_rows():
    config = HealthConfig(window=10.0, detectors=False,
                          targets=(SLOTarget(e2e_p99_s=1.0),))
    fqdns = ["a.1", "b.1", "a.1", "b.1"]
    timestamps = [1.0, 2.0, 11.0, 12.0]
    rows = [
        (0, False, True, True, 3.0, 0.1),   # violates in window 0
        (1, False, True, False, 0.2, 0.1),
        (2, False, True, False, 0.3, 0.1),
        (3, True, False, False, 0.0, 0.0),  # dropped -> drop_ratio 1.0
    ]
    out = summaries_health(fqdns, timestamps, rows, config=config)
    assert out["slo_violations"] == 2  # a.1 window 0 (p99), b.1 window 1 (drop)
    assert out["slo_rows"] == 4
    assert out["alerts"] == 0
    assert out["worst_burn_rate"] > 0
    assert out["worst_burn_function"] in ("a.1", "b.1")


# --------------------------------------------------------------- detectors
def test_ewma_detector_fires_on_spike_after_warmup():
    det = EwmaDetector(alpha=0.3, z_threshold=4.0)
    for _ in range(WARMUP_SAMPLES):
        assert det.update(1.0) is None  # flat baseline, still warming up
    fired = det.update(50.0)
    assert fired is not None
    z, baseline = fired
    assert z >= 4.0
    assert baseline < 50.0
    # A detector that only ever saw warmup samples never fires, even on
    # an enormous excursion.
    fresh = EwmaDetector(alpha=0.3, z_threshold=4.0)
    for _ in range(WARMUP_SAMPLES - 1):
        fresh.update(1.0)
    assert fresh.update(1e6) is None


def test_ewma_detector_cooldown_suppresses_sustained_excursion():
    det = EwmaDetector(alpha=0.1, z_threshold=4.0)
    for _ in range(WARMUP_SAMPLES):
        det.update(1.0)
    assert det.update(100.0) is not None
    # Samples still above threshold during cooldown stay quiet, and do
    # not burn cooldown credit either.
    follow_ups = [det.update(100.0) for _ in range(3)]
    assert follow_ups == [None, None, None]
    # Quiet samples drain the cooldown; the next spike fires again.
    for _ in range(COOLDOWN_SAMPLES + WARMUP_SAMPLES):
        det.update(1.0)
    assert det.update(1000.0) is not None


def _worker_series(rows):
    ts = Timeseries(WORKER_COLUMNS)
    for row in rows:
        full = {c: 0.0 for c in WORKER_COLUMNS}
        full.update(row)
        ts.append(*[full[c] for c in WORKER_COLUMNS])
    return ts


def test_detect_anomalies_queue_spike_and_idle_collapse():
    rows = [{"t": float(i), "queue_depth": 1.0, "warm_containers": 2.0}
            for i in range(8)]
    rows.append({"t": 8.0, "queue_depth": 50.0, "warm_containers": 2.0})
    rows.append({"t": 9.0, "queue_depth": 3.0, "warm_containers": 0.0})
    series = {"worker-0": _worker_series(rows)}
    config = HealthConfig(window=10.0)
    alerts = detect_anomalies(series, config.collector(), config)
    kinds = [a.kind for a in alerts]
    assert kinds == ["queue_depth_spike", "idle_worker_collapse"]
    spike = alerts[0]
    assert spike.entity == "worker-0"
    assert spike.t == 8.0
    assert spike.severity == "critical"  # 50 sigma >> 2x threshold
    assert "queue depth" in spike.message
    assert isinstance(spike, Alert)
    assert spike.as_dict()["kind"] == "queue_depth_spike"


def test_detect_anomalies_memory_pressure():
    rows = [{"t": float(i), "memory_used_mb": 100.0} for i in range(8)]
    rows.append({"t": 8.0, "memory_used_mb": 4000.0})
    series = {"worker-0": _worker_series(rows)}
    config = HealthConfig(window=10.0)
    alerts = detect_anomalies(series, config.collector(), config)
    assert [a.kind for a in alerts] == ["memory_pressure"]


def test_detect_anomalies_cold_start_storm():
    config = HealthConfig(window=10.0, cold_storm_min=4)
    c = config.collector()
    # Calm baseline windows, then a burst of cold starts.
    for w in range(8):
        c.observe_record(_record(arrival=w * 10.0 + 1.0, e2e=0.5))
    for i in range(10):
        c.observe_record(_record(arrival=81.0 + 0.1 * i, e2e=0.5, cold=True,
                                 outcome=Outcome.COLD))
    alerts = detect_anomalies({}, c, config)
    assert [a.kind for a in alerts] == ["cold_start_storm"]
    assert alerts[0].entity == "cluster"
    assert alerts[0].value == 10.0


def test_detect_anomalies_skips_non_worker_series():
    lb = Timeseries(("t", "load"))
    lb.append(0.0, 1.0)
    config = HealthConfig()
    assert detect_anomalies({"lb": lb}, config.collector(), config) == []


# -------------------------------------------------------------- live/watch
def test_live_writer_and_read_live(tmp_path):
    path = tmp_path / "live.jsonl"
    with LiveWriter(path) as writer:
        writer.heartbeat({"t": 1.0, "total": 5})
        writer.heartbeat({"t": 2.0, "total": 9, "done": True})
    # A torn final line (writer killed mid-append) is skipped.
    with open(path, "a") as fh:
        fh.write('{"t": 3.0, "tot')
    beats = read_live(path)
    assert [b["t"] for b in beats] == [1.0, 2.0]
    assert read_live(tmp_path / "missing.jsonl") == []


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([None, None]) == ""
    assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
    line = sparkline([0.0, 1.0, 2.0, 3.0])
    assert len(line) == 4
    assert line[0] == "▁" and line[-1] == "█"


def test_watch_report_frames(tmp_path):
    text, done = watch_report(tmp_path)
    assert "no live heartbeats yet" in text
    assert done is False
    with LiveWriter(tmp_path / "live.jsonl") as writer:
        writer.heartbeat({"t": 10.0, "engine": "serial", "total": 100,
                          "completed": 90, "cold": 5, "dropped": 0,
                          "queue_depth": 3, "running": 2, "e2e_p99": 0.25})
    text, done = watch_report(tmp_path)
    assert not done
    assert "[serial]" in text
    assert "100 total" in text
    assert "250.0ms" in text
    with open(tmp_path / "live.jsonl", "a") as fh:
        fh.write(json.dumps({"t": 20.0, "engine": "serial", "total": 120,
                             "done": True}) + "\n")
    text, done = watch_report(tmp_path)
    assert done
    assert "run complete" in text


def test_watch_loop_stops_on_done(tmp_path):
    with LiveWriter(tmp_path / "live.jsonl") as writer:
        writer.heartbeat({"t": 1.0, "done": True})
    out = io.StringIO()
    frames = watch(tmp_path, stream=out)
    assert frames == 1
    assert "run complete" in out.getvalue()
    frames = watch(tmp_path, once=True, stream=io.StringIO())
    assert frames == 1


def test_watch_respects_max_frames(tmp_path):
    with LiveWriter(tmp_path / "live.jsonl") as writer:
        writer.heartbeat({"t": 1.0})
    out = io.StringIO()
    assert watch(tmp_path, interval=0.0, max_frames=3, stream=out) == 3


# -------------------------------------------------- run dirs + golden A/B
@pytest.fixture(scope="module")
def health_run(tmp_path_factory):
    """The golden scenario with health enabled, exported to a run dir."""
    run_dir = tmp_path_factory.mktemp("health") / "run"
    reduction, telemetry = run_scenario(
        HEALTH_TC, return_telemetry=True,
        live_path=run_dir / "live.jsonl",
    )
    telemetry.export(run_dir)
    return run_dir, reduction


def test_health_on_records_stay_bit_identical(health_run):
    _, reduction = health_run
    golden = json.loads(GOLDEN_PATH.read_text())
    replay = normalized(reduction)
    assert replay["records"] == golden["records"]
    assert replay["spans"] == golden["spans"]


def test_health_run_dir_artifacts(health_run):
    run_dir, _ = health_run
    for name in ("health.json", "slo.jsonl", "health.prom", "live.jsonl"):
        assert (run_dir / name).exists(), name
    health, slo_rows = load_health(run_dir)
    assert health["version"] == 1
    assert health["totals"]["total"] == 42
    assert health["totals"]["slo_rows"] == len(slo_rows)
    assert slo_rows and all("violations" in r for r in slo_rows)
    # The summary/manifest advertise the health config only when on.
    data = load_run(run_dir)
    assert "health" in data["summary"]["config"]
    assert data["health"] == health
    assert data["slo"] == slo_rows
    beats = read_live(run_dir / "live.jsonl")
    assert beats and beats[-1]["done"] is True
    assert beats[-1]["total"] == 42


def test_health_off_run_dir_has_no_health_artifacts(tmp_path):
    _, telemetry = run_scenario(
        TelemetryConfig(interval=1.0, sample_energy=True),
        return_telemetry=True,
    )
    run_dir = tmp_path / "run"
    telemetry.export(run_dir)
    for name in ("health.json", "slo.jsonl", "health.prom", "live.jsonl"):
        assert not (run_dir / name).exists(), name
    data = load_run(run_dir)
    assert "health" not in data["summary"]["config"]
    assert data["health"] == {}


def _export_sharded(shards, run_dir):
    try:
        outcome = run_sharded_replay(
            golden_plan(),
            num_workers=3,
            shards=shards,
            registrations=FUNCTIONS,
            config=GOLDEN_CONFIG,
            status_interval=2.0,
            horizon=120.0,
            telemetry_config=HEALTH_TC,
        )
    except ShardingUnavailable as exc:  # pragma: no cover - sandbox dependent
        pytest.skip(f"shard processes unavailable here: {exc}")
    outcome.telemetry.export(run_dir)
    outcome.telemetry.cleanup()


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_health_artifacts_byte_identical(health_run, tmp_path, shards):
    serial_dir, _ = health_run
    shard_dir = tmp_path / f"shard{shards}"
    _export_sharded(shards, shard_dir)
    for name in ("health.json", "slo.jsonl", "health.prom"):
        assert (shard_dir / name).read_bytes() == \
            (serial_dir / name).read_bytes(), name


def test_live_heartbeats_from_serial_run(health_run):
    run_dir, _ = health_run
    beats = read_live(run_dir / "live.jsonl")
    # One beat per heartbeat interval (= window, 10s) over the 120s run,
    # plus the terminal beat.
    assert len(beats) >= 3
    assert all(b["engine"] == "serial" for b in beats)
    totals = [b["total"] for b in beats]
    assert totals == sorted(totals)  # monotone rolling counts


def test_enable_live_requires_health(tmp_path):
    from repro.sim.core import Environment

    telemetry = Telemetry(Environment(), TelemetryConfig())
    with pytest.raises(RuntimeError, match="health"):
        telemetry.enable_live(tmp_path / "live.jsonl")


# --------------------------------------------------------- reports + CLI
def test_health_report_renders_tables(health_run):
    run_dir, _ = health_run
    text = health_report(run_dir)
    assert "health report for" in text
    assert "per-function SLO compliance:" in text
    assert "alpha.1" in text
    assert "worst_burn" in text
    assert "SLO:" in text


def test_health_report_missing_artifacts(tmp_path):
    text = health_report(tmp_path)
    assert "no health artifacts" in text
    assert "--health" in text


def test_health_section_in_inspect(health_run):
    run_dir, _ = health_run
    from repro.telemetry import inspect_report

    text = inspect_report(run_dir)
    assert "health:" in text
    assert "violating windows" in text
    assert f"repro health {run_dir}" in text


def test_health_section_fallback_when_off(tmp_path):
    _, telemetry = run_scenario(
        TelemetryConfig(interval=1.0), return_telemetry=True)
    run_dir = tmp_path / "run"
    telemetry.export(run_dir)
    assert any("not enabled" in line for line in health_section(run_dir))
    from repro.telemetry import inspect_report

    text = inspect_report(run_dir)
    assert "health: (not enabled for this run)" in text


def test_cli_health_and_watch_commands(health_run, capsys):
    run_dir, _ = health_run
    assert main(["health", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "per-function SLO compliance:" in out
    assert main(["watch", str(run_dir), "--once"]) == 0
    out = capsys.readouterr().out
    assert "run complete" in out


def test_cli_cluster_study_health_flag_validation(capsys):
    with pytest.raises(SystemExit):
        main(["cluster-study", "--health"])
    assert "--health requires --telemetry" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["--telemetry", "/tmp/x", "cluster-study", "--health",
              "--compare-lb"])
    assert "not the" in capsys.readouterr().err


# -------------------------------------------------------------- azure-scale
def test_azure_scale_health_columns(tmp_path):
    from repro.experiments.azure_scale import run_azure_scale

    out = tmp_path / "bench.json"
    report = run_azure_scale(
        num_functions=20, minutes=4, num_workers=3, shard_counts=(1,),
        out_path=out, health=True,
    )
    (row,) = report.rows
    assert row.health is not None
    assert set(row.health) == {
        "slo_violations", "slo_rows", "alerts", "worst_burn_rate",
        "worst_burn_function",
    }
    record = json.loads(out.read_text())
    assert record["rows"][0]["health"] == row.health


def test_azure_scale_health_off_omits_column(tmp_path):
    from repro.experiments.azure_scale import run_azure_scale

    out = tmp_path / "bench.json"
    report = run_azure_scale(
        num_functions=20, minutes=4, num_workers=3, shard_counts=(1,),
        out_path=out,
    )
    assert report.rows[0].health is None
    assert "health" not in json.loads(out.read_text())["rows"][0]
