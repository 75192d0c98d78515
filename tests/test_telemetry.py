"""Tests for the telemetry pipeline: histograms, sampler, decomposition,
exporters, run directories and the inspect CLI."""

import json
import math
import re
from fractions import Fraction

import pytest

from repro.cli import main
from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.core.worker import Worker
from repro.loadbalancer.cluster import Cluster
from repro.metrics import (
    LATENCY_HISTOGRAMS,
    DDSketch,
    MetricsRegistry,
    merge_registries,
)
from repro.metrics.registry import InvocationRecord, Outcome
from repro.sim.core import Environment
from repro.telemetry import (
    PHASES,
    Telemetry,
    TelemetryConfig,
    TelemetrySampler,
    Timeseries,
    decompose,
    dump_timeseries_csv,
    inspect_report,
    load_run,
    match_records,
    render_prometheus,
)

REG = FunctionRegistration(name="f", memory_mb=128, warm_time=0.1, cold_time=0.5)


def _run_worker(n_invocations=3, telemetry_config=None, until=30.0):
    """One worker, sequential invocations, optional telemetry attached."""
    env = Environment()
    worker = Worker(env, WorkerConfig(cores=2, memory_mb=4096))
    telemetry = None
    if telemetry_config is not None:
        telemetry = Telemetry(env, telemetry_config)
        telemetry.attach_worker(worker)
        telemetry.start()
    worker.start()
    worker.register_sync(REG)

    def drive():
        for _ in range(n_invocations):
            yield from worker.invoke(REG.fqdn())

    env.process(drive(), name="drive")
    env.run(until=until)
    if telemetry is not None:
        telemetry.stop()
    return worker, telemetry


# ---------------------------------------------------------------- histogram
# The registry's histograms are DDSketch quantile sketches; the sketch's
# accuracy, merge and pickling contracts live in tests/test_health.py and
# tests/test_property_histogram.py.  These cover the rest of its surface.
def test_histogram_bucket_semantics():
    h = DDSketch(relative_accuracy=0.01, min_value=1e-9)
    # At or below min_value: the zero bucket.  Above: bucket k holds
    # (gamma^(k-1), gamma^k], with no overflow bucket at the top.
    h.observe(0.0)
    h.observe(1e-9)
    h.observe(1.0)                 # == gamma^0, the top of bucket 0
    h.observe(h.gamma ** 4.5)      # inside bucket 5
    h.observe(h.gamma ** 5.5)      # inside bucket 6
    h.observe(1e300)
    assert h.count == 6
    assert h.zero_count == 2
    assert h.counts[0] == 1 and h.counts[5] == 1 and h.counts[6] == 1
    assert sum(h.counts.values()) == 4
    assert h.minimum == 0.0 and h.maximum == 1e300


def test_histogram_rejects_bad_samples():
    h = DDSketch()
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-negative"):
            h.observe(bad)
    assert h.count == 0 and h.total == 0.0


def test_histogram_validation():
    h = DDSketch()
    with pytest.raises(ValueError):
        h.quantile(101)
    # Empty: quantile queries are NaN, but the JSON-bound summary says
    # null rather than NaN.
    assert math.isnan(h.quantile(50)) and math.isnan(h.mean)
    assert h.summary() == {
        "count": 0, "mean": None, "min": None, "max": None,
        "p50": None, "p90": None, "p99": None,
    }
    assert list(h.cumulative()) == [(math.inf, 0)]


def test_histogram_quantiles_bounded_by_bucket():
    h = DDSketch(relative_accuracy=0.01)
    samples = [0.01 * 1.07**i for i in range(150)]
    for s in samples:
        h.observe(s)
    for q in (0, 50, 90, 99, 100):
        rank = max(1, math.ceil(q / 100 * len(samples)))
        exact = samples[rank - 1]
        est = h.quantile(q)
        assert abs(est - exact) <= 0.01 * exact
        assert h.minimum <= est <= h.maximum
    # Estimates clamp to the observed range: one sample reads back exactly.
    single = DDSketch(relative_accuracy=0.05)
    single.observe(0.123)
    assert all(single.quantile(q) == 0.123 for q in (0, 50, 100))


def _registry_with(values):
    reg = MetricsRegistry()
    reg.enable_latency_histograms()
    for v in values:
        reg.observe("e2e_seconds", v)
    return reg


def _parts(*registries):
    return [
        (f"w-{i}", reg.counters, reg.gauges, reg.histograms)
        for i, reg in enumerate(registries)
    ]


def test_histogram_merge():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.incr("invocations.completed", 2)
    b.incr("invocations.completed", 2)
    a.set_gauge("queue", 1.0)
    b.set_gauge("queue", 3.0)
    for v in (0.1, 0.2):
        a.observe("e2e_seconds", v)
    b.observe("e2e_seconds", 0.3)
    merged = merge_registries(_parts(a, b))
    assert merged.counters == {"invocations.completed": 4}
    assert merged.gauges == {"w-0.queue": 1.0, "w-1.queue": 3.0}
    hist = merged.histograms["e2e_seconds"]
    assert hist.count == 3
    # The exact sum, rounded once: (0.1 + 0.2) + 0.3 would give
    # 0.6000000000000001.
    assert hist.total == math.fsum((0.1, 0.2, 0.3)) == 0.6
    assert hist.mean == 0.2
    assert hist.maximum == 0.3 and hist.minimum == 0.1
    # The inputs are left untouched.
    assert a.histograms["e2e_seconds"].count == 2


def test_histogram_merge_empty_is_identity():
    # A worker that completed nothing still carries its (empty) latency
    # histograms; merging it in, first or last, changes nothing.
    busy = _registry_with([0.05, 0.2, 1.5])
    idle = _registry_with([])
    alone = merge_registries(_parts(busy)).histograms
    for parts in (_parts(busy, idle), _parts(idle, busy)):
        merged = merge_registries(parts).histograms
        assert merged == alone
        assert merged["e2e_seconds"].summary() == busy.histograms["e2e_seconds"].summary()
        assert merged["queue_seconds"].count == 0


def test_histogram_quantile_after_merge_matches_single_stream():
    samples = [0.01 * (i + 1) for i in range(50)] + [2.0, 5.0, 9.0]
    whole = _registry_with(samples).histograms["e2e_seconds"]
    workers = [_registry_with(samples[i::3]) for i in range(3)]
    merged = merge_registries(_parts(*workers)).histograms["e2e_seconds"]
    assert merged == whole
    # summary.json's histogram entry, mean included, is the single
    # stream's bit for bit.
    assert merged.summary() == whole.summary()
    for q in (0, 50, 90, 99, 100):
        assert merged.quantile(q) == whole.quantile(q)


def test_histogram_cumulative_and_reset():
    reg = _registry_with([0.0, 0.5, 0.5, 2.0])
    h = reg.histograms["e2e_seconds"]
    pairs = list(h.cumulative())
    # One entry per non-empty bucket (zero bucket first), then +Inf.
    assert len(pairs) == 4
    assert pairs[0] == (h.min_value, 1)
    assert pairs[-1] == (math.inf, 4)
    bounds = [b for b, _ in pairs]
    assert bounds == sorted(set(bounds))
    assert [c for _, c in pairs] == [1, 3, 4, 4]
    assert pairs[1][0] >= 0.5 and pairs[2][0] >= 2.0
    reg.reset()
    assert list(reg.histograms["e2e_seconds"].cumulative()) == [(math.inf, 0)]


def test_registry_latency_histograms_opt_in():
    reg = MetricsRegistry()
    rec = InvocationRecord(
        function="f", arrival=0.0, outcome=Outcome.WARM,
        exec_time=0.1, e2e_time=0.15, queue_time=0.02, overhead=0.05,
    )
    reg.record_invocation(rec)
    assert reg.histograms == {}  # off by default: nothing allocated
    reg.enable_latency_histograms()
    reg.record_invocation(rec)
    reg.record_invocation(
        InvocationRecord(function="f", arrival=0.0, outcome=Outcome.DROPPED)
    )
    for name in LATENCY_HISTOGRAMS:
        assert reg.histograms[name].count == 1  # drop not observed
    assert reg.histograms["e2e_seconds"].maximum == pytest.approx(0.15)
    reg.reset()
    assert reg.latency_histograms_enabled  # survives reset, empty again
    assert all(reg.histograms[n].count == 0 for n in LATENCY_HISTOGRAMS)


# --------------------------------------------------------------- timeseries
def test_timeseries_append_and_rows():
    ts = Timeseries(("t", "x"))
    ts.append(0.0, 1)
    ts.append(1.0, 2)
    assert len(ts) == 2
    assert ts.column("x") == [1, 2]
    assert list(ts.rows()) == [{"t": 0.0, "x": 1}, {"t": 1.0, "x": 2}]
    with pytest.raises(ValueError):
        ts.append(2.0)
    with pytest.raises(ValueError):
        Timeseries(())
    with pytest.raises(ValueError):
        Timeseries(("a", "a"))


def test_telemetry_config_validation():
    with pytest.raises(ValueError):
        TelemetryConfig(interval=0.0)
    with pytest.raises(ValueError):
        TelemetrySampler(Environment(), interval=-1.0)


# ------------------------------------------------------------------ sampler
def test_sampler_snapshots_on_grid():
    worker, telemetry = _run_worker(
        n_invocations=3, telemetry_config=TelemetryConfig(interval=1.0)
    )
    ts = telemetry.series[worker.name]
    assert set(ts.columns) == {
        "t", "queue_depth", "running", "warm_containers",
        "in_use_containers", "memory_used_mb", "busy_cores",
    }
    times = ts.column("t")
    assert times == [float(i) for i in range(1, len(times) + 1)]
    assert telemetry.sampler.samples == len(times)
    # The warm container parked after the run shows up in the tail samples.
    assert ts.column("warm_containers")[-1] == 1
    assert ts.column("memory_used_mb")[-1] == pytest.approx(128.0)


def test_sampler_energy_columns_opt_in():
    worker, telemetry = _run_worker(
        n_invocations=2,
        telemetry_config=TelemetryConfig(interval=1.0, sample_energy=True),
    )
    ts = telemetry.series[worker.name]
    assert "power_w" in ts.columns and "energy_j" in ts.columns
    energy = ts.column("energy_j")
    assert energy == sorted(energy)  # energy is non-decreasing
    assert energy[-1] > 0.0
    # Sampling must not have perturbed the monitor's own integration.
    assert worker.energy.joules_at(telemetry.env.now) >= energy[-1]


def test_sampler_double_start_and_duplicate_worker_rejected():
    env = Environment()
    worker = Worker(env, WorkerConfig())
    sampler = TelemetrySampler(env, interval=1.0)
    sampler.attach_worker(worker)
    with pytest.raises(ValueError):
        sampler.attach_worker(worker)
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()


# ------------------------------------------------------------ decomposition
def test_decomposition_phases_sum_to_recorded_overhead():
    worker, telemetry = _run_worker(
        n_invocations=4, telemetry_config=TelemetryConfig()
    )
    records = [r for r in telemetry.records()]
    breakdowns = telemetry.breakdowns()
    assert len(breakdowns) == 4
    assert breakdowns[0].cold and not breakdowns[1].cold
    by_id = {b.invocation_id: b for b in breakdowns}
    for rec in records:
        b = by_id[rec.invocation_id]
        assert b.overhead == pytest.approx(rec.overhead, abs=1e-9)
        assert b.exec_time == pytest.approx(rec.exec_time)
        assert set(b.phases) == set(PHASES)
    matched, compared = match_records(breakdowns, records)
    assert (matched, compared) == (4, 4)


def test_decomposition_skips_untagged_and_execless_groups():
    from repro.metrics.spans import Span

    spans = [
        Span("invoke", 0.0, 0.1, tag=None),          # untagged -> ignored
        Span("lb_pick", 0.0, 0.1, tag="fn-fqdn"),    # no exec span -> skipped
        Span("invoke", 0.0, 0.1, tag="7"),
        Span("exec", 0.1, 0.3, tag="7"),
        Span("weird_component", 0.3, 0.4, tag="7"),  # unknown -> "other"
    ]
    out = decompose(spans)
    assert len(out) == 1
    b = out[0]
    assert b.invocation_id == 7
    assert b.phases["queue"] == pytest.approx(0.1)
    assert b.phases["other"] == pytest.approx(0.1)
    assert b.exec_time == pytest.approx(0.2)


def test_decomposition_counts_queue_wait_gap():
    from repro.metrics.spans import Span

    spans = [
        Span("add_item_to_q", 0.0, 0.1, tag="1"),
        Span("dequeue", 0.6, 0.7, tag="1"),  # 0.5 s waiting in queue
        Span("exec", 0.7, 1.0, tag="1"),
    ]
    b = decompose(spans)[0]
    assert b.phases["queue"] == pytest.approx(0.1 + 0.1 + 0.5)


# -------------------------------------------------------------- exporters
def test_timeseries_csv_round_trip(tmp_path):
    ts = Timeseries(("t", "v"))
    ts.append(0.0, 1.5)
    ts.append(1.0, 2.5)
    path = tmp_path / "ts.csv"
    assert dump_timeseries_csv(ts, path) == 2
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,v"
    assert lines[1] == "0.0,1.5"


PROM_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
    r"[0-9eE+.\-]+|[+-]Inf|NaN$"
)


def test_prometheus_rendering_parses():
    reg = MetricsRegistry()
    reg.incr("scheduler.bypass", 3)
    reg.set_gauge("pool.memory-used", 42.5)
    reg.enable_latency_histograms()
    reg.record_invocation(
        InvocationRecord(
            function="f", arrival=0.0, outcome=Outcome.WARM,
            exec_time=0.1, e2e_time=0.15, queue_time=0.02, overhead=0.05,
        )
    )
    e2e = [0.15, 0.1, 0.2, 0.2, 0.3, 1.7, 0.0, 12.5]
    for v in e2e[1:]:
        reg.observe("e2e_seconds", v)
    text = render_prometheus(reg)
    assert text.endswith("\n")
    lines = text.splitlines()
    for line in lines:
        if not line or line.startswith("#"):
            continue
        assert PROM_LINE.match(line), f"bad exposition line: {line!r}"
    assert "repro_scheduler_bypass_total 3" in lines
    assert "repro_pool_memory_used 42.5" in lines
    # Histogram family: cumulative buckets at ascending bounds, one per
    # non-empty sketch bucket, closed by le="+Inf" == _count; _sum exact.
    buckets = [
        re.match(r'repro_e2e_seconds_bucket\{le="([^"]+)"\} (\d+)$', line)
        for line in lines if line.startswith("repro_e2e_seconds_bucket")
    ]
    assert all(buckets)
    bounds = [float(m.group(1)) for m in buckets]
    counts = [int(m.group(2)) for m in buckets]
    assert buckets[-1].group(1) == "+Inf"
    assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
    assert counts == sorted(counts)
    assert len(buckets) == len(set(e2e)) + 1  # non-empty buckets + "+Inf"
    assert counts[-1] == len(e2e)
    assert f"repro_e2e_seconds_count {len(e2e)}" in lines
    assert f"repro_e2e_seconds_sum {math.fsum(e2e)!r}" in lines
    assert 'repro_queue_seconds_bucket{le="+Inf"} 1' in lines
    # TYPE declarations for all three metric kinds.
    joined = "\n".join(lines)
    for kind in ("counter", "gauge", "histogram"):
        assert f" {kind}" in joined


# A strict model of the text exposition format: metric name, optional
# label set (escaped values), float value.  Stricter than PROM_LINE — it
# recovers the label values so escaping can be checked round-trip.
_STRICT_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\")*)\})?"
    r" (?P<value>[0-9eE+.\-]+|[+-]Inf|NaN)$"
)
_STRICT_LABEL = re.compile(
    r"([a-zA-Z_][a-zA-Z0-9_]*)=\"((?:[^\"\\\n]|\\[\\\"n])*)\"")


def _unescape_label(raw: str) -> str:
    out, i = [], 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            nxt = raw[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}[nxt])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_exposition(text: str):
    """Parse exposition text strictly; returns (samples, helps, types)."""
    samples, helps, types = [], {}, {}
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, doc = line[len("# HELP "):].partition(" ")
            assert "\n" not in doc
            helps[name] = doc
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert kind in ("counter", "gauge", "histogram", "summary"), line
            types[name] = kind
            continue
        m = _STRICT_SAMPLE.match(line)
        assert m, f"malformed exposition line: {line!r}"
        labels = {
            k: _unescape_label(v)
            for k, v in _STRICT_LABEL.findall(m.group("labels") or "")
        }
        samples.append((m.group("name"), labels, m.group("value")))
    return samples, helps, types


def _family(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def test_escape_label_value_specials():
    from repro.telemetry import escape_label_value

    assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
    assert _unescape_label(escape_label_value('a\\b"c\nd')) == 'a\\b"c\nd'
    assert escape_label_value("plain") == "plain"


def test_registry_prometheus_conformance_round_trip():
    reg = MetricsRegistry()
    reg.incr("scheduler.bypass", 3)
    reg.set_gauge("pool.memory-used", 42.5)
    reg.enable_latency_histograms()
    reg.record_invocation(
        InvocationRecord(
            function="f", arrival=0.0, outcome=Outcome.WARM,
            exec_time=0.1, e2e_time=0.15, queue_time=0.02, overhead=0.05,
        )
    )
    samples, helps, types = _parse_exposition(render_prometheus(reg))
    assert samples
    # Every sample belongs to a family with both # HELP and # TYPE.
    for name, _, _ in samples:
        family = _family(name)
        assert family in types, name
        assert family in helps, name
    # Counter/gauge/histogram kinds land where expected.
    assert types["repro_scheduler_bypass_total"] == "counter"
    assert types["repro_pool_memory_used"] == "gauge"
    assert types["repro_e2e_seconds"] == "histogram"


def test_health_prometheus_conformance_and_label_escaping():
    from repro.health import HealthConfig
    from repro.telemetry import render_health_prometheus

    weird = 'fn"one\\two\nthree.1'
    config = HealthConfig(window=10.0, detectors=False)
    collector = config.collector()
    from repro.health import evaluate_health

    collector.observe(weird, 1.0, completed=True, e2e_time=0.5,
                      queue_time=0.1, overhead=0.2, worker="w-0")
    collector.observe("plain.1", 2.0, completed=True, e2e_time=1.5)
    report = evaluate_health(collector, config=config)
    text = render_health_prometheus(report.health)
    samples, helps, types = _parse_exposition(text)
    for name, _, _ in samples:
        assert name in types and name in helps, name
    # The weird function name survives the escape/parse round trip.
    fn_labels = {
        labels["function"] for name, labels, _ in samples
        if name == "repro_health_slo_violating_windows"
    }
    assert fn_labels == {weird, "plain.1"}
    quantiles = {
        labels["quantile"] for name, labels, _ in samples
        if name == "repro_health_e2e_seconds"
    }
    assert quantiles == {"0.5", "0.9", "0.99"}
    worker_samples = [
        labels for name, labels, _ in samples
        if name == "repro_health_queue_seconds"
    ]
    assert all(l["worker"] == "w-0" for l in worker_samples)


# ------------------------------------------------------ run dirs + inspect
def test_export_load_run_and_inspect(tmp_path):
    worker, telemetry = _run_worker(
        n_invocations=3,
        telemetry_config=TelemetryConfig(interval=1.0, sample_energy=True),
    )
    run_dir = tmp_path / "run"
    paths = telemetry.export(run_dir)
    assert sorted(p.name for p in paths.values()) == [
        "manifest.json", "metrics.prom", "records.jsonl", "spans.jsonl",
        "summary.json", "timeseries.jsonl",
    ]
    data = load_run(run_dir)
    assert len(data["records"]) == 3
    assert data["summary"]["invocations"] == 3
    assert data["summary"]["decomposition"]["matched_records"] == 3
    assert data["metrics_text"].startswith("# HELP")
    # Every timeseries row round-trips with its series name attached.
    assert all(row["series"] == worker.name for row in data["timeseries"])
    ts_row = data["timeseries"][0]
    assert "power_w" in ts_row and "queue_depth" in ts_row

    report = inspect_report(run_dir)
    assert "overhead decomposition" in report
    assert "phase sums match 3/3 records" in report
    assert "latency distributions" in report


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def test_summary_quantiles_within_sketch_accuracy(tmp_path):
    env = Environment()
    cluster = Cluster(
        env, num_workers=2, config=WorkerConfig(cores=2, memory_mb=4096),
    )
    telemetry = Telemetry(env, TelemetryConfig(interval=1.0))
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    regs = [
        FunctionRegistration(
            name=f"f{i}", memory_mb=128, warm_time=0.05 * (i + 1),
            cold_time=0.4 + 0.1 * i,
        )
        for i in range(4)
    ]
    for reg in regs:
        cluster.register_sync(reg)

    def drive(reg, gap):
        for _ in range(15):
            cluster.async_invoke(reg.fqdn())
            yield env.timeout(gap)

    for i, reg in enumerate(regs):
        env.process(drive(reg, 0.13 + 0.07 * i), name=f"drive-{i}")
    env.run(until=60.0)
    telemetry.stop()
    telemetry.export(tmp_path)

    summary = json.loads((tmp_path / "summary.json").read_text())
    with open(tmp_path / "records.jsonl") as fh:
        done = [
            r for r in map(json.loads, fh)
            if r["outcome"] not in ("dropped", "timeout")
        ]
    assert len(done) == 60
    columns = {"e2e_seconds": "e2e_time", "queue_seconds": "queue_time",
               "overhead_seconds": "overhead"}
    for name, column in columns.items():
        values = [r[column] for r in done]
        stats = summary["histograms"][name]
        assert stats["count"] == len(values)
        assert stats["min"] == min(values) and stats["max"] == max(values)
        # The exact mean, rounded once.
        assert stats["mean"] == float(sum(map(Fraction, values)) / len(values))
        for q in (50, 90, 99):
            exact = _nearest_rank(values, q)
            # Zero-bucket samples (<= 1e-9 s) report 0.0.
            tolerance = 0.01 * exact if exact > 1e-9 else 1e-9
            assert abs(stats[f"p{q}"] - exact) <= tolerance, (name, q)


def test_summary_json_strict_when_nothing_completed(tmp_path):
    _, telemetry = _run_worker(n_invocations=0, telemetry_config=TelemetryConfig())
    telemetry.export(tmp_path)

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    summary = json.loads(
        (tmp_path / "summary.json").read_text(), parse_constant=reject
    )
    assert summary["invocations"] == 0
    for name in LATENCY_HISTOGRAMS:
        stats = summary["histograms"][name]
        assert stats["count"] == 0
        assert all(stats[k] is None for k in ("mean", "min", "max", "p50", "p90", "p99"))


def test_inspect_empty_dir(tmp_path):
    report = inspect_report(tmp_path)
    assert "no telemetry artifacts" in report


def test_records_jsonl_schema(tmp_path):
    _, telemetry = _run_worker(n_invocations=2, telemetry_config=TelemetryConfig())
    telemetry.export(tmp_path)
    with open(tmp_path / "records.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 2
    assert rows[0]["outcome"] == "cold" and rows[1]["outcome"] == "warm"
    # IDs come from a global counter: positive, distinct, arrival-ordered.
    ids = [r["invocation_id"] for r in rows]
    assert all(i > 0 for i in ids) and ids == sorted(ids) and len(set(ids)) == 2
    assert rows[0]["e2e_time"] >= rows[0]["exec_time"]


# ------------------------------------------------------------- cluster + CLI
def test_cluster_telemetry_and_statusboard_publish(tmp_path):
    env = Environment()
    cluster = Cluster(
        env, num_workers=2,
        config=WorkerConfig(cores=2, memory_mb=4096),
        status_interval=5.0,
    )
    telemetry = Telemetry(env, TelemetryConfig(interval=1.0))
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    cluster.register_sync(REG)

    def drive():
        for _ in range(6):
            yield from cluster.invoke(REG.fqdn())

    env.process(drive(), name="drive")
    env.run(until=30.0)
    telemetry.stop()

    assert set(telemetry.series) == set(cluster.workers)
    # The status board published the load values the balancer acted on.
    assert len(telemetry.sampler.lb_loads) > 0
    loads = list(telemetry.sampler.lb_loads.rows())
    assert all(row["worker"] in cluster.workers for row in loads)

    run_dir = tmp_path / "cluster-run"
    telemetry.export(run_dir)
    data = load_run(run_dir)
    series_names = {row["series"] for row in data["timeseries"]}
    assert "lb" in series_names
    # LB spans are retained but never confused with invocations.
    summary = data["summary"]
    assert summary["decomposition"]["invocations"] == 6
    assert summary["decomposition"]["matched_records"] == 6


def test_cli_inspect_command(tmp_path, capsys):
    _, telemetry = _run_worker(n_invocations=2, telemetry_config=TelemetryConfig())
    run_dir = tmp_path / "run"
    telemetry.export(run_dir)
    assert main(["inspect", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "overhead decomposition" in out
    assert "telemetry run" in out


def test_cli_telemetry_env_fallback(tmp_path, monkeypatch, capsys):
    run_dir = tmp_path / "env-run"
    monkeypatch.setenv("REPRO_TELEMETRY", str(run_dir))
    assert main(["--scale", "small", "cluster-study"]) == 0
    out = capsys.readouterr().out
    assert f"telemetry run exported to {run_dir}" in out
    assert (run_dir / "summary.json").exists()
