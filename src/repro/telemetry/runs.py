"""The telemetry pipeline: attach → sample → export → inspect.

:class:`Telemetry` bundles the whole observability stack behind one
opt-in object.  An experiment constructs it, attaches a worker or a
cluster *before* starting the run, and calls :meth:`export` afterwards to
produce a self-contained run directory:

=================  ====================================================
``timeseries.jsonl``  sampled gauge rows, one JSON object per line,
                      ``series`` keying the worker (plus ``lb`` for the
                      status-board load signal)
``spans.jsonl``       merged retained spans (workers + load balancer)
``records.jsonl``     per-invocation records
``metrics.prom``      Prometheus text-format snapshot of the merged
                      registries
``summary.json``      config echo, outcome tallies, latency-histogram
                      summaries and the phase decomposition
=================  ====================================================

``repro inspect <run-dir>`` (see :func:`inspect_report`) renders the
directory back into the paper-style tables.  When no ``Telemetry`` is
constructed nothing here runs — the worker hot path is byte-identical to
a build without this package.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

from ..metrics.registry import (
    InvocationRecord,
    MetricsRegistry,
    Outcome,
    merge_registries,
)
from ..metrics.spans import Span, dump_spans_jsonl, load_spans_jsonl
from .decomposition import (
    breakdown_rows,
    decompose,
    decompose_contexts,
    match_records,
)
from .exporters import (
    dump_timeseries_jsonl,
    write_health_prometheus,
    write_prometheus,
)
from .sampler import TelemetryConfig, TelemetrySampler, Timeseries

__all__ = [
    "Telemetry",
    "RUN_FILES",
    "write_run_dir",
    "build_summary",
    "build_manifest",
    "load_run",
    "inspect_report",
]

# Canonical run-directory layout (name → filename).  The first five are
# always written; the rest only when the run produced them ("traces" when
# tracing was enabled, "flight" when the sharded coordinator recorded its
# flight log, "health"/"slo"/"health_prom" when the health layer was on,
# "live" while a health-enabled run is in flight, "manifest" whenever the
# writer supplies provenance).
RUN_FILES = {
    "timeseries": "timeseries.jsonl",
    "spans": "spans.jsonl",
    "records": "records.jsonl",
    "metrics": "metrics.prom",
    "summary": "summary.json",
    "traces": "traces.jsonl",
    "flight": "flight.json",
    "health": "health.json",
    "slo": "slo.jsonl",
    "health_prom": "health.prom",
    "live": "live.jsonl",
    "manifest": "manifest.json",
}
_CORE_FILES = ("timeseries", "spans", "records", "metrics", "summary")


def write_run_dir(
    run_dir: Union[str, Path],
    *,
    series: dict,
    spans,
    records,
    registry: MetricsRegistry,
    summary: dict,
    traces=None,
    flight: Optional[dict] = None,
    health: Optional[dict] = None,
    slo_rows=None,
    manifest: Optional[dict] = None,
) -> dict[str, Path]:
    """Write the canonical run-directory layout from already-merged parts.

    :class:`Telemetry` feeds this from one live pipeline; the cluster-shard
    merge feeds it from per-shard payloads.  Either way the directory is
    identical and ``repro inspect`` reads it back the same.  ``spans``,
    ``records``, and ``traces`` may be any single-pass iterables (each is
    walked exactly once, straight onto disk) — the cluster-shard merge
    hands over lazy k-way-merged streams.  The optional artifacts are
    written (and included in the returned paths) only when supplied, so a
    tracing-off export stays byte-identical to earlier layouts apart from
    the provenance manifest.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {k: run_dir / RUN_FILES[k] for k in _CORE_FILES}

    dump_timeseries_jsonl(series, paths["timeseries"])
    dump_spans_jsonl(spans, paths["spans"])

    with open(paths["records"], "w") as fh:
        for r in records:
            fh.write(json.dumps({
                "function": r.function,
                "arrival": r.arrival,
                "outcome": r.outcome.value,
                "exec_time": r.exec_time,
                "e2e_time": r.e2e_time,
                "queue_time": r.queue_time,
                "overhead": r.overhead,
                "cold": r.cold,
                "worker": r.worker,
                "invocation_id": r.invocation_id,
            }))
            fh.write("\n")

    write_prometheus(registry, paths["metrics"])

    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    if traces is not None:
        from ..tracing.events import dump_trace_jsonl

        paths["traces"] = run_dir / RUN_FILES["traces"]
        dump_trace_jsonl(traces, paths["traces"])
    if flight is not None:
        paths["flight"] = run_dir / RUN_FILES["flight"]
        with open(paths["flight"], "w") as fh:
            json.dump(flight, fh, indent=2)
            fh.write("\n")
    if health is not None:
        paths["health"] = run_dir / RUN_FILES["health"]
        with open(paths["health"], "w") as fh:
            json.dump(health, fh, indent=2)
            fh.write("\n")
        paths["slo"] = run_dir / RUN_FILES["slo"]
        with open(paths["slo"], "w") as fh:
            for row in (slo_rows or ()):
                fh.write(json.dumps(row, separators=(",", ":")))
                fh.write("\n")
        paths["health_prom"] = run_dir / RUN_FILES["health_prom"]
        write_health_prometheus(health, paths["health_prom"])
    if manifest is not None:
        paths["manifest"] = run_dir / RUN_FILES["manifest"]
        with open(paths["manifest"], "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return paths


def build_summary(
    config: TelemetryConfig,
    worker_names: list,
    samples: int,
    records: list,
    merged: MetricsRegistry,
    breakdowns: list,
    dispatch: Optional[dict] = None,
) -> dict:
    """The ``summary.json`` structure from already-merged run parts."""
    outcomes: dict[str, int] = {}
    for r in records:
        outcomes[r.outcome.value] = outcomes.get(r.outcome.value, 0) + 1
    matched, compared = match_records(breakdowns, records)
    cfg = {
        "interval": config.interval,
        "sample_energy": config.sample_energy,
        "keep_spans": config.keep_spans,
        "histograms": config.histograms,
    }
    # Only present when enabled, so a health-off summary.json stays
    # byte-identical to exports from before the health layer existed.
    health = getattr(config, "health", None)
    if health is not None:
        cfg["health"] = health.describe()
    out = {
        "config": cfg,
        "workers": list(worker_names),
        "samples": samples,
        "invocations": len(records),
        "outcomes": outcomes,
        "histograms": {
            name: merged.histograms[name].summary()
            for name in sorted(merged.histograms)
        },
        "decomposition": {
            "invocations": len(breakdowns),
            "matched_records": matched,
            "compared_records": compared,
            "rows": breakdown_rows(breakdowns),
        },
    }
    # Only present for cluster runs (the telemetry pipeline learned the
    # active policy from attach_cluster); worker-only runs and run dirs
    # from before the dispatch layer simply lack the key.
    if dispatch is not None:
        out["dispatch"] = dict(dispatch)
    return out


def build_manifest(
    config: TelemetryConfig,
    worker_names: list,
    shards: int = 1,
) -> dict:
    """The ``manifest.json`` provenance record for a run directory.

    Deliberately free of wall-clock timestamps: two runs of the same
    configuration produce the same manifest (``shards`` aside), so the
    serial-vs-sharded byte-identity gates only have to exclude this one
    file — and can still assert ``config_hash`` equality across it.
    """
    cfg = {
        "interval": config.interval,
        "sample_energy": config.sample_energy,
        "keep_spans": config.keep_spans,
        "histograms": config.histograms,
        "trace": getattr(config, "trace", False),
    }
    health = getattr(config, "health", None)
    if health is not None:
        cfg["health"] = health.describe()
    payload = json.dumps({"config": cfg, "workers": list(worker_names)},
                         sort_keys=True)
    from .. import __version__

    return {
        "schema": 1,
        "version": __version__,
        "config_hash": hashlib.sha256(payload.encode()).hexdigest()[:16],
        "config": cfg,
        "workers": list(worker_names),
        "shards": int(shards),
        "cpu_count": os.cpu_count() or 1,
    }


class Telemetry:
    """One run's telemetry: sampler + span retention + latency histograms.

    Attach targets before ``start()``; attaching flips the retained-span
    and histogram switches on the target's existing recorder/registry, so
    the instrumentation already woven through the worker starts keeping
    data — no new callbacks enter the invocation path.
    """

    def __init__(self, env, config: Optional[TelemetryConfig] = None):
        self.env = env
        self.config = config or TelemetryConfig()
        self.sampler = TelemetrySampler(
            env,
            interval=self.config.interval,
            sample_energy=self.config.sample_energy,
        )
        self._workers: list = []
        self._extra_recorders: list = []  # LB span recorders, merged on export
        self.tracer = None
        if self.config.trace:
            # Deferred: the tracing package only loads when a run opts in.
            from ..tracing import TraceCollector

            self.tracer = TraceCollector()
        self.health = None
        if self.config.health is not None:
            self.health = self.config.health.collector()
        # Active dispatch policy description; set by attach_cluster
        # (worker-only pipelines have no placement layer to describe).
        self.dispatch_info = None
        self._live_writer = None
        self._live_running = False

    # -- wiring ------------------------------------------------------------
    def attach_worker(self, worker) -> None:
        self.sampler.attach_worker(worker)
        if self.config.keep_spans:
            worker.spans.keep_spans = True
            # Retain completed lifecycle contexts: the decomposition reads
            # phase boundaries directly off them (spans stay the
            # independent cross-check `repro inspect` recomputes from).
            lifecycle = getattr(worker, "lifecycle", None)
            if lifecycle is not None:
                lifecycle.keep_contexts = True
        if self.config.histograms:
            worker.metrics.enable_latency_histograms()
        if self.tracer is not None:
            self.tracer.attach_worker(worker)
        if self.health is not None:
            worker.metrics.record_sink = self.health.observe_record
        self._workers.append(worker)

    def attach_cluster(self, cluster) -> None:
        for worker in cluster.workers.values():
            self.attach_worker(worker)
        if self.config.keep_spans:
            cluster.spans.keep_spans = True
            self._extra_recorders.append(cluster.spans)
        if self.tracer is not None:
            # The cluster reports its pick/rpc spans into the collector;
            # worker stage chains hang under whichever LB span is last.
            cluster.tracer = self.tracer
            self.tracer.root = (
                "lb_rpc" if cluster.rpc_latency > 0 else "lb_pick"
            )
        # Record the load values the balancer actually acted on.
        cluster.status_board.publish = self.sampler.record_lb_load
        info = getattr(cluster, "dispatch_info", None)
        if info is not None:
            self.dispatch_info = info()

    def start(self) -> None:
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()
        self._live_running = False

    # -- live heartbeat ----------------------------------------------------
    def enable_live(self, path) -> None:
        """Stream windowed health snapshots to ``path`` (JSON lines) while
        the run executes — the feed ``repro watch`` tails.  Requires
        health to be enabled; probes are read-only, so the heartbeat
        process cannot perturb the schedule."""
        if self.health is None:
            raise RuntimeError(
                "live heartbeats need health enabled: TelemetryConfig(health=...)"
            )
        if self._live_writer is not None:
            raise RuntimeError("live heartbeat already enabled")
        from ..health.live import LiveWriter

        self._live_writer = LiveWriter(path)
        self._live_running = True
        self.env.process(self._live_loop(), name="health-live-heartbeat")

    def _live_snapshot(self) -> dict:
        totals = self.health.totals()
        queue_depth = sum(len(w.queue) for w in self._workers)
        running = sum(w.load.running for w in self._workers)
        indices = sorted(self.health.overall.sketches)
        p99 = None
        if indices:
            value = self.health.overall.sketches[indices[-1]].quantile(99.0)
            p99 = value if value == value else None
        return {
            "t": self.env.now,
            "engine": "serial",
            **totals,
            "queue_depth": queue_depth,
            "running": running,
            "e2e_p99": p99,
        }

    def _live_loop(self):
        interval = self.config.health.heartbeat_interval()
        writer = self._live_writer
        while self._live_running:
            yield self.env.timeout(interval)
            writer.heartbeat(self._live_snapshot())

    def _finish_live(self) -> None:
        if self._live_writer is None:
            return
        self._live_running = False
        final = self._live_snapshot()
        final["done"] = True
        self._live_writer.heartbeat(final)
        self._live_writer.close()
        self._live_writer = None

    # -- views -------------------------------------------------------------
    @property
    def series(self) -> dict[str, Timeseries]:
        return self.sampler.series

    def spans(self) -> list[Span]:
        """All retained spans across workers and the LB, in start order."""
        out: list[Span] = []
        for w in self._workers:
            out.extend(w.spans.spans())
        for rec in self._extra_recorders:
            out.extend(rec.spans())
        out.sort(key=lambda s: (s.start, s.end, s.name))
        return out

    def records(self) -> list[InvocationRecord]:
        out: list[InvocationRecord] = []
        for w in self._workers:
            out.extend(w.metrics.records)
        out.sort(key=lambda r: (r.arrival, r.invocation_id))
        return out

    def breakdowns(self):
        """Per-invocation phase breakdowns, read off lifecycle contexts.

        Falls back to span-tag reconstruction when any attached worker has
        no lifecycle context store (or retention was never enabled), so
        the result is the same either way — bit-identical, in fact, which
        :meth:`breakdowns_from_spans` lets callers assert.
        """
        contexts: list = []
        for w in self._workers:
            lifecycle = getattr(w, "lifecycle", None)
            if lifecycle is None or not lifecycle.keep_contexts:
                return self.breakdowns_from_spans()
            contexts.extend(lifecycle.contexts)
        return decompose_contexts(contexts)

    def breakdowns_from_spans(self):
        """The span-tag reconstruction of :meth:`breakdowns` (cross-check)."""
        return decompose(self.spans())

    def trace_events(self) -> list:
        """Collected causal trace events in ``(trace_id, seq)`` order;
        empty unless ``config.trace`` enabled the collector."""
        if self.tracer is None:
            return []
        return self.tracer.trace_events()

    def merged_metrics(self) -> MetricsRegistry:
        """Counters summed, histograms merged, gauges worker-prefixed."""
        return merge_registries(
            (w.name, w.metrics.counters, w.metrics.gauges, w.metrics.histograms)
            for w in self._workers
        )

    # -- export ------------------------------------------------------------
    def export(self, run_dir: Union[str, Path]) -> dict[str, Path]:
        """Write the run directory; returns {kind: path}."""
        self._finish_live()
        series = dict(self.sampler.series)
        if len(self.sampler.lb_loads):
            series["lb"] = self.sampler.lb_loads
        health = slo_rows = None
        if self.health is not None:
            from ..health.slo import evaluate_health

            report = evaluate_health(
                self.health, series=series, config=self.config.health
            )
            health, slo_rows = report.health, report.rows
        return write_run_dir(
            run_dir,
            series=series,
            spans=self.spans(),
            records=self.records(),
            registry=self.merged_metrics(),
            summary=self.summary(),
            traces=self.trace_events() if self.tracer is not None else None,
            health=health,
            slo_rows=slo_rows,
            manifest=build_manifest(
                self.config, [w.name for w in self._workers]
            ),
        )

    def summary(self) -> dict:
        return build_summary(
            self.config,
            [w.name for w in self._workers],
            self.sampler.samples,
            self.records(),
            self.merged_metrics(),
            self.breakdowns(),
            dispatch=self.dispatch_info,
        )


# ---------------------------------------------------------------- inspect
def load_run(run_dir: Union[str, Path]) -> dict:
    """Read a telemetry run directory back into memory.

    Returns ``{"summary", "records", "spans", "timeseries", "metrics_text",
    "manifest", "flight", "traces", "health", "slo"}`` with missing files
    mapped to empty values, so partially exported directories still
    inspect cleanly.
    """
    run_dir = Path(run_dir)
    out: dict = {
        "summary": {},
        "records": [],
        "spans": [],
        "timeseries": [],
        "metrics_text": "",
        "manifest": {},
        "flight": {},
        "traces": [],
        "health": {},
        "slo": [],
    }
    health_path = run_dir / RUN_FILES["health"]
    if health_path.exists():
        out["health"] = json.loads(health_path.read_text())
    slo_path = run_dir / RUN_FILES["slo"]
    if slo_path.exists():
        with open(slo_path) as fh:
            out["slo"] = [json.loads(line) for line in fh if line.strip()]
    summary_path = run_dir / RUN_FILES["summary"]
    if summary_path.exists():
        out["summary"] = json.loads(summary_path.read_text())
    records_path = run_dir / RUN_FILES["records"]
    if records_path.exists():
        with open(records_path) as fh:
            out["records"] = [json.loads(line) for line in fh if line.strip()]
    spans_path = run_dir / RUN_FILES["spans"]
    if spans_path.exists():
        out["spans"] = load_spans_jsonl(spans_path)
    ts_path = run_dir / RUN_FILES["timeseries"]
    if ts_path.exists():
        with open(ts_path) as fh:
            out["timeseries"] = [json.loads(line) for line in fh if line.strip()]
    prom_path = run_dir / RUN_FILES["metrics"]
    if prom_path.exists():
        out["metrics_text"] = prom_path.read_text()
    manifest_path = run_dir / RUN_FILES["manifest"]
    if manifest_path.exists():
        out["manifest"] = json.loads(manifest_path.read_text())
    flight_path = run_dir / RUN_FILES["flight"]
    if flight_path.exists():
        out["flight"] = json.loads(flight_path.read_text())
    traces_path = run_dir / RUN_FILES["traces"]
    if traces_path.exists():
        from ..tracing.events import load_trace_jsonl

        out["traces"] = load_trace_jsonl(traces_path)
    return out


def _table(rows: list[dict], columns: list[tuple[str, str]]) -> list[str]:
    """Minimal fixed-width text table: columns = [(key, header), ...]."""
    def fmt(v):
        return f"{v:.3f}" if isinstance(v, float) else str(v)

    widths = {
        key: max(len(header), *(len(fmt(r.get(key, ""))) for r in rows))
        for key, header in columns
    } if rows else {key: len(header) for key, header in columns}
    header = "  ".join(h.ljust(widths[k]) for k, h in columns)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(fmt(r.get(k, "")).ljust(widths[k]) for k, _ in columns))
    return lines


def inspect_report(run_dir: Union[str, Path]) -> str:
    """Render a telemetry run directory as a human-readable report:
    run overview, outcome tallies, latency percentiles, the Table-2-style
    overhead decomposition, and a timeseries digest."""
    run_dir = Path(run_dir)
    data = load_run(run_dir)
    summary = data["summary"]
    lines: list[str] = [f"telemetry run: {run_dir}", ""]

    manifest = data["manifest"]
    if manifest:
        lines.append(
            f"manifest: version={manifest.get('version')}  "
            f"config_hash={manifest.get('config_hash')}  "
            f"shards={manifest.get('shards')}  "
            f"cpu_count={manifest.get('cpu_count')}"
        )
        lines.append("")

    if summary:
        cfg = summary.get("config", {})
        lines.append(
            f"interval={cfg.get('interval')}s  samples={summary.get('samples')}  "
            f"workers={len(summary.get('workers', []))}  "
            f"invocations={summary.get('invocations')}"
        )
        outcomes = summary.get("outcomes", {})
        if outcomes:
            tally = "  ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
            lines.append(f"outcomes: {tally}")
        lines.append("")

        hists = summary.get("histograms", {})
        if hists:
            lines.append("latency distributions (seconds):")
            rows = [
                {"metric": name, **{k: s[k] for k in ("count", "mean", "p50", "p90", "p99")}}
                for name, s in sorted(hists.items())
            ]
            lines.extend(_table(rows, [
                ("metric", "metric"), ("count", "count"), ("mean", "mean"),
                ("p50", "p50"), ("p90", "p90"), ("p99", "p99"),
            ]))
            lines.append("")

    # Dispatch section: silently absent for run dirs that predate the
    # dispatch layer or never attached a cluster (worker-only pipelines).
    dispatch = (summary or {}).get("dispatch")
    if dispatch:
        line = (
            f"dispatch: policy={dispatch.get('policy')}  "
            f"kind={dispatch.get('kind')}"
        )
        if "claim_latency" in dispatch:
            line += f"  claim_latency={dispatch['claim_latency']}s"
        lines.append(line)
        claim = (summary or {}).get("histograms", {}).get("claim_wait_seconds")
        if claim:
            lines.append(
                "claim wait (seconds): "
                f"count={claim.get('count')}  mean={claim.get('mean'):.6f}  "
                f"p50={claim.get('p50'):.6f}  p99={claim.get('p99'):.6f}"
            )
        lines.append("")

    # Recompute the decomposition from the spans on disk so inspect works
    # even on directories whose summary predates this report format.
    breakdowns = decompose(data["spans"])
    if breakdowns:
        matched, compared = match_records(breakdowns, data["records"])
        lines.append(
            f"overhead decomposition ({len(breakdowns)} invocations; "
            f"phase sums match {matched}/{compared} records):"
        )
        lines.extend(_table(breakdown_rows(breakdowns), [
            ("phase", "phase"), ("mean", "mean_ms"),
            ("p99", "p99_ms"), ("share_pct", "share_%"),
        ]))
        lines.append("")

    flight = data["flight"]
    if flight:
        seam = flight.get("seam_stats") or {}
        totals = flight.get("totals") or {}
        if seam:
            lines.append(
                "sharded seam: "
                f"epochs={seam.get('epochs')}  "
                f"sync_points={seam.get('sync_points')}  "
                f"messages_per_shard={seam.get('messages_per_shard')}  "
                f"chunk_size={seam.get('chunk_size')}"
            )
        if totals:
            eff = totals.get("overlap_efficiency", 0.0)
            lines.append(
                "flight recorder: "
                f"stall={totals.get('stall_s', 0.0):.3f}s  "
                f"overlap={totals.get('overlap_s', 0.0):.3f}s "
                f"(efficiency {100.0 * eff:.1f}%)  "
                f"payload={totals.get('payload_bytes', 0) / 1e6:.2f}MB  "
                f"merge={totals.get('merge_s', 0.0):.3f}s  "
                f"wall={totals.get('wall_s', 0.0):.3f}s"
            )
        lines.append("")

    traces = data["traces"]
    if traces:
        ids = {e.trace_id for e in traces}
        lines.append(
            f"causal traces: {len(traces)} events over {len(ids)} "
            f"invocations (render with `repro trace {run_dir}`)"
        )
        lines.append("")

    from ..health.report import health_section

    lines.extend(health_section(run_dir))
    if data["health"]:
        lines.append(f"  (full report: `repro health {run_dir}`)")
    lines.append("")

    ts = data["timeseries"]
    if ts:
        per_series: dict[str, int] = {}
        for row in ts:
            per_series[row.get("series", "?")] = per_series.get(row.get("series", "?"), 0) + 1
        digest = "  ".join(f"{k}:{v}" for k, v in sorted(per_series.items()))
        lines.append(f"timeseries rows: {len(ts)}  ({digest})")
        worker_rows = [r for r in ts if "queue_depth" in r]
        if worker_rows:
            depth = [r["queue_depth"] for r in worker_rows]
            running = [r["running"] for r in worker_rows]
            lines.append(
                f"mean queue depth {sum(depth) / len(depth):.3f}, "
                f"mean running {sum(running) / len(running):.3f}, "
                f"peak queue depth {max(depth)}"
            )
    if not (summary or breakdowns or ts):
        lines.append("(no telemetry artifacts found)")
    return "\n".join(lines).rstrip() + "\n"
