"""Merging per-shard telemetry into one ``repro inspect``-readable run.

Each shard streams its telemetry in bounded, pre-sorted chunks (records,
retained spans, phase breakdowns — see ``protocol.py``); the coordinator
adds its own LB spans and the balancer-visible load signal.  The merge
never concatenates-and-resorts: per-shard streams arrive sorted by the
canonical keys, so every view is a k-way ``heapq.merge`` — and because
``heapq.merge`` is stable (earlier stream wins ties) over stably-sorted
inputs, the result is element-for-element identical to the stable sort of
the concatenation a single-process :class:`~repro.telemetry.runs.
Telemetry` performs.  Same sort orders, same worker-order float
accumulation — the exported run directory is interchangeable with a
serial run's (invocation ids aside: sharded runs number arrivals 0..N-1
plus one, serial runs continue the process-global counter; all *relative*
ids match).

With a ``spool_dir``, :class:`ShardTelemetryParts` appends each incoming
chunk to an on-disk pickle spool instead of RAM, and the merge re-reads
the spools as lazy streams — a full-trace replay's records and spans
never live in coordinator memory all at once.  ``summary()`` is the one
documented exception: it materializes the merged record and breakdown
lists transiently (outcome tallies and record↔breakdown matching need
random access), then drops them.
"""

from __future__ import annotations

import heapq
import os
import pickle
from pathlib import Path
from typing import Iterator, Optional, Union

from ..metrics.registry import MetricsRegistry, merge_registries

__all__ = ["MergedTelemetry", "ShardTelemetryParts"]

# Matches telemetry.decomposition's canonical breakdown ordering.
_BREAKDOWN_KEY = lambda b: (b.invocation_id is None, b.invocation_id, b.tag)  # noqa: E731
_RECORD_KEY = lambda r: (r.arrival, r.invocation_id)  # noqa: E731
_SPAN_KEY = lambda s: (s.start, s.end, s.name)  # noqa: E731
_TRACE_KEY = lambda e: (e.trace_id, e.seq)  # noqa: E731

_STREAM_KINDS = ("records", "spans", "breakdowns", "traces")


class ShardTelemetryParts:
    """One shard's streamed telemetry: chunk sink while the run drains,
    re-iterable streams afterwards.

    The coordinator appends ``("part", kind, chunk)`` payloads as they
    arrive; with ``spool_dir`` set each chunk is pickled straight to a
    per-kind spool file (constant coordinator memory), otherwise chunks
    stay in RAM.  Either way :meth:`stream` yields the items back in
    arrival order — which the shard guarantees is merge-key order.
    """

    def __init__(self, shard_index: int, spool_dir: Optional[Union[str, Path]] = None):
        self.shard_index = int(shard_index)
        self.meta: Optional[dict] = None
        self._spool_dir = None if spool_dir is None else Path(spool_dir)
        self._chunks: dict[str, list] = {kind: [] for kind in _STREAM_KINDS}
        self._files: dict[str, object] = {}
        if self._spool_dir is not None:
            self._spool_dir.mkdir(parents=True, exist_ok=True)

    def _spool_path(self, kind: str) -> Path:
        return self._spool_dir / f"shard{self.shard_index}-{kind}.pkl"

    def append(self, kind: str, chunk: list) -> None:
        if kind not in self._chunks:
            raise ValueError(f"unknown telemetry stream {kind!r}")
        if self._spool_dir is None:
            self._chunks[kind].append(chunk)
            return
        fh = self._files.get(kind)
        if fh is None:
            fh = self._files[kind] = open(self._spool_path(kind), "wb")
        pickle.dump(chunk, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def set_meta(self, meta: Optional[dict]) -> None:
        """Terminal payload arrived: stop accepting chunks, keep the small
        leftovers (registry parts, gauge series, sample count)."""
        self.meta = meta
        for fh in self._files.values():
            fh.close()
        self._files = {}

    def stream(self, kind: str) -> Iterator:
        if kind not in self._chunks:
            raise ValueError(f"unknown telemetry stream {kind!r}")
        if self._spool_dir is None:
            for chunk in self._chunks[kind]:
                yield from chunk
            return
        path = self._spool_path(kind)
        if not path.exists():
            return
        with open(path, "rb") as fh:
            while True:
                try:
                    chunk = pickle.load(fh)
                except EOFError:
                    return
                yield from chunk

    def cleanup(self) -> None:
        """Drop spool files (no-op for in-RAM parts)."""
        for fh in self._files.values():
            fh.close()
        self._files = {}
        if self._spool_dir is None:
            return
        for kind in _STREAM_KINDS:
            try:
                os.unlink(self._spool_path(kind))
            except FileNotFoundError:
                pass


class MergedTelemetry:
    """Telemetry views over merged shard streams.

    Mirrors the :class:`~repro.telemetry.runs.Telemetry` surface the
    experiments and tests consume — ``records()``, ``spans()``,
    ``breakdowns()``, ``merged_metrics()``, ``summary()``, ``export()`` —
    without an environment or live workers behind it, plus lazy
    ``iter_*`` variants that never materialize the merged sequence.
    """

    def __init__(self, config, worker_names, shard_parts, lb_spans, lb_loads,
                 lb_traces=None, flight=None, seam_stats=None, shards=None,
                 dispatch_info=None):
        self.config = config
        # Same dict the serial Telemetry captures from the cluster, so
        # serial and sharded summary.json stay byte-identical.
        self.dispatch_info = dispatch_info
        self.worker_names = list(worker_names)
        self._parts: list[ShardTelemetryParts] = list(shard_parts or [])
        # The LB emits pick/rpc spans in arrival order, which is *not*
        # start-sorted when arrivals share a timestamp (a pick span (t, t)
        # sorts before the previous arrival's rpc span (t, t+latency)); a
        # stable sort here keeps the overall merge equal to the serial
        # path's stable sort of the full concatenation.
        self._lb_spans = sorted(lb_spans, key=_SPAN_KEY)
        self.lb_loads = lb_loads
        self._lb_traces = (
            None if lb_traces is None else sorted(lb_traces, key=_TRACE_KEY)
        )
        self.flight = flight
        self.seam_stats = seam_stats
        self.shards = len(self._parts) if shards is None else int(shards)
        metas = [p.meta or {} for p in self._parts]
        # (name, counters, gauges, histograms) per worker, cluster order —
        # shards hold contiguous worker ranges, so shard order is worker
        # order, as in a serial run.
        self._metric_parts = [part for m in metas for part in m.get("metrics", ())]
        self.series = {}
        for m in metas:
            self.series.update(m.get("series", {}))
        # Shards tick the same simulated grid over the same horizon, so
        # every shard saw the same number of sampler rounds.
        self.samples = max((m.get("samples", 0) for m in metas), default=0)
        # Per-shard health collectors, merged in shard order.  Every
        # accumulator inside is an integer count or integer-merged sketch
        # bucket, so the merge is order-independent and the result is the
        # collector a serial run over the same arrivals builds.
        self.health = None
        health_parts = [
            m["health"] for m in metas if m.get("health") is not None
        ]
        for part in health_parts:
            if self.health is None:
                self.health = part
            else:
                self.health.merge(part)

    # -- streams (merge-key order, never materialized) ----------------------
    def iter_records(self) -> Iterator:
        return heapq.merge(
            *(p.stream("records") for p in self._parts), key=_RECORD_KEY
        )

    def iter_spans(self) -> Iterator:
        return heapq.merge(
            *(p.stream("spans") for p in self._parts),
            iter(self._lb_spans),
            key=_SPAN_KEY,
        )

    def iter_breakdowns(self) -> Iterator:
        return heapq.merge(
            *(p.stream("breakdowns") for p in self._parts), key=_BREAKDOWN_KEY
        )

    def iter_traces(self) -> Iterator:
        """Shard trace streams + the coordinator's LB events, merged in
        canonical ``(trace_id, seq)`` order (LB seqs 0/1 lead each tree)."""
        streams = [p.stream("traces") for p in self._parts]
        if self._lb_traces is not None:
            streams.append(iter(self._lb_traces))
        return heapq.merge(*streams, key=_TRACE_KEY)

    # -- views (same shapes as Telemetry's) --------------------------------
    def records(self) -> list:
        return list(self.iter_records())

    def spans(self) -> list:
        return list(self.iter_spans())

    def breakdowns(self) -> list:
        return list(self.iter_breakdowns())

    def traces(self) -> list:
        return list(self.iter_traces())

    def merged_metrics(self) -> MetricsRegistry:
        """Counters summed, histograms merged, gauges worker-prefixed —
        the same merge as Telemetry.merged_metrics."""
        return merge_registries(self._metric_parts)

    # -- export ------------------------------------------------------------
    def summary(self) -> dict:
        from ..telemetry.runs import build_summary

        return build_summary(
            self.config,
            self.worker_names,
            self.samples,
            list(self.iter_records()),
            self.merged_metrics(),
            list(self.iter_breakdowns()),
            dispatch=self.dispatch_info,
        )

    def export(self, run_dir: Union[str, Path]) -> dict[str, Path]:
        from ..telemetry.runs import build_manifest, write_run_dir

        series = dict(self.series)
        if self.lb_loads is not None and len(self.lb_loads):
            series["lb"] = self.lb_loads
        trace_on = getattr(self.config, "trace", False)
        flight_payload = None
        if self.flight is not None:
            flight_payload = dict(self.flight)
            if self.seam_stats is not None:
                flight_payload["seam_stats"] = dict(self.seam_stats)
        health = slo_rows = None
        if self.health is not None:
            from ..health.slo import evaluate_health

            report = evaluate_health(
                self.health, series=series,
                config=getattr(self.config, "health", None),
            )
            health, slo_rows = report.health, report.rows
        # summary() first (its own transient passes), then stream the
        # record/span files straight off the merged iterators.
        summary = self.summary()
        return write_run_dir(
            run_dir,
            series=series,
            spans=self.iter_spans(),
            records=self.iter_records(),
            registry=self.merged_metrics(),
            summary=summary,
            traces=self.iter_traces() if trace_on else None,
            flight=flight_payload,
            health=health,
            slo_rows=slo_rows,
            manifest=build_manifest(
                self.config, self.worker_names, shards=self.shards
            ),
        )

    def cleanup(self) -> None:
        """Release any on-disk spools backing the merged streams."""
        for p in self._parts:
            p.cleanup()
