"""Metrics substrate: spans, counters, quantile sketches, summaries, simulated energy."""

from .energy import EnergyModel, EnergyMonitor
from .jsonl import read_json, read_jsonl
from .registry import (
    LATENCY_HISTOGRAMS,
    InvocationRecord,
    MetricsRegistry,
    Outcome,
    merge_registries,
)
from .sketch import DDSketch
from .spans import SPAN_GROUPS, Span, breakdown_table, dump_spans_jsonl, load_spans_jsonl
from .stats import LatencySummary, OnlineStats, bin_timeseries, percentile, summarize

__all__ = [
    "DDSketch",
    "EnergyModel",
    "EnergyMonitor",
    "LATENCY_HISTOGRAMS",
    "InvocationRecord",
    "MetricsRegistry",
    "Outcome",
    "merge_registries",
    "SPAN_GROUPS",
    "Span",
    "breakdown_table",
    "dump_spans_jsonl",
    "load_spans_jsonl",
    "read_json",
    "read_jsonl",
    "LatencySummary",
    "OnlineStats",
    "bin_timeseries",
    "percentile",
    "summarize",
]
