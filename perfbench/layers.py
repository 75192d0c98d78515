"""What the traced run measures, per layer, and how metrics derive from it.

``PROBES`` names the public functions and methods wrapped for the traced
run (module by module, using the repository's own module names as layer
names); ``per_layer_metrics`` turns the tallies into the ``<module>.<metric>``
values the benchmark reports.  The end-to-end metric and workload each one
should move is documented in README.md beside this file.
"""

from __future__ import annotations

from repro.core.container_pool import ContainerPool
from repro.core.lifecycle import InvocationLifecycle
from repro.dispatch.pull import PullDispatch
from repro.dispatch.push import PushDispatch
from repro.health import slo
from repro.loadbalancer.policies import (
    CHBLPolicy,
    LeastLoadedBalancer,
    RoundRobinBalancer,
    StatusBoard,
)
from repro.loadgen import openloop
from repro.metrics import spans
from repro.metrics.registry import MetricsRegistry
from repro.queueing.regulator import LoadTracker
from repro.sim.core import Environment, Process
from repro.telemetry.runs import RUN_FILES, Telemetry
from repro.trace import azure, replay
from repro.tracing import events

PICK = "loadbalancer.pick"
CLAIM = "dispatch.claim"

PROBES = [
    # sim: kernel entry points and the event loop around process resumptions
    ("count", Environment, "timeout", "sim.timeout", {}),
    ("count", Environment, "timeout_at", "sim.timeout_at", {}),
    ("count", Environment, "process", "sim.process", {}),
    ("timed", Environment, "run", "sim.run", {}),
    ("timed", Process, "_step", "sim.step", {"span": False}),
    # queueing / core pollers and the lifecycle stage generators
    ("count", LoadTracker, "sample", "queueing.sample", {}),
    ("count", ContainerPool, "sweep", "core.sweep", {}),
    ("count", ContainerPool, "has_available", "core.has_available", {"within": CLAIM}),
    ("resumptions", InvocationLifecycle, "ingest", "core.lifecycle", {}),
    ("resumptions", InvocationLifecycle, "handle", "core.lifecycle", {}),
    # loadbalancer: every push policy's pick, and the loads it reads
    ("timed", RoundRobinBalancer, "pick", PICK, {}),
    ("timed", LeastLoadedBalancer, "pick", PICK, {}),
    ("timed", CHBLPolicy, "pick", PICK, {}),
    ("count", StatusBoard, "load", "loadbalancer.load", {"within": PICK}),
    # dispatch: claims on the pull queue (and the push adapter's no-op)
    ("timed", PullDispatch, "claim", CLAIM, {}),
    ("timed", PushDispatch, "claim", CLAIM, {}),
    # observability
    ("timed", MetricsRegistry, "record_invocation", "metrics.record_invocation", {}),
    ("timed", spans, "dump_spans_jsonl", "metrics.dump_spans_jsonl", {}),
    ("timed", events, "dump_trace_jsonl", "tracing.dump_trace_jsonl", {}),
    ("timed", Telemetry, "export", "telemetry.export", {}),
    ("timed", slo, "evaluate_health", "health.evaluate_health", {}),
    # set-up: trace generation and expansion, plan build
    ("timed", azure, "generate_dataset", "trace.generate_dataset", {}),
    ("timed", replay, "expand_dataset", "trace.expand_dataset", {}),
    ("timed", openloop, "plan_from_trace", "loadgen.plan_from_trace", {}),
]

# name -> (unit, better); the order is the report order.
METRICS = {
    "sim.timeouts_per_inv": ("count", "lower"),
    "sim.processes_per_inv": ("count", "lower"),
    "sim.self_share": ("ratio", "lower"),
    "queueing.load_samples_per_inv": ("count", "lower"),
    "core.pool_sweeps_per_inv": ("count", "lower"),
    "core.lifecycle_us_per_inv": ("us", "lower"),
    "loadbalancer.pick_us": ("us", "lower"),
    "loadbalancer.pick_share": ("ratio", "lower"),
    "loadbalancer.load_reads_per_pick": ("count", "lower"),
    "dispatch.claims_per_inv": ("count", "lower"),
    "dispatch.claim_us": ("us", "lower"),
    "dispatch.warm_probes_per_claim": ("count", "lower"),
    "cluster_shard.stall_s": ("s", "lower"),
    "cluster_shard.pick_s": ("s", "lower"),
    "cluster_shard.send_s": ("s", "lower"),
    "cluster_shard.merge_s": ("s", "lower"),
    "cluster_shard.overlap_efficiency": ("ratio", "higher"),
    "cluster_shard.messages_per_shard": ("count", "lower"),
    "cluster_shard.payload_kb": ("KB", "lower"),
    "metrics.record_us": ("us", "lower"),
    "metrics.span_dump_s": ("s", "lower"),
    "tracing.events_per_inv": ("count", "lower"),
    "tracing.dump_s": ("s", "lower"),
    "tracing.traces_mb": ("MB", "lower"),
    "telemetry.spans_mb": ("MB", "lower"),
    "telemetry.records_mb": ("MB", "lower"),
    "telemetry.run_dir_mb": ("MB", "lower"),
    "telemetry.export_s": ("s", "lower"),
    "health.eval_s": ("s", "lower"),
    "trace.generate_s": ("s", "lower"),
    "trace.expand_s": ("s", "lower"),
    "loadgen.plan_s": ("s", "lower"),
    "bench.traced_inv_per_s": ("1/s", "higher"),
    "bench.tracing_slowdown": ("ratio", "lower"),
}

# Units whose values are counts of work or bytes: two traced runs at one
# seed must reproduce them exactly.
DETERMINISTIC_UNITS = ("count", "KB", "MB")


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(probes: dict, arrivals: int, run_s: float,
                      flight: dict | None, seam: dict | None,
                      run_dir_bytes: dict | None, trace_events: int) -> dict:
    """``<module>.<metric>`` values of one traced run.

    ``run_s`` is the traced timed region; ``flight``/``seam`` come from the
    sharded engine's outcome and ``run_dir_bytes``/``trace_events`` from the
    exported run directory (``None``/0 where a workload has none).
    """
    def calls(name):
        p = probes.get(name)
        return p.calls if p else 0

    def secs(name):
        p = probes.get(name)
        return p.seconds if p else 0.0

    def within(name):
        p = probes.get(name)
        return p.within_calls if p else 0

    n = arrivals
    picks, claims = calls(PICK), calls(CLAIM)
    sizes = run_dir_bytes or {}
    flight = flight or {}
    mb = 1e6
    return {
        "sim.timeouts_per_inv": _per(calls("sim.timeout") + calls("sim.timeout_at"), n),
        "sim.processes_per_inv": _per(calls("sim.process"), n),
        "sim.self_share": _per(secs("sim.run") - secs("sim.step"), run_s),
        "queueing.load_samples_per_inv": _per(calls("queueing.sample"), n),
        "core.pool_sweeps_per_inv": _per(calls("core.sweep"), n),
        "core.lifecycle_us_per_inv": 1e6 * _per(secs("core.lifecycle"), n),
        "loadbalancer.pick_us": 1e6 * _per(secs(PICK), picks),
        "loadbalancer.pick_share": _per(secs(PICK), run_s),
        "loadbalancer.load_reads_per_pick": _per(within("loadbalancer.load"), picks),
        "dispatch.claims_per_inv": _per(claims, n),
        "dispatch.claim_us": 1e6 * _per(secs(CLAIM), claims),
        "dispatch.warm_probes_per_claim": _per(within("core.has_available"), claims),
        "cluster_shard.stall_s": flight.get("stall_s", 0.0),
        "cluster_shard.pick_s": flight.get("pick_s", 0.0),
        "cluster_shard.send_s": flight.get("send_s", 0.0),
        "cluster_shard.merge_s": flight.get("merge_s", 0.0),
        "cluster_shard.overlap_efficiency": flight.get("overlap_efficiency", 0.0),
        "cluster_shard.messages_per_shard": (seam or {}).get("messages_per_shard", 0),
        "cluster_shard.payload_kb": flight.get("payload_bytes", 0) / 1e3,
        "metrics.record_us": 1e6 * _per(
            secs("metrics.record_invocation"), calls("metrics.record_invocation")
        ),
        "metrics.span_dump_s": secs("metrics.dump_spans_jsonl"),
        "tracing.events_per_inv": _per(trace_events, n),
        "tracing.dump_s": secs("tracing.dump_trace_jsonl"),
        "tracing.traces_mb": sizes.get(RUN_FILES["traces"], 0) / mb,
        "telemetry.spans_mb": sizes.get(RUN_FILES["spans"], 0) / mb,
        "telemetry.records_mb": sizes.get(RUN_FILES["records"], 0) / mb,
        "telemetry.run_dir_mb": sizes.get("total", 0) / mb,
        "telemetry.export_s": secs("telemetry.export"),
        "health.eval_s": secs("health.evaluate_health"),
        "trace.generate_s": secs("trace.generate_dataset"),
        "trace.expand_s": secs("trace.expand_dataset"),
        "loadgen.plan_s": secs("loadgen.plan_from_trace"),
    }
