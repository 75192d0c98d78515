"""Benchmark workloads: seeded inputs, runners and output checks.

Every workload drives the simulator through its public entry points
(``Cluster`` + ``replay_plan``, ``run_sharded_replay``,
``run_cluster_study``); the program receives only the inputs built here.
All replay happens in simulated time, so no host-side generator can fall
behind: each workload is an open loop whose arrival schedule is fixed
before the timed region starts.

The seed picks the synthetic population (function rates, runtimes,
memory).  Raw synthetic arrival counts swing 3x between seeds (a few hot
functions dominate 400), which would make host throughput a property of
the seed rather than of the code.  Each workload therefore pins the
quantities its cost scales with - arrivals, simulated window, cluster
shape - and lets the seed vary everything else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.experiments import cluster_study
from repro.experiments.defaults import MEDIUM
from repro.experiments.keepalive_sweep import make_traces
from repro.cluster_shard import run_sharded_replay
from repro.loadbalancer.cluster import Cluster
from repro.loadgen.openloop import plan_from_trace, replay_plan
from repro.metrics.spans import load_spans_jsonl
from repro.sim.core import Environment
from repro.telemetry import RUN_FILES, decompose, match_records
from repro.tracing.critical_path import (
    build_traces,
    critical_path,
    verify_against_breakdowns,
)
from repro.tracing.events import load_trace_jsonl
from repro.trace.azure import AzureTraceConfig, generate_dataset
from repro.trace.model import Trace
from repro.trace.replay import expand_dataset
from repro.trace.scaling import little_load
from repro.workloads.mapping import map_trace_to_catalog

REPLAY = {
    "functions": 400,
    "minutes": 60,
    "arrivals": 8847,
    "max_load_fraction": 0.25,
    "workers": 32,
    "cores_per_worker": 2,
    "memory_per_worker_mb": 8192.0,
    "backend": "null",
    "keepalive_policy": "GD",
    "lb_policy": "ch_bl",
    "status_interval": 2.0,
    "grace": 300.0,
    "observability": "off",
}
SHARDED = dict(REPLAY, shards=2, flight_recorder=True)
STUDY = {
    "trace": "MEDIUM representative sample",
    "window_s": 7200.0,
    "arrivals": 9284,
    "workers": 4,
    "cores_per_worker": 8,
    "target_load_fraction": 0.6,
    "lb_policy": "pull_local",
    "telemetry_dir": True,
    "trace_invocations": True,
    "health": True,
}

WORKLOADS = {
    "replay-32w": REPLAY,
    "replay-32w-2shard": SHARDED,
    "study-pull-observed": STUDY,
}


class CheckFailed(Exception):
    """An output check failed; ``failed`` arrivals count against the run."""

    def __init__(self, message: str, failed: int):
        super().__init__(message)
        self.failed = failed


# --------------------------------------------------------------- inputs
def fit_arrivals(trace: Trace, n: int, window: float) -> Trace:
    """The trace's first ``n`` arrivals, time-scaled to fill ``[0, window)``.

    A trace that already holds exactly ``n`` arrivals inside the window is
    returned unchanged.  Otherwise the window closes one mean inter-arrival
    gap after the ``n``-th arrival, and time is scaled so it lands on
    ``window``.
    """
    ts = trace.timestamps
    if int(np.searchsorted(ts, window)) == n and trace.duration == window:
        return trace
    if ts.size < n or n < 2:
        raise ValueError(f"trace {trace.name!r} has {ts.size} arrivals, need {n}")
    end = ts[n - 1] + (ts[n - 1] - ts[0]) / (n - 1)
    return Trace(
        functions=trace.functions,
        timestamps=ts[:n] * (window / end),
        function_idx=trace.function_idx[:n],
        duration=window,
        name=trace.name,
    )


def replay_trace(seed: int) -> Trace:
    """The replay's arrivals: 8,847 in 60 minutes from a seeded population.

    Datasets are generated over a doubling number of minutes until they
    hold the pinned arrival count, so seeds with a quiet population still
    replay the same number of arrivals in the same 60-minute window.
    """
    p = REPLAY
    minutes = p["minutes"]
    while True:
        dataset = generate_dataset(
            AzureTraceConfig(
                num_functions=p["functions"], duration_minutes=minutes, seed=seed
            ),
            cache=False,
        )
        trace = expand_dataset(dataset, name="azure-scale", cache=False)
        if len(trace) >= p["arrivals"]:
            break
        minutes *= 2
    return fit_arrivals(trace, p["arrivals"], p["minutes"] * 60.0)


def replay_inputs(seed: int) -> dict:
    """Plan, registrations and worker config of the replay workloads.

    A population whose Little's-law load exceeds ``max_load_fraction`` of
    the cluster's cores is drawn again from a seed derived from ``seed``:
    an oversubscribed cluster still holds queued arrivals when the replay
    stops (e.g. seed 0xBEEF draws a 35.6-s function with 6,120 arrivals,
    a load of 61.9 on 64 cores).
    """
    p = REPLAY
    cap = p["max_load_fraction"] * p["workers"] * p["cores_per_worker"]
    draw, attempt = seed, 0
    while little_load(trace := replay_trace(draw)) > cap:
        attempt += 1
        draw = int(np.random.SeedSequence([seed, attempt]).generate_state(1)[0])
    plan = plan_from_trace(trace)
    registrations = [
        FunctionRegistration(
            name=f.name,
            memory_mb=f.memory_mb,
            warm_time=f.warm_time,
            cold_time=f.cold_time,
        )
        for f in trace.functions
    ]
    config = WorkerConfig(
        cores=p["cores_per_worker"],
        memory_mb=p["memory_per_worker_mb"],
        backend=p["backend"],
        keepalive_policy=p["keepalive_policy"],
        seed=seed,
    )
    return {
        "plan": plan,
        "registrations": registrations,
        "config": config,
        "arrivals": len(plan),
        "digest": _digest(plan.timestamps, plan.fqdns),
    }


def study_inputs(seed: int) -> dict:
    """The representative trace, pinned to the study's arrivals and load.

    ``run_cluster_study`` re-profiles the trace onto the FunctionBench
    catalog and scales it to ``target_load_fraction`` of the cluster's
    cores.  The trace is pre-scaled here so that load already holds, which
    leaves the study's own rescale an identity and the arrival count fixed.
    """
    p = STUDY
    scale = dataclasses.replace(MEDIUM, seed=seed)
    raw = make_traces(scale, cache=False)["representative"]
    window = p["window_s"]
    while int(np.searchsorted(raw.timestamps, window)) < p["arrivals"]:
        window *= 2
        if window > raw.duration:
            raise ValueError(f"seed {seed}: too few arrivals for the study")
    fitted = fit_arrivals(raw.clipped(window), p["arrivals"], p["window_s"])
    target = p["target_load_fraction"] * p["workers"] * p["cores_per_worker"]
    stretch = little_load(map_trace_to_catalog(fitted)) / target
    trace = Trace(
        functions=fitted.functions,
        timestamps=fitted.timestamps * stretch,
        function_idx=fitted.function_idx,
        duration=fitted.duration * stretch,
        name=fitted.name,
    )
    return {
        "scale": scale,
        "trace": trace,
        "arrivals": len(trace),
        "digest": _digest(trace.timestamps, trace.function_idx.tolist()),
    }


def build_inputs(workload: str, seed: int) -> dict:
    if workload == "study-pull-observed":
        return study_inputs(seed)
    return replay_inputs(seed)


def _digest(timestamps, keys) -> str:
    h = hashlib.sha256(np.ascontiguousarray(timestamps).tobytes())
    h.update(json.dumps(list(keys)).encode())
    return h.hexdigest()[:16]


# -------------------------------------------------------------- runners
def run_serial(inputs: dict) -> dict:
    """replay-32w: one ``Cluster`` driven by ``replay_plan``."""
    p = REPLAY
    env = Environment()
    cluster = Cluster(
        env,
        num_workers=p["workers"],
        config=inputs["config"],
        lb_policy=p["lb_policy"],
        status_interval=p["status_interval"],
    )
    cluster.start()
    for reg in inputs["registrations"]:
        cluster.register_sync(reg)
    invocations = replay_plan(env, cluster, inputs["plan"], grace=p["grace"])
    cluster.stop()
    return {
        "rows": [
            (k, bool(i.dropped), i.completed_at is not None, bool(i.cold),
             i.e2e_time, i.overhead)
            for k, i in enumerate(invocations)
        ],
        "records": [r.invocation_id for r in cluster.records()],
    }


def run_sharded(inputs: dict) -> dict:
    """replay-32w-2shard: the same input through the epoch-batched seam."""
    p = SHARDED
    outcome = run_sharded_replay(
        inputs["plan"],
        num_workers=p["workers"],
        shards=p["shards"],
        registrations=inputs["registrations"],
        config=inputs["config"],
        lb_policy=p["lb_policy"],
        status_interval=p["status_interval"],
        grace=p["grace"],
        flight_recorder=p["flight_recorder"],
    )
    return {
        "rows": list(outcome.summaries),
        "record_count": sum(outcome.per_worker_records.values()),
        "flight": outcome.flight_log["totals"],
        "seam": dict(outcome.seam_stats),
    }


def run_study(inputs: dict, run_dir: Path) -> dict:
    """study-pull-observed: the observed study, run dir exported inside."""
    p = STUDY
    trace = inputs["trace"]
    result = cluster_study.run_cluster_study(
        inputs["scale"],
        trace=trace,
        num_workers=p["workers"],
        cores_per_worker=p["cores_per_worker"],
        target_load_fraction=p["target_load_fraction"],
        duration_cap=trace.duration,
        lb_policy=p["lb_policy"],
        cache=False,
        telemetry_dir=str(run_dir),
        shards=1,
        trace_invocations=p["trace_invocations"],
        health=p["health"],
    )
    return {"result": result, "run_dir": run_dir}


# --------------------------------------------------------------- checks
def check_terminals(rows: list, n: int, record_count: int) -> None:
    """Every plan arrival reaches exactly one terminal (completed xor
    dropped) and leaves exactly one invocation record."""
    if len(rows) > n or [r[0] for r in rows] != list(range(len(rows))):
        raise CheckFailed("arrivals came back duplicated or out of order", n)
    if len(rows) < n:
        raise CheckFailed(
            f"{n - len(rows)} of {n} arrivals were still open when the replay "
            "stopped", n - len(rows),
        )
    open_ = sum(1 for r in rows if not r[2])
    if open_:
        raise CheckFailed(f"{open_} arrivals never reached a terminal", open_)
    if record_count != n:
        raise CheckFailed(f"{record_count} terminal records for {n} arrivals", n)


def reduce_rows(rows: list) -> dict:
    """The reduced outcome the serial and sharded engines must share."""
    done = [r for r in rows if not r[1] and r[2]]
    e2e = sorted(r[4] for r in done)
    overhead = sorted(r[5] for r in done)
    return {
        "invocations": len(rows),
        "completed": len(done),
        "dropped": sum(1 for r in rows if r[1]),
        "cold": sum(1 for r in done if r[3]),
        "e2e_p50_ms": 1000.0 * e2e[len(e2e) // 2] if e2e else None,
        "e2e_max_ms": 1000.0 * e2e[-1] if e2e else None,
        "overhead_p50_ms": 1000.0 * overhead[len(overhead) // 2] if overhead else None,
        "digest": hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
    }


def check_replay(out: dict, inputs: dict) -> dict:
    n = inputs["arrivals"]
    rows = out["rows"]
    if "records" in out:
        ids = out["records"]
        if len(set(ids)) != len(ids):
            raise CheckFailed("an invocation recorded more than one terminal", n)
        check_terminals(rows, n, len(ids))
    else:
        check_terminals(rows, n, out["record_count"])
    return reduce_rows(rows)


def run_dir_bytes(run_dir: Path) -> dict:
    """Bytes per exported file, plus their total."""
    sizes = {p.name: p.stat().st_size for p in run_dir.iterdir() if p.is_file()}
    return {"total": sum(sizes.values()), **sizes}


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def study_outcome(out: dict, inputs: dict) -> dict:
    """Terminal accounting of the study plus a digest of its run dir."""
    n = inputs["arrivals"]
    result = out["result"]
    run_dir = out["run_dir"]
    if result.invocations != n or result.completed + result.dropped != n:
        raise CheckFailed(
            f"{result.invocations} invocations ({result.completed} completed, "
            f"{result.dropped} dropped) for {n} arrivals", n
        )
    if sum(result.per_worker_invocations.values()) != n:
        raise CheckFailed("per-worker record counts do not add up", n)
    with open(run_dir / RUN_FILES["records"]) as fh:
        ids = [json.loads(line)["invocation_id"] for line in fh]
    if len(ids) != n or len(set(ids)) != n:
        raise CheckFailed(f"{len(set(ids))} distinct records for {n} arrivals", n)
    digest = hashlib.sha256()
    for path in sorted(run_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        **result.as_dict(),
        "run_dir_bytes": run_dir_bytes(run_dir),
        "run_dir_sha256": digest.hexdigest()[:16],
    }


def check_study(out: dict, inputs: dict) -> dict:
    """Terminal accounting and phase sums, read back from the run dir.

    Phase sums are held to the two contracts the telemetry layer states:
    the span decomposition matches every recorded overhead
    (``match_records``), and it equals the causal-trace critical paths
    with exact float equality (``verify_against_breakdowns``).
    """
    n = inputs["arrivals"]
    summary = study_outcome(out, inputs)
    run_dir = out["run_dir"]
    with open(run_dir / RUN_FILES["records"]) as fh:
        records = [json.loads(line) for line in fh]
    finished = sum(1 for r in records if r["outcome"] in ("warm", "cold", "bypass"))
    breakdowns = decompose(load_spans_jsonl(run_dir / RUN_FILES["spans"]))
    matched, compared = match_records(breakdowns, records)
    if matched != finished or compared != finished:
        raise CheckFailed(
            f"phase sums match {matched}/{compared} records "
            f"({finished} finished)", n - matched,
        )
    paths = [
        critical_path(tree)
        for tree in build_traces(load_trace_jsonl(run_dir / RUN_FILES["traces"]))
    ]
    exact, compared = verify_against_breakdowns(paths, breakdowns)
    if exact != finished or compared != finished:
        raise CheckFailed(
            f"critical paths equal the decomposition for {exact}/{compared} "
            f"invocations ({finished} finished)", n - exact,
        )
    overhead = {r["invocation_id"]: r["overhead"] for r in records}
    summary["phase_sums_match"] = f"{matched}/{finished}"
    summary["critical_paths_exact"] = f"{exact}/{finished}"
    summary["phase_sums_bit_equal_records"] = sum(
        1 for b in breakdowns if b.overhead == overhead[b.invocation_id]
    )
    return summary
