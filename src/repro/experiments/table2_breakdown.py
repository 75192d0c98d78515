"""Table 2: per-component latency of a single warm invocation.

Runs warm invocations on an Ilúvatar worker with the containerd backend
and reports the mean simulated time spent in every component (the spans
projected from the invocations' lifecycle contexts),
grouped as in the paper (Ingestion & Queuing / Container Operations /
Agent Communication / Returning).  Agent communication dominates, by
design and by measurement.
"""

from __future__ import annotations

from ..core.config import WorkerConfig
from ..core.lifecycle import context_spans
from ..core.worker import Worker
from ..metrics.spans import breakdown_table
from ..sim.core import Environment
from ..workloads.functionbench import registration_for

__all__ = ["run_table2", "PAPER_TABLE2_MS"]

# The paper's measured values (ms) for comparison in EXPERIMENTS.md.
PAPER_TABLE2_MS = {
    "invoke": 0.026,
    "sync_invoke": 0.013,
    "enqueue_invocation": 0.017,
    "add_item_to_q": 0.02,
    "spawn_worker": 0.029,
    "dequeue": 0.02,
    "acquire_container": 0.096,
    "try_lock_container": 0.014,
    "prepare_invoke": 0.154,
    "call_container": 1.364,
    "download_result": 0.032,
    "return_container": 0.017,
    "return_results": 0.266,
}


def run_table2(warm_invocations: int = 200, seed: int = 42) -> list[dict]:
    """Measure the span breakdown over ``warm_invocations`` warm calls."""
    if warm_invocations < 1:
        raise ValueError("warm_invocations must be >= 1")
    env = Environment()
    worker = Worker(
        env, WorkerConfig(backend="containerd", cores=8, memory_mb=8192, seed=seed)
    )
    worker.start()
    worker.register_sync(registration_for("pyaes"))
    # One cold invocation to create the container; contexts are retained
    # only from the warm invocations on.
    env.run_process(worker.invoke("pyaes.1"))
    worker.lifecycle.keep_contexts = True
    for _ in range(warm_invocations):
        inv = env.run_process(worker.invoke("pyaes.1"))
        assert not inv.cold, "breakdown must be warm-only"
    worker.stop()
    rows = breakdown_table(
        context_spans(worker.lifecycle.contexts), scale=1000.0
    )
    for row in rows:
        row["paper_ms"] = PAPER_TABLE2_MS.get(row["function"], float("nan"))
    return rows
