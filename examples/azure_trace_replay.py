"""Replay an Azure-like trace through a CH-BL-balanced worker cluster.

Generates a synthetic day of serverless invocations (heavy-tailed
popularity, diurnal wave), samples a representative server-scale
workload, maps its functions onto FunctionBench profiles, and replays it
through a 4-worker cluster fronted by consistent hashing with bounded
loads — the full Ilúvatar stack end to end.

Run:  python examples/azure_trace_replay.py
"""

from repro import Environment, FunctionRegistration, WorkerConfig
from repro.experiments import print_table
from repro.loadbalancer import Cluster
from repro.loadgen import plan_from_trace, replay_plan
from repro.trace import (
    AzureTraceConfig,
    generate_dataset,
    popularity_skew,
    sample_representative,
    scale_to_load,
)
from repro.workloads import map_trace_to_catalog


def main() -> None:
    # 1. A synthetic Azure-like day (scaled down for a quick demo).
    dataset = generate_dataset(
        AzureTraceConfig(num_functions=800, duration_minutes=120, seed=2024)
    )
    trace = sample_representative(dataset, n=60)
    print(f"trace: {len(trace)} invocations over {trace.duration / 60:.0f} min, "
          f"{trace.num_functions} functions")
    print(f"top-10% functions produce "
          f"{popularity_skew(trace, 0.10) * 100:.0f}% of invocations")

    # 2. Re-profile with FunctionBench timings and fit the load to the
    #    cluster with Little's law (paper Section 5.1).
    trace = map_trace_to_catalog(trace)
    trace = scale_to_load(trace, target_load=6.0)  # ~6 concurrent on avg

    # 3. A 4-worker cluster behind CH-BL.
    env = Environment()
    cluster = Cluster(
        env,
        num_workers=4,
        config=WorkerConfig(cores=8, memory_mb=6144.0, backend="null",
                            keepalive_policy="GD"),
        bound_factor=1.2,
    )
    cluster.start()
    for f in trace.functions:
        cluster.register_sync(
            FunctionRegistration(
                name=f.name, memory_mb=f.memory_mb,
                warm_time=f.warm_time, cold_time=f.cold_time,
            )
        )

    # 4. Replay and report.
    plan = plan_from_trace(trace)
    invocations = replay_plan(env, cluster, plan, grace=300.0)
    cluster.stop()

    done = [i for i in invocations if not i.dropped and i.completed_at]
    colds = sum(1 for i in done if i.cold)
    print(f"\ncompleted {len(done)}/{len(invocations)} invocations, "
          f"{colds} cold starts ({100 * colds / max(len(done), 1):.1f}%)")
    print(f"load balancer: {cluster.placements} placements, "
          f"{cluster.dispatch.forwards} spillover forwards")

    rows = []
    for name, worker in cluster.workers.items():
        status = worker.status()
        records = worker.metrics.records
        rows.append(
            {
                "worker": name,
                "invocations": len(records),
                "cold": sum(1 for r in records if r.cold),
                "warm_containers": status["warm_containers"],
                "evictions": worker.pool.evictions,
            }
        )
    print_table(rows, title="\nPer-worker breakdown")


if __name__ == "__main__":
    main()
