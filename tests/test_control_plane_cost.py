"""Per-invocation control-plane work must not grow with cluster size.

A small CH-BL replay with a snapshot status board runs on 4 and on 16
workers with the same arrivals.  Kernel timeouts per invocation must not
grow by the extra workers' poll ticks (pollers share one calendar entry
per tick), and a pick after its epoch's first one must read no more loads
than its accepted position on the ring walk (the bound is computed once
per epoch).
"""

import numpy as np

from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.loadbalancer.cluster import Cluster
from repro.loadbalancer.policies import StatusBoard
from repro.loadgen.openloop import InvocationPlan, replay_plan
from repro.sim.core import Environment

DURATION = 60.0
GRACE = 20.0
FUNCTIONS = [
    FunctionRegistration(name=f"fn{i}", memory_mb=128.0, warm_time=0.05,
                         cold_time=0.4)
    for i in range(6)
]


def replay(num_workers: int, monkeypatch) -> dict:
    counts = {"timeouts": 0, "reads": 0}
    timeout = Environment.timeout
    load = StatusBoard.load

    def counted_timeout(self, delay, value=None):
        counts["timeouts"] += 1
        return timeout(self, delay, value)

    def counted_load(self, worker):
        counts["reads"] += 1
        return load(self, worker)

    monkeypatch.setattr(Environment, "timeout", counted_timeout)
    monkeypatch.setattr(StatusBoard, "load", counted_load)

    env = Environment()
    cluster = Cluster(env, num_workers=num_workers,
                      config=WorkerConfig(cores=2, memory_mb=4096, seed=5),
                      status_interval=2.0)
    board, policy = cluster.status_board, cluster.dispatch
    picks = []
    pick = policy.pick

    def traced_pick(fqdn):
        refreshes, reads = board.refreshes, counts["reads"]
        target = pick(fqdn)
        picks.append((board.refreshes != refreshes, counts["reads"] - reads,
                      policy.ring.successors(fqdn).index(target) + 1))
        return target

    policy.pick = traced_pick
    cluster.start()
    for reg in FUNCTIONS:
        cluster.register_sync(reg)
    rng = np.random.default_rng(3)
    ts = np.sort(rng.uniform(0.0, DURATION, size=240))
    fqdns = [FUNCTIONS[i].fqdn() for i in rng.integers(0, len(FUNCTIONS), ts.size)]
    invocations = replay_plan(env, cluster, InvocationPlan(ts, fqdns, DURATION),
                              grace=GRACE)
    cluster.stop()
    monkeypatch.undo()
    assert len(invocations) == ts.size
    return {"timeouts": counts["timeouts"], "picks": picks,
            "invocations": len(invocations)}


def test_tick_and_pick_cost_do_not_scale_with_workers(monkeypatch):
    small, large = replay(4, monkeypatch), replay(16, monkeypatch)
    cfg = WorkerConfig()
    horizon = DURATION + GRACE
    # What 12 more workers' own poll timers would add over the run.
    poll_ticks = 12 * (horizon / cfg.load_sample_interval
                       + horizon / cfg.eviction_interval)
    grown = large["timeouts"] - small["timeouts"]
    assert grown < poll_ticks / 10, (small["timeouts"], large["timeouts"])

    for run, workers in ((small, 4), (large, 16)):
        firsts = [reads for first, reads, _ in run["picks"] if first]
        mid_epoch = [(reads, position)
                     for first, reads, position in run["picks"] if not first]
        assert firsts and mid_epoch
        # An epoch's first pick still reads every worker (the snapshot and
        # its publish sequence are unchanged) ...
        assert all(reads >= workers for reads in firsts)
        # ... and later picks read only the ring walk up to the pick.
        for reads, position in mid_epoch:
            assert reads <= position
