"""Spans are a projection of closed lifecycle contexts.

The worker stamps each component once, as an interval on its invocation's
context; ``Telemetry.spans()`` projects the retained contexts (plus the
load balancer's own ``lb_*`` spans) and ``Telemetry.breakdowns()`` reads
the same intervals.  The contract is checked on generated scenarios —
worker counts, push and pull dispatch, duplicate arrival times, and a
function that always times out — and the ``keep_spans`` × ``trace``
switches are pinned on the golden scenario.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.loadbalancer.cluster import Cluster
from repro.metrics.registry import Outcome
from repro.sim.core import Environment
from repro.telemetry import Telemetry, TelemetryConfig, decompose, match_records
from tests.golden_scenario import run_scenario

FUNCTIONS = [
    FunctionRegistration(name="a", memory_mb=256, warm_time=0.05, cold_time=0.4),
    FunctionRegistration(name="b", memory_mb=512, warm_time=0.2, cold_time=0.9),
    # Always exceeds its execution limit.
    FunctionRegistration(
        name="slow", memory_mb=128, warm_time=1.0, cold_time=1.5, timeout=0.3
    ),
]
FINISHED = (Outcome.WARM, Outcome.COLD, Outcome.BYPASSED)


def _run(num_workers, lb_policy, arrivals):
    env = Environment()
    cluster = Cluster(
        env,
        num_workers=num_workers,
        config=WorkerConfig(cores=2, memory_mb=2048, seed=11),
        lb_policy=lb_policy,
    )
    telemetry = Telemetry(env, TelemetryConfig(interval=1.0))
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    for reg in FUNCTIONS:
        cluster.register_sync(reg)

    def submit(at, fqdn):
        yield env.timeout(at)
        yield from cluster.invoke(fqdn)

    for at, idx in arrivals:
        env.process(submit(at, FUNCTIONS[idx].fqdn()))
    env.run(until=120.0)
    cluster.stop()
    telemetry.stop()
    return cluster, telemetry


def _key(b):
    return (b.tag, dict(b.phases), b.exec_time, b.cold, b.start, b.end)


# Arrival times on a coarse grid, so duplicate timestamps are common.
arrival = st.tuples(
    st.integers(min_value=0, max_value=20).map(lambda k: k * 0.05),
    st.integers(min_value=0, max_value=len(FUNCTIONS) - 1),
)


@settings(max_examples=25, deadline=None)
@given(
    num_workers=st.integers(min_value=1, max_value=3),
    lb_policy=st.sampled_from(["ch_bl", "round_robin", "pull_local"]),
    arrivals=st.lists(arrival, min_size=1, max_size=20),
)
def test_spans_project_closed_contexts(num_workers, lb_policy, arrivals):
    cluster, telemetry = _run(num_workers, lb_policy, arrivals)
    spans = telemetry.spans()
    contexts = [
        ctx for w in cluster.workers.values() for ctx in w.lifecycle.contexts
    ]
    records = telemetry.records()

    # Every arrival reached exactly one terminal, and each record has
    # exactly one retained context with the same outcome.
    assert len(records) == len(arrivals)
    by_id = {ctx.inv.id: ctx for ctx in contexts}
    assert len(by_id) == len(contexts)
    assert sorted(r.invocation_id for r in records) == sorted(by_id)
    for r in records:
        assert by_id[r.invocation_id].outcome == r.outcome

    # Each context's spans are exactly its intervals, tagged with its id;
    # what is left over is the balancer's pick/rpc spans.
    per_tag: dict = {}
    for s in spans:
        per_tag.setdefault(s.tag, []).append((s.name, s.start, s.end))
    for inv_id, ctx in by_id.items():
        assert per_tag.pop(str(inv_id), []) == sorted(
            ctx.intervals, key=lambda i: (i[1], i[2], i[0])
        )
    lb = [name for rows in per_tag.values() for name, _s, _e in rows]
    if lb_policy == "pull_local":
        assert lb == []
    else:
        assert sorted(lb) == ["lb_pick"] * len(arrivals) + ["lb_rpc"] * len(arrivals)
    assert [(s.start, s.end, s.name) for s in spans] == sorted(
        (s.start, s.end, s.name) for s in spans
    )

    # Both decompositions agree bit for bit and account every finished
    # invocation's overhead.
    breakdowns = telemetry.breakdowns()
    assert [_key(b) for b in decompose(spans)] == [_key(b) for b in breakdowns]
    finished = sum(1 for r in records if r.outcome in FINISHED)
    assert len(breakdowns) == finished
    assert match_records(breakdowns, records) == (finished, finished)


# The parent commit's counts on the golden scenario.
@pytest.mark.parametrize(
    "keep_spans, trace, n_spans, n_breakdowns",
    [
        (True, False, 612, 38),
        (True, True, 612, 38),
        (False, False, 0, 0),
        # The tracer retains contexts, but no spans are exported.
        (False, True, 0, 38),
    ],
)
def test_keep_spans_and_trace_switches(keep_spans, trace, n_spans,
                                       n_breakdowns):
    _, telemetry = run_scenario(
        TelemetryConfig(interval=1.0, sample_energy=True,
                        keep_spans=keep_spans, trace=trace),
        return_telemetry=True,
    )
    assert len(telemetry.spans()) == n_spans
    assert len(telemetry.breakdowns()) == n_breakdowns
