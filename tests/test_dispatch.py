"""Dispatch-layer tests: the policy contract, the pull queue under
adversarial shapes, factory errors, shard-seam refusal, and the inspect
section's fallbacks."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.dispatch import (
    LocalityPullDispatch,
    Offer,
    PullDispatch,
    PushDispatch,
    dispatch_policy_names,
    is_pull_policy,
    make_dispatch,
)
from repro.loadbalancer.cluster import Cluster
from repro.sim.core import Environment
from repro.telemetry import Telemetry, TelemetryConfig


def _load(_name):
    return 0.0


def _policy(name, env):
    return make_dispatch(name, env=env, load_fn=_load,
                         warm_fn=lambda _w, _f: False)


# ------------------------------------------------------------ registry

def test_registry_covers_push_and_pull():
    from repro.cluster_shard.protocol import ShardingUnavailable, sync_indices

    names = dispatch_policy_names()
    assert "ch_bl" in names and "pull" in names and "pull_local" in names
    env = Environment()
    for name in names:
        policy = _policy(name, env)
        assert policy.kind in ("push", "pull")
        assert is_pull_policy(name) == (policy.kind == "pull")
        # The shard seam reads the same table: it refuses exactly the
        # pull names and skips load sync exactly for load-blind pushes.
        if policy.kind == "pull":
            with pytest.raises(ShardingUnavailable, match="serial-only"):
                sync_indices([0.0, 1.0], name, None)
        else:
            syncs = sync_indices([0.0, 1.0], name, None)
            assert (syncs == frozenset()) == (not policy.reads_load)


def test_make_dispatch_unknown_name_lists_choices():
    with pytest.raises(ValueError) as err:
        make_dispatch("random", env=Environment())
    message = str(err.value)
    assert "random" in message
    for name in dispatch_policy_names():
        assert name in message


def test_make_dispatch_pull_requires_env():
    with pytest.raises(ValueError, match="env"):
        make_dispatch("pull")


# ------------------------------------- add/remove across every policy

@pytest.mark.parametrize("name", dispatch_policy_names())
def test_add_remove_workers_mid_run(name):
    """Every registered policy survives membership churn mid-run."""
    env = Environment()
    policy = _policy(name, env)
    for w in ("w-0", "w-1", "w-2"):
        policy.add_worker(w)

    if policy.kind == "push":
        # Exercise the policy, then shrink and grow it mid-stream.
        picks = [policy.pick(f"fn-{i}.1") for i in range(6)]
        assert set(picks) <= {"w-0", "w-1", "w-2"}
        policy.remove_worker("w-1")
        picks = [policy.pick(f"fn-{i}.1") for i in range(6)]
        assert set(picks) <= {"w-0", "w-2"}
        policy.add_worker("w-3")
        picks = [policy.pick(f"fn-{i}.1") for i in range(12)]
        assert set(picks) <= {"w-0", "w-2", "w-3"}
    else:
        done = object()
        policy.offer(Offer("fn.1", None, 0.0, done))
        assert policy.claim("w-1") is not None
        policy.remove_worker("w-1")
        policy.offer(Offer("fn.1", None, 1.0, done))
        # Removed workers can no longer claim; remaining ones can.
        assert policy.claim("w-1") is None
        assert policy.claim("w-0") is not None
        policy.add_worker("w-3")
        policy.offer(Offer("fn.1", None, 2.0, done))
        assert policy.claim("w-3") is not None

    # Double removal and never-registered names fail identically.
    with pytest.raises(ValueError, match="not registered"):
        policy.remove_worker("w-1")
    with pytest.raises(ValueError, match="not registered"):
        policy.remove_worker("never-added")


def test_push_adapter_offer_is_the_pick():
    env = Environment()
    policy = _policy("round_robin", env)
    policy.add_worker("a")
    policy.add_worker("b")
    offer = Offer("fn.1", None, 0.0, object())
    target = policy.offer(offer)
    assert target in ("a", "b")
    assert offer.claimed_by == target
    assert offer.claimed_at == offer.offered_at
    # Push workers never claim.
    assert policy.claim("a") is None


# ------------------------------------------- pull queue, adversarially

def test_claim_on_empty_queue_returns_none():
    env = Environment()
    policy = PullDispatch(env)
    policy.add_worker("w-0")
    assert policy.claim("w-0") is None
    assert policy.claim("unknown") is None
    assert len(policy) == 0


def test_simultaneous_idle_workers_claim_exactly_one_each():
    """Two parked workers, two offers in one timestep: each claims one."""
    env = Environment()
    policy = PullDispatch(env)
    claims = []
    for w in ("w-0", "w-1"):
        policy.add_worker(w)

    def claim_loop(name):
        offer = policy.claim(name)
        while offer is None:
            yield policy.wait(name)
            offer = policy.claim(name)
        claims.append((name, offer))

    for w in ("w-0", "w-1"):
        env.process(claim_loop(w), name=f"loop-{w}")

    def producer():
        yield env.timeout(1.0)
        policy.offer(Offer("fn.1", None, env.now, object()))
        policy.offer(Offer("fn.2", None, env.now, object()))

    env.process(producer(), name="producer")
    env.run(until=5.0)
    assert len(claims) == 2
    assert {name for name, _offer in claims} == {"w-0", "w-1"}
    assert {offer.fqdn for _name, offer in claims} == {"fn.1", "fn.2"}
    assert len(policy) == 0


def test_wakeup_loser_parks_again_without_losing_offers():
    """An offer wakes one worker; a busy rival stealing it must not
    strand the woken worker when the next offer lands."""
    env = Environment()
    policy = PullDispatch(env)
    policy.add_worker("slow")
    policy.add_worker("fast")
    got = []

    def slow_loop():
        robbed = False
        offer = policy.claim("slow")
        while offer is None:
            yield policy.wait("slow")
            if not robbed:
                # Simulate losing the race once: "fast" grabs the queue
                # head between our wakeup and our claim.
                robbed = True
                stolen = policy.claim("fast")
                if stolen is not None:
                    got.append(("fast", stolen.fqdn))
            offer = policy.claim("slow")
        got.append(("slow", offer.fqdn))

    env.process(slow_loop(), name="slow-loop")

    def producer():
        yield env.timeout(1.0)
        policy.offer(Offer("first.1", None, env.now, object()))
        yield env.timeout(1.0)
        policy.offer(Offer("second.1", None, env.now, object()))

    env.process(producer(), name="producer")
    env.run(until=10.0)
    assert got == [("fast", "first.1"), ("slow", "second.1")]


def test_locality_pull_prefers_warm_function_but_stays_work_conserving():
    env = Environment()
    policy = LocalityPullDispatch(env, warm_fn=lambda w, fqdn: fqdn == "warm.1")
    policy.add_worker("w-0")
    policy.offer(Offer("cold.1", None, 0.0, object()))
    policy.offer(Offer("warm.1", None, 0.0, object()))
    # Warm offer wins despite sitting behind the head...
    assert policy.claim("w-0").fqdn == "warm.1"
    assert policy.locality_hits == 1
    # ...but with nothing warm left, the head is claimed anyway.
    assert policy.claim("w-0").fqdn == "cold.1"
    assert policy.locality_hits == 1


def _pull_cluster(env, policy="pull", **kwargs):
    cluster = Cluster(
        env, num_workers=2,
        config=WorkerConfig(cores=1, memory_mb=4096, seed=7,
                            backend="null"),
        lb_policy=policy, **kwargs,
    )
    cluster.start()
    return cluster


def test_claim_after_drop_releases_the_slot():
    """Terminal non-complete outcomes (timeout kill) must release claim
    slots through the dispatch seam, or the worker stops claiming."""
    env = Environment()
    cluster = _pull_cluster(env)
    # Always times out: every claimed invocation dies on the kill path.
    cluster.register_sync(FunctionRegistration(
        name="doomed", memory_mb=128, warm_time=2.0, cold_time=2.2,
        timeout=0.2))
    cluster.register_sync(FunctionRegistration(
        name="fine", memory_mb=128, warm_time=0.05, cold_time=0.3))
    results = []

    def submit(at, fqdn):
        yield env.timeout(at)
        inv = yield from cluster.invoke(fqdn)
        results.append(inv)

    for i in range(4):
        env.process(submit(0.1 * i, "doomed.1"), name=f"d{i}")
    # These arrive after the timeouts; they only run if slots came back.
    for i in range(4):
        env.process(submit(5.0 + 0.1 * i, "fine.1"), name=f"f{i}")
    env.run(until=60.0)
    cluster.stop()

    assert len(results) == 8
    timed_out = [r for r in results if r.timed_out]
    completed = [r for r in results if r.completed_at and not r.timed_out]
    assert len(timed_out) == 4
    assert len(completed) == 4
    engine = cluster._pull
    assert not engine._claims, "claim bookkeeping leaked"
    for slot in engine._slots.values():
        # An idle claim loop pre-acquires one slot before parking; any
        # higher count means a timeout kill leaked its claim slot.
        assert slot.count == 1, "a claim slot was never released"
        assert slot.queue_length == 0
    assert len(cluster.dispatch) == 0


@settings(deadline=None, max_examples=40)
@given(
    offsets=st.lists(st.floats(min_value=0.0, max_value=8.0), min_size=1,
                     max_size=25),
    num_workers=st.integers(min_value=1, max_value=4),
    service=st.floats(min_value=0.0, max_value=0.4),
)
def test_every_offer_claimed_exactly_once(offsets, num_workers, service):
    """Property: whatever the arrival pattern and worker count, every
    accepted offer is claimed exactly once — none lost, none duplicated."""
    env = Environment()
    policy = PullDispatch(env)
    workers = [f"w-{i}" for i in range(num_workers)]
    for w in workers:
        policy.add_worker(w)
    claimed: list[str] = []

    def claim_loop(name):
        while True:
            offer = policy.claim(name)
            while offer is None:
                yield policy.wait(name)
                offer = policy.claim(name)
            claimed.append(offer.fqdn)
            if service > 0:
                yield env.timeout(service)

    for w in workers:
        env.process(claim_loop(w), name=f"loop-{w}")

    def producer(at, index):
        yield env.timeout(at)
        policy.offer(Offer(f"fn-{index}.1", None, env.now, object()))

    for index, at in enumerate(offsets):
        env.process(producer(at, index), name=f"p{index}")
    env.run(until=60.0)

    assert len(claimed) == len(offsets)
    assert len(set(claimed)) == len(offsets)
    assert policy.offered == len(offsets)
    assert policy.claimed == len(offsets)
    assert len(policy) == 0


# ------------------------------------------------- cluster integration

def test_pull_cluster_charges_claim_wait_into_overhead():
    env = Environment()
    cluster = _pull_cluster(env, claim_latency=0.002)
    telemetry = Telemetry(env, TelemetryConfig(interval=1.0))
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.register_sync(FunctionRegistration(
        name="fn", memory_mb=128, warm_time=0.1, cold_time=0.4))
    results = []

    def submit(at):
        yield env.timeout(at)
        inv = yield from cluster.invoke("fn.1")
        results.append(inv)

    for i in range(6):
        env.process(submit(0.05 * i), name=f"s{i}")
    env.run(until=30.0)
    cluster.stop()
    telemetry.stop()

    assert len(results) == 6
    for inv in results:
        assert inv.offered_at is not None
        assert inv.claimed_at is not None
        assert inv.claimed_at - inv.offered_at >= 0.002
        assert inv.arrival == inv.offered_at
    from repro.telemetry.decomposition import (
        CLAIM_WAIT_PHASE, aggregate_phases, match_records,
    )
    breakdowns = telemetry.breakdowns()
    matched, compared = match_records(breakdowns, telemetry.records())
    assert compared == 6 and matched == 6
    phases = aggregate_phases(breakdowns)
    assert phases[CLAIM_WAIT_PHASE]["total"] > 0.0
    # Span-derived and context-derived breakdowns agree on the new phase.
    from repro.telemetry.decomposition import decompose
    by_span = {b.tag: b.phases for b in decompose(telemetry.spans())}
    for b in breakdowns:
        assert by_span[b.tag] == dict(b.phases)


def test_push_cluster_summary_has_no_claim_artifacts():
    env = Environment()
    cluster = Cluster(env, num_workers=2,
                      config=WorkerConfig(cores=1, memory_mb=4096, seed=7,
                                          backend="null"))
    telemetry = Telemetry(env, TelemetryConfig(interval=1.0))
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    cluster.register_sync(FunctionRegistration(
        name="fn", memory_mb=128, warm_time=0.1, cold_time=0.4))

    def submit(at):
        yield env.timeout(at)
        yield from cluster.invoke("fn.1")

    for i in range(4):
        env.process(submit(0.05 * i), name=f"s{i}")
    env.run(until=30.0)
    cluster.stop()
    telemetry.stop()

    summary = telemetry.summary()
    assert summary["dispatch"] == {"policy": "ch_bl", "kind": "push"}
    assert "claim_wait_seconds" not in summary["histograms"]
    from repro.telemetry import PHASES
    for b in telemetry.breakdowns():
        assert set(b.phases) == set(PHASES)


# ------------------------------------------------------ sharding rules

def test_pull_policies_refuse_the_shard_seam():
    from repro.cluster_shard.protocol import ShardingUnavailable, sync_indices

    for name in ("pull", "pull_local", "PULL"):
        with pytest.raises(ShardingUnavailable, match="serial-only"):
            sync_indices([0.0, 1.0], name, None)
    # Push policies are untouched by the guard.
    assert sync_indices([0.0, 1.0], "round_robin", None) == frozenset()


def test_sharded_replay_rejects_pull_before_spawning():
    from repro.cluster_shard.coordinator import run_sharded_replay
    from repro.cluster_shard.protocol import ShardingUnavailable
    from repro.loadgen.openloop import FunctionMix, build_plan
    from repro.sim.distributions import Exponential

    reg = FunctionRegistration(name="fn", memory_mb=128, warm_time=0.1,
                               cold_time=0.4)
    plan = build_plan([FunctionMix("fn.1", Exponential(1.0))], 5.0, seed=3)
    with pytest.raises(ShardingUnavailable, match="serial-only"):
        run_sharded_replay(plan, num_workers=2, shards=2,
                           registrations=[reg], lb_policy="pull")


# ------------------------------------------------------ inspect section

def _export_run(tmp_path, lb_policy):
    env = Environment()
    cluster = Cluster(env, num_workers=2,
                      config=WorkerConfig(cores=1, memory_mb=4096, seed=7,
                                          backend="null"),
                      lb_policy=lb_policy)
    telemetry = Telemetry(env, TelemetryConfig(interval=1.0))
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    cluster.register_sync(FunctionRegistration(
        name="fn", memory_mb=128, warm_time=0.1, cold_time=0.4))

    def submit(at):
        yield env.timeout(at)
        yield from cluster.invoke("fn.1")

    for i in range(5):
        env.process(submit(0.05 * i), name=f"s{i}")
    env.run(until=30.0)
    cluster.stop()
    telemetry.stop()
    run_dir = tmp_path / f"run-{lb_policy}"
    telemetry.export(run_dir)
    return run_dir


def test_inspect_reports_pull_dispatch_section(tmp_path):
    from repro.telemetry import inspect_report

    report = inspect_report(_export_run(tmp_path, "pull"))
    assert "dispatch: policy=pull  kind=pull" in report
    assert "claim_latency=" in report
    assert "claim wait (seconds):" in report


def test_inspect_reports_push_dispatch_without_claim_histogram(tmp_path):
    from repro.telemetry import inspect_report

    report = inspect_report(_export_run(tmp_path, "ch_bl"))
    assert "dispatch: policy=ch_bl  kind=push" in report
    assert "claim wait" not in report


def test_inspect_falls_back_when_dispatch_key_absent(tmp_path):
    """Run dirs from before the dispatch layer (no key, health off) must
    render with no dispatch section and no errors."""
    from repro.telemetry import inspect_report

    run_dir = _export_run(tmp_path, "ch_bl")
    summary_path = run_dir / "summary.json"
    summary = json.loads(summary_path.read_text())
    del summary["dispatch"]
    summary_path.write_text(json.dumps(summary))
    report = inspect_report(run_dir)
    assert "dispatch:" not in report
    assert "overhead decomposition" in report
