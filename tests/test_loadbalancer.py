"""Tests for CH-BL and the cluster front end."""

import pytest

from repro import FunctionRegistration, WorkerConfig
from repro.loadbalancer import CHBLPolicy, Cluster, ConsistentHashRing, hash_point
from repro.sim import Environment


# -------------------------------------------------------------------- ring
def test_hash_point_stable():
    assert hash_point("key") == hash_point("key")
    assert hash_point("key") != hash_point("key2")
    assert hash_point("key", salt=1) != hash_point("key", salt=2)


def test_ring_members():
    ring = ConsistentHashRing(vnodes=8)
    ring.add("a")
    ring.add("b")
    assert ring.members() == ["a", "b"]
    assert len(ring) == 2


def test_ring_duplicate_add_rejected():
    ring = ConsistentHashRing()
    ring.add("a")
    with pytest.raises(ValueError):
        ring.add("a")


def test_ring_remove():
    ring = ConsistentHashRing()
    ring.add("a")
    ring.add("b")
    ring.remove("a")
    assert ring.members() == ["b"]
    with pytest.raises(ValueError):
        ring.remove("a")


def test_ring_successors_cover_all_members():
    ring = ConsistentHashRing(vnodes=16)
    for m in ("a", "b", "c"):
        ring.add(m)
    order = ring.successors("some-function")
    assert sorted(order) == ["a", "b", "c"]
    assert len(order) == 3


def test_ring_home_node_stable_under_unrelated_removal():
    # Consistency: removing a node that is not the key's home does not
    # change the key's home.
    ring = ConsistentHashRing(vnodes=32)
    for m in ("a", "b", "c", "d"):
        ring.add(m)
    keys = [f"fn-{i}" for i in range(100)]
    homes = {k: ring.successors(k)[0] for k in keys}
    victim = "d"
    ring.remove(victim)
    for k in keys:
        if homes[k] != victim:
            assert ring.successors(k)[0] == homes[k]


def test_ring_empty_successors():
    assert ConsistentHashRing().successors("x") == []


def test_ring_vnodes_validation():
    with pytest.raises(ValueError):
        ConsistentHashRing(vnodes=0)


# -------------------------------------------------------------------- CH-BL
def test_chbl_prefers_home_node():
    loads = {"a": 0.0, "b": 0.0}
    lb = CHBLPolicy(load_fn=loads.__getitem__, bound_factor=1.2)
    lb.add_worker("a")
    lb.add_worker("b")
    home = lb.pick("fn-x")
    assert lb.pick("fn-x") == home  # sticky while under bound


def test_chbl_forwards_when_overloaded():
    loads = {"a": 0.0, "b": 0.0}
    lb = CHBLPolicy(load_fn=lambda m: loads[m], bound_factor=1.2)
    lb.add_worker("a")
    lb.add_worker("b")
    home = lb.pick("fn-x")
    other = "b" if home == "a" else "a"
    loads[home] = 100.0  # overload the home node
    assert lb.pick("fn-x") == other
    assert lb.forwards >= 1


def test_chbl_falls_back_to_least_loaded():
    loads = {"a": 50.0, "b": 80.0}
    lb = CHBLPolicy(load_fn=lambda m: loads[m], bound_factor=1.0)
    lb.add_worker("a")
    lb.add_worker("b")
    # Everyone above the bound: least-loaded wins.
    assert lb.pick("fn-y") in ("a", "b")
    loads["a"] = 0.1
    # bound = ceil(1.0 * mean(40.05)) = 41 -> a is under it.
    assert lb.pick("fn-z") == lb.pick("fn-z")


def test_chbl_bound_minimum_one():
    lb = CHBLPolicy(load_fn=lambda m: 0.0)
    lb.add_worker("a")
    assert lb.bound() >= 1.0


def test_chbl_no_workers():
    lb = CHBLPolicy(load_fn=lambda m: 0.0)
    with pytest.raises(RuntimeError):
        lb.pick("fn")
    for bad in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bound_factor"):
            CHBLPolicy(load_fn=lambda m: 0.0, bound_factor=bad)


# ------------------------------------------------------------------ cluster
def cluster_config():
    return WorkerConfig(backend="null", cores=4, memory_mb=4096.0)


def test_cluster_locality_same_function_same_worker():
    env = Environment()
    cl = Cluster(env, num_workers=3, config=cluster_config())
    cl.start()
    cl.register_sync(FunctionRegistration(name="f", warm_time=0.05, cold_time=0.3))
    for _ in range(6):
        inv = env.run_process(cl.invoke("f.1"))
    workers_used = {w.name for w in cl.workers.values() if w.metrics.records}
    assert len(workers_used) == 1  # all on the home node
    records = cl.records()
    assert sum(1 for r in records if r.cold) == 1  # locality -> warm starts


def test_cluster_spillover_under_load():
    env = Environment()
    cl = Cluster(env, num_workers=2,
                 config=cluster_config().with_overrides(cores=2),
                 bound_factor=1.0)
    cl.start()
    cl.register_sync(FunctionRegistration(name="f", warm_time=2.0, cold_time=3.0))
    events = []
    def burst():
        for _ in range(16):
            events.append(cl.async_invoke("f.1"))
            yield env.timeout(0.05)
    env.process(burst())
    env.run(until=120.0)
    used = {w.name for w in cl.workers.values() if w.metrics.records}
    assert len(used) == 2  # burst spilled to the second worker
    assert cl.dispatch.forwards >= 1


def test_cluster_register_broadcasts():
    env = Environment()
    cl = Cluster(env, num_workers=3, config=cluster_config())
    cl.register_sync(FunctionRegistration(name="f"))
    for w in cl.workers.values():
        assert "f.1" in w.registrations


def test_cluster_unknown_function():
    from repro.errors import FunctionNotRegistered

    env = Environment()
    cl = Cluster(env, num_workers=1, config=cluster_config())
    with pytest.raises(FunctionNotRegistered):
        cl.async_invoke("nope.1")


def test_cluster_status_and_validation():
    env = Environment()
    cl = Cluster(env, num_workers=2, config=cluster_config())
    status = cl.status()
    assert set(status["workers"]) == set(cl.workers)
    with pytest.raises(ValueError):
        Cluster(env, num_workers=0)
