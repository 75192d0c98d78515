"""Tests for alternative LB policies and the status board."""

import pytest

from repro import FunctionRegistration, WorkerConfig
from repro.dispatch import make_dispatch
from repro.loadbalancer import (
    Cluster,
    LeastLoadedBalancer,
    RoundRobinBalancer,
    StatusBoard,
)
from repro.sim import Environment


# ---------------------------------------------------------------- policies
def test_round_robin_rotates():
    rr = RoundRobinBalancer()
    for w in ("a", "b", "c"):
        rr.add_worker(w)
    picks = [rr.pick("any") for _ in range(6)]
    assert picks == ["a", "b", "c", "a", "b", "c"]


def test_round_robin_validation():
    rr = RoundRobinBalancer()
    with pytest.raises(RuntimeError):
        rr.pick("x")
    rr.add_worker("a")
    with pytest.raises(ValueError):
        rr.add_worker("a")
    rr.remove_worker("a")
    with pytest.raises(RuntimeError):
        rr.pick("x")


def test_least_loaded_tracks_load():
    loads = {"a": 5.0, "b": 1.0}
    ll = LeastLoadedBalancer(load_fn=loads.__getitem__)
    ll.add_worker("a")
    ll.add_worker("b")
    assert ll.pick("f") == "b"
    loads["b"] = 10.0
    assert ll.pick("f") == "a"


def test_make_dispatch_factory():
    assert make_dispatch("round_robin", load_fn=lambda w: 0.0).name == "round_robin"
    assert make_dispatch("least_loaded", load_fn=lambda w: 0.0).name == "least_loaded"
    assert make_dispatch("CHBL", load_fn=lambda w: 0.0).name == "ch_bl"
    with pytest.raises(ValueError):
        make_dispatch("random", load_fn=lambda w: 0.0)
    # A load-reading policy without a load signal is refused up front.
    with pytest.raises(ValueError, match="load_fn"):
        make_dispatch("ch_bl")


# ------------------------------------------------------------- status board
def test_status_board_live_mode():
    loads = {"a": 1.0}
    board = StatusBoard(clock=lambda: 0.0, live_load_fn=loads.__getitem__)
    assert board.load("a") == 1.0
    loads["a"] = 7.0
    assert board.load("a") == 7.0  # live: changes visible immediately


def test_status_board_staleness():
    clock = {"t": 0.0}
    loads = {"a": 1.0}
    board = StatusBoard(clock=lambda: clock["t"],
                        live_load_fn=loads.__getitem__, interval=10.0)
    assert board.load("a") == 1.0
    loads["a"] = 99.0
    clock["t"] = 5.0
    assert board.load("a") == 1.0  # still the old snapshot
    clock["t"] = 10.0
    assert board.load("a") == 99.0  # refreshed
    assert board.refreshes == 2


def test_status_board_validation():
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError, match="status_interval"):
            StatusBoard(clock=lambda: 0.0, live_load_fn=lambda w: 0.0,
                        interval=bad)


# ------------------------------------------------------------------ cluster
def _cfg():
    return WorkerConfig(backend="null", cores=4, memory_mb=4096.0)


def test_cluster_round_robin_spreads_function():
    env = Environment()
    cl = Cluster(env, num_workers=3, config=_cfg(), lb_policy="round_robin")
    cl.start()
    cl.register_sync(FunctionRegistration(name="f", warm_time=0.05,
                                          cold_time=0.3))
    for _ in range(6):
        env.run_process(cl.invoke("f.1"))
    used = {w.name for w in cl.workers.values() if w.metrics.records}
    assert len(used) == 3  # locality destroyed
    # And therefore more cold starts than CH-BL's single-worker locality.
    colds = sum(1 for r in cl.records() if r.cold)
    assert colds == 3


def test_cluster_chbl_beats_round_robin_on_warm_ratio():
    def run(policy):
        env = Environment()
        cl = Cluster(env, num_workers=4, config=_cfg(), lb_policy=policy)
        cl.start()
        for i in range(6):
            cl.register_sync(
                FunctionRegistration(name=f"f{i}", warm_time=0.05, cold_time=0.4)
            )
        for _ in range(8):
            for i in range(6):
                env.run_process(cl.invoke(f"f{i}.1"))
        records = cl.records()
        return sum(1 for r in records if not r.cold) / len(records)

    assert run("ch_bl") > run("round_robin")


def test_cluster_with_stale_status_still_works():
    env = Environment()
    cl = Cluster(env, num_workers=2, config=_cfg(), status_interval=5.0)
    cl.start()
    cl.register_sync(FunctionRegistration(name="f", warm_time=0.05,
                                          cold_time=0.3))
    for _ in range(4):
        env.run_process(cl.invoke("f.1"))
    assert len(cl.records()) == 4
    assert cl.status_board.refreshes >= 1


def test_cluster_status_reports_policy():
    env = Environment()
    cl = Cluster(env, num_workers=2, config=_cfg(), lb_policy="least_loaded")
    assert cl.status()["policy"] == "least_loaded"
    assert cl.status()["forwards"] == 0  # not a CH-BL concept


def test_status_board_refresh_on_interval_grid():
    clock = {"t": 0.0}
    loads = {"a": 1.0}
    board = StatusBoard(clock=lambda: clock["t"],
                        live_load_fn=loads.__getitem__, interval=10.0)
    assert board.snapped_at is None  # nothing snapped before the first query
    clock["t"] = 3.0
    board.load("a")
    assert board.snapped_at == 0.0   # epoch snaps to the grid, not t=3
    clock["t"] = 27.5
    board.load("a")
    assert board.snapped_at == 20.0
    # Epochs are always multiples of the interval.
    assert board.snapped_at % board.interval == 0.0


def test_status_board_stale_between_refreshes():
    clock = {"t": 0.0}
    loads = {"a": 1.0, "b": 5.0}
    board = StatusBoard(clock=lambda: clock["t"],
                        live_load_fn=loads.__getitem__, interval=10.0)
    board.load("a")
    loads["a"] = 100.0
    for t in (1.0, 4.0, 9.999):
        clock["t"] = t
        assert board.load("a") == 1.0   # stale until the grid boundary
    assert board.refreshes == 1
    # A worker first queried mid-epoch is read lazily into the same epoch.
    assert board.load("b") == 5.0
    clock["t"] = 10.0
    assert board.load("a") == 100.0     # exactly on the interval grid
    assert board.refreshes == 2


def test_status_board_publish_hook():
    clock = {"t": 0.0}
    loads = {"a": 1.0}
    seen = []
    board = StatusBoard(clock=lambda: clock["t"],
                        live_load_fn=loads.__getitem__, interval=10.0,
                        publish=lambda w, t, v: seen.append((w, t, v)))
    board.load("a")
    board.load("a")             # cached: not re-published
    clock["t"] = 12.0
    loads["a"] = 3.0
    board.load("a")
    assert seen == [("a", 0.0, 1.0), ("a", 12.0, 3.0)]
