"""The epoch-batched seam walk is the per-arrival walk, batched.

Three independent angles on the refactor from per-invocation seam tuples
to columnar epoch messages:

* **sync_indices vs the board** — the vectorized, epoch-jumping
  ``sync_indices`` (binary search + exact-predicate fixup) is compared
  against a literal per-arrival :class:`StatusBoard` simulation counting
  actual refreshes, over hypothesis-generated timestamp sets including
  duplicates, near-boundary deltas and overflow-scale magnitudes.
* **epoch walk vs per-arrival walk** — a coordinator-shaped walk (loads
  refreshed only at epoch boundaries from the frozen seam dict, one
  clock write per epoch) must produce the same pick sequence as the
  per-arrival protocol walk (clock written at every arrival), for random
  plans x policies x status intervals.
* **failure surfacing** — a shard dying mid-protocol names its shard
  index in the coordinator's error, both at the pipe layer (unit) and
  through a real run whose second shard explodes (integration).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster_shard import (
    ShardingUnavailable,
    plan_epochs,
    run_sharded_replay,
    sync_indices,
)
from repro.cluster_shard.coordinator import _recv
from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.dispatch import make_dispatch
from repro.loadbalancer.policies import StatusBoard, snap_to_grid
from repro.loadgen.openloop import InvocationPlan

WORKERS = ["w0", "w1", "w2"]
RPC = 0.0005


# ------------------------------------------------------- strategies
def _plans():
    """Sorted timestamp arrays + parallel fqdn choices."""
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False,
                      allow_infinity=False),
            st.sampled_from(["alpha.1", "beta.1", "gamma.1"]),
        ),
        min_size=0,
        max_size=60,
    ).map(lambda rows: sorted(rows, key=lambda r: r[0]))


INTERVALS = st.sampled_from([None, 0.1, 0.5, 2.0, 7.3])
POLICIES = st.sampled_from(["ch_bl", "least_loaded", "round_robin", "CH_BL"])


# ------------------------------------------------- sync_indices vs board
def _board_refresh_indices(ts, interval):
    """Literal per-arrival simulation: which arrivals refresh the board."""
    clk = {"now": 0.0}
    board = StatusBoard(clock=lambda: clk["now"], live_load_fn=lambda w: 0.0,
                        interval=interval)
    out = set()
    for k, t in enumerate(ts):
        clk["now"] = t
        before = board.refreshes
        board.load("w0")
        if board.refreshes > before:
            out.add(k)
    return frozenset(out)


@settings(max_examples=120, deadline=None)
@given(plan=_plans(), interval=st.sampled_from([0.1, 0.5, 1.0, 2.0, 7.3]))
def test_sync_indices_matches_statusboard_simulation(plan, interval):
    ts = np.array([t for t, _ in plan], dtype=np.float64)
    assert sync_indices(ts, "ch_bl", interval) == _board_refresh_indices(
        ts, interval
    )


@pytest.mark.parametrize(
    "ts, policy, interval, expected",
    [
        # empty plan: nothing to sync, for any policy/interval
        ([], "ch_bl", 2.0, frozenset()),
        ([], "ch_bl", None, frozenset()),
        # duplicates inside one epoch never re-sync (delta to the epoch
        # floor is unchanged)
        ([0.0, 0.0, 0.0, 0.5], "ch_bl", 2.0, frozenset({0})),
        # a duplicate pair exactly on the refresh boundary syncs once, at
        # the first of the pair
        ([0.0, 2.0, 2.0], "ch_bl", 2.0, frozenset({0, 1})),
        # policy names are case-insensitive, matching make_dispatch
        ([0.0, 1.0], "CH_BL", None, frozenset({0, 1})),
        ([0.0, 1.0], "ROUND_ROBIN", 1.0, frozenset()),
        ([0.0, 1.0], "Least_Loaded", None, frozenset({0, 1})),
    ],
)
def test_sync_indices_table(ts, policy, interval, expected):
    assert sync_indices(np.array(ts, dtype=np.float64), policy, interval) == expected


def test_sync_indices_survives_overflow_scale_timestamps():
    # t / interval overflows to inf here; snap_to_grid's fmod fallback
    # (shared with StatusBoard.load) must keep both walks agreeing.
    ts = np.array([1e308, 1e308, 1.7e308], dtype=np.float64)
    interval = 1e-3
    got = sync_indices(ts, "ch_bl", interval)
    assert got == _board_refresh_indices(ts, interval)
    assert 0 in got
    assert snap_to_grid(1e308, 1e-3) <= 1e308


def test_plan_epochs_segments():
    assert plan_epochs(0, frozenset()) == []
    assert plan_epochs(5, frozenset()) == [(None, 0, 5)]
    assert plan_epochs(8, {2, 5}) == [(None, 0, 2), (2, 2, 5), (5, 5, 8)]
    assert plan_epochs(3, {0}) == [(0, 0, 3)]
    with pytest.raises(ValueError, match="out of plan range"):
        plan_epochs(3, {5})
    with pytest.raises(ValueError, match="out of plan range"):
        plan_epochs(3, {-1})


# ----------------------------------------- epoch walk == per-arrival walk
def _live_loads_at(dispatches, t):
    """The deterministic shard-side load model for the walk comparison:
    every dispatch occupies its worker from delivery (pick + rpc) on."""
    loads = {w: 0.0 for w in WORKERS}
    for pick_t, worker in dispatches:
        if pick_t + RPC <= t:
            loads[worker] += 1.0
    return loads


def _make_lb(policy, interval, clk, loads):
    board = StatusBoard(clock=lambda: clk["now"],
                        live_load_fn=loads.__getitem__, interval=interval)
    balancer = make_dispatch(policy, load_fn=board.load)
    for w in WORKERS:
        balancer.add_worker(w)
    return balancer


def _per_arrival_walk(ts, fqdns, policy, interval):
    """The pre-batching protocol: clock written and sync set consulted at
    every arrival, loads dict refreshed from the shard model at syncs."""
    syncs = sync_indices(ts, policy, interval)
    clk = {"now": 0.0}
    loads = {w: 0.0 for w in WORKERS}
    balancer = _make_lb(policy, interval, clk, loads)
    dispatches, picks = [], []
    for k, (t, f) in enumerate(zip(ts, fqdns)):
        clk["now"] = float(t)
        if k in syncs:
            loads.update(_live_loads_at(dispatches, float(t)))
        w = balancer.pick(f)
        picks.append(w)
        dispatches.append((float(t), w))
    return picks


def _epoch_walk(ts, fqdns, policy, interval):
    """The batched walk: loads refreshed per epoch boundary, one clock
    write per epoch, picks streamed inside the epoch."""
    syncs = sync_indices(ts, policy, interval)
    segments = plan_epochs(len(ts), syncs)
    clk = {"now": 0.0}
    loads = {w: 0.0 for w in WORKERS}
    balancer = _make_lb(policy, interval, clk, loads)
    dispatches, picks = [], []
    for sync_k, a, b in segments:
        if sync_k is not None:
            loads.update(_live_loads_at(dispatches, float(ts[sync_k])))
        if b > a:
            clk["now"] = float(ts[a])
        for k in range(a, b):
            w = balancer.pick(fqdns[k])
            picks.append(w)
            dispatches.append((float(ts[k]), w))
    return picks


@settings(max_examples=120, deadline=None)
@given(plan=_plans(), policy=POLICIES, interval=INTERVALS)
def test_epoch_walk_equals_per_arrival_walk(plan, policy, interval):
    ts = np.array([t for t, _ in plan], dtype=np.float64)
    fqdns = [f for _, f in plan]
    assert _epoch_walk(ts, fqdns, policy, interval) == _per_arrival_walk(
        ts, fqdns, policy, interval
    )


# ------------------------------------------------------- failure naming
class _DeadConn:
    def recv(self):
        raise EOFError("pipe closed")


class _ErrorConn:
    def recv(self):
        return ("error", "Traceback: shard exploded")


def test_recv_names_shard_on_dead_pipe():
    with pytest.raises(RuntimeError, match="shard 3 died mid-run"):
        _recv(_DeadConn(), 3)


def test_recv_names_shard_on_error_payload():
    with pytest.raises(RuntimeError, match="shard 2 failed"):
        _recv(_ErrorConn(), 2)


def test_shard_death_mid_epoch_names_the_shard():
    """A real run whose second shard hits an unregistered function: the
    error must surface the failing shard's index, not a bare crash."""
    ts = np.array([0.0, 0.1, 0.2, 0.3])
    # round_robin (stream mode, no syncs): arrival 1 lands on worker 1 =
    # shard 1 and names a function nobody registered.
    fqdns = ["alpha.1", "ghost.1", "alpha.1", "ghost.1"]
    plan = InvocationPlan(ts, fqdns, 1.0)
    try:
        with pytest.raises(RuntimeError, match="shard 1"):
            run_sharded_replay(
                plan,
                num_workers=2,
                shards=2,
                registrations=[
                    FunctionRegistration(name="alpha", memory_mb=128.0,
                                         warm_time=0.05, cold_time=0.2),
                ],
                config=WorkerConfig(cores=1, memory_mb=4096, seed=7),
                lb_policy="round_robin",
                horizon=30.0,
            )
    except ShardingUnavailable as exc:  # pragma: no cover - sandbox dependent
        pytest.skip(f"shard processes unavailable here: {exc}")
