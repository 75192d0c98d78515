"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.keepalive.cache import KeepAliveCache
from repro.keepalive.policies import make_policy
from repro.keepalive.simulator import simulate
from repro.loadbalancer.chbl import CHBLPolicy, ConsistentHashRing
from repro.metrics.stats import OnlineStats, bin_timeseries
from repro.sim import Environment, Gauge
from repro.trace.model import Trace, TraceFunction
from repro.trace.replay import expand_minute_bucket


# --------------------------------------------------------------- cache ops
op = st.tuples(
    st.sampled_from(["insert", "lookup", "finish_all", "advance", "expire"]),
    st.integers(min_value=0, max_value=5),   # function id
    st.floats(min_value=1.0, max_value=400.0),  # memory
)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(op, min_size=1, max_size=60),
    policy_name=st.sampled_from(["LRU", "TTL", "GD", "LND", "FREQ"]),
    capacity=st.floats(min_value=100.0, max_value=2000.0),
)
def test_cache_invariants_hold_under_arbitrary_ops(ops, policy_name, capacity):
    cache = KeepAliveCache(make_policy(policy_name), capacity_mb=capacity)
    now = 0.0
    claimed = []
    for kind, fid, mem in ops:
        if kind == "insert":
            entry = cache.insert(f"f{fid}", mem, 1.0, 0.1, now)
            if entry is not None:
                cache.finish(entry, now + 0.5)
        elif kind == "lookup":
            entry = cache.lookup(f"f{fid}", now)
            if entry is not None:
                claimed.append(entry)
        elif kind == "finish_all":
            for entry in claimed:
                cache.finish(entry, now + 0.1)
            claimed.clear()
        elif kind == "advance":
            now += float(fid) + 1.0
        elif kind == "expire":
            cache.expire(now)
        cache.check_invariants(now=now)
    # Conservation: hits + misses == lookups issued.
    lookups = sum(1 for k, *_ in ops if k == "lookup")
    assert cache.stats.hits + cache.stats.misses == lookups


@settings(max_examples=40, deadline=None)
@given(
    stamps=st.lists(
        st.floats(min_value=0.0, max_value=10_000.0), min_size=1, max_size=200
    ),
    policy_name=st.sampled_from(["LRU", "TTL", "GD", "LND", "FREQ", "HIST"]),
)
def test_simulator_accounting_identities(stamps, policy_name):
    functions = [
        TraceFunction(name="f", memory_mb=100.0, warm_time=1.0, cold_time=2.0)
    ]
    ts = np.sort(np.asarray(stamps))
    trace = Trace(functions, ts, np.zeros(len(stamps), dtype=np.int64),
                  duration=10_001.0)
    r = simulate(trace, policy_name, 1024.0)
    assert r.cold_starts + r.warm_starts == len(stamps)
    assert r.cold_starts >= 1  # the first invocation is always cold
    assert r.total_warm_exec == pytest.approx(len(stamps) * 1.0)
    assert r.total_cold_overhead == pytest.approx(r.cold_starts * 1.0)
    assert 0.0 <= r.cold_ratio <= 1.0


# --------------------------------------------------------------- hash ring
@settings(max_examples=40, deadline=None)
@given(
    members=st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        min_size=1, max_size=8, unique=True,
    ),
    key=st.text(alphabet="xyz0123456789", min_size=1, max_size=12),
)
def test_ring_successors_is_permutation(members, key):
    ring = ConsistentHashRing(vnodes=8)
    for m in members:
        ring.add(m)
    order = ring.successors(key)
    assert sorted(order) == sorted(members)


@settings(max_examples=30, deadline=None)
@given(
    members=st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        min_size=2, max_size=8, unique=True,
    ),
)
def test_ring_removal_only_moves_victims_keys(members):
    ring = ConsistentHashRing(vnodes=16)
    for m in members:
        ring.add(m)
    keys = [f"key-{i}" for i in range(50)]
    before = {k: ring.successors(k)[0] for k in keys}
    victim = members[0]
    ring.remove(victim)
    for k in keys:
        if before[k] != victim:
            assert ring.successors(k)[0] == before[k]


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.sampled_from("abcdefgh")),
        min_size=1, max_size=30,
    ),
)
def test_ring_cache_matches_fresh_ring(ops):
    """After any add/remove sequence, the cached walk CH-BL picks from
    equals a freshly built ring's; mutating returned lists changes nothing."""
    loads = {m: 0.0 for m in "abcdefgh"}
    lb = CHBLPolicy(load_fn=loads.__getitem__, bound_factor=1.2)
    ring = lb.ring
    keys = [f"fn-{i}" for i in range(12)]
    present = set()
    for add, member in ops:
        if add and member not in present:
            lb.add_worker(member)
            present.add(member)
        elif not add and member in present:
            lb.remove_worker(member)
            present.discard(member)
        for k in keys[:3]:      # fill the cache between membership changes
            ring.order(k)
    fresh = ConsistentHashRing(vnodes=ring.vnodes)
    for m in sorted(present):
        fresh.add(m)
    assert ring.members() == fresh.members()
    for k in keys:
        assert list(ring.order(k)) == fresh.successors(k)
        if present:
            # Idle cluster: every pick is the home worker.
            assert lb.pick(k) == fresh.successors(k)[0]
    if present:
        ring.members().append("zz")
        ring.members().clear()
        for k in keys:
            ring.successors(k).reverse()
            ring.successors(k).clear()
            assert lb.pick(k) == fresh.successors(k)[0]
        assert ring.members() == sorted(present)


# ------------------------------------------------------------------- gauge
@settings(max_examples=50, deadline=None)
@given(
    amounts=st.lists(
        st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=30
    )
)
def test_gauge_take_give_conserves_level(amounts):
    env = Environment()
    g = Gauge(env, capacity=100.0)
    taken = []
    for amount in amounts:
        if g.try_take(amount):
            taken.append(amount)
    assert g.level == pytest.approx(100.0 - sum(taken))
    for amount in taken:
        g.give(amount)
    assert g.level == pytest.approx(100.0)


# ----------------------------------------------------------------- replay
@settings(max_examples=60, deadline=None)
@given(
    minute=st.integers(min_value=0, max_value=1439),
    count=st.integers(min_value=1, max_value=200),
)
def test_minute_bucket_expansion_properties(minute, count):
    ts = expand_minute_bucket(minute, count)
    assert ts.size == count
    assert ts[0] == minute * 60.0  # first at the start of the minute
    assert np.all(ts >= minute * 60.0)
    assert np.all(ts < (minute + 1) * 60.0)  # all within the minute
    if count > 1:
        gaps = np.diff(ts)
        assert np.allclose(gaps, 60.0 / count)  # equally spaced


# ------------------------------------------------------------------- stats
@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=200,
    )
)
def test_online_stats_agrees_with_numpy(data):
    s = OnlineStats()
    for x in data:
        s.push(x)
    arr = np.asarray(data)
    assert s.mean == pytest.approx(arr.mean(), rel=1e-6, abs=1e-6)
    assert s.variance == pytest.approx(arr.var(), rel=1e-5, abs=1e-4)


@settings(max_examples=50, deadline=None)
@given(
    stamps=st.lists(
        st.floats(min_value=0.0, max_value=99.9), min_size=0, max_size=100
    ),
    width=st.floats(min_value=0.5, max_value=10.0),
)
def test_bin_timeseries_conserves_events(stamps, width):
    counts = bin_timeseries(stamps, duration=100.0, bin_width=width)
    assert counts.sum() == len(stamps)
    assert np.all(counts >= 0)


# ------------------------------------------------------------ trace merges
@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
    b=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
)
def test_trace_merge_conserves_invocations(a, b):
    fa = [TraceFunction(name="fa", memory_mb=10.0, warm_time=0.1, cold_time=0.2)]
    fb = [TraceFunction(name="fb", memory_mb=10.0, warm_time=0.1, cold_time=0.2)]
    ta = Trace(fa, np.sort(np.asarray(a)), np.zeros(len(a), dtype=np.int64),
               duration=101.0)
    tb = Trace(fb, np.sort(np.asarray(b)), np.zeros(len(b), dtype=np.int64),
               duration=101.0)
    merged = Trace.merge([ta, tb])
    assert len(merged) == len(a) + len(b)
    assert np.all(np.diff(merged.timestamps) >= 0)
