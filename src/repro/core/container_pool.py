"""The worker's warm-container pool (Sections 3.2.1, 3.2.2).

The pool is the keep-alive cache in its live form: available containers
are kept warm per function, claimed on invocation, returned afterwards,
and evicted by the configured caching policy.  Two properties from the
paper's design are reproduced here:

* **Background eviction** — victims are picked and destroyed by a periodic
  process off the critical path (like the kernel page cache), maintaining
  a free-memory buffer so bursts do not stall on eviction;
* **Lazy expiry** — non-work-conserving policies (TTL/HIST) expire entries
  which are reaped on access or by the background sweep.

The same :class:`~repro.keepalive.policies.KeepAlivePolicy` objects used
by the trace simulator order eviction here; :class:`PoolEntry` duck-types
the attributes the policies read.
"""

from __future__ import annotations

import heapq
from typing import Generator, Optional

from ..containers.base import Container, ContainerBackend, ContainerState
from ..keepalive.policies import KeepAlivePolicy
from ..sim.core import Environment
from ..sim.resources import Gauge

__all__ = ["PoolEntry", "ContainerPool"]


class PoolEntry:
    """Cache metadata for one pooled container (policy-compatible)."""

    __slots__ = (
        "container",
        "fqdn",
        "memory_mb",
        "init_cost",
        "warm_time",
        "freq",
        "last_used",
        "priority",
        "expires_at",
        "stamp",
        "evicted",
        "in_use",
        "inserted_at",
        "prewarmed",
    )

    def __init__(self, container: Container, init_cost: float, now: float,
                 prewarmed: bool = False):
        self.container = container
        self.fqdn = container.fqdn
        self.memory_mb = container.memory_mb
        self.init_cost = float(init_cost)
        self.warm_time = container.registration.warm_time
        self.freq = 1
        self.last_used = now
        self.priority = 0.0
        self.expires_at = float("inf")
        self.stamp = 0
        self.evicted = False
        self.in_use = True  # entries are created by the invocation using them
        self.inserted_at = now
        self.prewarmed = prewarmed

    def touch(self, now: float) -> None:
        self.freq += 1
        self.last_used = now

    def is_idle(self, now: float) -> bool:  # policy-compat; pool tracks in_use
        return not self.in_use


class ContainerPool:
    """All in-use and available containers of a worker."""

    def __init__(
        self,
        env: Environment,
        backend: ContainerBackend,
        policy: KeepAlivePolicy,
        memory: Gauge,
        free_buffer_mb: float = 0.0,
        eviction_interval: float = 2.0,
    ):
        if free_buffer_mb < 0:
            raise ValueError("free_buffer_mb must be non-negative")
        if eviction_interval <= 0:
            raise ValueError("eviction_interval must be positive")
        self.env = env
        self.backend = backend
        self.policy = policy
        self.memory = memory
        self.free_buffer_mb = float(free_buffer_mb)
        self.eviction_interval = float(eviction_interval)
        self._available: dict[str, list[PoolEntry]] = {}
        # Lower bound on the earliest expiry among a function's available
        # entries: lets try_acquire skip the expiry scan entirely when
        # nothing can be expired (the common case — work-conserving
        # policies never expire, so the bound is +inf).
        self._min_expiry: dict[str, float] = {}
        self._in_use: set[PoolEntry] = set()
        self._evict_heap: list[tuple[float, int, int, PoolEntry]] = []
        self._seq = 0
        self.evictions = 0
        self.expirations = 0
        self._running = True

    # -- introspection -----------------------------------------------------
    def available_count(self, fqdn: Optional[str] = None) -> int:
        if fqdn is not None:
            return len(self._available.get(fqdn, ()))
        return sum(len(v) for v in self._available.values())

    def in_use_count(self) -> int:
        return len(self._in_use)

    def pooled_memory_mb(self) -> float:
        """Memory held by idle warm containers (the keep-alive footprint)."""
        return sum(
            e.memory_mb for entries in self._available.values() for e in entries
        )

    def stats(self) -> dict:
        """Point-in-time pool gauges, as the telemetry sampler reads them."""
        return {
            "available": self.available_count(),
            "in_use": len(self._in_use),
            "pooled_memory_mb": self.pooled_memory_mb(),
            "evictions": self.evictions,
            "expirations": self.expirations,
        }

    def has_available(self, fqdn: str) -> bool:
        entries = self._available.get(fqdn)
        if not entries:
            return False
        now = self.env.now
        if self._min_expiry.get(fqdn, 0.0) > now:
            return True
        return any(e.expires_at > now for e in entries)

    # -- acquire / return ------------------------------------------------
    def try_acquire(self, fqdn: str) -> Optional[PoolEntry]:
        """Claim a warm container; expired entries are reaped on the way."""
        now = self.env.now
        entries = self._available.get(fqdn)
        if not entries:
            return None
        if self._min_expiry.get(fqdn, 0.0) > now:
            # Nothing can be expired: first entry is the scan's pick.
            chosen = entries.pop(0)
            if not entries:
                self._available.pop(fqdn, None)
                self._min_expiry.pop(fqdn, None)
        else:
            chosen = None
            expired: list[PoolEntry] = []
            for e in entries:
                if e.expires_at <= now:
                    expired.append(e)
                elif chosen is None:
                    chosen = e
            for e in expired:
                self._evict_entry(e, expired_eviction=True)
            remaining = self._available.get(fqdn)
            if chosen is None:
                if remaining:
                    self._min_expiry[fqdn] = min(e.expires_at for e in remaining)
                return None
            remaining.remove(chosen)
            if remaining:
                self._min_expiry[fqdn] = min(e.expires_at for e in remaining)
            else:
                self._available.pop(fqdn, None)
                self._min_expiry.pop(fqdn, None)
        chosen.in_use = True
        self._in_use.add(chosen)
        self.policy.on_access(chosen, now)
        return chosen

    def add_in_use(self, container: Container, init_cost: float,
                   prewarmed: bool = False) -> PoolEntry:
        """Register a freshly cold-started container, claimed by its creator.

        The caller must have taken the container's memory from the gauge
        already (before the backend create, so admission happens first).
        """
        entry = PoolEntry(container, init_cost, self.env.now, prewarmed=prewarmed)
        self.policy.on_insert(entry, self.env.now)
        self._in_use.add(entry)
        return entry

    def return_entry(self, entry: PoolEntry) -> None:
        """Invocation done: container back to the warm pool."""
        if entry not in self._in_use:
            raise ValueError(f"entry {entry.fqdn} is not in use")
        self._in_use.discard(entry)
        entry.in_use = False
        entry.last_used = self.env.now
        # Refresh expiry now that the idle clock starts.
        entry.expires_at = self.policy.expiry_time(entry)
        entry.priority = self.policy.priority(entry, self.env.now)
        self._available.setdefault(entry.fqdn, []).append(entry)
        bound = self._min_expiry.get(entry.fqdn)
        if bound is None or entry.expires_at < bound:
            self._min_expiry[entry.fqdn] = entry.expires_at
        self._push_heap(entry)

    def discard_in_use(self, entry: PoolEntry) -> Generator:
        """Destroy a claimed container without pooling it (failure path)."""
        self._in_use.discard(entry)
        entry.evicted = True
        yield self.env.process(self.backend.destroy(entry.container))
        self.memory.give(entry.memory_mb)

    # -- eviction ----------------------------------------------------------
    def _push_heap(self, entry: PoolEntry) -> None:
        self._seq += 1
        heapq.heappush(
            self._evict_heap, (entry.priority, entry.stamp, self._seq, entry)
        )

    def _pop_victim(self) -> Optional[PoolEntry]:
        while self._evict_heap:
            _pri, stamp, _seq, entry = heapq.heappop(self._evict_heap)
            if entry.evicted or entry.in_use or stamp != entry.stamp:
                continue
            return entry
        return None

    def _evict_entry(self, entry: PoolEntry, expired_eviction: bool) -> None:
        """Remove from the pool and destroy asynchronously."""
        entries = self._available.get(entry.fqdn)
        if entries and entry in entries:
            entries.remove(entry)
            if not entries:
                self._available.pop(entry.fqdn, None)
                self._min_expiry.pop(entry.fqdn, None)
        entry.evicted = True
        entry.stamp += 1
        self.evictions += 1
        if expired_eviction:
            self.expirations += 1
        self.policy.on_evict(entry)

        def _destroy() -> Generator:
            yield self.env.process(self.backend.destroy(entry.container))
            self.memory.give(entry.memory_mb)

        self.env.process(_destroy())

    def evict_for(self, needed_mb: float) -> float:
        """Synchronously pick victims to free ``needed_mb``; returns the
        amount of memory that will be freed (destruction is async but the
        gauge is credited on completion)."""
        freed = 0.0
        while freed < needed_mb:
            victim = self._pop_victim()
            if victim is None:
                break
            self._evict_entry(victim, expired_eviction=False)
            freed += victim.memory_mb
        return freed

    def sweep(self) -> bool:
        """One background-eviction pass: expire, then restore free buffer.

        Runs every ``eviction_interval`` via :meth:`Environment.every`;
        returns False once :meth:`stop` was called, which ends the
        schedule after this last pass.
        """
        now = self.env.now
        expired = [
            e
            for entries in self._available.values()
            for e in entries
            if e.expires_at <= now
        ]
        for e in expired:
            self._evict_entry(e, expired_eviction=True)
        deficit = self.free_buffer_mb - self.memory.level
        if deficit > 0:
            self.evict_for(deficit)
        return self._running

    def stop(self) -> None:
        self._running = False
