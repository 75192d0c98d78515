"""Consistent hashing with bounded loads (CH-BL) — the paper's stateless,
locality-aware load-balancing scheme (Section 3.1).

Functions hash onto a ring of worker virtual nodes; an invocation goes to
the first worker at-or-after its hash point whose load is under the bound
``ceil(c * mean_load)``, forwarding clockwise otherwise.  Locality (same
function → same worker → warm start) is preserved until a worker
saturates, at which point spillover shares the burst.

The load signal is the worker's queue length plus running invocations —
the paper's argument for queue-based load reporting is that it is less
stale/noisy than load averages.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Callable

from ..dispatch.push import PushDispatch

__all__ = ["hash_point", "ConsistentHashRing", "CHBLPolicy"]


def hash_point(key: str, salt: int = 0) -> int:
    """Stable 64-bit hash of a string key (BLAKE2b, seed via salt)."""
    h = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8, salt=salt.to_bytes(8, "little")
    )
    return int.from_bytes(h.digest(), "big")


class ConsistentHashRing:
    """A ring of (point, member) pairs with virtual nodes.

    The walk is cached: each key's distinct-successor order and the sorted
    member list are computed once and kept as tuples until the next
    :meth:`add` or :meth:`remove`, so a steady-state pick costs one dict
    lookup instead of a walk over every virtual node.
    """

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._members: list[str] = []
        self._names: set[str] = set()
        self._orders: dict[str, tuple[str, ...]] = {}
        self._sorted: tuple[str, ...] = ()

    def _reset_caches(self) -> None:
        self._orders = {}
        self._sorted = tuple(sorted(self._names))

    def add(self, member: str) -> None:
        if member in self._names:
            raise ValueError(f"member {member!r} already on the ring")
        for v in range(self.vnodes):
            point = hash_point(f"{member}#{v}")
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._members.insert(idx, member)
        self._names.add(member)
        self._reset_caches()

    def remove(self, member: str) -> None:
        if member not in self._names:
            raise ValueError(f"member {member!r} not on the ring")
        keep = [(p, m) for p, m in zip(self._points, self._members) if m != member]
        self._points = [p for p, _ in keep]
        self._members = [m for _, m in keep]
        self._names.discard(member)
        self._reset_caches()

    def sorted_members(self) -> tuple[str, ...]:
        """The distinct members, sorted (cached; immutable)."""
        return self._sorted

    def members(self) -> list[str]:
        return list(self._sorted)

    def __len__(self) -> int:
        return len(self._names)

    def order(self, key: str) -> tuple[str, ...]:
        """Distinct members in clockwise order from the key's point
        (cached per key until the membership changes; immutable)."""
        order = self._orders.get(key)
        if order is None:
            order = self._orders[key] = self._walk(key)
        return order

    def successors(self, key: str) -> list[str]:
        """Distinct members in clockwise order from the key's point."""
        return list(self.order(key))

    def _walk(self, key: str) -> tuple[str, ...]:
        if not self._points:
            return ()
        start = bisect.bisect(self._points, hash_point(key)) % len(self._points)
        seen: list[str] = []
        seen_set = set()
        n = len(self._points)
        for off in range(n):
            m = self._members[(start + off) % n]
            if m not in seen_set:
                seen.append(m)
                seen_set.add(m)
        return tuple(seen)


class CHBLPolicy(PushDispatch):
    """CH-BL: consistent hashing + bounded-load forwarding.

    ``load_fn(member)`` returns the member's current load;
    ``bound_factor`` is the paper's *c* (load bound = ceil(c * mean load),
    with a minimum headroom of 1 so an idle cluster still places work).
    Membership lives on the hash ring.

    Loads are read through a :class:`~repro.loadbalancer.policies.StatusBoard`:
    given a board's bound ``load`` method, the policy uses that board (so
    a snapshot board computes the bound once per status epoch); any other
    callable is wrapped in a live board.
    """

    name = "ch_bl"
    reads_load = True
    options = ("load_fn", "bound_factor")

    def __init__(
        self,
        load_fn: Callable[[str], float],
        bound_factor: float = 1.2,
        vnodes: int = 64,
    ):
        # Deferred: policies.py imports this module for its re-export.
        from .policies import StatusBoard

        if not 1.0 <= bound_factor < math.inf:
            raise ValueError(
                f"bound_factor must be finite and >= 1.0, got {bound_factor!r}"
            )
        self.ring = ConsistentHashRing(vnodes=vnodes)
        board = getattr(load_fn, "__self__", None)
        if not isinstance(board, StatusBoard):
            # A live board (no interval) never reads its clock.
            board = StatusBoard(clock=lambda: 0.0, live_load_fn=load_fn)
        self.board = board
        self.bound_factor = bound_factor
        self.forwards = 0

    def add_worker(self, name: str) -> None:
        self.ring.add(name)

    def remove_worker(self, name: str) -> None:
        # Uniform error contract across every policy (the ring's own
        # message talks about "members", which leaks the implementation).
        if name not in self.ring.sorted_members():
            raise ValueError(f"worker {name!r} not registered")
        self.ring.remove(name)

    def bound(self) -> float:
        members = self.ring.sorted_members()
        if not members:
            raise RuntimeError("no workers registered")
        mean_load = self.board.mean_load(members)
        return max(math.ceil(self.bound_factor * mean_load), 1.0)

    def pick(self, fqdn: str) -> str:
        """Worker for this invocation: home node unless over the bound."""
        order = self.ring.order(fqdn)
        if not order:
            raise RuntimeError("no workers registered")
        limit = self.bound()
        load = self.board.load
        for i, member in enumerate(order):
            if load(member) <= limit:
                self.forwards += i and 1
                return member
        # Everyone over the bound: fall back to the least-loaded worker.
        self.forwards += 1
        return min(order, key=load)
