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
    """A ring of (point, member) pairs with virtual nodes."""

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._members: list[str] = []

    def add(self, member: str) -> None:
        if member in set(self._members):
            raise ValueError(f"member {member!r} already on the ring")
        for v in range(self.vnodes):
            point = hash_point(f"{member}#{v}")
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._members.insert(idx, member)

    def remove(self, member: str) -> None:
        if member not in set(self._members):
            raise ValueError(f"member {member!r} not on the ring")
        keep = [(p, m) for p, m in zip(self._points, self._members) if m != member]
        self._points = [p for p, _ in keep]
        self._members = [m for _, m in keep]

    def members(self) -> list[str]:
        return sorted(set(self._members))

    def __len__(self) -> int:
        return len(set(self._members))

    def successors(self, key: str) -> list[str]:
        """Distinct members in clockwise order from the key's point."""
        if not self._points:
            return []
        start = bisect.bisect(self._points, hash_point(key)) % len(self._points)
        seen: list[str] = []
        seen_set = set()
        n = len(self._points)
        for off in range(n):
            m = self._members[(start + off) % n]
            if m not in seen_set:
                seen.append(m)
                seen_set.add(m)
        return seen


class CHBLPolicy(PushDispatch):
    """CH-BL: consistent hashing + bounded-load forwarding.

    ``load_fn(member)`` returns the member's current load;
    ``bound_factor`` is the paper's *c* (load bound = ceil(c * mean load),
    with a minimum headroom of 1 so an idle cluster still places work).
    Membership lives on the hash ring.
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
        if not 1.0 <= bound_factor < math.inf:
            raise ValueError(
                f"bound_factor must be finite and >= 1.0, got {bound_factor!r}"
            )
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.load_fn = load_fn
        self.bound_factor = bound_factor
        self.forwards = 0

    def add_worker(self, name: str) -> None:
        self.ring.add(name)

    def remove_worker(self, name: str) -> None:
        # Uniform error contract across every policy (the ring's own
        # message talks about "members", which leaks the implementation).
        if name not in self.ring.members():
            raise ValueError(f"worker {name!r} not registered")
        self.ring.remove(name)

    def bound(self) -> float:
        members = self.ring.members()
        if not members:
            raise RuntimeError("no workers registered")
        mean_load = sum(self.load_fn(m) for m in members) / len(members)
        return max(math.ceil(self.bound_factor * mean_load), 1.0)

    def pick(self, fqdn: str) -> str:
        """Worker for this invocation: home node unless over the bound."""
        order = self.ring.successors(fqdn)
        if not order:
            raise RuntimeError("no workers registered")
        limit = self.bound()
        for i, member in enumerate(order):
            if self.load_fn(member) <= limit:
                self.forwards += i and 1
                return member
        # Everyone over the bound: fall back to the least-loaded worker.
        self.forwards += 1
        return min(order, key=self.load_fn)
