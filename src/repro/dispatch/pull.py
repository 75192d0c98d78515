"""Pull dispatch: idle workers claim from a shared logical queue.

The queue is *logical* — it lives at the dispatch layer, not on any
worker.  Workers run claim loops (see :mod:`repro.dispatch.engine`):
whenever a worker has free capacity it asks ``claim(name)``; if the
queue is empty it parks on ``wait(name)`` and is woken by the next
``offer``.  Wakeups are FIFO over parked workers and the DES kernel is
single-threaded, so claim resolution is deterministic: ties at equal
simulated time resolve in event-insertion order.

A woken worker re-checks ``claim`` in a loop — another worker that was
mid-claim can legitimately take the offer that triggered the wakeup, in
which case the loser simply parks again.  That retry discipline (rather
than handing the offer to the waiter directly) is what keeps the queue
work-conserving under simultaneous idle workers.

:class:`LocalityPullDispatch` adds one refinement: a claiming worker
scans the queue for the first offer whose function it already has warm
(via a ``warm_fn`` predicate supplied by the cluster) and only falls
back to the head when nothing matches — strict FIFO is traded for fewer
cold starts, but never for idleness.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..sim.core import Environment, Event
from .base import PULL, DispatchPolicy, Offer

__all__ = ["PullDispatch", "LocalityPullDispatch"]


class PullDispatch(DispatchPolicy):
    """Shared FIFO queue that idle workers claim from."""

    kind = PULL
    options = ("env",)

    def __init__(self, env: Environment, name: str = "pull"):
        self.env = env
        self.name = name
        self._workers: list[str] = []
        self._queue: deque[Offer] = deque()
        # worker name -> parked Event; dict preserves insertion order, so
        # wakeups are FIFO over parking order.
        self._waiters: dict[str, Event] = {}
        self.offered = 0
        self.claimed = 0

    # -- membership ------------------------------------------------------
    def add_worker(self, name: str) -> None:
        if name not in self._workers:
            self._workers.append(name)

    def remove_worker(self, name: str) -> None:
        if name not in self._workers:
            raise ValueError(f"worker {name!r} not registered")
        self._workers.remove(name)
        # A parked claim loop for a removed worker must never wake again.
        self._waiters.pop(name, None)

    # -- queue -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    def offer(self, offer: Offer) -> Optional[str]:
        self._queue.append(offer)
        self.offered += 1
        if self._waiters:
            name = next(iter(self._waiters))
            self._waiters.pop(name).succeed()
        return None

    def claim(self, worker: str) -> Optional[Offer]:
        if worker not in self._workers or not self._queue:
            return None
        offer = self._select(worker)
        if offer is not None:
            self.claimed += 1
        return offer

    def _select(self, worker: str) -> Optional[Offer]:
        return self._queue.popleft()

    def wait(self, worker: str) -> Event:
        """Park ``worker`` until the next offer; returns the wake event."""
        if worker in self._waiters:
            raise RuntimeError(f"worker {worker!r} is already parked")
        event = Event(self.env)
        self._waiters[worker] = event
        return event

    def on_complete(self, worker: str, offer: Optional[Offer]) -> None:
        return None


class LocalityPullDispatch(PullDispatch):
    """Pull queue that prefers offers the claiming worker has warm.

    ``warm_fn(worker_name, fqdn)`` is supplied by the cluster (it closes
    over the container pools); the policy itself stays ignorant of the
    worker layer.
    """

    options = ("env", "warm_fn")

    def __init__(self, env: Environment,
                 warm_fn: Callable[[str, str], bool],
                 name: str = "pull_local"):
        super().__init__(env, name=name)
        self.warm_fn = warm_fn
        self.locality_hits = 0

    def _select(self, worker: str) -> Optional[Offer]:
        queue = self._queue
        warm = self.warm_fn
        for index, offer in enumerate(queue):
            if warm(worker, offer.fqdn):
                if index:
                    del queue[index]
                    self.locality_hits += 1
                    return offer
                self.locality_hits += 1
                return queue.popleft()
        # Nothing warm: stay work-conserving and take the head.
        return queue.popleft()
