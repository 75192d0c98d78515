"""Push dispatch: the classic pick-then-forward shape.

A push policy places an invocation the moment it arrives: ``pick(fqdn)``
names the worker and the cluster forwards the invocation there.  The
load balancers (round-robin, least-loaded, CH-BL in
:mod:`repro.loadbalancer`) subclass :class:`PushDispatch` directly and
implement ``pick``; everything else the dispatch contract asks of a push
policy lives here once.
"""

from __future__ import annotations

from typing import Optional

from .base import PUSH, DispatchPolicy, Offer

__all__ = ["PushDispatch"]


class PushDispatch(DispatchPolicy):
    """Base class of the push balancers.

    Membership is a list in registration order (CH-BL overrides it with
    its hash ring).  ``offer`` is the pick plus the claim stamps, push
    workers never claim, and ``forwards`` counts placements that left a
    function's home worker — 0 for policies without a home worker.
    """

    kind = PUSH
    forwards = 0

    def __init__(self):
        self._workers: list[str] = []

    def add_worker(self, name: str) -> None:
        if name in self._workers:
            raise ValueError(f"worker {name!r} already registered")
        self._workers.append(name)

    def remove_worker(self, name: str) -> None:
        if name not in self._workers:
            raise ValueError(f"worker {name!r} not registered")
        self._workers.remove(name)

    def pick(self, fqdn: str) -> str:
        """The worker this invocation is pushed to."""
        raise NotImplementedError

    def offer(self, offer: Offer) -> Optional[str]:
        # Push places at offer time: the decision *is* the pick.
        target = self.pick(offer.fqdn)
        offer.claimed_at = offer.offered_at
        offer.claimed_by = target
        return target

    def claim(self, worker: str) -> Optional[Offer]:
        # Push workers are assigned work; they never ask for it.
        return None

    def on_complete(self, worker: str, offer: Optional[Offer]) -> None:
        return None
