"""The dispatch-policy contract: how an invocation finds a worker.

Push balancers decide at the LB: ``pick()`` is called synchronously and
the chosen worker is *pushed* the invocation.  Pull-based schedulers
(Hiku and friends) invert that flow — idle workers *claim* work from a
shared logical queue — and the two shapes cannot share the pick()
interface.

This package is the seam both shapes plug into.  A
:class:`DispatchPolicy` answers three questions:

* ``offer(offer)``    — the front door: an invocation has arrived, make it
  available for placement.  Push policies place it immediately and return
  the chosen worker name; pull policies enqueue it and return ``None``.
* ``claim(worker)``   — a worker with free capacity asks for work.  Pull
  policies hand back the next :class:`Offer` (or ``None`` when the queue
  has nothing for that worker); push policies always return ``None`` —
  their workers are assigned work, they never ask.
* ``on_complete(worker, offer)`` — the invocation finished (completed,
  dropped, or timed out); policies use it to update load accounting.

Workers are identified by name throughout; the cluster owns the actual
:class:`~repro.core.worker.Worker` objects.  Policies are pure control
logic over those names — they never import the worker/cluster layers,
which is what lets the layering guard keep this package at the
load-balancer tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["DispatchPolicy", "Offer", "PUSH", "PULL"]

PUSH = "push"
PULL = "pull"


@dataclass(slots=True)
class Offer:
    """One invocation offered to the dispatch layer.

    ``done`` is the cluster-level completion event handed back to the
    submitter; the engine driving the policy succeeds it with the final
    :class:`~repro.core.function.Invocation`.  ``claimed_at``/``claimed_by``
    are stamped by the engine when a worker receives the offer (after any
    claim latency), so claim-wait is always ``claimed_at - offered_at``.
    """

    fqdn: str
    args: Any
    offered_at: float
    done: Any
    claimed_at: Optional[float] = None
    claimed_by: Optional[str] = None
    meta: dict = field(default_factory=dict)


class DispatchPolicy:
    """Uniform contract for push and pull dispatch policies.

    ``kind`` is ``"push"`` or ``"pull"``; engines branch on it once at
    construction, never per invocation.  ``reads_load`` says whether
    placement reads worker loads (the shard seam synchronizes loads only
    for those policies); ``options`` names the
    :func:`~repro.dispatch.registry.make_dispatch` keywords the
    constructor takes.
    """

    name = "dispatch"
    kind = PUSH
    reads_load = False
    options: tuple[str, ...] = ()

    def info(self) -> dict:
        """The ``dispatch`` entry of a run's ``summary.json``."""
        return {"policy": self.name, "kind": self.kind}

    def add_worker(self, name: str) -> None:
        raise NotImplementedError

    def remove_worker(self, name: str) -> None:
        raise NotImplementedError

    def offer(self, offer: Offer) -> Optional[str]:
        """Make an invocation available; return a worker name (push) or
        ``None`` (pull: a claim loop will collect it)."""
        raise NotImplementedError

    def claim(self, worker: str) -> Optional[Offer]:
        """Hand the next offer to an idle worker, or ``None`` if there is
        nothing (for that worker) to claim."""
        raise NotImplementedError

    def on_complete(self, worker: str, offer: Optional[Offer]) -> None:
        """Invocation finished (any outcome) — release policy accounting."""
