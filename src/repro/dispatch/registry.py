"""Name -> dispatch policy: the one registry of placement policies.

``make_dispatch`` is the only factory, and :func:`_policies` is the only
table of policy names.  Everything else the system asks about a name is
read off the class it maps to: ``kind`` (push or pull; only push runs
can be sharded), ``reads_load`` (whether placement reads worker loads)
and ``options`` (the factory keywords its constructor takes).

The push balancers live in :mod:`repro.loadbalancer`, which subclasses
this package's :class:`~repro.dispatch.push.PushDispatch`; importing
them here at module level would be an import cycle, so the table is
built on first use.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Optional

from ..sim.core import Environment
from .base import PULL, DispatchPolicy
from .pull import LocalityPullDispatch, PullDispatch

__all__ = [
    "dispatch_policy_names",
    "is_pull_policy",
    "make_dispatch",
    "policy_class",
]


@cache
def _policies() -> dict[str, type[DispatchPolicy]]:
    from ..loadbalancer.policies import (  # deferred: cycle
        CHBLPolicy,
        LeastLoadedBalancer,
        RoundRobinBalancer,
    )

    return {
        "ch_bl": CHBLPolicy,
        "chbl": CHBLPolicy,
        "least_loaded": LeastLoadedBalancer,
        "round_robin": RoundRobinBalancer,
        "pull": PullDispatch,
        "pull_local": LocalityPullDispatch,
    }


def dispatch_policy_names() -> tuple[str, ...]:
    """Every name ``make_dispatch`` accepts, sorted (for tables/tests)."""
    return tuple(sorted(_policies()))


def policy_class(name: str) -> type[DispatchPolicy]:
    """The policy class a name means (names are case-insensitive)."""
    cls = _policies().get(str(name).lower())
    if cls is None:
        raise ValueError(
            f"unknown dispatch policy {name!r}; "
            f"choose from {list(dispatch_policy_names())}"
        )
    return cls


def is_pull_policy(name: str) -> bool:
    return policy_class(name).kind == PULL


def make_dispatch(name: str, *,
                  env: Optional[Environment] = None,
                  load_fn: Optional[Callable[[str], float]] = None,
                  bound_factor: float = 1.2,
                  warm_fn: Optional[Callable[[str, str], bool]] = None,
                  ) -> DispatchPolicy:
    """Build a dispatch policy by name.

    Each policy takes the keywords its class lists in ``options``:
    load-reading push policies need ``load_fn`` (CH-BL also takes
    ``bound_factor``), pull policies need ``env`` (the queue parks
    workers on kernel events) and ``pull_local`` additionally needs
    ``warm_fn``.  A missing one raises ``ValueError`` naming it.
    """
    cls = policy_class(name)
    given = {"env": env, "load_fn": load_fn, "bound_factor": bound_factor,
             "warm_fn": warm_fn}
    for option in cls.options:
        if given[option] is None:
            raise ValueError(f"policy {name!r} requires {option}=")
    return cls(**{option: given[option] for option in cls.options})
