"""Pluggable dispatch layer: how invocations find workers (push or pull).

See :mod:`repro.dispatch.base` for the contract,
:mod:`repro.dispatch.push` for the base class of the push balancers,
:mod:`repro.dispatch.pull` for the shared-queue policies,
:mod:`repro.dispatch.engine` for the claim loops that drive them, and
:mod:`repro.dispatch.registry` for the one name -> policy table.
"""

from .base import PULL, PUSH, DispatchPolicy, Offer
from .engine import PullEngine
from .pull import LocalityPullDispatch, PullDispatch
from .push import PushDispatch
from .registry import (
    dispatch_policy_names,
    is_pull_policy,
    make_dispatch,
    policy_class,
)

__all__ = [
    "PULL",
    "PUSH",
    "DispatchPolicy",
    "Offer",
    "PullEngine",
    "PullDispatch",
    "LocalityPullDispatch",
    "PushDispatch",
    "dispatch_policy_names",
    "is_pull_policy",
    "make_dispatch",
    "policy_class",
]
