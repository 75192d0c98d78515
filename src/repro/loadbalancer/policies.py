"""Load-balancing policies beyond CH-BL, and the worker-status board.

The paper argues for locality-aware CH-BL over locality-blind schemes;
to make that comparison runnable this module provides the classic
baselines (round-robin, least-loaded) as push dispatch policies next to
:class:`~repro.loadbalancer.chbl.CHBLPolicy`, plus a
:class:`StatusBoard` that models the *staleness* of load information —
workers push status snapshots periodically, and the balancer decides on
the last snapshot rather than live state (the reality the paper's
queue-length-based load signal is meant to improve on).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

from ..dispatch.push import PushDispatch
from .chbl import CHBLPolicy

__all__ = [
    "RoundRobinBalancer",
    "LeastLoadedBalancer",
    "CHBLPolicy",
    "StatusBoard",
    "check_status_interval",
    "snap_to_grid",
]


def snap_to_grid(t: float, interval: float) -> float:
    """Largest multiple of ``interval`` that is ``<= t`` (the snapshot
    epoch a status report at time ``t`` belongs to).

    This is THE epoch-floor rule: :meth:`StatusBoard.load` and the
    cluster-shard seam's ``sync_indices`` both call it, so the sharded
    coordinator can never disagree with a single-process balancer about
    which arrival rolls the board into a new interval epoch.

    ``math.floor(t / interval) * interval`` overflows for large
    ``t / interval`` (the quotient saturates to ``inf``, or the floored
    integer exceeds the float range); the fallback computes the same grid
    point through ``fmod``, which cannot overflow.
    """
    t = float(t)            # numpy scalars warn (not raise) on overflow
    interval = float(interval)
    try:
        return math.floor(t / interval) * interval
    except OverflowError:
        return t - math.fmod(t, interval)


class RoundRobinBalancer(PushDispatch):
    """Locality-blind rotation — the classic strawman."""

    name = "round_robin"

    def __init__(self):
        super().__init__()
        self._cursor = itertools.count()

    def pick(self, fqdn: str) -> str:
        if not self._workers:
            raise RuntimeError("no workers registered")
        return self._workers[next(self._cursor) % len(self._workers)]


class LeastLoadedBalancer(PushDispatch):
    """Send every invocation to the currently least-loaded worker."""

    name = "least_loaded"
    reads_load = True
    options = ("load_fn",)

    def __init__(self, load_fn: Callable[[str], float]):
        super().__init__()
        self.load_fn = load_fn

    def pick(self, fqdn: str) -> str:
        if not self._workers:
            raise RuntimeError("no workers registered")
        return min(self._workers, key=self.load_fn)


def check_status_interval(interval: Optional[float]) -> None:
    """Refuse a status interval that is not positive (NaN included).

    ``None`` (live loads) and ``inf`` (one snapshot, never refreshed) are
    accepted.  :class:`StatusBoard` and the cluster-shard seam's
    ``sync_indices`` both call it, so serial and sharded runs refuse the
    same values with the same message.
    """
    if interval is not None and not interval > 0:
        raise ValueError(
            f"status_interval must be positive (or None for live loads), "
            f"got {interval!r}"
        )


class StatusBoard:
    """Periodic worker-status snapshots (models load-signal staleness).

    ``interval=None`` reads live state on every query (the idealized
    default the Cluster used before); a positive interval re-snapshots at
    most that often, so balancer decisions act on data up to ``interval``
    seconds old.  Snapshot epochs are aligned to the interval grid
    (``snapped_at`` is always a multiple of ``interval``), matching
    workers that push status reports on a fixed period rather than
    whenever somebody happens to ask.

    ``publish``, when set, is called as ``publish(worker, time, load)``
    every time a worker's status is (re)read into the snapshot — the hook
    the telemetry sampler uses to record the exact load signal the
    balancer acted on.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        live_load_fn: Callable[[str], float],
        interval: Optional[float] = None,
        publish: Optional[Callable[[str, float, float], None]] = None,
    ):
        check_status_interval(interval)
        self._clock = clock
        self._live = live_load_fn
        self.interval = interval
        self.publish = publish
        self._snapshot: dict[str, float] = {}
        self._snapped_at: Optional[float] = None
        self.refreshes = 0
        # mean_load's cache: the member sequence it was computed over in
        # the current epoch (None = nothing cached), and the value.
        self._mean_of: Optional[Sequence[str]] = None
        self._mean = 0.0

    @property
    def snapped_at(self) -> Optional[float]:
        """Grid epoch of the current snapshot (None before the first)."""
        return self._snapped_at

    def _roll(self, now: float) -> None:
        # A fresh round of status reports arrived; the epoch is the grid
        # slot the reports belong to, not the query time.
        self._snapshot = {}
        self._snapped_at = snap_to_grid(now, self.interval)
        self.refreshes += 1
        self._mean_of = None

    def mean_load(self, members: Sequence[str]) -> float:
        """Mean load over ``members`` (non-empty), as :meth:`load` reads it.

        A snapshot board's loads are fixed within an epoch, so the mean is
        too: the first call in an epoch reads every member through
        :meth:`load` in the given order (``publish`` sees exactly those
        reads) and later calls with the same ``members`` object return the
        cached value.  Pass an immutable sequence — a new object (such as
        the hash ring's member tuple after a membership change) is a cache
        miss.  A live board (``interval=None``) sums live loads on every
        call.
        """
        if self.interval is None:
            self._mean_of = None
        else:
            now = self._clock()
            if self._snapped_at is None or now - self._snapped_at >= self.interval:
                self._roll(now)
        if members is not self._mean_of:
            self._mean = sum(map(self.load, members)) / len(members)
            self._mean_of = members
        return self._mean

    def load(self, worker: str) -> float:
        if self.interval is None:
            return self._live(worker)
        now = self._clock()
        if self._snapped_at is None or now - self._snapped_at >= self.interval:
            self._roll(now)
        value = self._snapshot.get(worker)
        if value is None:
            value = self._snapshot[worker] = self._live(worker)
            if self.publish is not None:
                self.publish(worker, now, value)
        return value
