"""Overhead decomposition (the paper's Table 2, per run).

The source is the invocation-lifecycle pipeline itself: each closed
:class:`~repro.core.lifecycle.InvocationContext` carries the component
intervals of its critical path, and :func:`decompose_contexts` reads the
phase boundaries directly off the contexts a run retained.
:func:`decompose` derives the same breakdowns from tagged spans — the
projection of those contexts that ``spans.jsonl`` holds, which is how
``repro inspect`` reads a run directory back.  Both paths feed the
identical per-invocation arithmetic (:func:`_breakdown`), so their
outputs are bit-for-bit interchangeable.

The control-plane overhead (everything that is not function code) splits
into phases:

* ``queue``       — ingestion components + time waiting in the invocation
                    queue + dispatch components;
* ``acquire``     — warm-container acquisition (lookup + lock);
* ``cold_create`` — the cold-path detour: memory admission + sandbox
                    creation (zero for warm invocations);
* ``exec_comm``   — agent communication around execution (HTTP prepare /
                    call / result download);
* ``post``        — returning the container and the results;
* ``other``       — any spans outside the canonical mapping (forward
                    compatibility; normally zero).

Pull-dispatch runs add one conditional phase, ``claim_wait`` — the time
an offer sat on the shared logical queue before a worker claimed it.
It is deliberately *not* part of :data:`PHASES`: push runs never emit
the span, their breakdowns carry exactly the canonical six keys, and
the golden fixture stays byte-stable.  Aggregations include the extra
phase only when at least one breakdown carries it.

Per invocation, the phase durations plus the queue-wait gap telescope to
exactly the recorded end-to-end time minus the execution window, so the
phase sum equals the invocation's recorded ``overhead`` up to float
rounding — asserted by :func:`match_records` and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..metrics.spans import Span

__all__ = [
    "PHASES",
    "CLAIM_WAIT_PHASE",
    "PHASE_OF_SPAN",
    "EXEC_SPAN",
    "InvocationBreakdown",
    "decompose",
    "decompose_contexts",
    "aggregate_phases",
    "breakdown_rows",
    "match_records",
]

EXEC_SPAN = "exec"

PHASES = ("queue", "acquire", "cold_create", "exec_comm", "post", "other")

# Conditional phase: present only in pull-dispatch runs (see module doc).
CLAIM_WAIT_PHASE = "claim_wait"

PHASE_OF_SPAN: dict[str, str] = {
    "claim_wait": CLAIM_WAIT_PHASE,
    "invoke": "queue",
    "sync_invoke": "queue",
    "enqueue_invocation": "queue",
    "add_item_to_q": "queue",
    "dequeue": "queue",
    "spawn_worker": "queue",
    "acquire_container": "acquire",
    "try_lock_container": "acquire",
    "cold_create": "cold_create",
    "prepare_invoke": "exec_comm",
    "http_client_create": "exec_comm",
    "call_container": "exec_comm",
    "download_result": "exec_comm",
    "return_container": "post",
    "return_results": "post",
}


@dataclass(frozen=True)
class InvocationBreakdown:
    """One invocation's critical path, phase by phase (seconds)."""

    tag: str                       # span tag == str(invocation_id)
    phases: Mapping[str, float]
    exec_time: float
    cold: bool
    start: float                   # first span start (≈ arrival)
    end: float                     # last span end (≈ completion)

    @property
    def overhead(self) -> float:
        """Control-plane time: the sum of all phases."""
        return sum(self.phases.values())

    @property
    def invocation_id(self) -> Optional[int]:
        return int(self.tag) if self.tag.isdigit() else None


def _breakdown(tag: str, intervals: Sequence[tuple]) -> Optional[InvocationBreakdown]:
    """One invocation's breakdown from ``(name, start, end)`` intervals.

    The single arithmetic both decomposition paths share: intervals must
    arrive in recording order (they do — one invocation's components are
    stamped in time order, so the ``(start, end, name)``-sorted span
    projection preserves it), and the queue-wait gap is added after the
    loop, so span-derived and context-derived sums accumulate in the same
    float order and agree bit-for-bit.  ``None`` when the invocation has
    no execution window (dropped / timed out / not an invocation).
    """
    if not any(name == EXEC_SPAN for name, _start, _end in intervals):
        return None
    phases = dict.fromkeys(PHASES, 0.0)
    exec_time = 0.0
    add_item_end: Optional[float] = None
    dequeue_start: Optional[float] = None
    first_start = min(start for _name, start, _end in intervals)
    last_end = max(end for _name, _start, end in intervals)
    cold = False
    for name, start, end in intervals:
        if name == EXEC_SPAN:
            exec_time += end - start
            continue
        if name == "cold_create":
            cold = True
        phase = PHASE_OF_SPAN.get(name, "other")
        bucket = phases.get(phase)
        # Conditional phases (claim_wait) materialize on first use; the
        # canonical six accumulate in place, float-order unchanged.
        phases[phase] = (end - start) if bucket is None else bucket + (end - start)
        if name == "add_item_to_q":
            add_item_end = end
        elif name == "dequeue":
            dequeue_start = start
    if add_item_end is not None and dequeue_start is not None:
        # The only instrumentation gap on the critical path: waiting in
        # the invocation queue between insertion and dispatch.
        phases["queue"] += max(dequeue_start - add_item_end, 0.0)
    return InvocationBreakdown(
        tag=tag,
        phases=phases,
        exec_time=exec_time,
        cold=cold,
        start=first_start,
        end=last_end,
    )


_SORT_KEY = lambda b: (b.invocation_id is None, b.invocation_id, b.tag)  # noqa: E731


def decompose(spans: Iterable[Span]) -> list[InvocationBreakdown]:
    """Reconstruct per-invocation phase breakdowns from tagged spans.

    Only groups containing an execution window (i.e. invocations that ran
    to completion) are decomposable; load-balancer spans (tagged with
    fqdns), dropped and timed-out invocations are skipped.  Results are
    ordered by invocation id.
    """
    groups: dict[str, list[tuple]] = {}
    for s in spans:
        if s.tag is not None:
            groups.setdefault(s.tag, []).append((s.name, s.start, s.end))

    out: list[InvocationBreakdown] = []
    for tag, group in groups.items():
        b = _breakdown(tag, group)
        if b is not None:
            out.append(b)
    out.sort(key=_SORT_KEY)
    return out


def decompose_contexts(contexts: Iterable) -> list[InvocationBreakdown]:
    """Phase breakdowns read directly off lifecycle contexts.

    ``contexts`` are closed
    :class:`~repro.core.lifecycle.InvocationContext` objects; each context
    *is* one invocation, so no tag-join is needed.  Contexts without an
    execution window (dropped / timed out) or without intervals are
    skipped.  Results are ordered by invocation id, and values are
    bit-identical to :func:`decompose` over the same contexts' spans.
    """
    out: list[InvocationBreakdown] = []
    for ctx in contexts:
        intervals = ctx.intervals
        if not intervals:
            continue
        b = _breakdown(str(ctx.inv.id), intervals)
        if b is not None:
            out.append(b)
    out.sort(key=_SORT_KEY)
    return out


def _phase_names(breakdowns: Sequence[InvocationBreakdown]) -> tuple[str, ...]:
    """Canonical phases, plus ``claim_wait`` when any breakdown has it."""
    if any(CLAIM_WAIT_PHASE in b.phases for b in breakdowns):
        return PHASES + (CLAIM_WAIT_PHASE,)
    return PHASES


def aggregate_phases(breakdowns: Sequence[InvocationBreakdown]) -> dict[str, dict]:
    """Per-phase statistics over a run: mean / p99 / total / share of
    overhead (share in [0, 1])."""
    if not breakdowns:
        return {}
    names = _phase_names(breakdowns)
    totals = {
        p: np.array([b.phases.get(p, 0.0) for b in breakdowns]) for p in names
    }
    grand_total = float(sum(arr.sum() for arr in totals.values()))
    out: dict[str, dict] = {}
    for p in names:
        arr = totals[p]
        total = float(arr.sum())
        out[p] = {
            "mean": float(arr.mean()),
            "p99": float(np.percentile(arr, 99.0)),
            "total": total,
            "share": total / grand_total if grand_total > 0 else 0.0,
        }
    return out


def breakdown_rows(
    breakdowns: Sequence[InvocationBreakdown], scale: float = 1000.0
) -> list[dict]:
    """Table-2-style rows (one per phase + a total), times scaled by
    ``scale`` (default seconds → milliseconds)."""
    stats = aggregate_phases(breakdowns)
    rows = [
        {
            "phase": p,
            "mean": stats[p]["mean"] * scale,
            "p99": stats[p]["p99"] * scale,
            "share_pct": stats[p]["share"] * 100.0,
        }
        for p in PHASES + (CLAIM_WAIT_PHASE,)
        if p in stats
    ]
    if rows:
        overheads = np.array([b.overhead for b in breakdowns])
        rows.append(
            {
                "phase": "total_overhead",
                "mean": float(overheads.mean()) * scale,
                "p99": float(np.percentile(overheads, 99.0)) * scale,
                "share_pct": 100.0,
            }
        )
    return rows


def match_records(
    breakdowns: Sequence[InvocationBreakdown],
    records: Iterable,
    tolerance: float = 1e-9,
) -> tuple[int, int]:
    """Cross-check phase sums against recorded per-invocation overheads.

    ``records`` supplies objects (or dicts) with ``invocation_id`` and
    ``overhead``.  Returns ``(matched, compared)`` — a breakdown counts as
    matched when its phase sum equals the record's overhead within
    ``tolerance`` (absolute, plus 1e-9 relative slack for long runs).
    """
    by_id: dict[int, float] = {}
    for r in records:
        if isinstance(r, Mapping):
            rid, overhead = r.get("invocation_id"), r.get("overhead")
        else:
            rid, overhead = getattr(r, "invocation_id", None), getattr(r, "overhead", None)
        if rid:
            by_id[int(rid)] = float(overhead)
    matched = compared = 0
    for b in breakdowns:
        rid = b.invocation_id
        if rid is None or rid not in by_id:
            continue
        compared += 1
        expected = by_id[rid]
        if abs(b.overhead - expected) <= tolerance + 1e-9 * abs(expected):
            matched += 1
    return matched, compared
