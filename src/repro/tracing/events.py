"""Causal trace events: the one record type the tracing pipeline speaks.

A trace is the set of events sharing an invocation's ``trace_id`` (the
invocation id itself — already globally unique and already stamped on
records, spans, and breakdown tags, so traces join against every other
telemetry artifact for free).  Within a trace, ``seq`` orders events in
causal-emission order and ``parent`` names the event the span causally
hangs under:

* ``lb`` events (``lb_pick`` → ``lb_rpc``) root the trace at the load
  balancer (seq 0 and 1, reserved even when a run has no LB);
* ``stage`` events mirror the lifecycle pipeline's stage walk (admit →
  enqueue → dispatch → acquire → warm/cold_create → execute → terminal),
  each parented on its predecessor so the stage chain *is* the causal
  spine;
* ``component`` events are the fine-grained intervals telemetry already
  decomposes (``exec``, ``cold_create``, ``add_item_to_q``, …), parented
  on their owning stage via :data:`COMPONENT_STAGE`.

Events are frozen and totally ordered by ``(trace_id, seq)`` — the merge
key the cluster-shard seam streams them under, exactly like records and
spans.  The JSONL form omits ``None`` fields, so serial and sharded runs
serialize identically except for the shard attribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from ..core.lifecycle import (
    ACQUIRE,
    ADMIT,
    COLD_CREATE,
    COMPLETE,
    DISPATCH,
    ENQUEUE,
    EXECUTE,
    WARM,
)
from ..metrics.jsonl import read_jsonl

__all__ = [
    "TraceEvent",
    "TRACE_KEY",
    "COMPONENT_STAGE",
    "dump_trace_jsonl",
    "load_trace_jsonl",
]

# Canonical stream/merge order, matching the seam's other telemetry keys.
TRACE_KEY = lambda e: (e.trace_id, e.seq)  # noqa: E731

# Which lifecycle stage owns each component interval (the parent link for
# ``component`` events).  Mirrors the recording sites in core/lifecycle.py.
COMPONENT_STAGE: dict[str, str] = {
    "invoke": ADMIT,
    "sync_invoke": ADMIT,
    "enqueue_invocation": ENQUEUE,
    "add_item_to_q": ENQUEUE,
    "dequeue": DISPATCH,
    "spawn_worker": DISPATCH,
    "acquire_container": ACQUIRE,
    "try_lock_container": WARM,
    "cold_create": COLD_CREATE,
    "prepare_invoke": EXECUTE,
    "http_client_create": EXECUTE,
    "exec": EXECUTE,
    "call_container": EXECUTE,
    "download_result": EXECUTE,
    "return_container": COMPLETE,
    "return_results": COMPLETE,
}


@dataclass(frozen=True)
class TraceEvent:
    """One span of an invocation's causal trace tree."""

    trace_id: int
    seq: int
    name: str
    kind: str                      # "lb" | "stage" | "component"
    start: float
    end: float
    parent: Optional[str] = None   # name of the causally preceding span
    worker: Optional[str] = None   # owning worker (None at the LB)
    shard: Optional[int] = None    # owning shard index (None when serial)

    @property
    def duration(self) -> float:
        return self.end - self.start


def dump_trace_jsonl(events: Iterable[TraceEvent],
                     path: Union[str, Path]) -> int:
    """Write trace events as JSON lines in stream order, omitting ``None``
    fields (serial and sharded runs produce the same bytes for the same
    events, shard attribution aside).  ``events`` may be a lazy stream.
    Returns the number of events written."""
    dumps = json.dumps
    count = 0
    with open(path, "w") as fh:
        for e in events:
            row = {
                "trace_id": e.trace_id,
                "seq": e.seq,
                "name": e.name,
                "kind": e.kind,
                "start": e.start,
                "end": e.end,
            }
            if e.parent is not None:
                row["parent"] = e.parent
            if e.worker is not None:
                row["worker"] = e.worker
            if e.shard is not None:
                row["shard"] = e.shard
            fh.write(dumps(row))
            fh.write("\n")
            count += 1
    return count


def load_trace_jsonl(path: Union[str, Path]) -> list[TraceEvent]:
    """Read events written by :func:`dump_trace_jsonl`."""
    events: list[TraceEvent] = []
    for data in read_jsonl(path):
        events.append(TraceEvent(
            trace_id=data["trace_id"],
            seq=data["seq"],
            name=data["name"],
            kind=data["kind"],
            start=data["start"],
            end=data["end"],
            parent=data.get("parent"),
            worker=data.get("worker"),
            shard=data.get("shard"),
        ))
    return events
