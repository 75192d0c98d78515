"""Component spans, modelled on Ilúvatar's use of the Rust ``tracing``
crate (Section 5.1).

A span is one named interval of a worker component (``invoke``,
``acquire_container``, ``call_container``, ...) or of the load balancer
(``lb_pick``, ``lb_rpc``).  The worker does not record spans itself: each
invocation's lifecycle context keeps its component intervals, and spans
are a projection of those closed contexts (plus the balancer's own
``lb_*`` list).  Table 2 of the paper — the per-component latency
breakdown of a single warm invocation — is :func:`breakdown_table` over
such a projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from .jsonl import read_jsonl

__all__ = [
    "Span",
    "SPAN_GROUPS",
    "breakdown_table",
    "load_spans_jsonl",
    "dump_spans_jsonl",
]

# Paper Table 2 grouping of worker components.
SPAN_GROUPS: dict[str, str] = {
    "invoke": "Ingestion & Queuing",
    "sync_invoke": "Ingestion & Queuing",
    "enqueue_invocation": "Ingestion & Queuing",
    "add_item_to_q": "Ingestion & Queuing",
    "spawn_worker": "Container Operations",
    "dequeue": "Container Operations",
    "acquire_container": "Container Operations",
    "try_lock_container": "Container Operations",
    "cold_create": "Container Operations",
    "prepare_invoke": "Agent Communication",
    "call_container": "Agent Communication",
    "download_result": "Agent Communication",
    "return_container": "Returning",
    "return_results": "Returning",
}

# Windows that are context, not control-plane components: the function's
# execution and the pull-queue wait.  The decomposition uses them; Table 2
# leaves them out.
_NOT_COMPONENTS = frozenset(("exec", "claim_wait"))


@dataclass
class Span:
    """One completed span: a named interval with optional invocation tag.

    ``shard`` is the owning shard index on sharded runs (stamped by the
    shard process when tracing is enabled, so merged run directories can
    be sliced per shard); ``None`` — and absent from the JSONL form — on
    single-process runs, keeping serial and sharded exports byte-equal.
    """

    name: str
    start: float
    end: float
    tag: Optional[str] = None
    shard: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def breakdown_table(spans: Iterable[Span], scale: float = 1.0) -> list[dict]:
    """Rows in the shape of paper Table 2: group, name, mean time.

    Canonical components come first in :data:`SPAN_GROUPS` order, then
    any other component under "Other", alphabetically; the ``exec`` and
    ``claim_wait`` windows are skipped.  ``scale`` converts the clock unit
    into the reporting unit (e.g. 1000.0 for seconds → milliseconds).
    """
    durations: dict[str, list[float]] = {}
    for s in spans:
        if s.name not in _NOT_COMPONENTS:
            durations.setdefault(s.name, []).append(s.end - s.start)
    names = [n for n in SPAN_GROUPS if n in durations]
    names += sorted(set(durations) - set(SPAN_GROUPS))
    return [
        {
            "group": SPAN_GROUPS.get(name, "Other"),
            "function": name,
            "time": sum(durations[name]) / len(durations[name]) * scale,
        }
        for name in names
    ]


def dump_spans_jsonl(spans: Iterable[Span], path: Union[str, Path]) -> int:
    """Write spans as JSON lines, one span per line.  ``spans`` may be any
    iterable — a lazy stream is written through without being
    materialized.  Returns the number of spans written."""
    dumps = json.dumps
    count = 0
    with open(path, "w") as fh:
        for s in spans:
            row = {"name": s.name, "start": s.start, "end": s.end,
                   "tag": s.tag}
            if s.shard is not None:
                row["shard"] = s.shard
            fh.write(dumps(row))
            fh.write("\n")
            count += 1
    return count


def load_spans_jsonl(path: Union[str, Path]) -> list[Span]:
    """Read spans written by :func:`dump_spans_jsonl`."""
    return [
        Span(name=data["name"], start=data["start"], end=data["end"],
             tag=data.get("tag"), shard=data.get("shard"))
        for data in read_jsonl(path)
    ]
