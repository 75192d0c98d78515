"""Reading the JSON and JSON-lines files of a run directory.

Every reader of a run directory goes through these two helpers, so a
truncated or hand-edited file fails with a ``ValueError`` that names the
file (and, for JSON lines, the 1-based line) instead of a bare decoder
error pointing at "line 1" of a line parsed on its own.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Union

__all__ = ["read_json", "read_jsonl"]


def read_jsonl(path: Union[str, Path]) -> Iterator:
    """Yield the values of a JSON-lines file, skipping blank lines.

    Lazy, so a caller building its own objects (spans, trace events) never
    holds the whole file's parsed dicts at once.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc.msg}") from exc
            yield row


def read_json(path: Union[str, Path]) -> Any:
    """Parse a whole-file JSON document."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
