"""Mergeable quantile sketches, windowed over sim time.

The health engine answers "what is this function's p99 *right now*"
continuously, per function, per window — a question the end-of-run
histograms cannot answer, and one the sharded engine must answer without
ever concentrating raw samples in one process.
:class:`WindowedSketch` keys :class:`~repro.metrics.sketch.DDSketch`
sketches by fixed sim-time window (``index = floor(t / window)``), stored
sparsely so an idle function costs nothing.  Each window's sketch merges
by integer addition, so merging per-shard banks (in any order) rebuilds
the serial bank bit for bit.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..metrics.sketch import DDSketch

__all__ = ["WindowedSketch", "window_index"]


def window_index(t: float, window: float) -> int:
    """The window a sim-time instant falls in (fixed grid from t=0)."""
    return int(t // window)


class WindowedSketch:
    """Sparse per-window :class:`DDSketch` bank over one metric stream."""

    __slots__ = ("window", "relative_accuracy", "min_value", "sketches")

    def __init__(self, window: float, relative_accuracy: float = 0.01,
                 min_value: float = 1e-9):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self.relative_accuracy = float(relative_accuracy)
        self.min_value = float(min_value)
        self.sketches: dict[int, DDSketch] = {}

    def observe(self, t: float, value: float) -> None:
        idx = window_index(t, self.window)
        sketch = self.sketches.get(idx)
        if sketch is None:
            sketch = self.sketches[idx] = DDSketch(
                self.relative_accuracy, self.min_value
            )
        sketch.observe(value)

    def merge(self, other: "WindowedSketch") -> None:
        if other.window != self.window:
            raise ValueError(
                f"cannot merge windowed sketches over different windows: "
                f"{self.window} vs {other.window}"
            )
        for idx, sketch in other.sketches.items():
            mine = self.sketches.get(idx)
            if mine is None:
                mine = self.sketches[idx] = DDSketch(
                    self.relative_accuracy, self.min_value
                )
            mine.merge(sketch)

    def window_indices(self) -> list[int]:
        return sorted(self.sketches)

    def sketch(self, idx: int) -> Optional[DDSketch]:
        return self.sketches.get(idx)

    def merged(self) -> DDSketch:
        """One sketch over every window (the whole-run distribution)."""
        out = DDSketch(self.relative_accuracy, self.min_value)
        for idx in sorted(self.sketches):
            out.merge(self.sketches[idx])
        return out

    @property
    def count(self) -> int:
        return sum(s.count for s in self.sketches.values())

    def items(self) -> Iterator[tuple[int, DDSketch]]:
        for idx in sorted(self.sketches):
            yield idx, self.sketches[idx]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WindowedSketch):
            return NotImplemented
        return (
            self.window == other.window
            and self.relative_accuracy == other.relative_accuracy
            and self.min_value == other.min_value
            and self.sketches == other.sketches
        )

    __hash__ = None  # mutable

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
