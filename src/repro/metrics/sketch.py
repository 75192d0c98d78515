"""Mergeable relative-error quantile sketch.

Ilúvatar's worker is self-monitoring: it keeps its own latency
distributions and answers p50/p90/p99 from small state instead of
shipping raw samples to an external system (Section 5.1).
:class:`DDSketch` is the one structure that does this here, for the
registry's end-of-run histograms and for the health engine's windowed
sketches alike: a DDSketch-style sketch with geometric buckets of
relative width ``gamma = (1+a)/(1-a)``, so any quantile estimate is
within relative error ``a`` of the exact nearest-rank sample it stands
for, at O(1) per observation and a few hundred buckets per sketch.

Merging is the load-bearing property.  A sketch holds only integer
bucket counts, an integer sum and an order-independent min/max, so
merging per-shard sketches (in any order) produces *exactly* the sketch
a single process would have built observing the same samples — bit for
bit, not approximately.  No float accumulates in observation order
anywhere in this module; that is what lets a sharded run's
``summary.json`` and ``health.json`` be byte-identical to the serial
run's.  The sum is exact: each sample is added as an integer count of
``2**-1074`` (the smallest subnormal), and ``mean``/``total`` round the
exact rational once.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

__all__ = ["DDSketch"]

# Samples are summed as integer multiples of 2**-1074: every finite
# float is one, so the sum is exact and merges by integer addition.
_SUM_BITS = 1074
_SUM_UNIT = 1 << _SUM_BITS
_INF = math.inf
_SUMMARY_STATS = ("mean", "min", "max", "p50", "p90", "p99")


class DDSketch:
    """Relative-error quantile sketch over non-negative samples.

    ``relative_accuracy`` (``a``) bounds the quantile error: the value
    returned for any quantile is within ``a * x`` of the exact
    nearest-rank sample ``x`` it represents.  Samples at or below
    ``min_value`` land in a dedicated zero bucket (a log scale cannot
    place them); they are reported as ``0.0``, an absolute error of at
    most ``min_value``.
    """

    __slots__ = (
        "relative_accuracy", "min_value", "gamma", "_log_gamma",
        "counts", "zero_count", "count", "_sum", "_min", "_max",
    )

    def __init__(self, relative_accuracy: float = 0.01,
                 min_value: float = 1e-9):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        if min_value <= 0.0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        self.relative_accuracy = float(relative_accuracy)
        self.min_value = float(min_value)
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self.gamma)
        self.counts: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self._sum = 0  # exact, in units of 2**-1074
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- recording ---------------------------------------------------------
    def key(self, value: float) -> int:
        """Bucket key for a value above ``min_value``: bucket ``k`` covers
        ``(gamma^(k-1), gamma^k]``."""
        return math.ceil(math.log(value) / self._log_gamma)

    def observe(self, value: float) -> None:
        """Record one sample; O(1)."""
        if not 0.0 <= value < _INF:  # also rejects NaN
            raise ValueError(
                f"sketch samples must be finite and non-negative, got {value}"
            )
        if value <= self.min_value:
            self.zero_count += 1
        else:
            k = self.key(value)
            self.counts[k] = self.counts.get(k, 0) + 1
        self.count += 1
        num, den = value.as_integer_ratio()  # den is a power of two
        self._sum += num << (_SUM_BITS + 1 - den.bit_length())
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def merge(self, other: "DDSketch") -> None:
        """Add another sketch's buckets into this one.

        Both sketches must share the exact bucket geometry
        (``relative_accuracy`` and ``min_value``); merging is pure integer
        addition plus min/max, so it is order-independent and reproduces
        the single-stream sketch bit for bit.
        """
        if (other.relative_accuracy != self.relative_accuracy
                or other.min_value != self.min_value):
            raise ValueError(
                "cannot merge sketches with different geometry: "
                f"relative_accuracy {self.relative_accuracy} vs "
                f"{other.relative_accuracy}, min_value {self.min_value} "
                f"vs {other.min_value}"
            )
        for k, c in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + c
        self.zero_count += other.zero_count
        self.count += other.count
        self._sum += other._sum
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max

    # -- queries -----------------------------------------------------------
    def bucket_value(self, key: int) -> float:
        """The representative value of bucket ``key`` (the point whose
        relative distance to every sample in the bucket is ``<= a``)."""
        return 2.0 * self.gamma ** key / (self.gamma + 1.0)

    @property
    def total(self) -> float:
        """The exact sum of every sample, rounded once."""
        return self._sum / _SUM_UNIT

    @property
    def mean(self) -> float:
        """The exact mean, rounded once (NaN while empty)."""
        if not self.count:
            return float("nan")
        return self._sum / (self.count << _SUM_BITS)

    @property
    def minimum(self) -> Optional[float]:
        return self._min

    @property
    def maximum(self) -> Optional[float]:
        return self._max

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (``q`` in [0, 100]).

        Returns the representative value of the bucket holding the
        ``max(1, ceil(q/100 * count))``-th smallest sample, clamped to the
        observed [min, max] — within ``relative_accuracy`` of the exact
        nearest-rank sample (or within ``min_value`` absolutely, for
        samples in the zero bucket).  NaN while empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return float("nan")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        cum = self.zero_count
        if rank <= cum:
            return 0.0
        for k in sorted(self.counts):
            cum += self.counts[k]
            if cum >= rank:
                value = self.bucket_value(k)
                if self._max is not None and value > self._max:
                    value = self._max
                if self._min is not None and value < self._min:
                    value = self._min
                return value
        return float(self._max)  # pragma: no cover - rank <= count

    def percentiles(self) -> dict[str, float]:
        return {
            "p50": self.quantile(50.0),
            "p90": self.quantile(90.0),
            "p99": self.quantile(99.0),
        }

    def summary(self) -> dict:
        """Flat dict for JSON summaries.  An empty sketch reports every
        statistic as ``None``: NaN is not valid strict JSON."""
        if not self.count:
            return {"count": 0, **dict.fromkeys(_SUMMARY_STATS)}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            **self.percentiles(),
        }

    def cumulative(self) -> Iterator[tuple[float, int]]:
        """(upper_bound, cumulative_count) per non-empty bucket, ascending,
        closing with ``(inf, count)`` — Prometheus ``le`` buckets."""
        cum = self.zero_count
        if cum:
            yield self.min_value, cum
        for k in sorted(self.counts):
            cum += self.counts[k]
            yield self.gamma ** k, cum
        yield math.inf, self.count

    def __eq__(self, other) -> bool:
        if not isinstance(other, DDSketch):
            return NotImplemented
        return (
            self.relative_accuracy == other.relative_accuracy
            and self.min_value == other.min_value
            and self.counts == other.counts
            and self.zero_count == other.zero_count
            and self.count == other.count
            and self._sum == other._sum
            and self._min == other._min
            and self._max == other._max
        )

    __hash__ = None  # mutable

    # -- pickling (slots) --------------------------------------------------
    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DDSketch count={self.count} a={self.relative_accuracy:g} "
            f"buckets={len(self.counts)}>"
        )
