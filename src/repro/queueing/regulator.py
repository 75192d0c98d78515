"""Concurrency regulator (Section 4.1).

The regulator enforces the concurrency limit — the upper bound on
simultaneously running functions, which is also the CPU-overcommitment
knob (limits above the core count overcommit; cgroup shares still give
proportional allocation).

Two modes:

* **fixed** — a static limit;
* **dynamic (AIMD)** — TCP-like additive-increase/multiplicative-decrease:
  the limit creeps up one slot per adjustment interval until the load
  average crosses a congestion threshold, then is cut multiplicatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from ..sim.core import Environment
from ..sim.resources import Resource

__all__ = ["LoadTracker", "ConcurrencyRegulator", "AIMDConfig"]


class LoadTracker:
    """Exponentially-smoothed 'load average' of running invocations.

    Mirrors the kernel's 1-minute loadavg: sampled periodically, decayed
    with factor exp(-interval/60).
    """

    def __init__(self, cores: float, interval: float = 5.0, horizon: float = 60.0):
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        if interval <= 0 or horizon <= 0:
            raise ValueError("interval and horizon must be positive")
        import math

        self.cores = float(cores)
        self.interval = float(interval)
        self._decay = math.exp(-interval / horizon)
        self.loadavg = 0.0
        self.running = 0

    def on_start(self) -> None:
        self.running += 1

    def on_finish(self) -> None:
        if self.running <= 0:
            raise RuntimeError("on_finish without matching on_start")
        self.running -= 1

    def sample(self) -> float:
        """One sampling step; returns the updated load average."""
        self.loadavg = self.loadavg * self._decay + self.running * (1.0 - self._decay)
        return self.loadavg

    @property
    def normalized(self) -> float:
        """Load average relative to core count (1.0 = fully busy)."""
        return self.loadavg / self.cores

    @property
    def busy_cores(self) -> float:
        """Cores actually occupied right now (running, capped at cores).

        The energy model and the telemetry sampler both read this: running
        invocations above the core count time-share and draw no extra
        power.
        """
        running = self.running
        cores = self.cores
        return float(running) if running < cores else cores


@dataclass(frozen=True)
class AIMDConfig:
    """Dynamic concurrency-limit controller parameters."""

    min_limit: int = 1
    max_limit: int = 1024
    additive_increase: int = 1
    multiplicative_decrease: float = 0.5
    congestion_threshold: float = 1.0  # normalized load average
    adjust_interval: float = 2.0

    def __post_init__(self):
        if self.min_limit < 1:
            raise ValueError("min_limit must be >= 1")
        if self.max_limit < self.min_limit:
            raise ValueError("max_limit must be >= min_limit")
        if not 0 < self.multiplicative_decrease < 1:
            raise ValueError("multiplicative_decrease must be in (0, 1)")
        if self.adjust_interval <= 0:
            raise ValueError("adjust_interval must be positive")


class ConcurrencyRegulator:
    """Owns the concurrency-token resource; optionally self-adjusting."""

    def __init__(
        self,
        env: Environment,
        limit: int,
        load: Optional[LoadTracker] = None,
        aimd: Optional[AIMDConfig] = None,
    ):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.env = env
        self.tokens = Resource(env, capacity=limit)
        self.load = load
        self.aimd = aimd
        self.limit_history: list[tuple[float, int]] = [(env.now, limit)]
        self._running = False

    @property
    def limit(self) -> int:
        return self.tokens.capacity

    @property
    def in_flight(self) -> int:
        return self.tokens.count

    def _set_limit(self, limit: int) -> None:
        limit = max(1, int(limit))
        if limit != self.tokens.capacity:
            self.tokens.set_capacity(limit)
            self.limit_history.append((self.env.now, limit))

    def controller(self) -> Generator:
        """Background AIMD process (requires a LoadTracker and AIMDConfig)."""
        if self.aimd is None or self.load is None:
            raise RuntimeError("dynamic mode needs both aimd config and load tracker")
        cfg = self.aimd
        self._running = True
        while self._running:
            yield self.env.timeout(cfg.adjust_interval)
            if self.load.normalized > cfg.congestion_threshold:
                self._set_limit(
                    max(cfg.min_limit, int(self.limit * cfg.multiplicative_decrease))
                )
            else:
                self._set_limit(min(cfg.max_limit, self.limit + cfg.additive_increase))

    def stop(self) -> None:
        self._running = False
