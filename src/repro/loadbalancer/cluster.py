"""A cluster: several workers behind a pluggable dispatch policy.

The cluster front end exposes the same invocation surface as a single
worker (the worker API is deliberately a subset of the overall API, per
the paper), so experiments and load generators can target either.
Registrations are broadcast to every worker; placement is per-invocation.

Placement itself is delegated to :mod:`repro.dispatch`.  Push policies
(CH-BL, round-robin, least-loaded) take the pick-then-forward invoke
path — one ``pick`` call on the policy, then the RPC hop — while pull
policies route through a :class:`~repro.dispatch.engine.PullEngine`
whose per-worker claim loops drain a shared logical queue.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from ..core.config import WorkerConfig
from ..core.function import FunctionRegistration
from ..core.worker import Worker
from ..dispatch import PullEngine, make_dispatch
from ..errors import FunctionNotRegistered
from ..metrics.spans import SpanRecorder
from ..sim.core import Environment, Event
from .policies import StatusBoard

__all__ = ["Cluster"]


class Cluster:
    """A load-balanced pool of Ilúvatar workers (CH-BL by default).

    ``lb_policy`` selects the dispatch scheme: push ("ch_bl",
    "round_robin", "least_loaded") or pull ("pull", "pull_local");
    ``status_interval`` makes push load decisions act on periodic status
    snapshots instead of live state (None = live); ``claim_latency`` is
    the pull queue round-trip cost (None = reuse ``rpc_latency``);
    ``worker_configs_override`` supplies explicit per-worker configs
    (heterogeneous clusters) in place of the ones derived from ``config``.
    """

    def __init__(
        self,
        env: Environment,
        num_workers: int = 2,
        config: Optional[WorkerConfig] = None,
        bound_factor: float = 1.2,
        rpc_latency: float = 0.0005,
        lb_policy: str = "ch_bl",
        status_interval: Optional[float] = None,
        claim_latency: Optional[float] = None,
        worker_configs_override: Optional[Sequence[WorkerConfig]] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if rpc_latency < 0:
            raise ValueError("rpc_latency must be non-negative")
        self.env = env
        base = config or WorkerConfig()
        self.workers: dict[str, Worker] = {}
        cfgs = (list(worker_configs_override) if worker_configs_override
                else self.worker_configs(base, num_workers))
        for cfg in cfgs:
            self.workers[cfg.name] = Worker(env, cfg)
        self.status_board = StatusBoard(
            clock=lambda: env.now,
            live_load_fn=self._worker_load,
            interval=status_interval,
        )
        self.dispatch = make_dispatch(
            lb_policy,
            env=env,
            load_fn=self.status_board.load,
            bound_factor=bound_factor,
            warm_fn=self._worker_warm,
        )
        for name in self.workers:
            self.dispatch.add_worker(name)
        self.rpc_latency = float(rpc_latency)
        self._pull = None
        if self.dispatch.kind == "pull":
            self._pull = PullEngine(
                env,
                self.workers,
                self.dispatch,
                claim_latency=(self.rpc_latency if claim_latency is None
                               else float(claim_latency)),
                on_claim=self._count_claim,
            )
        self.registrations: dict[str, FunctionRegistration] = {}
        self.placements = 0
        # LB-level spans (placement decisions, RPC hops) share the workers'
        # tracing switch; disabled they cost nothing on the pick path.
        self.spans = SpanRecorder(
            clock=partial(getattr, env, "now"), enabled=base.tracing_enabled
        )
        # Causal-trace collector; set by Telemetry.attach_cluster when
        # TelemetryConfig(trace=True) opts a run in, None otherwise.
        self.tracer = None

    @staticmethod
    def worker_configs(base: WorkerConfig, num_workers: int) -> list[WorkerConfig]:
        """The per-worker configs a cluster of ``num_workers`` derives from
        ``base``: index-suffixed names and consecutive seeds.  The cluster
        -shard engine builds each shard's workers from the same list, so a
        sharded cluster is worker-for-worker identical to this one."""
        return [
            base.with_overrides(name=f"{base.name}-{i}", seed=base.seed + i)
            for i in range(num_workers)
        ]

    def _worker_load(self, name: str) -> float:
        w = self.workers[name]
        return len(w.queue) + w.load.running

    def _worker_warm(self, name: str, fqdn: str) -> bool:
        return self.workers[name].pool.has_available(fqdn)

    def _count_claim(self, offer) -> None:
        self.placements += 1

    # ---------------------------------------------------------------- API
    def start(self) -> None:
        for w in self.workers.values():
            w.start()
        if self._pull is not None:
            self._pull.start()

    def stop(self) -> None:
        for w in self.workers.values():
            w.stop()

    def register_sync(self, registration: FunctionRegistration) -> str:
        fqdn = registration.fqdn()
        self.registrations[fqdn] = registration
        for w in self.workers.values():
            if fqdn not in w.registrations:
                w.register_sync(registration)
        return fqdn

    def async_invoke(self, fqdn: str, args=None) -> Event:
        if fqdn not in self.registrations:
            raise FunctionNotRegistered(fqdn)
        if self._pull is not None:
            return self._pull.submit(fqdn, args)
        spans = self.spans
        tracer = self.tracer
        pick_t = self.env.now if tracer is not None else 0.0
        handle = spans.begin("lb_pick", tag=fqdn)
        target = self.dispatch.pick(fqdn)
        spans.end(handle)
        self.placements += 1
        worker = self.workers[target]
        if self.rpc_latency <= 0:
            inner = worker.async_invoke(fqdn, args)
            if tracer is not None:
                # The trace id is the invocation id, known at completion.
                inner.callbacks.append(
                    lambda ev: tracer.record_lb(ev.value.id, pick_t, pick_t)
                )
            return inner
        # Model the LB->worker RPC hop without blocking the caller.
        done = self.env.event()

        def forward():
            rpc = spans.begin("lb_rpc", tag=target)
            yield self.env.timeout(self.rpc_latency)
            spans.end(rpc)
            rpc_end = self.env.now
            inner = worker.async_invoke(fqdn, args)
            inv = yield inner
            if tracer is not None:
                tracer.record_lb(inv.id, pick_t, pick_t,
                                 pick_t, rpc_end, target)
            done.succeed(inv)

        self.env.process(forward(), name=f"lb-forward-{fqdn}")
        return done

    def invoke(self, fqdn: str, args=None):
        done = self.async_invoke(fqdn, args)
        inv = yield done
        return inv

    # ----------------------------------------------------------- telemetry
    def attach_telemetry(self, telemetry) -> None:
        """Register the whole cluster with a :class:`repro.telemetry.Telemetry`
        pipeline: every worker's gauges are sampled, the status board
        publishes its load snapshots into the sampler, and the LB's spans
        are retained alongside the workers'.  Equivalent to
        ``telemetry.attach_cluster(self)``."""
        telemetry.attach_cluster(self)

    def dispatch_info(self) -> dict:
        """Summary-stable description of the active dispatch policy."""
        info = self.dispatch.info()
        if self._pull is not None:
            info["claim_latency"] = self._pull.claim_latency
        return info

    # -------------------------------------------------------------- status
    def status(self) -> dict:
        return {
            "workers": {name: w.status() for name, w in self.workers.items()},
            "policy": self.dispatch.name,
            "forwards": getattr(self.dispatch, "forwards", 0),
            "placements": self.placements,
        }

    def records(self) -> list:
        out = []
        for w in self.workers.values():
            out.extend(w.metrics.records)
        return out
