"""Cluster assembly and run orchestration.

:class:`Cluster` wires the whole system together — engine, nodes,
network, checkpoint store, one endpoint per rank, optional service nodes
(the TEL protocol's event logger) — runs it, and packages the outcome as
a :class:`RunResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.config import SimulationConfig
from repro.faults.detector import FailureDetector, HeartbeatChain
from repro.faults.injector import EventSpec, FaultInjector
from repro.metrics.counters import MetricsAggregate, RankMetrics, aggregate
from repro.mpi.endpoint import Endpoint
from repro.protocols.base import MembershipView
from repro.protocols.checkpoint import CheckpointStore
from repro.simnet.engine import Engine, SimulationError
from repro.simnet.network import Network, NetworkStats
from repro.simnet.node import NodeSet, NodeState
from repro.simnet.rng import RngStreams
from repro.simnet.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import Application

#: ``app_factory(rank, nprocs, rng) -> Application``
AppFactory = Callable[[int, int, RngStreams], "Application"]


@dataclass
class RunResult:
    """Everything a finished run exposes."""

    config: SimulationConfig
    #: per-rank application return values
    results: list[Any]
    metrics: MetricsAggregate
    #: simulated time when the last application finished
    accomplishment_time: float
    #: simulated time when the engine went quiet
    sim_time: float
    network: NetworkStats
    trace: Trace
    detector: FailureDetector
    checkpoint_writes: int
    events_fired: int
    #: host wall-clock seconds the run took, from ``time.perf_counter``
    #: — the one clock this codebase times real work with (the CLI, the
    #: fuzzer and the benches all use it; ``time.time`` can step)
    wall_time_s: float = 0.0
    #: per-rank message streams when run with ``record=True``
    recording: Any = None
    #: causal-consistency oracle findings when run with ``verify=True``
    #: (empty both when the run is clean and when verification is off)
    violations: list[Any] = field(default_factory=list)

    @property
    def answer(self) -> Any:
        """Rank 0's application result (conventionally the global answer)."""
        return self.results[0]

    @property
    def stats(self) -> MetricsAggregate:
        return self.metrics


class Cluster:
    """A simulated message-passing machine running one application."""

    def __init__(self, config: SimulationConfig, app_factory: AppFactory) -> None:
        self.config = config
        self.engine = Engine()
        self.rng = RngStreams(config.seed)
        self.trace = Trace(enabled=config.trace_enabled)
        self.trace.bind_clock(lambda: self.engine.now)

        needs_logger = config.protocol in ("tel", "pess", "part")
        self.nodes = NodeSet(config.nprocs + (1 if needs_logger else 0))
        self.network = Network(self.engine, self.nodes, config.network, self.rng, self.trace)
        self.detector = FailureDetector()
        self.metrics = [RankMetrics(rank=r) for r in range(config.nprocs)]
        self.checkpoints = CheckpointStore(
            config.costs,
            history=config.ckpt_history,
            config=config.storage,
            rng=self.rng,
            trace=self.trace,
            metrics=self.metrics,
        )
        #: what endpoints and services actually talk to: the reliable
        #: transport when enabled, else the raw network (same surface)
        self.fabric: Any = self.network
        if config.transport.enabled:
            from repro.simnet.transport import ReliableTransport

            self.fabric = ReliableTransport(
                network=self.network,
                nodes=self.nodes,
                rng=self.rng,
                engine=self.engine,
                trace=self.trace,
                metrics=self.metrics,
            )
        self.recording = None
        if config.record:
            from repro.debug.recorder import RunRecording

            self.recording = RunRecording(config.nprocs)

        self.services: list[Any] = []
        if needs_logger:
            from repro.protocols.tel_protocol import EventLoggerService

            logger = EventLoggerService(
                rank=config.nprocs,
                engine=self.engine,
                network=self.fabric,
                costs=config.costs,
                trace=self.trace,
            )
            self.services.append(logger)

        #: the cluster's live membership truth; endpoints expose it to
        #: their protocols (EndpointServices), the injector mutates it
        self.membership = MembershipView(config.nprocs)

        self.oracle = None
        if config.verify:
            from repro.verify import CausalOracle

            self.oracle = CausalOracle(config.nprocs)
            self.oracle.attach(self)

        self.endpoints = [
            Endpoint(self, rank, app_factory(rank, config.nprocs, self.rng))
            for rank in range(config.nprocs)
        ]
        #: one heartbeat tick chain per rank when detection is in-band
        #: (see :meth:`wake_heartbeats`)
        self.heartbeats = (
            [HeartbeatChain(ep) for ep in self.endpoints]
            if config.detector.enabled else [])
        self.injector = FaultInjector(self)
        self._started = False
        #: fenced zombie incarnations: (rank, epoch) pairs condemned
        #: while actually alive — the transmit gate discards their sends
        self._fenced: set[tuple[int, int]] = set()
        #: armed-run liveness guard state: the last progress signature,
        #: when it changed, when it was last folded (:meth:`check_liveness`)
        self._progress_sig: tuple | None = None
        self._progress_at = 0.0
        self._liveness_checked_at = -1.0

    # ------------------------------------------------------------------
    # Failure detection (armed runs only)
    # ------------------------------------------------------------------
    def fenced(self, rank: int, epoch: int) -> bool:
        """Whether ``rank``'s incarnation ``epoch`` has been fenced."""
        return (rank, epoch) in self._fenced

    def heartbeats_live(self) -> bool:
        """Whether any member application is still unfinished — while one
        is, heartbeat chains keep ticking (a finished rank must keep
        beating or its unfinished peers would condemn it); once none is,
        the chains end and the engine can drain."""
        return any(
            not ep.app_done and ep.node.state is not NodeState.LEFT
            for ep in self.endpoints
        )

    #: heartbeat intervals of zero application progress before an armed
    #: run is declared deadlocked.  Recovery quiet periods in this
    #: simulator span a few milliseconds; 100 intervals (50 ms at the
    #: default 0.5 ms heartbeat) is far past any legitimate stall.
    LIVENESS_STALL_INTERVALS = 100

    def check_liveness(self, now: float) -> None:
        """Armed-detection deadlock tripwire.  Heartbeat chains keep the
        engine alive while any application is unfinished, so a genuinely
        deadlocked run would otherwise tick heartbeats until it burns
        through ``max_events`` with no diagnosis.  The first tick of each
        instant (the chains tick in phase until a restart shifts one) folds
        the cluster's progress into a signature; if it stops changing for
        :data:`LIVENESS_STALL_INTERVALS` heartbeat intervals while no
        fault machinery is mid-flight and every unfinished rank is
        blocked in a receive or send wait, fail fast and name what every
        rank is blocked on.  A rank that is between waits
        (:attr:`Endpoint.in_flight`: mid-compute, or inside a checkpoint
        write that outlasts the limit at a short heartbeat interval) is
        progress already scheduled, not a deadlock."""
        if now == self._liveness_checked_at:
            return
        self._liveness_checked_at = now
        sig = (
            sum(m.app_delivers for m in self.metrics),
            sum(m.app_sends for m in self.metrics),
            sum(m.recovery_count for m in self.metrics),
            sum(m.checkpoints_taken for m in self.metrics),
            sum(ep.node.epoch for ep in self.endpoints),
            sum(ep.app_done for ep in self.endpoints),
        )
        if sig != self._progress_sig:
            self._progress_sig = sig
            self._progress_at = now
            return
        if any(ep.frozen or ep.incarnating or not ep.node.alive
               or ep.in_flight for ep in self.endpoints):
            # a freeze, restart, kill, computation or checkpoint write
            # is mid-flight: progress resumes (or a condemnation fires)
            # once it lands
            self._progress_at = now
            return
        stall = now - self._progress_at
        limit = (self.LIVENESS_STALL_INTERVALS
                 * self.config.detector.heartbeat_interval)
        if stall < limit:
            return
        waits = "; ".join(
            f"rank {ep.rank}: {ep.describe_wait()}"
            for ep in self.endpoints
            if not ep.app_done and ep.node.state is not NodeState.LEFT
        )
        raise SimulationError(
            f"no application progress for {stall:.4f}s under armed "
            f"detection; likely a deadlock in the simulated system "
            f"({waits})"
        )

    def wake_heartbeats(self) -> None:
        """(Re)start every live endpoint's heartbeat chain.  Cluster-wide
        on purpose: a restart or late join must also revive chains that
        ended while their rank was down."""
        if not self.detector.armed:
            return
        for chain in self.heartbeats:
            if chain.endpoint.node.alive:
                chain.ensure()

    def _on_condemned(self, rank: int, observer: int, now: float) -> None:
        """A peer's accrual estimator gave up on ``rank`` — the recovery
        entry point of armed runs (the injector never schedules
        incarnations when the detector is on)."""
        endpoint = self.endpoints[rank]
        node = endpoint.node
        self.trace.emit("detect.condemn", rank, observer=observer,
                        state=node.state.name)

        def restart() -> None:
            # the guard covers a rejoin (or another path) racing the
            # condemnation-initiated restart
            if endpoint.node.alive or endpoint.incarnating:
                return
            endpoint.incarnate()

        if node.alive:
            # false suspicion: the rank is a zombie (frozen, muted,
            # slow).  Fence its incarnation — peers treat it as dead,
            # its own sends are discarded at the gate — then enforce
            # fail-stop: force-kill and restart it.  Downtime is charged
            # from the fence instant (the rank stops being useful here).
            epoch = node.epoch
            self._fenced.add((rank, epoch))
            self.detector.observe_fence(rank, now, epoch)
            self.detector.observe_failure(rank, now)
            for peer in self.endpoints:
                if peer.rank != rank and peer.node.alive:
                    peer.protocol.fence_peer(rank, epoch)
            self.trace.emit("fence.raise", rank, epoch=epoch,
                            observer=observer)

            def force_kill() -> None:
                endpoint.fail()
                self.engine.schedule(self.config.restart_delay, restart)

            # dropped if the zombie dies on its own inside the fence window
            endpoint.later(self.config.detector.fence_delay, force_kill)
        elif node.state is NodeState.DEAD:
            # detected a real death: MTTD already recorded by the
            # detector; allocation + process restart remain
            self.engine.schedule(self.config.restart_delay, restart)
        # a LEFT rank needs nothing: the condemnation was a stale-history
        # artifact and membership already excludes it

    # ------------------------------------------------------------------
    def run(self, faults: Sequence[EventSpec] | None = None) -> RunResult:
        """Run the application to completion (or ``max_sim_time``)."""
        if self._started:
            raise SimulationError("a Cluster instance runs exactly once")
        self._started = True
        wall0 = time.perf_counter()
        if self.config.detector.enabled:
            self.detector.arm(
                self.config.detector,
                lambda rank: self.nodes[rank].alive,
                self._on_condemned,
                wire=self.network,
            )
        if faults:
            self.injector.schedule(list(faults))
        if self.injector.deferred:
            # ranks whose first scheduled event is a JoinSpec start as
            # empty capacity slots; protocols were built against the
            # full-membership view, so rebuild them against the reduced
            # one (nothing has run yet — construction is free)
            for rank in self.injector.deferred:
                self.membership.defer(rank)
            for endpoint in self.endpoints:
                endpoint.protocol = endpoint._new_protocol()
        for endpoint in self.endpoints:
            if endpoint.rank in self.injector.deferred:
                endpoint.defer_start()
            else:
                endpoint.start()
        self.wake_heartbeats()
        self.engine.run(until=self.config.max_sim_time, max_events=self.config.max_events)
        self.detector.observe_run_end(self.engine.now)

        errors = [
            (ep.rank, ep.app_error) for ep in self.endpoints if ep.app_error is not None
        ]
        if errors:
            detail = "; ".join(f"rank {rank}: {error!r}" for rank, error in errors)
            raise SimulationError(
                f"application raised on {len(errors)} rank(s) — {detail}"
            ) from errors[0][1]

        unfinished = [ep for ep in self.endpoints if not ep.app_done]
        if unfinished and self.config.max_sim_time is None:
            detail = "; ".join(
                f"rank {ep.rank}: {ep.describe_wait()}" for ep in unfinished
            )
            raise SimulationError(
                f"simulation drained with {len(unfinished)} unfinished process(es) "
                f"— communication deadlock or unrecovered failure. {detail}"
            )

        accomplishment = self._accomplishment_time()
        return RunResult(
            config=self.config,
            results=[ep.result for ep in self.endpoints],
            metrics=aggregate(self.metrics),
            accomplishment_time=accomplishment,
            sim_time=self.engine.now,
            network=self.network.stats,
            trace=self.trace,
            detector=self.detector,
            checkpoint_writes=self.checkpoints.writes,
            events_fired=self.engine.events_fired,
            wall_time_s=time.perf_counter() - wall0,
            recording=self.recording,
            violations=list(self.oracle.violations) if self.oracle else [],
        )

    def _accomplishment_time(self) -> float:
        times = [ep.done_at for ep in self.endpoints if ep.done_at is not None]
        return max(times) if times else self.engine.now


def run_simulation(
    config: SimulationConfig,
    app_factory: AppFactory,
    faults: Sequence[EventSpec] | None = None,
) -> RunResult:
    """One-shot convenience: build a cluster, run it, return the result."""
    return Cluster(config, app_factory).run(faults)
