"""Failure detection: timeline ledger and live accrual suspicion.

The paper assumes fail-stop processes with external detection (the
incarnation is simply "created in a spare normal node").  The detector's
original role — recording the failure/recovery timeline the injector and
endpoints produce, so experiments can reason about downtime windows
without scraping the trace — is preserved unchanged below.

Armed (``DetectorConfig.enabled``), it additionally becomes the live
in-band detection subsystem: every member rank's :class:`HeartbeatChain`
emits periodic heartbeats on a dedicated RNG substream and FIFO lane,
and every member runs a phi-accrual-style suspicion estimator (Hayashibara et al.) over
the observed inter-arrival gaps of each peer.  Suspicion is a per-rank
state machine::

    ALIVE --(phi >= suspect_phi)--> SUSPECT --(phi >= condemn_phi)--> CONDEMNED
      ^            |
      +--(fresh heartbeat)--+

Condemnation — not the injector — initiates recovery: the cluster's
``on_condemn`` callback restarts a genuinely dead rank (so
``detection_delay`` becomes a *measured* quantity, MTTD) or fences and
force-restarts a zombie (a condemned-but-actually-alive rank).  A
``CONDEMNED`` verdict is sticky for the incarnation: it only resets when
the rank's replacement comes up (``observe_recovery``) or the rank
departs.  Estimators are windowed (``window`` recent gaps) with a
variance floor (``floor``) so a silent wire cannot divide by zero and a
regular heartbeat cannot condemn on microscopic jitter.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.endpoint import Endpoint
    from repro.simnet.network import Network

#: a heartbeat carries only the sender's incarnation epoch
_HB_FRAME_BYTES = 8

#: suspicion states, in escalation order
ALIVE = "alive"
SUSPECT = "suspect"
CONDEMNED = "condemned"

#: floor for the survival probability before taking ``-log10``; erfc
#: underflows to exactly 0.0 around z ~ 39, and phi must stay finite
#: (and monotone) for arbitrarily long silences
_P_FLOOR = 1e-300


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs for the heartbeat accrual detector.

    Disabled by default: legacy runs keep the paper's perfect external
    detection (the injector schedules the incarnation itself after a
    constant ``detection_delay + restart_delay``).
    """

    enabled: bool = False
    #: period of each member's heartbeat broadcast; also the estimator's
    #: bootstrap mean before any gap has been observed
    heartbeat_interval: float = 5e-4
    #: phi at which a peer becomes SUSPECT (informational; a fresh
    #: heartbeat clears it)
    suspect_phi: float = 2.0
    #: phi at which a peer is CONDEMNED and recovery is initiated
    condemn_phi: float = 8.0
    #: lower bound on the gap standard deviation — a perfectly regular
    #: heartbeat must not make the estimator infinitely confident.
    #: Default 0.1 ms, or ``heartbeat_interval / 5`` if larger: the first
    #: gap sample is the wire delay, so a floor that did not scale would
    #: condemn every peer at a slow beat's second tick
    floor: float | None = None
    #: number of recent inter-arrival gaps the estimator keeps
    window: int = 20
    #: a condemned-but-alive (zombie) rank is force-killed this long
    #: after its fence; the window models the runtime reaching the node
    fence_delay: float = 2e-4

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.suspect_phi <= 0:
            raise ValueError("suspect_phi must be > 0")
        if self.condemn_phi < self.suspect_phi:
            raise ValueError("condemn_phi must be >= suspect_phi")
        if self.floor is None:
            object.__setattr__(
                self, "floor", max(1e-4, self.heartbeat_interval / 5))
        if self.floor <= 0:
            raise ValueError("floor must be > 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.fence_delay < 0:
            raise ValueError("fence_delay must be >= 0")


class AccrualEstimator:
    """Phi-accrual suspicion over one observer's view of one subject.

    ``phi(now) = -log10(P[gap > silence])`` under a normal model fit to
    the last ``window`` inter-arrival gaps; monotone in the current
    silence, so longer quiet can only raise suspicion.
    """

    __slots__ = ("last_arrival", "_gaps", "_bootstrap_mean", "_floor")

    def __init__(self, now: float, *, window: int, bootstrap_mean: float,
                 floor: float) -> None:
        #: monitoring starts now: silence accrues from the first
        #: evaluation, not from t=0
        self.last_arrival = now
        self._gaps: deque = deque(maxlen=window)
        self._bootstrap_mean = bootstrap_mean
        self._floor = floor

    def heartbeat(self, now: float) -> None:
        """Record an arrival; the gap since the last one becomes a sample."""
        gap = now - self.last_arrival
        if gap > 0:
            self._gaps.append(gap)
        self.last_arrival = now

    def phi(self, now: float) -> float:
        """Suspicion level for the silence ``now - last_arrival``."""
        silence = now - self.last_arrival
        gaps = self._gaps
        mean = sum(gaps) / len(gaps) if gaps else self._bootstrap_mean
        if silence <= mean:
            # z <= 0 whatever sigma is: the every-tick case on a healthy
            # wire, so the variance pass below is never paid for it
            return 0.0
        sigma = self._floor
        if gaps:
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            sigma = max(math.sqrt(var), sigma)
        z = (silence - mean) / sigma
        p_later = 0.5 * math.erfc(z / math.sqrt(2.0))
        return -math.log10(max(p_later, _P_FLOOR))


@dataclass(frozen=True)
class FailureEvent:
    rank: int
    failed_at: float


@dataclass(frozen=True)
class RecoveryEvent:
    rank: int
    recovered_at: float
    epoch: int


@dataclass(frozen=True)
class Condemnation:
    """One CONDEMNED verdict: ``observer`` gave up on ``rank``.

    ``was_alive`` is the ground truth at the instant of condemnation —
    ``True`` marks a false suspicion (the victim was a zombie: frozen,
    muted or merely slow) that fencing then turns into a real kill.
    """

    rank: int
    condemned_at: float
    observer: int
    was_alive: bool


@dataclass(frozen=True)
class FenceEvent:
    """A zombie was fenced: peers bumped ``rank``'s epoch at ``fenced_at``."""

    rank: int
    fenced_at: float
    epoch: int


@dataclass
class FailureDetector:
    """Timeline of failures and incarnations, plus live accrual suspicion."""

    failures: list[FailureEvent] = field(default_factory=list)
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    condemnations: list[Condemnation] = field(default_factory=list)
    fences: list[FenceEvent] = field(default_factory=list)
    #: simulated time the run ended (set by the cluster when the engine
    #: drains); closes the downtime window of a rank that dies and
    #: never comes back
    run_ended_at: float | None = None

    def __post_init__(self) -> None:
        self.config: DetectorConfig | None = None
        self._is_alive: Callable[[int], bool] | None = None
        self._on_condemn: Callable[[int, int, float], None] | None = None
        #: per-(observer, subject) gap estimators, created lazily the
        #: first time an observer monitors (or hears) a subject
        self._estimators: dict[tuple[int, int], AccrualEstimator] = {}
        #: global per-subject suspicion state (any observer can escalate;
        #: any fresh heartbeat de-escalates SUSPECT)
        self.suspicion: dict[int, str] = {}
        #: the network whose held heartbeats this detector reads, and the
        #: instant of the last sweep that took everything arrived
        self._wire: "Network | None" = None
        self._heard_at = -1.0

    @property
    def armed(self) -> bool:
        return self.config is not None

    def arm(self, config: DetectorConfig,
            is_alive: Callable[[int], bool],
            on_condemn: Callable[[int, int, float], None],
            wire: "Network | None" = None) -> None:
        """Switch on live suspicion tracking.

        ``is_alive(rank)`` is consulted at condemnation time to record
        ground truth (a false suspicion vs. a detected death);
        ``on_condemn(rank, observer, now)`` initiates recovery.  Given
        the ``wire``, this detector becomes the reader of the heartbeats
        it holds (:meth:`Network.hold_heartbeats`): everything that has
        arrived is heard, at its own arrival time, before any state a
        beat can touch is read or cleared; without one every beat
        reaches :meth:`observe_heartbeat` as an event.
        """
        self.config = config
        self._is_alive = is_alive
        self._on_condemn = on_condemn
        self._wire = wire
        if wire is not None:
            wire.hold_heartbeats(self._hear_held)

    # ------------------------------------------------------------------
    # Timeline ledger (always on; the original API)
    # ------------------------------------------------------------------
    def observe_failure(self, rank: int, now: float) -> None:
        """Record a kill at simulated time ``now``."""
        self.failures.append(FailureEvent(rank, now))

    def observe_recovery(self, rank: int, now: float, epoch: int) -> None:
        """Record an incarnation coming up."""
        self.recoveries.append(RecoveryEvent(rank, now, epoch))
        # the replacement incarnation starts with a clean slate: its
        # predecessor's verdict and every gap history touching the rank
        # (in both directions — the rank's own view of its peers is
        # equally stale after the death window) are discarded
        self._catch_up(now)
        self.clear(rank)

    def observe_run_end(self, now: float) -> None:
        """Record when the run ended (closes any open windows)."""
        self.run_ended_at = now
        self._catch_up(now)

    # ------------------------------------------------------------------
    # Live suspicion (armed only)
    # ------------------------------------------------------------------
    def observe_heartbeat(self, observer: int, subject: int,
                          now: float) -> None:
        """``observer`` heard ``subject``'s heartbeat at ``now``."""
        est = (self._estimators.get((observer, subject))
               or self._monitor(observer, subject, now))
        est.heartbeat(now)
        if self.suspicion.get(subject) == SUSPECT:
            # fresh evidence of life clears suspicion; CONDEMNED is
            # sticky — the verdict already triggered recovery and only
            # the replacement incarnation resets it
            self.suspicion[subject] = ALIVE

    def _hear_held(self, beats: list[tuple]) -> None:
        """The wire hands over held heartbeats: each is heard at its own
        arrival time.  Beats of different channels commute (one
        estimator each; the ``SUSPECT`` clear is idempotent), so hearing
        them late is invisible as long as it happens before the next
        read — which is what :meth:`_catch_up` is called for."""
        hear = self.observe_heartbeat
        for beat in beats:
            hear(beat[2], beat[1], beat[0])

    def _catch_up(self, now: float) -> None:
        """Hear everything the wire still holds that arrived by ``now``."""
        if self._wire is not None:
            self._wire.deliver_heartbeats(now)

    def evaluate(self, observer: int, now: float, subjects) -> None:
        """One suspicion sweep: ``observer`` judges each of ``subjects``."""
        config = self.config
        if config is None:
            return
        if now != self._heard_at:
            # once per instant, for every observer at once: a SUSPECT
            # written by this sweep must land after the clear of every
            # beat that arrived before it, whoever received that beat
            self._heard_at = now
            self._catch_up(now)
        suspicion = self.suspicion
        estimators = self._estimators
        for subject in subjects:
            if subject == observer or suspicion.get(subject) == CONDEMNED:
                continue
            est = (estimators.get((observer, subject))
                   or self._monitor(observer, subject, now))
            phi = est.phi(now)
            if phi >= config.condemn_phi:
                self._condemn(subject, observer, now)
            elif phi >= config.suspect_phi:
                suspicion[subject] = SUSPECT

    def phi(self, observer: int, subject: int, now: float) -> float:
        """Current suspicion level (0.0 before any monitoring)."""
        self._catch_up(now)
        est = self._estimators.get((observer, subject))
        return est.phi(now) if est is not None else 0.0

    def suspicion_state(self, rank: int) -> str:
        """Current per-rank state: ``alive``, ``suspect`` or ``condemned``."""
        return self.suspicion.get(rank, ALIVE)

    def clear(self, rank: int) -> None:
        """Forget every estimator touching ``rank`` and reset its state.

        Called when the rank's incarnation turns over (recovery, join,
        leave): gap history spanning the turnover would instantly
        condemn — the silence it saw was a different incarnation's.
        """
        for key in [k for k in self._estimators if rank in k]:
            del self._estimators[key]
        self.suspicion.pop(rank, None)

    def observe_fence(self, rank: int, now: float, epoch: int) -> None:
        """Record that peers fenced ``rank``'s incarnation ``epoch``."""
        self.fences.append(FenceEvent(rank, now, epoch))

    def _monitor(self, observer: int, subject: int,
                 now: float) -> AccrualEstimator:
        """Start ``observer``'s monitoring of ``subject`` at ``now``."""
        # unarmed (unit tests drive the ledger directly): the defaults
        config = self.config or DetectorConfig()
        est = self._estimators[(observer, subject)] = AccrualEstimator(
            now, window=config.window,
            bootstrap_mean=config.heartbeat_interval, floor=config.floor)
        return est

    def _condemn(self, rank: int, observer: int, now: float) -> None:
        self.suspicion[rank] = CONDEMNED
        was_alive = bool(self._is_alive(rank)) if self._is_alive else False
        self.condemnations.append(
            Condemnation(rank, now, observer, was_alive=was_alive))
        if self._on_condemn is not None:
            self._on_condemn(rank, observer, now)

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def failure_count(self, rank: int | None = None) -> int:
        """Failures observed, overall or for one rank."""
        if rank is None:
            return len(self.failures)
        return sum(1 for e in self.failures if e.rank == rank)

    def detection_delays(self) -> list[float]:
        """Kill -> condemnation delay for each *detected real death*.

        False suspicions (``was_alive``) are excluded: there is no kill
        to measure from — they are counted separately.
        """
        delays = []
        for c in self.condemnations:
            if c.was_alive:
                continue
            prior = [e.failed_at for e in self.failures
                     if e.rank == c.rank and e.failed_at <= c.condemned_at]
            if prior:
                delays.append(c.condemned_at - max(prior))
        return delays

    def mean_time_to_detect(self) -> float | None:
        """Mean kill -> condemnation delay (None: nothing detected)."""
        delays = self.detection_delays()
        return sum(delays) / len(delays) if delays else None

    def false_suspicion_count(self) -> int:
        """Condemnations whose victim was actually alive (zombies)."""
        return sum(1 for c in self.condemnations if c.was_alive)

    def fence_count(self) -> int:
        """How many zombie incarnations were fenced this run."""
        return len(self.fences)

    def downtime_windows(self, rank: int) -> list[tuple[float, float | None]]:
        """(failed_at, recovered_at) pairs for ``rank``, in order.

        Each failure pairs with the first recovery *after* it — a plain
        ``zip`` would both drop the open window of a rank that is still
        dead at end-of-run and mispair when a recovery has no matching
        failure (a leave-then-rejoin records a recovery alone).  A rank
        dead at run end yields a final open window ``(failed_at, None)``.
        """
        fails = sorted(e.failed_at for e in self.failures if e.rank == rank)
        recs = sorted(e.recovered_at for e in self.recoveries if e.rank == rank)
        windows: list[tuple[float, float | None]] = []
        ri = 0
        for failed_at in fails:
            while ri < len(recs) and recs[ri] < failed_at:
                ri += 1
            if ri < len(recs):
                windows.append((failed_at, recs[ri]))
                ri += 1
            else:
                windows.append((failed_at, None))
        return windows

    def total_downtime(self, rank: int) -> float:
        """Seconds ``rank`` spent dead across all windows.

        An open window (dead at exit) is charged up to ``run_ended_at``;
        before the run end is known it contributes nothing.  When the
        accrual detector fenced a zombie, the fence instant opened the
        window (``observe_failure`` fires at the fence, not the later
        force-kill), so the fencing window is charged as unavailability.
        """
        total = 0.0
        for start, end in self.downtime_windows(rank):
            if end is None:
                if self.run_ended_at is None:
                    continue
                end = max(self.run_ended_at, start)
            total += end - start
        return total


class HeartbeatChain:
    """One rank's periodic beat-and-judge tick (armed runs only).

    The chain belongs to the rank, not to an incarnation: it ends at the
    first tick that finds the rank down (or every application finished)
    and :meth:`Cluster.wake_heartbeats` re-arms it when the rank is back.
    """

    def __init__(self, endpoint: "Endpoint") -> None:
        self.endpoint = endpoint
        self.cluster = cluster = endpoint.cluster
        self.interval = cluster.config.detector.heartbeat_interval
        #: a tick is scheduled (prevents duplicate chains)
        self.armed = False

    def ensure(self) -> None:
        """Start the chain unless one is already scheduled."""
        if self.armed:
            return
        self.armed = True
        self.cluster.engine.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        cluster = self.cluster
        endpoint = self.endpoint
        if not cluster.heartbeats_live() or not endpoint.node.alive:
            # every member application finished — stop ticking so the
            # engine can drain (armed detection must not keep a finished
            # run alive) — or this rank is dead, departed or deferred:
            # the chain ends here and the next incarnation re-arms it.
            # No reader may tick again, so what is still held goes back
            # to the engine: the run ends at its last arrival either way
            self.armed = False
            cluster.network.flush_heartbeats()
            return
        now = cluster.engine.now
        gray = endpoint.gray
        if gray is None or now >= gray.freeze_until:
            # a frozen rank neither beats nor judges — exactly the
            # silence the accrual estimators turn into suspicion
            rank = endpoint.rank
            members = cluster.membership.current_members()
            if rank in members:
                peers = [r for r in sorted(members) if r != rank]
                epoch = endpoint.node.epoch
                # the transmit gate, once per fan-out: only the mute stamp
                # is per destination.  Straight onto the raw network, so
                # arming the detector never perturbs transport sequencing
                if cluster.fenced(rank, epoch):
                    for dst in peers:
                        endpoint.drop_fenced(dst, "hb")
                else:
                    muted, stamp = gray.mute() if gray is not None else ((), {})
                    cluster.network.transmit_heartbeats(
                        rank, peers, _HB_FRAME_BYTES, epoch, muted, stamp)
                cluster.detector.evaluate(rank, now, peers)
        # deadlock tripwire: heartbeats keep the engine alive, so a
        # wedged run must be detected here rather than at max_events
        cluster.check_liveness(now)
        cluster.engine.schedule(self.interval, self._tick)
