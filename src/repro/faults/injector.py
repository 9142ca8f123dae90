"""Fault injection and membership events.

A :class:`FaultSpec` kills one rank at one simulated time; the injector
schedules the kill and — under the paper's perfect-detection assumption
— the subsequent incarnation (detection + restart lead time is
``DETECTION_DELAY + RESTART_DELAY``).  When the accrual
detector is armed (``config.detector.enabled``) the injector only
kills: *condemnation* by the surviving peers initiates the restart, so
detection delay is measured, not assumed.  Multiple specs with the same
``at_time`` model the paper's §III.D multiple-simultaneous-failures
scenario — every killed process loses its volatile log and the logs are
rebuilt during rolling forward.

Gray failures ride the same scheduler: a :class:`GrayFaultSpec` makes a
rank misbehave without dying — ``freeze`` (stops executing, wire state
survives), ``stutter`` (seeded intermittent freezes), ``slow`` (compute
latency multiplier) or ``mute`` (sends asymmetrically delayed/dropped
toward a subset of peers).  A gray rank is exactly what imperfect
detection gets wrong: armed runs may condemn it (a false suspicion) and
must then fence and force-restart the zombie.

Dynamic membership rides the same scheduler: a :class:`JoinSpec` brings
a rank into the computation at ``at_time`` (either the first-ever join
of a deferred capacity slot, or the rejoin of a rank that previously
left), and a :class:`LeaveSpec` makes a rank depart gracefully.  A rank
whose *earliest* scheduled membership event is a join starts the run
deferred — its node sits in ``UNJOINED`` and no process runs on it until
the join fires.

Stable storage rides it too: a :class:`StorageFaultSpec` forces the
checkpoint device to misbehave against one rank — a failed, torn or
stalled write, or immediate bit rot on a committed generation.  Merely
*scheduling* one marks the store hostile before the run starts, which
is what arms the lagged sender-log GC the fallback read path depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.cluster import Cluster

#: failure-detection lead time under the paper's perfect external
#: detection: the injector waits this long before even starting the
#: restart.  An armed accrual detector (``DetectorConfig.enabled``)
#: replaces it with a *measured* delay (MTTD).  The whole time base is
#: compressed relative to the paper (checkpoint interval 180 s -> 0.05 s
#: by default) and this is scaled with it; ``DETECTION_DELAY +
#: RESTART_DELAY`` preserves the pre-split restart delay of 2e-3.
DETECTION_DELAY = 1e-3
#: node allocation + process restart lead time, charged between a
#: failure being *known* (scripted detection, or condemnation by the
#: accrual detector) and the new incarnation starting
RESTART_DELAY = 1e-3


@dataclass(frozen=True)
class FaultSpec:
    """Kill ``rank`` at simulated time ``at_time`` seconds."""

    rank: int
    at_time: float

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise ValueError("fault time must be >= 0")


@dataclass(frozen=True)
class JoinSpec:
    """Bring ``rank`` into the membership at ``at_time`` seconds.

    At ``at_time == 0`` against a rank with no earlier events this is a
    *deferred start*: the rank never participates until the join fires.
    Against a rank that previously left, it is a rejoin — a fresh
    incarnation restored from the rank's last checkpoint.
    """

    rank: int
    at_time: float

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise ValueError("join time must be >= 0")


@dataclass(frozen=True)
class LeaveSpec:
    """Remove ``rank`` from the membership gracefully at ``at_time``."""

    rank: int
    at_time: float

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise ValueError("leave time must be >= 0")


#: forced stable-storage misbehaviours a StorageFaultSpec can inject
STORAGE_FAULT_KINDS = ("write_fail", "torn", "corrupt", "stall")


@dataclass(frozen=True)
class StorageFaultSpec:
    """Force stable-storage misbehaviour against ``rank`` at ``at_time``.

    ``kind`` selects what fires (see :data:`STORAGE_FAULT_KINDS`):

    * ``"write_fail"`` — the rank's next ``count`` checkpoint write
      attempts fail visibly (retried with backoff, then skipped);
    * ``"torn"`` — the next ``count`` commits leave torn images,
      detected only when a recovery reads them back;
    * ``"corrupt"`` — bit rot strikes the newest ``count`` readable
      committed generations immediately at ``at_time``;
    * ``"stall"`` — the next ``count`` write attempts stretch by
      ``duration`` simulated seconds each.

    Scheduling any storage fault marks the device hostile *before the
    run starts*, so sender-log GC lags from the first checkpoint and a
    later fallback recovery always finds the log suffix it replays.
    """

    rank: int
    at_time: float
    kind: str
    count: int = 1
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise ValueError("storage fault time must be >= 0")
        if self.kind not in STORAGE_FAULT_KINDS:
            raise ValueError(
                f"unknown storage fault kind {self.kind!r}; pick one of "
                f"{', '.join(STORAGE_FAULT_KINDS)}"
            )
        if self.count < 1:
            raise ValueError("storage fault count must be >= 1")
        if self.duration < 0:
            raise ValueError("storage fault duration must be >= 0")
        if self.kind == "stall" and self.duration == 0:
            raise ValueError("a stall storage fault needs duration > 0")


#: gray-failure modes a GrayFaultSpec can inject
GRAY_FAULT_KINDS = ("freeze", "stutter", "slow", "mute")


@dataclass(frozen=True)
class GrayFaultSpec:
    """Make ``rank`` misbehave without dying, starting at ``at_time``.

    ``kind`` selects the misbehaviour (see :data:`GRAY_FAULT_KINDS`):

    * ``"freeze"`` — the rank stops executing for ``duration`` seconds:
      no compute, no sends, no heartbeats; inbound frames buffer and its
      wire state survives (in-flight frames it already sent deliver);
    * ``"stutter"`` — seeded intermittent freezes: alternating frozen
      and running sub-windows drawn from the ``faults.gray`` substream,
      clipped to ``duration``;
    * ``"slow"`` — compute effects stretch by ``factor`` for
      ``duration`` seconds (the rank keeps talking, just late);
    * ``"mute"`` — for ``duration`` seconds the rank's sends toward
      ``targets`` (every other rank when empty) are delayed by
      ``delay`` seconds — or silently dropped when ``drop`` (requires
      the reliable transport: nobody else retransmits).

    All parameters draw from a dedicated RNG substream, so a scheduled
    gray fault against a rank that never reaches ``at_time`` alive
    leaves the run byte-identical to one never scheduled.
    """

    rank: int
    at_time: float
    kind: str
    duration: float = 2e-3
    #: slow only: compute latency multiplier
    factor: float = 4.0
    #: mute only: destination ranks affected (empty = all peers)
    targets: tuple = ()
    #: mute only: extra one-way delay applied to affected sends
    delay: float = 2e-3
    #: mute only: drop affected sends instead of delaying them
    drop: bool = False

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise ValueError("gray fault time must be >= 0")
        if self.kind not in GRAY_FAULT_KINDS:
            raise ValueError(
                f"unknown gray fault kind {self.kind!r}; pick one of "
                f"{', '.join(GRAY_FAULT_KINDS)}"
            )
        if self.duration <= 0:
            raise ValueError("gray fault duration must be > 0")
        if self.factor < 1.0:
            raise ValueError("slow factor must be >= 1")
        if self.delay < 0:
            raise ValueError("mute delay must be >= 0")
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.drop and self.kind != "mute":
            raise ValueError("drop is a mute-only knob")
        if self.targets and self.kind != "mute":
            raise ValueError("targets is a mute-only knob")


#: anything the injector can schedule
EventSpec = Union[FaultSpec, JoinSpec, LeaveSpec, StorageFaultSpec,
                  GrayFaultSpec]


def simultaneous(ranks: Iterable[int], at_time: float) -> list[FaultSpec]:
    """Fault schedule killing several ranks at the same instant."""
    return [FaultSpec(rank=r, at_time=at_time) for r in ranks]


def staggered(ranks: Iterable[int], start: float, gap: float) -> list[FaultSpec]:
    """Fault schedule killing ranks one after another, ``gap`` apart."""
    return [FaultSpec(rank=r, at_time=start + i * gap) for i, r in enumerate(ranks)]


def check_schedule(specs: Sequence[EventSpec], config, *,
                   kills: set | None = None,
                   grays: set | None = None) -> set[int]:
    """Reject a schedule no run can follow; return its deferred ranks.

    Every rank must be in range for ``config.nprocs``; no rank may die
    twice, or die and gray, or gray twice at one instant; a mute that
    drops frames needs ``config.transport.enabled`` (nobody else
    retransmits) — necessary but not sufficient: on an unimpaired wire
    the transport buffers nothing, so a dropped frame is lost for good
    (a known defect, pinned by ``test_gray_failures.py``); and each
    rank's join/leave program must replay: no two events at one
    instant, joins only of a deferred or departed rank, leaves only of a
    joined one.  A rank whose earliest membership event is a join starts
    the run deferred.

    ``kills`` and ``grays`` hold the ``(rank, at_time)`` keys earlier
    calls scheduled and are updated in place, so a conflict across
    calls is caught too.  :class:`FaultInjector` applies this at
    schedule time; the fuzzer's ``Scenario.validate`` applies it to a
    candidate schedule without a cluster.
    """
    kills = set() if kills is None else kills
    grays = set() if grays is None else grays
    membership: dict[int, list[EventSpec]] = {}
    for spec in specs:
        if not (0 <= spec.rank < config.nprocs):
            raise ValueError(f"fault rank {spec.rank} out of range")
        key = (spec.rank, spec.at_time)
        if isinstance(spec, FaultSpec):
            if key in kills:
                raise ValueError(
                    f"duplicate fault: rank {spec.rank} is already scheduled "
                    f"to die at t={spec.at_time:g} — a schedule that kills "
                    f"the same rank twice at the same instant is a bug in "
                    f"the caller, not a simultaneous-failure scenario"
                )
            if key in grays:
                raise ValueError(
                    f"conflicting fault: rank {spec.rank} already has a "
                    f"gray fault at t={spec.at_time:g} — whether the rank "
                    f"dies or merely misbehaves at that instant would be "
                    f"undefined; stagger the schedule"
                )
            kills.add(key)
        elif isinstance(spec, GrayFaultSpec):
            if key in kills:
                raise ValueError(
                    f"conflicting fault: rank {spec.rank} is already "
                    f"scheduled to die at t={spec.at_time:g} — a "
                    f"{spec.kind} gray fault against it at the same "
                    f"instant would leave dead-or-misbehaving undefined; "
                    f"stagger the schedule"
                )
            if key in grays:
                raise ValueError(
                    f"duplicate gray fault: rank {spec.rank} already has "
                    f"a gray fault at t={spec.at_time:g}; their order "
                    f"would be undefined"
                )
            if spec.drop and not config.transport.enabled:
                raise ValueError(
                    "a mute gray fault with drop=True requires "
                    "transport.enabled — the raw network does not "
                    "retransmit, so dropped sends would be lost frames "
                    "the protocols assume delivered"
                )
            grays.add(key)
        elif isinstance(spec, (JoinSpec, LeaveSpec)):
            membership.setdefault(spec.rank, []).append(spec)
    deferred = set()
    for rank, events in membership.items():
        events.sort(key=lambda e: e.at_time)
        for before, after in zip(events, events[1:]):
            if before.at_time == after.at_time:
                raise ValueError(
                    f"conflicting membership events: rank {rank} has more "
                    f"than one join/leave event at t={after.at_time:g}; "
                    f"their order would be undefined"
                )
        joined = not isinstance(events[0], JoinSpec)
        if not joined:
            deferred.add(rank)
        for event in events:
            if isinstance(event, JoinSpec) and joined:
                raise ValueError(
                    f"invalid membership schedule: rank {rank} is "
                    f"already joined at t={event.at_time:g} — a "
                    f"JoinSpec must target a deferred or departed rank"
                )
            if isinstance(event, LeaveSpec) and not joined:
                raise ValueError(
                    f"invalid membership schedule: rank {rank} is not "
                    f"joined at t={event.at_time:g} — a LeaveSpec "
                    f"must target a currently-joined rank"
                )
            joined = isinstance(event, JoinSpec)
    return deferred


class FaultInjector:
    """Schedules kills, joins, leaves and incarnations against a cluster."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.injected: list[EventSpec] = []
        self.skipped: list[EventSpec] = []
        #: ``(rank, at_time)`` keys of every kill / gray fault scheduled
        self._kills: set[tuple[int, float]] = set()
        self._grays: set[tuple[int, float]] = set()
        #: ranks whose earliest scheduled event is a join: they start the
        #: run deferred (node UNJOINED, no process) until the join fires
        self.deferred: set[int] = set()

    def schedule(self, faults: Sequence[EventSpec]) -> None:
        """Arm the fault/membership schedule against the cluster's engine
        (after :func:`check_schedule`, against everything scheduled so far)."""
        config = self.cluster.config
        if faults and config.protocol == "none":
            raise ValueError(
                "cannot inject faults or membership events with "
                "protocol='none' (no recovery); pick tdi, tag or tel"
            )
        self.deferred |= check_schedule(faults, config, kills=self._kills,
                                        grays=self._grays)
        fire = {FaultSpec: self._kill, GrayFaultSpec: self._gray,
                StorageFaultSpec: self._storage_fault,
                JoinSpec: self._join, LeaveSpec: self._leave}
        for spec in faults:
            if isinstance(spec, StorageFaultSpec):
                # arming happens now, at schedule time: GC must lag from
                # the very first checkpoint for a later fallback to be
                # replayable, not from when the fault fires
                self.cluster.checkpoints.arm_hostile()
            self.cluster.engine.schedule_at(spec.at_time,
                                            partial(fire[type(spec)], spec))

    def _kill(self, spec: FaultSpec) -> None:
        endpoint = self.cluster.endpoints[spec.rank]
        if not endpoint.node.alive:
            # rank already down (overlapping schedule); record and move on
            self.skipped.append(spec)
            return
        self.injected.append(spec)
        self.cluster.detector.observe_failure(spec.rank, self.cluster.engine.now)
        endpoint.fail()
        if self.cluster.config.detector.enabled:
            # in-band detection: the surviving peers must *notice* the
            # silence and condemn before anyone schedules an incarnation
            # (see Cluster._on_condemned) — MTTD is measured, not assumed
            return
        self.cluster.engine.schedule(DETECTION_DELAY + RESTART_DELAY,
                                     endpoint.incarnate)

    def _gray(self, spec: GrayFaultSpec) -> None:
        endpoint = self.cluster.endpoints[spec.rank]
        if not endpoint.node.alive:
            # rank down (or departed) when the gray window opens; a gray
            # fault needs a live victim — record and move on
            self.skipped.append(spec)
            return
        self.injected.append(spec)
        endpoint.begin_gray(spec)

    def _join(self, spec: JoinSpec) -> None:
        from repro.simnet.node import NodeState

        endpoint = self.cluster.endpoints[spec.rank]
        state = endpoint.node.state
        if state is NodeState.UNJOINED:
            self.injected.append(spec)
            self.cluster.membership.observe_join(spec.rank)
            endpoint.join()
        elif state is NodeState.LEFT:
            # rejoin: a fresh incarnation restored from the last
            # checkpoint, recovered exactly like a crash victim
            self.injected.append(spec)
            self.cluster.membership.observe_join(spec.rank)
            endpoint.incarnate()
        else:
            # the static replay validated the schedule, but a crash can
            # race a rejoin at runtime; skip rather than fight the state
            self.skipped.append(spec)

    def _storage_fault(self, spec: StorageFaultSpec) -> None:
        applied = self.cluster.checkpoints.inject(
            spec.rank, spec.kind, spec.count, spec.duration
        )
        if applied:
            self.injected.append(spec)
        else:
            # a corrupt strike that found nothing readable to damage
            self.skipped.append(spec)

    def _leave(self, spec: LeaveSpec) -> None:
        endpoint = self.cluster.endpoints[spec.rank]
        if not endpoint.node.alive:
            # crashed (or already gone) before the planned departure
            self.skipped.append(spec)
            return
        self.injected.append(spec)
        self.cluster.membership.observe_leave(spec.rank)
        endpoint.leave()
