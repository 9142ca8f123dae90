"""The gray-failure gate: one rank misbehaving without dying.

A :class:`~repro.faults.injector.GrayFaultSpec` opens a window during
which its rank is *frozen* (executes nothing, emits nothing, while the
NIC keeps receiving), *stuttering* (seeded intermittent freezes), *slow*
(compute stretches) or *mute* (sends toward some peers delayed or
dropped).  A :class:`GrayGate` holds that state and the three freeze
buffers for one incarnation of one rank.  The endpoint allocates it on
the rank's first gray fault and drops it with the incarnation, so a rank
that was never grayed pays one ``is None`` test per effect and frame.

The gate decides *when* the rank is frozen, slow or mute; what a thaw
replays *into* — the transmit gate, the frame dispatch, the effect
interpreter — stays with the endpoint (:meth:`Endpoint.replay_thawed`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Collection

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import GrayFaultSpec
    from repro.mpi.endpoint import Endpoint
    from repro.simnet.network import Frame


class GrayGate:
    """Freeze / slow / mute state of one incarnation (see module doc)."""

    def __init__(self, host: "Endpoint") -> None:
        self.host = host
        #: frozen until this simulated time (0.0 = running); while frozen
        #: the rank executes nothing and emits nothing, but its wire
        #: state survives: in-flight frames it already sent deliver
        self.freeze_until = 0.0
        #: application effects deferred while frozen, replayed at thaw
        self.effects: list[tuple[Any, Any]] = []
        #: inbound frames buffered while frozen (the NIC keeps receiving)
        self.inbound: list["Frame"] = []
        #: outbound frames gated while frozen, flushed at thaw (through
        #: the fence gate: a thaw inside the fence window drops them)
        self.outbound: list["Frame"] = []
        #: compute effects stretch by slow_factor until slow_until
        self.slow_until = 0.0
        self.slow_factor = 1.0
        #: mute window: sends toward mute_targets carry mute_stamp (the
        #: network delays or drops stamped frames) until mute_until
        self.mute_until = 0.0
        self.mute_targets: frozenset = frozenset()
        self.mute_stamp: dict[str, Any] = {}

    @property
    def frozen(self) -> bool:
        return self.host.engine.now < self.freeze_until

    def stretch(self, duration: float) -> float:
        """A compute effect's duration under the slow window: the rank
        computes, just late — the stretched time is really spent."""
        if self.host.engine.now < self.slow_until and self.slow_factor > 1.0:
            return duration * self.slow_factor
        return duration

    def mute(self) -> tuple[Collection[int], dict[str, Any]]:
        """``(peers, stamp)``: sends toward ``peers`` carry ``stamp`` now."""
        if self.host.engine.now < self.mute_until:
            return self.mute_targets, self.mute_stamp
        return (), {}

    # ------------------------------------------------------------------
    def begin(self, spec: "GrayFaultSpec") -> None:
        """A gray fault window opens against this (live) rank."""
        host = self.host
        now = host.engine.now
        host.trace.emit("gray.begin", host.rank, gray=spec.kind,
                        duration=spec.duration)
        if spec.kind == "freeze":
            self._freeze(now + spec.duration)
        elif spec.kind == "stutter":
            self._stutter(spec)
        elif spec.kind == "slow":
            self.slow_until = max(self.slow_until, now + spec.duration)
            self.slow_factor = max(self.slow_factor, spec.factor)
        else:  # mute
            self.mute_until = max(self.mute_until, now + spec.duration)
            targets = spec.targets or range(host.nprocs)
            self.mute_targets = frozenset(
                t for t in targets if t != host.rank)
            self.mute_stamp = ({"gray_drop": True} if spec.drop
                               else {"gray_delay": spec.delay})

    def _stutter(self, spec: "GrayFaultSpec") -> None:
        """Seeded intermittent freezes: alternating frozen/running
        sub-windows drawn from the dedicated ``faults.gray`` substream
        (drawn *at fire time*, so a stutter that never fires leaves the
        run byte-identical to one never scheduled)."""
        host = self.host
        rng = host.cluster.rng.stream("faults.gray")
        now = host.engine.now
        end = now + spec.duration
        t = now
        while t < end:
            freeze_len = float(rng.uniform(1e-4, 6e-4))
            gap = float(rng.uniform(2e-4, 1e-3))
            until = min(t + freeze_len, end)
            if t <= now:
                self._freeze(until)
            else:
                host.later(0.0, self._freeze, until, at=t)
            t = until + gap

    def _freeze(self, until: float) -> None:
        host = self.host
        until = max(until, self.freeze_until)
        if until <= host.engine.now:
            return
        self.freeze_until = until
        host.trace.emit("gray.freeze", host.rank, until=until)
        # a rank force-killed (or dead) mid-freeze never thaws: its
        # buffers died with the incarnation
        host.later(0.0, self._thaw, at=until)

    def _thaw(self) -> None:
        host = self.host
        if host.engine.now < self.freeze_until:
            return  # the freeze was extended; a later thaw is scheduled
        self.freeze_until = 0.0
        out, self.outbound = self.outbound, []
        inbound, self.inbound = self.inbound, []
        effects, self.effects = self.effects, []
        host.trace.emit("gray.thaw", host.rank, sends=len(out),
                        frames=len(inbound))
        host.replay_thawed(out, inbound, effects)
