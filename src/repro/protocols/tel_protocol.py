"""TEL — causal logging with an event logger (paper baseline [5]).

Bouteiller et al. add a stable-storage *event logger* to causal message
logging: every delivery's determinant is sent asynchronously to the
logger, and a determinant stops being piggybacked as soon as it is known
stable there.  Piggyback volume therefore tracks the set of determinants
inside the "stability window" — the deliveries that happened within
roughly one logger round-trip — plus a small stability vector used to
gossip which prefixes are stable.  That places TEL between TAG
(piggyback until *everyone* is known to hold the determinant) and TDI
(no determinants at all) in both Fig. 6 and Fig. 7, at the price of the
extra logger node and its notification traffic.

Recovery: the incarnation queries the logger for its stable delivery
history and collects survivors' unstable determinants with the ROLLBACK
responses; the union fixes the replay order (any event beyond it was
observed by nobody and may replay freely).

As with TAG, determinants are not epoch-tagged: the recovery barrier
(survivor answers + logger history) is re-run per incarnation, so stale
replay records cannot wedge the gate; epoch stamping is confined to the
ROLLBACK/RESPONSE frames of the family's shared spine.

This module also houses both ends of the event-logger conversation:
:class:`EventLoggerClient`, the one client TEL, PESS and PART share, and
:class:`EventLoggerService`, the stable-storage node it talks to.
"""

from __future__ import annotations

from typing import Any

from repro.core.recovery import DET_IDENTIFIERS
from repro.metrics.costs import (IDENTIFIER_BYTES, PER_GRAPH_NODE_SCAN,
                                 CostModel)
from repro.protocols.pwd import Determinant, PwdCausalProtocol
from repro.simnet.engine import Engine
from repro.simnet.network import (BANDWIDTH_BYTES_PER_S, BASE_LATENCY, Frame,
                                  Network)
from repro.simnet.trace import Trace

EVLOG = "EVLOG"
EVLOG_ACK = "EVLOG_ACK"
EVLOG_QUERY = "EVLOG_QUERY"
EVLOG_HISTORY = "EVLOG_HISTORY"
EVLOG_PRUNE = "EVLOG_PRUNE"


class EventLoggerClient(PwdCausalProtocol):
    """A PWD protocol whose recovery barrier has an event-logger leg:
    determinants go to the logger node (``EVLOG``), recovery queries its
    stable history (``EVLOG_QUERY`` → ``EVLOG_HISTORY``), and checkpoints
    bound its store (``EVLOG_PRUNE``)."""

    needs_logger = True

    @property
    def logger_rank(self) -> int:
        """The event-logger service node sits just past the app ranks."""
        return self.nprocs

    def _log_determinant(self, det: Determinant) -> None:
        self.services.send_control(
            self.logger_rank, EVLOG, det,
            DET_IDENTIFIERS * IDENTIFIER_BYTES,
        )

    def _sync_write_round_trip(self) -> float:
        """Deterministic upper estimate of the logger round trip a
        synchronous stable write blocks the application for."""
        det_bytes = DET_IDENTIFIERS * IDENTIFIER_BYTES
        # the wire's latency and bandwidth, plus the default jitter bound
        # of half a base latency, which the write latency absorbs (see
        # the pessimistic module docstring's safety argument)
        one_way = (BASE_LATENCY + det_bytes / BANDWIDTH_BYTES_PER_S
                   + 0.5 * BASE_LATENCY)
        return 2.0 * one_way + self.costs.evlog_latency

    def _on_logger_ack(self, stable_upto: int) -> None:
        """The logger holds our determinants up to ``stable_upto``
        (informational unless the protocol tracks stability)."""

    def after_checkpoint(self) -> None:
        super().after_checkpoint()
        self.services.send_control(
            self.logger_rank, EVLOG_PRUNE,
            {"owner": self.rank, "upto": self.deliver_total},
            2 * IDENTIFIER_BYTES,
        )

    # ------------------------------------------------------------------
    def _request_history(self) -> None:
        self._history_pending = True
        self.services.send_control(
            self.logger_rank, EVLOG_QUERY, {"after": self.deliver_total},
            2 * IDENTIFIER_BYTES,
        )

    def begin_recovery(self) -> None:
        self._request_history()
        super().begin_recovery()

    def retry_recovery(self, targets: set[int] | None = None) -> None:
        if self._history_pending:
            self._request_history()
        super().retry_recovery(targets)

    def handle_control(self, ctl: str, src: int, payload: Any) -> None:
        if ctl == EVLOG_ACK:
            self._on_logger_ack(payload)
        elif ctl == EVLOG_HISTORY:
            self._history_pending = False
            self._note_replay_order(payload)
        else:
            super().handle_control(ctl, src, payload)


class TelProtocol(EventLoggerClient):
    name = "tel"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: (receiver, deliver_index) -> Determinant: unstable determinants
        #: in our causal past (ours and foreign ones seen via piggyback)
        self.unstable: dict[tuple[int, int], Determinant] = {}
        #: per-rank highest deliver_index known stable at the logger
        self.stable_vector = [0] * self.nprocs

    # ------------------------------------------------------------------
    def _build_piggyback(self, dest: int) -> tuple[Any, int, float]:
        # all not-yet-stable determinants of the causal past are carried,
        # including the receiver's own (the conservative behaviour the
        # paper's §II.B arithmetic assumes)
        dets = list(self.unstable.values())
        scanned = len(self.unstable)
        self.metrics.graph_nodes_scanned += scanned
        # determinants + the n-entry stability vector
        identifiers = DET_IDENTIFIERS * len(dets) + self.nprocs
        extra_cost = PER_GRAPH_NODE_SCAN * scanned
        piggyback = {"dets": tuple(dets), "stable": tuple(self.stable_vector)}
        return piggyback, identifiers, extra_cost

    def _on_deliver_hook(self, det: Determinant, piggyback: Any, src: int) -> float:
        # gossip: learn stability the sender knew about
        for k, stable in enumerate(piggyback["stable"]):
            if stable > self.stable_vector[k]:
                self.stable_vector[k] = stable
        # our new determinant: unstable until the logger acknowledges
        self.unstable[det.key] = det
        self._log_determinant(det)
        merged = 0
        for d in piggyback["dets"]:
            if d.deliver_index > self.stable_vector[d.receiver] and d.key not in self.unstable:
                self.unstable[d.key] = d
                merged += 1
        self._prune_unstable()
        return self.costs.identifiers_cost(DET_IDENTIFIERS * merged) + (
            PER_GRAPH_NODE_SCAN * len(piggyback["dets"])
        )

    def _prune_unstable(self) -> None:
        dead = [
            key
            for key in self.unstable
            if key[1] <= self.stable_vector[key[0]]
        ]
        for key in dead:
            del self.unstable[key]

    # ------------------------------------------------------------------
    def _determinants_for(self, failed: int, after_index: int) -> list[Determinant]:
        return sorted(
            (
                det
                for det in self.unstable.values()
                if det.receiver == failed and det.deliver_index > after_index
            ),
            key=lambda d: d.deliver_index,
        )

    def _on_checkpoint_advance(self, src: int, stable_upto: int) -> None:
        # a checkpoint makes those deliveries permanent — at least as
        # good as logger-stable
        if stable_upto > self.stable_vector[src]:
            self.stable_vector[src] = stable_upto
        self._prune_unstable()

    def _on_logger_ack(self, stable_upto: int) -> None:
        self._on_checkpoint_advance(self.rank, stable_upto)

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        state = super().checkpoint_state()
        state["unstable"] = dict(self.unstable)
        state["stable_vector"] = list(self.stable_vector)
        return state

    def restore(self, state: dict[str, Any]) -> None:
        super().restore(state)
        self.unstable = dict(state["unstable"])
        self.stable_vector = list(state["stable_vector"])


class EventLoggerService:
    """The stable-storage event-logger node (never fails).

    Determinants arrive asynchronously (``EVLOG``), become stable after
    the modelled write latency, and are acknowledged to their owner with
    the highest contiguously-stable deliver index.  On recovery a rank
    queries its history (``EVLOG_QUERY`` → ``EVLOG_HISTORY``); checkpoint
    notifications (``EVLOG_PRUNE``) bound the store.
    """

    def __init__(
        self,
        rank: int,
        engine: Engine,
        network: Network,
        costs: CostModel,
        trace: Trace,
    ) -> None:
        self.rank = rank
        self.engine = engine
        self.network = network
        self.costs = costs
        self.trace = trace
        #: owner rank -> {deliver_index: Determinant} (stable only)
        self.store: dict[int, dict[int, Determinant]] = {}
        self.writes = 0
        network.attach(rank, self._on_frame)

    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        if frame.kind != "ctl":
            return  # the logger speaks only the control vocabulary
        ctl = frame.meta["ctl"]
        if ctl == EVLOG:
            det: Determinant = frame.payload
            # the determinant is durable once it reaches the logger; the
            # write latency only delays the acknowledgement
            owned = self.store.setdefault(det.receiver, {})
            owned[det.deliver_index] = det
            self.writes += 1
            self.engine.schedule(
                self.costs.evlog_latency, lambda: self._ack(det)
            )
        elif ctl == EVLOG_QUERY:
            history = sorted(
                (
                    det
                    for di, det in self.store.get(frame.src, {}).items()
                    if di > frame.payload["after"]
                ),
                key=lambda d: d.deliver_index,
            )
            size = (1 + DET_IDENTIFIERS * len(history)) * IDENTIFIER_BYTES
            reply = Frame(
                "ctl", self.rank, frame.src, history, size, {"ctl": EVLOG_HISTORY}
            )
            self.network.transmit(reply)
        elif ctl == EVLOG_PRUNE:
            owned = self.store.get(frame.payload["owner"], {})
            upto = frame.payload["upto"]
            for di in [di for di in owned if di <= upto]:
                del owned[di]
        else:
            raise ValueError(f"event logger got unexpected control {ctl!r}")

    def _ack(self, det: Determinant) -> None:
        # per-owner FIFO channels make the deliver_index a stable prefix
        ack = Frame(
            "ctl",
            self.rank,
            det.receiver,
            det.deliver_index,
            IDENTIFIER_BYTES,
            {"ctl": EVLOG_ACK},
        )
        self.network.transmit(ack)
