"""Shared fixtures, hypothesis profiles and protocol-level test doubles."""

from __future__ import annotations

import os
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, settings

from repro.metrics.costs import CostModel

# ----------------------------------------------------------------------
# Hypothesis profiles
#
# Property tests across tests/properties/ share one policy instead of
# duplicating per-file settings: simulation-backed examples legitimately
# take tens of milliseconds each, so wall-clock deadlines are off and
# the too_slow health check is suppressed everywhere.  Individual tests
# still choose their own max_examples (example budget is per-property
# tuning; timing policy is not).
#
# Select with HYPOTHESIS_PROFILE=ci|dev (default: dev).  CI uses the
# derandomized profile so runs are reproducible across the matrix, and
# print_blob so a failing example can be replayed locally verbatim.
# ----------------------------------------------------------------------

settings.register_profile(
    "dev",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
from repro.config import SimulationConfig
from repro.metrics.counters import RankMetrics
from repro.protocols.base import PeerCounts, PreparedSend
from repro.simnet.engine import Engine
from repro.simnet.trace import Trace


class MockServices:
    """Stands in for the endpoint when unit-testing a protocol: the
    whole :class:`~repro.protocols.base.EndpointServices` surface, with
    every control send, resend and window watermark recorded instead of
    touching a network."""

    def __init__(self, rank: int = 0, nprocs: int = 4, epoch: int = 0,
                 compress: bool = False) -> None:
        self.rank = rank
        self.nprocs = nprocs
        self.epoch = epoch
        self.compress_piggybacks = compress
        #: checkpoints to lag sender-log GC by (settable per test)
        self.gc_lag = 0
        self.controls: list[tuple[int, str, Any, int]] = []
        self.resends: list[Any] = []
        #: watermarks and resends in call order: ("watermark", peer,
        #: upto) / ("resend", dest, send_index)
        self.journal: list[tuple[Any, ...]] = []
        self.wakeups = 0

    def incarnation_epoch(self) -> int:
        return self.epoch

    def current_members(self) -> frozenset[int]:
        return frozenset(range(self.nprocs))

    def membership_horizon(self) -> int:
        return self.nprocs

    def send_control(self, dst: int, ctl: str, payload: Any, size_bytes: int) -> None:
        self.controls.append((dst, ctl, payload, size_bytes))

    def broadcast_control(self, ctl: str, payload: Any, size_bytes: int) -> None:
        for dst in range(self.nprocs):
            if dst != self.rank:
                self.send_control(dst, ctl, payload, size_bytes)

    def resend_logged(self, item: Any) -> None:
        self.resends.append(item)
        self.journal.append(("resend", item.dest, item.send_index))

    def peer_watermark(self, peer: int, delivered_upto: int) -> None:
        self.journal.append(("watermark", peer, delivered_upto))

    def wake_delivery(self) -> None:
        self.wakeups += 1

    def checkpoint_gc_lag(self) -> int:
        return self.gc_lag

    def sent(self, ctl: str) -> list[tuple[int, str, Any, int]]:
        """The recorded control sends of kind ``ctl``."""
        return [c for c in self.controls if c[1] == ctl]


class SenderHost:
    """Stands in for the endpoint when unit-testing a send architecture
    (:class:`~repro.core.nonblocking.SendPump`,
    :class:`~repro.core.blocking.BlockingSender`): ``prepare`` assigns
    per-destination send indexes at a settable tracking ``cost``,
    ``ship`` records ``(time, payload, send_index)``, ``later`` drops
    callbacks once the test flips ``alive`` off."""

    def __init__(self, engine: Engine, cost: float = 0.01, **config: Any) -> None:
        self.engine = engine
        self.config = SimulationConfig(**config)
        self.metrics = RankMetrics(rank=0)
        self.cost = cost
        #: payloads the protocol recognises as duplicates (not transmitted)
        self.suppress: set[Any] = set()
        self.prepared: list[Any] = []
        self.shipped: list[tuple[float, Any, int]] = []
        self.alive = True
        self._next_index: dict[int, int] = {}

    def prepare(self, op: Any) -> Any:
        self.prepared.append(op.payload)
        index = self._next_index[op.dest] = self._next_index.get(op.dest, 0) + 1
        return PreparedSend(send_index=index, piggyback=(),
                            piggyback_identifiers=0, cost=self.cost,
                            transmit=op.payload not in self.suppress)

    def ship(self, op: Any, prepared: Any, wire: Any) -> None:
        self.shipped.append((self.engine.now, op.payload, prepared.send_index))

    def later(self, delay: float, fn: Callable[..., None], *args: Any) -> Any:
        return self.engine.schedule(
            delay, lambda: fn(*args) if self.alive else None)


class RecordingTask:
    """An application task double: records when each send completes."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.resumed_at: list[float] = []

    def resume(self, value: Any = None, delay: float = 0.0) -> None:
        self.resumed_at.append(self.engine.now + delay)


def dense(counts: PeerCounts, n: int) -> list[int]:
    """The length-``n`` list a touched-peer map stands for."""
    return [counts[k] for k in range(n)]


def rollback_payload(proto_name: str, ldi: list[int], epoch: int = 0,
                     **fields: Any) -> dict[str, Any]:
    """A ROLLBACK payload shaped like ``proto_name``'s incarnation
    broadcasts it (TDI carries its restored ``interval``, the PWD family
    its ``ckpt_deliver_total``)."""
    own = ({"interval": sum(ldi)} if proto_name == "tdi"
           else {"ckpt_deliver_total": 0})
    return {"ldi": PeerCounts(enumerate(ldi)), "epoch": epoch, **own,
            **fields}


def response_payload(proto_name: str, delivered: int, epoch: int = 0,
                     for_epoch: int = 0, dets: Any = ()) -> dict[str, Any]:
    """A RESPONSE payload shaped like a ``proto_name`` survivor sends it
    (the PWD family adds the determinants it holds)."""
    payload = {"delivered": delivered, "epoch": epoch, "for_epoch": for_epoch}
    if proto_name != "tdi":
        payload["dets"] = list(dets)
    return payload


def make_protocol(name: str, rank: int = 0, nprocs: int = 4,
                  services: MockServices | None = None):
    """Instantiate a protocol against mock services for unit tests."""
    from repro.protocols.registry import create_protocol

    services = services or MockServices(rank=rank, nprocs=nprocs)
    proto = create_protocol(
        name,
        rank,
        nprocs,
        services,
        CostModel(),
        RankMetrics(rank=rank),
        Trace(enabled=False),
    )
    return proto, services


def app_meta(send_index: int, pb: Any, tag: int = 0, size: int = 64,
             ack: str | None = None) -> dict[str, Any]:
    """Frame metadata shaped like the endpoint builds it."""
    return {
        "tag": tag,
        "send_index": send_index,
        "pb": pb,
        "ack": ack,
        "app_size": size,
        "resend": False,
    }


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def mock_services() -> MockServices:
    return MockServices()
