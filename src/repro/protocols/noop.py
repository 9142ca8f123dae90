"""No fault tolerance: the overhead floor.

Messages carry only their per-destination send index (needed by the
transport for FIFO accounting); nothing is logged, nothing can be
recovered.  Runs of this protocol define the failure-free baseline that
the harness normalises overhead figures against.
"""

from __future__ import annotations

from typing import Any

from repro.protocols.base import (
    DeliveryVerdict,
    PreparedSend,
    Protocol,
    VectorState,
)


class NoFaultTolerance(Protocol):
    name = "none"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.vectors = VectorState()

    def prepare_send(self, dest: int, tag: int, payload: Any, size_bytes: int) -> PreparedSend:
        self.vectors.last_send_index[dest] += 1
        return PreparedSend(
            send_index=self.vectors.last_send_index[dest],
            piggyback=None,
            piggyback_identifiers=0,
            cost=0.0,
        )

    def classify(self, frame_meta: dict[str, Any], src: int) -> DeliveryVerdict:
        if frame_meta["send_index"] <= self.vectors.last_deliver_index[src]:
            return DeliveryVerdict.DUPLICATE
        return DeliveryVerdict.DELIVER

    def on_deliver(self, frame_meta: dict[str, Any], src: int) -> float:
        self.vectors.last_deliver_index[src] = frame_meta["send_index"]
        return 0.0

    def checkpoint_state(self) -> dict[str, Any]:
        return {"vectors": self.vectors.snapshot()}

    def checkpoint_log_bytes(self) -> int:
        return 0

    def restore(self, state: dict[str, Any]) -> None:
        raise RuntimeError(
            "the 'none' protocol cannot recover from failures; "
            "run it without fault injection"
        )

    def begin_recovery(self) -> None:
        raise RuntimeError("the 'none' protocol cannot recover from failures")

    def handle_control(self, ctl: str, src: int, payload: Any) -> None:
        raise ValueError(f"'none' protocol got unexpected control frame {ctl!r}")
