"""Rollback-recovery protocol framework and baseline protocols.

* :mod:`repro.protocols.base` — the :class:`Protocol` hook interface every
  logging protocol implements, plus the shared frame-metadata conventions.
* :mod:`repro.protocols.queue` — the receiving queue (the paper's queue B)
  with protocol-gated delivery scanning.
* :mod:`repro.protocols.checkpoint` — the stable-storage checkpoint model.
* :mod:`repro.protocols.noop` — no fault tolerance (overhead floor).
* :mod:`repro.protocols.tag_protocol` — TAG: antecedence-graph causal
  logging (Manetho/LogOn style), the first comparison baseline.
* :mod:`repro.protocols.tel_protocol` — TEL: event-logger-based causal
  logging (Bouteiller et al.), the second comparison baseline.

The paper's own protocol, TDI, lives in :mod:`repro.core` since it is the
contribution under reproduction.
"""

from repro.protocols.base import (
    Protocol,
    PreparedSend,
    DeliveryVerdict,
    EndpointServices,
)
from repro.protocols.checkpoint import Checkpoint, CheckpointStore
from repro.protocols.queue import ReceivingQueue
from repro.protocols.registry import available_protocols, create_protocol

__all__ = [
    "Protocol",
    "PreparedSend",
    "DeliveryVerdict",
    "EndpointServices",
    "Checkpoint",
    "CheckpointStore",
    "ReceivingQueue",
    "available_protocols",
    "create_protocol",
]
