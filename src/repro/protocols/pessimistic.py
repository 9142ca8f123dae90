"""PESS — pessimistic receiver-based message logging (extension).

Not one of the paper's measured baselines, but the family its related
work leans on for cross-partition messages ([17] Bouteiller et al.,
correlated-set coordination): every delivery's determinant is written
*synchronously* to stable storage before the application may proceed.

The trade-off is the mirror image of the causal protocols:

* **zero piggyback** — messages carry only their send index, so the
  Fig. 6 metric is minimal by construction;
* **per-delivery stalls** — the application is blocked for a full
  logger round trip on every delivery, so accomplishment time suffers
  exactly where TDI/TAG/TEL are free.  The ablation bench puts this
  next to Fig. 6/7 to show that piggyback volume is not the only axis
  that matters.

Safety argument for the simulation model: the delivery cost charged to
the application is the *estimated* round trip (one-way + write latency
+ one-way), while the determinant frame departs immediately.  Network
jitter is bounded by ``jitter_fraction * BASE_LATENCY`` (< one-way +
write latency), so the determinant is always at the logger — which
stores on arrival and only delays the acknowledgement — before the
application resumes and can emit any message that causally depends on
the delivery.  Hence no orphan is possible and recovery can take the
replay order entirely from the logger's history.

Recovery reuses the PWD machinery: the incarnation queries the event
logger for its delivery history (all of it is stable, so survivors
contribute no determinants — only their RESPONSE for duplicate-send
suppression and their logged payload re-sends).
"""

from __future__ import annotations

from typing import Any

from repro.protocols.pwd import Determinant
from repro.protocols.tel_protocol import EventLoggerClient


class PessimisticProtocol(EventLoggerClient):
    name = "pess"

    def _build_piggyback(self, dest: int) -> tuple[Any, int, float]:
        # nothing but the send index travels with the message
        return None, 0, 0.0

    def _on_deliver_hook(self, det: Determinant, piggyback: Any, src: int) -> float:
        self._log_determinant(det)
        # the synchronous stable write: the application stalls here (the
        # logger's ack is informational — the wait is this delivery cost)
        return self._sync_write_round_trip()

    def _determinants_for(self, failed: int, after_index: int) -> list[Determinant]:
        return []  # everything is stable at the logger; nothing to add

    def _on_checkpoint_advance(self, src: int, stable_upto: int) -> None:
        pass  # no local determinant storage to prune
