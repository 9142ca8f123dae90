"""Per-rank metric counters and cross-rank aggregation.

The experiment harness derives every figure's y-axis from these counters:

* Fig. 6 — ``piggyback_identifiers / app_sends`` (average identifiers
  piggybacked per application message);
* Fig. 7 — ``tracking_time`` (simulated CPU seconds spent building,
  merging and garbage-collecting dependency metadata);
* Fig. 8 — accomplishment time comes from the run itself, with
  ``blocked_time`` explaining where the blocking architecture loses.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RankMetrics:
    """Counters for one rank (reset on incarnation — volatile state)."""

    rank: int = 0
    # --- message traffic (application level)
    app_sends: int = 0               # app-level sends (transmitted, first time)
    app_sends_suppressed: int = 0    # duplicate sends suppressed in rolling forward
    app_delivers: int = 0
    duplicates_discarded: int = 0
    resends: int = 0                 # middleware-level resends on behalf of a peer
    # --- piggyback accounting (Fig. 6).  Identifier counts and raw
    # bytes are always accounted against the *raw* encoding (identifier
    # arrays), whatever the wire ships — the Fig. 6/7 comparison stays
    # encoding-independent; piggyback_bytes_wire records what the
    # compressed layer actually put on the wire (0 when disabled)
    piggyback_identifiers: int = 0
    piggyback_bytes_raw: int = 0
    piggyback_bytes_wire: int = 0
    delta_fallback_full_sends: int = 0   # compressed sends shipped full
    pb_undecodable_drops: int = 0        # frames dropped pending resend
    # --- tracking time (Fig. 7), simulated seconds
    tracking_time: float = 0.0
    graph_nodes_scanned: int = 0
    # --- logging
    log_items_released: int = 0
    log_bytes_peak: int = 0
    # --- checkpointing
    checkpoints_taken: int = 0
    checkpoint_time: float = 0.0
    # --- stable storage (hostile-device model; all zero on a clean
    # device, and the read-side counters only move on incarnation)
    ckpt_read_time: float = 0.0      # simulated seconds reading generations back
    ckpt_write_failures: int = 0     # visible write-attempt failures
    ckpt_write_retries: int = 0      # backoff retries of failed attempts
    ckpt_skipped: int = 0            # checkpoints abandoned after retry cap
    ckpt_stall_time: float = 0.0     # device stall windows endured
    ckpt_torn_writes: int = 0        # commits that left a torn image
    ckpt_corrupt_generations: int = 0  # images hit by latent bit rot
    storage_fallbacks: int = 0       # recoveries served by an older generation
    storage_exposure_time: float = 0.0  # uncovered span at each skipped ckpt
    # --- blocking / recovery (Fig. 8)
    blocked_time: float = 0.0        # app time spent blocked in sends
    recv_wait_time: float = 0.0      # app time spent waiting in recvs
    recovery_count: int = 0
    rollforward_time: float = 0.0    # failure -> rolling forward complete
    compute_time: float = 0.0
    # --- recovery watchdog
    rollback_retries: int = 0        # ROLLBACK re-broadcasts to silent peers
    recovery_stalls: int = 0         # no-progress episodes the watchdog saw
    recovery_escalations: int = 0    # stalls that hit the escalation deadline
    # --- failure detection / zombie fencing (armed accrual detector)
    zombie_frames_dropped: int = 0   # sends discarded at this rank's fence gate
    # --- reliable transport (repro.simnet.transport), zero when disabled
    rt_retransmits: int = 0          # frames re-sent on timeout or nack
    rt_dup_discards: int = 0         # replayed sequence numbers discarded
    rt_corrupt_rejects: int = 0      # checksum-mismatch frames rejected
    rt_acks_sent: int = 0            # standalone rt-ack frames emitted
    rt_channel_resets: int = 0       # send channels reset on peer re-attach


@dataclass
class MetricsAggregate:
    """System-wide view over a list of :class:`RankMetrics`."""

    per_rank: list[RankMetrics] = field(default_factory=list)

    def total(self, name: str) -> float:
        """Sum of one counter across ranks."""
        return sum(getattr(m, name) for m in self.per_rank)

    def mean(self, name: str) -> float:
        """Per-rank mean of one counter."""
        if not self.per_rank:
            return 0.0
        return self.total(name) / len(self.per_rank)

    # ------------------------------------------------------------------
    # Figure-level derived quantities
    # ------------------------------------------------------------------
    @property
    def piggyback_identifiers_per_message(self) -> float:
        """Fig. 6 y-axis: average identifiers piggybacked per app message."""
        sends = self.total("app_sends")
        if sends == 0:
            return 0.0
        return self.total("piggyback_identifiers") / sends

    @property
    def tracking_time_total(self) -> float:
        """Fig. 7 y-axis: total tracking time across ranks (seconds)."""
        return self.total("tracking_time")

    @property
    def messages_total(self) -> int:
        return int(self.total("app_sends"))


def aggregate(per_rank: list[RankMetrics]) -> MetricsAggregate:
    """Wrap per-rank metrics into a system-wide aggregate."""
    return MetricsAggregate(per_rank=list(per_rank))
