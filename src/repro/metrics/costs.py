"""The simulated CPU cost model.

The paper's Fig. 7 measures the *time* overhead of dependency tracking.
On real hardware that time is spent serialising piggyback identifiers,
merging vectors/graphs and (for the antecedence-graph protocols)
computing the piggyback increment by traversing the graph.  We model each
of those with an explicit per-unit cost so that the protocols' relative
overheads come out of their *structure* (how many identifiers, how much
graph is scanned) rather than out of Python implementation details.

Values are calibrated to the paper's testbed class (2.3 GHz Athlon):
a few hundred nanoseconds to marshal one 4-byte identifier, tens of
nanoseconds to visit one graph node in an already-built structure.
Absolute values shift every protocol equally; Figs. 6-8 compare
protocols, so only the structure matters.  No run varies them, so they
are module constants; the one cost an experiment sweeps, the event
logger's write latency, is :class:`CostModel`'s field.
"""

from __future__ import annotations

from dataclasses import dataclass

#: marshal or merge one piggyback identifier (one 32-bit int).  A few
#: tens of ns: an int copy plus bounds/bookkeeping, far cheaper than the
#: fixed per-message costs — which is why the paper finds TDI's time
#: overhead "hardly relevant to the node scale" even though its
#: piggyback is linear in n.
PER_IDENTIFIER = 2.0e-8
#: visit one antecedence-graph node while computing a piggyback
#: increment (TAG/TEL); the paper calls this "the calculation of the
#: increment of antecedence graph"
PER_GRAPH_NODE_SCAN = 2.0e-8
#: fixed cost of building one sender-side log item (buffer copy setup)
PER_LOG_APPEND = 5.0e-7
#: log-copy bandwidth for the message payload (memory copy)
LOG_COPY_BANDWIDTH = 1.0e9
#: fixed protocol cost per send / per delivery, excluding piggyback
PER_SEND_BASE = 1.0e-6
PER_DELIVER_BASE = 1.0e-6
#: stable-storage (checkpoint) write: latency + size/bandwidth.  Scaled
#: with the compressed time base (see DESIGN.md): the paper's
#: disk-seek-class latency shrinks with the 180 s -> 0.05 s interval.
CKPT_LATENCY = 5.0e-4
CKPT_BANDWIDTH = 4.0e7
#: reading the checkpoint back on recovery
CKPT_READ_BANDWIDTH = 6.0e7
#: wire size of one identifier.  This prices the *raw* encoding; with
#: ``SimulationConfig.compress_piggybacks`` the frame carries the
#: compressed record's actual byte length instead, while the tracking
#: CPU cost stays raw-identifier-based — the protocol still builds and
#: merges the same logical identifiers either way, and keeping Fig. 7
#: encoding-independent is what makes the raw and compressed runs
#: comparable
IDENTIFIER_BYTES = 4


@dataclass(frozen=True)
class CostModel:
    """Per-operation simulated CPU costs (seconds)."""

    #: stable write latency of the TEL event logger (per determinant
    #: batch); the event-logger-latency ablation sweeps it
    evlog_latency: float = 1.0e-3

    def identifiers_cost(self, count: int) -> float:
        """CPU seconds to marshal/merge ``count`` identifiers."""
        return PER_IDENTIFIER * count

    def log_append_cost(self, payload_bytes: int) -> float:
        """CPU seconds to build one log item incl. payload copy."""
        return PER_LOG_APPEND + payload_bytes / LOG_COPY_BANDWIDTH

    def ckpt_write_time(self, size_bytes: int) -> float:
        """Stable-storage write time for one checkpoint image."""
        return CKPT_LATENCY + size_bytes / CKPT_BANDWIDTH

    def ckpt_read_time(self, size_bytes: int) -> float:
        """Stable-storage read time on recovery."""
        return CKPT_LATENCY + size_bytes / CKPT_READ_BANDWIDTH
