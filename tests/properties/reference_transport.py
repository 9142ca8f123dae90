"""The reliable transport's contract, kept as the reference model.

The logging protocols assume what the paper's testbed (MPICH over TCP)
gave them: reliable FIFO channels *between failures*.
``repro.simnet.transport.ReliableTransport`` restores that contract on a
wire that drops, duplicates, corrupts and partitions frames.  This
module states the contract, per (sender, receiver, receiver
incarnation), as plain dicts and lists; ``test_stateful_transport.py``
drives the real transport on a real network and engine and holds what
each attached receiver is handed to it.

1. **Exactly once, in order, while both ends are attached.**  A frame
   handed over while its sender and its receiver are both attached
   belongs to the receiver's current incarnation.  That incarnation is
   handed its frames from each sender once each, in transmit order, and
   nothing else: no frame of another incarnation, no replay, no
   corrupted copy.  Once the wire is healed and every rank is attached
   again, it has been handed all of them.
2. **Wire survival.**  A frame is on the wire once transmitted: its
   sender's death does not take it back.  The protocols need this: a
   send covered by the sender's checkpoint is never re-executed, so no
   other copy exists.
3. **Receive state is per incarnation.**  Killing a rank ends what its
   incarnation is owed.  The next incarnation is owed only what is
   transmitted after it attaches; cross-failure redelivery is the
   logging protocol's job, not the transport's.
4. **An ack from a dead incarnation clears nothing.**  An acknowledgement
   refers to the numbering of the incarnation that minted it, so a
   straggler from a dead one cannot settle a frame its successor never
   received.
5. **``forget_peer`` discards.**  Frames toward a departed rank are
   dropped with their timers; its later rejoin is a fresh incarnation,
   owed nothing from before.
6. **``TransportStallError`` names the channel.**  Past the give-up
   budget a frame's retransmission to a live peer raises, and the
   diagnosis names ``src->dst``.
7. **A mute stamp applies to a frame's first transmission only.**  A
   mute gray fault stamps the frames its sender transmits in the window
   (``gray_drop`` or ``gray_delay`` in ``frame.meta``).  The stamp
   travels on the first copy put on the wire; a retransmission travels
   normally, so a mute-dropped frame on an armed wire is still owed.

How the transport meets it, for a reader of ``transport.py``: on a wire
with no impairment knob set nothing short of a failure can lose,
duplicate or corrupt a frame, so the transport only numbers frames and
tags the destination epoch (``meta["rt"] = {"seq", "de"}``) and adds no
event.  On an impaired wire each directed channel buffers unacked frames
for retransmission on a capped exponential backoff with seeded jitter
(stream ``net.transport``); the receiver delivers in sequence order,
parks early frames, discards replays, rejects checksum mismatches with
an immediate nack, and acks cumulatively — piggybacked on reverse
traffic, or standalone after a delay that adapts to the channel's
inter-arrival gap.
"""

from __future__ import annotations

from repro.simnet.network import MUTE_STAMPS


class ReferenceTransport:
    """What each incarnation is owed, as dicts and lists.

    ``owed[(src, dst, epoch)]`` lists, in transmit order, every frame
    handed over for incarnation ``epoch`` of ``dst`` while both ends
    were attached (rules 1 and 2); ``attached[rank]`` is the epoch of
    the rank's attached incarnation, absent while it is down or gone
    (rules 3 and 5).  ``stamped[key]`` counts the transmissions that
    carried mute stamp ``key`` (rule 7).
    """

    def __init__(self) -> None:
        self.attached: dict[int, int] = {}
        self.owed: dict[tuple[int, int, int], list] = {}
        self.stamped = {key: 0 for key in MUTE_STAMPS}

    # ------------------------------------------------------------------
    # What happens
    # ------------------------------------------------------------------
    def transmit(self, src: int, dst: int, payload, stamp: str | None = None) -> None:
        """``src`` hands ``payload`` to the transport for ``dst``."""
        assert src in self.attached, "a detached rank transmits nothing"
        if stamp is not None:
            self.stamped[stamp] += 1
        if dst in self.attached:
            self.owed.setdefault((src, dst, self.attached[dst]), []).append(payload)

    def detach(self, rank: int) -> None:
        """``rank`` died: its incarnation is owed nothing more (rule 3);
        what it transmitted stays on the wire (rule 2)."""
        self.attached.pop(rank, None)

    def forget_peer(self, rank: int) -> None:
        """``rank`` left: frames toward it are discarded (rule 5)."""
        self.attached.pop(rank, None)

    def attach(self, rank: int, epoch: int) -> None:
        """Incarnation ``epoch`` of ``rank`` attached, owed nothing yet."""
        self.attached[rank] = epoch

    # ------------------------------------------------------------------
    # What must hold
    # ------------------------------------------------------------------
    def check_delivered(self, delivered: dict[tuple[int, int, int], list]) -> None:
        """Rule 1, at any instant: what each incarnation was handed from
        each sender is a prefix of what it is owed."""
        for key, got in delivered.items():
            owed = self.owed.get(key, [])
            assert got == owed[:len(got)], (
                f"{key[0]}->{key[1]} (epoch {key[2]}) was handed {got}, "
                f"owed {owed}")

    def check_settled(self, delivered: dict[tuple[int, int, int], list]) -> None:
        """Rule 1, on a healed wire with every rank attached: every
        attached incarnation has been handed all it is owed."""
        self.check_delivered(delivered)
        for (src, dst, epoch), owed in self.owed.items():
            if self.attached.get(dst) == epoch:
                got = delivered.get((src, dst, epoch), [])
                assert got == owed, (
                    f"{src}->{dst} (epoch {epoch}) settled with {got}, "
                    f"owed {owed}")

    def check_stamps(self, on_the_wire: dict[str, int]) -> None:
        """Rule 7: each stamped transmission put exactly one stamped
        copy on the wire."""
        assert on_the_wire == self.stamped, (
            f"stamped copies on the wire {on_the_wire}, stamped "
            f"transmissions {self.stamped}")

    @staticmethod
    def check_stall(message: str, src: int, dst: int) -> None:
        """Rule 6: the diagnosis names the channel."""
        assert f"channel {src}->{dst}" in message, message
