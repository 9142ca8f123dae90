"""The sender-logging spine's contract, asserted once for the family.

Every recoverable protocol in the registry stands on
:class:`repro.core.recovery.SenderLoggingProtocol`; what that spine
promises — stale-epoch filtering, the suppression clamp, the window
watermark *before* the ordered resends, the JOIN re-cover tail, lagged
``CHECKPOINT_ADVANCE`` — must hold for each of them identically, so it
is parametrised here rather than copied per protocol.
"""

import pytest

from repro.core.recovery import CHECKPOINT_ADVANCE, RESPONSE, ROLLBACK
from repro.protocols.registry import available_protocols
from tests.conftest import (MockServices, app_meta, make_protocol,
                            response_payload, rollback_payload)

RECOVERABLE = [name for name in available_protocols() if name != "none"]

family = pytest.mark.parametrize("name", RECOVERABLE)


def empty_piggyback(name: str, nprocs: int = 4):
    """A piggyback carrying no dependency, in ``name``'s own shape."""
    return {
        "tdi": (0,) * nprocs,
        "tel": {"dets": (), "stable": (0,) * nprocs},
        "pess": None,
    }.get(name, {"dets": ()})


def sender_with_log(name: str, dest: int = 2, sends: int = 4):
    p, svc = make_protocol(name, rank=0, nprocs=4)
    for payload in "abcdefgh"[:sends]:
        p.prepare_send(dest, 0, payload, 64)
    return p, svc


def test_registry_lists_the_whole_family():
    assert RECOVERABLE == ["part", "pess", "tag", "tdi", "tel"]


@family
def test_stale_epoch_rollback_is_dropped_without_response(name):
    p, svc = sender_with_log(name)
    p.rollback_last_send_index[2] = 4
    p.vectors.peer_epoch[2] = 2  # rank 2's incarnation 2 already spoke
    p.handle_control(ROLLBACK, src=2,
                     payload=rollback_payload(name, [1, 0, 0, 0], epoch=1))
    assert svc.sent(RESPONSE) == []
    assert svc.journal == []
    assert p.rollback_last_send_index[2] == 4
    assert p.metrics.resends == 0


@family
def test_newer_rollback_clamps_watermarks_then_resends(name):
    # suppression learned from the peer's previous incarnation must
    # drop to its new checkpoint coverage, or re-executed sends the
    # twice-rolled-back peer actually lost would be starved
    p, svc = sender_with_log(name)
    p.vectors.last_deliver_index[2] = 7
    p.rollback_last_send_index[2] = 4
    p.handle_control(ROLLBACK, src=2,
                     payload=rollback_payload(name, [1, 0, 0, 0], epoch=1))
    assert p.rollback_last_send_index[2] == 1
    # the window watermark precedes the resends, which go out in
    # send-index order and cover exactly the uncovered log suffix
    assert svc.journal == [("watermark", 2, 1), ("resend", 2, 2),
                           ("resend", 2, 3), ("resend", 2, 4)]
    assert p.metrics.resends == 3
    [(dst, _, response, _)] = svc.sent(RESPONSE)
    assert dst == 2
    assert (response["delivered"], response["for_epoch"]) == (7, 1)
    assert p.vectors.peer_epoch[2] == 1


@family
def test_response_for_another_incarnation_is_ignored(name):
    p, svc = make_protocol(name, services=MockServices(epoch=1))
    p.begin_recovery()
    p.handle_control(RESPONSE, src=1,
                     payload=response_payload(name, 5, for_epoch=0))
    assert p.rollback_last_send_index[1] == 0
    assert 1 in p._awaiting_response
    p.handle_control(RESPONSE, src=1,
                     payload=response_payload(name, 5, for_epoch=1))
    assert p.rollback_last_send_index[1] == 5
    assert 1 not in p._awaiting_response


@family
def test_join_recovers_the_joiner_through_the_same_tail(name):
    p, svc = sender_with_log(name, sends=3)
    p.handle_control("JOIN", src=2,
                     payload={"epoch": 0, "ldi": [1, 0, 0, 0]})
    assert svc.journal == [("watermark", 2, 1), ("resend", 2, 2),
                           ("resend", 2, 3)]
    assert p.metrics.resends == 2
    assert svc.sent(RESPONSE) == []  # a JOIN is not a rollback


@family
def test_lagged_gc_advertises_the_previous_checkpoints_cover(name):
    p, svc = make_protocol(name, rank=0, nprocs=4)
    svc.gc_lag = 1
    pb = empty_piggyback(name)
    p.on_deliver(app_meta(1, pb), src=1)
    p.after_checkpoint()
    assert svc.sent(CHECKPOINT_ADVANCE) == []
    p.on_deliver(app_meta(2, pb), src=1)
    p.after_checkpoint()
    # the advance rank 1 receives covers the *first* checkpoint only
    [cover] = [payload for dst, _, payload, _ in svc.sent(CHECKPOINT_ADVANCE)
               if dst == 1]
    if name == "tdi":
        assert cover == 1
    else:
        assert (cover["from_counts"][1], cover["stable_upto"]) == (1, 1)
