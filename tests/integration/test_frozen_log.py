"""A compressed TDI log keeps frozen vectors; a resend ships what was sent.

The log item of a compressed send holds a ``FrozenVector``, not the
piggyback, so a resend thaws it.  What must not change: the piggyback a
resend carries — on the wire and in the ``verify.send`` event the oracle
hears — is the one the first send carried, tags included; and nothing
thaws except a resend.
"""

from unittest import mock

import pytest

from repro import api
from repro.core.vectors import FrozenVector, TaggedPiggyback
from repro.verify.oracle import CausalOracle

ONE_KILL = [api.FaultSpec(rank=1, at_time=0.003)]
#: the second rollback resends items logged after the first: tagged ones
TWO_KILLS = ONE_KILL + [api.FaultSpec(rank=2, at_time=0.006)]


def _run(faults, **observe):
    config = api.SimulationConfig(
        nprocs=8, protocol="tdi", seed=21, checkpoint_interval=0.002,
        compress_piggybacks=True, **observe)
    return api.run_workload("lu", config=config, faults=faults)


@pytest.mark.parametrize("faults, tagged", [(ONE_KILL, False),
                                            (TWO_KILLS, True)],
                         ids=["one-kill", "two-kills"])
def test_the_oracle_hears_a_resend_as_it_was_first_sent(faults, tagged):
    run = _run(faults, verify=True, trace_enabled=True)
    assert run.violations == []
    oracle = CausalOracle(8)
    first, resends = {}, []
    for ev in run.trace.select("verify.send"):
        key = ev.rank, ev["dest"], ev["send_index"]
        if not ev["resend"]:
            first[key] = ev["pb"]  # a re-execution's send replaces it
            continue
        resends.append(ev)
        pb = ev["pb"]
        assert type(pb) is TaggedPiggyback and oracle._is_depend_vector(pb)
        assert pb == first[key] and pb.epochs == first[key].epochs
        assert pb.tagged == first[key].tagged
    assert len(resends) == run.stats.total("resends") > 0
    assert any(ev["pb"].tagged for ev in resends) is tagged


def test_nothing_thaws_but_a_resend():
    thaw = FrozenVector.thaw
    with mock.patch.object(FrozenVector, "thaw", autospec=True,
                           side_effect=thaw) as thawed:
        run = _run(TWO_KILLS)
    assert thawed.call_count == run.stats.total("resends") > 0
    with mock.patch.object(FrozenVector, "thaw", autospec=True,
                           side_effect=thaw) as thawed:
        _run(None)
    assert thawed.call_count == 0
