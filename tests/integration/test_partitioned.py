"""PART — partition-based causal logging: correctness and the
scalability trade-off it was invented for."""

import pytest

from repro import api
from repro.config import SimulationConfig
from repro.mpi.cluster import Cluster
from repro.protocols.partitioned import PartitionedProtocol
from repro.workloads.presets import workload_factory
from tests.conftest import app_meta, make_protocol


class TestGrouping:
    def test_group_of(self):
        p, _ = make_protocol("part", rank=0, nprocs=8)
        assert [p.group_of(r) for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert p.same_group(3) and not p.same_group(4)


class TestHybridBehaviour:
    def test_cross_group_sends_carry_nothing(self):
        p, _ = make_protocol("part", rank=0, nprocs=8)
        p.on_deliver(app_meta(1, {"dets": ()}), src=1)  # intra delivery
        intra = p.prepare_send(2, 0, "x", 64)
        cross = p.prepare_send(5, 0, "x", 64)
        assert len(intra.piggyback["dets"]) == 1
        assert cross.piggyback["dets"] == ()
        assert cross.piggyback_identifiers == 1  # send index only

    def test_cross_group_delivery_is_pessimistic(self):
        p, svc = make_protocol("part", rank=0, nprocs=8)
        intra_cost = p.on_deliver(app_meta(1, {"dets": ()}), src=1)
        cross_cost = p.on_deliver(app_meta(1, {"dets": ()}), src=5)
        assert cross_cost > 50 * intra_cost
        evlogs = [c for c in svc.controls if c[1] == "EVLOG"]
        assert len(evlogs) == 1 and evlogs[0][0] == 8  # only the cross one

    def test_intra_group_determinants_stay_in_group(self):
        p, _ = make_protocol("part", rank=0, nprocs=8)
        p.on_deliver(app_meta(1, {"dets": ()}), src=1)
        assert p._determinants_for(2, 0) == []  # nothing held for rank 2
        # our own delivery event is in our graph (it piggybacks onward)
        assert [d.receiver for d in p._determinants_for(0, 0)] == [0]
        # a group peer's event learned via piggyback is returned for it:
        from repro.protocols.pwd import Determinant

        det = Determinant(receiver=2, deliver_index=1, sender=1, send_index=1)
        p.on_deliver(app_meta(2, {"dets": (det,)}), src=1)
        assert p._determinants_for(2, 0) == [det]
        assert p._determinants_for(5, 0) == []  # cross-group: logger's job


class TestPiggybackScaling:
    def test_piggyback_tracks_group_not_system(self):
        """The scalability fix of [15]: doubling the system size leaves
        PART's piggyback roughly flat while TAG's grows."""
        def pb(protocol, nprocs):
            r = api.run_workload("lu", nprocs=nprocs, protocol=protocol, seed=41,
                                 checkpoint_interval=0.01)
            return r.stats.piggyback_identifiers_per_message

        part_growth = pb("part", 16) / pb("part", 8)
        tag_growth = pb("tag", 16) / pb("tag", 8)
        assert part_growth < tag_growth


class TestRecovery:
    @pytest.mark.parametrize("workload", ("synthetic", "lu", "reduce"))
    @pytest.mark.parametrize("victim", (1, 6))
    def test_single_fault(self, workload, victim):
        ref = api.run_workload(workload, nprocs=8, protocol="tdi", seed=43).results
        r = api.run_workload(workload, nprocs=8, protocol="part", seed=43,
                             faults=[api.FaultSpec(rank=victim, at_time=0.003)])
        assert r.results == ref

    def test_group_width_two(self):
        class Narrow(PartitionedProtocol):
            group_size = 2

        cfg = SimulationConfig(nprocs=8, protocol="part", seed=44)
        cluster = Cluster(cfg, workload_factory("synthetic", scale="fast"))
        # narrow the groups on every endpoint before starting
        for ep in cluster.endpoints:
            ep.protocol.__class__ = Narrow
        ref = api.run_workload("synthetic", nprocs=8, protocol="tdi", seed=44)
        result = cluster.run([api.FaultSpec(rank=3, at_time=0.003)])
        assert result.results == ref.results
