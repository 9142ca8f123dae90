"""Per-rank state is O(touched peers), and shared state is never
mutated through a reference.

The membership view hands every protocol the *same* frozenset; a rank
whose own view diverges rebinds its reference.  The per-peer index maps
store touched peers only.  What is left capacity-sized per rank is the
depend-interval vector and its stamp array (16 B per entry), so the
bytes a ``Cluster`` allocates per rank may grow only slowly with n.
"""

import gc
import tracemalloc

import pytest

from repro import api
from repro.config import SimulationConfig
from repro.faults.injector import FaultSpec, JoinSpec
from repro.mpi.cluster import Cluster
from repro.protocols.base import MEMBER_LEAVE, MembershipView
from repro.workloads.presets import workload_factory


def _ring_cluster(nprocs):
    config = SimulationConfig(nprocs=nprocs, protocol="tdi", seed=1,
                              checkpoint_interval=10.0,
                              compress_piggybacks=True)
    return Cluster(config, workload_factory(
        "synthetic", scale="fast", pattern="ring", rounds=6))


class TestMembershipAliasing:
    N = 6

    def _cluster(self):
        cluster = _ring_cluster(self.N)
        cluster.membership.observe_leave(4)   # the view: everyone but 4
        for endpoint in cluster.endpoints:
            endpoint._sync_membership()
        return cluster

    @pytest.mark.parametrize("diverge", [
        lambda p, view: p.grow_membership(4),
        lambda p, view: p.handle_control(MEMBER_LEAVE, 2, {"epoch": 0}),
        lambda p, view: p.sync_membership(frozenset({0, 1}), 2),
        lambda p, view: p.restore_membership(
            {"members": frozenset({0, 3}), "horizon": 4}),
    ], ids=["grow", "leave", "sync", "restore"])
    def test_one_ranks_divergence_stays_its_own(self, diverge):
        cluster = self._cluster()
        view = cluster.membership.current_members()
        expected = frozenset(range(self.N)) - {4}
        protocols = [e.protocol for e in cluster.endpoints]
        # shared by reference until a view diverges (rank 4 left: its
        # own set is the view plus itself)
        assert all(p.members is view for p in protocols if p.rank != 4)
        diverge(protocols[1], view)
        assert protocols[1].members != expected
        assert cluster.membership.current_members() is view
        assert view == expected
        for p in protocols:
            if p.rank not in (1, 4):
                assert p.members is view
        assert protocols[4].members == expected | {4}

    def test_view_changes_leave_handed_out_sets_alone(self):
        view = MembershipView(4)
        before = view.current_members()
        assert view.current_members() is before   # cached, not copied
        view.observe_leave(2)
        after_leave = view.current_members()
        view.observe_join(2)
        view.observe_join(5)
        view.defer(0)
        assert before == {0, 1, 2, 3}
        assert after_leave == {0, 1, 3}
        assert view.current_members() == {1, 2, 3, 5}
        assert view.horizon == 6

    def test_checkpoint_keeps_the_set_not_a_copy(self):
        cluster = self._cluster()
        protocol = cluster.endpoints[0].protocol
        snap = protocol.membership_snapshot()
        assert snap["members"] is protocol.members
        protocol.grow_membership(4)
        assert 4 not in snap["members"]
        protocol.restore_membership(snap)
        assert protocol.members is snap["members"]


def _construction_bytes_per_rank(nprocs):
    gc.collect()
    tracemalloc.start()
    try:
        cluster = _ring_cluster(nprocs)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cluster.endpoints) == nprocs
    return traced / nprocs


def test_cluster_footprint_per_rank_is_not_linear_in_n():
    """Doubling n doubles the depend-interval vector and its stamp array
    (16 B per entry) and nothing else per rank: 8.9 -> 10.8 KB/rank
    (1.22x) measured here, 22.3 -> 37.5 KB/rank (1.68x) when the index
    vectors and each rank's member set were length-n containers."""
    _ring_cluster(8)   # one-off imports and caches stay out of the count
    small = _construction_bytes_per_rank(128)
    large = _construction_bytes_per_rank(256)
    assert large / small < 1.45, (small, large)


#: protocol -> (control frames, control bytes, log items released, peak
#: log bytes, accomplishment time) of LU-6 ``fast`` with a late
#: first-ever join and a kill, recorded when the index vectors were
#: length-n lists and every modelled size was a ``len()`` of one
MODELLED = {
    "tdi": (59, 556, 294, 57360, 0.03176291663456287),
    "tag": (105, 3220, 294, 57360, 0.033703002700439084),
    "tel": (845, 10640, 294, 57360, 0.03283796194583517),
}


@pytest.mark.parametrize("protocol", sorted(MODELLED))
def test_modelled_control_bytes_and_gc_do_not_move(protocol):
    """ROLLBACK, JOIN and CKPT_ADV frames are sized from capacity, and a
    GC cover that has not touched a peer releases nothing of its log —
    whatever the payload's container holds.  (No golden pins a PWD
    run's timing or a JOIN frame's size: ``test_membership_golden``
    compares counters only, ``test_endpoint_golden`` runs TDI only.)"""
    config = api.SimulationConfig(nprocs=6, protocol=protocol, seed=3,
                                  checkpoint_interval=0.004)
    run = api.run_workload(
        "lu", scale="fast", config=config,
        faults=[JoinSpec(rank=5, at_time=0.004),
                FaultSpec(rank=2, at_time=0.009)])
    per_rank = run.stats.per_rank
    assert (run.network.ctl_frames, run.network.ctl_bytes,
            sum(m.log_items_released for m in per_rank),
            max(m.log_bytes_peak for m in per_rank),
            run.accomplishment_time) == MODELLED[protocol]
