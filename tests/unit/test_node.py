"""Unit tests for node liveness and incarnation epochs."""

import pytest

from repro.simnet.node import Node, NodeSet, NodeState


class TestNode:
    def test_initially_alive_epoch_zero(self):
        node = Node(rank=3)
        assert node.alive and node.epoch == 0 and node.failures == 0

    def test_kill_records_failure(self):
        node = Node(rank=0)
        node.kill(now=1.5)
        assert not node.alive
        assert node.failures == 1
        assert node.death_times == [1.5]

    def test_double_kill_rejected(self):
        node = Node(rank=0)
        node.kill(now=1.0)
        with pytest.raises(RuntimeError):
            node.kill(now=2.0)

    def test_revive_increments_epoch(self):
        node = Node(rank=0)
        node.kill(now=1.0)
        assert node.revive(now=2.0) == 1
        assert node.alive and node.epoch == 1
        assert node.recovery_times == [2.0]

    def test_revive_alive_rejected(self):
        node = Node(rank=0)
        with pytest.raises(RuntimeError):
            node.revive(now=1.0)

    def test_kill_revive_cycles(self):
        node = Node(rank=0)
        for i in range(3):
            node.kill(now=float(i))
            node.revive(now=float(i) + 0.5)
        assert node.epoch == 3 and node.failures == 3


class TestNodeSet:
    def test_len_and_indexing(self):
        nodes = NodeSet(4)
        assert len(nodes) == 4
        assert nodes[2].rank == 2

    def test_alive_and_dead_ranks(self):
        nodes = NodeSet(4)
        nodes[1].kill(now=0.0)
        nodes[3].kill(now=0.0)
        assert [n.rank for n in nodes.nodes if n.alive] == [0, 2]
        assert [n.rank for n in nodes.nodes if not n.alive] == [1, 3]

    def test_state_enum(self):
        nodes = NodeSet(1)
        assert nodes[0].state is NodeState.ALIVE

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NodeSet(0)


class TestMembershipStates:
    def test_defer_then_join(self):
        node = Node(rank=2)
        node.defer()
        assert node.state is NodeState.UNJOINED and not node.alive
        node.join(now=0.5)
        assert node.alive and node.epoch == 0
        assert node.recovery_times == [0.5]

    def test_defer_requires_fresh_node(self):
        node = Node(rank=0)
        node.kill(now=1.0)
        node.revive(now=2.0)
        with pytest.raises(RuntimeError):
            node.defer()

    def test_join_requires_unjoined(self):
        node = Node(rank=0)
        with pytest.raises(RuntimeError):
            node.join(now=1.0)

    def test_leave_is_not_a_failure(self):
        node = Node(rank=1)
        node.leave(now=2.0)
        assert node.state is NodeState.LEFT and not node.alive
        assert node.failures == 0
        assert node.death_times == [2.0]

    def test_left_node_cannot_be_killed_or_leave_again(self):
        node = Node(rank=1)
        node.leave(now=1.0)
        with pytest.raises(RuntimeError):
            node.kill(now=2.0)
        with pytest.raises(RuntimeError):
            node.leave(now=2.0)

    def test_rejoin_via_revive_bumps_epoch(self):
        node = Node(rank=1)
        node.leave(now=1.0)
        assert node.revive(now=2.0) == 1
        assert node.alive and node.epoch == 1

    def test_unjoined_node_cannot_revive(self):
        node = Node(rank=1)
        node.defer()
        with pytest.raises(RuntimeError):
            node.revive(now=1.0)
