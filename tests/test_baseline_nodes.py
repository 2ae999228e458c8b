"""Node-level behaviour tests for the baseline systems."""

from repro.baselines import bittorrent, bullet, splitstream
from repro.baselines.bittorrent import BitTorrentConfig, BitTorrentNode, Tracker
from repro.baselines.splitstream import (
    SplitStreamConfig,
    SplitStreamNode,
    build_stripe_forest,
)
from repro.harness.experiment import run_experiment
from repro.harness.systems import bullet_factory
from repro.sim.engine import Simulator
from repro.sim.tcp import FlowNetwork
from repro.sim.topology import mesh_topology
from repro.sim.trace import TraceCollector
from repro.sim.transport import Network


def _bt_swarm(num_nodes=8, num_blocks=32, seed=3, **overrides):
    sim = Simulator()
    topo = mesh_topology(num_nodes, seed=seed)
    net = Network(sim, topo, FlowNetwork(sim))
    trace = TraceCollector(sim, num_blocks)
    config = BitTorrentConfig(num_blocks=num_blocks, seed=seed, **overrides)
    tracker = Tracker(seed=seed)
    nodes = {
        n: BitTorrentNode(net, n, tracker, 0, config, trace)
        for n in topo.nodes
    }
    for node in nodes.values():
        node.start()
    return sim, nodes, trace


class TestBitTorrentChoking:
    def test_unchoke_slots_bounded(self):
        sim, nodes, _ = _bt_swarm()
        violations = []

        def audit():
            for node in nodes.values():
                unchoked = sum(
                    1 for p in node.peers.values() if not p.am_choking
                )
                limit = bittorrent.UNCHOKE_SLOTS + 1  # + optimistic
                if unchoked > limit:
                    violations.append((node.node_id, unchoked))
            return True

        sim.schedule_periodic(5.0, audit)
        sim.run(until=200.0)
        assert not violations

    def test_choke_cancels_outstanding(self):
        sim, nodes, _ = _bt_swarm()
        sim.run(until=60.0)
        for node in nodes.values():
            for p in node.peers.values():
                if p.peer_choking:
                    assert not p.outstanding, (
                        "requests must be cancelled on choke"
                    )

    def test_outstanding_respects_fixed_depth(self):
        sim, nodes, _ = _bt_swarm()
        violations = []

        def audit():
            for node in nodes.values():
                for p in node.peers.values():
                    if len(p.outstanding) > bittorrent.OUTSTANDING_PER_PEER:
                        violations.append(len(p.outstanding))
            return True

        sim.schedule_periodic(2.0, audit)
        sim.run(until=120.0)
        assert not violations

    def test_have_broadcast_overhead_exists(self):
        sim, nodes, _ = _bt_swarm()
        sim.run(until=200.0)
        total_haves = sum(n.stats["have_messages"] for n in nodes.values())
        # Every fresh block at every node broadcasts to its peers.
        assert total_haves > 32 * 4

    def test_swarm_completes_and_seeds(self):
        sim, nodes, trace = _bt_swarm()
        sim.run(until=600.0)
        finished = [n for n in nodes.values() if n.state.complete]
        assert len(finished) == len(nodes)
        served_by_receivers = sum(
            n.stats["blocks_served"]
            for n in nodes.values()
            if n.node_id != 0
        )
        assert served_by_receivers > 0, "peers must upload, not just leech"


class TestSplitStreamBlocking:
    @staticmethod
    def _throttled_stripe(until):
        # One node with two children on asymmetric links: stripe 0
        # feeds 1 (fast link) and 2 (20 KB/s link).
        sim = Simulator()
        topo = mesh_topology(4, seed=1, max_loss=0.0)
        # Throttle 0 -> 2 core link hard.
        topo.core[(0, 2)].capacity = 20_000.0
        net = Network(sim, topo, FlowNetwork(sim))
        trace = TraceCollector(sim, 64)
        config = SplitStreamConfig(num_blocks=64, num_stripes=2, seed=1)
        forest = {
            0: {0: [1, 2], 1: [3]},
            1: {0: [3], 3: [1, 2]},
        }
        nodes = {
            n: SplitStreamNode(net, n, forest, 0, config, trace)
            for n in topo.nodes
        }
        for node in nodes.values():
            node.start()
        sim.run(until=until)
        return nodes, trace

    def test_backlog_stalls_propagate(self):
        # The stripe stalls at the slow child's pace (blocking multicast).
        nodes, _trace = self._throttled_stripe(until=30.0)
        # Stripe 0 feeds both 1 (fast link) and 2 (20 KB/s link): the
        # blocking multicast holds the fast child to the slow child's
        # pace, and the whole stripe runs far behind stripe 1.
        fast_s0 = len([b for b in nodes[1].state.blocks() if b % 2 == 0])
        slow_s0 = len([b for b in nodes[2].state.blocks() if b % 2 == 0])
        fast_s1 = len([b for b in nodes[1].state.blocks() if b % 2 == 1])
        assert slow_s0 > 0
        assert fast_s0 <= slow_s0 + splitstream.PUSH_WINDOW + 2
        # ~20 KB/s * 30 s / 16 KB ~ 37 blocks vs hundreds on stripe 1.
        assert fast_s1 > 4 * fast_s0

    def test_a_lagging_stripe_holds_completion_back(self):
        # Enough blocks overall is not completion: each stripe is its
        # own fountain and must reach its own quota.
        nodes, trace = self._throttled_stripe(until=20.0)
        fast = nodes[1]
        assert fast.state.complete
        assert len(fast.state) == 317
        assert fast._stripe_counts[0] == 26 < fast._stripe_required == 34
        assert fast.completed_at is None
        assert 1 not in trace.completion_times

    def test_stripe_recovers_when_backpressuring_child_dies(self):
        # A stripe stalled on one slow child must resume when that child
        # leaves: the survivors can all be *below* the push window (their
        # low-watermark callback never fires again), so the stall has to
        # be re-evaluated at connection close or the stripe deadlocks.
        sim = Simulator()
        topo = mesh_topology(4, seed=1, max_loss=0.0)
        topo.core[(0, 2)].capacity = 20_000.0  # node 2 is the slow child
        net = Network(sim, topo, FlowNetwork(sim))
        trace = TraceCollector(sim, 64)
        config = SplitStreamConfig(num_blocks=64, num_stripes=1, seed=1)
        forest = {0: {0: [1, 2]}}
        nodes = {
            n: SplitStreamNode(net, n, forest, 0, config, trace)
            for n in topo.nodes
        }
        for node in nodes.values():
            node.start()
        sim.schedule_at(15.0, nodes[2].stop)
        sim.run(until=16.0)
        held_at_kill = len(nodes[1].state)
        sim.run(until=40.0)
        # Freed from the slow sibling, the fast child must make real
        # progress again instead of sitting on a wedged backlog.
        assert len(nodes[1].state) > held_at_kill + 10

    def test_interior_nodes_forward(self):
        sim = Simulator()
        topo = mesh_topology(6, seed=2, max_loss=0.0)
        net = Network(sim, topo, FlowNetwork(sim))
        trace = TraceCollector(sim, 32)
        config = SplitStreamConfig(num_blocks=32, num_stripes=4, seed=2)
        forest = build_stripe_forest(topo.nodes, 0, 4, 4, seed=2)
        nodes = {
            n: SplitStreamNode(net, n, forest, 0, config, trace)
            for n in topo.nodes
        }
        for node in nodes.values():
            node.start()
        sim.run(until=300.0)
        forwarded = sum(
            n.stats["blocks_forwarded"]
            for n in nodes.values()
            if n.node_id != 0
        )
        assert forwarded > 0, "interior nodes must forward stripe data"
        assert all(
            n.completed_at is not None
            for n in nodes.values()
            if n.node_id != 0
        )


class TestBulletBaseline:
    def test_push_plus_pull_composition(self):
        result = run_experiment(
            mesh_topology(10, seed=4),
            bullet_factory(num_blocks=48, seed=4),
            48,
            max_time=1200.0,
            seed=4,
        )
        assert result.finished
        # Both components moved data: tree pushes land as unsolicited
        # ingests, pulls as served blocks.
        served = sum(
            n.stats["blocks_served"] for n in result.nodes.values()
        )
        digests = sum(
            n.stats["digests_sent"] for n in result.nodes.values()
        )
        assert served > 0
        assert digests > 0

    def test_receiver_cap_respected(self):
        result = run_experiment(
            mesh_topology(12, seed=5),
            bullet_factory(num_blocks=48, seed=5),
            48,
            max_time=1200.0,
            seed=5,
        )
        for node in result.nodes.values():
            assert len(node.receivers) <= bullet.MAX_RECEIVERS
