"""Node-level tests for Bullet' protocol mechanics.

These exercise the behaviours that only appear with real connections:
peering handshakes, rejects, diff self-clocking with prefetch, the
dead-weight safeguard, and source behaviour.
"""

import random

from repro.core.bullet_prime import BulletPrimeConfig, BulletPrimeNode
from repro.overlay.tree import build_random_tree
from repro.sim.engine import Simulator
from repro.sim.tcp import FlowNetwork
from repro.sim.topology import mesh_topology
from repro.sim.trace import TraceCollector
from repro.sim.transport import Network


def _build(num_nodes=8, num_blocks=32, seed=3, **overrides):
    sim = Simulator()
    topo = mesh_topology(num_nodes, seed=seed)
    net = Network(sim, topo, FlowNetwork(sim), random.Random(0))
    trace = TraceCollector(sim, num_blocks)
    tree = build_random_tree(topo.nodes, root=0, fanout=4, seed=seed)
    config = BulletPrimeConfig(num_blocks=num_blocks, seed=seed, **overrides)
    nodes = {
        n: BulletPrimeNode(net, n, tree, 0, config, trace)
        for n in topo.nodes
    }
    for node in nodes.values():
        node.start()
    return sim, nodes, trace


class TestSourceBehaviour:
    def test_source_completes_immediately(self):
        sim, nodes, trace = _build()
        assert nodes[0].state.complete
        assert 0 in trace.completion_times

    def test_source_hidden_until_full_pass(self):
        sim, nodes, _ = _build(num_blocks=64)
        source = nodes[0]
        assert source._summary().blocks_held == 0
        sim.run(until=120.0)
        assert source.pusher.pass_complete
        assert source._summary().blocks_held == 64

    def test_source_never_pulls(self):
        sim, nodes, _ = _build()
        sim.run(until=120.0)
        assert not nodes[0].senders
        assert nodes[0].stats["requests_sent"] == 0


class TestPeeringMechanics:
    def test_receiver_cap_reject_handled(self):
        # Hard receiver cap of 1 forces rejects; requesters must recover
        # (the reject must arrive, not be dropped with a closing queue).
        sim, nodes, trace = _build(
            num_nodes=8,
            num_blocks=32,
            max_peers=1,
            initial_senders=1,
            initial_receivers=1,
            min_peers=1,
        )
        sim.run(until=400.0)
        rejects = sum(n.stats["rejected_peers"] for n in nodes.values())
        finished = sum(
            1 for n in nodes.values() if not n.is_source and n.state.complete
        )
        assert rejects > 0, "the hard cap must actually force rejects"
        assert finished == 7, "rejects must not deadlock the download"

    def test_dead_weight_sender_dropped(self):
        sim, nodes, _ = _build(num_nodes=10, num_blocks=24)
        sim.run(until=600.0)
        # After everyone completes, no receiver should still hold sender
        # connections (complete nodes drop their senders).
        for node in nodes.values():
            if node.state.complete:
                assert not node.senders

    def test_pending_senders_never_leak(self):
        sim, nodes, _ = _build(num_nodes=10, num_blocks=24)
        sim.run(until=600.0)
        for node in nodes.values():
            assert not node._pending_senders


class TestDiffMechanics:
    def test_diffs_name_each_block_once_per_receiver(self):
        sim, nodes, _ = _build(num_nodes=6, num_blocks=24)
        sim.run(until=400.0)
        # DiffTracker guarantees no double announcements; cursors must
        # have advanced to the full arrival order.
        for node in nodes.values():
            for receiver in node.receivers.values():
                assert receiver.cursor <= len(node.arrival_order)

    def test_download_completes_with_prefetch_diffs(self):
        sim, nodes, trace = _build(num_nodes=8, num_blocks=48)
        sim.run(until=600.0)
        assert all(
            n.state.complete for n in nodes.values() if not n.is_source
        )

    def test_no_duplicate_requests_outstanding(self):
        sim, nodes, _ = _build(num_nodes=8, num_blocks=48)
        checked = {"count": 0}

        def audit():
            for node in nodes.values():
                seen = set()
                for s in node.senders.values():
                    overlap = seen & s.outstanding
                    assert not overlap, f"block requested twice: {overlap}"
                    seen |= s.outstanding
                checked["count"] += 1
            return True

        sim.schedule_periodic(2.0, audit)
        sim.run(until=200.0)
        assert checked["count"] > 0


class TestStaticModes:
    def test_static_peering_respects_size(self):
        sim, nodes, _ = _build(
            num_nodes=12,
            num_blocks=32,
            adaptive_peering=False,
            initial_senders=4,
            initial_receivers=4,
            min_peers=4,
        )
        sim.run(until=400.0)
        for node in nodes.values():
            if not node.is_source:
                assert len(node.senders) <= 4
                assert node.sender_policy.target == 4

    def test_fixed_outstanding_respected(self):
        sim, nodes, _ = _build(
            num_nodes=8,
            num_blocks=48,
            adaptive_outstanding=False,
            fixed_outstanding=2,
        )
        violations = []

        def audit():
            for node in nodes.values():
                for s in node.senders.values():
                    if len(s.outstanding) > 2:
                        violations.append(len(s.outstanding))
            return True

        sim.schedule_periodic(1.0, audit)
        sim.run(until=200.0)
        assert not violations


class TestEncodedSource:
    def test_encoded_stream_source_generates_beyond_n(self):
        sim, nodes, trace = _build(num_nodes=6, num_blocks=24, encoded=True)
        sim.run(until=600.0)
        source = nodes[0]
        assert len(source.state) > 24
        for node in nodes.values():
            if not node.is_source:
                assert node.state.complete
                assert len(node.state) >= node.state.required
