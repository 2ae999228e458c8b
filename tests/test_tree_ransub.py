"""Tests for the control tree and RanSub."""

import collections

import pytest

from repro.common.rng import split_rng
from repro.overlay.ransub import NodeSummary, RanSubService, _merge_samples, _Sample
from repro.overlay.tree import ControlTree, build_random_tree


class TestRandomTree:
    def test_all_nodes_included(self):
        nodes = list(range(50))
        tree = build_random_tree(nodes, root=0, fanout=4, seed=1)
        assert sorted(tree.nodes) == nodes

    def test_fanout_respected(self):
        tree = build_random_tree(list(range(100)), root=0, fanout=3, seed=2)
        for node in tree.nodes:
            assert len(tree.children[node]) <= 3

    def test_root_has_no_parent(self):
        tree = build_random_tree(list(range(10)), root=5, fanout=2, seed=0)
        assert tree.root == 5
        assert tree.parent_of(5) is None

    def test_parent_child_consistency(self):
        tree = build_random_tree(list(range(30)), root=0, fanout=4, seed=3)
        for node in tree.nodes:
            if node == tree.root:
                continue
            assert node in tree.children[tree.parent_of(node)]

    def test_deterministic_given_seed(self):
        a = build_random_tree(list(range(20)), root=0, seed=9)
        b = build_random_tree(list(range(20)), root=0, seed=9)
        assert a.parent == b.parent

    def test_different_seeds_differ(self):
        a = build_random_tree(list(range(20)), root=0, seed=1)
        b = build_random_tree(list(range(20)), root=0, seed=2)
        assert a.parent != b.parent

    def test_root_not_in_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_random_tree([1, 2], root=0)

    def test_every_node_hangs_under_the_root(self):
        tree = build_random_tree(list(range(10)), root=0, fanout=2, seed=0)
        reached, frontier = [], [tree.root]
        while frontier:
            node = frontier.pop()
            reached.append(node)
            frontier += tree.children[node]
        assert sorted(reached) == list(range(10))

    def test_depth(self):
        tree = build_random_tree(list(range(64)), root=0, fanout=2, seed=1)

        def depth(node):
            return 0 if node == tree.root else 1 + depth(tree.parent_of(node))

        assert depth(tree.root) == 0
        assert max(depth(n) for n in tree.nodes) >= 4  # 64 nodes, fanout 2


class TestControlTreeValidation:
    def test_cycle_detected(self):
        with pytest.raises(ValueError):
            ControlTree(0, {1: 0, 2: 1}, {0: [1], 1: [2], 2: [1]})

    def test_disconnected_detected(self):
        with pytest.raises(ValueError):
            ControlTree(0, {1: 0, 2: 9}, {0: [1], 9: [2]})

    def test_root_with_parent_rejected(self):
        with pytest.raises(ValueError):
            ControlTree(0, {0: 1, 1: 0}, {0: [1], 1: [0]})


class TestSampleMerge:
    def test_merge_respects_k(self):
        rng = split_rng(0, "t")
        samples = [
            _Sample([f"a{i}" for i in range(10)], 10),
            _Sample([f"b{i}" for i in range(10)], 10),
        ]
        merged = _merge_samples(samples, 5, rng)
        assert len(merged.entries) == 5
        assert merged.weight == 20

    def test_merge_empty(self):
        rng = split_rng(0, "t")
        assert _merge_samples([], 5, rng).weight == 0

    def test_merge_weighting_is_proportional(self):
        # A sample representing 90% of the population should dominate.
        rng = split_rng(1, "t")
        counts = collections.Counter()
        for trial in range(300):
            samples = [
                _Sample(["big"] * 9, 90),
                _Sample(["small"] * 9, 10),
            ]
            merged = _merge_samples(samples, 5, rng)
            counts.update(merged.entries)
        total = counts["big"] + counts["small"]
        assert counts["big"] / total > 0.75


class _StubProtocol:
    """Minimal protocol shim for driving RanSub in isolation."""

    def __init__(self, sim, node_id):
        self.sim = sim
        self.node_id = node_id
        self._handlers = {}

    def handler(self, kind, fn):
        self._handlers[kind] = fn

    def periodic(self, period, fn):
        return self.sim.schedule_periodic(period, fn)

    def schedule(self, delay, fn):
        return self.sim.schedule(delay, fn)


class _StubConn:
    """Loopback connection delivering into another protocol instance."""

    def __init__(self, sim, target_protocol, delay=0.001):
        self.sim = sim
        self.target = target_protocol
        self.delay = delay
        self.closed = False
        self.sent = []

    def send(self, message):
        self.sent.append(message)
        handler = self.target._handlers[message.kind]
        self.sim.schedule(self.delay, lambda: handler(self, message))
        return True


class TestRanSubSweep:
    def _build(self, num_nodes=7, fanout=2):
        from repro.sim.engine import Simulator

        sim = Simulator()
        tree = build_random_tree(list(range(num_nodes)), root=0, fanout=fanout, seed=1)
        protocols = {}
        services = {}
        received = collections.defaultdict(list)
        for node in tree.nodes:
            proto = _StubProtocol(sim, node)
            protocols[node] = proto
            services[node] = RanSubService(
                proto,
                tree,
                state_provider=lambda n=node: NodeSummary(n, blocks_held=n),
                on_subset=lambda subset, n=node: received[n].append(subset),
                epoch_period=5.0,
                subset_size=4,
                seed=3,
            )
        for node in tree.nodes:
            for child in tree.children[node]:
                services[node].child_conns[child] = _StubConn(
                    sim, protocols[child]
                )
                services[child].parent_conn = _StubConn(
                    sim, protocols[node]
                )
        services[0].start_root()
        return sim, tree, services, received

    def test_every_node_receives_subsets(self):
        sim, tree, services, received = self._build()
        sim.run(until=30.0)
        for node in tree.nodes:
            if node == tree.root:
                continue
            assert received[node], f"node {node} never got a distribute"

    def test_subsets_carry_remote_summaries(self):
        sim, tree, services, received = self._build()
        sim.run(until=60.0)
        # After several epochs, a deep node must have seen summaries of
        # nodes outside its own subtree (the parent-sample propagation).
        leaves = [n for n in tree.nodes if not tree.children[n]]
        leaf = leaves[-1]
        seen = {s.node_id for subset in received[leaf] for s in subset}
        outside = seen - {leaf}
        assert len(outside) >= 3

    def test_subset_size_bounded(self):
        sim, tree, services, received = self._build()
        sim.run(until=60.0)
        for subsets in received.values():
            for subset in subsets:
                assert len(subset) <= 4

    def test_epochs_advance(self):
        sim, tree, services, received = self._build()
        sim.run(until=30.0)
        assert services[0].epoch >= 4
