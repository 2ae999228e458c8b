"""Tests for dynamic scenarios and the trace collector."""

import pytest

from repro.common.units import KBPS, MBPS
from repro.scenarios import CascadingCuts, CorrelatedDecreases, ScenarioContext
from repro.sim.engine import Simulator
from repro.sim.topology import mesh_topology, star_topology
from repro.sim.trace import TraceCollector


def _install(scenario, sim, topo):
    """Link-level installation: no nodes, no source, context seed 0."""
    scenario.install(ScenarioContext(sim, topo))


class TestCorrelatedDecreases:
    def test_cuts_are_cumulative_and_directional(self):
        sim = Simulator()
        topo = mesh_topology(10, seed=1)
        before = {pair: link.capacity for pair, link in topo.core.items()}
        _install(CorrelatedDecreases(seed=1, period=20.0), sim, topo)
        sim.run(until=100.0)
        after = {pair: link.capacity for pair, link in topo.core.items()}
        cut = [p for p in before if after[p] < before[p]]
        assert cut, "some links must have been cut"
        # Cuts halve capacity, possibly repeatedly: every cut link sits at
        # before * 0.5^k for some integer k >= 1.
        import math

        for pair in cut:
            ratio = after[pair] / before[pair]
            assert ratio <= 0.5 + 1e-9
            k = math.log(ratio, 0.5)
            assert abs(k - round(k)) < 1e-6

    def test_half_of_nodes_targeted_per_period(self):
        sim = Simulator()
        topo = mesh_topology(20, seed=2)
        before = {pair: link.capacity for pair, link in topo.core.items()}
        _install(CorrelatedDecreases(seed=2, period=20.0), sim, topo)
        sim.run(until=21.0)  # exactly one firing
        victims = {
            dst
            for (src, dst), link in topo.core.items()
            if link.capacity < before[(src, dst)]
        }
        assert len(victims) == 10  # 50% of 20

    def test_start_postpones_cuts(self):
        sim = Simulator()
        topo = mesh_topology(6, seed=6)
        before = {pair: link.capacity for pair, link in topo.core.items()}
        _install(CorrelatedDecreases(seed=6, period=5.0, start=50.0), sim, topo)
        sim.run(until=49.0)
        assert {pair: link.capacity for pair, link in topo.core.items()} == before
        sim.run(until=60.0)
        assert {pair: link.capacity for pair, link in topo.core.items()} != before

    def test_stop_ends_cuts(self):
        sim = Simulator()
        topo = mesh_topology(10, seed=3)
        before = {pair: link.capacity for pair, link in topo.core.items()}
        _install(CorrelatedDecreases(seed=3, period=10.0, stop=25.0), sim, topo)
        sim.run(until=25.0)
        frozen = {pair: link.capacity for pair, link in topo.core.items()}
        assert frozen != before
        sim.run(until=100.0)
        assert {pair: link.capacity for pair, link in topo.core.items()} == frozen

    def test_loss_rates_untouched(self):
        sim = Simulator()
        topo = mesh_topology(10, seed=4)
        losses = {pair: link.loss_rate for pair, link in topo.core.items()}
        _install(CorrelatedDecreases(seed=4, period=10.0), sim, topo)
        sim.run(until=60.0)
        assert losses == {
            pair: link.loss_rate for pair, link in topo.core.items()
        }


class TestCascadingCuts:
    def test_one_sender_cut_per_period(self):
        sim = Simulator()
        senders = [1, 2, 3]
        special = {(s, 0): (5 * MBPS, 0.1) for s in senders}
        topo = star_topology(4, special_links=special)
        _install(CascadingCuts(target=0, senders=senders, period=25.0), sim, topo)
        sim.run(until=26.0)
        throttled = [
            s for s in senders if topo.core[(s, 0)].capacity == 100 * KBPS
        ]
        assert len(throttled) == 1
        sim.run(until=76.0)
        throttled = [
            s for s in senders if topo.core[(s, 0)].capacity == 100 * KBPS
        ]
        assert len(throttled) == 3

    def test_reverse_direction_untouched(self):
        sim = Simulator()
        topo = star_topology(3)
        _install(CascadingCuts(target=0, senders=[1, 2], period=10.0), sim, topo)
        sim.run(until=50.0)
        assert topo.core[(0, 1)].capacity == 10 * MBPS


class TestTraceCollector:
    def _collector(self):
        sim = Simulator()
        trace = TraceCollector(sim, num_blocks=10)
        return sim, trace

    def test_completion_recorded_once(self):
        sim, trace = self._collector()
        trace.node_started(1)
        sim.schedule(5.0, lambda: trace.completed(1))
        sim.schedule(7.0, lambda: trace.completed(1))
        sim.run()
        assert trace.completion_times[1] == 5.0

    def test_duplicates_counted_separately(self):
        sim, trace = self._collector()
        trace.node_started(1)
        trace.block_received(1, 3)
        trace.block_received(1, 3, duplicate=True)
        assert len(trace.block_arrivals[1]) == 1
        assert trace.duplicate_blocks[1] == 1

    def test_interarrival_series(self):
        sim, trace = self._collector()
        trace.node_started(1)
        for t, b in ((1.0, 0), (2.0, 1), (4.0, 2)):
            sim.schedule(t, lambda b=b: trace.block_received(1, b))
        sim.run()
        assert trace.interarrival_series(1) == [1.0, 2.0]

    def test_mean_interarrival_by_index(self):
        sim, trace = self._collector()
        for node in (1, 2):
            trace.node_started(node)
        # Node 1 gaps: [1, 1]; node 2 gaps: [3, 1].
        arrivals = {1: [1.0, 2.0, 3.0], 2: [1.0, 4.0, 5.0]}
        for node, times in arrivals.items():
            for i, t in enumerate(times):
                sim.schedule(t, lambda n=node, b=i: trace.block_received(n, b))
        sim.run()
        assert trace.mean_interarrival_by_index() == [2.0, 1.0]

    def test_last_block_overage(self):
        sim, trace = self._collector()
        trace.node_started(1)
        # 30 fast arrivals then 5 slow ones.
        t = 0.0
        for i in range(35):
            t += 0.1 if i < 30 else 2.0
            sim.schedule(t, lambda b=i: trace.block_received(1, b))
        sim.run()
        overage = trace.last_block_overage(tail=5)
        assert overage > 5.0

    def test_completion_cdf_requires_data(self):
        _sim, trace = self._collector()
        with pytest.raises(RuntimeError):
            trace.completion_cdf()
