"""Tests for links and the flow-level TCP model."""

import math

import pytest

from repro.sim.engine import Simulator
from repro.sim.links import Link, apply
from repro.sim.tcp import FlowNetwork, TcpModel


class TestLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            Link("x", capacity=0)
        with pytest.raises(ValueError):
            Link("x", capacity=1, delay=-1)
        with pytest.raises(ValueError):
            Link("x", capacity=1, loss_rate=1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Link("x", capacity=math.nan),
            lambda: Link("x", capacity=1, delay=math.nan),
        ],
        ids=["capacity", "delay"],
    )
    def test_nan_rejected_at_construction(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("attribute", ["capacity", "delay"])
    def test_nan_rejected_by_setter(self, attribute):
        link = Link("x", capacity=100, delay=0.01)
        with pytest.raises(ValueError):
            setattr(link, attribute, math.nan)
        assert (link.capacity, link.delay) == (100, 0.01)

    def test_capacity_change_fires_callback(self):
        link = Link("x", capacity=100)
        seen = []
        link.on_capacity_change = seen.append
        link.capacity = 50
        assert seen == [link]

    def test_capacity_same_value_no_callback(self):
        link = Link("x", capacity=100)
        seen = []
        link.on_capacity_change = seen.append
        link.capacity = 100
        assert seen == []

    def test_scale_capacity(self):
        link = Link("x", capacity=100)
        apply(None, [{"link": link, "scale": 0.5}])
        assert link.capacity == 50
        with pytest.raises(ValueError):
            apply(None, [{"link": link, "scale": 0}])


class TestTcpModel:
    def test_path_loss_aggregates(self):
        model = TcpModel()
        links = [Link("a", 1, loss_rate=0.1), Link("b", 1, loss_rate=0.1)]
        assert model.path_loss(links) == pytest.approx(0.19)

    def test_lossless_path_uncapped(self):
        model = TcpModel()
        assert model.mathis_cap([Link("a", 1)]) == math.inf

    def test_mathis_cap_formula(self):
        model = TcpModel()
        link = Link("a", 1, delay=0.05, loss_rate=0.01)
        expected = 1460 / (0.1 * math.sqrt(2 * 0.01 / 3))
        assert model.mathis_cap([link]) == pytest.approx(expected)

    def test_mathis_cap_decreases_with_loss(self):
        model = TcpModel()
        low = model.mathis_cap([Link("a", 1, delay=0.05, loss_rate=0.001)])
        high = model.mathis_cap([Link("a", 1, delay=0.05, loss_rate=0.03)])
        assert high < low

    def test_slow_start_ramps(self):
        model = TcpModel()
        links = [Link("a", 1, delay=0.05)]
        early = model.slow_start_cap(links, age=0.0)
        later = model.slow_start_cap(links, age=0.5)
        assert later > early
        assert model.slow_start_cap(links, age=1000.0) == math.inf

    def test_rto_floor(self):
        model = TcpModel()
        assert model.retransmission_timeout([Link("a", 1, delay=0.001)]) == 0.2


def _make_network():
    sim = Simulator()
    return sim, FlowNetwork(sim, reallocation_interval=0.0)


class TestFairSharing:
    def test_single_flow_gets_link_capacity(self):
        sim, net = _make_network()
        link = Link("l", capacity=1000)
        flow = net.new_flow("f", [link])
        net.activate(flow)
        sim.run(until=1.0)
        assert flow.rate == pytest.approx(1000)

    def test_empty_path_refused_where_it_enters(self):
        _, net = _make_network()
        with pytest.raises(ValueError, match="'x'"):
            net.new_flow("x", [])

    def test_two_flows_share_equally(self):
        sim, net = _make_network()
        link = Link("l", capacity=1000)
        flows = [net.new_flow(f"f{i}", [link]) for i in range(2)]
        for f in flows:
            net.activate(f)
        sim.run(until=1.0)
        for f in flows:
            assert f.rate == pytest.approx(500)

    def test_capped_flow_leaves_capacity_to_others(self):
        sim, net = _make_network()
        shared = Link("shared", capacity=100_000)
        lossy = Link("lossy", capacity=100_000, delay=0.5, loss_rate=0.03)
        capped = net.new_flow("capped", [shared, lossy])
        free = net.new_flow("free", [shared])
        net.activate(capped)
        net.activate(free)
        sim.run(until=100.0)  # past the slow-start ramp
        # Mathis cap ~10.3 KB/s is far below the 50 KB/s fair share, so
        # the lossy flow pins at its cap and the rest goes to the other.
        assert capped.mathis_cap < 50_000
        assert capped.rate == pytest.approx(capped.mathis_cap, rel=0.01)
        assert free.rate == pytest.approx(100_000 - capped.rate, rel=0.01)

    def test_max_min_with_two_bottlenecks(self):
        # f1 on linkA(300); f2 on linkA+linkB(100); f3 on linkB.
        sim, net = _make_network()
        link_a = Link("a", capacity=300)
        link_b = Link("b", capacity=100)
        f1 = net.new_flow("f1", [link_a])
        f2 = net.new_flow("f2", [link_a, link_b])
        f3 = net.new_flow("f3", [link_b])
        for f in (f1, f2, f3):
            net.activate(f)
        sim.run(until=100.0)
        assert f2.rate == pytest.approx(50, rel=0.01)
        assert f3.rate == pytest.approx(50, rel=0.01)
        assert f1.rate == pytest.approx(250, rel=0.01)

    def test_deactivate_redistributes(self):
        sim, net = _make_network()
        link = Link("l", capacity=1000)
        f1 = net.new_flow("f1", [link])
        f2 = net.new_flow("f2", [link])
        net.activate(f1)
        net.activate(f2)
        sim.run(until=1.0)
        net.deactivate(f2)
        sim.run(until=2.0)
        assert f1.rate == pytest.approx(1000)
        assert f2.rate == 0.0

    def test_capacity_change_triggers_reallocation(self):
        sim, net = _make_network()
        link = Link("l", capacity=1000)
        flow = net.new_flow("f", [link])
        net.activate(flow)
        sim.run(until=1.0)
        link.capacity = 400
        sim.run(until=2.0)
        assert flow.rate == pytest.approx(400)

    def test_rate_change_callback(self):
        sim, net = _make_network()
        link = Link("l", capacity=1000)
        flow = net.new_flow("f", [link])
        changes = []
        flow.on_rate_change = lambda f, _old: changes.append(f.rate)
        net.activate(flow)
        sim.run(until=1.0)
        assert changes and changes[-1] == pytest.approx(1000)

    def test_conservation_no_link_oversubscribed(self):
        import random

        sim, net = _make_network()
        rng = random.Random(3)
        links = [Link(f"l{i}", capacity=rng.uniform(100, 1000)) for i in range(6)]
        flows = []
        for i in range(20):
            path = rng.sample(links, rng.randint(1, 3))
            flow = net.new_flow(f"f{i}", path)
            flows.append(flow)
            net.activate(flow)
        sim.run(until=100.0)
        for link in links:
            total = sum(f.rate for f in flows if link in f.links)
            assert total <= link.capacity * (1 + 1e-6)
        # Work conservation: every flow got a positive rate.
        assert all(f.rate > 0 for f in flows)


class TestReallocationCoalescing:
    def test_interval_bounds_reallocations(self):
        sim = Simulator()
        net = FlowNetwork(sim, reallocation_interval=1.0)
        link = Link("l", capacity=1000)
        flows = [net.new_flow(f"f{i}", [link]) for i in range(10)]
        for i, f in enumerate(flows):
            sim.schedule(i * 0.01, lambda f=f: net.activate(f))
        sim.run(until=10.0)
        # All ten activations within 0.1s coalesce into very few passes.
        assert net.reallocations <= 3
        assert flows[0].rate == pytest.approx(100)
