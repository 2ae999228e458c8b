"""Property-based tests on simulator invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.links import Link, apply
from repro.sim.tcp import FlowNetwork


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    num_links=st.integers(1, 8),
    num_flows=st.integers(1, 25),
)
def test_allocation_feasible_and_work_conserving(seed, num_links, num_flows):
    """For any random topology/flow set, the max-min allocation must be
    (a) feasible — no link over capacity, (b) work-conserving — every
    flow either hits its cap or crosses a saturated link."""
    rng = random.Random(seed)
    sim = Simulator()
    net = FlowNetwork(sim, reallocation_interval=0.0)
    links = [
        Link(
            f"l{i}",
            capacity=rng.uniform(50, 5000),
            delay=rng.uniform(0.0, 0.2),
            loss_rate=rng.choice([0.0, 0.0, rng.uniform(0.0, 0.05)]),
        )
        for i in range(num_links)
    ]
    flows = []
    for i in range(num_flows):
        path = rng.sample(links, rng.randint(1, num_links))
        flow = net.new_flow(f"f{i}", path)
        flows.append(flow)
        net.activate(flow)
    sim.run(until=1000.0)  # past every slow-start ramp

    for link in links:
        load = sum(f.rate for f in flows if link in f.links)
        assert load <= link.capacity * (1 + 1e-6), f"{link} oversubscribed"

    for flow in flows:
        cap = net.flow_cap(flow)
        at_cap = flow.rate >= cap * (1 - 1e-6)
        crosses_saturated = any(
            sum(f.rate for f in link.flows) >= link.capacity * (1 - 1e-6)
            for link in flow.links
        )
        assert at_cap or crosses_saturated, (
            f"{flow} left bandwidth on the table"
        )


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 10_000),
    capacities=st.lists(st.floats(100, 10_000), min_size=2, max_size=6),
)
def test_single_link_sharing_is_equal(seed, capacities):
    """All uncapped flows on one link receive equal shares."""
    sim = Simulator()
    net = FlowNetwork(sim, reallocation_interval=0.0)
    link = Link("l", capacity=sum(capacities))
    flows = [net.new_flow(f"f{i}", [link]) for i in range(len(capacities))]
    for flow in flows:
        net.activate(flow)
    sim.run(until=100.0)
    rates = [f.rate for f in flows]
    assert max(rates) - min(rates) < 1e-6 * max(rates)


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 1000),
    cuts=st.lists(st.floats(0.1, 0.9), min_size=1, max_size=5),
)
def test_capacity_cuts_propagate_to_rates(seed, cuts):
    """After any sequence of capacity cuts, rates re-converge to the new
    capacity exactly."""
    sim = Simulator()
    net = FlowNetwork(sim, reallocation_interval=0.001)
    link = Link("l", capacity=10_000.0)
    flow = net.new_flow("f", [link])
    net.activate(flow)
    sim.run(until=10.0)
    for i, factor in enumerate(cuts):
        sim.schedule(1.0, apply, None, [{"link": link, "scale": factor}])
        sim.run(until=sim.now + 5.0)
        assert abs(flow.rate - link.capacity) < 1e-6 * link.capacity
