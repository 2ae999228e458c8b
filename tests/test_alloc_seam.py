"""The seam between the allocation kernel and ``FlowNetwork``.

``repro.sim.alloc.fill`` decides rates and freeze order; the settle loop
in ``FlowNetwork.reallocate`` is the only code that acts on them.  These
tests record what crosses the seam by wrapping the name ``sim/tcp.py``
calls, and hold the settle loop to it.
"""

import random

import pytest

from repro.sim import tcp
from repro.sim.engine import Simulator
from repro.sim.links import Link
from repro.sim.tcp import FlowModel, FlowNetwork

from test_allocator_equivalence import _build_world, _install, _random_script


@pytest.mark.parametrize("incremental", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_callbacks_fire_in_freeze_order_outside_the_dead_band(
    monkeypatch, seed, incremental
):
    sim, net, links, flows = _build_world(seed, incremental=incremental)
    expected = []
    fired = []

    def recording_fill(component, epoch):
        frozen, rates, rounds = kernel_fill(component, epoch)
        # Settling has not started: ``flow.rate`` is still the old rate.
        expected.extend(
            (sim.now, flow.name, rate)
            for flow, rate in zip(frozen, rates)
            if abs(rate - flow.rate) > 1e-9
        )
        return frozen, rates, rounds

    kernel_fill = tcp.fill
    monkeypatch.setattr(tcp, "fill", recording_fill)
    for flow in flows:
        flow.on_rate_change = lambda f, _old: fired.append((sim.now, f.name, f.rate))
    _install(sim, net, links, flows, _random_script(seed, len(links), len(flows)))
    sim.run(until=60.0)
    assert len(fired) > len(flows)
    assert fired == expected


class _RecordingDynamicModel(FlowModel):
    """A ``dynamic = True`` model that logs its two batched hooks."""

    name = "recording"
    dynamic = True

    def __init__(self):
        super().__init__()
        self.log = []

    def steady_state_cap(self, links):
        return float("inf")

    def dynamic_caps(self, flows, now):
        self.log.append(("caps", [f.seq for f in flows]))
        for flow in flows:
            # Some flows cap-limited, some not, varying from pass to pass.
            flow._cap = 40_000.0 * (1 + (flow.seq + len(self.log)) % 7)

    def observe_rates(self, flows, rates, now):
        self.log.append(("observe", [f.seq for f in flows], list(rates)))


def test_dynamic_model_prices_a_component_before_any_flow_of_it_settles(monkeypatch):
    rng = random.Random(5)
    sim = Simulator()
    model = _RecordingDynamicModel()
    net = FlowNetwork(sim, model=model, reallocation_interval=0.01)
    links = [
        Link(f"l{i}", capacity=rng.uniform(50_000, 2_000_000), delay=0.01)
        for i in range(8)
    ]
    flows = [
        net.new_flow(f"f{i}", rng.sample(links, rng.randint(1, 3))) for i in range(16)
    ]

    def recording_fill(component, epoch):
        frozen, rates, rounds = kernel_fill(component, epoch)
        model.log.append(("fill", [f.seq for f in component], [f.seq for f in frozen]))
        fills.append(list(rates))
        return frozen, rates, rounds

    fills = []
    kernel_fill = tcp.fill
    monkeypatch.setattr(tcp, "fill", recording_fill)
    _install(sim, net, links, flows, _random_script(5, len(links), len(flows)))
    sim.run(until=60.0)

    # Per component, exactly: one ``dynamic_caps`` with its flows in seq
    # order, the fill, one ``observe_rates`` with the flows in the order
    # they froze and the rates they froze at — and nothing in between.
    log = model.log
    assert len(log) == 3 * net.components_allocated > 0
    assert net.max_component_size > 2
    for n, i in enumerate(range(0, len(log), 3)):
        caps, filled, observed = log[i : i + 3]
        _, component, frozen = filled
        assert caps == ("caps", component)
        assert component == sorted(component)
        assert observed == ("observe", frozen, fills[n])
    for hook in ("caps", "observe"):
        calls = [entry[1] for entry in log if entry[0] == hook]
        assert sum(map(len, calls)) == net.flows_allocated
