"""The link-condition engine: loss/delay dynamics as first-class axes.

Covers the three layers the engine spans:

- :class:`repro.sim.links.Link` — the loss/delay setters and the split
  change callbacks, written only through :func:`repro.sim.links.apply`
  (its rows and inverse rows; ``tests/test_structure.py`` finds no other
  link write under ``src/``);
- :class:`repro.sim.tcp.FlowNetwork` — eager refresh of active flows,
  lazy (epoch-stamped) refresh of idle ones, and reallocation on loss
  changes;
- :class:`repro.sim.transport.Connection` — each end's cached loss and
  propagation delay tracking its flow's refreshed path invariants mid-run.

Plus the contract everything above rests on: a capacity-only run under
the new engine is byte-identical to the goldens recorded before the
engine existed.
"""

import math
import pathlib
import random

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.registry import SYSTEMS
from repro.harness.sweep import StoreView
from repro.sim.engine import Simulator
from repro.sim.links import Link, apply
from repro.sim.tcp import FlowNetwork
from repro.sim.topology import mesh_topology

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_matrix.jsonl"


def _conditions(link):
    return (link.capacity, link.loss_rate, link.delay)


class TestApply:
    def test_columns_and_their_inverse(self):
        link = Link("x", capacity=1000.0, delay=0.05, loss_rate=0.01)
        undo = apply(None, [{"link": link, "capacity": 250.0, "loss": 0.02}])
        assert _conditions(link) == (250.0, 0.02, 0.05)
        assert undo == [{"link": [link], "scale": [4.0], "loss": [0.01]}]
        undo = apply(None, [{"link": [link], "scale": 0.5, "delay": 0.1}])
        assert _conditions(link) == (125.0, 0.02, 0.1)
        assert undo == [{"link": [link], "scale": [2.0], "delay": [0.05]}]
        apply(None, undo)
        assert _conditions(link) == (250.0, 0.02, 0.05)
        # A row and its inverse restore up to float round-off only.
        for link, row in [
            (Link("x", capacity=1.0, loss_rate=0.001), {"overlay": 0.9}),
            (Link("x", capacity=1.0, loss_rate=0.01), {"overlay": 0.05}),
            (Link("x", capacity=1_370_000.0), {"scale": 0.7}),
        ]:
            before = _conditions(link)
            apply(None, apply(None, [dict(row, link=link)]))
            for got, want in zip(_conditions(link), before, strict=True):
                assert math.isclose(got, want, rel_tol=1e-12)

    def test_capacity_inverse_keeps_a_concurrent_scale(self):
        link = Link("x", capacity=1000.0)
        undo = apply(None, [{"link": link, "capacity": 10.0}])
        apply(None, [{"link": link, "scale": 0.5}])
        apply(None, undo)
        assert link.capacity == 500.0

    def test_floor_skips_the_link_and_its_inverse(self):
        high = Link("high", capacity=1000.0)
        low = Link("low", capacity=100.0)
        row = {"link": [high, low], "scale": 0.5, "floor": 200.0}
        assert apply(None, [row]) == [{"link": [high], "scale": [2.0]}]
        assert (high.capacity, low.capacity) == (500.0, 100.0)

    def test_overlay_swap_is_one_write_and_inverts(self):
        link = Link("x", capacity=1000.0, loss_rate=0.1)
        seen = []
        link.on_condition_change = seen.append
        undo = apply(None, [{"link": link, "overlay": 0.5}])
        assert link.loss_rate == pytest.approx(0.55)
        assert undo == [{"link": [link], "remove": 0.5, "overlay": None}]
        swap = apply(None, [{"link": link, "remove": 0.5, "overlay": 0.2}])
        assert link.loss_rate == pytest.approx(0.28)
        assert seen == [link, link]
        apply(None, swap + undo)
        assert link.loss_rate == pytest.approx(0.1)

    def test_per_link_lists_and_write_order(self):
        a = Link("a", capacity=100.0)
        b = Link("b", capacity=200.0)
        undo = apply(None, [{"link": [a, b], "scale": [2.0, 0.5]}])
        assert undo == [{"link": [a, b], "scale": [0.5, 2.0]}]
        order = []
        for link in (a, b):
            link.on_capacity_change = lambda x: order.append((x.name, "capacity"))
            link.on_condition_change = lambda x: order.append((x.name, "condition"))
        row = {"link": [a, b], "scale": [2.0, 0.25], "loss": 0.1, "delay": 0.3}
        apply(None, [row])
        assert (a.capacity, b.capacity) == (400.0, 25.0)
        assert order == [
            ("a", "capacity"),
            ("a", "condition"),
            ("a", "condition"),
            ("b", "capacity"),
            ("b", "condition"),
            ("b", "condition"),
        ]

    def test_targets_name_core_links(self):
        topology = mesh_topology(3, seed=1)
        cores = [link for _pair, link in sorted(topology.core.items())]
        undo = topology.apply(
            [
                {"link": "*", "scale": 0.5},
                {"link": "0->1", "delay": 0.5},
                {"link": "7->1", "capacity": 1.0},
            ]
        )
        assert [row["link"] for row in undo] == [cores, [topology.core[(0, 1)]], []]
        assert all(link.capacity == 125_000.0 for link in cores)
        assert topology.core[(0, 1)].delay == 0.5
        with pytest.raises(ValueError, match="malformed link key"):
            topology.apply([{"link": "0-1", "scale": 0.5}])


class TestLinkConditions:
    def test_setter_validation(self):
        link = Link("x", capacity=1000.0)
        with pytest.raises(ValueError):
            link.loss_rate = 1.0
        with pytest.raises(ValueError):
            link.loss_rate = -0.1
        with pytest.raises(ValueError):
            link.delay = -1.0

    def test_condition_callback_fires_for_loss_and_delay_only(self):
        link = Link("x", capacity=1000.0)
        conditions_seen = []
        capacities_seen = []
        link.on_condition_change = conditions_seen.append
        link.on_capacity_change = capacities_seen.append
        link.loss_rate = 0.05
        link.delay = 0.2
        link.capacity = 500.0
        assert conditions_seen == [link, link]
        assert capacities_seen == [link]

    def test_no_op_writes_fire_nothing(self):
        link = Link("x", capacity=1000.0, delay=0.2, loss_rate=0.05)
        seen = []
        link.on_condition_change = seen.append
        link.loss_rate = 0.05
        link.delay = 0.2
        assert seen == []


def _two_link_net():
    # 1 MB/s links: comfortably above the ~80 KB/s Mathis cap a 5% loss
    # imposes at this RTT, so loss visibly binds and unbinds the rate.
    sim = Simulator()
    net = FlowNetwork(sim, reallocation_interval=0.0)
    shared = Link("shared", capacity=1_000_000.0, delay=0.05)
    other = Link("other", capacity=1_000_000.0, delay=0.05)
    return sim, net, shared, other


class TestFlowRefresh:
    def test_loss_change_refreshes_active_flow_and_rate(self):
        sim, net, shared, _other = _two_link_net()
        flow = net.new_flow("f", [shared])
        net.activate(flow)
        sim.run(until=5.0)
        assert flow.rate == pytest.approx(1_000_000.0)
        assert flow.loss == 0.0
        # Loss arrives mid-run: the Mathis cap must now bind the rate.
        shared.loss_rate = 0.05
        assert flow.loss == pytest.approx(0.05)
        assert flow.mathis_cap < 1_000_000.0
        sim.run(until=10.0)
        assert flow.rate == pytest.approx(flow.mathis_cap)
        assert net.path_refreshes == 1

    def test_loss_removal_restores_rate(self):
        sim, net, shared, _other = _two_link_net()
        shared.loss_rate = 0.05
        flow = net.new_flow("f", [shared])
        net.activate(flow)
        sim.run(until=5.0)
        assert flow.rate == pytest.approx(flow.mathis_cap)
        shared.loss_rate = 0.0
        sim.run(until=10.0)
        assert flow.mathis_cap == float("inf")
        assert flow.rate == pytest.approx(1_000_000.0)

    def test_idle_flow_refreshes_lazily_at_activation(self):
        sim, net, shared, other = _two_link_net()
        idle = net.new_flow("idle", [shared])
        active = net.new_flow("active", [other])
        net.activate(active)
        sim.run(until=2.0)
        shared.loss_rate = 0.04
        # The idle flow still carries stale invariants (nothing eager
        # ran for it: it is on no active link's flow list) ...
        assert idle.loss == 0.0
        assert net.path_refreshes == 0
        net.activate(idle)
        # ... and refreshes the moment it activates.
        assert idle.loss == pytest.approx(0.04)
        assert net.path_refreshes == 1
        # The untouched flow never refreshes.
        net.deactivate(active)
        net.activate(active)
        assert net.path_refreshes == 1

    def test_delay_change_updates_rtt_and_rto(self):
        sim, net, shared, _other = _two_link_net()
        flow = net.new_flow("f", [shared])
        net.activate(flow)
        sim.run(until=2.0)
        assert flow.rtt == pytest.approx(0.1)
        shared.delay = 0.25
        assert flow.rtt == pytest.approx(0.5)
        assert flow.rto == pytest.approx(1.0)

    def test_capacity_only_run_never_refreshes(self):
        sim, net, shared, _other = _two_link_net()
        flow = net.new_flow("f", [shared])
        net.activate(flow)
        sim.run(until=2.0)
        shared.capacity = 400_000.0
        sim.run(until=4.0)
        assert flow.rate == pytest.approx(400_000.0)
        assert net.path_refreshes == 0
        assert net._cond_epoch == 0


class TestChannelPropagation:
    def _network_pair(self, seed=0):
        from repro.sim.transport import Network

        sim = Simulator()
        topology = mesh_topology(2, seed=seed, max_loss=0.0)
        network = Network(sim, topology, FlowNetwork(sim), random.Random(0))
        return sim, topology, network

    def test_channel_tracks_loss_and_delay_mid_run(self):
        sim, topology, network = self._network_pair()
        conns = []
        network.endpoint(1).on_accept = conns.append
        network.endpoint(0).connect(1, conns.append)
        sim.run(until=1.0)
        conn = next(c for c in conns if c.local == 0)
        before_delay = conn.prop_delay
        assert conn._loss == 0.0
        core = topology.core[(0, 1)]
        core.loss_rate = 0.08
        core.delay = core.delay + 0.1

        # The connection refreshes eagerly only while its flow is active;
        # sending a message activates the flow and forces the refresh.
        from repro.sim.transport import Message

        conn.send(Message("ping", size=100))
        assert conn._loss > 0.0
        assert conn.prop_delay == pytest.approx(before_delay + 0.1)

    def test_delivery_uses_new_delay(self):
        sim, topology, network = self._network_pair()
        conns = []
        network.endpoint(1).on_accept = conns.append
        network.endpoint(0).connect(1, conns.append)
        sim.run(until=1.0)
        local = next(c for c in conns if c.local == 0)
        remote = next(c for c in conns if c.local == 1)
        arrivals = []
        remote.on_message = lambda _c, _m: arrivals.append(sim.now)

        from repro.sim.transport import Message

        topology.core[(0, 1)].delay = 0.5
        sent_at = sim.now
        local.send(Message("ping", size=100))
        sim.run(until=5.0)
        assert len(arrivals) == 1
        # Transmission time is tiny at mesh rates; the half-second of
        # added propagation must dominate the arrival time.
        assert arrivals[0] - sent_at > 0.5


class TestCapacityOnlyBitIdentity:
    """Satellite contract: a capacity-only run under the link-condition
    engine reproduces the goldens recorded before the engine existed."""

    @pytest.mark.parametrize(
        "system,scenario,seed",
        [
            ("bullet_prime", "none", 1),
            ("bullet_prime", "oscillate", 5),
            ("bittorrent", "correlated_decreases", 3),
            ("splitstream", "churn", 7),
        ],
    )
    def test_direct_run_matches_pre_engine_golden(self, system, scenario, seed):
        golden = StoreView.from_jsonl(GOLDEN_PATH).by_key()
        result = run_experiment(
            mesh_topology(8, seed=seed),
            SYSTEMS.get(system).builder(num_blocks=24, seed=seed),
            24,
            scenario=scenario,
            max_time=900.0,
            seed=seed,
        )
        summary = result.summary()
        assert summary == golden[f"{system}|{scenario}|mesh|n8|b24|s{seed}"]
        # Capacity-only scenarios must never touch the refresh path.
        assert summary["perf"]["path_refreshes"] == 0
