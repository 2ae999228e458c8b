"""The gray-failure engine: fail-slow nodes, flaky links and message
adversity, and Bullet''s responses to them.

The contract under test: gray faults are *partial* — the victim stays
up and answers every message — so the overlay can only respond through
its own measurements: the per-epoch peer-set prune sheds a slow sender,
the sender detector times out a silent one, and checksum verification
discards a corrupt block.  Every gray scenario at zero intensity
installs nothing at all (no RNG stream, no events) and must reproduce
the static baseline bit for bit, perf counters included; the recorded
crash/chaos golden cells never arm gray detection, so checksum
verification cannot perturb them.
"""

import random

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.faults import FaultInjector
from repro.harness.registry import SCENARIOS
from repro.harness.systems import bullet_prime_factory
from repro.scenarios import ScenarioContext
from repro.scenarios.base import later, play
from repro.scenarios.failures import Adversarial, FailSlow, Flaky, GrayChaos
from repro.sim.engine import Simulator
from repro.sim.topology import mesh_topology
from repro.sim.trace import TraceCollector
from repro.sim.transport import MessageAdversity

N = 8
NB = 24
NAN = float("nan")


def _run(scenario, seed=3, nodes=N, blocks=NB, factory=None, **kwargs):
    if factory is None:
        factory = bullet_prime_factory(num_blocks=blocks, seed=seed)
    return run_experiment(
        mesh_topology(nodes, seed=seed),
        factory,
        blocks,
        scenario=scenario,
        max_time=900.0,
        seed=seed,
        **kwargs,
    )


class TestZeroIntensityEquivalence:
    """Satellite property: a gray scenario dialed to zero is the
    ``none`` scenario, bit for bit — the full summary including every
    perf counter, the strictest comparison the harness offers."""

    @pytest.mark.parametrize(
        "scenario",
        [
            FailSlow(fraction=0.0),
            Flaky(loss=0.0),
            Flaky(fraction=0.0),
            Adversarial(duplicate=0.0, reorder=0.0, corrupt=0.0),
            GrayChaos(rate=0.0),
        ],
        ids=[
            "fail_slow-fraction0",
            "flaky-loss0",
            "flaky-fraction0",
            "adversarial-all0",
            "gray_chaos-rate0",
        ],
    )
    def test_zero_intensity_is_bit_identical_to_none(self, scenario):
        quiet = _run(scenario).summary()
        static = _run(SCENARIOS.build("none")).summary()
        assert quiet == static


class TestGrayLifecycle:
    def test_fail_slow_long_download_finishes_clean(self):
        # Victims slow down at 10 s and stay slow for a 1,280-block
        # download (twice the stock 640) at the stock 16 KiB blocks.  The
        # per-epoch peer-set prune is Bullet''s one answer to a slow
        # sender; with it, every node must finish without the stall
        # watchdog and with every transport invariant intact.
        result = _run(
            FailSlow(),
            factory=bullet_prime_factory(num_blocks=1280),
            check_invariants=True,
        )
        perf = result.summary()["perf"]
        assert result.finished
        assert perf["watchdog_fired"] == 0
        invariants = result.network.invariants
        assert invariants.ok, invariants.violations

    def test_corrupt_blocks_detected_and_rerequested(self):
        # Corruption-only adversity: every corrupted block must be
        # caught by the checksum (never ingested), counted, and
        # re-requested — the download still completes in full.
        result = _run(
            Adversarial(duplicate=0.0, reorder=0.0, corrupt=0.05),
            check_invariants=True,
        )
        perf = result.summary()["perf"]
        assert result.finished
        assert perf["gray_corrupt_detected"] >= 1
        assert perf["fd_rerequests"] >= 1
        invariants = result.network.invariants
        assert invariants.ok, invariants.violations

    def test_gray_chaos_full_spectrum_run_is_clean(self):
        result = _run(GrayChaos(), check_invariants=True)
        perf = result.summary()["perf"]
        assert result.finished
        assert perf["gray_corrupt_detected"] >= 1
        assert perf["gray_dup_dropped"] >= 1
        assert perf["gray_reordered"] >= 1
        assert perf["watchdog_fired"] == 0
        invariants = result.network.invariants
        assert invariants.ok, invariants.violations


class TestInjectorActuators:
    def _injector(self):
        import repro.sim.engine as engine
        import repro.sim.tcp as tcp
        import repro.sim.transport as transport
        from repro.overlay.tree import build_random_tree

        sim = engine.Simulator()
        topology = mesh_topology(4, seed=1)
        flows = tcp.FlowNetwork(sim)
        network = transport.Network(sim, topology, flows, random.Random(0))
        tree = build_random_tree(topology.nodes, root=0, fanout=4, seed=1)
        trace = TraceCollector(sim, num_blocks=4)
        nodes = bullet_prime_factory(num_blocks=4, seed=1)(network, tree, 0, trace)
        return sim, topology, FaultInjector(sim, network, topology, nodes, trace, 0)

    def test_degrade_and_restore_round_trip(self):
        sim, topology, injector = self._injector()
        link = topology.access_up[2]
        before = link.capacity
        assert injector.degrade_node(2, factor=0.25) == ("restore_node", 2)
        assert link.capacity == pytest.approx(before * 0.25)
        assert injector.gray_armed
        # Double-degrade refused; restore is exact up to float round-off.
        assert injector.degrade_node(2) is None
        assert injector.restore_node(2) is True
        assert link.capacity == pytest.approx(before)
        assert injector.restore_node(2) is False

    def test_flake_window_overlays_and_heals(self):
        sim, topology, injector = self._injector()
        up = topology.access_up[2]
        down = topology.access_down[2]
        ctx = ScenarioContext(sim, topology, source_id=0, faults=injector)
        play(ctx, later(5.0, injector.flake_node(2, loss=0.5, direction="both")))
        assert up.loss_rate > 0.0 and down.loss_rate > 0.0
        sim.run(until=6.0)
        assert up.loss_rate == pytest.approx(0.0)
        assert down.loss_rate == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "act",
        [
            lambda injector: injector.flake_node(2, loss=1.0),
            lambda injector: injector.partition([[0, 1], [2, 3]], NAN),
            lambda injector: injector.degrade_node(2, stretch=NAN),
            lambda injector: injector.arm_adversity(random.Random(1), duplicate=1.5),
            lambda injector: injector.arm_adversity(
                random.Random(1), reorder_window=NAN
            ),
        ],
        ids=[
            "flake_total_loss",
            "partition_nan_squeeze",
            "degrade_nan_stretch",
            "adversity_duplicate_1.5",
            "adversity_nan_reorder_window",
        ],
    )
    def test_refused_before_acting(self, act):
        """Every argument is checked before the injector acts: a refused
        call writes no link, arms nothing and leaves no bookkeeping
        (``loss=1.0`` is refused because the window's inverse
        removal divides by ``1 - loss``)."""
        sim, topology, injector = self._injector()
        links = [
            *topology.access_up.values(),
            *topology.access_down.values(),
            *topology.core.values(),
        ]

        def conditions():
            return [(link.capacity, link.loss_rate, link.delay) for link in links]

        before = conditions()
        with pytest.raises(ValueError):
            act(injector)
        sim.run(until=10.0)
        assert conditions() == before
        assert not injector.armed and not injector.partition_active
        assert injector.failed == injector.pending_restarts == set()
        assert injector.degraded == {}
        assert injector.network.adversity is None

    def test_source_is_untouchable(self):
        _sim, _topology, injector = self._injector()
        with pytest.raises(ValueError):
            injector.degrade_node(0)
        with pytest.raises(ValueError):
            injector.flake_node(0)

    def test_parameter_validation(self):
        _sim, _topology, injector = self._injector()
        with pytest.raises(ValueError):
            injector.degrade_node(2, factor=0.0)
        with pytest.raises(ValueError):
            injector.degrade_node(2, stretch=0.5)
        with pytest.raises(ValueError):
            injector.flake_node(2, loss=1.5)
        with pytest.raises(ValueError):
            injector.flake_node(2, direction="sideways")

    def test_adversity_single_instance_and_counter_carryover(self):
        sim, _topology, injector = self._injector()
        assert injector.arm_adversity(random.Random(1), duplicate=0.5) is True
        assert injector.arm_adversity(random.Random(2), duplicate=0.5) is False
        first = injector.network.adversity
        first._dup_absorbed()
        assert injector.disarm_adversity() is True
        assert injector.disarm_adversity() is False
        # Re-arm: a fresh process counting into the same run counters.
        assert injector.arm_adversity(random.Random(3), corrupt=0.1) is True
        assert injector.network.adversity is not first
        injector.network.adversity._dup_absorbed()
        assert injector.trace.counters["gray_dup_dropped"] == 2


class TestScenarioConfigValidation:
    def test_fail_slow_bounds(self):
        with pytest.raises(ValueError):
            FailSlow(factor=0.0)
        with pytest.raises(ValueError):
            FailSlow(stretch=0.9)
        with pytest.raises(ValueError):
            FailSlow(fraction=1.5)
        with pytest.raises(ValueError):
            FailSlow(duration=0.0)

    def test_flaky_bounds(self):
        with pytest.raises(ValueError):
            Flaky(loss=1.5)
        with pytest.raises(ValueError):
            Flaky(window=0.0)
        with pytest.raises(ValueError):
            Flaky(direction="diagonal")

    def test_adversarial_bounds(self):
        with pytest.raises(ValueError):
            Adversarial(duplicate=1.0)
        with pytest.raises(ValueError):
            Adversarial(reorder_window=0.0)
        with pytest.raises(ValueError):
            Adversarial(start=5.0, stop=5.0)

    def test_gray_chaos_bounds(self):
        with pytest.raises(ValueError):
            GrayChaos(degrade_factor=0.0)
        with pytest.raises(ValueError):
            GrayChaos(flake_loss=0.0)
        with pytest.raises(ValueError):
            GrayChaos(corrupt=1.0)
        with pytest.raises(ValueError):
            GrayChaos(degrade_weight=-1.0)

    def test_message_adversity_rate_validation(self):
        counters = TraceCollector(Simulator(), num_blocks=1).counters
        with pytest.raises(ValueError):
            MessageAdversity(None, random.Random(1), counters, duplicate=1.0)
        with pytest.raises(ValueError):
            MessageAdversity(None, random.Random(1), counters, reorder_window=0.0)
