"""The gray-failure engine: fail-slow nodes, flaky links, message
adversity, and the adaptive peer quarantine.

The contract under test: gray faults are *partial* — the victim stays
up and answers every message — so the overlay can only respond through
its own measurements (EWMA goodput, detector timeouts, checksum
verification).  Every gray scenario at zero intensity installs nothing
at all (no RNG stream, no events) and must reproduce the static
baseline bit for bit, perf counters included; the recorded crash/chaos
golden cells never arm gray detection, so the quarantine machinery
cannot perturb them.
"""

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.faults import FaultInjector, LivenessWatchdog
from repro.harness.registry import SCENARIOS
from repro.harness.systems import bullet_prime_factory
from repro.scenarios.failures import Adversarial, FailSlow, Flaky, GrayChaos
from repro.sim.engine import Simulator
from repro.sim.topology import mesh_topology
from repro.sim.trace import TraceCollector
from repro.sim.transport import MessageAdversity

N = 8
NB = 24


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


class TestQuarantineLifecycle:
    def test_fail_slow_straggler_quarantined_and_reprobed(self):
        # Degrade victims hard and long enough that their EWMA goodput
        # sinks below the straggler threshold while requests are
        # outstanding: peers must quarantine them (fast backoff), and
        # after the hold expires re-probe them (slow recovery) — and
        # the run must still finish.  Uses the stock Bullet' config:
        # its block sizing makes the run long enough for the EWMA rule
        # to engage and a quarantine hold to expire mid-run.
        result = _run(
            FailSlow(),
            factory=bullet_prime_factory(),
            check_invariants=True,
        )
        perf = result.summary()["perf"]
        assert result.finished
        assert perf["gray_quarantines"] >= 1
        assert perf["gray_reprobes"] >= 1
        assert perf["watchdog_fired"] == 0
        assert result.invariants.ok, result.invariants.violations

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
        assert result.invariants.ok, result.invariants.violations

    def test_gray_chaos_full_spectrum_run_is_clean(self):
        result = _run(GrayChaos(), check_invariants=True)
        perf = result.summary()["perf"]
        assert result.finished
        assert perf["gray_corrupt_detected"] >= 1
        assert perf["gray_dup_dropped"] >= 1
        assert perf["gray_reordered"] >= 1
        assert perf["watchdog_fired"] == 0
        assert result.invariants.ok, result.invariants.violations


class TestInjectorActuators:
    def _injector(self):
        import repro.sim.engine as engine
        import repro.sim.tcp as tcp
        import repro.sim.transport as transport
        from repro.overlay.tree import build_random_tree

        sim = engine.Simulator()
        topology = mesh_topology(4, seed=1)
        flows = tcp.FlowNetwork(sim)
        network = transport.Network(sim, topology, flows)
        tree = build_random_tree(topology.nodes, root=0, fanout=4, seed=1)
        trace = TraceCollector(sim, num_blocks=4)
        nodes = bullet_prime_factory(num_blocks=4, seed=1)(network, tree, 0, trace)
        watchdog = LivenessWatchdog(sim, trace)
        return sim, topology, FaultInjector(
            sim, network, topology, nodes, trace, 0, watchdog=watchdog
        )

    def test_degrade_and_restore_round_trip(self):
        sim, topology, injector = self._injector()
        link = topology.access_up[2]
        before = link.capacity
        assert injector.degrade_node(2, factor=0.25) is True
        assert link.capacity == pytest.approx(before * 0.25)
        assert injector.gray_armed
        # Double-degrade refused; restore is exact-inverse.
        assert injector.degrade_node(2) is False
        assert injector.restore_node(2) is True
        assert link.capacity == pytest.approx(before)
        assert injector.restore_node(2) is False

    def test_flake_window_overlays_and_heals(self):
        sim, topology, injector = self._injector()
        up = topology.access_up[2]
        down = topology.access_down[2]
        injector.flake_node(2, loss=0.5, duration=5.0, direction="both")
        assert up.loss_rate > 0.0 and down.loss_rate > 0.0
        sim.run(until=6.0)
        assert up.loss_rate == pytest.approx(0.0)
        assert down.loss_rate == pytest.approx(0.0)

    @pytest.mark.xfail(
        strict=True,
        raises=ZeroDivisionError,
        reason="flake_node accepts loss=1.0 but its exact-inverse removal "
        "divides by 1 - loss (found by the in-domain fuzz: flaky loss=1.0, "
        "window=1.0); the scenario domains stop short of 1, the actuator "
        "fix is post-install code and its own PR",
    )
    def test_flake_window_at_total_loss_heals(self):
        sim, topology, injector = self._injector()
        injector.flake_node(2, loss=1.0, duration=1.0, direction="up")
        sim.run(until=2.0)
        assert topology.access_up[2].loss_rate == pytest.approx(0.0)

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
        import random

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
        import random

        counters = TraceCollector(Simulator(), num_blocks=1).counters
        with pytest.raises(ValueError):
            MessageAdversity(None, random.Random(1), counters, duplicate=1.0)
        with pytest.raises(ValueError):
            MessageAdversity(None, random.Random(1), counters, reorder_window=0.0)
