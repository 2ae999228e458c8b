"""The fault-injection engine: crash/recovery scenarios, the run's
liveness check, the invariant checker, and failure-schedule validation.

The contract under test: failures are *silent* (peers discover them via
their own detectors), restarted nodes lose all state and re-join from
scratch, the run stays alive until every scheduled restart happened and
completed, and a run whose nodes stop making progress fails fast through
the stop rule's liveness check instead of burning simulated hours.
"""

import inspect
import random

import pytest

from repro.baselines.splitstream import SplitStreamNode
from repro.core.bullet_prime import BulletPrimeNode
from repro.harness.experiment import run_experiment
from repro.harness.faults import FaultInjector
from repro.harness.invariants import InvariantChecker
from repro.harness.registry import SCENARIOS, SYSTEMS
from repro.harness.sweep import TOPOLOGIES
from repro.harness.systems import (
    bittorrent_factory,
    bullet_prime_factory,
    splitstream_factory,
)
from repro.overlay.tree import build_random_tree
from repro.scenarios.failures import Chaos, Crash, CrashRestart, Partition
from repro.sim.engine import Simulator
from repro.sim.tcp import FlowNetwork
from repro.sim.topology import mesh_topology
from repro.sim.trace import TraceCollector
from repro.sim.transport import Network

N = 8
NB = 24


def _run(scenario, seed=3, nodes=N, blocks=NB, **kwargs):
    return run_experiment(
        mesh_topology(nodes, seed=seed),
        bullet_prime_factory(num_blocks=blocks, seed=seed),
        blocks,
        scenario=scenario,
        max_time=900.0,
        seed=seed,
        **kwargs,
    )


class TestCrashRestart:
    def test_restarted_node_redownloads_and_everyone_finishes(self):
        # Kill node 5 at t=3.0 — before anything completes at this scale
        # — and bring it back 10s later with all state lost.  The run
        # must stay alive through the downtime, the fresh incarnation
        # must re-join the tree and re-download from zero, and every
        # survivor plus the restarted node must finish.
        victim = 5
        result = _run(
            CrashRestart(down_time=10.0, schedule=((3.0, victim),)),
            check_invariants=True,
        )
        assert result.finished
        assert result.failed_nodes == set()  # back up by the end
        done = result.trace.completion_times
        assert all(n in done for n in range(N))
        # Completion strictly after the restart proves the second
        # incarnation earned it (state loss means starting from zero).
        assert done[victim] > 3.0 + 10.0
        perf = result.summary()["perf"]
        assert perf["fd_rejoins"] >= 1
        assert perf["watchdog_fired"] == 0
        invariants = result.network.invariants
        assert invariants.ok, invariants.violations

    def test_permanent_crash_survivors_finish_without_victim(self):
        victim = 5
        result = _run(Crash(schedule=((3.0, victim),)), check_invariants=True)
        assert result.finished
        assert result.failed_nodes == {victim}
        assert victim not in result.trace.completion_times
        invariants = result.network.invariants
        assert invariants.ok, invariants.violations


class TestTreeRepair:
    def test_incoming_bandwidth_never_negative_after_reattach(self, monkeypatch):
        # A tree repair attaches a new parent connection whose byte count
        # starts over; measuring it against the old parent's mark made the
        # first epoch after the repair report a negative incoming rate.
        seen = []
        measure = BulletPrimeNode._measure_bandwidth

        def recording(node, elapsed):
            measure(node, elapsed)
            seen.append(node._epoch_incoming_bw)

        monkeypatch.setattr(BulletPrimeNode, "_measure_bandwidth", recording)
        result = _run(SCENARIOS.build("chaos"), seed=1)
        assert result.summary()["perf"]["fd_rejoins"] > 0
        assert seen and min(seen) >= 0.0

    @pytest.mark.parametrize("nodes,blocks,seed", [(8, 128, 4), (12, 24, 11)])
    def test_a_timed_out_reattach_to_the_root_is_retried(self, nodes, blocks, seed):
        # A node whose re-attach to the root timed out used to stay off
        # the tree for good: no RanSub subsets, no new senders once its
        # old ones were gone, and the run ended by the stall watchdog.
        scenario = SCENARIOS.build("partition")
        result = _run(scenario, seed=seed, nodes=nodes, blocks=blocks)
        assert result.finished
        assert result.trace.counters["watchdog_fired"] == 0


class TestChaosEquivalence:
    def test_rate_zero_is_bit_identical_to_none(self):
        # A zero-rate chaos scenario creates no RNG stream and schedules
        # no event, so the run must reproduce the static baseline bit
        # for bit — including every perf counter, the strictest
        # comparison the harness offers.
        quiet = _run(Chaos(rate=0.0)).summary()
        static = _run(SCENARIOS.build("none")).summary()
        assert quiet == static


class TestLivenessWatchdog:
    def test_watchdog_fails_stalled_run_instead_of_hanging(self):
        # A restart 500s out keeps the run alive long after every
        # survivor finished; with the victim making no progress, the
        # stop rule must end the run within ~1 window, not at max_time.
        result = _run(
            CrashRestart(down_time=500.0, schedule=((3.0, 5),)),
            watchdog_window=30.0,
        )
        assert not result.finished
        assert result.trace.counters["watchdog_fired"] == 1
        assert result.summary()["perf"]["watchdog_fired"] == 1
        assert result.sim.now < 500.0  # long before restart or max_time

    def test_fountain_ids_past_the_quota_do_not_keep_a_stalled_run_alive(self):
        # SplitStream's fountain source streams fresh ids forever, so
        # "a fresh block arrived somewhere" never stalls; per-node
        # progress counts only ids toward a stripe's quota.  This cell
        # used to run to max_time with the watchdog clean.
        result = run_experiment(
            TOPOLOGIES["throttled_star"](N, seed=1),
            splitstream_factory(num_blocks=NB, seed=1),
            NB,
            scenario="crash",
            seed=1,
            watchdog_window=20.0,
        )
        assert not result.finished
        assert result.trace.counters["watchdog_fired"] == 1
        assert result.sim.now < 100.0  # max_time is 3,600 s
        live = [
            node
            for node_id, node in result.nodes.items()
            if node_id != result.source_id and node_id not in result.failed_nodes
        ]
        # Fresh ids kept arriving; they were not progress.
        assert any(len(node.state) > node.progress() for node in live)

    def test_a_late_start_is_not_a_stall(self):
        # Every receiver joins after more than a window of silence: a
        # node not yet started is not waited on.
        result = _run(
            SCENARIOS.build("flash_crowd", start=120.0, ramp=5.0),
            watchdog_window=30.0,
        )
        assert result.finished
        assert result.trace.counters["watchdog_fired"] == 0
        assert result.receiver_completion_times[0] > 120.0

    @pytest.mark.parametrize("window", [0.0, -1.0, float("nan")])
    def test_window_validation(self, window):
        # NaN passes a ``window <= 0`` check; refused before the run starts.
        with pytest.raises(ValueError, match="watchdog window"):
            _run("none", watchdog_window=window)


class TestProgress:
    """``OverlayProtocol.progress()``, the stop rule's liveness signal."""

    @staticmethod
    def _full(node):
        if isinstance(node, SplitStreamNode):
            return node._stripe_required * len(node._stripe_counts)
        return node.state.required

    @pytest.mark.parametrize("system", SYSTEMS.names())
    def test_progress_rises_to_full_exactly_at_completion(self, system):
        samples = {}

        def probed(network, tree, source_id, trace):
            nodes = SYSTEMS[system](num_blocks=NB, seed=3)(
                network, tree, source_id, trace
            )

            def probe():
                for node_id, node in nodes.items():
                    if node_id != source_id and not node.crashed:
                        samples.setdefault(node_id, []).append(
                            (node.progress(), node.download_complete(), node)
                        )
                return True

            network.sim.schedule_periodic(1.0, probe)
            return nodes

        run_experiment(mesh_topology(N, seed=3), probed, NB, scenario="crash", seed=3)
        seen = [sample for series in samples.values() for sample in series]
        assert {complete for _, complete, _ in seen} == {False, True}
        for series in samples.values():
            values = [value for value, _, _ in series]
            assert values == sorted(values)  # never falls for a live node
        for value, complete, node in seen:
            assert (value == self._full(node)) == complete


class TestInvariantChecker:
    class _Conn:
        def __init__(self, closed=False):
            self.closed = closed
            self.local, self.remote = 0, 1

    class _Message:
        kind = "block"

    class _Node:
        def __init__(self):
            self.node_id = 1
            self.crashed = False
            self.seen = []

        def _dispatch(self, conn, message):
            self.seen.append(message)

    class _Network:
        dropped_after_close = 0

    def test_clean_dispatch_passes_through(self):
        checker = InvariantChecker(self._Network())
        node = self._Node()
        checker.checked(node)(self._Conn(), self._Message())
        assert checker.ok
        assert checker.dispatches_checked == 1
        assert len(node.seen) == 1

    def test_dispatch_on_crashed_node_is_a_violation(self):
        checker = InvariantChecker(self._Network())
        node = self._Node()
        dispatch = checker.checked(node)
        node.crashed = True
        dispatch(self._Conn(), self._Message())
        assert not checker.ok
        assert "crashed node" in checker.violations[0]

    def test_delivery_on_closed_connection_is_a_violation(self):
        checker = InvariantChecker(self._Network())
        node = self._Node()
        checker.checked(node)(self._Conn(closed=True), self._Message())
        assert not checker.ok
        assert "closed" in checker.violations[0]

    def test_full_chaos_run_is_clean(self):
        result = _run(SCENARIOS.build("chaos"), check_invariants=True)
        report = result.network.invariants.report()
        assert report["ok"], report["violations"]
        assert report["dispatches_checked"] > 0


class TestPartitionScenario:
    def test_partition_heals_and_run_completes(self):
        result = _run(Partition(start=2.0, duration=8.0), check_invariants=True)
        assert result.finished
        assert result.failed_nodes == set()
        invariants = result.network.invariants
        assert invariants.ok, invariants.violations


class TestFailureScheduleValidation:
    def _attempt(self, schedule):
        return run_experiment(
            mesh_topology(6, seed=1),
            bullet_prime_factory(num_blocks=16, seed=1),
            16,
            scenario=Crash(schedule=schedule),
            max_time=10.0,
            seed=1,
        )

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ([5.0], "pairs"),
            ([(float("nan"), 1)], "NaN"),
            ([(-1.0, 1)], ">= 0"),
            ([(1.0, 99)], "unknown"),
            ([(1.0, 2), (2.0, 2)], "more than once"),
            ([(1.0, 0)], "source"),
        ],
    )
    def test_malformed_schedules_rejected(self, schedule, message):
        with pytest.raises(ValueError, match=message):
            self._attempt(schedule)


class TestInjectorValidation:
    def _injector(self):
        return FaultInjector(
            sim=None,
            network=None,
            topology=None,
            nodes={1: object(), 2: object()},
            trace=None,
            source_id=0,
        )

    def test_source_cannot_be_failed(self):
        with pytest.raises(ValueError, match="source"):
            self._injector().fail(0)

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            self._injector().fail(99)

    def test_negative_restart_delay_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            self._injector().schedule_restart(1, -1.0)

    def test_partition_duration_and_squeeze_validated(self):
        with pytest.raises(ValueError, match="duration"):
            self._injector().partition([[1], [2]], duration=0.0)
        with pytest.raises(ValueError, match="squeeze"):
            self._injector().partition([[1], [2]], duration=5.0, squeeze=1.5)


class TestArming:
    """``FaultInjector.arm`` is the one arming point: per tier, once."""

    def _setup(self, check_invariants=False, factory=bullet_prime_factory):
        sim = Simulator()
        topology = mesh_topology(6, seed=1)
        network = Network(sim, topology, FlowNetwork(sim), random.Random(0))
        if check_invariants:
            network.invariants = InvariantChecker(network)
        tree = build_random_tree(topology.nodes, root=0, fanout=4, seed=1)
        trace = TraceCollector(sim, num_blocks=8)
        nodes = factory(num_blocks=8, seed=1)(network, tree, 0, trace)
        for node in nodes.values():
            node.start()
        return sim, FaultInjector(sim, network, topology, nodes, trace, 0)

    def test_arming_schedules_no_event(self):
        # Liveness belongs to the run's stop rule: the injector leaves
        # no timer behind at either tier (BitTorrent nodes keep the base
        # class's hook, which schedules nothing either).
        sim, injector = self._setup(factory=bittorrent_factory)
        sim.run(until=2.0)
        before = sim.pending_events
        injector.arm()
        assert sim.pending_events == before
        injector.arm(gray=True)
        assert sim.pending_events == before

    def test_gray_tier_after_crash_tier_schedules_nothing(self):
        sim, injector = self._setup()
        sim.run(until=2.0)
        injector.arm()
        before = sim.pending_events
        injector.arm(gray=True)
        assert sim.pending_events == before
        assert injector.armed and injector.gray_armed
        assert all(node._gray_enabled for node in injector.nodes.values())

    def test_each_tier_arms_once(self):
        sim, injector = self._setup()
        injector.arm(gray=True)
        before = sim.pending_events
        injector.arm()
        injector.arm(gray=True)
        assert sim.pending_events == before

    def test_restarted_node_comes_back_armed_and_checked(self):
        sim, injector = self._setup(check_invariants=True)
        sim.run(until=2.0)
        injector.arm(gray=True)
        victim = 3
        old = injector.nodes[victim]
        injector.fail(victim)
        node = injector.restart(victim)
        assert node is not old and node is injector.nodes[victim]
        assert node._fd_enabled and node._gray_enabled
        sim.run(until=6.0)
        conns = node.endpoint.connections
        assert conns
        for conn in conns:
            closure = inspect.getclosurevars(conn.on_message).nonlocals
            assert closure["self"] is injector.network.invariants
            assert closure["node"] is node
        assert injector.network.invariants.ok


class TestScenarioConfigValidation:
    def test_crash_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            Crash(fraction=0.0)

    def test_crash_restart_down_time_positive(self):
        with pytest.raises(ValueError, match="down_time"):
            CrashRestart(down_time=0.0)

    def test_partition_needs_two_islands(self):
        with pytest.raises(ValueError, match="islands"):
            Partition(islands=1)

    def test_chaos_dead_fraction_bounds(self):
        with pytest.raises(ValueError, match="max_dead_fraction"):
            Chaos(max_dead_fraction=1.5)

    def test_failure_scenarios_need_the_harness_injector(self):
        # Installed bare (a link-level context, no harness) there is no
        # fault injector; actuation must fail loudly, not crash nodes
        # that do not exist.
        from repro.scenarios import ScenarioContext
        from repro.sim.engine import Simulator

        sim = Simulator()
        ctx = ScenarioContext(sim, mesh_topology(4, seed=1))
        Crash(schedule=((1.0, 1),)).install(ctx)
        with pytest.raises(RuntimeError, match="fault injector"):
            sim.run(until=5.0)

    @pytest.mark.parametrize(
        "name",
        [
            "crash",
            "crash_restart",
            "partition",
            "chaos",
            "fail_slow",
            "flaky",
            "adversarial",
            "gray_chaos",
        ],
    )
    def test_every_fault_scenario_refuses_a_bare_context(self, name):
        # ctx.faults is the checked accessor: each actuation reaches it,
        # so a context built without the harness says so in full.
        from repro.scenarios import ScenarioContext
        from repro.sim.engine import Simulator

        sim = Simulator()
        ctx = ScenarioContext(sim, mesh_topology(6, seed=1), source_id=0, seed=1)
        params = {"rate": 5.0} if name.endswith("chaos") else {}
        SCENARIOS.build(name, **params).install(ctx)
        message = (
            "this scenario injects node failures and needs the experiment "
            "harness's fault injector; install it via run_experiment, not "
            "as a bare link-level scenario"
        )
        with pytest.raises(RuntimeError) as raised:
            sim.run(until=60.0)
        assert str(raised.value) == message
