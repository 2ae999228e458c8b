"""Generic experiment runner.

An experiment is: a topology, a dissemination system (a factory that
builds one protocol node per participant), an optional dynamic-network
scenario, and a stop condition (all receivers complete, or a time
limit).  The runner wires them to a fresh simulator and returns an
:class:`ExperimentResult` with the completion-time CDF and raw traces.
"""

import gc

from repro.common.rng import split_rng
from repro.harness.faults import FaultInjector
from repro.overlay.tree import build_random_tree
from repro.scenarios.base import Scenario, ScenarioContext
from repro.sim.engine import Simulator
from repro.sim.tcp import FlowNetwork
from repro.sim.trace import TraceCollector
from repro.sim.transport import Network

__all__ = ["ExperimentResult", "run_experiment"]

#: Simulated seconds between checks of the run's one stop rule: every
#: survivor completed, or no node the run waits on progressed.
CHECK_PERIOD = 1.0


def _resolve_scenario(scenario):
    """Accept ``None``, a Scenario, or a registry name."""
    if isinstance(scenario, str):
        from repro.harness.registry import SCENARIOS

        return SCENARIOS.build(scenario)
    if scenario is not None and not isinstance(scenario, Scenario):
        raise TypeError(
            "scenario must be a repro.scenarios.Scenario, a name registered "
            "in repro.harness.registry.SCENARIOS, or None; got "
            f"{type(scenario).__name__}"
        )
    return scenario


def _resolve_flow_model(flow_model):
    """Accept ``None`` (default Reno), a registry name, or a model.

    Name lookup goes through :data:`repro.harness.registry.FLOW_MODELS`
    so aliases resolve and an unknown name fails with the registry's
    listing of what exists — same contract as scenario resolution.
    """
    if flow_model is None:
        return None  # FlowNetwork builds its default TcpModel
    if isinstance(flow_model, str):
        from repro.harness.registry import FLOW_MODELS

        return FLOW_MODELS.build(flow_model)
    return flow_model


class ExperimentResult:
    """Everything a figure needs from one run."""

    def __init__(self, trace, nodes, sim, finished, source_id=None,
                 failed_nodes=frozenset(), network=None):
        self.trace = trace
        self.nodes = nodes
        self.sim = sim
        #: True when every survivor completed and no restart was pending.
        self.finished = finished
        self.source_id = source_id
        #: Nodes down at the end of the run.
        self.failed_nodes = failed_nodes
        #: The :class:`~repro.sim.transport.Network` the run used: its
        #: ``flows`` (allocator perf counters), ``invariants`` (the
        #: checker, if any) and control-byte count.  None for hand-built
        #: results.
        self.network = network

    def completion_cdf(self):
        return self.trace.completion_cdf()

    @property
    def receiver_completion_times(self):
        """Completion times of non-source nodes, as a sorted list."""
        return sorted(
            t
            for node, t in self.trace.completion_times.items()
            if node != self.source_id
        )

    def perf_stats(self):
        """Deterministic work counters for this run (the simulator's
        event-core counters — events processed, events armed, heap
        compactions — plus the allocator's pass/component statistics)
        — wall-clock time deliberately excluded so summaries stay
        bit-identical across machines and runs.  The run's failure
        counters (``trace.counters``) close the dict."""
        stats = dict(self.sim.perf_stats())
        if self.network is not None:
            stats.update(self.network.flows.perf_stats())
        stats.update(self.trace.counters)
        return stats

    def summary(self):
        """Plain-data result record (what sweep cells store).

        ``median``/``p90``/``worst`` describe the completion-time CDF
        over the nodes that completed (``nodes`` counts them).  On a
        run where *no* node completed — e.g. the liveness watchdog
        fired before first delivery — they are ``None``, not a sentinel
        float: the unfinished-cell policy
        (:class:`repro.harness.sweep.StoreView`) keeps such censored
        cells out of cross-seed statistics, and a 0.0 here would
        silently drag means toward zero instead.
        """
        if self.trace.completion_times:
            cdf = self.completion_cdf()
            median, p90, worst = cdf.median, cdf.percentile(0.9), cdf.maximum
        else:
            median = p90 = worst = None
        return {
            "nodes": len(self.trace.completion_times),
            "median": median,
            "p90": p90,
            "worst": worst,
            "finished": self.finished,
            "duplicates": self.trace.total_duplicates(),
            "control_bytes": (
                self.network.control_bytes if self.network is not None else 0
            ),
            "perf": self.perf_stats(),
        }


def run_experiment(
    topology,
    node_factory,
    num_blocks,
    source_id=0,
    scenario=None,
    max_time=3600.0,
    tree_fanout=4,
    seed=0,
    flow_model=None,
    watchdog_window=60.0,
    check_invariants=False,
):
    """Run one dissemination to completion.

    Parameters
    ----------
    topology:
        A :class:`repro.sim.topology.Topology` that served no run yet.
    node_factory:
        Called as ``node_factory(network, tree, source_id, trace)`` and
        must return ``{node_id: protocol}`` with ``start()`` methods.
    num_blocks:
        File size in blocks (drives the trace collector).
    scenario:
        Optional dynamic network conditions: a
        :class:`repro.scenarios.Scenario` or a scenario name registered
        in :data:`repro.harness.registry.SCENARIOS` (anything else is a
        :class:`TypeError`).  The scenario gets the full
        :class:`~repro.scenarios.ScenarioContext` (nodes, source, seed)
        and may stagger node start times via ``ctx.start_delays``.
        Node crashes are scenarios too: ``"crash"``, or
        :class:`repro.scenarios.failures.Crash` with an explicit
        ``schedule``; failed nodes are excluded from the completion
        condition unless they finished earlier.
    max_time:
        Simulated-seconds cap; the run stops early once every surviving
        non-source node has completed.
    watchdog_window:
        Liveness window in simulated seconds: the stop rule also ends a
        run (``finished=False``, ``watchdog_fired=1``) in which some
        started, incomplete node is waited on but none has changed its
        :meth:`~repro.overlay.node.OverlayProtocol.progress` for this
        long, instead of hanging to ``max_time``.  Anything but a
        positive number (0, a negative, NaN) is a :class:`ValueError`.
    check_invariants:
        When True, install a
        :class:`repro.harness.invariants.InvariantChecker` as
        ``network.invariants`` before the nodes are built, so every
        connection delivers through its checks (no events on dead
        nodes, no delivery on closed connections); the checker is
        reachable as ``result.network.invariants``.  Off by default —
        the matrix and benchmarks run without the checking overhead.
    flow_model:
        The underlay rate-control law: a name registered in
        :data:`repro.harness.registry.FLOW_MODELS` (``"reno"``,
        ``"bbr"``, ``"autorate"``), a :class:`repro.sim.tcp.FlowModel`
        instance, or ``None`` for the default Reno/Mathis model —
        ``None`` and ``"reno"`` are bit-identical by construction (the
        golden matrix pins it).
    """
    if not watchdog_window > 0:
        raise ValueError(f"watchdog window must be > 0, got {watchdog_window}")
    if topology.served:  # its links keep the first run's state and callbacks
        raise ValueError(f"{topology!r} already served a run; build a fresh topology")
    topology.served = True
    sim = Simulator()
    flows = FlowNetwork(sim, model=_resolve_flow_model(flow_model))
    network = Network(
        sim, topology, flows, rng=split_rng(seed, "net.message_jitter")
    )
    trace = TraceCollector(sim, num_blocks)
    tree = build_random_tree(
        topology.nodes, root=source_id, fanout=tree_fanout, seed=seed
    )
    if check_invariants:
        from repro.harness.invariants import InvariantChecker

        network.invariants = InvariantChecker(network)
    nodes = node_factory(network, tree, source_id, trace)
    injector = FaultInjector(sim, network, topology, nodes, trace, source_id)

    scenario = _resolve_scenario(scenario)
    start_delays = {}
    if scenario is not None:
        ctx = ScenarioContext(
            sim,
            topology,
            nodes=nodes,
            source_id=source_id,
            seed=seed,
            faults=injector,
        )
        scenario.install(ctx)
        start_delays = ctx.start_delays
    for node_id, node in nodes.items():
        delay = start_delays.get(node_id, 0.0)
        if delay > 0 and node_id != source_id:
            sim.schedule(delay, node.start)
        else:
            node.start()

    receivers = [n for n in topology.nodes if n != source_id]

    def done():
        return not injector.pending_restarts and all(
            r in trace.completion_times for r in receivers if r not in injector.failed
        )

    seen = {}  # node id -> its progress() at the last check
    last_change = sim.now

    def stalled():
        # Waited on: started, not down for good (a node awaiting restart
        # is waited on), and its current incarnation incomplete.  A
        # rebuilt node's new value is a change too.
        nonlocal last_change
        lost = injector.permanently_failed()
        waiting = False
        for r in receivers:
            node = nodes[r]
            if r in lost or r not in trace.block_arrivals or node.download_complete():
                continue
            waiting = True
            value = node.progress()
            if seen.get(r) != value:
                seen[r] = value
                last_change = sim.now
        return waiting and sim.now - last_change >= watchdog_window

    def check_done():
        if not done():
            if not stalled():
                return True
            trace.counters["watchdog_fired"] = 1
        sim.stop()
        return False

    sim.schedule_periodic(CHECK_PERIOD, check_done)
    # Timers and messages die by reference counting; the rest of the
    # run is one cyclic graph, live until the result is dropped.  So the
    # collector is suspended for the run (no scans over millions of live
    # objects; results are unaffected), and reduce_cell frees the graph.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        sim.run(until=max_time)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ExperimentResult(
        trace,
        nodes,
        sim,
        done(),
        source_id=source_id,
        failed_nodes=injector.failed,
        network=network,
    )
