"""Fault injection: crashes, restarts, partitions, gray failures.

The :class:`FaultInjector` is the one actuation point for node-level
failures and the one arming point for everything that reacts to them.
Scenarios reach it as ``ctx.faults`` on their
:class:`~repro.scenarios.base.ScenarioContext`; the experiment harness
builds one per run and reads its ``failed`` / ``pending_restarts`` sets
in the run's stop rule, which also judges liveness (see
:func:`repro.harness.experiment.run_experiment`).

Crash semantics are *silent*: a crashed node aborts every connection
without notifying peers (no FINs cross the wire) and its endpoint
black-holes handshakes, so the rest of the overlay can only learn of the
death through its own failure detectors.  Every actuator therefore calls
:meth:`FaultInjector.arm` first, and the **first** call arms detection
network-wide through each node's ``arm_detection`` hook; a timed fault
schedules its own undo.  Fault-free runs (and a ``chaos`` scenario with
rate 0) never arm anything, which is what keeps their event timelines
bit-identical to the legacy golden matrix.

*Gray* failures — fail-slow nodes (:meth:`FaultInjector.degrade_node`),
intermittently lossy links (:meth:`FaultInjector.flake_node`), and
message-level adversity (:meth:`FaultInjector.arm_adversity`) — call
``arm(gray=True)``, which adds a second, stricter tier on top: checksum
verification of received blocks.  The split matters because it changes
protocol behavior beyond crash detection (a corrupt block is discarded
and re-requested); arming it under plain crash scenarios would perturb
the recorded crash/chaos timelines.

Nothing here keeps a count of its own: the message adversity and the
nodes write the run's ``trace.counters``, which outlive a restarted
node and a disarmed adversity alike.
"""

__all__ = ["FaultInjector"]


class FaultInjector:
    """Per-run fault actuator shared by scenarios and the harness.

    Parameters
    ----------
    sim, network, topology, trace:
        The run's simulator, transport network, topology, and trace
        collector.  ``network.invariants``, when set, is the run's
        :class:`~repro.harness.invariants.InvariantChecker`; crashes are
        audited through it.
    nodes:
        The ``{node_id: protocol}`` mapping returned by the system
        factory.  Restarts require it to expose ``rebuild(node_id)``
        (see :class:`repro.harness.systems.NodeSet`); pure-crash use
        works with any mapping.
    source_id:
        The data source — it can never be failed.
    """

    def __init__(self, sim, network, topology, nodes, trace, source_id):
        self.sim = sim
        self.network = network
        self.topology = topology
        self.nodes = nodes
        self.trace = trace
        self.source_id = source_id
        #: Node ids currently down (includes nodes awaiting restart).
        self.failed = set()
        #: Node ids with a scheduled restart that has not happened yet;
        #: the run's stop rule does not call it complete while this is
        #: non-empty.
        self.pending_restarts = set()
        self.armed = False
        self.gray_armed = False
        self._partition_active = False
        #: node_id -> (inverse rows of the uplink squeeze, stretch) while
        #: fail-slow degraded; applied by :meth:`restore_node`.
        self.degraded = {}

    # -- arming ---------------------------------------------------------------

    def arm(self, gray=False):
        """Arm detection network-wide (idempotent per tier).

        Every fault path calls this first, so detection exists from the
        first fault onward and never before: each node's
        ``arm_detection(gray)`` hook runs.  ``gray=True`` (every gray
        actuator) also enables each node's checksum verification, which
        plain crash scenarios never get.  A hook starts its node's detector timers.
        """
        if self.gray_armed or (self.armed and not gray):
            return
        self.armed = True
        self.gray_armed = gray
        for node in self.nodes.values():
            node.arm_detection(gray)

    @property
    def partition_active(self):
        return self._partition_active

    def live_receivers(self):
        """Non-source nodes currently up, in deterministic order."""
        return [
            n
            for n in self.topology.nodes
            if n != self.source_id and n not in self.failed
        ]

    def permanently_failed(self):
        """Nodes that are down with no restart scheduled."""
        return self.failed - self.pending_restarts

    # -- crash / restart -------------------------------------------------------

    def fail(self, node_id):
        """Silently crash ``node_id`` now.  Returns False if already down."""
        if node_id == self.source_id:
            raise ValueError("the source cannot be failed (it is the data)")
        if node_id not in self.nodes:
            raise ValueError(f"unknown node {node_id!r}")
        if node_id in self.failed:
            return False
        self.arm()
        self.failed.add(node_id)
        node = self.nodes[node_id]
        node.crash()
        if self.network.invariants is not None:
            self.network.invariants.node_crashed(node)
        return True

    def schedule_restart(self, node_id, delay):
        """Restart ``node_id`` after ``delay`` seconds of downtime.

        Registered immediately in ``pending_restarts`` so the harness's
        completion check cannot stop the run while the node is down —
        otherwise a fast-finishing survivor set would end the experiment
        mid-downtime and the restart would silently never happen.
        """
        if not delay >= 0:
            raise ValueError(f"restart delay must be >= 0, got {delay}")
        if node_id in self.pending_restarts:
            return
        self.pending_restarts.add(node_id)
        self.sim.schedule(delay, self._do_restart, node_id)

    def _do_restart(self, node_id):
        self.pending_restarts.discard(node_id)
        if node_id not in self.failed:
            return
        self.restart(node_id)

    def restart(self, node_id):
        """Bring a crashed node back with all protocol state lost.

        The endpoint is revived (handshakes complete again), a fresh
        protocol instance replaces the dead one, detection is armed on
        it at the run's tier, and it re-joins the overlay from scratch — re-peering and
        resuming the download exactly like a brand-new participant.
        """
        self.network.endpoint(node_id).revive()
        node = self.nodes.rebuild(node_id)
        node.arm_detection(self.gray_armed)
        degraded = self.degraded.get(node_id)
        if degraded is not None:
            # The host is still fail-slow: the new incarnation inherits
            # the stretch (the uplink squeeze lives on the links anyway).
            node.timer_stretch = degraded[1]
        # The next successful tree attach is a re-join, not a first join.
        node._fd_rejoin_pending = True
        self.failed.discard(node_id)
        node.start()
        return node

    # -- partition -------------------------------------------------------------

    def partition(self, islands, duration, squeeze=1e-3):
        """Split the topology into ``islands`` for ``duration`` seconds.

        ``islands`` is an iterable of node-id groups.  Every core link
        whose endpoints land in different islands is multiplicatively
        squeezed to a trickle (propagation delay is untouched, so
        handshakes still complete — the paper's partitions are capacity
        events, not clean cuts), then healed by applying the inverse rows
        the squeeze's write returned, which composes with any concurrent
        link scenario.

        Only one partition may be active at a time; a second request is
        refused (returns False) rather than stacked.
        """
        if not duration > 0:
            raise ValueError(f"partition duration must be > 0, got {duration}")
        if not 0 < squeeze < 1:
            raise ValueError(f"squeeze must be in (0, 1), got {squeeze}")
        if self._partition_active:
            return False
        island_of = {node: i for i, group in enumerate(islands) for node in group}
        squeezed = [
            link
            for (src, dst), link in self.topology.core.items()
            if {src, dst} <= island_of.keys() and island_of[src] != island_of[dst]
        ]
        if not squeezed:
            return False
        undo = self.topology.apply([{"link": squeezed, "scale": squeeze}])
        self.arm()
        self._partition_active = True
        self.sim.schedule(duration, self._heal, undo)
        return True

    def _heal(self, undo):
        self.topology.apply(undo)
        self._partition_active = False

    # -- gray failures ---------------------------------------------------------

    def degrade_node(self, node_id, factor=0.25, stretch=2.0, duration=None):
        """Make ``node_id`` *fail-slow*: alive, responsive, useless.

        The node's uplink capacity is multiplicatively squeezed to
        ``factor`` (healed by its inverse rows, so it composes with
        concurrent link scenarios) and every one-shot protocol
        timer on the victim is stretched by ``stretch``, modeling a host
        whose process still runs but crawls (GC thrash, disk stall,
        oversubscribed CPU).  With ``duration`` set the degradation
        auto-restores; otherwise it holds until :meth:`restore_node`.
        Returns False if the node is already degraded.
        """
        if node_id == self.source_id:
            raise ValueError("the source cannot be degraded (it is the data)")
        if node_id not in self.nodes:
            raise ValueError(f"unknown node {node_id!r}")
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        if not stretch >= 1.0:
            raise ValueError(f"stretch must be >= 1, got {stretch}")
        if duration is not None and not duration > 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        if node_id in self.degraded:
            return False
        self.arm(gray=True)
        uplinks = self.topology.uplinks(node_id)
        undo = self.topology.apply([{"link": uplinks, "scale": factor}])
        node = self.nodes.get(node_id)
        if node is not None:
            node.timer_stretch = stretch
        self.degraded[node_id] = (undo, stretch)
        if duration is not None:
            self.sim.schedule(duration, self.restore_node, node_id)
        return True

    def restore_node(self, node_id):
        """Undo :meth:`degrade_node` (idempotent; returns False if the
        node was not degraded)."""
        entry = self.degraded.pop(node_id, None)
        if entry is None:
            return False
        self.topology.apply(entry[0])
        node = self.nodes.get(node_id)
        if node is not None:
            node.timer_stretch = 1.0
        return True

    def flake_node(self, node_id, loss=0.9, duration=5.0, direction="both"):
        """Open a gray-link window on ``node_id``'s access links.

        An additional loss process of probability ``loss`` is overlaid
        (multiplicatively, clamped below 1.0 — the near-1.0 regime is an
        intermittent black hole: TCP rates collapse through the Mathis
        cap and control messages stall on retransmission timeouts) on
        the node's uplinks, downlinks, or both per ``direction``, then
        removed after ``duration`` seconds.  Windows on the same node
        compose; removal divides by ``1 - loss``: restored up to float round-off.
        """
        if node_id == self.source_id:
            raise ValueError("the source cannot be flaked (it is the data)")
        if node_id not in self.nodes:
            raise ValueError(f"unknown node {node_id!r}")
        if not 0.0 < loss < 1.0:
            raise ValueError(f"loss must be in (0, 1), got {loss}")
        if not duration > 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        if direction not in ("up", "down", "both"):
            raise ValueError(
                f"direction must be 'up', 'down', or 'both', got {direction!r}"
            )
        self.arm(gray=True)
        links = []
        if direction in ("up", "both"):
            links.extend(self.topology.uplinks(node_id))
        if direction in ("down", "both"):
            links.extend(self.topology.downlinks(node_id))
        undo = self.topology.apply([{"link": links, "overlay": loss}])
        self.sim.schedule(duration, self.topology.apply, undo)
        return True

    def arm_adversity(
        self, rng, duplicate=0.0, reorder=0.0, reorder_window=0.5, corrupt=0.0
    ):
        """Install message-level adversity on the run's network.

        ``rng`` must be a dedicated stream (scenarios derive one via
        ``ctx.rng``) so the mischief is a pure function of the scenario
        seed.  Only one adversity process may be active at a time; a
        second request is refused (returns False), mirroring
        :meth:`partition`.
        """
        if self.network.adversity is not None:
            return False
        from repro.sim.transport import MessageAdversity

        self.network.adversity = MessageAdversity(
            self.sim,
            rng,
            self.trace.counters,
            duplicate=duplicate,
            reorder=reorder,
            reorder_window=reorder_window,
            corrupt=corrupt,
        )
        self.arm(gray=True)
        return True

    def disarm_adversity(self):
        """Stop perturbing messages (its counts stay in
        ``trace.counters``).  Returns False when nothing was armed."""
        if self.network.adversity is None:
            return False
        self.network.adversity = None
        return True
