"""Protocol base class.

:class:`OverlayProtocol` plays the role MACEDON played for the paper's
implementation: it wires one node's protocol logic to the simulator —
message dispatch by ``kind``, timers, connection management — so the
protocol modules contain only algorithm code.
"""

from repro.common.params import Configurable

__all__ = ["FAILURE_COUNTERS", "OverlayProtocol", "SystemConfig"]

#: ``OverlayProtocol.failure_stats`` key -> the ``summary()["perf"]``
#: counter the harness sums it into.  The ``fd_*`` ones move once fault
#: detection is armed; the ``gray_*`` ones (quarantines, re-probes,
#: corruption detections) further require *gray* detection (see
#: :meth:`OverlayProtocol.gray_detection_started`).
FAILURE_COUNTERS = {
    "retries": "fd_retries",
    "suspects": "fd_suspects",
    "rerequests": "fd_rerequests",
    "rejoins": "fd_rejoins",
    "quarantines": "gray_quarantines",
    "reprobes": "gray_reprobes",
    "corrupt_detected": "gray_corrupt_detected",
}


class SystemConfig(Configurable):
    """What every node of one system's run is built from: the file size
    and the seed — supplied by whoever sets the run up (a sweep cell, a
    figure, a test), not knobs — plus the knobs the system declares in
    ``params``."""

    def __init__(self, num_blocks=640, seed=0, **knobs):
        self.num_blocks = num_blocks
        self.seed = seed
        super().__init__(**knobs)


class OverlayProtocol:
    """One node's protocol instance.

    Subclasses register message handlers with :meth:`handler` (or by
    defining ``on_<kind>`` methods) and use :meth:`connect`,
    :meth:`schedule` and :meth:`periodic` for I/O and timers.
    """

    def __init__(self, network, node_id, trace=None):
        self.network = network
        self.sim = network.sim
        self.node_id = node_id
        self.endpoint = network.endpoint(node_id)
        self.endpoint.on_accept = self._accepted
        self.trace = trace
        self._handlers = {}
        self._timers = []
        self.stopped = False
        self.crashed = False
        #: Failure-handling work done by this node (all zeros unless
        #: fault detection was armed at some point during the run).
        self.failure_stats = dict.fromkeys(FAILURE_COUNTERS, 0)

    # -- wiring ----------------------------------------------------------------

    def handler(self, kind, fn):
        self._handlers[kind] = fn

    def _dispatch(self, conn, message):
        if self.stopped:
            return
        fn = self._handlers.get(message.kind)
        if fn is None:
            # Resolve the on_<kind> method once and memoize it: dispatch
            # runs per delivered message, and the f-string + getattr per
            # call showed up in profiles.  Explicit handler() calls still
            # win because they write the same dict.
            fn = getattr(self, f"on_{message.kind}", None)
            if fn is None:
                raise KeyError(
                    f"{type(self).__name__} node {self.node_id}: "
                    f"no handler for message kind {message.kind!r}"
                )
            self._handlers[message.kind] = fn
        fn(conn, message)

    def _accepted(self, conn):
        if self.stopped:
            conn.close()  # a failed node accepts nothing
            return
        conn.on_message = self._dispatch
        conn.on_close = self._closed
        self.accepted(conn)

    # -- overridables ------------------------------------------------------------

    def start(self):
        """Begin protocol operation (called once by the harness)."""

    def accepted(self, conn):
        """An inbound connection was established."""

    def connection_closed(self, conn):
        """A connection was closed by the remote side."""

    def fault_detection_started(self):
        """The fault injector armed detection network-wide.

        Called once per node (including nodes built later by restarts).
        Subclasses arm their failure detectors here; the base class only
        records the flag so helpers can stay zero-cost in fault-free
        runs.
        """
        self._fd_enabled = True

    def gray_detection_started(self):
        """A *gray* fault (fail-slow, flaky link, message adversity) was
        actuated somewhere in the network.

        Distinct from :meth:`fault_detection_started` on purpose: the
        gray responses (checksum verification, sender quality scoring,
        quarantine) alter protocol behavior beyond pure crash detection,
        and arming them under plain crash scenarios would perturb their
        recorded timelines.  Crash detection is always armed before (or
        with) gray detection.
        """
        self._gray_enabled = True

    # -- helpers -----------------------------------------------------------------

    _fd_enabled = False
    _gray_enabled = False
    #: Fail-slow degradation (see ``FaultInjector.degrade_node``)
    #: multiplies every one-shot protocol timer on the victim — the
    #: "process runs, but slowly" half of a gray failure.  Periodic
    #: timers (epoch clocks) deliberately keep pace: a straggler's clock
    #: still ticks, its *work* is what lags.
    timer_stretch = 1.0

    def connect(self, remote_id, on_connect, timeout=None, on_timeout=None):
        """Open a connection; the callback receives it fully wired.

        With ``timeout`` set, ``on_timeout()`` fires instead if the
        handshake has not completed within that many seconds (e.g. the
        remote crashed and the SYN black-holed).  A handshake that lands
        after the timeout is closed immediately rather than surfaced.
        """
        state = {"done": False}
        timer = None

        def wired(conn):
            conn.on_message = self._dispatch
            conn.on_close = self._closed
            if state["done"]:
                conn.close()
                return
            state["done"] = True
            if timer is not None:
                timer.cancel()
            if not self.stopped:
                on_connect(conn)

        if timeout is not None:

            def timed_out():
                if state["done"]:
                    return
                state["done"] = True
                if on_timeout is not None:
                    on_timeout()

            timer = self.schedule(timeout, timed_out)
        self.endpoint.connect(remote_id, wired)

    def _closed(self, conn):
        if not self.stopped:
            self.connection_closed(conn)

    def schedule(self, delay, fn):
        def guarded():
            if not self.stopped:
                fn()

        if self.timer_stretch != 1.0:
            delay *= self.timer_stretch
        timer = self.sim.schedule(delay, guarded)
        self._timers.append(timer)
        return timer

    def periodic(self, period, fn, jitter_rng=None):
        def guarded():
            if self.stopped:
                return False
            return fn()

        handle = self.sim.schedule_periodic(period, guarded, jitter_rng)
        self._timers.append(handle)
        return handle

    def stop(self):
        """Halt the node: cancel timers, close connections."""
        self.stopped = True
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for conn in list(self.endpoint.connections):
            conn.close()

    def crash(self):
        """Kill the node *silently* — no FINs, no goodbye.

        Every connection is aborted (peers are never notified and must
        detect the death themselves) and the endpoint black-holes
        handshakes until a restart revives it.  This is the failure model
        the paper's reliability experiments assume: a host that simply
        stops, not one that shuts down cleanly.
        """
        self.stopped = True
        self.crashed = True
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for conn in list(self.endpoint.connections):
            conn.abort()
        self.endpoint.crashed = True
