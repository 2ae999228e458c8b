"""Protocol base class.

:class:`OverlayProtocol` plays the role MACEDON played for the paper's
implementation: it wires one node's protocol logic to the simulator —
message dispatch by ``kind``, timers, connection management — so the
protocol modules contain only algorithm code.  It is also the one place
a node reports to its run's trace: the start, every block received (new
or duplicate) and the completion, latched once.
"""

from repro.common.params import Configurable

__all__ = ["OverlayProtocol", "SystemConfig"]


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

    def __init__(self, network, node_id, trace):
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
        #: Simulated time the download completed (see :meth:`latch_completion`).
        self.completed_at = None

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

    def _wire(self, conn):
        """Route ``conn``'s deliveries to this node: through the run's
        invariant checker (``network.invariants``) when one is
        installed, straight to :meth:`_dispatch` otherwise."""
        checker = self.network.invariants
        conn.on_message = self._dispatch if checker is None else checker.checked(self)
        conn.on_close = self._closed

    def _accepted(self, conn):
        if self.stopped:
            conn.close()  # a failed node accepts nothing
            return
        self._wire(conn)
        self.accepted(conn)

    # -- reporting ---------------------------------------------------------------

    def receive(self, block):
        """Add ``block`` to ``self.state`` and report it to the trace as an
        arrival or a duplicate; returns True when the block was new."""
        if self.state.add(block):
            self.trace.block_received(self.node_id, block)
            return True
        self.trace.block_received(self.node_id, block, duplicate=True)
        return False

    def latch_completion(self):
        """Record completion the first time :meth:`download_complete`
        holds; returns True only on that call."""
        if self.completed_at is not None or not self.download_complete():
            return False
        self.completed_at = self.sim.now
        self.trace.completed(self.node_id)
        return True

    # -- overridables ------------------------------------------------------------

    def start(self):
        """Begin protocol operation (called once by the harness).
        Subclasses call this first: it reports the node to the trace and
        latches a node that starts complete (a source holding the file)."""
        self.trace.node_started(self.node_id)
        self.latch_completion()

    def download_complete(self):
        """Whether this node holds enough to call its download done."""
        return self.state.complete

    def progress(self):
        """Useful blocks held, capped at what completion needs: full
        exactly when :meth:`download_complete` holds."""
        return min(len(self.state), self.state.required)

    def accepted(self, conn):
        """An inbound connection was established."""

    def connection_closed(self, conn):
        """A connection was closed by the remote side."""

    def arm_detection(self, gray):
        """The fault injector armed detection network-wide.

        Called on every node at the first fault, again with
        ``gray=True`` at the first *gray* fault (fail-slow, flaky link,
        message adversity), and once on each node a restart rebuilds,
        at the run's tier.  Crash detection is on from the first call;
        ``gray`` adds checksum verification, which alters protocol
        behavior beyond crash detection (a corrupt block is discarded
        and re-requested) and so stays off under plain crash scenarios.
        Subclasses arm their failure detectors here; the base class only
        records the flags so helpers stay zero-cost in fault-free runs.
        """
        self._fd_enabled = True
        if gray:
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
            self._wire(conn)
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
