"""Reliable in-order message transport over the flow network.

Protocols in this reproduction are written against the same abstractions
MACEDON gave the paper's implementation: nodes own an :class:`Endpoint`,
open :class:`Connection` objects to peers, and exchange :class:`Message`
objects.  Each :class:`Connection` is one end of a connection: the node's
handle, and the FIFO send queue drained at the rate the
:class:`~repro.sim.tcp.FlowNetwork` allocates to that direction's flow.

The connection also implements the sender-side accounting that Bullet's
flow-control loop (paper section 3.3.3) consumes:

- ``in_front`` — number of queued blocks ahead of the "socket buffer"
  (we treat the message currently being transmitted as the socket
  buffer) when a block is sent;
- ``wasted`` — negative if the pipe sat idle before this block was
  sent (the idle gap), positive if the block waited in the queue
  before transmission began (its service time).

Loss does not drop bytes (TCP retransmits); it throttles flows through
the Mathis cap and adds a sampled retransmission delay to *control*
messages, reproducing the paper's observation that availability
information becomes stale on lossy paths.
"""

from collections import deque

from repro.common.stats import ordered_sum

__all__ = ["Message", "MessageAdversity", "Connection", "Endpoint", "Network"]

#: Per-message framing overhead in bytes (TCP/IP + protocol header).
MESSAGE_HEADER_BYTES = 64


class Message:
    """A protocol message.

    ``kind`` is a short string tag used for dispatch; ``payload`` is an
    arbitrary object (never serialized — the simulator only accounts for
    ``size`` bytes on the wire).  ``is_block`` marks bulk data-block
    messages; everything else is treated as control traffic.
    """

    __slots__ = (
        "kind",
        "payload",
        "size",
        "is_block",
        "in_front",
        "wasted",
        "_enqueued_at",
    )

    def __init__(self, kind, payload=None, size=64, is_block=False):
        if size <= 0:
            raise ValueError(f"message size must be > 0, got {size}")
        self.kind = kind
        self.payload = payload
        self.size = size
        self.is_block = is_block
        #: Filled in by the sending connection for block messages.
        self.in_front = 0
        self.wasted = 0.0
        self._enqueued_at = None

    def __repr__(self):
        return f"Message({self.kind!r}, size={self.size}, block={self.is_block})"


class MessageAdversity:
    """Seeded message-level mischief: duplication, reordering, corruption.

    Installed on ``Network.adversity`` by the fault injector (gray-failure
    scenarios); ``None`` — the default — costs the delivery path a single
    attribute read, so fault-free timelines are untouched.  All draws come
    from one dedicated RNG stream, making the mischief a pure function of
    the scenario seed.  It counts into ``counters``, the run's
    ``TraceCollector.counters``, so counts outlive a disarm/re-arm.

    Semantics are deliberately TCP-shaped:

    - *Duplication* models a retransmitted segment whose original also
      arrived: the receiver's reliable transport absorbs the copy, so the
      duplicate costs one delivery event and is counted (``gray_dup_dropped``)
      but never dispatched to a protocol.
    - *Reordering* adds a bounded extra delay to control messages (blocks
      already serialize through the flow's rate); the in-order contract
      between two blocks on one connection is preserved.
    - *Corruption* damages a block's payload in flight: the message's
      ``csum`` field (when the sender attached one) is perturbed, so
      checksum-verifying protocols detect the damage and checksum-less
      ones silently ingest a poisoned block.
    """

    __slots__ = (
        "sim",
        "rng",
        "duplicate",
        "reorder",
        "reorder_window",
        "corrupt",
        "counters",
    )

    def __init__(
        self, sim, rng, counters, duplicate=0.0, reorder=0.0, reorder_window=0.5,
        corrupt=0.0,
    ):
        for name, value in (
            ("duplicate", duplicate),
            ("reorder", reorder),
            ("corrupt", corrupt),
        ):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} rate must be in [0, 1), got {value}")
        if not reorder_window > 0:
            raise ValueError(
                f"reorder_window must be > 0, got {reorder_window}"
            )
        self.sim = sim
        self.rng = rng
        self.duplicate = duplicate
        self.reorder = reorder
        self.reorder_window = reorder_window
        self.corrupt = corrupt
        self.counters = counters

    def _dup_absorbed(self):
        # The duplicate copy arrives and the receiver's transport drops
        # it — one event, one counter, no protocol dispatch.
        self.counters["gray_dup_dropped"] += 1

    def apply(self, message, delay):
        """Possibly perturb ``message``; returns its delivery delay."""
        rng = self.rng
        if self.duplicate > 0.0 and rng.random() < self.duplicate:
            self.sim.schedule(delay, self._dup_absorbed)
        if message.is_block:
            if self.corrupt > 0.0 and rng.random() < self.corrupt:
                payload = message.payload
                if isinstance(payload, dict) and "csum" in payload:
                    payload["csum"] = payload["csum"] ^ 0x5A5A5A5A
        elif self.reorder > 0.0 and rng.random() < self.reorder:
            delay += rng.random() * self.reorder_window
            self.counters["gray_reordered"] += 1
        return delay


class Connection:
    """One end of an established bidirectional connection.

    A node's handle on a peer and the outbound FIFO behind it: messages
    queue on a :class:`collections.deque` drained at the rate the flow
    network allocates to ``flow``, and arrive at the twin end after the
    path's one-way propagation delay.  ``send_queue_blocks`` is a running
    count of the queued block messages (the one in transmission
    included), so protocols poll it in O(1) per block.

    Instead of making every protocol poll that count, the connection
    pushes the one transition protocols act on: when it drops below
    ``block_low_watermark`` the connection invokes
    ``on_block_low(connection)`` — the event-driven low-watermark path
    push senders (the source pusher, Bullet's lossy tree push,
    SplitStream's blocking multicast) and Bullet's self-clocked diff
    trigger ride on.  The callback fires at the simulated instant the
    block whose transmission takes the count from the watermark to one
    below it leaves the queue.
    """

    __slots__ = (
        "endpoint",
        "network",
        "sim",
        "local",
        "remote",
        "_twin",
        "on_message",
        "on_close",
        "closed",
        "bytes_received",
        "bytes_sent",
        "flow",
        "prop_delay",
        "queue",
        "send_queue_blocks",
        "head_remaining",
        "last_advance",
        "idle_since",
        "_event",
        "_loss",
        "_rng",
        "block_low_watermark",
        "on_block_low",
    )

    def __init__(self, endpoint, local, remote, flow, prop_delay):
        network = endpoint.network
        self.endpoint = endpoint
        self.network = network
        self.sim = network.sim
        self.local = local
        self.remote = remote
        self._twin = None
        self.on_message = None
        self.on_close = None
        self.closed = False
        self.bytes_received = 0
        #: Total wire bytes fully transmitted to the remote end.
        self.bytes_sent = 0
        self.flow = flow
        self.prop_delay = prop_delay
        self.queue = deque()
        #: Running count of block messages in ``queue`` (head included).
        self.send_queue_blocks = 0
        # head_remaining / last_advance are first written by _start_head.
        self.idle_since = network.sim.now
        self._event = None
        #: Path loss and the shared rng, cached off the hot delivery
        #: path.  The loss copy (and ``prop_delay``) track the flow's
        #: path invariants: when a dynamic scenario mutates a traversed
        #: link's loss rate or delay, the flow network refreshes the
        #: flow and ``_path_changed`` re-reads the caches — so loss and
        #: delay dynamics propagate mid-run exactly like capacity does.
        self._loss = flow.loss
        self._rng = network.rng
        #: When set, ``on_block_low(connection)`` fires the instant
        #: ``send_queue_blocks`` drops from the watermark to one below it.
        self.block_low_watermark = None
        self.on_block_low = None
        flow.on_rate_change = self._rate_changed
        flow.on_path_change = self._path_changed

    # -- sending --------------------------------------------------------------

    def send(self, message):
        """Queue ``message`` for transmission to the remote node.

        Returns False, queueing nothing, once this end is closed.
        """
        if self.closed:
            return False
        now = self.sim.now
        message._enqueued_at = now
        queue = self.queue
        if message.is_block:
            if not queue and self.idle_since is not None:
                # The pipe sat idle: report the (negative) idle gap.
                message.wasted = -(now - self.idle_since)
                message.in_front = 0
            else:
                # Positive "service time" is filled in when transmission
                # begins (_start_head); in_front counts the blocks
                # waiting behind the socket buffer, plus the buffer.
                message.wasted = 0.0
                in_front = self.send_queue_blocks
                if queue and not queue[0].is_block:
                    in_front += 1
                message.in_front = in_front
            self.send_queue_blocks += 1
        else:
            self.network.control_bytes += message.size + MESSAGE_HEADER_BYTES
        queue.append(message)
        if len(queue) == 1:
            self._start_head()
        return True

    def _start_head(self):
        message = self.queue[0]
        now = self.sim.now
        self.idle_since = None
        if message.is_block and message._enqueued_at is not None:
            wait = now - message._enqueued_at
            if wait > 0 and message.wasted >= 0:
                message.wasted = wait
        remaining = float(message.size + MESSAGE_HEADER_BYTES)
        self.head_remaining = remaining
        self.last_advance = now
        self.network.flows.activate(self.flow)
        # On both call paths (first send after idle, next message after
        # a completion) no transmission event is pending, so this is a
        # bare schedule — no cancel, no _reschedule round-trip.
        rate = self.flow.rate
        if rate > 0:
            self._event = self.sim.schedule(
                remaining / rate, self._head_transmitted
            )

    def _rate_changed(self, _flow, old_rate):
        # The transport's busiest callback (every allocation pass hits
        # every rescheduled flow): progress-credit at the old rate and
        # the transmission reschedule, one merged body, no sub-calls.  An
        # empty queue has no head to credit and no pending event.
        if not self.queue:
            return
        now = self.sim.now
        if old_rate > 0:
            remaining = self.head_remaining - old_rate * (now - self.last_advance)
            self.head_remaining = remaining if remaining > 0 else 0.0
        self.last_advance = now
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None
        rate = self.flow.rate
        if rate > 0:
            self._event = self.sim.schedule(
                self.head_remaining / rate, self._head_transmitted
            )

    def _path_changed(self, flow):
        # A traversed link's loss rate or delay moved: re-read the
        # cached copies.  ``flow.rtt`` is exactly ``2.0 * sum(delays)``,
        # so halving it reproduces the one-way delay the pair factory
        # summed, bit for bit.  Messages already in flight keep the delay
        # they were launched with (they are physically on the old path),
        # matching how rate changes only affect the head.
        self._loss = flow.loss
        self.prop_delay = flow.rtt * 0.5

    def _head_transmitted(self):
        # Only a non-empty queue has a transmission event, and the head's
        # progress state is rewritten by the next _start_head before any
        # reader looks at it.
        self._event = None
        queue = self.queue
        message = queue.popleft()
        self.bytes_sent += message.size + MESSAGE_HEADER_BYTES
        if message.is_block:
            self.send_queue_blocks -= 1
        self._deliver_later(message)
        if queue:
            self._start_head()
        else:
            self.network.flows.deactivate(self.flow)
            self.idle_since = self.sim.now
        if (
            self.on_block_low is not None
            and message.is_block
            and self.send_queue_blocks == self.block_low_watermark - 1
            and not self.closed
        ):
            self.on_block_low(self)

    def _deliver_later(self, message):
        delay = self.prop_delay
        if self._loss > 0 and not message.is_block:
            # Control messages on lossy paths occasionally wait out a
            # retransmission timeout; blocks already pay for loss through
            # the Mathis rate cap.
            if self._rng.random() < self._loss:
                delay += self.flow.rto
        adversity = self.network.adversity
        if adversity is not None:
            delay = adversity.apply(message, delay)
        # Bound-method + args scheduling: no per-message closure on the
        # busiest path in the simulator.
        self.sim.schedule(delay, self._deliver, message)

    def _deliver(self, message):
        twin = self._twin
        if twin is None or twin.closed:
            # In-flight message arriving after the receiving side closed
            # (or crashed): dropped on the floor, never dispatched.  The
            # counter is off the hot path and feeds the invariant checker.
            self.network.dropped_after_close += 1
            return
        twin.bytes_received += message.size + MESSAGE_HEADER_BYTES
        if twin.on_message is not None:
            twin.on_message(twin, message)

    def watch_send_queue_low(self, watermark, callback):
        """Event-driven replacement for per-block send-queue polling.

        ``callback(conn)`` fires the instant the outbound block count
        drops from ``watermark`` to ``watermark - 1`` — i.e. the first
        moment a poll of ``send_queue_blocks < watermark`` would start
        returning True after the pipe was full.  Pass ``callback=None``
        to stop watching.
        """
        if watermark is not None and watermark < 1:
            raise ValueError(f"watermark must be >= 1, got {watermark}")
        self.block_low_watermark = watermark
        self.on_block_low = callback

    # -- teardown -------------------------------------------------------------

    def abort(self):
        """Tear the local side down *silently* — crash semantics.

        Unlike :meth:`close`, the twin is never notified: no FIN crosses
        the wire, so the peer's ``on_close`` never fires and any messages
        it sends afterwards are dropped at delivery.  This is what a
        power failure looks like from the other end — the peer can only
        learn of it through its own failure detector.
        """
        self._shut()

    def close(self):
        """Tear the connection down; the peer sees ``on_close`` after the
        one-way propagation delay."""
        if self._shut():
            # _shut dropped the twin if it was closed already.
            twin = self._twin
            if twin is not None:
                self.sim.schedule(self.prop_delay, twin._remote_closed)

    def _remote_closed(self):
        if self._shut() and self.on_close is not None:
            self.on_close(self)

    def _shut(self):
        """Close this end once; returns False if it was already closed."""
        if self.closed:
            return False
        self.closed = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
        if self.queue:
            self.queue.clear()
            self.send_queue_blocks = 0
            self.network.flows.deactivate(self.flow)
        # The flow's callbacks are bound methods of this end: clearing
        # them breaks the flow <-> connection cycle (the run disables the
        # cyclic collector, so a closed pair must die by refcount).  The
        # watermark goes too, so no stale low-watermark callback remains.
        self.flow.on_rate_change = None
        self.flow.on_path_change = None
        self.block_low_watermark = None
        self.on_block_low = None
        self.endpoint._forget(self)
        # Once both ends are closed, drop the twin cycle too; a late
        # delivery finds no twin and is dropped, as at a closed one.
        twin = self._twin
        if twin is not None and twin.closed:
            self._twin = twin._twin = None
        return True

    def __repr__(self):
        return f"Connection({self.local}->{self.remote}, closed={self.closed})"


class Endpoint:
    """Per-node connection factory and acceptor."""

    def __init__(self, network, node_id):
        self.network = network
        self.node_id = node_id
        #: ``on_accept(connection)`` is invoked when a remote node's
        #: connect completes; protocols assign it before starting.
        self.on_accept = None
        #: A crashed endpoint black-holes handshakes in both directions
        #: until :meth:`revive` — SYNs to it time out instead of
        #: completing, exactly what connecting to a dead host looks like.
        self.crashed = False
        #: Open connections in creation order (dict-as-ordered-set:
        #: iterating a plain set would follow id(), i.e. memory
        #: addresses, making close order — and with it event ordering
        #: under failures/churn — depend on allocation history).
        self.connections = {}

    def connect(self, remote_id, on_connect):
        """Open a connection to ``remote_id``.

        ``on_connect(connection)`` fires on the local node after one RTT
        (the TCP handshake); the remote's ``on_accept`` fires at the same
        simulated time.
        """
        if remote_id == self.node_id:
            raise ValueError(f"node {self.node_id} cannot connect to itself")
        network = self.network
        rtt = network.topology.rtt(self.node_id, remote_id)

        def established():
            remote_end = network.endpoint(remote_id)
            if self.crashed or remote_end.crashed:
                # SYN black hole: the handshake never completes when
                # either end is down.  ``on_connect`` simply never fires;
                # callers that care arm their own connect timeout.
                return
            local_conn, remote_conn = network._make_connection_pair(
                self.node_id, remote_id
            )
            on_connect(local_conn)
            if remote_end.on_accept is not None:
                remote_end.on_accept(remote_conn)

        network.sim.schedule(rtt, established)

    def revive(self):
        """Bring a crashed endpoint back: handshakes complete again."""
        self.crashed = False

    def _forget(self, connection):
        self.connections.pop(connection, None)


class Network:
    """Binds the topology, the flow allocator and all endpoints together.

    ``flows`` is the run's :class:`~repro.sim.tcp.FlowNetwork` and ``rng``
    the stream control-message loss draws from.
    """

    def __init__(self, sim, topology, flows, rng):
        self.sim = sim
        self.topology = topology
        self.flows = flows
        self.rng = rng
        self._endpoints = {}
        self._conn_counter = 0
        #: Optional :class:`MessageAdversity` installed by the fault
        #: injector's gray-failure actuators; None (the default) keeps
        #: the delivery path a single attribute read.
        self.adversity = None
        #: Optional :class:`~repro.harness.invariants.InvariantChecker`,
        #: installed by the harness before the nodes are built; every
        #: connection a node wires then delivers through it.
        self.invariants = None
        #: In-flight messages dropped because the receiving twin was
        #: already closed (crash semantics make this routine; the
        #: invariant checker surfaces it as an informational counter).
        self.dropped_after_close = 0
        #: Control bytes (every non-block message, header included) sent
        #: on any connection of the run: ``summary()["control_bytes"]``.
        self.control_bytes = 0

    def endpoint(self, node_id):
        if node_id not in self._endpoints:
            if node_id not in self.topology.nodes:
                raise KeyError(f"unknown node {node_id!r}")
            self._endpoints[node_id] = Endpoint(self, node_id)
        return self._endpoints[node_id]

    def _make_connection_pair(self, a, b):
        self._conn_counter += 1
        path_ab = self.topology.path(a, b)
        path_ba = self.topology.path(b, a)
        flow_ab = self.flows.new_flow(f"{a}->{b}#{self._conn_counter}", path_ab)
        flow_ba = self.flows.new_flow(f"{b}->{a}#{self._conn_counter}", path_ba)
        delay_ab = ordered_sum(link.delay for link in path_ab)
        delay_ba = ordered_sum(link.delay for link in path_ba)
        end_a = self.endpoint(a)
        end_b = self.endpoint(b)
        conn_ab = Connection(end_a, a, b, flow_ab, delay_ab)
        conn_ba = Connection(end_b, b, a, flow_ba, delay_ba)
        conn_ab._twin = conn_ba
        conn_ba._twin = conn_ab
        end_a.connections[conn_ab] = None
        end_b.connections[conn_ba] = None
        return conn_ab, conn_ba
