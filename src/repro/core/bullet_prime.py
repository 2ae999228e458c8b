"""The Bullet' node (paper section 3).

One :class:`BulletPrimeNode` per overlay participant.  The node composes
the strategy modules of this package:

- joins the control tree and runs RanSub over it;
- if it is the source, pushes the file's blocks to its tree children
  round-robin (:class:`~repro.core.source.SourcePusher`) and advertises
  itself once the full file has entered the system;
- otherwise maintains an adaptive set of *senders* it pulls from and
  *receivers* it serves (:class:`~repro.core.peering.PeerSetPolicy`),
  orders requests with the configured strategy
  (:class:`~repro.core.request.AvailabilityView`), sizes the per-sender
  request pipeline with the XCP-style controller
  (:class:`~repro.core.flow_control.OutstandingController`), and keeps
  its receivers informed through incremental self-clocked diffs
  (:class:`~repro.core.diffs.DiffTracker`).
"""

from repro.common.params import Param
from repro.common.rng import split_rng
from repro.core.diffs import DiffTracker, diff_wire_size
from repro.core.download import BLOCK_SIZE, DownloadState, block_checksum
from repro.core.flow_control import ALPHA, BETA, OutstandingController
from repro.core.peering import (
    INITIAL_PEERS,
    MAX_PEERS,
    MIN_PEERS,
    PRUNE_SIGMA,
    PeerSetPolicy,
)
from repro.core.request import REQUEST_STRATEGIES, AvailabilityView
from repro.core.source import SourcePusher
from repro.overlay.node import OverlayProtocol, SystemConfig
from repro.overlay.ransub import NodeSummary, RanSubService
from repro.sim.transport import Message

__all__ = ["BulletPrimeConfig", "BulletPrimeNode"]

#: Size of a block-request message: block id + reported incoming bw.
REQUEST_WIRE_BYTES = 24
#: How many held block ids a RanSub summary samples for usefulness
#: estimation at candidate-evaluation time.
SUMMARY_SAMPLE = 24
#: Requests kept outstanding per sender before the XCP-style controller
#: has adapted (section 3.3.3).
INITIAL_OUTSTANDING = 3
#: Blocks the source keeps queued per tree child.
SOURCE_PUSH_WINDOW = 2

# Failure detection.  Dormant (zero timers, zero events) until the fault
# injector arms it network-wide at the first real fault; the constants
# below only matter from that point on.
#: A request outstanding past ``FD_RTO_MULTIPLE * max(rtt, rto)`` with no
#: data arriving triggers a retry round.
FD_RTO_MULTIPLE = 4.0
#: Retry rounds (with exponential backoff + jitter) before the peer is
#: declared dead and its in-flight blocks re-requested elsewhere.
FD_MAX_RETRIES = 2
#: Floor on the suspicion timeout, so near-zero-RTT paths do not thrash
#: the detector.
FD_MIN_TIMEOUT = 2.0
#: Handshakes to crashed nodes black-hole; give up after this long.
FD_CONNECT_TIMEOUT = 5.0
#: RanSub distribute silence (in epochs) before the tree parent is
#: presumed dead and the node climbs toward the root.
FD_LIVENESS_EPOCHS = 3.0


class BulletPrimeConfig(SystemConfig):
    """Every tunable of the system, declared once.

    The paper's stated goal is to *minimize* user-visible knobs: the
    defaults below are the paper's own constants, and the non-default
    modes exist to reproduce its ablation experiments (static peer sets,
    fixed outstanding requests, alternative request strategies).  Values
    nothing varies (the failure-detector constants, the RanSub subset
    size) are module constants, not knobs.  A slow sender is shed by the
    paper's own per-epoch prune (``prune_sigma``); there is no second
    straggler response.
    """

    params = (
        Param("block_size", "int", BLOCK_SIZE, "bytes per block", "[1, inf)"),
        Param("encoded", "bool", False, "source-side rateless encoding (section 4.2)"),
        Param(
            "request_strategy",
            "str",
            "rarest_random",
            "which useful block to request next (section 3.3.2)",
            REQUEST_STRATEGIES,
        ),
        # Peering (section 3.3.1).
        Param("adaptive_peering", "bool", True, "size and prune peer sets per epoch"),
        Param("initial_senders", "int", INITIAL_PEERS, "senders at start", "[1, inf)"),
        Param(
            "initial_receivers", "int", INITIAL_PEERS, "receivers at start", "[1, inf)"
        ),
        Param("min_peers", "int", MIN_PEERS, "floor of an adaptive set", "[1, inf)"),
        Param("max_peers", "int", MAX_PEERS, "cap of an adaptive set", "[1, inf)"),
        Param(
            "prune_sigma",
            "float",
            PRUNE_SIGMA,
            "prune peers this many standard deviations below the mean",
            "[0, inf)",
        ),
        # Flow control (section 3.3.3).
        Param(
            "adaptive_outstanding", "bool", True, "XCP-style per-sender request window"
        ),
        Param(
            "fixed_outstanding",
            "int",
            INITIAL_OUTSTANDING,
            "the window when adaptive_outstanding is off",
            "[1, inf)",
        ),
        Param("fc_alpha", "float", ALPHA, "controller gain on spare rate", "(0, inf)"),
        Param("fc_beta", "float", BETA, "controller gain on queued bytes", "(0, inf)"),
        Param("ransub_epoch", "float", 5.0, "seconds per RanSub epoch", "(0, inf)"),
    )

    def policy_pair(self):
        """Build (sender policy, receiver policy) from the config."""
        make = lambda initial: PeerSetPolicy(
            initial=initial,
            minimum=min(self.min_peers, initial),
            maximum=max(self.max_peers, initial),
            prune_sigma=self.prune_sigma,
            adaptive=self.adaptive_peering,
        )
        return make(self.initial_senders), make(self.initial_receivers)


class _SenderState:
    """Receiver-side bookkeeping for one peer we download from."""

    __slots__ = (
        "conn",
        "peer",
        "controller",
        "outstanding",
        "marked_block",
        "diff_request_pending",
        "bytes_mark",
        "epoch_bw",
        "idle_epochs",
        "limit",
        "last_data_at",
        "fd_timer",
        "fd_armed_at",
        "fd_retries",
    )

    def __init__(self, conn, peer, controller):
        self.conn = conn
        self.peer = peer
        self.controller = controller
        self.outstanding = set()
        self.marked_block = None
        self.diff_request_pending = False
        self.bytes_mark = 0
        self.epoch_bw = 0.0
        #: Consecutive epochs this sender delivered nothing and had
        #: nothing useful on offer (dead-weight detection).
        self.idle_epochs = 0
        #: Cached ``controller.limit``; refreshed only when the
        #: controller reports a change, so the per-block pump reads an
        #: attribute instead of re-deriving the ceiling.
        self.limit = controller.limit
        #: Failure-detector state: when data last arrived, the pending
        #: suspicion timer (None while disarmed), the arming instant, and
        #: how many retry rounds have fired without progress.
        self.last_data_at = 0.0
        self.fd_timer = None
        self.fd_armed_at = 0.0
        self.fd_retries = 0


class _ReceiverState:
    """Sender-side bookkeeping for one peer we upload to."""

    __slots__ = (
        "conn",
        "peer",
        "tracker",
        "cursor",
        "reported_incoming_bw",
        "bytes_mark",
        "epoch_bw",
        "pipe_idle",
    )

    def __init__(self, conn, peer, num_blocks):
        self.conn = conn
        self.peer = peer
        self.tracker = DiffTracker(num_blocks)
        #: Index into the node's arrival_order list: everything before it
        #: has been considered for diffing to this receiver.
        self.cursor = 0
        self.reported_incoming_bw = 0.0
        self.bytes_mark = 0
        self.epoch_bw = 0.0
        #: Mirrors ``conn.send_queue_blocks == 0``, maintained by the
        #: connection's low-watermark event plus the one site that enqueues
        #: blocks — the self-clocked diff check per ingested block is a
        #: flag read instead of a queue poll.
        self.pipe_idle = True


class BulletPrimeNode(OverlayProtocol):
    """One Bullet' participant."""

    def __init__(self, network, node_id, tree, source_id, config, trace):
        super().__init__(network, node_id, trace)
        self.config = config
        self.tree = tree
        self.source_id = source_id
        self.is_source = node_id == source_id
        self.rng = split_rng(config.seed, f"bp.{node_id}")

        self.state = DownloadState(config.num_blocks, encoded=config.encoded)
        #: Blocks in acquisition order (drives incremental diff cursors).
        self.arrival_order = []

        self.senders = {}  # conn -> _SenderState
        self.receivers = {}  # conn -> _ReceiverState
        self.sender_policy, self.receiver_policy = config.policy_pair()
        self._pending_senders = set()  # peer ids with connects in flight
        #: Blocks stranded in flight when a sender was declared dead (or
        #: discarded as corrupt); membership tags the re-request so it is
        #: counted once.
        self._orphaned = set()
        #: True while a tree (re-)attach handshake is in flight.
        self._tree_connecting = False
        #: Set when a repair or restart detaches us from the tree; the
        #: next successful attach counts as a rejoin.
        self._fd_rejoin_pending = False

        #: The tree links are ``ransub.parent_conn`` / ``child_conns``.
        #: The parent connection's ``bytes_received`` at the last
        #: bandwidth epoch (or at attach).
        self._tree_bytes_mark = 0
        self.ransub = RanSubService(
            self,
            tree,
            state_provider=self._summary,
            on_subset=self._on_subset,
            epoch_period=config.ransub_epoch,
            seed=config.seed,
        )
        #: Which sender can supply which block; also owns which blocks are
        #: requested or held, so no block is requested twice.
        self.avail = AvailabilityView(
            config.request_strategy,
            split_rng(config.seed, f"bp.req.{node_id}"),
            config.num_blocks,
        )

        self.pusher = None
        # An unencoded source holds the full file but only advertises
        # through RanSub once the file has entered the system.
        self.source_advertised = False
        if self.is_source:
            self._init_source()

        self._last_epoch_time = 0.0
        self._epoch_incoming_bw = 0.0
        self._epoch_outgoing_bw = 0.0
        self.stats = {
            "requests_sent": 0,
            "diffs_sent": 0,
            "blocks_served": 0,
            "senders_pruned": 0,
            "receivers_pruned": 0,
            "rejected_peers": 0,
        }

    # -- lifecycle -----------------------------------------------------------------

    def _init_source(self):
        if self.config.encoded:
            self.pusher = SourcePusher(
                self.config.block_size,
                encoded=True,
                window=SOURCE_PUSH_WINDOW,
                on_block_pushed=self._source_generated,
            )
        else:
            for block in range(self.config.num_blocks):
                self.state.add(block)
                self.arrival_order.append(block)
            self.pusher = SourcePusher(
                self.config.block_size,
                block_ids=range(self.config.num_blocks),
                window=SOURCE_PUSH_WINDOW,
                on_pass_complete=self._source_pass_complete,
            )

    def _source_generated(self, block):
        # Encoded mode: each generated block becomes servable.
        if self.state.add(block):
            self.arrival_order.append(block)

    def _source_pass_complete(self):
        self.source_advertised = True

    def start(self):
        super().start()
        self._tree_attach = self.tree.parent_of(self.node_id)
        if self._tree_attach is not None:
            self._connect_tree(self._tree_attach)
        if self.node_id == self.tree.root:
            self.ransub.start_root()

    def _connect_tree(self, target):
        # With detection armed, a handshake to a crashed ancestor must
        # not strand the whole subtree: time it out and climb further.
        self._tree_connecting = True
        self.connect(
            target,
            self._tree_parent_connected,
            timeout=FD_CONNECT_TIMEOUT if self._fd_enabled else None,
            on_timeout=self._tree_connect_timed_out,
        )

    def _tree_connect_timed_out(self):
        self._tree_connecting = False
        self.trace.counters["fd_suspects"] += 1
        self._repair_tree()

    def _tree_parent_connected(self, conn):
        self._tree_connecting = False
        if conn.closed:
            # The attach target died during the handshake: climb on.
            self._repair_tree()
            return
        # Bytes from the tree parent are measured from this connection's
        # own count, never from a previous parent's.
        self._tree_bytes_mark = conn.bytes_received
        self.ransub.parent_conn = conn
        if self._fd_rejoin_pending:
            self._fd_rejoin_pending = False
            self.trace.counters["fd_rejoins"] += 1
        conn.send(
            Message("bp_tree_hello", payload={"node": self.node_id}, size=16)
        )

    def _repair_tree(self):
        """The tree parent failed: re-attach under the nearest ancestor.

        A failed interior node would otherwise cut its whole subtree off
        from RanSub (and, near the source, from pushed blocks).  The mesh
        keeps existing peerings alive regardless — that resilience split
        is exactly the paper's section-1 argument for meshes — but
        membership discovery needs the control tree, so we climb the
        static tree toward the root (the source, which outlives the
        session) and reconnect there.
        """
        if self.stopped or self.node_id == self.tree.root:
            return  # the root would re-attach to itself
        ancestor = self.tree.parent_of(self._tree_attach)
        if ancestor is None:  # a re-attach to the root timed out: retry it
            ancestor = self.tree.root
        if self._fd_enabled:
            self._fd_rejoin_pending = True
        self._tree_attach = ancestor
        self._connect_tree(ancestor)

    # -- connection classification ---------------------------------------------------

    def accepted(self, conn):
        # The first message (tree hello or peer hello) classifies it.
        pass

    def on_bp_tree_hello(self, conn, message):
        self.ransub.child_conns[message.payload["node"]] = conn
        if self.is_source:
            self.pusher.add_child(conn)

    def connection_closed(self, conn):
        if conn in self.senders:
            self._drop_sender(conn, initiated=False)
        elif conn in self.receivers:
            self.receivers.pop(conn, None)
        else:
            self._detach_tree(conn)
            if self.is_source and self.pusher is not None:
                self.pusher.remove_child(conn)

    def _detach_tree(self, conn):
        """Forget the tree link ``conn``; losing the parent link climbs
        to a new one (``conn=None``, a silent parent, climbs too)."""
        children = self.ransub.child_conns
        for node, child_conn in list(children.items()):
            if child_conn is conn:
                del children[node]
        if conn is self.ransub.parent_conn:
            self.ransub.parent_conn = None
            self._repair_tree()

    # -- failure detection (armed by the fault injector) ------------------------------

    def arm_detection(self, gray):
        """Arm the failure detectors (idempotent); ``gray`` also turns on
        checksum verification of pulled and pushed blocks.

        Two detectors cover the two ways a silent crash can starve this
        node: the *sender detector* (a block request outstanding past a
        multiple of the path RTO with no data arriving) and the *tree
        heartbeat* (RanSub distribute silence means the path to the root
        is gone).  Both are pure additions to the event timeline — in
        fault-free runs neither ever schedules anything.
        """
        if gray:
            self._gray_enabled = True
        if self._fd_enabled or self.stopped:
            return
        self._fd_enabled = True
        for conn in list(self.senders):
            self._arm_sender_detector(conn)
        if self.node_id != self.tree.root:
            # Start the heartbeat clock now: silence is only meaningful
            # from the moment we began watching.
            self.ransub.last_distribute_at = self.sim.now
            self.periodic(self.config.ransub_epoch, self._check_tree_liveness)

    def _fd_timeout(self, sender):
        flow = sender.conn.flow
        base = max(
            FD_RTO_MULTIPLE * max(flow.rtt, flow.rto),
            FD_MIN_TIMEOUT,
        )
        # Exponential backoff per retry round, jittered so a wave of
        # detectors armed by the same fault does not fire in lockstep.
        # The jitter is deliberately one-sided (+0-10%, never early): a
        # symmetric ±10% could fire *before* the nominal deadline and
        # suspect a peer that was still inside its window.  Recorded
        # fault-scenario cells pin this exact form.
        return base * (2.0**sender.fd_retries) * (1.0 + 0.1 * self.rng.random())

    def _arm_sender_detector(self, conn):
        sender = self.senders.get(conn)
        if sender is None or not sender.outstanding or sender.fd_timer is not None:
            return
        sender.fd_armed_at = self.sim.now
        sender.fd_timer = self.schedule(
            self._fd_timeout(sender),
            lambda: self._sender_detector_fired(conn),
        )

    def _sender_detector_fired(self, conn):
        sender = self.senders.get(conn)
        if sender is None:
            return
        sender.fd_timer = None
        if not sender.outstanding or conn.closed or self.state.complete:
            return
        if sender.last_data_at >= sender.fd_armed_at:
            # Data arrived since arming: alive, just slow.  Reset the
            # retry ladder and keep watching.
            sender.fd_retries = 0
            self._arm_sender_detector(conn)
            return
        if sender.fd_retries < FD_MAX_RETRIES:
            # Retry round: re-send every outstanding request and back off.
            sender.fd_retries += 1
            self.trace.counters["fd_retries"] += 1
            for block in sorted(sender.outstanding):
                self._send_request(conn, block)
            self._arm_sender_detector(conn)
            return
        # Out of retries: the peer is dead to us.  Orphan its in-flight
        # blocks (so their re-request elsewhere is counted) and drop it —
        # _drop_sender releases the blocks and re-pumps the other senders,
        # and every remaining sender that advertised a block offers it
        # again (see core/request.py).
        self.trace.counters["fd_suspects"] += 1
        self._orphaned.update(sender.outstanding)
        self._drop_sender(conn, initiated=True)

    def _check_tree_liveness(self):
        if self._tree_connecting:
            return True  # re-attach already in progress
        window = FD_LIVENESS_EPOCHS * self.config.ransub_epoch
        if self.sim.now - self.ransub.last_distribute_at < window:
            return True
        # No distribute wave for several epochs: the parent (or the path
        # above it) is dead.  Self-close never invokes connection_closed
        # locally, so detach bookkeeping happens here before climbing.
        self.trace.counters["fd_suspects"] += 1
        self.ransub.last_distribute_at = self.sim.now
        conn = self.ransub.parent_conn
        if conn is not None and not conn.closed:
            conn.close()
        self._detach_tree(conn)
        return True

    # -- RanSub summaries and peering decisions ---------------------------------------

    def _summary(self):
        held = len(self.state)
        if self.is_source and not self.config.encoded and not self.source_advertised:
            # Stay invisible until the full file entered the system.
            held = 0
            sample = ()
        else:
            sample = self._sample_held(SUMMARY_SAMPLE)
        return NodeSummary(
            node_id=self.node_id,
            blocks_held=held,
            sample_blocks=sample,
            incoming_bw=self._epoch_incoming_bw,
            epoch=self.ransub.epoch,
        )

    def _sample_held(self, k):
        if not self.arrival_order:
            return ()
        if len(self.arrival_order) <= k:
            return tuple(self.arrival_order)
        return tuple(self.rng.sample(self.arrival_order, k))

    def _on_subset(self, summaries):
        now = self.sim.now
        elapsed = max(now - self._last_epoch_time, 1e-9)
        self._last_epoch_time = now
        self._measure_bandwidth(elapsed)
        self._manage_senders(summaries)
        self._manage_receivers()

    def _measure_bandwidth(self, elapsed):
        incoming = 0.0
        for s in self.senders.values():
            received = s.conn.bytes_received
            s.epoch_bw = (received - s.bytes_mark) / elapsed
            s.bytes_mark = received
            incoming += s.epoch_bw
        parent = self.ransub.parent_conn
        if parent is not None and not parent.closed:
            incoming += (parent.bytes_received - self._tree_bytes_mark) / elapsed
            self._tree_bytes_mark = parent.bytes_received
        outgoing = 0.0
        for r in self.receivers.values():
            sent = r.conn.bytes_sent
            r.epoch_bw = (sent - r.bytes_mark) / elapsed
            r.bytes_mark = sent
            outgoing += r.epoch_bw
        self._epoch_incoming_bw = incoming
        self._epoch_outgoing_bw = outgoing

    def _manage_senders(self, summaries):
        if self.is_source:
            return  # the source only serves
        policy = self.sender_policy
        policy.manage(len(self.senders), self._epoch_incoming_bw)

        # Dead-weight senders: no bytes delivered, nothing outstanding and
        # nothing useful advertised for two consecutive epochs.  The
        # 1.5-sigma rule cannot catch these when *every* sender stalls
        # (stddev ~ 0), so they are dropped unconditionally to free slots.
        for conn, s in list(self.senders.items()):
            if s.epoch_bw <= 0 and not s.outstanding and not conn.closed:
                if self.avail.candidate_count(conn) == 0:
                    s.idle_epochs += 1
                    if s.idle_epochs >= 2:
                        self.stats["senders_pruned"] += 1
                        self._drop_sender(conn, initiated=True)
                    continue
            s.idle_epochs = 0

        scores = {conn: s.epoch_bw for conn, s in self.senders.items()}
        for conn in policy.prune(scores):
            self.stats["senders_pruned"] += 1
            self._drop_sender(conn, initiated=True)
        scores = {conn: s.epoch_bw for conn, s in self.senders.items()}
        for conn in policy.over_target(scores):
            self.stats["senders_pruned"] += 1
            self._drop_sender(conn, initiated=True)

        want = policy.target - len(self.senders) - len(self._pending_senders)
        if want <= 0 or self.state.complete:
            return
        current_peers = {s.peer for s in self.senders.values()}
        candidates = []
        for summary in summaries:
            if summary.node_id == self.node_id:
                continue
            if summary.node_id in current_peers or summary.node_id in self._pending_senders:
                continue
            usefulness = self._estimate_useful(summary)
            if usefulness > 0:
                candidates.append((usefulness, summary.node_id))
        candidates.sort(key=lambda pair: (-pair[0], pair[1]))
        for _usefulness, peer in candidates[:want]:
            self._pending_senders.add(peer)
            self.connect(
                peer,
                lambda conn, p=peer: self._sender_connected(conn, p),
                timeout=FD_CONNECT_TIMEOUT if self._fd_enabled else None,
                on_timeout=lambda p=peer: self._sender_connect_timed_out(p),
            )

    def _sender_connect_timed_out(self, peer):
        # RanSub advertised a peer that died before we reached it.
        self._pending_senders.discard(peer)
        self.trace.counters["fd_suspects"] += 1

    def _estimate_useful(self, summary):
        """Expected count of blocks this candidate has that we want."""
        if summary.blocks_held == 0:
            return 0.0
        if not summary.sample_blocks:
            return float(summary.blocks_held)
        missing = sum(1 for b in summary.sample_blocks if self.state.wants(b))
        fraction = missing / len(summary.sample_blocks)
        return summary.blocks_held * fraction

    def _manage_receivers(self):
        policy = self.receiver_policy
        policy.manage(len(self.receivers), self._epoch_outgoing_bw)
        # Rank receivers by how much of *their* bandwidth we provide: a
        # receiver that depends on us scores high and is kept.
        scores = {}
        for conn, r in self.receivers.items():
            total = max(r.reported_incoming_bw, 1e-9)
            dependence = min(r.epoch_bw / total, 1.0)
            scores[conn] = dependence * max(r.epoch_bw, 1e-9)
        for conn in policy.prune(scores):
            self.stats["receivers_pruned"] += 1
            self._drop_receiver(conn)
        scores = {c: s for c, s in scores.items() if c in self.receivers}
        for conn in policy.over_target(scores):
            self.stats["receivers_pruned"] += 1
            self._drop_receiver(conn)

    def _drop_sender(self, conn, initiated):
        state = self.senders.pop(conn, None)
        if state is None:
            return
        if state.fd_timer is not None:
            state.fd_timer.cancel()
            state.fd_timer = None
        self.avail.remove_sender(conn)
        wants = self.state.wants
        for block in state.outstanding:
            if wants(block):
                self.avail.released(block)
        if initiated:
            conn.close()
        # Other senders may now supply the blocks this one owed us.
        for other in list(self.senders):
            self._pump_sender(other)

    def _drop_receiver(self, conn):
        if self.receivers.pop(conn, None) is not None:
            conn.close()

    # -- sender side of a peering (we serve) ---------------------------------------

    def on_bp_hello(self, conn, message):
        if len(self.receivers) >= self.receiver_policy.maximum:
            # Over the hard receiver cap: refuse.  The *requester* closes
            # on receipt so the reject is never lost in a torn-down queue.
            self.stats["rejected_peers"] += 1
            conn.send(Message("bp_reject", size=16))
            return
        peer = message.payload["node"]
        receiver = _ReceiverState(conn, peer, self.config.num_blocks)
        receiver.tracker.observe_receiver_has(message.payload["have"])
        self.receivers[conn] = receiver
        conn.watch_send_queue_low(1, self._receiver_pipe_drained)
        self._send_diff(receiver)

    def _receiver_pipe_drained(self, conn):
        receiver = self.receivers.get(conn)
        if receiver is not None:
            receiver.pipe_idle = True

    def on_bp_request(self, conn, message):
        receiver = self.receivers.get(conn)
        if receiver is None:
            return
        block = message.payload["block"]
        receiver.reported_incoming_bw = message.payload["incoming_bw"]
        receiver.tracker.mark(block)
        if block not in self.state:
            return  # stale availability (cannot happen with honest diffs)
        self.stats["blocks_served"] += 1
        receiver.pipe_idle = False
        conn.send(
            Message(
                "bp_block",
                payload={
                    "block": block,
                    "pushed": False,
                    "csum": block_checksum(block),
                },
                size=self.config.block_size,
                is_block=True,
            )
        )

    def on_bp_diff_request(self, conn, _message):
        receiver = self.receivers.get(conn)
        if receiver is None:
            return
        receiver.tracker.pending_request = True
        self._send_diff(receiver)

    def _send_diff(self, receiver):
        order = self.arrival_order
        if receiver.cursor >= len(order):
            # Cursor already at the tip: no new arrivals, so no slice,
            # no told-set pass — nothing to report.
            return
        fresh = receiver.tracker.next_diff(order[receiver.cursor :])
        receiver.cursor = len(order)
        if not fresh:
            # Nothing new to report: keep any explicit ask pending so the
            # next ingested block answers it immediately.
            return
        receiver.tracker.pending_request = False
        self.stats["diffs_sent"] += 1
        receiver.conn.send(
            Message(
                "bp_diff",
                payload={"blocks": fresh},
                size=diff_wire_size(len(fresh)),
            )
        )

    # -- receiver side of a peering (we pull) ---------------------------------------

    def _sender_connected(self, conn, peer):
        self._pending_senders.discard(peer)
        if self.state.complete or conn.closed:
            conn.close()
            return
        controller = OutstandingController(
            self.config.block_size,
            initial=(
                INITIAL_OUTSTANDING
                if self.config.adaptive_outstanding
                else self.config.fixed_outstanding
            ),
            alpha=self.config.fc_alpha,
            beta=self.config.fc_beta,
        )
        state = _SenderState(conn, peer, controller)
        state.bytes_mark = conn.bytes_received
        self.senders[conn] = state
        self.avail.add_sender(conn)
        have = self.arrival_order if not self.config.encoded else list(self.state.blocks())
        conn.send(
            Message(
                "bp_hello",
                payload={"node": self.node_id, "have": list(have)},
                size=16 + max(len(have) // 2, self.config.num_blocks // 8),
            )
        )

    def on_bp_reject(self, conn, _message):
        if conn in self.senders:
            self._drop_sender(conn, initiated=True)

    def on_bp_diff(self, conn, message):
        sender = self.senders.get(conn)
        if sender is None:
            return
        sender.diff_request_pending = False
        self.avail.learn(conn, message.payload["blocks"])
        self._pump_sender(conn)

    def on_bp_block(self, conn, message):
        block = message.payload["block"]
        pushed = message.payload.get("pushed", False)
        if self._gray_enabled:
            csum = message.payload.get("csum")
            if csum is not None and csum != block_checksum(block):
                self._corrupt_block(conn, block, pushed)
                return
        sender = self.senders.get(conn)
        if sender is not None and not pushed:
            sender.last_data_at = self.sim.now
            sender.outstanding.discard(block)
            sender.controller.observe_arrival(
                self.sim.now, message.size
            )
            marked = sender.marked_block == block
            if marked:
                sender.marked_block = None
            if self.config.adaptive_outstanding:
                changed = sender.controller.block_arrived(
                    requested=len(sender.outstanding) + 1,
                    in_front=message.in_front,
                    wasted=message.wasted,
                    marked=marked,
                )
                if changed:
                    sender.limit = sender.controller.limit
                    # Observe the effect before adjusting again: mark an
                    # in-flight block if one exists (a decrease makes no
                    # new request), otherwise mark the next request.
                    if sender.outstanding:
                        sender.marked_block = next(iter(sender.outstanding))
                    else:
                        sender.marked_block = "next"
            self.avail.learn(conn, (block,))
        self._ingest_block(block)
        if sender is not None:
            self._pump_sender(conn)

    def _corrupt_block(self, conn, block, pushed):
        """A block arrived whose checksum does not match: discard it.

        The block is never ingested (no poisoned download), the event is
        counted, and — when it came from a pulled request — the block is
        orphaned and re-requested from an alternate mesh peer, the same
        salvage path a dead sender's in-flight blocks take.
        """
        self.trace.counters["gray_corrupt_detected"] += 1
        sender = self.senders.get(conn)
        if sender is not None and not pushed:
            # The path is alive (bytes crossed the wire); only the data
            # was bad.  Clear the in-flight bookkeeping so the block is
            # requestable again.
            sender.last_data_at = self.sim.now
            sender.outstanding.discard(block)
            if self.state.wants(block):
                self.avail.released(block)
            if sender.marked_block == block:
                sender.marked_block = None
        if self.state.wants(block):
            self._orphaned.add(block)
        if sender is not None:
            # Prefer an alternate peer for the re-request; fall back to
            # the same sender (corruption is probabilistic, a retry may
            # well succeed).
            for other in list(self.senders):
                if other is not conn:
                    self._pump_sender(other)
            self._pump_sender(conn)

    def _ingest_block(self, block):
        if not self.receive(block):
            return
        self.arrival_order.append(block)
        self.avail.ingested(block)
        # Self-clocked diffs: receivers with an idle request pipeline (or
        # an explicit ask outstanding) hear about new availability now.
        # ``pipe_idle`` is pushed by the connection's low-watermark event,
        # so this per-block pass is flag reads, not queue polls — and
        # nothing in _send_diff mutates the receiver table, so the dict
        # is iterated directly (no per-block copy).
        for receiver in self.receivers.values():
            if receiver.conn.closed:
                continue
            if receiver.pipe_idle or receiver.tracker.pending_request:
                self._send_diff(receiver)
        if self.latch_completion():
            self._download_finished()

    def _download_finished(self):
        # Stop pulling; keep serving (nodes cooperate after completion).
        for conn in list(self.senders):
            self._drop_sender(conn, initiated=True)
        self._pending_senders.clear()

    def _pump_sender(self, conn):
        sender = self.senders.get(conn)
        if sender is None or conn.closed or self.state.complete:
            return
        # Without adaptive_outstanding the controller starts at
        # fixed_outstanding and never moves, so one limit serves both.
        limit = sender.limit
        while len(sender.outstanding) < limit:
            block = self.avail.pick(conn)
            if block is None:
                self._maybe_request_diff(sender)
                break
            sender.outstanding.add(block)
            self.avail.taken(block)
            if self._orphaned and block in self._orphaned:
                # A block a dead sender owed us, now re-requested from an
                # alternate peer.
                self._orphaned.discard(block)
                self.trace.counters["fd_rerequests"] += 1
            if sender.marked_block == "next":
                sender.marked_block = block
            self.stats["requests_sent"] += 1
            self._send_request(conn, block)
        else:
            # Prefetch availability: ask for a diff when we are *about
            # to* run out of known-useful blocks from this sender (paper
            # section 3.3.4), hiding the diff round trip instead of
            # idling the pipe when the candidate list empties.
            if self.avail.candidate_count(conn) <= limit:
                self._maybe_request_diff(sender)
        if self._fd_enabled and sender.outstanding and sender.fd_timer is None:
            self._arm_sender_detector(conn)

    def _send_request(self, conn, block):
        conn.send(
            Message(
                "bp_request",
                payload={"block": block, "incoming_bw": self._epoch_incoming_bw},
                size=REQUEST_WIRE_BYTES,
            )
        )

    def _maybe_request_diff(self, sender):
        if sender.diff_request_pending or sender.conn.closed:
            return
        sender.diff_request_pending = True
        sender.conn.send(Message("bp_diff_request", size=16))

    # -- introspection ----------------------------------------------------------------

    def __repr__(self):
        return (
            f"BulletPrimeNode({self.node_id}, src={self.is_source}, "
            f"have={len(self.state)}/{self.state.required}, "
            f"senders={len(self.senders)}, receivers={len(self.receivers)})"
        )
