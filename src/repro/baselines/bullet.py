"""The original Bullet (SOSP 2003), the paper's direct ancestor.

Bullet pushes *disjoint* subsets of an encoded stream down a RanSub
control tree — each node forwards every received block to exactly one
child, round-robin, so a child sees roughly ``1/fanout`` of its parent's
stream — and recovers the remainder by pulling from a mesh of peers
discovered through RanSub.

The push component is *lossy*: every node offers each received block to
every tree child, but a child whose pipe is full simply misses that
block (bandwidth down a tree is monotonically decreasing — the paper's
introduction uses exactly this failure mode to motivate meshes).  Deep
nodes therefore receive partial, increasingly sparse substreams and
reconcile the remainder over the mesh.

The differences from Bullet' are exactly the ones the paper's design
chapters call out, and we keep them:

- **fixed** peer set size (10 senders), no bandwidth-based pruning;
- **fixed** number of outstanding requests per sender (5);
- **periodic** full-state availability digests to every receiver each
  epoch instead of self-clocked incremental diffs (higher control
  overhead, staler information);
- random request ordering among known-missing blocks;
- duplicates are possible between the push and pull paths (the original
  Bullet paper reports ~5-10% duplicate data; canceling in-flight
  requests is not practical over TCP);
- encoded stream with the 4% reception-overhead completion rule
  (section 4.2 grants Bullet this optimistically).
"""

from repro.common.rng import split_rng
from repro.core.download import BLOCK_SIZE, DownloadState
from repro.overlay.node import OverlayProtocol, SystemConfig
from repro.overlay.ransub import NodeSummary, RanSubService
from repro.sim.transport import Message

__all__ = ["BulletConfig", "BulletNode"]


#: The one Bullet the paper compares against: nothing varies these.
TARGET_SENDERS = 10
MAX_RECEIVERS = 10
OUTSTANDING_PER_PEER = 5
DIGEST_PERIOD = 5.0
#: How many recently received block ids a periodic digest carries.
DIGEST_WINDOW = 400
#: Blocks the source keeps queued per tree child.
PUSH_WINDOW = 2


class BulletConfig(SystemConfig):
    """Bullet declares no knobs: its tunables are the constants above,
    the block size and encoding overhead :mod:`repro.core.download`'s,
    the epoch and subset size RanSub's defaults."""


class _SenderState:
    __slots__ = ("conn", "peer", "available", "outstanding")

    def __init__(self, conn, peer):
        self.conn = conn
        self.peer = peer
        self.available = set()
        self.outstanding = set()


class BulletNode(OverlayProtocol):
    """One participant of the original Bullet overlay."""

    def __init__(self, network, node_id, tree, source_id, config, trace=None):
        super().__init__(network, node_id, trace)
        self.config = config
        self.tree = tree
        self.source_id = source_id
        self.is_source = node_id == source_id
        self.rng = split_rng(config.seed, f"bullet.{node_id}")
        self.state = DownloadState(config.num_blocks, encoded=True)
        self.arrival_order = []

        self.senders = {}  # conn -> _SenderState
        self.receivers = {}  # conn -> peer id (we digest to them)
        self._pending_senders = set()
        self.requested = set()

        self.tree_conns = {}
        self._tree_children_conns = []
        self.ransub = RanSubService(
            self,
            tree,
            state_provider=self._summary,
            on_subset=self._on_subset,
            seed=config.seed,
        )
        self._generated = 0
        self.completed_at = None
        self.stats = {"duplicate_blocks": 0, "digests_sent": 0, "blocks_served": 0}

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        if self.trace is not None:
            self.trace.node_started(self.node_id)
        parent = self.tree.parent_of(self.node_id)
        if parent is not None:
            self.connect(parent, self._parent_connected)
        if self.node_id == self.tree.root:
            self.ransub.start_root()
        self.periodic(DIGEST_PERIOD, self._send_digests, jitter_rng=self.rng)

    def _parent_connected(self, conn):
        parent = self.tree.parent_of(self.node_id)
        self.tree_conns[parent] = conn
        self.ransub.parent_conn = conn
        conn.send(Message("bl_tree_hello", payload={"node": self.node_id}, size=16))

    def on_bl_tree_hello(self, conn, message):
        child = message.payload["node"]
        self.tree_conns[child] = conn
        self.ransub.child_conns[child] = conn
        self._tree_children_conns.append(conn)
        if self.is_source:
            # Event-driven generation: wake only when this child's block
            # queue drops below the push window, i.e. when a block
            # finishes transmission and leaves push_window - 1 queued —
            # the sole moment generation can make progress.
            conn.watch_send_queue_low(PUSH_WINDOW, self._child_has_room)
            self._generate()

    def _child_has_room(self, _conn):
        self._generate()

    # -- lossy tree push ----------------------------------------------------------

    def _generate(self):
        """Source: emit fresh stream blocks while any child has room."""
        while any(
            not c.closed and c.send_queue_blocks < PUSH_WINDOW
            for c in self._tree_children_conns
        ):
            block = self._generated
            self._generated += 1
            if self.state.add(block):
                self.arrival_order.append(block)
            self._forward_push(block)

    def on_bl_push(self, conn, message):
        block = message.payload["block"]
        fresh = block not in self.state
        self._ingest(block)
        if fresh:
            self._forward_push(block)

    def _forward_push(self, block):
        """Offer the block to every child; full pipes miss it (lossy
        push — deeper nodes see sparser substreams)."""
        for conn in self._tree_children_conns:
            if conn.closed:
                continue
            if conn.send_queue_blocks < PUSH_WINDOW:
                conn.send(
                    Message(
                        "bl_push",
                        payload={"block": block},
                        size=BLOCK_SIZE,
                        is_block=True,
                    )
                )

    # -- RanSub-driven peering (fixed size) -------------------------------------------

    def _summary(self):
        return NodeSummary(
            node_id=self.node_id,
            blocks_held=len(self.state),
            sample_blocks=(),
            incoming_bw=0.0,
            epoch=self.ransub.epoch,
        )

    def _on_subset(self, summaries):
        if self.is_source or self.state.complete:
            return
        want = (
            TARGET_SENDERS
            - len(self.senders)
            - len(self._pending_senders)
        )
        if want <= 0:
            return
        current = {s.peer for s in self.senders.values()}
        candidates = [
            s
            for s in summaries
            if s.node_id != self.node_id
            and s.node_id not in current
            and s.node_id not in self._pending_senders
            and s.blocks_held > 0
        ]
        # Uniform choice among viable candidates: Bullet picks peers from
        # RanSub's random subsets by working-set *difference*, which over
        # an unbounded encoded stream makes essentially every non-empty
        # peer comparable — and crucially never lets the whole overlay
        # converge on one "best" node (e.g. the source).
        self.rng.shuffle(candidates)
        for summary in candidates[:want]:
            peer = summary.node_id
            self._pending_senders.add(peer)
            self.connect(peer, lambda conn, p=peer: self._sender_connected(conn, p))

    def _sender_connected(self, conn, peer):
        self._pending_senders.discard(peer)
        if conn.closed or self.state.complete:
            conn.close()
            return
        self.senders[conn] = _SenderState(conn, peer)
        conn.send(Message("bl_join", payload={"node": self.node_id}, size=16))

    def on_bl_join(self, conn, message):
        if len(self.receivers) >= MAX_RECEIVERS:
            conn.send(Message("bl_reject", size=16))
            return
        self.receivers[conn] = message.payload["node"]
        self._digest_to(conn)

    def on_bl_reject(self, conn, _message):
        sender = self.senders.pop(conn, None)
        if sender is not None:
            for block in sender.outstanding:
                self.requested.discard(block)
        conn.close()

    def connection_closed(self, conn):
        sender = self.senders.pop(conn, None)
        if sender is not None:
            for block in sender.outstanding:
                self.requested.discard(block)
        self.receivers.pop(conn, None)
        if conn in self._tree_children_conns:
            self._tree_children_conns.remove(conn)
        for node, tree_conn in list(self.tree_conns.items()):
            if tree_conn is conn:
                self.tree_conns.pop(node)
                self.ransub.child_conns.pop(node, None)
        if conn is self.ransub.parent_conn:
            self.ransub.parent_conn = None

    # -- periodic digests ---------------------------------------------------------------

    def _send_digests(self):
        if not self.receivers:
            return True
        window = self.arrival_order[-DIGEST_WINDOW :]
        for conn in list(self.receivers):
            if not conn.closed:
                self.stats["digests_sent"] += 1
                conn.send(
                    Message(
                        "bl_digest",
                        payload={"blocks": list(window)},
                        size=16 + 2 * len(window),  # bloom-filter-style digest
                    )
                )
        return True

    def _digest_to(self, conn):
        window = self.arrival_order[-DIGEST_WINDOW :]
        conn.send(
            Message(
                "bl_digest",
                payload={"blocks": list(window)},
                size=16 + 2 * len(window),
            )
        )

    def on_bl_digest(self, conn, message):
        sender = self.senders.get(conn)
        if sender is None:
            return
        sender.available.update(message.payload["blocks"])
        self._pump(sender)

    # -- pulls ------------------------------------------------------------------------------

    def _pump(self, sender):
        if self.state.complete or sender.conn.closed:
            return
        while len(sender.outstanding) < OUTSTANDING_PER_PEER:
            candidates = [
                b
                for b in sender.available
                if b not in self.state and b not in self.requested
            ]
            if not candidates:
                return
            block = candidates[self.rng.randrange(len(candidates))]
            sender.outstanding.add(block)
            self.requested.add(block)
            sender.conn.send(Message("bl_request", payload={"block": block}, size=16))

    def on_bl_request(self, conn, message):
        block = message.payload["block"]
        if block not in self.state:
            return
        self.stats["blocks_served"] += 1
        conn.send(
            Message(
                "bl_block",
                payload={"block": block},
                size=BLOCK_SIZE,
                is_block=True,
            )
        )

    def on_bl_block(self, conn, message):
        block = message.payload["block"]
        sender = self.senders.get(conn)
        if sender is not None:
            sender.outstanding.discard(block)
            self.requested.discard(block)
            sender.available.add(block)
        self._ingest(block)
        if sender is not None:
            self._pump(sender)

    def _ingest(self, block):
        fresh = self.state.add(block)
        if not fresh:
            self.stats["duplicate_blocks"] += 1
            if self.trace is not None:
                self.trace.block_received(self.node_id, block, duplicate=True)
            return
        self.arrival_order.append(block)
        if self.trace is not None:
            self.trace.block_received(self.node_id, block)
        if self.state.complete and self.completed_at is None:
            self.completed_at = self.sim.now
            if self.trace is not None:
                self.trace.completed(self.node_id)
            for conn in list(self.senders):
                conn.close()
            self.senders.clear()

    def __repr__(self):
        return (
            f"BulletNode({self.node_id}, have={len(self.state)}/"
            f"{self.state.required}, senders={len(self.senders)})"
        )
