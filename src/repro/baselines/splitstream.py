"""SplitStream (paper sections 4.2 and 5).

SplitStream splits the content into ``k`` stripes and pushes each stripe
down its own tree; the forest is *interior-node-disjoint*, so each node
forwards at most one stripe and the failure or slowness of a node hurts
only 1/k of the bandwidth.  The paper ran the MACEDON "MS"
implementation in encoded mode: the source emits a digital-fountain
stream and a node completes once it holds ``(1 + 4%) * n`` distinct
blocks.

We reproduce the forest construction directly (round-robin interior
ownership, balanced leaf attachment, bounded fanout) rather than
building Scribe/Pastry underneath — the evaluation's behaviour is driven
by the forest shape and the push dynamics, not by Pastry routing.  The
paper's critique (section 5): SplitStream respects nodes' inbound and
outbound *access* capacities but never observes end-to-end overlay path
performance, so interior congestion silently starves entire subtrees.

Forwarding uses **blocking multicast** semantics, as the MACEDON
implementation's per-stripe TCP send loop does: a node forwards each
stripe block to *all* of its children in order, and when any one child's
pipe is full the whole stripe stalls at that node — back-pressure
propagates to the source, so a stripe flows at the rate of the slowest
path anywhere in its tree.  This is precisely the "bandwidth down an
overlay tree is monotonically decreasing" failure mode the paper's
introduction uses to motivate mesh systems.
"""

import math
from repro.common.params import Param
from repro.common.rng import split_rng
from repro.core.download import BLOCK_SIZE, ENCODING_OVERHEAD, DownloadState
from repro.overlay.node import OverlayProtocol, SystemConfig
from repro.sim.transport import Message

__all__ = ["SplitStreamConfig", "SplitStreamNode", "build_stripe_forest"]


#: Cap on per-node fanout within one stripe tree.  Pastry/Scribe trees
#: bound out-degree, which makes stripe trees several levels deep — the
#: depth is what exposes subtrees to interior congestion.
MAX_FANOUT = 8
#: Per-child application send queue before back-pressure stalls a
#: subtree branch.
PUSH_WINDOW = 3


class SplitStreamConfig(SystemConfig):
    """The stripe count is SplitStream's one knob; the fanout cap and
    push window are the constants above, the block size and encoding
    overhead :mod:`repro.core.download`'s."""

    params = (
        Param("num_stripes", "int", 16, "stripe trees the file splits over", "[1, inf)"),
    )


def build_stripe_forest(nodes, source, num_stripes, max_fanout, seed=0):
    """Interior-node-disjoint stripe trees.

    Stripe ``s``'s interior nodes are the participants with
    ``index % num_stripes == s`` (round-robin ownership, the standard
    way to get disjointness).  Interior nodes of a stripe form a chain of
    small groups under the source; every other node attaches as a leaf
    under one of them, balanced, respecting ``max_fanout``.

    Returns ``{stripe: {parent_node: [children]}}``.
    """
    rng = split_rng(seed, "splitstream.forest")
    others = [n for n in nodes if n != source]
    forest = {}
    for stripe in range(num_stripes):
        owners = [n for i, n in enumerate(others) if i % num_stripes == stripe]
        if not owners:
            owners = [rng.choice(others)]
        children = {source: [], **{n: [] for n in others}}
        # Interior: owners form a fanout-2 tree under the source, as a
        # Scribe tree's bounded out-degree forces (depth grows log_2 in
        # the owner count).
        frontier = [source]
        for owner in owners:
            parent = frontier[0]
            children[parent].append(owner)
            if len(children[parent]) >= 2 and len(frontier) > 1:
                frontier.pop(0)
            frontier.append(owner)
        # Leaves attach breadth-first under the owners; once every owner
        # is at max_fanout, further leaves chain under already-attached
        # leaves — trees get *deeper*, not wider, exactly the effect of
        # bounded out-degree in the real system.
        leaves = [n for n in others if n not in set(owners)]
        rng.shuffle(leaves)
        attach_points = list(owners)
        point = 0
        for leaf in leaves:
            while len(children[attach_points[point % len(attach_points)]]) >= max_fanout:
                point += 1
            parent = attach_points[point % len(attach_points)]
            children[parent].append(leaf)
            attach_points.append(leaf)
            point += 1
        forest[stripe] = {
            parent: kids for parent, kids in children.items() if kids
        }
    return forest


class SplitStreamNode(OverlayProtocol):
    """One forest participant."""

    def __init__(self, network, node_id, forest, source_id, config, trace):
        super().__init__(network, node_id, trace)
        self.config = config
        self.forest = forest
        self.source_id = source_id
        self.is_source = node_id == source_id
        self.state = DownloadState(config.num_blocks, encoded=True)
        # Encoding is applied *per stripe* (each stripe is an independent
        # fountain), so completion requires (1 + overhead) * n/k distinct
        # blocks from every stripe — stripes do not substitute for each
        # other, which is why losing one stripe tree's bandwidth hurts.
        per_stripe = config.num_blocks / config.num_stripes
        self._stripe_required = math.ceil((1.0 + ENCODING_OVERHEAD) * per_stripe)
        self._stripe_counts = [0] * config.num_stripes
        #: stripe -> list of child connections (filled as children join).
        self.stripe_children = {}
        self._expected_children = {}
        for stripe, tree in forest.items():
            for child in tree.get(node_id, ()):
                self._expected_children.setdefault(stripe, set()).add(child)
        #: stripe -> FIFO of blocks awaiting the blocking multicast (the
        #: stripe stalls here while its slowest child has no room).
        self._stripe_backlog = {}
        self._generated = 0
        self.stats = {"blocks_forwarded": 0, "stalls": 0}

    # -- lifecycle --------------------------------------------------------------

    def start(self):
        super().start()
        # Children open one connection per stripe tree they belong to —
        # the stripe trees are independent overlays with their own TCP
        # connections, so one stripe's backlog cannot starve another's.
        for stripe, tree in self.forest.items():
            for parent, kids in tree.items():
                if self.node_id in kids:
                    self.connect(
                        parent,
                        lambda conn, s=stripe: self._parent_connected(conn, s),
                    )
        if self.is_source:
            self.periodic(0.05, self._generate)

    def _parent_connected(self, conn, stripe):
        conn.send(
            Message(
                "ss_join",
                payload={"node": self.node_id, "stripe": stripe},
                size=24,
            )
        )

    def on_ss_join(self, conn, message):
        stripe = message.payload["stripe"]
        self.stripe_children.setdefault(stripe, []).append(conn)
        self._stripe_backlog.setdefault(stripe, [])
        # Blocking multicast is resumed by the channel's low-watermark
        # event — the instant this child's queue drops below the push
        # window — instead of a drain attempt per transmitted message.
        conn.watch_send_queue_low(
            PUSH_WINDOW, lambda c, s=stripe: self._drain_one(s)
        )

    # -- source stream ------------------------------------------------------------

    def _generate(self):
        """Emit fresh encoded blocks round-robin across stripes.

        A stripe accepts a new block only when *every* first-level child
        of its tree has room — the blocking multicast means the slowest
        subtree throttles its whole stripe all the way to the source.
        """
        if not self.is_source:
            return False
        made_progress = True
        while made_progress:
            made_progress = False
            for stripe in range(self.config.num_stripes):
                if self._stripe_has_room(stripe):
                    self._multicast(stripe, self._next_block_for_stripe(stripe))
                    made_progress = True
        return True

    def _next_block_for_stripe(self, stripe):
        # Block ids are striped round-robin: stripe s carries ids
        # s, s + k, s + 2k, ... — each stripe its own progression.
        counter = self._stripe_counters.setdefault(stripe, 0)
        self._stripe_counters[stripe] = counter + 1
        self._generated += 1
        return stripe + counter * self.config.num_stripes

    @property
    def _stripe_counters(self):
        if not hasattr(self, "_stripe_counters_dict"):
            self._stripe_counters_dict = {}
        return self._stripe_counters_dict

    def _stripe_has_room(self, stripe):
        conns = [
            c for c in self.stripe_children.get(stripe, ()) if not c.closed
        ]
        if not conns:
            return False
        if self._stripe_backlog.get(stripe):
            return False
        return all(
            c.send_queue_blocks < PUSH_WINDOW for c in conns
        )

    # -- blocking multicast forwarding ------------------------------------------------

    def _multicast(self, stripe, block):
        """Forward ``block`` to every child of ``stripe``, or stall the
        stripe in the backlog until the slowest child drains."""
        backlog = self._stripe_backlog.setdefault(stripe, [])
        backlog.append(block)
        self._drain_stripe(stripe)

    def _drain_stripe(self, stripe):
        backlog = self._stripe_backlog.get(stripe)
        if not backlog:
            return
        conns = [
            c for c in self.stripe_children.get(stripe, ()) if not c.closed
        ]
        if not conns:
            backlog.clear()
            return
        while backlog:
            if any(
                c.send_queue_blocks >= PUSH_WINDOW for c in conns
            ):
                self.stats["stalls"] += 1
                return  # blocking send: wait for the slowest child
            block = backlog.pop(0)
            for conn in conns:
                self.stats["blocks_forwarded"] += 1
                conn.send(
                    Message(
                        "ss_block",
                        payload={"block": block, "stripe": stripe},
                        size=BLOCK_SIZE,
                        is_block=True,
                    )
                )

    def _drain_one(self, stripe):
        self._drain_stripe(stripe)
        if self.is_source:
            self._generate()

    def on_ss_block(self, conn, message):
        block = message.payload["block"]
        stripe = message.payload["stripe"]
        if self.receive(block):
            self._stripe_counts[stripe] += 1
            self.latch_completion()
        if self.stripe_children.get(stripe):
            self._multicast(stripe, block)

    def download_complete(self):
        # Per stripe: enough blocks overall is not enough (see __init__).
        return all(
            count >= self._stripe_required for count in self._stripe_counts
        )

    def connection_closed(self, conn):
        for stripe, conns in self.stripe_children.items():
            if conn in conns:
                conns.remove(conn)
                # The departed child may have been the one back-pressuring
                # this stripe; the survivors can all be *below* the push
                # window (no crossing ever fires their low-watermark
                # callback), so the stall must be re-evaluated here or the
                # stripe deadlocks for the rest of the run.
                self._drain_stripe(stripe)
                if self.is_source:
                    self._generate()

    def __repr__(self):
        return (
            f"SplitStreamNode({self.node_id}, have={len(self.state)}/"
            f"{self.state.required})"
        )
