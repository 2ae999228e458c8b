"""RanSub: uniformly random subsets over the control tree.

RanSub (Kostic et al., USITS 2003) periodically sweeps the control tree:
a *distribute* wave travels from the root to the leaves delivering each
node a uniformly random subset of all participants' states, then a
*collect* wave travels back up re-sampling fresh state.  At each interior
node the children's samples are merged by weighted reservoir sampling
(weights = subtree sizes), which preserves uniformity without any node
holding more than O(subset_size) state.

Bullet' runs RanSub with a 5-second epoch and attaches a
:class:`NodeSummary` (identity + file-content summary + bandwidth) to
each sample entry; the peering strategy consumes the delivered subsets.
"""

from repro.common.rng import split_rng
from repro.common.stats import ordered_sum
from repro.sim.transport import Message

__all__ = ["NodeSummary", "RanSubService", "SUMMARY_WIRE_BYTES"]

#: Wire size we account per summary entry: identity, counters, and a
#: bounded sample of held block ids.
SUMMARY_WIRE_BYTES = 160


class NodeSummary:
    """Application state gossiped through RanSub for one node."""

    __slots__ = ("node_id", "blocks_held", "sample_blocks", "incoming_bw", "epoch")

    def __init__(self, node_id, blocks_held=0, sample_blocks=(), incoming_bw=0.0, epoch=0):
        self.node_id = node_id
        self.blocks_held = blocks_held
        #: A bounded random sample of held block indices; peers use it to
        #: estimate how much *useful* (missing here) data this node has.
        self.sample_blocks = tuple(sample_blocks)
        self.incoming_bw = incoming_bw
        self.epoch = epoch

    def __repr__(self):
        return (
            f"NodeSummary({self.node_id}, held={self.blocks_held}, "
            f"epoch={self.epoch})"
        )


class _Sample:
    """A uniform sample of summaries with its population weight."""

    __slots__ = ("entries", "weight")

    def __init__(self, entries, weight):
        self.entries = list(entries)
        self.weight = weight


def _merge_samples(samples, k, rng):
    """Weighted-reservoir merge of uniform samples into one of size <= k."""
    total = ordered_sum(s.weight for s in samples)
    if total <= 0:
        return _Sample([], 0)
    merged = []
    pools = [list(s.entries) for s in samples]
    weights = [s.weight for s in samples]
    for _ in range(min(k, sum(len(p) for p in pools))):
        # Pick a source pool proportional to remaining weight, then an
        # element uniformly from it.
        alive = [i for i, p in enumerate(pools) if p]
        if not alive:
            break
        wsum = ordered_sum(weights[i] for i in alive)
        roll = rng.uniform(0.0, wsum)
        acc = 0.0
        chosen = alive[-1]
        for i in alive:
            acc += weights[i]
            if roll <= acc:
                chosen = i
                break
        pool = pools[chosen]
        merged.append(pool.pop(rng.randrange(len(pool))))
    return _Sample(merged, total)


class RanSubService:
    """One node's RanSub participant.

    Parameters
    ----------
    protocol:
        The owning :class:`~repro.overlay.node.OverlayProtocol`; RanSub
        sends its messages over the protocol's tree connections.
    tree:
        The :class:`~repro.overlay.tree.ControlTree`.
    state_provider:
        Zero-argument callable returning this node's current
        :class:`NodeSummary`.
    on_subset:
        Callback ``on_subset(list_of_summaries)`` invoked when a
        distribute wave delivers a fresh random subset.
    """

    #: Message kinds (dispatched through the owning protocol).
    DISTRIBUTE = "ransub_distribute"
    COLLECT = "ransub_collect"

    def __init__(
        self,
        protocol,
        tree,
        state_provider,
        on_subset,
        epoch_period=5.0,
        subset_size=10,
        seed=0,
    ):
        self.protocol = protocol
        self.tree = tree
        self.node_id = protocol.node_id
        self.state_provider = state_provider
        self.on_subset = on_subset
        self.epoch_period = epoch_period
        self.subset_size = subset_size
        self.rng = split_rng(seed, f"ransub.{self.node_id}")
        self.epoch = 0
        #: Simulated time of the last distribute wave that reached this
        #: node.  The epoch beat doubles as a tree-parent heartbeat: a
        #: failure detector that sees no distribute traffic for several
        #: epochs concludes the path to the root is dead.
        self.last_distribute_at = 0.0
        #: Connection to the (current) tree parent and connections to the
        #: live tree children, maintained by the owning protocol.  These
        #: are dynamic: tree repair after a failure may attach a node to
        #: an ancestor that is not its static parent.
        self.parent_conn = None
        self.child_conns = {}
        self._pending_collects = {}
        self._child_samples = {}
        #: Sample received from the parent's distribute message: a
        #: uniform sample over the tree minus our own subtree.
        self._parent_sample = None
        self._collect_timeout = None
        protocol.handler(self.DISTRIBUTE, self._on_distribute)
        protocol.handler(self.COLLECT, self._on_collect)

    # -- epoch driving (root only) ----------------------------------------------

    def start_root(self):
        """Begin periodic sweeps; call on the root node only."""
        if self.node_id != self.tree.root:
            raise RuntimeError("start_root called on a non-root node")
        self.protocol.periodic(self.epoch_period, self._root_epoch)

    def _root_epoch(self):
        self.epoch += 1
        # Deliver the root's own subset from last epoch's collect state,
        # then push distribute messages to children.
        sample = self._tree_sample_excluding(None)
        if sample.entries:
            self.on_subset(list(sample.entries))
        self._send_distributes()
        return True

    # -- distribute wave -----------------------------------------------------------

    def _live_children(self):
        return {
            child: conn
            for child, conn in self.child_conns.items()
            if not conn.closed
        }

    def _send_distributes(self):
        children = self._live_children()
        for child, conn in children.items():
            subset = self._tree_sample_excluding(child)
            conn.send(
                Message(
                    self.DISTRIBUTE,
                    payload={
                        "epoch": self.epoch,
                        "subset": subset.entries,
                        "weight": subset.weight,
                    },
                    size=32 + SUMMARY_WIRE_BYTES * len(subset.entries),
                )
            )
        if not children:
            self._start_collect()
        else:
            self._pending_collects = {child: False for child in children}
            # Guard against slow children: send our collect upward after
            # half an epoch even if some children have not reported.
            self._collect_timeout = self.protocol.schedule(
                self.epoch_period / 2.0, self._send_collect_up
            )

    def _on_distribute(self, _conn, message):
        self.epoch = message.payload["epoch"]
        self.last_distribute_at = self.protocol.sim.now
        subset = list(message.payload["subset"])
        self._parent_sample = _Sample(subset, message.payload["weight"])
        if subset:
            self.on_subset(subset)
        self._send_distributes()

    # -- collect wave ----------------------------------------------------------------

    def _start_collect(self):
        self._child_samples = {}
        self._send_collect_up()

    def _own_sample(self):
        return _Sample([self.state_provider()], 1)

    def _subtree_sample(self):
        parts = [self._own_sample()] + list(self._child_samples.values())
        return _merge_samples(parts, self.subset_size, self.rng)

    def _send_collect_up(self):
        if self._collect_timeout is not None:
            self._collect_timeout.cancel()
            self._collect_timeout = None
        if self.node_id == self.tree.root:
            return
        parent_conn = self.parent_conn
        if parent_conn is None or parent_conn.closed:
            return
        sample = self._subtree_sample()
        parent_conn.send(
            Message(
                self.COLLECT,
                payload={
                    "epoch": self.epoch,
                    "entries": sample.entries,
                    "weight": sample.weight,
                    "child": self.node_id,
                },
                size=32 + SUMMARY_WIRE_BYTES * len(sample.entries),
            )
        )

    def _on_collect(self, _conn, message):
        child = message.payload["child"]
        self._child_samples[child] = _Sample(
            message.payload["entries"], message.payload["weight"]
        )
        if child in self._pending_collects:
            self._pending_collects[child] = True
        if all(self._pending_collects.values()):
            self._pending_collects = {}
            self._send_collect_up()

    # -- sampling helpers --------------------------------------------------------------

    def _tree_sample_excluding(self, excluded_child):
        """Sample over the whole tree, excluding one child's subtree.

        RanSub's distribute set for child *c* is drawn uniformly from the
        tree minus c's own subtree: our own state, the collect samples of
        c's siblings, and — crucially — the sample our *parent* handed
        down, which represents everything outside our subtree.
        """
        parts = [self._own_sample()]
        if self._parent_sample is not None and self._parent_sample.entries:
            parts.append(self._parent_sample)
        for child, sample in self._child_samples.items():
            if child != excluded_child:
                parts.append(sample)
        return _merge_samples(parts, self.subset_size, self.rng)
