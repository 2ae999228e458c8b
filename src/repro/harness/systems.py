"""Uniform factories for every dissemination system under test.

Each factory returns a ``node_factory`` suitable for
:func:`repro.harness.experiment.run_experiment`, hiding the per-system
construction details (trackers, stripe forests, control trees).

Systems register themselves in :data:`repro.harness.registry.SYSTEMS`;
figures, the CLI, and the scenario-matrix tests all resolve through
that registry, so a system registered here runs under every scenario
automatically.
"""

from repro.baselines.bittorrent import BitTorrentConfig, BitTorrentNode, Tracker
from repro.baselines.bullet import BulletConfig, BulletNode
from repro.baselines.splitstream import (
    SplitStreamConfig,
    SplitStreamNode,
    build_stripe_forest,
)
from repro.core.bullet_prime import BulletPrimeConfig, BulletPrimeNode
from repro.harness.registry import SYSTEMS

__all__ = [
    "NodeSet",
    "bullet_prime_factory",
    "bullet_factory",
    "bittorrent_factory",
    "splitstream_factory",
]


class NodeSet(dict):
    """``{node_id: protocol}`` that can rebuild a single node.

    The fault injector's restart path needs a *fresh* protocol instance
    wired to the same network, tree/tracker/forest, config, and trace —
    state loss on crash is total, so re-using the dead instance is not
    an option.  Each factory captures its per-system construction
    context in ``build_one`` once, and ``rebuild`` replays it for one
    node; constructing a node re-registers it as the endpoint's
    acceptor, so the newcomer is reachable the moment it starts.
    """

    def __init__(self, nodes, build_one):
        super().__init__(nodes)
        self._build_one = build_one

    def rebuild(self, node_id):
        if node_id not in self:
            raise KeyError(f"unknown node {node_id!r}")
        node = self._build_one(node_id)
        self[node_id] = node
        return node


def bullet_prime_factory(config=None, **overrides):
    """Bullet' node factory; ``overrides`` patch the default config."""
    if config is None:
        config = BulletPrimeConfig(**overrides)

    def factory(network, tree, source_id, trace):
        def build_one(node):
            return BulletPrimeNode(network, node, tree, source_id, config, trace)

        return NodeSet(
            {node: build_one(node) for node in network.topology.nodes},
            build_one,
        )

    return factory


def bullet_factory(config=None, **overrides):
    """Original-Bullet node factory."""
    if config is None:
        config = BulletConfig(**overrides)

    def factory(network, tree, source_id, trace):
        def build_one(node):
            return BulletNode(network, node, tree, source_id, config, trace)

        return NodeSet(
            {node: build_one(node) for node in network.topology.nodes},
            build_one,
        )

    return factory


def bittorrent_factory(config=None, **overrides):
    """BitTorrent node factory (creates the shared tracker)."""
    if config is None:
        config = BitTorrentConfig(**overrides)

    def factory(network, _tree, source_id, trace):
        tracker = Tracker(seed=config.seed)

        def build_one(node):
            return BitTorrentNode(network, node, tracker, source_id, config, trace)

        return NodeSet(
            {node: build_one(node) for node in network.topology.nodes},
            build_one,
        )

    return factory


def splitstream_factory(config=None, **overrides):
    """SplitStream node factory (builds the stripe forest)."""
    if config is None:
        config = SplitStreamConfig(**overrides)

    def factory(network, _tree, source_id, trace):
        forest = build_stripe_forest(
            network.topology.nodes,
            source_id,
            config.num_stripes,
            config.max_fanout,
            seed=config.seed,
        )

        def build_one(node):
            return SplitStreamNode(network, node, forest, source_id, config, trace)

        return NodeSet(
            {node: build_one(node) for node in network.topology.nodes},
            build_one,
        )

    return factory


SYSTEMS.register(
    "bullet_prime",
    bullet_prime_factory,
    description="Bullet' (this paper): adaptive peering + flow control",
    aliases=("bulletprime", "bullet-prime", "bp"),
)
SYSTEMS.register(
    "bullet",
    bullet_factory,
    description="original Bullet: tree push plus mesh recovery",
)
SYSTEMS.register(
    "bittorrent",
    bittorrent_factory,
    description="BitTorrent: tracker-coordinated swarm",
    aliases=("bt",),
)
SYSTEMS.register(
    "splitstream",
    splitstream_factory,
    description="SplitStream: striped interior-node-disjoint trees",
)
