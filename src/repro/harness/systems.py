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
    MAX_FANOUT,
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
    an option.  ``_factory`` captures the per-system construction
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


def _system(config_class, node_class, shared_object, doc):
    """One system's ``node_factory`` builder: every node is a
    ``node_class`` wired to the run's one ``shared_object(network, tree,
    source_id, config)`` — the control tree, a tracker, a stripe forest.

    The builder takes ``num_blocks``, ``seed`` and the knobs
    ``config_class`` declares (its ``params`` are the builder's, which
    is where the registry reads the schema) or one ready ``config`` —
    not both.
    """

    def builder(config=None, **knobs):
        if config is None:
            config = config_class(**knobs)
        elif knobs:
            raise TypeError(
                f"{config_class.__name__} passed together with knob(s) "
                f"{sorted(knobs)}, which it would ignore; set them on the config"
            )

        def factory(network, tree, source_id, trace):
            shared = shared_object(network, tree, source_id, config)

            def build_one(node):
                return node_class(network, node, shared, source_id, config, trace)

            return NodeSet(
                {node: build_one(node) for node in network.topology.nodes},
                build_one,
            )

        return factory

    builder.__doc__ = doc
    builder.params = config_class.params
    return builder


def _control_tree(network, tree, source_id, config):
    return tree


def _tracker(network, tree, source_id, config):
    return Tracker(seed=config.seed)


def _stripe_forest(network, tree, source_id, config):
    return build_stripe_forest(
        network.topology.nodes,
        source_id,
        config.num_stripes,
        MAX_FANOUT,
        seed=config.seed,
    )


bullet_prime_factory = _system(
    BulletPrimeConfig,
    BulletPrimeNode,
    _control_tree,
    "Bullet' node factory; knobs patch the default config.",
)
bullet_factory = _system(
    BulletConfig, BulletNode, _control_tree, "Original-Bullet node factory."
)
bittorrent_factory = _system(
    BitTorrentConfig,
    BitTorrentNode,
    _tracker,
    "BitTorrent node factory (creates the shared tracker).",
)
splitstream_factory = _system(
    SplitStreamConfig,
    SplitStreamNode,
    _stripe_forest,
    "SplitStream node factory (builds the stripe forest).",
)

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
