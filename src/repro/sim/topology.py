"""Topologies from the paper's evaluation (section 4.1).

All experiments in the paper run on a *fully interconnected mesh*: every
pair of overlay participants is joined by a dedicated core link, and each
node additionally has inbound and outbound access links.  This gives the
evaluator full control over per-pair bandwidth and loss, and we keep the
same shape:

- ``mesh_topology`` — the main configuration: 6 Mbps access links (1 ms),
  2 Mbps core links with loss drawn uniformly from [0, max_loss] and
  propagation delay uniform in [5 ms, 200 ms].
- ``constrained_access_topology`` — Figure 9: ample 10 Mbps / 1 ms core,
  800 Kbps access links, no loss.
- ``star_topology`` — Figure 10: a small set of nodes with dedicated
  per-pair links.
- ``throttled_star_topology`` — Figure 12: a star whose last node is
  fed over slow links (the cascading-slowdown experiment).
- ``planetlab_like_topology`` — a synthetic wide-area stand-in for the
  PlanetLab deployment: heterogeneous heavy-tailed access rates and
  transcontinental RTTs.

Each family is registered in :data:`repro.harness.sweep.TOPOLOGIES`
and called as ``builder(num_nodes, seed=0, **knobs)``.  The knobs some
figure turns are declared once, as ``Param`` rows on the builder
(:func:`_family`); the values nothing varies are the constants below.
"""

import functools
from array import array
from collections.abc import Mapping

from repro.common.params import Param
from repro.common.rng import split_rng
from repro.common.stats import ordered_sum
from repro.common.units import KBPS, MBPS, MS
from repro.sim.links import Link, ScaleLog, apply

__all__ = [
    "Topology",
    "mesh_topology",
    "constrained_access_topology",
    "star_topology",
    "throttled_star_topology",
    "planetlab_like_topology",
]

#: Access links' one-way delay, every family that models them.
ACCESS_DELAY = 1 * MS
#: Figure 9's constrained access links under an ample, near-zero-delay core.
CONSTRAINED_ACCESS_BW = 800 * KBPS
#: Dedicated per-pair links of the ample-core families (constrained, star).
DEDICATED_CORE_BW = 10 * MBPS
DEDICATED_CORE_DELAY = 1 * MS
#: Figure 12: each helper's link to the throttled node, and the source's
#: (the source is not one of its peers), as ``(bandwidth, delay)``.
THROTTLED_HELPER_LINK = (5 * MBPS, 100 * MS)
THROTTLED_SOURCE_LINK = (10 * KBPS, 100 * MS)
#: PlanetLab stand-in: access-rate range, core loss ceiling, core capacity.
PLANETLAB_MIN_ACCESS = 1 * MBPS
PLANETLAB_MAX_ACCESS = 10 * MBPS
PLANETLAB_MAX_LOSS = 0.02
PLANETLAB_CORE_BW = 20 * MBPS


class CoreLinks(Mapping):
    """A topology's core links, ``(src, dst) -> Link``, in key order.

    A full-mesh builder hands over one ``(capacity, delay, loss)``
    column triple for every ordered pair of ``nodes``: each column is a
    number shared by every pair or an ``array('d')`` with one value per
    pair in key order, drawn at build time.  A link is built from its
    columns the first time ``core[pair]`` (``get``, ``values``,
    ``items``) asks for it; ``len``, iteration over the keys and ``in``
    build nothing.  ``links[i]`` is the link at key position ``i``
    (None until built), and each link stores ``i`` as its ``_pos``: the
    index a :class:`~repro.sim.links.ScaleColumn` gives it.  A link
    built after the topology's :class:`ScaleLog` indexed the core
    enrolls in the log at cursor 0, so it replays every logged column,
    as it would have if it had been built first.
    """

    __slots__ = ("links", "_log", "_nodes", "_rank", "_columns")

    def __init__(self, nodes, log, columns):
        self._log = log
        self._nodes = sorted(nodes)
        self._rank = {node: i for i, node in enumerate(self._nodes)}
        self._columns = columns
        self.links = [None] * (len(self._nodes) * (len(self._nodes) - 1))

    def _position(self, pair):
        """``pair``'s key position, or None if it is no key."""
        try:
            src, dst = map(self._rank.__getitem__, pair)
        except (KeyError, TypeError, ValueError):
            return None
        if src == dst:
            return None
        return src * (len(self._nodes) - 1) + dst - (dst > src)

    def _build(self, i):
        src, dst = divmod(i, len(self._nodes) - 1)
        src, dst = self._nodes[src], self._nodes[dst + (dst >= src)]
        capacity, delay, loss = (
            column[i] if type(column) is array else column for column in self._columns
        )
        link = Link(f"core{src}->{dst}", capacity, delay, loss)
        link._pos = i
        if self._log.core is not None:
            self._log.enroll(link)
        self.links[i] = link
        return link

    def __getitem__(self, pair):
        i = self._position(pair)
        if i is None:
            raise KeyError(pair)
        link = self.links[i]
        return self._build(i) if link is None else link

    def __contains__(self, pair):
        return self._position(pair) is not None

    def __len__(self):
        return len(self.links)

    def __iter__(self):
        return _ordered_pairs(self._nodes)

    def built(self):
        """The links built so far, in key order."""
        return [link for link in self.links if link is not None]


def _ordered_pairs(nodes):
    """Every ordered pair of distinct ``nodes``, in key order."""
    return ((src, dst) for src in nodes for dst in nodes if src != dst)


class Topology:
    """A set of node ids plus per-ordered-pair paths of links.

    ``core`` is a :class:`CoreLinks` of the per-pair ``columns`` a
    full-mesh builder passes (see there); a core link is built the first
    time something asks for it: a path, a row naming it, ``uplinks``.
    Enumerating ``core``'s links (``values()``, ``items()``,
    ``ScenarioContext.core_links()``, a ``"*"`` row written at once)
    builds every one of them; ``len(core)`` and its keys build none.
    """

    def __init__(self, nodes, columns):
        self.nodes = list(nodes)
        self._node_set = set(self.nodes)
        #: node -> outbound access link (may be None)
        self.access_up = {}
        #: node -> inbound access link (may be None)
        self.access_down = {}
        #: Rows deferred on unobserved links (see :mod:`repro.sim.links`).
        self.scale_log = ScaleLog()
        #: (src, dst) -> core link, one for every ordered pair
        self.core = CoreLinks(self.nodes, self.scale_log, columns)
        #: Set by ``run_experiment``: a topology serves one run.
        self.served = False

    #: ``topology.apply(rows)``: write link-condition rows, get back the
    #: inverse rows (see :func:`repro.sim.links.apply`).
    apply = apply

    def add_access(self, node, up, down):
        self.access_up[node] = up
        self.access_down[node] = down

    def path(self, src, dst):
        """Ordered links a flow from ``src`` to ``dst`` traverses."""
        if src not in self._node_set or dst not in self._node_set:
            raise KeyError(f"unknown endpoint in path {src!r}->{dst!r}")
        if src == dst:
            raise ValueError("no self-paths")
        links = []
        up = self.access_up.get(src)
        if up is not None:
            links.append(up)
        links.append(self.core[(src, dst)])
        down = self.access_down.get(dst)
        if down is not None:
            links.append(down)
        return links

    def rtt(self, src, dst):
        """Round-trip propagation delay between two nodes."""
        forward = ordered_sum(link.delay for link in self.path(src, dst))
        backward = ordered_sum(link.delay for link in self.path(dst, src))
        return forward + backward

    def uplinks(self, node):
        """Links carrying ``node``'s *outbound* traffic, in deterministic
        order: the access uplink when the topology models one, otherwise
        every core link out of the node (built if need be, and no other).
        Links are unidirectional, so mutating these leaves the inbound
        direction untouched — this is the actuation point for asymmetric
        (per-direction) dynamics.
        """
        up = self.access_up.get(node)
        if up is not None:
            return [up]
        others = [other for other in sorted(self.nodes) if other != node]
        return [self.core[node, other] for other in others]

    def downlinks(self, node):
        """Links carrying ``node``'s *inbound* traffic (mirror of
        :meth:`uplinks`)."""
        down = self.access_down.get(node)
        if down is not None:
            return [down]
        others = [other for other in sorted(self.nodes) if other != node]
        return [self.core[other, node] for other in others]

    def __repr__(self):
        return f"Topology(n={len(self.nodes)}, core_links={len(self.core)})"


def _family(*params):
    """Declare a topology builder's knobs.  The decorated function is
    called as ``builder(num_nodes, seed=0, **knobs)``: every declared
    knob is held to its domain and defaulted from its ``Param`` row,
    and ``builder.params`` is the schema the registry lists."""

    def decorate(build):
        @functools.wraps(build)
        def builder(num_nodes, seed=0, **knobs):
            for param in params:
                knobs[param.name] = param.check(knobs.get(param.name, param.default))
            return build(num_nodes, seed, **knobs)

        builder.params = params
        return builder

    return decorate


@_family(
    Param("access_bw", "float", 6 * MBPS, "access link capacity (B/s)", "(0, inf)"),
    Param("core_bw", "float", 2 * MBPS, "core link capacity (B/s)", "(0, inf)"),
    Param("max_loss", "float", 0.03, "core loss is uniform in [0, max_loss]", "[0, 1)"),
    Param("min_core_delay", "float", 5 * MS, "core delay, low end (s)", "[0, inf)"),
    Param("max_core_delay", "float", 200 * MS, "core delay, high end (s)", "[0, inf)"),
)
def mesh_topology(
    num_nodes, seed, access_bw, core_bw, max_loss, min_core_delay, max_core_delay
):
    """The paper's main ModelNet configuration.

    Loss and delay are drawn per core link, uniformly at random, and stay
    fixed for the duration of an experiment (the dynamic scenarios mutate
    *capacity*, not loss — matching section 4.1).
    """
    rng = split_rng(seed, "topology.mesh")
    nodes = list(range(num_nodes))
    delay, loss = array("d"), array("d")
    for _pair in _ordered_pairs(nodes):
        loss.append(rng.uniform(0.0, max_loss))
        delay.append(rng.uniform(min_core_delay, max_core_delay))
    topo = Topology(nodes, (core_bw, delay, loss))
    for node in nodes:
        topo.add_access(
            node,
            Link(f"up{node}", access_bw, ACCESS_DELAY),
            Link(f"down{node}", access_bw, ACCESS_DELAY),
        )
    return topo


def constrained_access_topology(num_nodes, seed=0):
    """Figure 9: ample core bandwidth, constrained access links, no loss."""
    nodes = list(range(num_nodes))
    topo = Topology(nodes, (DEDICATED_CORE_BW, DEDICATED_CORE_DELAY, 0.0))
    for node in nodes:
        topo.add_access(
            node,
            Link(f"up{node}", CONSTRAINED_ACCESS_BW, ACCESS_DELAY),
            Link(f"down{node}", CONSTRAINED_ACCESS_BW, ACCESS_DELAY),
        )
    return topo


@_family(
    Param(
        "core_delay",
        "float",
        DEDICATED_CORE_DELAY,
        "one-way delay of every per-pair link (s)",
        "[0, inf)",
    ),
)
def star_topology(num_nodes, seed, core_delay, special_links=None):
    """Small dedicated-link topologies for the Figure 10/12 experiments.

    Every ordered pair gets a dedicated core link of
    ``DEDICATED_CORE_BW`` / ``core_delay``; entries in ``special_links``
    — ``{(src, dst): (bw, delay)}``, a programmatic argument, not a
    knob — override individual pairs.  No access links are modeled: the
    per-pair links are the only constraint, matching the dedicated-link
    setups of those figures.  Nothing is drawn, so ``seed`` is unused.
    """
    special_links = special_links or {}
    nodes = list(range(num_nodes))
    capacity, delay = array("d"), array("d")
    for pair in _ordered_pairs(nodes):
        bw, pair_delay = special_links.get(pair, (DEDICATED_CORE_BW, core_delay))
        capacity.append(bw)
        delay.append(pair_delay)
    topo = Topology(nodes, (capacity, delay, 0.0))
    for node in nodes:
        topo.add_access(node, None, None)
    return topo


def throttled_star_topology(num_nodes, seed=0):
    """Figure 12: a star whose last node is the throttled one — every
    other receiver (a *helper*) reaches it over a 5 Mbps / 100 ms link,
    the source over a link too slow to matter."""
    target = num_nodes - 1
    special = {(helper, target): THROTTLED_HELPER_LINK for helper in range(1, target)}
    special[(0, target)] = THROTTLED_SOURCE_LINK
    return star_topology(num_nodes, special_links=special)


def planetlab_like_topology(num_nodes, seed=0):
    """A synthetic wide-area topology standing in for PlanetLab.

    PlanetLab sites in 2005 were heterogeneous: DSL-class through GbE
    access, intercontinental RTTs, and background congestion.  We draw
    access bandwidth from a heavy-tailed distribution in
    [PLANETLAB_MIN_ACCESS, PLANETLAB_MAX_ACCESS], core delay from a
    trimodal continental/transatlantic/transpacific mix, and mild random
    loss.
    """
    rng = split_rng(seed, "topology.planetlab")
    nodes = list(range(num_nodes))
    spread = PLANETLAB_MAX_ACCESS - PLANETLAB_MIN_ACCESS
    # Heavy tail: most sites are fast, a noticeable minority is slow.
    access = [PLANETLAB_MIN_ACCESS + spread * (rng.random() ** 2) for _ in nodes]
    delay, loss = array("d"), array("d")
    for _pair in _ordered_pairs(nodes):
        roll = rng.random()
        if roll < 0.5:
            delay.append(rng.uniform(10 * MS, 50 * MS))  # same continent
        elif roll < 0.85:
            delay.append(rng.uniform(60 * MS, 120 * MS))  # transatlantic
        else:
            delay.append(rng.uniform(120 * MS, 250 * MS))  # transpacific
        loss.append(rng.uniform(0.0, PLANETLAB_MAX_LOSS))
    # Core capacity ample relative to access; congestion shows up as
    # loss and shared access links.
    topo = Topology(nodes, (PLANETLAB_CORE_BW, delay, loss))
    for node, bw in zip(nodes, access):
        topo.add_access(
            node,
            Link(f"up{node}", bw, ACCESS_DELAY),
            Link(f"down{node}", bw, ACCESS_DELAY),
        )
    return topo

