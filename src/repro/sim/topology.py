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

from repro.common.params import Param
from repro.common.rng import split_rng
from repro.common.stats import ordered_sum
from repro.common.units import KBPS, MBPS, MS
from repro.sim.links import Link

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


class Topology:
    """A set of node ids plus per-ordered-pair paths of links."""

    def __init__(self, nodes):
        self.nodes = list(nodes)
        self._node_set = set(self.nodes)
        #: node -> outbound access link (may be None)
        self.access_up = {}
        #: node -> inbound access link (may be None)
        self.access_down = {}
        #: (src, dst) -> core link (required for every ordered pair that
        #: will communicate)
        self.core = {}

    def add_access(self, node, up, down):
        self.access_up[node] = up
        self.access_down[node] = down

    def add_core(self, src, dst, link):
        self.core[(src, dst)] = link

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
        core = self.core.get((src, dst))
        if core is None:
            raise KeyError(f"no core link {src!r}->{dst!r}")
        links.append(core)
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
        every core link out of the node.  Links are unidirectional, so
        mutating these leaves the inbound direction untouched — this is
        the actuation point for asymmetric (per-direction) dynamics.
        """
        up = self.access_up.get(node)
        if up is not None:
            return [up]
        return [link for (src, _dst), link in sorted(self.core.items()) if src == node]

    def downlinks(self, node):
        """Links carrying ``node``'s *inbound* traffic (mirror of
        :meth:`uplinks`)."""
        down = self.access_down.get(node)
        if down is not None:
            return [down]
        return [link for (_src, dst), link in sorted(self.core.items()) if dst == node]

    def __repr__(self):
        return f"Topology(n={len(self.nodes)}, core_links={len(self.core)})"


def _full_mesh(topology, nodes, make_core):
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            topology.add_core(src, dst, make_core(src, dst))


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
    topo = Topology(nodes)
    for node in nodes:
        topo.add_access(
            node,
            Link(f"up{node}", access_bw, ACCESS_DELAY),
            Link(f"down{node}", access_bw, ACCESS_DELAY),
        )

    def make_core(src, dst):
        loss = rng.uniform(0.0, max_loss)
        delay = rng.uniform(min_core_delay, max_core_delay)
        return Link(f"core{src}->{dst}", core_bw, delay, loss)

    _full_mesh(topo, nodes, make_core)
    return topo


def constrained_access_topology(num_nodes, seed=0):
    """Figure 9: ample core bandwidth, constrained access links, no loss."""
    nodes = list(range(num_nodes))
    topo = Topology(nodes)
    for node in nodes:
        topo.add_access(
            node,
            Link(f"up{node}", CONSTRAINED_ACCESS_BW, ACCESS_DELAY),
            Link(f"down{node}", CONSTRAINED_ACCESS_BW, ACCESS_DELAY),
        )

    def make_core(src, dst):
        return Link(f"core{src}->{dst}", DEDICATED_CORE_BW, DEDICATED_CORE_DELAY)

    _full_mesh(topo, nodes, make_core)
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
    topo = Topology(nodes)
    for node in nodes:
        topo.add_access(node, None, None)

    def make_core(src, dst):
        bw, delay = special_links.get((src, dst), (DEDICATED_CORE_BW, core_delay))
        return Link(f"core{src}->{dst}", bw, delay)

    _full_mesh(topo, nodes, make_core)
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
    topo = Topology(nodes)
    spread = PLANETLAB_MAX_ACCESS - PLANETLAB_MIN_ACCESS
    for node in nodes:
        # Heavy tail: most sites are fast, a noticeable minority is slow.
        bw = PLANETLAB_MIN_ACCESS + spread * (rng.random() ** 2)
        topo.add_access(
            node,
            Link(f"up{node}", bw, ACCESS_DELAY),
            Link(f"down{node}", bw, ACCESS_DELAY),
        )

    def make_core(src, dst):
        roll = rng.random()
        if roll < 0.5:
            delay = rng.uniform(10 * MS, 50 * MS)  # same continent
        elif roll < 0.85:
            delay = rng.uniform(60 * MS, 120 * MS)  # transatlantic
        else:
            delay = rng.uniform(120 * MS, 250 * MS)  # transpacific
        loss = rng.uniform(0.0, PLANETLAB_MAX_LOSS)
        # Core capacity ample relative to access; congestion shows up as
        # loss and shared access links.
        return Link(f"core{src}->{dst}", PLANETLAB_CORE_BW, delay, loss)

    _full_mesh(topo, nodes, make_core)
    return topo

