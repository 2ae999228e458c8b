"""Core links are built on first use: ``Topology.core`` is a
:class:`~repro.sim.topology.CoreLinks` whose per-pair conditions are
drawn at build time and whose links are built when something asks for
one.

A run that builds every core link right after the topology (the eager
reference) and a run that builds them on demand must end with the same
summary and the same conditions, to the last bit, on every core link.
"""

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.registry import SCENARIOS, SYSTEMS
from repro.sim.topology import mesh_topology, planetlab_like_topology, star_topology

N = 8
NB = 16
SEED = 3
BUILDERS = {
    "mesh": mesh_topology,
    "star": star_topology,
    "planetlab": planetlab_like_topology,
}


def _built(topology):
    return sum(link is not None for link in topology.core.links)


def _run(scenario, builder, eager):
    topology = BUILDERS[builder](N, seed=SEED)
    if eager:
        list(topology.core.values())
    result = run_experiment(
        topology,
        SYSTEMS.get("bullet_prime").builder(num_blocks=NB, seed=SEED),
        NB,
        scenario=SCENARIOS.build(scenario),
        max_time=300.0,
        seed=SEED,
    )
    conditions = [
        (pair, link.capacity.hex(), link.loss_rate.hex(), link.delay.hex())
        for pair, link in topology.core.items()
    ]
    return result.summary(), conditions


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("scenario", SCENARIOS.names())
def test_lazy_core_links_end_where_eager_ones_do(scenario, builder):
    assert _run(scenario, builder, eager=False) == _run(scenario, builder, eager=True)


def test_a_mesh_builds_no_core_link_until_asked():
    topology = mesh_topology(100)
    core = topology.core
    keys = list(core)
    assert len(core) == len(keys) == 9900 and keys == sorted(keys)
    assert (0, 1) in core and (3, 3) not in core and (0, 100) not in core
    assert repr(topology) == "Topology(n=100, core_links=9900)"
    # A mesh models access links: a node's uplinks are its access link.
    assert [link.name for link in topology.uplinks(0)] == ["up0"]
    assert _built(topology) == 0
    assert core[(0, 5)] is core[(0, 5)] and core.get((0, 0)) is None
    assert topology.path(7, 0)[1] is core[(7, 0)] and _built(topology) == 2


def test_uplinks_build_only_the_node_s_own_core_links():
    topology = star_topology(100)
    up, down = topology.uplinks(0), topology.downlinks(0)
    assert [link.name for link in up] == [f"core0->{n}" for n in range(1, 100)]
    assert [link.name for link in down] == [f"core{n}->0" for n in range(1, 100)]
    assert _built(topology) == 198


def test_links_are_positioned_in_key_order():
    topology = mesh_topology(5, seed=2)
    links = list(topology.core.values())
    assert [link._pos for link in links] == list(range(20))
    assert topology.core.links == links

