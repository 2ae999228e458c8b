"""Node-failure resilience (the paper's section-1 reliability argument).

A mesh keeps flowing when a peer dies (each peer carries ~1/n of a
node's bandwidth); a tree loses whole subtrees.  These tests exercise
failure injection and Bullet's tree repair; the contrast against
SplitStream's unrepaired stripe trees is a multi-seed claim row
(``crash.*`` in ``tests/test_paper_claims.py``).
"""

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.systems import bullet_prime_factory
from repro.scenarios import Crash
from repro.sim.topology import mesh_topology


def test_source_cannot_be_failed():
    with pytest.raises(ValueError, match="source"):
        run_experiment(
            mesh_topology(6, seed=1),
            bullet_prime_factory(num_blocks=16, seed=1),
            16,
            scenario=Crash(schedule=[(1.0, 0)]),
            max_time=10.0,
            seed=1,
        )


def test_bullet_prime_survives_leaf_failures():
    result = run_experiment(
        mesh_topology(12, seed=6),
        bullet_prime_factory(num_blocks=64, seed=6),
        64,
        scenario=Crash(schedule=[(8.0, 11), (12.0, 10)]),
        max_time=1500.0,
        seed=6,
    )
    assert result.finished, "survivors must complete despite failures"
    assert result.failed_nodes == {10, 11}


def test_bullet_prime_survives_interior_tree_failure():
    # Fail an interior node of the control tree mid-download: its tree
    # descendants must re-attach to an ancestor (tree repair) and still
    # finish.
    seed = 6
    topology = mesh_topology(14, seed=seed)
    from repro.overlay.tree import build_random_tree

    tree = build_random_tree(topology.nodes, root=0, fanout=4, seed=seed)
    interior = next(
        n
        for n in tree.nodes
        if n != tree.root and tree.children[n]
    )
    result = run_experiment(
        topology,
        bullet_prime_factory(num_blocks=64, seed=seed),
        64,
        scenario=Crash(schedule=[(6.0, interior)]),
        max_time=1500.0,
        seed=seed,
    )
    assert result.finished
    # A repaired descendant is attached above its static parent.
    repaired = [
        node
        for node in result.nodes.values()
        if not node.is_source
        and not node.stopped
        and node.tree.parent_of(node.node_id) == interior
    ]
    for node in repaired:
        assert node._tree_attach != interior


def test_failed_nodes_do_not_block_completion_check():
    result = run_experiment(
        mesh_topology(8, seed=3),
        bullet_prime_factory(num_blocks=32, seed=3),
        32,
        scenario=Crash(schedule=[(2.0, 7)]),
        max_time=1200.0,
        seed=3,
    )
    assert result.finished
    assert 7 in result.failed_nodes

