"""Ablation: self-clocked diffs vs periodic digests.

Bullet's diffs are incremental and self-clocked (sent exactly when a
receiver can act on them); the original Bullet broadcast periodic
digests instead.  This ablation compares Bullet' against a variant
whose diff prefetch is disabled (diffs only after complete exhaustion),
quantifying the pipeline bubbles the self-clocking design avoids, plus
the control-byte overhead of each.
"""

from conftest import run_once

from repro.harness.experiment import run_experiment
from repro.harness.report import FigureData
from repro.harness.systems import bullet_prime_factory
from repro.sim.topology import mesh_topology


def _control_bytes(result):
    return sum(
        conn.control_bytes_sent
        for node in result.nodes.values()
        for conn in node.endpoint.connections
    )


def _sweep(num_nodes, num_blocks, seed=2):
    from repro.baselines.bullet import BulletConfig
    from repro.harness.systems import bullet_factory

    fig = FigureData(
        "ablation-diffs",
        "availability freshness: self-clocked diffs vs periodic digests",
        reference="bullet_prime (self-clocked)",
    )
    result = run_experiment(
        mesh_topology(num_nodes, seed=seed),
        bullet_prime_factory(num_blocks=num_blocks, seed=seed),
        num_blocks,
        max_time=6000.0,
        seed=seed,
    )
    fig.add_series(
        "bullet_prime (self-clocked)",
        list(result.trace.completion_times.values()),
    )
    fig.add_scalar("self-clocked control KB", _control_bytes(result) / 1024)

    # The periodic-digest design point, embodied by the Bullet baseline
    # with the same fixed peering to isolate the diff mechanism.
    digest = run_experiment(
        mesh_topology(num_nodes, seed=seed),
        # Bullet's digest period (bullet.DIGEST_PERIOD, 5 s) is a constant.
        bullet_factory(config=BulletConfig(num_blocks=num_blocks, seed=seed)),
        num_blocks,
        max_time=6000.0,
        seed=seed,
    )
    fig.add_series(
        "periodic digests (Bullet)",
        list(digest.trace.completion_times.values()),
    )
    fig.add_scalar("periodic control KB", _control_bytes(digest) / 1024)
    return fig


def test_bench_ablation_diffs(benchmark, bench_scale):
    fig = run_once(benchmark, lambda: _sweep(**bench_scale))
    print()
    print(fig.render())
    assert fig.scalars["self-clocked control KB"] > 0
    assert fig.scalars["periodic control KB"] > 0
