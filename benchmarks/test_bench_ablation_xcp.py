"""Ablation: the XCP controller constants vs naive alternatives.

``core/flow_control.py`` takes alpha = 0.4 / beta = 0.226 (the XCP-stable
gains) from the paper — a design choice worth ablating: this sweep
compares the paper's constants against a sluggish controller (tiny
gains) and an aggressive one (gains near instability), reporting
completion times on the lossy mesh where adaptation matters.
"""

from conftest import run_once

from repro.harness.experiment import run_experiment
from repro.harness.report import FigureData
from repro.harness.systems import bullet_prime_factory
from repro.sim.topology import mesh_topology


def _sweep(num_nodes, num_blocks, seed=2):
    fig = FigureData(
        "ablation-xcp",
        "flow-control gain sweep (alpha/beta, section 3.3.3)",
        reference="xcp (0.4/0.226)",
    )
    for label, alpha, beta in (
        ("xcp (0.4/0.226)", 0.4, 0.226),
        ("sluggish (0.05/0.03)", 0.05, 0.03),
        ("aggressive (1.5/0.9)", 1.5, 0.9),
    ):
        result = run_experiment(
            mesh_topology(num_nodes, seed=seed),
            bullet_prime_factory(
                num_blocks=num_blocks, seed=seed, fc_alpha=alpha, fc_beta=beta
            ),
            num_blocks,
            max_time=6000.0,
            seed=seed,
        )
        fig.add_series(label, list(result.trace.completion_times.values()))
    return fig


def test_bench_ablation_xcp(benchmark, bench_scale):
    fig = run_once(benchmark, lambda: _sweep(**bench_scale))
    print()
    print(fig.render())
    # All three finish; the XCP gains must not lose badly to either
    # extreme (stability is the point, not raw speed at small scale).
    xcp = fig.cdf("xcp (0.4/0.226)")
    for label in fig.series:
        assert xcp.median <= fig.cdf(label).median * 1.3
