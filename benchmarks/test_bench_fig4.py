"""Figure 4: Bullet' vs Bullet, BitTorrent, SplitStream — static losses.

Paper claims to preserve: Bullet' outperforms the pull/hybrid systems
(~25% at the median in the paper; Bullet and BitTorrent here).

Scale note: this comparison needs enough blocks to amortize Bullet's
peering cold start (a couple of RanSub epochs), so the bench enforces a
floor of 40 nodes / 480 blocks (7.5 MB).  SplitStream's blocking push
trees have no cold start and look strong at reduced file sizes; its
stripes are min-edge-limited, so Bullet' is expected to cross over at
larger files (the paper's is 100 MB; no committed run records where) —
at bench scale we assert it stays within striking distance.
"""

from conftest import run_once

from repro.harness.figures import fig4_overall_static


def test_bench_fig4(benchmark, bench_scale):
    num_nodes = max(40, bench_scale["num_nodes"])
    num_blocks = max(480, bench_scale["num_blocks"])
    fig = run_once(
        benchmark,
        lambda: fig4_overall_static(
            num_nodes=num_nodes, num_blocks=num_blocks, seed=2
        ),
    )
    print()
    print(fig.render())

    bp = fig.cdf("bullet_prime")
    assert bp.median < fig.cdf("bullet").median, "Bullet' must beat Bullet"
    assert bp.median < fig.cdf("bittorrent").median, (
        "Bullet' must beat BitTorrent"
    )
    assert bp.median < fig.cdf("splitstream").median * 1.15, (
        "Bullet' must stay within 15% of SplitStream below the crossover"
    )
