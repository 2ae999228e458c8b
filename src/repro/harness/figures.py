"""One entry point per paper figure.

Each ``figN_*`` function runs the corresponding experiment (scaled down
by default so the whole suite completes on a laptop; pass larger
``num_nodes`` / ``num_blocks`` for paper scale) and returns a
:class:`~repro.harness.report.FigureData`.

``FIGURES`` at the bottom of this module maps each id to its function
(``python -m repro list`` prints the ids); ``benchmarks/test_bench_figN.py``
regenerates figure N.

Figures are thin consumers of the registries: systems come from
:data:`repro.harness.registry.SYSTEMS` and dynamic conditions are
:class:`repro.scenarios.Scenario` objects, so anything registered there
is immediately plottable.
"""

from repro.common.units import KBPS, KiB, MBPS, MS
from repro.core.download import ENCODING_OVERHEAD
from repro.harness.experiment import run_experiment
from repro.harness.registry import SYSTEMS
from repro.harness.report import FigureData
from repro.harness.systems import bullet_prime_factory
from repro.scenarios import CascadingCuts, CorrelatedDecreases
from repro.sim.topology import (
    constrained_access_topology,
    mesh_topology,
    planetlab_like_topology,
    star_topology,
)

__all__ = ["FIGURES", "run_figure"]


def _receiver_times(result):
    times = dict(result.trace.completion_times)
    times.pop(result.source_id, None)
    return list(times.values())


def _mesh(num_nodes, seed, **kwargs):
    return mesh_topology(num_nodes, seed=seed, **kwargs)


def _dynamic_scenario(seed, period=None, num_blocks=None):
    """The section-4.1 bandwidth-change process.

    The paper applies 20-second periods to ~100 MB downloads, i.e. many
    cumulative cut rounds per download.  At reduced file sizes the period
    scales down proportionally (floor 4 s) so a download still spans a
    comparable number of rounds.
    """
    if period is None:
        blocks_at_paper_scale = 6400  # 100 MB / 16 KB
        period = max(4.0, 20.0 * (num_blocks or 640) / blocks_at_paper_scale)
    return CorrelatedDecreases(seed=seed, period=period)


# ---------------------------------------------------------------- fig 4 / 5


def _system_comparison(
    figure_id,
    title,
    num_nodes,
    num_blocks,
    seed,
    scenario=None,
    max_time=6000.0,
    systems=None,
    notes=(),
    build_topology=_mesh,
):
    fig = FigureData(figure_id, title, reference="bullet_prime", notes=notes)
    for name in systems or SYSTEMS:
        builder = SYSTEMS.get(name).builder
        topology = build_topology(num_nodes, seed)
        result = run_experiment(
            topology,
            builder(num_blocks=num_blocks, seed=seed),
            num_blocks,
            scenario=scenario,
            max_time=max_time,
            seed=seed,
        )
        fig.add_series(name, _receiver_times(result))
    return fig


def fig4_overall_static(num_nodes=40, num_blocks=320, seed=0, max_time=6000.0):
    """Figure 4: CDF comparison under random packet losses (static).

    Also reports the two reference calculations the paper plots: the
    access-link optimum and a MACEDON/TCP-feasible estimate.
    """
    fig = _system_comparison(
        "fig4",
        "download time CDF, static loss (paper Fig. 4)",
        num_nodes,
        num_blocks,
        seed,
    )
    file_bytes = num_blocks * 16 * KiB
    access = 6 * MBPS
    optimal = file_bytes / access * 2  # receive + source serialization
    fig.add_scalar("physical-link optimal (s)", optimal)
    fig.add_scalar("macedon/TCP feasible (s)", optimal * 1.15 + 5.0)
    return fig


def fig5_overall_dynamic(num_nodes=40, num_blocks=320, seed=0, max_time=9000.0):
    """Figure 5: the same comparison under correlated bandwidth cuts."""
    return _system_comparison(
        "fig5",
        "download time CDF, synthetic bandwidth changes (paper Fig. 5)",
        num_nodes,
        num_blocks,
        seed,
        scenario=_dynamic_scenario(seed, num_blocks=num_blocks),
        max_time=max_time,
    )


# ------------------------------------------------------------------- fig 6


def fig6_request_strategies(
    num_nodes=40, num_blocks=320, seed=0, max_time=6000.0
):
    """Figure 6: first-encountered vs random vs rarest-random."""
    fig = FigureData(
        "fig6",
        "request strategy impact (paper Fig. 6)",
        reference="rarest_random",
    )
    for strategy in ("rarest_random", "random", "first"):
        topology = _mesh(num_nodes, seed)
        result = run_experiment(
            topology,
            bullet_prime_factory(
                num_blocks=num_blocks, seed=seed, request_strategy=strategy
            ),
            num_blocks,
            max_time=max_time,
            seed=seed,
        )
        fig.add_series(strategy, _receiver_times(result))
    return fig


# --------------------------------------------------------------- figs 7/8/9


def _peer_set_variants(
    figure_id,
    title,
    topology_factory,
    num_blocks,
    seed,
    static_sizes=(6, 10, 14),
    scenario=None,
    max_time=6000.0,
    block_size=16 * KiB,
):
    fig = FigureData(figure_id, title, reference="dynamic")
    variants = [("dynamic", dict(adaptive_peering=True))]
    for size in static_sizes:
        variants.append(
            (
                f"static-{size}",
                dict(
                    adaptive_peering=False,
                    initial_senders=size,
                    initial_receivers=size,
                ),
            )
        )
    for label, overrides in variants:
        result = run_experiment(
            topology_factory(),
            bullet_prime_factory(
                num_blocks=num_blocks,
                seed=seed,
                block_size=block_size,
                **overrides,
            ),
            num_blocks,
            scenario=scenario,
            max_time=max_time,
            seed=seed,
        )
        fig.add_series(label, _receiver_times(result))
    return fig


def fig7_peer_sets_static_loss(num_nodes=40, num_blocks=320, seed=0):
    """Figure 7: static peer sets 6/10/14 vs dynamic, lossy mesh."""
    return _peer_set_variants(
        "fig7",
        "peer set size under random losses (paper Fig. 7)",
        lambda: _mesh(num_nodes, seed),
        num_blocks,
        seed,
    )


def fig8_peer_sets_dynamic(num_nodes=40, num_blocks=320, seed=0):
    """Figure 8: peer-set sizing under synthetic bandwidth changes."""
    return _peer_set_variants(
        "fig8",
        "peer set size under bandwidth changes (paper Fig. 8)",
        lambda: _mesh(num_nodes, seed),
        num_blocks,
        seed,
        scenario=_dynamic_scenario(seed, num_blocks=num_blocks),
        max_time=9000.0,
    )


def fig9_peer_sets_constrained(num_nodes=40, num_blocks=64, seed=0):
    """Figure 9: constrained access links, 10 MB file, 10/14 vs dynamic.

    More peers means more competing TCP flows on the narrow access link
    plus more control traffic, so the 14-peer variant loses here.
    """
    return _peer_set_variants(
        "fig9",
        "constrained access links (paper Fig. 9)",
        lambda: constrained_access_topology(num_nodes, seed=seed),
        num_blocks,
        seed,
        static_sizes=(10, 14),
    )


# ------------------------------------------------------------- figs 10/11/12


def _outstanding_variants(
    figure_id,
    title,
    topology_factory,
    num_blocks,
    seed,
    fixed=(3, 6, 9, 15, 50),
    scenario=None,
    senders=5,
    block_size=8 * KiB,
    max_time=6000.0,
    nodes_of_interest=None,
):
    fig = FigureData(figure_id, title, reference="dynamic")
    variants = [("dynamic", dict(adaptive_outstanding=True))]
    for count in fixed:
        variants.append(
            (
                f"fixed-{count}",
                dict(adaptive_outstanding=False, fixed_outstanding=count),
            )
        )
    for label, overrides in variants:
        result = run_experiment(
            topology_factory(),
            bullet_prime_factory(
                num_blocks=num_blocks,
                seed=seed,
                block_size=block_size,
                adaptive_peering=False,
                initial_senders=senders,
                initial_receivers=senders,
                **overrides,
            ),
            num_blocks,
            scenario=scenario,
            max_time=max_time,
            seed=seed,
        )
        times = result.trace.completion_times
        if nodes_of_interest is not None:
            samples = [times[n] for n in nodes_of_interest if n in times]
        else:
            samples = _receiver_times(result)
        fig.add_series(label, samples)
    return fig


def fig10_outstanding_clean(num_nodes=25, num_blocks=320, seed=0):
    """Figure 10: outstanding requests on clean 10 Mbps / 100 ms links.

    High bandwidth-delay product: small fixed pipelines cannot fill the
    pipe; the dynamic controller tracks the large settings.
    """
    return _outstanding_variants(
        "fig10",
        "outstanding blocks, high-BDP clean network (paper Fig. 10)",
        lambda: star_topology(num_nodes, core_bw=10 * MBPS, core_delay=100 * MS),
        num_blocks,
        seed,
    )


def fig11_outstanding_lossy(num_nodes=25, num_blocks=320, seed=0):
    """Figure 11: the same under random losses (0-1.5%): too many
    outstanding blocks now waits on loss-throttled connections."""

    def topology():
        return mesh_topology(
            num_nodes,
            seed=seed,
            access_bw=10 * MBPS,
            core_bw=10 * MBPS,
            max_loss=0.015,
            min_core_delay=50 * MS,
            max_core_delay=150 * MS,
        )

    return _outstanding_variants(
        "fig11",
        "outstanding blocks under random losses (paper Fig. 11)",
        topology,
        num_blocks,
        seed,
        fixed=(3, 6, 15, 50),
    )


def fig12_outstanding_cascading(num_blocks=640, seed=0):
    """Figure 12: 6 helpers + 1 throttled node; every 25 s another of the
    throttled node's sender links drops to 100 Kbps.

    The interesting series is the 8th node's completion time: queueing
    many blocks on a link that is about to collapse forces long waits.
    """
    target = 7
    helpers = list(range(1, 7))
    special = {(h, target): (5 * MBPS, 100 * MS) for h in helpers}
    special[(0, target)] = (10 * KBPS, 100 * MS)  # the source is not a peer

    def topology():
        return star_topology(
            8, core_bw=10 * MBPS, core_delay=1 * MS, special_links=special
        )

    scenario = CascadingCuts(target=target, senders=helpers, period=25.0)

    fig = _outstanding_variants(
        "fig12",
        "cascading bandwidth cuts, throttled node (paper Fig. 12)",
        topology,
        num_blocks,
        seed,
        fixed=(9, 15, 50),
        scenario=scenario,
        senders=6,
        max_time=9000.0,
        nodes_of_interest=[target],
    )
    fig.notes.append(
        "series are the throttled 8th node's completion time only"
    )
    return fig


# ------------------------------------------------------------------ fig 13


def fig13_interarrival(num_nodes=40, num_blocks=320, seed=0, max_time=6000.0):
    """Figure 13: block inter-arrival gaps and the last-block overage
    compared against the cost of 4% source-encoding overhead."""
    topology = _mesh(num_nodes, seed)
    result = run_experiment(
        topology,
        bullet_prime_factory(num_blocks=num_blocks, seed=seed),
        num_blocks,
        max_time=max_time,
        seed=seed,
    )
    fig = FigureData(
        "fig13",
        "block inter-arrival times and encoding tradeoff (paper Fig. 13)",
    )
    gaps = result.trace.mean_interarrival_by_index()
    fig.add_series("mean inter-arrival gap (s)", gaps)
    overage = result.trace.last_block_overage(tail=20)
    mean_download = result.completion_cdf().mean
    encoding_cost = ENCODING_OVERHEAD * mean_download
    fig.add_scalar("last-20-blocks overage (s)", overage)
    fig.add_scalar("4% encoding overhead cost (s)", encoding_cost)
    fig.add_scalar(
        "encoding wins (1=yes)", 1.0 if encoding_cost < overage else 0.0
    )
    fig.notes.append(
        "encoding at the source pays if its fixed overhead is below the "
        "tail overage; the paper (and typically this reproduction) finds "
        "it is not a clear win"
    )
    return fig


# ------------------------------------------------------------------ fig 14


def fig14_planetlab(num_nodes=41, num_blocks=320, seed=0, max_time=9000.0):
    """Figure 14: the wide-area (PlanetLab-like) comparison, 50 MB in the
    paper; heterogeneous access links and transcontinental RTTs here."""
    return _system_comparison(
        "fig14",
        "wide-area comparison on a PlanetLab-like topology (paper Fig. 14)",
        num_nodes,
        num_blocks,
        seed,
        max_time=max_time,
        build_topology=planetlab_like_topology,
    )


# ------------------------------------------------------------------ fig 15


def fig15_shotgun(
    num_nodes=40,
    delta_bytes=24 * 1024 * 1024,
    image_ratio=10,
    seed=0,
    parallelism=(2, 4, 8, 16),
    scale=0.25,
    max_time=9000.0,
):
    """Figure 15: Shotgun vs staggered parallel rsync, 24 MB of deltas to
    40 nodes (the paper's update came from a ~10x larger software image,
    which every rsync process must re-scan per client).

    ``scale`` shrinks the whole scenario proportionally (delta and image
    together), keeping the comparison self-consistent at any size.
    """
    from repro.shotgun.shotgun import ParallelRsyncModel, ShotgunSession, UpdateBundle

    delta = int(delta_bytes * scale)
    image = delta * image_ratio
    bundle = UpdateBundle.synthetic(delta, image)
    session = ShotgunSession(bundle)
    topology = planetlab_like_topology(num_nodes, seed=seed)
    outcome = session.run(
        topology, seed=seed, max_time=max_time, apply_bytes=image
    )

    fig = FigureData(
        "fig15",
        "Shotgun vs staggered parallel rsync (paper Fig. 15)",
        reference="shotgun (download + update)",
    )
    fig.add_series(
        "shotgun (download only)", list(outcome["download"].values())
    )
    fig.add_series(
        "shotgun (download + update)",
        list(outcome["download_and_update"].values()),
    )
    rsync = ParallelRsyncModel()
    for k in parallelism:
        fig.add_series(
            f"{k} parallel rsync",
            rsync.completion_times(
                num_nodes, k, bundle.wire_size, image_bytes=image
            ),
        )
    fig.notes.append(
        f"delta {delta} B from a {image} B image (scale={scale}); every "
        "rsync process re-scans the image per client, Shotgun computes "
        "the delta once"
    )
    return fig


FIGURES = {
    "fig4": fig4_overall_static,
    "fig5": fig5_overall_dynamic,
    "fig6": fig6_request_strategies,
    "fig7": fig7_peer_sets_static_loss,
    "fig8": fig8_peer_sets_dynamic,
    "fig9": fig9_peer_sets_constrained,
    "fig10": fig10_outstanding_clean,
    "fig11": fig11_outstanding_lossy,
    "fig12": fig12_outstanding_cascading,
    "fig13": fig13_interarrival,
    "fig14": fig14_planetlab,
    "fig15": fig15_shotgun,
}


def run_figure(figure_id, **kwargs):
    """Run one figure's experiment by id (a key of ``FIGURES``)."""
    try:
        fn = FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        ) from None
    return fn(**kwargs)
