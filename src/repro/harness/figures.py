"""One entry point per paper figure.

Each ``figN_*`` function runs the corresponding experiment (scaled down
by default so the whole suite completes on a laptop; pass larger
``num_nodes`` / ``num_blocks`` for paper scale) and returns a
:class:`~repro.harness.report.FigureData`.

``FIGURES`` at the bottom of this module maps each id to its function
(``python -m repro list`` prints the ids); ``tests/test_paper_claims.py``
checks the paper's orderings on each figure over several seeds.

Figures 4-14 are sweep specs plus reducers: each builds a
:class:`~repro.harness.sweep.SweepSpec` from its scale arguments — the
figure's variants are ``systems`` / ``scenarios`` / ``topologies``
entries with params — runs the cells through
:func:`~repro.harness.sweep.execute_cell`, and reduces each result to a
series.  Anything registered is therefore immediately plottable.
"""

from repro.common.units import KiB, MBPS, MS
from repro.core.download import ENCODING_OVERHEAD
from repro.harness.registry import SYSTEMS
from repro.harness.report import FigureData
from repro.harness.sweep import SweepSpec, execute_cell
from repro.sim.topology import planetlab_like_topology

__all__ = ["FIGURES", "run_figure"]


def _spec(num_nodes, num_blocks, seed, max_time=6000.0, **grids):
    """A figure's spec: its scale arguments plus the other axes' grids."""
    return SweepSpec(
        nodes=num_nodes, blocks=num_blocks, seeds=seed, max_time=max_time, **grids
    )


def _receiver_times(cell, result):
    times = dict(result.trace.completion_times)
    times.pop(result.source_id, None)
    return list(times.values())


def _run_grid(figure, labels, *scale, samples=_receiver_times, **grids):
    """The one grid runner: a :class:`FigureData` built from ``figure``
    (id, title, reference series) with one series per cell of the spec —
    named by ``labels``, which follow the spec's expansion order, and
    reduced from the cell's result by ``samples(cell, result)``."""
    figure_id, title, reference = figure
    fig = FigureData(figure_id, f"{title} (paper Fig. {figure_id[3:]})", reference)
    cells = _spec(*scale, **grids).expand()
    for label, cell in zip(labels, cells, strict=True):
        fig.add_series(label, samples(cell, execute_cell(cell)))
    return fig


def _bullet_prime(**params):
    return {"name": "bullet_prime", "params": params}


def _dynamic_scenario(num_blocks):
    """The section-4.1 bandwidth-change process.

    The paper applies 20-second periods to ~100 MB downloads, i.e. many
    cumulative cut rounds per download.  At reduced file sizes the period
    scales down proportionally (floor 4 s) so a download still spans a
    comparable number of rounds.
    """
    blocks_at_paper_scale = 6400  # 100 MB / 16 KB
    period = max(4.0, 20.0 * num_blocks / blocks_at_paper_scale)
    return {"name": "correlated_decreases", "params": {"period": period}}


def _system_comparison(figure_id, title, *scale, **grids):
    figure = (figure_id, title, "bullet_prime")
    systems = list(SYSTEMS)
    return _run_grid(figure, systems, *scale, systems=systems, **grids)


def fig4_overall_static(num_nodes=40, num_blocks=320, seed=0, max_time=6000.0):
    """Figure 4: CDF comparison under random packet losses (static).

    Also reports the two reference calculations the paper plots: the
    access-link optimum and a MACEDON/TCP-feasible estimate.
    """
    title = "download time CDF, static loss"
    fig = _system_comparison("fig4", title, num_nodes, num_blocks, seed, max_time)
    file_bytes = num_blocks * 16 * KiB
    access = 6 * MBPS
    optimal = file_bytes / access * 2  # receive + source serialization
    fig.add_scalar("physical-link optimal (s)", optimal)
    fig.add_scalar("macedon/TCP feasible (s)", optimal * 1.15 + 5.0)
    return fig


def fig5_overall_dynamic(num_nodes=40, num_blocks=320, seed=0, max_time=9000.0):
    """Figure 5: the same comparison under correlated bandwidth cuts."""
    title = "download time CDF, synthetic bandwidth changes"
    scale = (num_nodes, num_blocks, seed, max_time)
    scenario = _dynamic_scenario(num_blocks)
    return _system_comparison("fig5", title, *scale, scenarios=scenario)


def fig14_planetlab(num_nodes=41, num_blocks=320, seed=0, max_time=9000.0):
    """Figure 14: the wide-area (PlanetLab-like) comparison, 50 MB in the
    paper; heterogeneous access links and transcontinental RTTs here."""
    title = "wide-area comparison on a PlanetLab-like topology"
    scale = (num_nodes, num_blocks, seed, max_time)
    return _system_comparison("fig14", title, *scale, topologies="planetlab")


def fig6_request_strategies(num_nodes=40, num_blocks=320, seed=0, max_time=6000.0):
    """Figure 6: first-encountered vs random vs rarest-random."""
    figure = ("fig6", "request strategy impact", "rarest_random")
    strategies = ["rarest_random", "random", "first"]
    scale = (num_nodes, num_blocks, seed, max_time)
    systems = _bullet_prime(request_strategy=strategies)
    return _run_grid(figure, strategies, *scale, systems=systems)


def _peer_set_variants(figure_id, title, static_sizes, *scale, **grids):
    """Adaptive peer sets against sets frozen at each of ``static_sizes``."""
    systems = ["bullet_prime"] + [
        _bullet_prime(adaptive_peering=False, initial_senders=n, initial_receivers=n)
        for n in static_sizes
    ]
    figure = (figure_id, title, "dynamic")
    labels = ["dynamic"] + [f"static-{n}" for n in static_sizes]
    return _run_grid(figure, labels, *scale, systems=systems, **grids)


def fig7_peer_sets_static_loss(num_nodes=40, num_blocks=320, seed=0):
    """Figure 7: static peer sets 6/10/14 vs dynamic, lossy mesh."""
    title = "peer set size under random losses"
    return _peer_set_variants("fig7", title, (6, 10, 14), num_nodes, num_blocks, seed)


def fig8_peer_sets_dynamic(num_nodes=40, num_blocks=320, seed=0):
    """Figure 8: peer-set sizing under synthetic bandwidth changes."""
    title = "peer set size under bandwidth changes"
    scale = (num_nodes, num_blocks, seed, 9000.0)
    scenario = _dynamic_scenario(num_blocks)
    return _peer_set_variants("fig8", title, (6, 10, 14), *scale, scenarios=scenario)


def fig9_peer_sets_constrained(num_nodes=40, num_blocks=64, seed=0):
    """Figure 9: constrained access links, 10 MB file, 10/14 vs dynamic.

    More peers means more competing TCP flows on the narrow access link
    plus more control traffic, so the 14-peer variant loses here.
    """
    title = "constrained access links"
    scale = (num_nodes, num_blocks, seed)
    return _peer_set_variants("fig9", title, (10, 14), *scale, topologies="constrained")


def _outstanding_variants(figure_id, title, fixed, *scale, senders=5, **grids):
    """The adaptive request window against each ``fixed`` one, on 8 KB
    blocks and peer sets frozen at ``senders``."""
    peers = dict(initial_senders=senders, initial_receivers=senders)
    frozen = dict(peers, adaptive_peering=False, block_size=8 * KiB)
    windows = dict(frozen, adaptive_outstanding=False, fixed_outstanding=list(fixed))
    figure = (figure_id, title, "dynamic")
    labels = ["dynamic"] + [f"fixed-{n}" for n in fixed]
    systems = [_bullet_prime(**frozen), _bullet_prime(**windows)]
    return _run_grid(figure, labels, *scale, systems=systems, **grids)


def fig10_outstanding_clean(num_nodes=25, num_blocks=320, seed=0):
    """Figure 10: outstanding requests on clean 10 Mbps / 100 ms links.

    High bandwidth-delay product: small fixed pipelines cannot fill the
    pipe; the dynamic controller tracks the large settings.
    """
    title = "outstanding blocks, high-BDP clean network"
    scale = (num_nodes, num_blocks, seed)
    star = {"name": "star", "params": {"core_delay": 100 * MS}}
    return _outstanding_variants(
        "fig10", title, (3, 6, 9, 15, 50), *scale, topologies=star
    )


def fig11_outstanding_lossy(num_nodes=25, num_blocks=320, seed=0):
    """Figure 11: the same under random losses (0-1.5%): too many
    outstanding blocks now waits on loss-throttled connections."""
    title = "outstanding blocks under random losses"
    scale = (num_nodes, num_blocks, seed)
    lossy = dict(access_bw=10 * MBPS, core_bw=10 * MBPS, max_loss=0.015)
    delays = dict(min_core_delay=50 * MS, max_core_delay=150 * MS)
    mesh = {"name": "mesh", "params": {**lossy, **delays}}
    return _outstanding_variants(
        "fig11", title, (3, 6, 15, 50), *scale, topologies=mesh
    )


def fig12_outstanding_cascading(num_blocks=640, seed=0):
    """Figure 12: 6 helpers + 1 throttled node; every 25 s another of the
    throttled node's sender links drops to 100 Kbps.

    The interesting series is the 8th node's completion time: queueing
    many blocks on a link that is about to collapse forces long waits.
    ``cascading_cuts`` cuts the links into the highest-numbered node,
    the one ``throttled_star`` throttles.
    """

    def throttled_node_time(cell, result):
        times = result.trace.completion_times
        return [times[cell.nodes - 1]] if cell.nodes - 1 in times else []

    fig = _outstanding_variants(
        "fig12",
        "cascading bandwidth cuts, throttled node",
        (9, 15, 50),
        *(8, num_blocks, seed, 9000.0),  # nodes, blocks, seed, max_time
        senders=6,
        topologies="throttled_star",
        scenarios="cascading_cuts",
        samples=throttled_node_time,
    )
    fig.notes.append("series are the throttled 8th node's completion time only")
    return fig


def fig13_interarrival(num_nodes=40, num_blocks=320, seed=0, max_time=6000.0):
    """Figure 13: block inter-arrival gaps and the last-block overage
    compared against the cost of 4% source-encoding overhead."""
    (cell,) = _spec(num_nodes, num_blocks, seed, max_time).expand()
    result = execute_cell(cell)
    title = "block inter-arrival times and encoding tradeoff (paper Fig. 13)"
    fig = FigureData("fig13", title)
    fig.add_series(
        "mean inter-arrival gap (s)", result.trace.mean_interarrival_by_index()
    )
    overage = result.trace.last_block_overage(tail=20)
    mean_download = result.completion_cdf().mean
    encoding_cost = ENCODING_OVERHEAD * mean_download
    fig.add_scalar("last-20-blocks overage (s)", overage)
    fig.add_scalar("4% encoding overhead cost (s)", encoding_cost)
    fig.add_scalar("encoding wins (1=yes)", 1.0 if encoding_cost < overage else 0.0)
    fig.notes.append(
        "encoding at the source pays if its fixed overhead is below the "
        "tail overage; the paper (and typically this reproduction) finds "
        "it is not a clear win"
    )
    return fig


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
    topology = planetlab_like_topology(num_nodes, seed=seed)
    outcome = ShotgunSession(bundle).run(
        topology, seed=seed, max_time=max_time, apply_bytes=image
    )

    title = "Shotgun vs staggered parallel rsync (paper Fig. 15)"
    fig = FigureData("fig15", title, reference="shotgun (download + update)")
    fig.add_series("shotgun (download only)", list(outcome["download"].values()))
    fig.add_series(
        "shotgun (download + update)", list(outcome["download_and_update"].values())
    )
    rsync = ParallelRsyncModel()
    for k in parallelism:
        fig.add_series(
            f"{k} parallel rsync",
            rsync.completion_times(num_nodes, k, bundle.wire_size, image_bytes=image),
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
