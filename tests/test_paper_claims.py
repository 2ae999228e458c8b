"""The paper's orderings as multi-seed claim rows (Figs. 4-15, the
design ablations and the section-1 failure argument).

Each :data:`CLAIMS` row is one assertion:

- ``id`` names the figure and the shape;
- ``replaces`` is the ``file:line`` of the single-seed assertion the
  row took over, kept so the history of a threshold can be followed;
- ``runner(seed, scale)`` returns a :class:`FigureData`.  Figure rows
  call ``FIGURES[id]``, the knob ablations are ``SweepSpec`` variants
  run by ``execute_cell``, and only the crash rows call
  ``run_experiment`` (a ``Crash`` schedule names node ids, it is not a
  knob).  Results are cached per (runner, seed, scale), so rows that
  read one figure cost one run per seed;
- ``predicate(fig)`` returns ``(measured, op, bound)``: the assertion's
  two sides and its comparison, thresholds as they were written;
- ``paper`` is the scale the comparison was written for, and ``tier1``
  is the first :data:`LADDER` rung below it at which the predicate
  holds on every seed, or None when no rung does (one crash row is
  None for cost, see its comment);
- ``seeds`` are at least five, the original assertion's own among them.

Tier-1 runs every row with a ``tier1`` rung; the paper-scale run is
marked ``paper_scale``, which ``pytest.ini`` deselects by default::

    PYTHONPATH=src python -m pytest -q -m paper_scale tests/test_paper_claims.py

A (row, seed) pair that fails at paper scale is a finding about the
reproduction, not about the test: it goes into :data:`PAPER_XFAILS` as
a strict xfail whose reason names the shape, the seed and both measured
values.  A threshold is never loosened to make a seed pass.
"""

import functools
import operator
from collections import namedtuple

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.figures import FIGURES
from repro.harness.report import FigureData
from repro.harness.sweep import SweepSpec, execute_cell
from repro.harness.systems import bullet_prime_factory, splitstream_factory
from repro.scenarios import Crash
from repro.sim.topology import mesh_topology

#: Overlay size and file size in blocks.  A runner reads what its
#: figure takes: Figure 12's overlay is fixed at 8 nodes and Figure 15
#: has no block count, so their paper scales leave that field None.
Scale = namedtuple("Scale", "nodes blocks")

#: Tier-1 scales, cheapest first.  A row's ``tier1`` is the first rung
#: below its paper scale (in the fields its runner reads) at which it
#: holds on every seed.
LADDER = (
    Scale(8, 16),
    Scale(8, 32),
    Scale(8, 64),
    Scale(12, 64),
    Scale(16, 64),
    Scale(16, 128),
    Scale(20, 128),
)

FIGURE_SEEDS = (0, 1, 2, 3, 4, 5)
CRASH_SEEDS = (9, 0, 1, 2, 3, 4)

Claim = namedtuple("Claim", "id replaces runner predicate paper tier1 seeds")

OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@functools.cache
def _cached(runner, seed, scale):
    return runner(seed, scale)


def _figure_runner(figure_id):
    def run(seed, scale):
        if figure_id == "fig12":
            return FIGURES[figure_id](num_blocks=scale.blocks, seed=seed)
        if figure_id == "fig15":
            return FIGURES[figure_id](num_nodes=scale.nodes, scale=0.25, seed=seed)
        return FIGURES[figure_id](
            num_nodes=scale.nodes, num_blocks=scale.blocks, seed=seed
        )

    return run


FIG = {figure_id: _figure_runner(figure_id) for figure_id in FIGURES}


def _control_kb(result):
    sent = sum(
        conn.control_bytes_sent
        for node in result.nodes.values()
        for conn in node.endpoint.connections
    )
    return sent / 1024


def _senders_pruned(result):
    return sum(
        n.stats["senders_pruned"] for n in result.nodes.values() if not n.is_source
    )


def _variants(figure_id, labels, systems, scalars=()):
    """A design ablation: one series per ``systems`` entry on the mesh,
    plus each ``(name, reduce)`` of ``scalars`` as ``"<label> <name>"``."""

    def run(seed, scale):
        fig = FigureData(figure_id, figure_id, reference=labels[0])
        spec = SweepSpec(
            systems=systems,
            nodes=scale.nodes,
            blocks=scale.blocks,
            seeds=seed,
            max_time=6000.0,
        )
        for label, cell in zip(labels, spec.expand(), strict=True):
            result = execute_cell(cell)
            fig.add_series(label, list(result.trace.completion_times.values()))
            for name, reduce in scalars:
                fig.add_scalar(f"{label} {name}", reduce(result))
        return fig

    return run


def _bullet_prime(**params):
    return {"name": "bullet_prime", "params": params}


ablation_diffs = _variants(
    "ablation-diffs",
    ["self-clocked", "periodic"],
    ["bullet_prime", "bullet"],
    scalars=[("control KB", _control_kb)],
)
ablation_epoch = _variants(
    "ablation-epoch",
    ["epoch-2s", "epoch-5s", "epoch-15s"],
    [_bullet_prime(ransub_epoch=[2.0, 5.0, 15.0])],
    scalars=[("control KB", _control_kb)],
)
ablation_prune = _variants(
    "ablation-prune",
    ["sigma-1.0", "sigma-1.5", "sigma-2.0"],
    [_bullet_prime(prune_sigma=[1.0, 1.5, 2.0])],
    scalars=[("senders pruned", _senders_pruned)],
)
ablation_xcp = _variants(
    "ablation-xcp",
    ["xcp (0.4/0.226)", "sluggish (0.05/0.03)", "aggressive (1.5/0.9)"],
    [
        _bullet_prime(fc_alpha=0.4, fc_beta=0.226),
        _bullet_prime(fc_alpha=0.05, fc_beta=0.03),
        _bullet_prime(fc_alpha=1.5, fc_beta=0.9),
    ],
)


MESH_AND_TREES = {
    "bullet_prime": bullet_prime_factory,
    "splitstream": splitstream_factory,
}


def _crashes(figure_id, schedule, max_time, systems=MESH_AND_TREES):
    """Bullet' (mesh + tree repair) against SplitStream (unrepaired
    stripe trees) under ``schedule(nodes)``'s node crashes."""

    def run(seed, scale):
        fig = FigureData(figure_id, figure_id, reference="bullet_prime")
        for name, factory in systems.items():
            result = run_experiment(
                mesh_topology(scale.nodes, seed=seed),
                factory(num_blocks=scale.blocks, seed=seed),
                scale.blocks,
                scenario=Crash(schedule=schedule(scale.nodes)),
                max_time=max_time,
                seed=seed,
            )
            times = result.trace.completion_times
            failed = result.failed_nodes
            done = [n for n in times if n != result.source_id and n not in failed]
            fig.add_scalar(f"{name} finished", result.finished)
            fig.add_scalar(f"{name} completions", len(times))
            fig.add_scalar(f"{name} survivors complete", len(done))
            fig.add_scalar(f"{name} survivors total", scale.nodes - 1 - len(failed))
        return fig

    return run


def _every_fifth(nodes):
    victims = [n for n in range(nodes) if n % 5 == 4]
    return [(6.0 + 2.0 * i, v) for i, v in enumerate(victims)]


#: 20% of the overlay fails mid-download.
crash_fifth = _crashes("crash-fifth", _every_fifth, 1800.0)


def _two_interior(nodes):
    return [(6.0, 5), (10.0, 9)]


#: Two interior nodes fail early.  SplitStream's stranded nodes keep its
#: run going to the 900 s limit (~15 s of wall time a seed), so the row
#: that reads only the mesh runs the mesh alone.
crash_two = _crashes("crash-two", _two_interior, 900.0)
crash_two_mesh = _crashes(
    "crash-two-mesh",
    _two_interior,
    900.0,
    systems={"bullet_prime": bullet_prime_factory},
)


def med(fig, label):
    return fig.cdf(label).median


def _others(fig, reference):
    return [med(fig, s) for s in fig.series if s != reference]


def _gap_to_slowest(fig):
    worst = max(_others(fig, "bullet_prime"))
    return (worst - med(fig, "bullet_prime")) / worst


def _rsync_maxima(fig):
    return [fig.cdf(s).maximum for s in fig.series if s.endswith("parallel rsync")]


BENCH = "benchmarks/test_bench_"

CLAIMS = [
    Claim(
        "fig4.beats_bullet",
        BENCH + "fig4.py:33",
        FIG["fig4"],
        lambda f: (med(f, "bullet_prime"), "<", med(f, "bullet")),
        Scale(40, 480),
        None,
        FIGURE_SEEDS,
    ),
    Claim(
        "fig4.beats_bittorrent",
        BENCH + "fig4.py:34",
        FIG["fig4"],
        lambda f: (med(f, "bullet_prime"), "<", med(f, "bittorrent")),
        Scale(40, 480),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig4.near_splitstream",
        BENCH + "fig4.py:37",
        FIG["fig4"],
        lambda f: (med(f, "bullet_prime"), "<", med(f, "splitstream") * 1.15),
        Scale(40, 480),
        None,
        FIGURE_SEEDS,
    ),
    Claim(
        "fig5.wins_outright",
        BENCH + "fig5.py:28",
        FIG["fig5"],
        lambda f: (med(f, "bullet_prime"), "<", min(_others(f, "bullet_prime"))),
        Scale(40, 480),
        None,
        FIGURE_SEEDS,
    ),
    Claim(
        "fig5.gap_to_slowest",
        BENCH + "fig5.py:34",
        FIG["fig5"],
        lambda f: (_gap_to_slowest(f), ">=", 0.3),
        Scale(40, 480),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig6.rarest_not_worse_than_first",
        BENCH + "fig6.py:22",
        FIG["fig6"],
        lambda f: (med(f, "rarest_random"), "<=", med(f, "first")),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig7.more_peers_help",
        BENCH + "fig7.py:30",
        FIG["fig7"],
        lambda f: (med(f, "static-14"), "<", med(f, "static-6")),
        Scale(40, 320),
        None,
        FIGURE_SEEDS,
    ),
    Claim(
        "fig7.dynamic_tracks_best",
        BENCH + "fig7.py:33",
        FIG["fig7"],
        lambda f: (med(f, "dynamic"), "<=", min(_others(f, "dynamic")) * 1.25),
        Scale(40, 320),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig8.dynamic_tracks_best",
        BENCH + "fig8.py:28",
        FIG["fig8"],
        lambda f: (med(f, "dynamic"), "<=", min(_others(f, "dynamic")) * 1.3),
        Scale(40, 320),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig9.more_peers_do_not_win",
        BENCH + "fig9.py:30",
        FIG["fig9"],
        lambda f: (med(f, "static-10"), "<=", med(f, "static-14") * 1.02),
        Scale(20, 48),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig9.dynamic_tracks_static",
        BENCH + "fig9.py:33",
        FIG["fig9"],
        lambda f: (med(f, "dynamic"), "<=", max(_others(f, "dynamic")) * 1.15),
        Scale(20, 48),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig10.deep_beats_shallow",
        BENCH + "fig10.py:29",
        FIG["fig10"],
        lambda f: (med(f, "fixed-50"), "<", med(f, "fixed-3")),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig10.dynamic_beats_shallow",
        BENCH + "fig10.py:30",
        FIG["fig10"],
        lambda f: (med(f, "dynamic"), "<=", med(f, "fixed-3")),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig10.dynamic_tracks_deep",
        BENCH + "fig10.py:31",
        FIG["fig10"],
        lambda f: (med(f, "dynamic"), "<=", med(f, "fixed-50") * 1.35),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig11.dynamic_tracks_best",
        BENCH + "fig11.py:33",
        FIG["fig11"],
        lambda f: (med(f, "dynamic"), "<=", min(_others(f, "dynamic")) * 1.05),
        Scale(20, 480),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig11.shallow_loses",
        BENCH + "fig11.py:38",
        FIG["fig11"],
        lambda f: (med(f, "fixed-3"), ">", med(f, "dynamic") * 1.02),
        Scale(20, 480),
        Scale(12, 64),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig11.deep_loses",
        BENCH + "fig11.py:39",
        FIG["fig11"],
        lambda f: (med(f, "fixed-50"), ">", med(f, "dynamic") * 1.02),
        Scale(20, 480),
        Scale(12, 64),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig12.dynamic_beats_deep",
        BENCH + "fig12.py:27",
        FIG["fig12"],
        lambda f: (f.cdf("dynamic").maximum, "<=", f.cdf("fixed-50").maximum),
        Scale(None, 192),
        Scale(8, 64),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig13.overage_not_negative",
        BENCH + "fig13.py:23",
        FIG["fig13"],
        lambda f: (f.scalars["last-20-blocks overage (s)"], ">=", 0.0),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig13.encoding_costs",
        BENCH + "fig13.py:24",
        FIG["fig13"],
        lambda f: (f.scalars["4% encoding overhead cost (s)"], ">", 0.0),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig13.same_order",
        BENCH + "fig13.py:27",
        FIG["fig13"],
        lambda f: (
            f.scalars["last-20-blocks overage (s)"],
            "<",
            f.scalars["4% encoding overhead cost (s)"] * 20,
        ),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "fig14.leads_within_5pct",
        BENCH + "fig14.py:26",
        FIG["fig14"],
        lambda f: (med(f, "bullet_prime"), "<", min(_others(f, "bullet_prime")) * 1.05),
        Scale(20, 128),
        None,
        FIGURE_SEEDS,
    ),
    Claim(
        "fig15.shotgun_5x_rsync",
        BENCH + "fig15.py:35",
        FIG["fig15"],
        lambda f: (
            f.cdf("shotgun (download + update)").maximum * 5,
            "<",
            min(_rsync_maxima(f)),
        ),
        Scale(20, None),
        None,
        FIGURE_SEEDS,
    ),
    Claim(
        "fig15.update_costs",
        BENCH + "fig15.py:41",
        FIG["fig15"],
        lambda f: (
            med(f, "shotgun (download + update)"),
            ">",
            med(f, "shotgun (download only)"),
        ),
        Scale(20, None),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "diffs.self_clocked_control",
        BENCH + "ablation_diffs.py:71",
        ablation_diffs,
        lambda f: (f.scalars["self-clocked control KB"], ">", 0),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "diffs.periodic_control",
        BENCH + "ablation_diffs.py:72",
        ablation_diffs,
        lambda f: (f.scalars["periodic control KB"], ">", 0),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "epoch.slow_sends_less",
        BENCH + "ablation_epoch.py:52",
        ablation_epoch,
        lambda f: (
            f.scalars["epoch-15s control KB"],
            "<=",
            f.scalars["epoch-2s control KB"],
        ),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "epoch.paper_period_not_slower",
        BENCH + "ablation_epoch.py:57",
        ablation_epoch,
        lambda f: (med(f, "epoch-5s"), "<=", med(f, "epoch-15s") * 1.1),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "prune.tight_prunes_more",
        BENCH + "ablation_prune.py:49",
        ablation_prune,
        lambda f: (
            f.scalars["sigma-1.0 senders pruned"],
            ">=",
            f.scalars["sigma-2.0 senders pruned"],
        ),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "xcp.gains_not_worse",
        BENCH + "ablation_xcp.py:50",
        ablation_xcp,
        lambda f: (med(f, "xcp (0.4/0.226)"), "<=", min(_others(f, None)) * 1.3),
        Scale(20, 128),
        Scale(8, 16),
        FIGURE_SEEDS,
    ),
    Claim(
        "crash.mesh_survivors_finish",
        BENCH + "failures.py:67",
        crash_fifth,
        lambda f: (
            f.scalars["bullet_prime survivors complete"],
            "==",
            f.scalars["bullet_prime survivors total"],
        ),
        Scale(20, 96),
        Scale(8, 16),
        CRASH_SEEDS,
    ),
    Claim(
        "crash.mesh_strands_no_more",
        BENCH + "failures.py:68",
        crash_fifth,
        lambda f: (
            f.scalars["bullet_prime survivors complete"],
            ">=",
            f.scalars["splitstream survivors complete"],
        ),
        Scale(20, 96),
        Scale(8, 64),
        CRASH_SEEDS,
    ),
    Claim(
        "crash.mesh_finishes",
        "tests/test_failures.py:112",
        crash_two_mesh,
        lambda f: (f.scalars["bullet_prime finished"], "==", True),
        Scale(16, 96),
        Scale(12, 64),
        CRASH_SEEDS,
    ),
    Claim(
        "crash.mesh_strands_fewer",
        "tests/test_failures.py:115",
        crash_two,
        lambda f: (
            f.scalars["bullet_prime completions"],
            ">",
            f.scalars["splitstream completions"],
        ),
        Scale(16, 96),
        # Holds from Scale(12, 64) on, but SplitStream's stranded runs
        # there cost ~15 s a seed: tier-1 keeps the crash-fifth rows.
        None,
        CRASH_SEEDS,
    ),
]


#: (row id, seed) pairs that fail at paper scale, with what was measured.
PAPER_XFAILS = {
    ("fig4.beats_bullet", 1): (
        "Bullet' does not beat Bullet at seed 1: median 30.14 s against 29.88 s"
    ),
    ("fig4.near_splitstream", 4): (
        "Bullet' is not within 15% of SplitStream at seed 4: median 35.90 s "
        "against 29.24 s x 1.15 = 33.62 s"
    ),
    ("fig7.more_peers_help", 3): (
        "14 static peers do not beat 6 on the lossy mesh at seed 3: "
        "median 28.06 s against 27.86 s"
    ),
    ("fig14.leads_within_5pct", 1): (
        "Bullet' does not lead within 5% in the wide area at seed 1: "
        "median 22.21 s against Bullet's 16.98 s x 1.05 = 17.83 s"
    ),
    ("fig14.leads_within_5pct", 4): (
        "Bullet' does not lead within 5% in the wide area at seed 4: "
        "median 22.56 s against Bullet's 19.68 s x 1.05 = 20.67 s"
    ),
    ("fig14.leads_within_5pct", 5): (
        "Bullet' does not lead within 5% in the wide area at seed 5: "
        "median 16.88 s against Bullet's 13.51 s x 1.05 = 14.19 s"
    ),
}


def _check(claim, seed, scale):
    fig = _cached(claim.runner, seed, scale)
    measured, op, bound = claim.predicate(fig)
    assert OPS[op](measured, bound), (
        f"{claim.id} at {scale}, seed {seed}: {measured!r} {op} {bound!r} fails"
    )


def _params(paper):
    for claim in CLAIMS:
        scale = claim.paper if paper else claim.tier1
        if scale is None:
            continue
        for seed in claim.seeds:
            reason = PAPER_XFAILS.get((claim.id, seed)) if paper else None
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else ()
            yield pytest.param(
                claim, seed, scale, id=f"{claim.id}-s{seed}", marks=marks
            )


@pytest.mark.parametrize("claim, seed, scale", _params(paper=False))
def test_claim_at_tier1_scale(claim, seed, scale):
    _check(claim, seed, scale)


@pytest.mark.paper_scale
@pytest.mark.parametrize("claim, seed, scale", _params(paper=True))
def test_claim_at_paper_scale(claim, seed, scale):
    _check(claim, seed, scale)


def test_every_row_is_well_formed():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        own = 9 if claim.id.startswith("crash.") else 2
        assert len(claim.seeds) >= 5 and own in claim.seeds, claim.id
        if claim.tier1 is not None:
            # A rung below the paper scale in what the runner reads.
            read = [(r, p) for r, p in zip(claim.tier1, claim.paper) if p is not None]
            assert claim.tier1 in LADDER, claim.id
            assert all(r <= p for r, p in read), claim.id
            assert any(r < p for r, p in read), claim.id
    ids = {claim.id: claim for claim in CLAIMS}
    for claim_id, seed in PAPER_XFAILS:
        assert seed in ids[claim_id].seeds, (claim_id, seed)
