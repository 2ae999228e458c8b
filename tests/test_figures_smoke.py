"""Small-scale smoke tests for every figure runner.

Each paper figure's entry point must run end-to-end at tiny scale and
produce a well-formed :class:`FigureData`; the paper's orderings are
claim rows in ``tests/test_paper_claims.py``, checked over several
seeds at the scale where each one holds.

Figures 4-14 are sweep specs run through ``execute_cell``; every series
and scalar they produce at this scale is pinned, float for float, to
``tests/data/figure_series.json`` — recorded at commit 06cdc33, when
each figure still was a hand loop around ``run_experiment``.
"""

import json
import pathlib

import pytest

from repro.harness import figures

RECORDED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "figure_series.json").read_text()
)
SMOKE_SCALE = {"fig12": dict(num_blocks=48)}


def _check_well_formed(fig):
    assert fig.series, f"{fig.figure_id} produced no series"
    for label, samples in fig.series.items():
        assert samples, f"{fig.figure_id}/{label} empty"
        assert all(s >= 0 for s in samples)
    assert fig.figure_id in fig.render()


@pytest.mark.parametrize("figure_id", sorted(RECORDED, key=lambda f: int(f[3:])))
def test_figure_equals_the_recorded_series(figure_id):
    kwargs = SMOKE_SCALE.get(figure_id, dict(num_nodes=8, num_blocks=16))
    fig = figures.FIGURES[figure_id](seed=1, **kwargs)
    _check_well_formed(fig)
    recorded = RECORDED[figure_id]
    assert list(fig.series) == list(recorded["series"])
    assert fig.series == recorded["series"]
    assert fig.scalars == recorded["scalars"]


def test_every_spec_figure_is_recorded():
    assert sorted(RECORDED) == sorted(set(figures.FIGURES) - {"fig15"})


def test_fig15_runs():
    _check_well_formed(figures.fig15_shotgun(num_nodes=8, scale=0.02, seed=1))


def test_fig13_scalars_present():
    scalars = RECORDED["fig13"]["scalars"]
    assert "last-20-blocks overage (s)" in scalars
    assert "4% encoding overhead cost (s)" in scalars


def test_fig12_reports_throttled_node_only():
    for label, samples in RECORDED["fig12"]["series"].items():
        assert len(samples) == 1, "fig12 series must be the 8th node only"
