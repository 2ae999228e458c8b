"""A finished sweep cell frees its run.

A run's object graph is cyclic, so only the collector frees it;
``reduce_cell`` (``harness/sweep.py``) keeps the collector paused for
the cell and frees the run with one young collection once its result is
reduced.  The census: after a cell, a full collection that saves what it
finds (``gc.DEBUG_SAVEALL``) finds no object of a ``repro`` class.
"""

import gc

import pytest

import repro.harness.sweep as sweep
from repro.harness.figures import run_figure
from repro.harness.registry import SYSTEMS
from repro.harness.sweep import SweepCell, reduce_cell, run_cell

CENSUS_SCENARIOS = ("none", "crash_restart", "gray_chaos", "oscillate")


def _cell(system="bullet_prime", scenario="none", nodes=8, blocks=16):
    return SweepCell(system, scenario, {}, "mesh", nodes, blocks, 1, 900.0)


def _leftovers(work, *args, **kwargs):
    """The ``repro`` classes of the objects that only a full collection
    would free after ``work(*args, **kwargs)`` ran."""
    gc.collect()
    work(*args, **kwargs)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = {type(o) for o in gc.garbage}
        return sorted(t.__name__ for t in found if t.__module__.startswith("repro"))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("scenario", CENSUS_SCENARIOS)
@pytest.mark.parametrize("system", SYSTEMS.names())
def test_a_cell_leaves_no_cyclic_garbage(system, scenario):
    assert _leftovers(run_cell, _cell(system, scenario)) == []


def test_a_figure_grid_leaves_no_cyclic_garbage():
    assert _leftovers(run_figure, "fig4", num_nodes=6, num_blocks=16, seed=1) == []


def _fail(*args, **kwargs):
    raise RuntimeError("run failed")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["returns", "reduce raises", "run raises"])
def test_the_collector_state_is_restored(monkeypatch, enabled, outcome):
    reduce = _fail if outcome == "reduce raises" else (lambda result: result.finished)
    if outcome == "run raises":
        monkeypatch.setattr(sweep, "run_experiment", _fail)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "returns":
            assert reduce_cell(_cell(nodes=4, blocks=4), reduce) is True
        else:
            with pytest.raises(RuntimeError, match="run failed"):
                reduce_cell(_cell(nodes=4, blocks=4), reduce)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
