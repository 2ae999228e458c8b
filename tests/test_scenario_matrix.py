"""The scenario-diversity matrix, driven by the sweep engine.

These are the acceptance tests for the sweep subsystem: the full
system x scenario x seed matrix runs through
:func:`repro.harness.sweep.run_sweep`, the merged output is
bit-identical no matter how many workers executed it, and the store it
writes is byte for byte the recorded golden store — which was itself
recorded serially, so a parallel golden pass *is* the
parallel-equals-serial keystone at full matrix scale.
"""

import pathlib

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.registry import SCENARIOS, SYSTEMS
from repro.harness.sweep import (
    StoreView,
    SweepSpec,
    golden_matrix_spec,
    record_cell,
    run_sweep,
)
from repro.sim.topology import mesh_topology

from test_allocator_equivalence import run_full

N = 8
NB = 24
MAX_TIME = 900.0

#: The 288-cell acceptance matrix as a sweep store: every record's key,
#: cell and whole summary, work counters included, as
#: ``repro sweep --golden-matrix --workers 1 --quiet --out`` writes it.
#: The current code must reproduce it byte for byte, from any worker
#: count.
GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_matrix.jsonl"


def _run(system_name, scenario_name, seed=1, full=False):
    entry = SYSTEMS.get(system_name)
    return (run_full if full else run_experiment)(
        mesh_topology(N, seed=seed),
        entry.builder(num_blocks=NB, seed=seed),
        NB,
        scenario=SCENARIOS.build(scenario_name),
        max_time=MAX_TIME,
        seed=seed,
    )


def _comparable(summary):
    """Summary minus the perf counters (which intentionally differ from
    the full twin's: that is what incremental allocation saves)."""
    summary = dict(summary)
    summary.pop("perf", None)
    return summary


def test_matrix_matches_recorded_golden_store():
    """All 288 golden records reproduce byte for byte — summaries and
    work counters — via a *parallel* sweep, proving worker count cannot
    perturb a single cell."""
    spec = golden_matrix_spec()
    assert len(spec) == 288
    assert run_sweep(spec, workers=2).to_jsonl() == GOLDEN_PATH.read_text()


def test_golden_store_outcomes():
    """What the matrix claims about the systems, read off the recorded
    store (no simulation): a full summary per cell; everyone finishes
    under the static control case; Bullet' finishes under every
    scenario, and no scenario's median beats the static one by more
    than 5% (dynamics only take bandwidth away; flash-crowd staggering
    delays starts) — on each of the four seeds."""
    records = StoreView.from_jsonl(GOLDEN_PATH).records
    assert len(records) == 288
    static = {}
    for record in records:
        cell, summary = record_cell(record), record["summary"]
        assert summary["nodes"] >= 1
        assert summary["median"] > 0.0
        if cell.scenario == "none":
            assert summary["finished"], f"{cell.system} must finish under 'none'"
            static[cell.system, cell.seed] = summary["median"]
    for record in records:
        cell, summary = record_cell(record), record["summary"]
        if cell.system != "bullet_prime":
            continue
        assert summary["finished"], f"bullet_prime must finish: {record['key']}"
        assert summary["median"] >= static[cell.system, cell.seed] * 0.95, (
            f"{record['key']} beats the static control case"
        )


def test_parallel_sweep_bit_identical_to_serial():
    """The keystone invariant at JSONL level: identical bytes out of the
    results store regardless of worker count or completion order —
    serial against three workers, where the golden test runs two."""
    spec = SweepSpec(
        systems=("bullet_prime", "bittorrent"),
        scenarios=SCENARIOS.names(),
        nodes=(N,),
        blocks=(NB,),
        seeds=(1,),
        max_time=MAX_TIME,
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=3)
    assert serial.to_jsonl() == parallel.to_jsonl()
    assert serial.aggregates() == parallel.aggregates()


def test_sweep_cell_matches_direct_run_experiment():
    """A sweep cell is exactly the experiment one would run by hand."""
    spec = SweepSpec(
        systems=("bullet_prime",),
        scenarios=("churn",),
        nodes=(N,),
        blocks=(NB,),
        seeds=(3,),
        max_time=MAX_TIME,
    )
    record = run_sweep(spec, workers=1).records[0]
    assert record["summary"] == _run("bullet_prime", "churn", seed=3).summary()


@pytest.mark.parametrize("scenario_name", SCENARIOS.names())
def test_summary_bit_identical_across_runs(scenario_name):
    """Same seed + scenario name -> bit-identical summaries (the
    determinism property the whole reproduction rests on)."""
    first = _run("bullet_prime", scenario_name, seed=3).summary()
    second = _run("bullet_prime", scenario_name, seed=3).summary()
    assert first == second


@pytest.mark.parametrize("scenario_name", SCENARIOS.names())
def test_incremental_allocator_bit_identical_to_full(scenario_name):
    """Component-scoped incremental allocation produces exactly the
    results of recomputing every component, across the whole scenario
    catalogue (the full twin is the tests' ``FullFlowNetwork``)."""
    incremental = _run("bullet_prime", scenario_name, seed=3)
    full = _run("bullet_prime", scenario_name, seed=3, full=True)
    assert _comparable(incremental.summary()) == _comparable(full.summary())
    # Incremental allocation must do no *more* work than the full twin.
    assert (
        incremental.network.flows.flows_allocated
        <= full.network.flows.flows_allocated
    )


def test_scenario_resolves_by_name_in_run_experiment():
    # run_experiment accepts a registry name (aliases included) directly.
    result = run_experiment(
        mesh_topology(N, seed=2),
        SYSTEMS.get("bulletprime").builder(num_blocks=NB, seed=2),
        NB,
        scenario="cellular",
        max_time=MAX_TIME,
        seed=2,
    )
    assert result.summary()["nodes"] == N


def test_flash_crowd_staggers_completions():
    # Staggered joins must actually shift completion times later than
    # the simultaneous crowd.
    together = _run("bullet_prime", "none", seed=4)
    staggered = run_experiment(
        mesh_topology(N, seed=4),
        SYSTEMS.get("bullet_prime").builder(num_blocks=NB, seed=4),
        NB,
        scenario=SCENARIOS.build("flash_crowd", ramp=30.0),
        max_time=MAX_TIME,
        seed=4,
    )
    assert staggered.finished
    assert max(staggered.receiver_completion_times) > max(
        together.receiver_completion_times
    )
