"""Allocator benchmark: scenario sweep with perf counters recorded.

Runs Bullet' under every registered dynamic scenario and records, per
scenario, the wall-clock time, the number of allocation passes
(``FlowNetwork.reallocations``), and the component-scoped work counters
(pytest-benchmark JSON via ``--benchmark-json``).  The counters are
pinned exactly, cell by cell, by the golden store
(``tests/data/golden_matrix.jsonl``); speed is ``bench/``'s to measure.

Also spot-checks the allocator-equivalence guarantee at benchmark scale:
one scenario is re-run with ``flow_allocator="full"`` and must produce a
bit-identical summary.

Scale knobs: ``REPRO_BENCH_NODES`` / ``REPRO_BENCH_BLOCKS``.
"""

import time

from conftest import run_once

from repro.harness.experiment import run_experiment
from repro.harness.registry import SCENARIOS, SYSTEMS
from repro.sim.topology import mesh_topology

EQUIVALENCE_SCENARIO = "oscillate"


def test_bench_allocator_sweep(benchmark, bench_scale):
    num_nodes = bench_scale["num_nodes"]
    num_blocks = bench_scale["num_blocks"]
    seed = 2
    builder = SYSTEMS.get("bullet_prime").builder

    def run_one(name, flow_allocator="incremental"):
        return run_experiment(
            mesh_topology(num_nodes, seed=seed),
            builder(num_blocks=num_blocks, seed=seed),
            num_blocks,
            scenario=SCENARIOS.build(name),
            max_time=9000.0,
            seed=seed,
            flow_allocator=flow_allocator,
        )

    def sweep():
        results = {}
        for name in SCENARIOS.names():
            started = time.perf_counter()
            result = run_one(name)
            wall = time.perf_counter() - started
            perf = result.perf_stats()
            perf["wall_seconds"] = round(wall, 3)
            results[name] = {
                "summary": result.summary(),
                "perf": perf,
            }
        return results

    results = run_once(benchmark, sweep)
    benchmark.extra_info["allocator"] = {
        name: entry["perf"] for name, entry in results.items()
    }

    print()
    header = (
        f"{'scenario':22s} {'wall s':>7s} {'passes':>7s} {'fills':>7s} "
        f"{'flows':>9s} {'max comp':>8s}"
    )
    print(header)
    for name, entry in sorted(results.items()):
        perf = entry["perf"]
        print(
            f"{name:22s} {perf['wall_seconds']:7.2f} "
            f"{perf['reallocations']:7d} {perf['components_allocated']:7d} "
            f"{perf['flows_allocated']:9d} {perf['max_component_size']:8d}"
        )

    for name, entry in results.items():
        summary = entry["summary"]
        assert summary["finished"], f"bullet_prime must finish under {name}"
        perf = entry["perf"]
        assert perf["reallocations"] > 0
        assert perf["flows_allocated"] >= perf["components_allocated"]

    # Equivalence spot-check at this scale: full recomputation must give
    # the same experiment, just with more allocator work.
    incremental = results[EQUIVALENCE_SCENARIO]["summary"]
    full = run_one(EQUIVALENCE_SCENARIO, flow_allocator="full").summary()
    incremental = dict(incremental)
    inc_perf = incremental.pop("perf")
    full_perf = full.pop("perf")
    assert incremental == full, (
        "incremental allocator diverged from full recomputation under "
        f"{EQUIVALENCE_SCENARIO}"
    )
    assert inc_perf["flows_allocated"] <= full_perf["flows_allocated"]
