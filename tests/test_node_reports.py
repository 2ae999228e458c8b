"""Per-node reports: what every node told its run, bit for bit.

The golden store pins medians and totals; it does not pin any one
node's duplicates or completion instant, nor the order nodes first
reported in.  Each case here runs one system under one scenario on the
golden matrix's 8-node / 24-block mesh and records, per node, its
``completed_at`` and ``trace.completion_times`` entry (``float.hex``),
its duplicate and fresh-arrival counts, the key order of
``trace.block_arrivals`` (fig13 sums in that order) and the run's
failure counters.  ``chaos`` and ``gray_chaos`` restart nodes that had
already counted, so the counters also pin what survives a restart.
``tests/data/node_reports.json`` holds the record; ``tests/test_structure.py``
keeps the report path single.

Re-record only on purpose::

    PYTHONPATH=src python tests/test_node_reports.py
"""

import json
import pathlib

import pytest

from repro.harness.sweep import SweepCell, execute_cell
from repro.sim.trace import RUN_COUNTERS

DATA = pathlib.Path(__file__).parent / "data" / "node_reports.json"

SYSTEMS = ("bittorrent", "bullet", "bullet_prime", "splitstream")
SCENARIOS = ("none", "flash_crowd", "chaos", "gray_chaos")
SEEDS = (1, 5)
CASES = [
    f"{system}|{scenario}|s{seed}"
    for system in SYSTEMS
    for scenario in SCENARIOS
    for seed in SEEDS
]


def _hex(value):
    return None if value is None else value.hex()


def report_of(case):
    """The recorded form of ``case``'s per-node reports."""
    system, scenario, seed = case.split("|")
    cell = SweepCell(system, scenario, {}, "mesh", 8, 24, int(seed[1:]), 900.0)
    result = execute_cell(cell)
    trace = result.trace
    perf = result.perf_stats()
    return {
        "nodes": {
            str(node_id): {
                "completed_at": _hex(node.completed_at),
                "completion_time": _hex(trace.completion_times.get(node_id)),
                "duplicates": trace.duplicate_blocks.get(node_id, 0),
                "arrivals": len(trace.block_arrivals.get(node_id, ())),
            }
            for node_id, node in result.nodes.items()
        },
        "arrival_order": list(trace.block_arrivals),
        "counters": [[key, perf[key]] for key in RUN_COUNTERS],
    }


@pytest.mark.parametrize("case", CASES)
def test_node_reports_match_the_record(case):
    recorded = json.loads(DATA.read_text())[case]
    assert report_of(case) == recorded


def test_every_case_is_recorded():
    assert sorted(json.loads(DATA.read_text())) == sorted(CASES)


if __name__ == "__main__":
    DATA.write_text(
        json.dumps(
            {case: report_of(case) for case in CASES},
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )
