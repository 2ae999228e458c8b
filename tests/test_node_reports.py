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
``tests/data/node_reports.json`` holds the record.

An AST fence keeps the report path single: under ``src/`` only
``overlay/node.py`` calls the trace's ``block_received`` / ``completed``
/ ``node_started`` or assigns ``completed_at``, nothing tests
``self.trace is not None``, and the per-node failure-counter plumbing the
run's ``trace.counters`` replaced stays gone.

Re-record only on purpose::

    PYTHONPATH=src python tests/test_node_reports.py
"""

import ast
import json
import pathlib

import pytest

from repro.harness.sweep import SweepCell, execute_cell
from repro.sim.trace import RUN_COUNTERS

DATA = pathlib.Path(__file__).parent / "data" / "node_reports.json"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
#: The one module that reports a node to its run's trace.
REPORT_MODULE = "repro/overlay/node.py"
REPORTS = ("block_received", "completed", "node_started")
#: Names of the per-node counter plumbing that ``trace.counters`` replaced.
GONE = ("failure_stats", "FAILURE_COUNTERS", "salvaged_stats", "extra_perf")

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


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _report_path_breaches():
    """Every trace report or ``completed_at`` write outside
    :data:`REPORT_MODULE`, every ``self.trace is not None`` test, and every
    use of a :data:`GONE` name or of a ``"duplicate_blocks"`` key."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                hit = (
                    module != REPORT_MODULE
                    and isinstance(func, ast.Attribute)
                    and func.attr in REPORTS
                    and _name(func.value) == "trace"
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                hit = module != REPORT_MODULE and any(
                    _name(t) == "completed_at" for t in targets
                )
            elif isinstance(node, ast.Compare):
                hit = (
                    _name(node.left) == "trace"
                    and _name(getattr(node.left, "value", None)) == "self"
                    and isinstance(node.ops[0], ast.IsNot)
                    and getattr(node.comparators[0], "value", 0) is None
                )
            elif isinstance(node, ast.Constant):
                hit = node.value == "duplicate_blocks"
            else:
                hit = _name(node) in GONE
            if hit:
                found.append((module, ast.get_source_segment(text, node)))
    return found


def test_nodes_report_only_through_the_base_class():
    assert _report_path_breaches() == []


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
