"""Tier-1 self-test of the benchmark at ``--smoke`` scale (a few seconds).

Runs ``bench/run.py`` the way a person and the driver would and checks the
output against the metric and workload lists in ``BENCHMARK.json``.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


def test_smoke_report_matches_the_definition(tmp_path):
    spec = definition()
    out = tmp_path / "smoke.json"
    done = run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["correct"] is True

    declared = spec["end_to_end"] + spec["per_layer"]
    for entry in declared + spec["workloads"]:
        assert NAME.fullmatch(entry["name"]), entry
    assert all(entry["unit"] for entry in declared)
    assert len({entry["name"] for entry in declared}) == len(declared)

    assert sorted(result["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for name, doc in result["workloads"].items():
        # Tracer on and tracer off gave byte-identical summaries, every
        # completed receiver holds the whole file, spans add up.
        assert doc["failures"] == [], (name, doc["failures"])
        assert doc["failed"] == 0 and doc["attempted"] >= 2
        measured = set(doc["end_to_end"]) | set(doc["per_layer"])
        assert measured == {entry["name"] for entry in declared}, name
        assert doc["per_layer"]["trace.attributed_share"] >= 0.95
    static = result["workloads"]["mesh_static"]["per_layer"]
    assert static["scenarios.actuations"] == 0
    assert static["sim.flow_models.observe_rate_calls"] == 0
    assert result["workloads"]["lossy_bbr"]["per_layer"]["sim.tcp.path_refreshes"] > 0
    assert result["workloads"]["mesh_oscillate"]["per_layer"][
        "sim.links.condition_writes"
    ] > 0
    assert result["workloads"]["sweep_small"]["per_layer"]["harness.sweep.cells"] == 8


def test_driver_line_has_exactly_the_declared_metrics():
    spec = definition()
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        done = run(
            "--smoke", "--workload", "star_protocol", "--seed", "3", "--trace", trace
        )
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [entry["name"] for entry in declared]
        for entry in declared:
            assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
