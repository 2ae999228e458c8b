"""Tests for the command-line entry point."""

import json

import pytest

from repro.__main__ import main
from repro.harness.registry import SCENARIOS


def test_cli_runs_one_figure(capsys):
    code = main(["fig6", "--nodes", "8", "--blocks", "24", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig6" in out
    assert "rarest_random" in out


def test_cli_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_scale_flags_ignored_where_inapplicable(capsys):
    # fig12 fixes its own topology; --nodes must not break it.
    code = main(["fig12", "--nodes", "8", "--blocks", "96", "--seed", "1"])
    assert code == 0
    assert "fig12" in capsys.readouterr().out


def test_cli_run_json(capsys):
    code = main(
        [
            "run",
            "--system",
            "bulletprime",
            "--scenario",
            "oscillate",
            "--nodes",
            "8",
            "--blocks",
            "24",
            "--json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["system"] == "bullet_prime"  # alias resolved
    assert doc["scenario"] == "oscillate"
    assert doc["summary"]["nodes"] == 8
    assert doc["summary"]["median"] > 0.0


def test_cli_run_text_output(capsys):
    code = main(
        ["run", "--system", "bt", "--scenario", "static", "--nodes", "8",
         "--blocks", "16"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bittorrent under none" in out
    assert "median" in out


def test_cli_run_text_output_when_no_node_completed(capsys):
    # summary() reports median/p90/worst = None for such runs; the text
    # report must render them, not die formatting None as a float.
    code = main(
        ["run", "--system", "splitstream", "--scenario", "none", "--nodes",
         "8", "--blocks", "24", "--max-time", "0.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    for key in ("median", "p90", "worst"):
        assert f"{key:14s} {'n/a':>10s}" in out
    assert "finished       False" in out


PROFILE_KEYS = {
    "events_processed",
    "events_per_second",
    "timers_allocated",
    "timers_recycled",
    "same_time_batched",
    "heap_compactions",
    "reallocations",
    "components_allocated",
    "flows_allocated",
    "fill_rounds",
    "max_component_size",
    "mean_component_size",
    "wall_seconds",
}


def test_cli_run_profile_json(capsys):
    code = main(
        ["run", "--system", "bulletprime", "--scenario", "none", "--nodes",
         "8", "--blocks", "16", "--json", "--profile"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert PROFILE_KEYS <= set(doc["profile"])
    assert doc["profile"]["events_processed"] > 0
    assert doc["profile"]["reallocations"] > 0
    assert doc["profile"]["max_component_size"] >= 1
    # timers_allocated counts every armed event, so it bounds the
    # executed ones; the event core pools nothing, so recycled reads 0.
    assert doc["profile"]["timers_allocated"] >= (
        doc["profile"]["events_processed"]
    )
    assert doc["profile"]["timers_recycled"] == 0
    # The deterministic counters also ride in the summary.
    assert doc["summary"]["perf"]["events_processed"] == (
        doc["profile"]["events_processed"]
    )


def test_cli_run_profile_text(capsys):
    code = main(
        ["run", "--system", "bulletprime", "--scenario", "none", "--nodes",
         "8", "--blocks", "16", "--profile"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    assert "events_processed" in out
    assert "reallocations" in out
    assert "peak_rss_mb" in out


def test_cli_run_profile_reports_peak_memory(capsys):
    code = main(
        ["run", "--system", "bulletprime", "--scenario", "none", "--nodes",
         "8", "--blocks", "16", "--json", "--profile"]
    )
    assert code == 0
    profile = json.loads(capsys.readouterr().out)["profile"]
    assert profile["peak_rss_mb"] > 0


def test_cli_run_unknown_names_fail_cleanly(capsys):
    code = main(["run", "--system", "napster", "--nodes", "4", "--blocks", "8"])
    assert code == 2
    assert "unknown system" in capsys.readouterr().err


def test_cli_run_trace_flag_requires_trace_replay(capsys):
    code = main(["run", "--scenario", "oscillate", "--trace", "x.json"])
    assert code == 2
    assert "trace_replay" in capsys.readouterr().err


def test_cli_run_trace_replay_from_file(tmp_path, capsys):
    from repro.scenarios import write_trace

    path = tmp_path / "t.json"
    write_trace(path, [{"t": 2.0, "link": "*", "scale": 0.5}])
    code = main(
        ["run", "--scenario", "trace", "--trace", str(path), "--nodes", "6",
         "--blocks", "16", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "trace_replay"
    assert doc["summary"]["finished"] is True


def test_cli_list(capsys):
    code = main(["list"])
    assert code == 0
    out = capsys.readouterr().out
    for section in ("systems:", "scenarios:", "flow_models:", "topologies:"):
        assert section in out
    assert "workloads:" not in out
    for name in ("bullet_prime", "oscillate", "trace_replay", "throttled_star"):
        assert name in out
    assert "fig4" in out
    # Every scenario's declared knobs surface in the listing.
    assert "params:" in out
    assert "period=2.0" in out  # oscillate
    assert "down_time=10.0" in out  # churn
    assert "ramp=30.0" in out  # flash_crowd
    assert "request_strategy='rarest_random'" in out  # bullet_prime
    assert "max_loss=0.03" in out  # mesh


def test_cli_list_shows_dynamics_scenarios(capsys):
    # Acceptance: the new scenarios' Param schemas are visible.
    code = main(["list", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    by_name = {e["name"]: e for e in doc["scenarios"]}
    for name in ("gilbert_elliott", "asymmetric_squeeze", "lossy"):
        assert name in by_name, name
        assert by_name[name]["params"], f"{name} must expose its knobs"
    ge = {p["name"]: p for p in by_name["gilbert_elliott"]["params"]}
    assert ge["bad_loss"]["kind"] == "float"
    assert ge["bad_loss"]["default"] == 0.05
    squeeze = {p["name"] for p in by_name["asymmetric_squeeze"]["params"]}
    assert {"period", "fraction", "factor", "floor", "hold"} <= squeeze
    lossy_params = {p["name"]: p for p in by_name["lossy"]["params"]}
    assert lossy_params["base"]["kind"] == "str"
    assert lossy_params["base"]["default"] == "none"


def test_cli_run_gilbert_elliott(capsys):
    code = main(
        ["run", "--system", "bulletprime", "--scenario", "gilbert_elliott",
         "--nodes", "8", "--blocks", "16", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "gilbert_elliott"
    assert doc["summary"]["finished"] is True


def test_cli_run_multi_column_csv_trace(tmp_path, capsys):
    path = tmp_path / "lte.csv"
    path.write_text("time,bandwidth,loss\n2.0,100000,0.01\n")
    code = main(
        ["run", "--scenario", "trace", "--trace", str(path), "--nodes", "6",
         "--blocks", "16", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "trace_replay"
    assert doc["summary"]["finished"] is True


def test_cli_list_shows_aliases(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "aliases: bulletprime, bullet-prime, bp" in out
    assert "aliases: oscillation, cellular" in out


def test_cli_list_json(capsys):
    code = main(["list", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert {e["name"] for e in doc["systems"]} == {
        "bullet_prime", "bullet", "bittorrent", "splitstream"
    }
    assert "oscillate" in {e["name"] for e in doc["scenarios"]}
    assert "fig5" in doc["figures"]
    oscillate = next(e for e in doc["scenarios"] if e["name"] == "oscillate")
    assert {p["name"] for p in oscillate["params"]} >= {
        "period", "low", "high", "wave"
    }
    period = next(p for p in oscillate["params"] if p["name"] == "period")
    assert period["kind"] == "float" and period["default"] == 2.0


SWEEP_FLAGS = [
    "sweep", "--systems", "bulletprime", "--scenarios", "none,churn",
    "--nodes", "6", "--blocks", "12", "--seeds", "1,2", "--max-time", "600",
]


def test_cli_sweep_json_and_store(tmp_path, capsys):
    out_path = tmp_path / "results.jsonl"
    code = main(SWEEP_FLAGS + ["--workers", "2", "--out", str(out_path), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == 4
    assert doc["spec"]["systems"] == ["bullet_prime"]  # alias resolved
    assert {row["group"].split("|")[1] for row in doc["aggregates"]} == {
        "none", "churn"
    }
    for row in doc["aggregates"]:
        assert row["n_seeds"] == 2
        assert row["median"]["ci_low"] <= row["median"]["mean"] <= row["median"]["ci_high"]
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[0])["cell"]["system"] == "bullet_prime"


def test_cli_sweep_quiet_suppresses_progress(tmp_path, capsys):
    out_path = tmp_path / "results.jsonl"
    code = main(SWEEP_FLAGS + ["--quiet", "--out", str(out_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""  # no [n/total] progress lines
    assert out_path.exists()


def test_cli_sweep_quiet_output_matches_loud(tmp_path, capsys):
    quiet, loud = tmp_path / "quiet.jsonl", tmp_path / "loud.jsonl"
    assert main(SWEEP_FLAGS + ["--quiet", "--out", str(quiet)]) == 0
    assert main(SWEEP_FLAGS + ["--out", str(loud)]) == 0
    capsys.readouterr()
    assert quiet.read_bytes() == loud.read_bytes()


def test_cli_sweep_workers_bit_identical(tmp_path, capsys):
    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    assert main(SWEEP_FLAGS + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(SWEEP_FLAGS + ["--workers", "4", "--out", str(parallel)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


def test_cli_sweep_seed_ranges(capsys):
    code = main(
        ["sweep", "--systems", "bp", "--scenarios", "none", "--nodes", "6",
         "--blocks", "12", "--seeds", "0:2,5", "--max-time", "600", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["seeds"] == [0, 1, 5]
    assert doc["cells"] == 3


def test_cli_sweep_spec_file_with_param_grid(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "systems": ["bullet_prime"],
        "scenarios": [{"name": "oscillate", "params": {"period": [1.0, 4.0]}}],
        "nodes": [6],
        "blocks": [12],
        "seeds": [1],
        "max_time": 600.0,
    }))
    code = main(["sweep", "--spec", str(spec_path), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == 2
    groups = [row["group"] for row in doc["aggregates"]]
    assert any("period=1.0" in g for g in groups)
    assert any("period=4.0" in g for g in groups)


def test_cli_sweep_flags_override_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "systems": ["bullet_prime", "bittorrent"],
        "scenarios": ["none"],
        "nodes": [6], "blocks": [12], "seeds": [1, 2], "max_time": 600.0,
    }))
    code = main(["sweep", "--spec", str(spec_path), "--seeds", "3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["seeds"] == [3]
    assert doc["cells"] == 2


GOLDEN_FLAGS = [
    "sweep", "--systems", "bp", "--scenarios", "none", "--nodes", "6",
    "--blocks", "12", "--seeds", "1", "--max-time", "600", "--quiet",
]


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    """A one-cell store, recorded the way the golden store is."""
    path = tmp_path_factory.mktemp("golden") / "golden.jsonl"
    assert main(GOLDEN_FLAGS + ["--out", str(path)]) == 0
    return path


def test_cli_sweep_check_golden(golden_store, tmp_path, capsys):
    capsys.readouterr()
    # The store a sweep wrote passes against the same sweep ...
    assert main(GOLDEN_FLAGS + ["--check-golden", str(golden_store)]) == 0
    assert "1/1 recorded cells covered, 0 mismatched" in capsys.readouterr().err
    # ... and a store holding a key the sweep does not produce fails.
    record = json.loads(golden_store.read_text())
    record["key"] = record["key"].replace("none", "churn")
    other = tmp_path / "other.jsonl"
    other.write_text(json.dumps(record) + "\n")
    assert main(GOLDEN_FLAGS + ["--check-golden", str(other)]) == 1
    err = capsys.readouterr().err
    assert "0/1 recorded cells covered, 0 mismatched" in err
    assert "not covered: bullet_prime|churn|mesh|n6|b12|s1" in err


def test_cli_sweep_check_golden_names_the_drifted_field(golden_store, tmp_path, capsys):
    # One work counter edited in a copy of the store: the check fails and
    # says which field moved, from what to what.
    record = json.loads(golden_store.read_text())
    rounds = record["summary"]["perf"]["fill_rounds"]
    record["summary"]["perf"]["fill_rounds"] = rounds - 1
    edited = tmp_path / "edited.jsonl"
    edited.write_text(json.dumps(record, sort_keys=True) + "\n")
    capsys.readouterr()
    assert main(GOLDEN_FLAGS + ["--check-golden", str(edited)]) == 1
    err = capsys.readouterr().err
    assert "1/1 recorded cells covered, 1 mismatched" in err
    assert "drifted from golden: bullet_prime|none|mesh|n6|b12|s1" in err
    assert f"    summary.perf.fill_rounds: {rounds - 1} -> {rounds}\n" in err


def test_cli_sweep_golden_matrix_rejects_grid_flags(capsys):
    code = main(["sweep", "--golden-matrix", "--seeds", "0:2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--golden-matrix" in err and "--seeds" in err


def test_cli_sweep_check_golden_other_scale_is_not_covered(golden_store, capsys):
    # A 10-node run of the recorded 6-node cell is another experiment:
    # the golden cell is uncovered, not drifted.
    other_scale = [f if f != "6" else "10" for f in GOLDEN_FLAGS]
    capsys.readouterr()
    assert main(other_scale + ["--check-golden", str(golden_store)]) == 1
    err = capsys.readouterr().err
    assert "0 mismatched" in err
    assert "did not cover" in err
    assert "drifted" not in err


def test_cli_sweep_check_golden_ignores_other_cells(golden_store, tmp_path, capsys):
    # A system or topology variant of a recorded cell — a knob, a star
    # instead of the mesh — is another experiment under another key: the
    # golden cell is checked, the variants are not looked at.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "systems": ["bp", {"name": "bp", "params": {"request_strategy": "first"}}],
        "topologies": ["mesh", "star", {"name": "mesh", "params": {"max_loss": 0.0}}],
        "nodes": [6], "blocks": [12], "seeds": [1], "max_time": 600.0,
    }))
    flags = ["sweep", "--spec", str(spec), "--quiet", "--check-golden", str(golden_store)]
    capsys.readouterr()
    assert main(flags) == 0
    err = capsys.readouterr().err
    assert "1/1 recorded cells covered, 0 mismatched" in err
    assert "drifted" not in err


def test_cli_sweep_check_golden_bad_path_fails_before_sweeping(capsys):
    # A typo'd golden path must fail up front (exit 2, no sweep run),
    # not crash after minutes of sweeping.
    code = main(SWEEP_FLAGS + ["--check-golden", "/no/such/golden.json"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "golden.json" in captured.err
    assert captured.out == ""  # the sweep never ran


def test_cli_sweep_unknown_names_fail_cleanly(capsys):
    code = main(["sweep", "--systems", "napster"])
    assert code == 2
    assert "unknown system" in capsys.readouterr().err


COMPARE_STORE_FLAGS = [
    "sweep", "--systems", "bulletprime,bittorrent", "--scenarios", "none",
    "--nodes", "6", "--blocks", "12", "--seeds", "1,2", "--max-time", "600",
    "--quiet",
]


@pytest.fixture(scope="module")
def compare_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("compare") / "results.jsonl"
    assert main(COMPARE_STORE_FLAGS + ["--out", str(path)]) == 0
    return path


def test_cli_compare_markdown(compare_store, capsys):
    capsys.readouterr()
    code = main(
        ["compare", str(compare_store), "--baseline", "bulletprime"]
    )
    assert code == 2  # aliases are not resolved by compare: clean error
    assert "bulletprime" in capsys.readouterr().err
    code = main(
        ["compare", str(compare_store), "--baseline", "bullet_prime"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "# Paired comparison vs `bullet_prime`" in out
    assert "none|mesh|n6|b12" in out
    assert "| `bittorrent` | 2/2 |" in out


def test_cli_compare_json_and_out(compare_store, tmp_path, capsys):
    out_path = tmp_path / "league.json"
    code = main(
        ["compare", str(compare_store), "--format", "json", "--out",
         str(out_path)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert out_path.read_text() == printed
    doc = json.loads(printed)
    assert doc["baseline"] == "bittorrent"  # alphabetically first
    assert doc["systems"] == ["bittorrent", "bullet_prime"]
    (cond,) = doc["conditions"]
    (row,) = cond["rows"]
    assert row["n_pairs"] == 2
    assert row["metrics"]["median"]["n"] == 2


def test_cli_compare_bad_paths_fail_cleanly(tmp_path, capsys):
    code = main(["compare", "/no/such/store.jsonl"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["compare", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_bad_param_fails_cleanly(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "scenarios": [{"name": "churn", "params": {"wobble": 1}}],
    }))
    code = main(["sweep", "--spec", str(spec_path)])
    assert code == 2
    assert "wobble" in capsys.readouterr().err


# -- one axis table under both verbs ------------------------------------------


def _option_strings(parser):
    return {s for action in parser._actions for s in action.option_strings}


def test_cli_option_strings_are_frozen():
    # The axis options are generated from harness.sweep.AXES; this is the
    # surface they must keep generating (written out, not derived).
    from repro.__main__ import _run_parser, _sweep_parser

    assert _option_strings(_run_parser()) == {
        "-h", "--help", "--system", "--scenario", "--flow-model", "--topology",
        "--nodes", "--blocks", "--seed", "--max-time", "--trace",
        "--watchdog-window", "--no-invariants", "--json", "--profile",
    }
    assert _option_strings(_sweep_parser()) == {
        "-h", "--help", "--spec", "--golden-matrix", "--systems", "--scenarios",
        "--flow-models", "--flow-model", "--topologies", "--nodes", "--blocks",
        "--seeds", "--max-time", "--workers", "--out", "--json", "--quiet",
        "--check-golden",
    }


def test_cli_run_defaults_are_frozen():
    from repro.__main__ import _run_parser

    args = _run_parser().parse_args([])
    assert (args.system, args.scenario, args.flow_model, args.topology) == (
        "bullet_prime", "none", "reno", "mesh"
    )
    assert (args.nodes, args.blocks, args.seed, args.max_time) == (40, 320, 0, 6000.0)


def test_cli_run_and_one_cell_sweep_agree(tmp_path, capsys):
    # Both verbs execute a cell through the same function, so the same
    # axes give the same summary — perf counters included, although
    # only `run` wraps the nodes with the invariant checker.
    axes = ["--nodes", "8", "--blocks", "24", "--max-time", "900"]
    assert main(["run", "--system", "bullet_prime", "--scenario", "chaos",
                 "--seed", "1", "--json"] + axes) == 0
    run_doc = json.loads(capsys.readouterr().out)
    store = tmp_path / "cell.jsonl"
    assert main(["sweep", "--systems", "bullet_prime", "--scenarios", "chaos",
                 "--seeds", "1", "--quiet", "--out", str(store)] + axes) == 0
    (line,) = store.read_text().splitlines()
    record = json.loads(line)
    assert run_doc["summary"] == record["summary"]
    assert run_doc["summary"]["perf"]["fd_suspects"] > 0  # the faults did fire
    for field in ("system", "scenario", "flow_model", "topology", "nodes",
                  "blocks", "seed"):
        assert run_doc[field] == record["cell"][field]


def _write_spec(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return ["sweep", "--spec", str(path)]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--nodes", "0"],
        ["run", "--blocks", "0"],
        ["run", "--nodes", "six"],
        ["run", "--seed", "0:2"],
        ["run", "--topology", "torus"],
        ["run", "--nodes", "6", "--blocks", "8", "--watchdog-window", "0"],
        ["run", "--nodes", "8.7"],
        ["run", "--blocks", "2.5"],
        ["run", "--max-time", "-1"],
        ["run", "--max-time", "nan"],
        ["sweep", "--nodes", "8,0"],
        ["sweep", "--blocks", "0"],
        ["sweep", "--max-time", "soon"],
        ["sweep", "--nodes", "8.7"],
        ["sweep", "--blocks", "2.5"],
        ["sweep", "--max-time", "-1"],
        ["sweep", "--max-time", "nan"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_out_of_range_input_fails_at_spec_time(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert "[1/" not in captured.err  # no cell ran before the refusal


def test_cli_watchdog_window_reports_the_watchdogs_own_message(capsys):
    assert main(["run", "--nodes", "6", "--blocks", "8",
                 "--watchdog-window", "0"]) == 2
    assert "error: watchdog window must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        "mesh",
        {"nodes": None},
        {"nodes": [8, None]},
        {"systems": [None]},
        {"scenarios": None},
        {"scenarios": [7]},
        {"scenarios": [{"name": "churn", "params": None}]},
        {"topologies": [["mesh"]]},
        {"max_time": None},
        {"tree_fanout": 0},
        # Lossy or non-numeric values are refused, not truncated.
        {"nodes": [8.7]},
        {"blocks": [2.5]},
        {"seeds": [True]},
        {"tree_fanout": 2.5},
        {"max_time": -1},
        {"max_time": "nan"},
    ],
    ids=json.dumps,
)
def test_cli_malformed_spec_file_fails_cleanly(doc, tmp_path, capsys):
    assert main(_write_spec(tmp_path, doc)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_run_rejects_a_pipe_in_the_trace_path(capsys):
    # `run --trace` is the cell's scenario_params["path"], so the cell-key
    # separator rule that always applied to sweeps applies here too.
    assert main(["run", "--scenario", "trace", "--trace", "a|b.json"]) == 2
    assert "field separator" in capsys.readouterr().err



# -- knob domains are refused at spec time, under both verbs -------------------


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "scenario, params, named",
    [
        ("churn", {"period": 0}, ["'period'", "(0, inf)", "0.0"]),
        ("churn", {"period": [None]}, ["'period'", "(0, inf)", "None"]),
        ("correlated_decreases", {"victim_fraction": 2.0},
         ["'victim_fraction'", "[0, 1]", "2.0"]),
        ("chaos", {"down_time": -5}, ["'down_time'", "[0, inf)", "-5.0"]),
        ("crash", {"count": -3}, ["'count'", "[0, inf)", "-3"]),
        ("flash_crowd", {"start": -5}, ["'start'", "[0, inf)", "-5.0"]),
        ("partition", {"squeeze": 2}, ["'squeeze'", "(0, 1)", "2.0"]),
        ("cascading_cuts", {"throttled_bw": 0},
         ["'throttled_bw'", "(0, inf)", "0.0"]),
        ("flaky", {"direction": "sideways"},
         ["'direction'", "['up', 'down', 'both', 'random']", "'sideways'"]),
        ("oscillate", {"low": 0.9, "high": 0.5}, ["low=0.9", "high=0.5"]),
        ("lossy", {"base": "bogus"},
         ["unknown scenario 'bogus'; available: ['adversarial',"]),
        ("trace_replay", {"path": "/nonexistent.csv"}, ["/nonexistent.csv"]),
    ],
    ids=lambda value: json.dumps(value) if isinstance(value, dict) else None,
)
def test_cli_bad_knob_fails_at_spec_time(
    scenario, params, named, workers, tmp_path, capsys
):
    argv = _write_spec(tmp_path, {
        "systems": ["bullet_prime"],
        "scenarios": ["none", {"name": scenario, "params": params}],
        "nodes": [8], "blocks": [16], "seeds": [0],
    })
    assert main(argv + ["--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    for text in named:
        assert text in captured.err
    assert "Traceback" not in captured.err
    assert "[1/" not in captured.err  # the valid `none` cell never ran
    assert captured.out == ""
    # Constructing the scenario directly is refused the same way (the
    # value prints as passed, not as coerced: 0 rather than 0.0).
    knobs = {k: v[0] if isinstance(v, list) else v for k, v in params.items()}
    with pytest.raises((ValueError, KeyError, OSError)) as info:
        SCENARIOS.build(scenario, **knobs)
    for text in named[:2]:
        assert text in str(info.value)


def test_cli_run_unreadable_trace_fails_before_the_run(capsys):
    code = main(["run", "--scenario", "trace_replay", "--trace",
                 "/nonexistent.csv", "--nodes", "8", "--blocks", "16"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "/nonexistent.csv" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
