"""Unit tests for the sweep engine: spec expansion, validation,
parameter grids, execution, and the JSONL/aggregate outputs."""

import json

import pytest

from repro.common import stats
from repro.__main__ import main
from repro.harness.sweep import (
    AXES,
    StoreView,
    SweepCell,
    SweepResult,
    SweepSpec,
    golden_matrix_spec,
    record_cell,
    run_cell,
    run_sweep,
)

TINY = dict(nodes=(6,), blocks=(12,), seeds=(1,), max_time=600.0)

#: Per axis: a CLI/spec token and the canonical value it must become on
#: the spec, the cell, and every record.
AXIS_SAMPLES = {
    "system": ("bt", "bittorrent"),
    "scenario": ("cellular", "oscillate"),
    "flow_model": ("wanctl", "autorate"),
    "topology": ("star", "star"),
    "nodes": ("7", 7),
    "blocks": ("13", 13),
    "seed": ("3", 3),
    "max_time": ("700", 700.0),
    "tree_fanout": ("3", 3),
}


class TestAxisTable:
    def test_every_row_has_a_sample_and_a_cell_field(self):
        assert [axis.field for axis in AXES] == list(AXIS_SAMPLES)
        assert {axis.field for axis in AXES} <= set(SweepCell._fields)

    @pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.field)
    def test_token_round_trips_to_the_record(self, axis, tmp_path, capsys):
        token, canonical = AXIS_SAMPLES[axis.field]
        rows = {a.field: a for a in AXES}
        tokens = {"nodes": "6", "blocks": "12", "seed": "1", "max_time": "600"}
        tokens[axis.field] = token

        # token -> SweepSpec field -> SweepCell field
        spec = SweepSpec(**{rows[field].grid: tokens[field] for field in tokens})
        on_spec = getattr(spec, axis.grid)
        if f"{axis.field}_params" in SweepCell._fields:
            assert on_spec == [(canonical, {})]
        else:
            assert on_spec == (canonical if axis.scalar else [canonical])
        (cell,) = spec.expand()
        assert getattr(cell, axis.field) == canonical

        # -> record -> record_cell, through JSON like a store line
        record = json.loads(json.dumps(run_cell(cell), sort_keys=True))
        assert record["cell"][axis.field] == canonical
        assert record_cell(record) == cell
        again = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert [c.key() for c in again.expand()] == [cell.key()]

        # the same token through each verb that has an option for the row
        def argv(column):
            return [
                part
                for field, text in tokens.items()
                if getattr(rows[field], column)
                for part in (getattr(rows[field], column)[0], text)
            ]

        if axis.sweep_flags:
            store = tmp_path / "store.jsonl"
            flags = argv("sweep_flags") + ["--quiet", "--out", str(store)]
            assert main(["sweep"] + flags) == 0
            assert json.loads(store.read_text()) == record
            capsys.readouterr()
        if axis.run_flags:
            assert main(["run", "--json"] + argv("run_flags")) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["summary"] == record["summary"]
            if not axis.scalar:
                assert doc[axis.field] == canonical


class TestSpecExpansion:
    def test_grid_is_the_cartesian_product(self):
        spec = SweepSpec(
            systems=("bullet_prime", "bittorrent"),
            scenarios=("none", "churn"),
            topologies=("mesh", "star"),
            nodes=(6, 8),
            blocks=(12,),
            seeds=(0, 1, 2),
        )
        cells = spec.expand()
        assert len(cells) == 2 * 2 * 2 * 2 * 1 * 3
        assert len({c.key() for c in cells}) == len(cells)

    def test_expansion_order_is_deterministic(self):
        spec = SweepSpec(systems=("bullet_prime",), scenarios=("none", "churn"),
                         seeds=(2, 1))
        keys = [c.key() for c in spec.expand()]
        assert keys == [c.key() for c in spec.expand()]
        # Declaration order is preserved (seeds are not sorted).
        assert keys[0].endswith("|s2")

    def test_aliases_canonicalized(self):
        spec = SweepSpec(systems=("bp",), scenarios=("cellular",), **TINY)
        cell = spec.expand()[0]
        assert cell.system == "bullet_prime"
        assert cell.scenario == "oscillate"

    def test_scenario_param_grid_expands(self):
        spec = SweepSpec(
            scenarios=(
                {"name": "oscillate",
                 "params": {"period": [1.0, 2.0, 4.0], "wave": "square"}},
            ),
            **TINY,
        )
        cells = spec.expand()
        assert len(cells) == 3
        assert [c.scenario_params["period"] for c in cells] == [1.0, 2.0, 4.0]
        assert all(c.scenario_params["wave"] == "square" for c in cells)
        assert 'period=1.0' in cells[0].key()

    def test_params_coerced_against_schema(self):
        spec = SweepSpec(
            scenarios=({"name": "churn", "params": {"period": "5"}},), **TINY
        )
        assert spec.expand()[0].scenario_params["period"] == 5.0

    def test_undeclared_knob_rejected(self):
        with pytest.raises(KeyError, match="no param 'wobble'"):
            SweepSpec(scenarios=({"name": "churn", "params": {"wobble": 1}},))

    def test_ill_typed_knob_rejected(self):
        with pytest.raises(ValueError, match="expects float"):
            SweepSpec(scenarios=({"name": "churn", "params": {"period": "fast"}},))

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError, match="unknown system"):
            SweepSpec(systems=("napster",))
        with pytest.raises(KeyError, match="unknown scenario"):
            SweepSpec(scenarios=("meteor_strike",))
        with pytest.raises(KeyError, match="unknown topology"):
            SweepSpec(topologies=("torus",))

    def test_duplicate_cells_rejected(self):
        # 'none' and 'static' resolve to the same canonical scenario.
        spec = SweepSpec(scenarios=("none", "static"))
        with pytest.raises(ValueError, match="duplicate cell"):
            spec.expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            SweepSpec(seeds=())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", [8.7]),
            ("nodes", [0]),
            ("blocks", [2.5]),
            ("blocks", [True]),
            ("seeds", [True]),
            ("seeds", [1.5]),
            ("tree_fanout", 2.5),
            ("max_time", -1),
            ("max_time", float("nan")),
            ("max_time", "nan"),
        ],
        ids=repr,
    )
    def test_numeric_axis_refuses_lossy_or_out_of_range_values(self, field, value):
        # Refused when the spec is built, not truncated into another cell.
        with pytest.raises(ValueError, match=f"param '{field}'"):
            SweepSpec(**{field: value})

    @pytest.mark.parametrize(
        "field, value, canonical",
        [
            ("nodes", [8.0], 8),
            ("nodes", ["8"], 8),
            ("blocks", [24.0], 24),
            ("seeds", [3.0], 3),
            ("seeds", [-1], -1),
            ("max_time", 600, 600.0),
            ("max_time", 0, 0.0),
            ("tree_fanout", 3.0, 3),
        ],
        ids=repr,
    )
    def test_numeric_axis_keeps_lossless_values(self, field, value, canonical):
        (cell,) = SweepSpec(**{**TINY, field: value}).expand()
        attr = "seed" if field == "seeds" else field
        assert getattr(cell, attr) == canonical
        assert type(getattr(cell, attr)) is type(canonical)
        assert cell == SweepSpec(**{**TINY, field: canonical}).expand()[0]

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fields"):
            SweepSpec.from_dict({"systems": ["bullet_prime"], "speed": 11})

    def test_spec_roundtrips_through_dict_and_file(self, tmp_path):
        spec = SweepSpec(
            systems=("bullet_prime",),
            scenarios=("none", {"name": "oscillate", "params": {"period": [1.0, 2.0]}}),
            seeds=(1, 2),
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        again = SweepSpec.from_file(path)
        assert [c.key() for c in again.expand()] == [c.key() for c in spec.expand()]

    def test_system_entries_with_params_are_distinct_cells(self):
        spec = SweepSpec(
            systems=(
                "bp",
                {"name": "bp", "params": {"fixed_outstanding": [9, 15]}},
                {"name": "bullet_prime", "params": {"request_strategy": "random"}},
            ),
            topologies=({"name": "mesh", "params": {"max_loss": "0.015"}},),
            **TINY,
        )
        cells = spec.expand()
        assert [c.system_key() for c in cells] == [
            "bullet_prime",
            "bullet_prime[fixed_outstanding=9]",
            "bullet_prime[fixed_outstanding=15]",
            'bullet_prime[request_strategy="random"]',
        ]
        assert {c.system for c in cells} == {"bullet_prime"}
        assert all(c.topology_params == {"max_loss": 0.015} for c in cells)
        assert cells[1].key() == (
            "bullet_prime[fixed_outstanding=9]|none|mesh[max_loss=0.015]|n6|b12|s1"
        )
        assert len({c.key() for c in cells}) == 4
        doc = json.loads(json.dumps(spec.to_dict()))
        assert doc["systems"][0] == "bullet_prime"
        assert doc["systems"][1] == {
            "name": "bullet_prime", "params": {"fixed_outstanding": [9, 15]}
        }
        assert SweepSpec.from_dict(doc).expand() == cells
        # The same entry twice is still a duplicate.
        with pytest.raises(ValueError, match="duplicate cell"):
            SweepSpec(systems=("bp", {"name": "bullet_prime"})).expand()

    def test_bad_system_and_topology_knobs_are_refused_at_spec_time(self):
        for fields, error, match in (
            ({"systems": [{"name": "bp", "params": {"request_strategy": "bogus"}}]},
             ValueError, "must be one of"),
            ({"systems": [{"name": "bp", "params": {"min_peers": 0}}]},
             ValueError, r"\[1, inf\)"),
            ({"systems": [{"name": "bittorrent", "params": {"unchoke_slots": 4}}]},
             KeyError, "no param 'unchoke_slots'"),
            ({"topologies": [{"name": "mesh", "params": {"max_loss": 1.5}}]},
             ValueError, r"\[0, 1\)"),
            ({"topologies": [{"name": "planetlab", "params": {"max_loss": 0.1}}]},
             KeyError, "no param 'max_loss'"),
            ({"systems": [{"name": "bp", "knobs": {}}]}, ValueError, "a system entry"),
            ({"topologies": ['{"name": "mesh"']}, ValueError, "delimiter"),
        ):
            with pytest.raises(error, match=match):
                SweepSpec(**fields)

    def test_golden_matrix_spec_shape(self):
        cells = golden_matrix_spec().expand()
        assert len(cells) == 288
        assert all(c.topology == "mesh" and c.nodes == 8 for c in cells)
        assert {c.seed for c in cells} == {1, 3, 5, 7}


class TestCells:
    def test_cell_key_is_stable_and_param_sorted(self):
        cell = SweepCell(
            "bullet_prime", "oscillate", {"wave": "square", "period": 4.0},
            "mesh", 8, 24, 3, 900.0,
        )
        assert cell.key() == (
            'bullet_prime|oscillate[period=4.0,wave="square"]|mesh|n8|b24|s3'
        )
        assert cell.group_key() == cell.key().rsplit("|", 1)[0]

    def test_cell_roundtrips_through_dict(self):
        cell = SweepCell(
            "bittorrent", "churn", {"period": 5.0}, "star", 6, 12, 2, 600.0
        )
        assert SweepCell.from_dict(cell.to_dict()).key() == cell.key()

    def test_run_cell_accepts_dict_payloads(self):
        spec = SweepSpec(systems=("bullet_prime",), scenarios=("none",), **TINY)
        cell = spec.expand()[0]
        assert run_cell(cell.to_dict()) == run_cell(cell)

    def test_condition_key_drops_system_and_seed(self):
        cell = SweepCell(
            "bullet_prime", "oscillate", {"period": 4.0}, "mesh", 8, 24, 3,
            900.0,
        )
        assert cell.condition_key() == "oscillate[period=4.0]|mesh|n8|b24"
        assert cell.key() == (
            f"{cell.system}|{cell.condition_key()}|s{cell.seed}"
        )

    def test_pipe_in_param_value_rejected(self):
        # '|' is the key field separator; a value carrying it would make
        # every rendered key ambiguous to parse.
        with pytest.raises(ValueError, match="field separator"):
            SweepCell(
                "bullet_prime", "trace_replay", {"path": "a|b.json"},
                "mesh", 8, 24, 1, 900.0,
            )

    def test_pipe_in_param_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="field separator"):
            SweepSpec(
                scenarios=(
                    {"name": "lossy", "params": {"base": "none|churn"}},
                ),
                **TINY,
            ).expand()

    def test_default_cells_render_as_they_did_before_system_params(self):
        # Pinned literally: what every store recorded before cells
        # carried system / topology params must keep loading and keep
        # comparing byte for byte.
        (cell,) = SweepSpec(systems="bp", scenarios="cellular", **TINY).expand()
        assert cell.key() == "bullet_prime|oscillate|mesh|n6|b12|s1"
        assert cell.to_dict() == {
            "system": "bullet_prime", "scenario": "oscillate",
            "scenario_params": {}, "topology": "mesh", "nodes": 6,
            "blocks": 12, "seed": 1, "max_time": 600.0, "tree_fanout": 4,
            "flow_model": "reno",
        }
        assert list(cell.to_dict()) == list(SweepCell._fields[:10])

    def test_old_store_records_load_without_the_param_fields(self):
        old = {
            "system": "bullet_prime", "scenario": "churn",
            "scenario_params": {"period": 5.0}, "topology": "mesh", "nodes": 8,
            "blocks": 24, "seed": 3, "max_time": 900.0, "tree_fanout": 4,
        }  # no flow_model, system_params or topology_params
        cell = record_cell({"key": "?", "cell": old, "summary": {}})
        assert cell.key() == "bullet_prime|churn[period=5.0]|mesh|n8|b24|s3"
        assert (cell.system_params, cell.topology_params) == ({}, {})
        assert cell.to_dict() == dict(old, flow_model="reno")

    def test_params_round_trip_and_sort_like_scenario_params(self):
        cell = SweepCell(
            "bullet_prime", "none", {}, "mesh", 8, 24, 3, 900.0,
            system_params={"initial_senders": 6, "adaptive_peering": False},
            topology_params={"max_loss": 0},
        )
        assert cell.key() == (
            "bullet_prime[adaptive_peering=false,initial_senders=6]"
            "|none|mesh[max_loss=0]|n8|b24|s3"
        )
        assert cell.condition_key() == "none|mesh[max_loss=0]|n8|b24"
        again = SweepCell.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert again == cell and again.key() == cell.key()

    @pytest.mark.parametrize("kind", ["system", "scenario", "topology"])
    def test_pipe_refusal_names_the_kind_of_param(self, kind):
        with pytest.raises(ValueError, match=f"{kind} param x='a.b'.*field separator"):
            SweepCell(
                system="bullet_prime", scenario="none", topology="mesh", nodes=8,
                blocks=24, seed=1, max_time=900.0,
                **{"scenario_params": {}, f"{kind}_params": {"x": "a|b"}},
            )

    def test_record_cell_roundtrips(self):
        cell = SweepCell(
            "bittorrent", "churn", {"period": 5.0}, "star", 6, 12, 2, 600.0
        )
        record = {"key": cell.key(), "cell": cell.to_dict(), "summary": {}}
        assert record_cell(record).key() == cell.key()


class TestExecutionAndOutputs:
    @pytest.fixture(scope="class")
    def result(self):
        spec = SweepSpec(
            systems=("bullet_prime",),
            scenarios=("none", {"name": "oscillate", "params": {"period": [1.0]}}),
            nodes=(6,),
            blocks=(12,),
            seeds=(1, 2),
            max_time=600.0,
        )
        return run_sweep(spec, workers=2)

    def test_records_in_canonical_order(self, result):
        keys = [r["key"] for r in result.records]
        assert keys == [c.key() for c in result.spec.expand()]

    def test_jsonl_is_deterministic_and_parseable(self, result):
        lines = result.to_jsonl().splitlines()
        assert len(lines) == 4
        docs = [json.loads(line) for line in lines]
        assert [d["key"] for d in docs] == [r["key"] for r in result.records]
        # No wall-clock anywhere: the store must be byte-reproducible.
        assert "wall" not in result.to_jsonl()

    def test_write_jsonl(self, result, tmp_path):
        path = tmp_path / "results.jsonl"
        result.write_jsonl(path)
        assert path.read_text() == result.to_jsonl()

    def test_by_key(self, result):
        by_key = result.by_key()
        assert len(by_key) == 4
        assert all("median" in summary for summary in by_key.values())

    def test_aggregates_group_across_seeds(self, result):
        rows = result.aggregates()
        assert [row["n_seeds"] for row in rows] == [2, 2]
        for row in rows:
            group = row["group"]
            members = [
                r["summary"]["median"]
                for r in result.records
                if r["key"].rsplit("|", 1)[0] == group
            ]
            assert row["median"] == stats.aggregate(members)
            assert 0.0 <= row["finished"] <= 1.0

    def test_render_aggregates_mentions_groups(self, result):
        text = result.render_aggregates()
        assert "bullet_prime|none|mesh|n6|b12" in text
        assert "ci95" in text

    def test_progress_callback_sees_every_cell(self):
        spec = SweepSpec(systems=("bullet_prime",), scenarios=("none",),
                         nodes=(6,), blocks=(12,), seeds=(1, 2), max_time=600.0)
        seen = []
        run_sweep(spec, workers=1, progress=lambda done, total, key: seen.append((done, total, key)))
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]

    def test_records_carry_structured_grouping_fields(self, result):
        # Consumers group and pair on these, never by parsing the key.
        for record in result.records:
            cell = record_cell(record)
            assert record["group"] == cell.group_key()
            assert record["seed"] == cell.seed
            assert record["key"] == f"{record['group']}|s{record['seed']}"


class TestStoreView:
    def _records(self, finished=(True, True)):
        records = []
        for seed, (done, median) in enumerate(zip(finished, (10.0, 14.0))):
            cell = SweepCell(
                "bullet_prime", "none", {}, "mesh", 6, 12, seed, 600.0
            )
            records.append(
                {
                    "key": cell.key(),
                    "group": cell.group_key(),
                    "seed": seed,
                    "cell": cell.to_dict(),
                    "summary": {
                        "nodes": 6,
                        "median": median,
                        "p90": median + 2,
                        "worst": median + 4,
                        "finished": done,
                        "duplicates": 0,
                        "control_bytes": 0,
                        "perf": {},
                    },
                }
            )
        return records

    def test_jsonl_roundtrip(self, tmp_path):
        records = self._records()
        path = tmp_path / "store.jsonl"
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        view = StoreView.from_jsonl(path)
        assert view.records == records
        assert len(view) == 2

    def test_aggregates_exclude_unfinished_cells(self):
        rows = StoreView(self._records(finished=(False, True))).aggregates()
        (row,) = rows
        assert (row["n_seeds"], row["n_finished"]) == (2, 1)
        assert row["finished"] == 0.5
        # Only the finished seed's value enters the statistics: the
        # censored 10.0 (a lower bound, not a measurement) stays out.
        assert row["median"] == stats.aggregate([14.0])

    def test_aggregates_all_unfinished_reports_none(self):
        rows = StoreView(self._records(finished=(False, False))).aggregates()
        (row,) = rows
        assert row["n_finished"] == 0
        assert row["median"] is None
        assert row["p90"] is None
        assert row["worst"] is None

    def test_render_aggregates_shows_na_for_censored_groups(self):
        spec = SweepSpec(systems=("bullet_prime",), scenarios=("none",),
                         nodes=(6,), blocks=(12,), seeds=(0, 1), max_time=600.0)
        result = SweepResult(spec, self._records(finished=(False, False)))
        text = result.render_aggregates()
        assert "n/a" in text
