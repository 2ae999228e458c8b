"""Tests for the paired-comparison analytics.

The hand-computed fixture pins one league table byte for byte; the
hypothesis test pins the order-invariance property (shuffled record
order cannot move a single output byte); the chaos-group test exercises
the unfinished-cell policy against the real golden watchdog cell
(``bittorrent|chaos|mesh|n8|b24|s1``).
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import stats
from repro.harness import compare
from repro.harness.sweep import (
    StoreView,
    SweepCell,
    SweepSpec,
    record_cell,
    run_sweep,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_matrix.jsonl"


def _record(system, seed, median, p90, worst, finished=True, scenario="none"):
    """A synthetic store record shaped exactly like run_cell's output."""
    cell = SweepCell(system, scenario, {}, "mesh", 8, 24, seed, 900.0)
    return {
        "key": cell.key(),
        "group": cell.group_key(),
        "seed": seed,
        "cell": cell.to_dict(),
        "summary": {
            "nodes": 8,
            "median": median,
            "p90": p90,
            "worst": worst,
            "finished": finished,
            "duplicates": 0,
            "control_bytes": 0,
            "perf": {},
        },
    }


def _fixture_records():
    """Three systems x four shared seeds under one condition.

    Hand-checkable paired deltas vs bullet_prime ([10, 12, 11, 13]):

    - bittorrent medians [9, 13, 10, 12] -> deltas [-1, +1, -1, -1]:
      mean -0.5, nearest-rank median -1, sample stddev 1.0,
      CI -0.5 -+ 3.182 * 1.0 / 2, win rate 3/4.
    - splitstream medians [8, 9, 10, 11] -> deltas [-2, -3, -1, -2]:
      mean -2.0, wins every seed.
    """
    records = []
    for seed, median in zip((0, 1, 2, 3), (10.0, 12.0, 11.0, 13.0)):
        records.append(_record("bullet_prime", seed, median, median + 2, median + 4))
    for seed, median in zip((0, 1, 2, 3), (9.0, 13.0, 10.0, 12.0)):
        records.append(_record("bittorrent", seed, median, median + 3, median + 6))
    for seed, median in zip((0, 1, 2, 3), (8.0, 9.0, 10.0, 11.0)):
        records.append(_record("splitstream", seed, median, median + 1, median + 2))
    return records


EXPECTED_LEAGUE_TABLE = """\
# Paired comparison vs `bullet_prime`

95% paired Student-t confidence intervals over per-seed deltas (competitor − baseline; negative = competitor faster).  Pairs where either run did not finish are excluded (unfinished-cell policy); `pairs` shows finished/common seed counts.

## none|mesh|n8|b24

baseline finished 4/4 seeds

| system | pairs | Δmedian | 95% CI | Δ% | win | Δp90 | Δworst |
| --- | --- | --- | --- | --- | --- | --- | --- |
| `splitstream` | 4/4 | -2.00 | [-3.30, -0.70] | -17.4% | 100% | -3.00 | -4.00 |
| `bittorrent` | 4/4 | -0.50 | [-2.09, +1.09] | -4.3% | 75% | +0.50 | +1.50 |"""


class TestPairedComparison:
    def test_league_table_markdown_byte_for_byte(self):
        doc = compare.compare_store(
            StoreView(_fixture_records()), baseline="bullet_prime"
        )
        assert compare.render_markdown(doc) == EXPECTED_LEAGUE_TABLE

    def test_paired_statistics_hand_computed(self):
        doc = compare.compare_store(
            StoreView(_fixture_records()), baseline="bullet_prime"
        )
        (cond,) = doc["conditions"]
        # Rows ranked best-first: splitstream (mean -2.0) ahead of
        # bittorrent (mean -0.5).
        assert [r["system"] for r in cond["rows"]] == [
            "splitstream",
            "bittorrent",
        ]
        bt = cond["rows"][1]["metrics"]["median"]
        assert bt["mean_delta"] == -0.5
        assert bt["median_delta"] == -1.0  # nearest-rank over 4 deltas
        assert bt["worst_delta"] == 1.0
        assert (bt["wins"], bt["ties"], bt["losses"]) == (3, 0, 1)
        assert bt["win_rate"] == 0.75
        # Sample stddev of [-1, 1, -1, -1] is 1.0; t(3) = 3.182.
        assert bt["ci_low"] == pytest.approx(-0.5 - 3.182 / 2)
        assert bt["ci_high"] == pytest.approx(-0.5 + 3.182 / 2)
        assert bt["pct_of_baseline"] == pytest.approx(-0.5 / 11.5)
        # The paired CI is exactly the stats helper over the deltas.
        assert (bt["ci_low"], bt["ci_high"]) == stats.paired_confidence_interval(
            [9.0, 13.0, 10.0, 12.0], [10.0, 12.0, 11.0, 13.0]
        )

    def test_default_baseline_is_alphabetical(self):
        doc = compare.compare_store(StoreView(_fixture_records()))
        assert doc["baseline"] == "bittorrent"
        assert doc["systems"] == ["bittorrent", "bullet_prime", "splitstream"]

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="no cells in the store"):
            compare.compare_store(StoreView(_fixture_records()), baseline="napster")

    def test_duplicate_cells_rejected(self):
        records = _fixture_records()
        with pytest.raises(ValueError, match="duplicate cell"):
            compare.compare_store(StoreView(records + records[:1]))

    def test_knob_variants_of_one_system_are_league_rows(self):
        def variant(seed, median, system_params=None, topology_params=None):
            record = _record("bullet_prime", seed, median, median + 2, median + 4)
            cell = record_cell(record)._replace(
                system_params=system_params or {},
                topology_params=topology_params or {},
            )
            return dict(
                record, key=cell.key(), group=cell.group_key(), cell=cell.to_dict()
            )

        records = []
        for seed, base in ((0, 10.0), (1, 12.0)):
            records.append(variant(seed, base))
            records.append(variant(seed, base + 3, {"request_strategy": "first"}))
            records.append(variant(seed, base - 1, {"request_strategy": "rarest"}))
            records.append(variant(seed, base * 2, topology_params={"max_loss": 0.0}))
        doc = compare.compare_store(StoreView(records), baseline="bullet_prime")
        # The lossless-mesh cells are another condition; with only the
        # baseline system present there, they pair with nothing.
        (cond,) = doc["conditions"]
        assert cond["condition"] == "none|mesh|n8|b24"
        assert [(r["system"], r["metrics"]["median"]["mean_delta"]) for r in cond["rows"]] == [
            ('bullet_prime[request_strategy="rarest"]', -1.0),
            ('bullet_prime[request_strategy="first"]', 3.0),
        ]
        assert '| `bullet_prime[request_strategy="first"]` | 2/2 |' in (
            compare.render_markdown(doc)
        )

    def test_unfinished_pairs_excluded(self):
        records = _fixture_records()
        # Fail bittorrent's seed 1 run (its +1 delta, bullet_prime's
        # only win): the pair must leave every statistic.
        records[5]["summary"]["finished"] = False
        doc = compare.compare_store(StoreView(records), baseline="bullet_prime")
        (cond,) = doc["conditions"]
        bt_row = [r for r in cond["rows"] if r["system"] == "bittorrent"][0]
        assert (bt_row["pairs"], bt_row["n_pairs"]) == (4, 3)
        assert bt_row["seeds"] == [0, 2, 3]
        bt = bt_row["metrics"]["median"]
        assert bt["n"] == 3
        assert bt["mean_delta"] == -1.0
        assert bt["win_rate"] == 1.0

    def test_no_finished_pairs_renders_na(self):
        records = _fixture_records()
        for record in records:
            if record["cell"]["system"] == "bittorrent":
                record["summary"]["finished"] = False
        doc = compare.compare_store(StoreView(records), baseline="bullet_prime")
        (cond,) = doc["conditions"]
        bt_row = [r for r in cond["rows"] if r["system"] == "bittorrent"][0]
        assert bt_row["n_pairs"] == 0
        assert bt_row["metrics"]["median"] is None
        text = compare.render_markdown(doc)
        assert "| `bittorrent` | 0/4 | n/a | n/a | n/a | n/a | n/a | n/a |" in text
        # Rows with no data rank last.
        assert [r["system"] for r in cond["rows"]] == [
            "splitstream",
            "bittorrent",
        ]

    def test_json_rendering_is_deterministic(self):
        view = StoreView(_fixture_records())
        a = compare.render_json(compare.compare_store(view))
        b = compare.render_json(compare.compare_store(view))
        assert a == b
        assert json.loads(a)["baseline"] == "bittorrent"


class TestOrderAndWorkerInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.permutations(_fixture_records()))
    def test_report_bit_identical_for_shuffled_records(self, shuffled):
        reference = compare.compare_store(
            StoreView(_fixture_records()), baseline="bullet_prime"
        )
        shuffled_doc = compare.compare_store(
            StoreView(shuffled), baseline="bullet_prime"
        )
        assert shuffled_doc == reference
        assert compare.render_markdown(shuffled_doc) == EXPECTED_LEAGUE_TABLE
        assert compare.render_json(shuffled_doc) == compare.render_json(reference)

    def test_report_bit_identical_for_any_worker_count(self):
        spec = SweepSpec(
            systems=("bullet_prime", "bittorrent"),
            scenarios=("none",),
            nodes=(6,),
            blocks=(12,),
            seeds=(1, 2),
            max_time=600.0,
        )
        serial = compare.compare_store(run_sweep(spec, workers=1))
        parallel = compare.compare_store(run_sweep(spec, workers=2))
        assert serial == parallel
        assert compare.render_markdown(serial) == compare.render_markdown(parallel)


class TestWatchdogCells:
    """The unfinished-cell policy against the real golden watchdog cell."""

    @pytest.fixture(scope="class")
    def chaos_store(self):
        # bittorrent|chaos|1 is the recorded watchdog firing (finished
        # False); seed 3 finishes.  bullet_prime finishes both.
        spec = SweepSpec(
            systems=("bullet_prime", "bittorrent"),
            scenarios=("chaos",),
            nodes=(8,),
            blocks=(24,),
            seeds=(1, 3),
            max_time=900.0,
        )
        return run_sweep(spec, workers=1)

    def test_matches_recorded_golden_cells(self, chaos_store):
        golden = StoreView.from_jsonl(GOLDEN_PATH).by_key()
        by_key = chaos_store.by_key()
        watchdog = by_key["bittorrent|chaos|mesh|n8|b24|s1"]
        assert watchdog["finished"] is False
        assert watchdog["perf"]["watchdog_fired"] == 1
        for key, summary in by_key.items():
            assert summary == golden[key]

    def test_aggregates_exclude_the_watchdog_cell(self, chaos_store):
        golden = StoreView.from_jsonl(GOLDEN_PATH).by_key()
        rows = {row["group"]: row for row in chaos_store.aggregates()}
        bt = rows["bittorrent|chaos|mesh|n8|b24"]
        assert (bt["n_seeds"], bt["n_finished"]) == (2, 1)
        assert bt["finished"] == 0.5
        # Only the finished seed-3 cell enters the statistics; the
        # censored watchdog metrics never leak into a mean.
        assert bt["median"]["n"] == 1
        assert (
            bt["median"]["mean"] == golden["bittorrent|chaos|mesh|n8|b24|s3"]["median"]
        )
        bp = rows["bullet_prime|chaos|mesh|n8|b24"]
        assert (bp["n_seeds"], bp["n_finished"]) == (2, 2)

    def test_compare_pairs_only_the_finished_seed(self, chaos_store):
        doc = compare.compare_store(chaos_store, baseline="bullet_prime")
        (cond,) = doc["conditions"]
        (row,) = cond["rows"]
        assert row["system"] == "bittorrent"
        assert (row["pairs"], row["n_pairs"]) == (2, 1)
        assert row["seeds"] == [3]
        # Render must survive censored pairs without crashing.
        assert "chaos|mesh|n8|b24" in compare.render_markdown(doc)

    def test_all_pairs_censored_yields_na_not_crash(self):
        records = [
            _record("a", 0, None, None, None, finished=False),
            _record("a", 1, 5.0, 6.0, 7.0, finished=True),
            _record("b", 0, 4.0, 5.0, 6.0, finished=True),
            _record("b", 1, None, None, None, finished=False),
        ]
        doc = compare.compare_store(StoreView(records), baseline="a")
        (cond,) = doc["conditions"]
        (row,) = cond["rows"]
        # Disjoint finished seeds -> zero usable pairs, n/a everywhere.
        assert (row["pairs"], row["n_pairs"]) == (2, 0)
        assert row["metrics"]["median"] is None
        assert "n/a" in compare.render_markdown(doc)


class TestStoreLoading:
    def test_compare_paths_concatenates_stores(self, tmp_path):
        records = _fixture_records()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records[:4])
        )
        b.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records[4:])
        )
        doc = compare.compare_paths([str(a), str(b)], baseline="bullet_prime")
        assert compare.render_markdown(doc) == EXPECTED_LEAGUE_TABLE

    def test_from_jsonl_rejects_non_store_files(self, tmp_path):
        path = tmp_path / "nope.jsonl"
        path.write_text('{"not": "a store"}\n')
        with pytest.raises(ValueError, match="not a sweep results store"):
            StoreView.from_jsonl(path)
        path.write_text("")
        with pytest.raises(ValueError, match="empty results store"):
            StoreView.from_jsonl(path)
        path.write_text("this is not json\n")
        with pytest.raises(ValueError, match="not a JSONL sweep store"):
            StoreView.from_jsonl(path)

    def test_compare_store_rejects_bare_paths(self):
        with pytest.raises(TypeError, match="StoreView"):
            compare.compare_store("results.jsonl")
