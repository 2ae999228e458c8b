"""Tests for the scenario package: catalogue, composition, trace replay."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.common.units import MBPS
from repro.harness.registry import SCENARIOS
from repro.scenarios import (
    CascadingCuts,
    Churn,
    Compose,
    CorrelatedDecreases,
    FlashCrowd,
    GilbertElliott,
    Oscillate,
    ScenarioContext,
    Static,
    TraceReplay,
    compose,
    read_trace,
)
from repro.sim.engine import Simulator
from repro.sim.topology import mesh_topology


def _ctx(num_nodes=6, seed=1, source_id=0, **kwargs):
    sim = Simulator()
    topo = mesh_topology(num_nodes, seed=seed)
    return ScenarioContext(sim, topo, source_id=source_id, seed=seed, **kwargs)


def _capacities(topo):
    return {pair: link.capacity for pair, link in topo.core.items()}


class TestContext:
    def test_receivers_exclude_source(self):
        ctx = _ctx(5, source_id=2)
        assert ctx.receivers == [0, 1, 3, 4]

    def test_core_links_ordered(self):
        ctx = _ctx(4)
        pairs = [pair for pair, _ in ctx.core_links()]
        assert pairs == sorted(pairs)

    def test_rng_streams_are_independent_and_stable(self):
        ctx = _ctx(4, seed=7)
        assert ctx.rng("a").random() == ctx.rng("a").random()
        assert ctx.rng("a").random() != ctx.rng("b").random()
        # An explicit scenario seed overrides the context seed.
        assert ctx.rng("a", seed=9).random() != ctx.rng("a").random()


class TestStatic:
    def test_changes_nothing(self):
        ctx = _ctx()
        before = _capacities(ctx.topology)
        Static().install(ctx)
        ctx.sim.run(until=100.0)
        assert _capacities(ctx.topology) == before


@pytest.mark.parametrize("name", SCENARIOS.names())
def test_install_schedules_and_returns_nothing(name):
    ctx = _ctx()
    assert SCENARIOS.build(name).install(ctx) is None


class TestCascadingCutsDefaults:
    def test_defaults_resolve_from_context(self):
        ctx = _ctx(5, source_id=0)
        CascadingCuts(period=10.0).install(ctx)
        ctx.sim.run(until=100.0)
        # Target defaults to the highest receiver; senders to everyone
        # else minus the source: links 1->4, 2->4, 3->4 throttled.
        throttled = {
            pair
            for pair, link in ctx.topology.core.items()
            if link.capacity < 2 * MBPS
        }
        assert throttled == {(1, 4), (2, 4), (3, 4)}


class TestOscillate:
    def test_capacities_stay_in_band(self):
        ctx = _ctx(5)
        base = _capacities(ctx.topology)
        Oscillate(period=4.0, low=0.25, high=1.0, seed=3).install(ctx)
        seen_low = False
        for t in range(1, 41):
            ctx.sim.run(until=t * 0.5)
            for pair, link in ctx.topology.core.items():
                ratio = link.capacity / base[pair]
                assert 0.25 - 1e-9 <= ratio <= 1.0 + 1e-9
                seen_low = seen_low or ratio < 0.5
        assert seen_low, "the swing must actually reach the low phase"

    def test_square_wave_hits_both_rails(self):
        ctx = _ctx(4)
        base = _capacities(ctx.topology)
        pair = next(iter(base))
        Oscillate(
            period=4.0, low=0.5, high=1.0, wave="square",
            phase_jitter=False, sample_period=1.0,
        ).install(ctx)
        ratios = set()
        for t in range(1, 9):
            ctx.sim.run(until=t * 1.0 + 0.1)
            ratios.add(round(ctx.topology.core[pair].capacity / base[pair], 6))
        assert ratios == {0.5, 1.0}

    def test_stop_freezes_capacities(self):
        ctx = _ctx(4)
        before = _capacities(ctx.topology)
        Oscillate(period=2.0, seed=1, stop=3.0).install(ctx)
        ctx.sim.run(until=3.0)
        frozen = _capacities(ctx.topology)
        assert frozen != before
        ctx.sim.run(until=30.0)
        assert _capacities(ctx.topology) == frozen

    def test_validation(self):
        with pytest.raises(ValueError):
            Oscillate(low=0.0)
        with pytest.raises(ValueError):
            Oscillate(low=0.9, high=0.5)
        with pytest.raises(ValueError):
            Oscillate(wave="triangle")


class TestFlashCrowd:
    def test_start_delays_cover_receivers_only(self):
        ctx = _ctx(6, source_id=0)
        FlashCrowd(ramp=30.0).install(ctx)
        assert set(ctx.start_delays) == set(ctx.receivers)
        assert all(0.0 <= d <= 30.0 for d in ctx.start_delays.values())

    def test_start_offset_shifts_all_delays(self):
        ctx = _ctx(6, source_id=0)
        FlashCrowd(ramp=10.0, start=5.0).install(ctx)
        assert all(d >= 5.0 for d in ctx.start_delays.values())

    def test_deterministic_per_seed(self):
        a, b = _ctx(8, seed=4), _ctx(8, seed=4)
        FlashCrowd(ramp=30.0).install(a)
        FlashCrowd(ramp=30.0).install(b)
        assert a.start_delays == b.start_delays


class TestChurn:
    def test_offline_then_restored(self):
        ctx = _ctx(6, source_id=0, seed=2)
        before = _capacities(ctx.topology)
        Churn(period=10.0, down_time=5.0, fraction=0.2, seed=2).install(ctx)
        ctx.sim.run(until=11.0)  # one firing, node still down
        dark = {
            pair
            for pair, link in ctx.topology.core.items()
            if link.capacity == 16.0
        }
        assert dark, "a node must have gone offline"
        # Every dark link touches the same single victim node.
        common = set.intersection(*[set(pair) for pair in dark])
        assert len(common) == 1
        victim = common.pop()
        assert victim != 0, "the source must never be churned"
        # All links touching the victim are dark, in both directions.
        assert dark == {
            pair for pair in before if victim in pair
        }
        ctx.sim.run(until=16.5)  # down_time elapsed, before next firing
        restored = _capacities(ctx.topology)
        for pair in dark:
            assert restored[pair] == before[pair]

    def test_stop_then_down_time_restores_everyone(self):
        ctx = _ctx(6, source_id=0, seed=3)
        before = _capacities(ctx.topology)
        Churn(period=5.0, down_time=60.0, stop=12.0, seed=3).install(ctx)
        ctx.sim.run(until=12.0)
        assert _capacities(ctx.topology) != before
        # No churn after the stop; the last node back is restored
        # down_time after it went dark.
        ctx.sim.run(until=12.0 + 60.0)
        assert _capacities(ctx.topology) == before


class TestCombinators:
    def test_compose_installs_all(self):
        # A composition acts exactly like installing its children one
        # after another into the same context.
        parts = (
            Oscillate(period=2.0, seed=5),
            CorrelatedDecreases(seed=5, period=5.0),
        )
        composed, separate = _ctx(6, seed=5), _ctx(6, seed=5)
        before = _capacities(composed.topology)
        compose(*parts).install(composed)
        for part in parts:
            part.install(separate)
        composed.sim.run(until=20.0)
        separate.sim.run(until=20.0)
        assert _capacities(composed.topology) != before
        assert _capacities(composed.topology) == _capacities(separate.topology)

    def test_compose_requires_a_scenario(self):
        with pytest.raises(ValueError):
            Compose()

    def test_oscillate_composed_with_churn_keeps_nodes_dark(self):
        # Oscillate applies its swing relatively, so a churned node's
        # trickle links must stay near-dead underneath the oscillation
        # rather than being reset to base capacity on the next tick.
        ctx = _ctx(6, source_id=0, seed=2)
        compose(
            Oscillate(period=2.0, low=0.25, seed=2),
            Churn(period=10.0, down_time=30.0, fraction=0.2, seed=2),
        ).install(ctx)
        ctx.sim.run(until=15.0)  # churn fired at 10, several ticks since
        darkest = min(link.capacity for link in ctx.topology.core.values())
        assert darkest < 100.0, (
            f"churned links must stay dark under oscillation, got {darkest}"
        )

    def test_oscillate_churn_composition_does_not_compound(self):
        # Churn's restore is multiplicative, so many churn cycles under
        # an oscillation must leave capacities inside the oscillation
        # band — an absolute save/restore compounds the factors and
        # blows capacity up exponentially.
        ctx = _ctx(6, source_id=0, seed=2)
        base = _capacities(ctx.topology)
        compose(
            Oscillate(period=2.0, low=0.25, high=1.0, seed=1),
            Churn(period=10.0, down_time=5.0, fraction=0.2, seed=2),
        ).install(ctx)
        ctx.sim.run(until=400.0)
        for pair, link in ctx.topology.core.items():
            assert link.capacity <= base[pair] * 1.001, (
                f"{pair}: capacity {link.capacity} exceeds built "
                f"{base[pair]} — churn/oscillate composition compounded"
            )

    def test_delayed_scenario_keeps_its_stop_window(self):
        # start/stop are install-relative: a scenario installed 100 s
        # into a run with stop=45 must run its full 45-second window,
        # not be cut short by absolute-time arithmetic.
        def cut_count(installed_at, until):
            ctx = _ctx(8, seed=7)
            before = _capacities(ctx.topology)
            ctx.sim.run(until=installed_at)
            CorrelatedDecreases(seed=7, period=20.0, stop=45.0).install(ctx)
            ctx.sim.run(until=until)
            return sum(
                1
                for pair, link in ctx.topology.core.items()
                if link.capacity != before[pair]
            )

        undelayed = cut_count(0.0, 200.0)
        delayed = cut_count(100.0, 300.0)
        assert undelayed > 0
        assert delayed == undelayed

class TestTraceReplay:
    def test_default_demo_schedule_dips_and_recovers(self):
        ctx = _ctx(4)
        before = _capacities(ctx.topology)
        TraceReplay().install(ctx)
        ctx.sim.run(until=20.0)
        halved = _capacities(ctx.topology)
        assert all(
            halved[pair] == pytest.approx(before[pair] * 0.5)
            for pair in before
        )
        ctx.sim.run(until=50.0)
        assert _capacities(ctx.topology) == pytest.approx(before)

    def test_concrete_link_events(self):
        ctx = _ctx(4)
        events = [{"t": 5.0, "link": "1->2", "capacity": 1000.0}]
        TraceReplay(events=events).install(ctx)
        ctx.sim.run(until=10.0)
        assert ctx.topology.core[(1, 2)].capacity == 1000.0

    def test_unknown_links_ignored(self):
        ctx = _ctx(3)
        events = [{"t": 1.0, "link": "77->78", "capacity": 5.0}]
        TraceReplay(events=events).install(ctx)
        ctx.sim.run(until=5.0)  # must not raise

    def test_event_validation(self):
        with pytest.raises(ValueError):
            TraceReplay(events=[{"t": 1.0, "link": "*"}])
        with pytest.raises(ValueError):
            TraceReplay(
                events=[
                    {"t": 1.0, "link": "*", "capacity": 1.0, "scale": 0.5}
                ]
            )
        with pytest.raises(ValueError):
            TraceReplay(events=[], path="x")

    @pytest.mark.parametrize(
        "column,value,named",
        [
            ("t", float("nan"), "'t' must be in (-inf, inf), got nan"),
            ("capacity", 0, "'capacity' must be in (0, inf), got 0"),
            ("scale", [0.5, float("inf")], "'scale' must be in (0, inf), got inf"),
            ("loss", 1.5, "'loss' must be in [0, 1), got 1.5"),
            ("remove", 1.0, "'remove' must be in [0, 1), got 1.0"),
            ("overlay", -0.1, "'overlay' must be in [0, 1), got -0.1"),
            ("delay", -0.1, "'delay' must be in [0, inf), got -0.1"),
            ("floor", -1.0, "'floor' must be in [0, inf), got -1.0"),
            ("link", "0-1", "link '0-1' is not '*' or src->dst"),
        ],
        ids=["t", "capacity", "scale_list", "loss", "remove", "overlay", "delay",
             "floor", "link"],
    )
    def test_a_bad_value_fails_both_verbs_before_any_cell(
        self, column, value, named, tmp_path, capsys
    ):
        event = {"t": 2.0, "link": "*", "delay": 0.01, column: value}
        with pytest.raises(ValueError) as info:
            TraceReplay(events=[event])
        assert named in str(info.value)
        trace = tmp_path / "bad.json"
        trace.write_text(json.dumps({"version": 1, "events": [event]}))
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "systems": ["bullet_prime"],
                    "scenarios": [
                        "none",
                        {"name": "trace_replay", "params": {"path": str(trace)}},
                    ],
                    "nodes": [8],
                    "blocks": [16],
                    "seeds": [0],
                }
            )
        )
        run = ["run", "--scenario", "trace_replay", "--trace", str(trace)]
        for argv in (
            ["sweep", "--spec", str(spec), "--workers", "1"],
            run + ["--nodes", "8", "--blocks", "16"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and named in captured.err
            assert captured.err.count("\n") == 1 and captured.out == ""

    def test_the_values_a_trace_may_hold_pass(self):
        # Inverse rows carry None for an absent remove / overlay, and
        # the domains' closed ends are legal.
        TraceReplay(
            events=[
                {"t": -1.0, "link": "0->1", "loss": [0.0], "remove": None},
                {"t": 0.0, "link": "*", "scale": 1e-9, "floor": 0.0, "delay": 0.0},
                {"t": 1, "link": "*", "overlay": 0.999999, "remove": 0},
            ]
        )


class TestTraceRoundTrip:
    """JSON trace files: ``{"version": 1, "events": [...]}``."""

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "events": []}')
        with pytest.raises(ValueError, match="version"):
            read_trace(path)


class TestMultiColumnTrace:
    """The (time, bandwidth[, loss, delay]) trace format: loss and delay
    events replay through the link-condition engine."""

    def test_loss_and_delay_events_replay(self):
        ctx = _ctx(4)
        events = [
            {"t": 2.0, "link": "1->2", "loss": 0.07},
            {"t": 3.0, "link": "*", "delay": 0.3},
            {"t": 4.0, "link": "2->3", "capacity": 50_000.0, "loss": 0.01},
        ]
        TraceReplay(events=events).install(ctx)
        ctx.sim.run(until=10.0)
        assert ctx.topology.core[(1, 2)].loss_rate == 0.07
        for _pair, link in sorted(ctx.topology.core.items()):
            assert link.delay == 0.3
        assert ctx.topology.core[(2, 3)].capacity == 50_000.0
        assert ctx.topology.core[(2, 3)].loss_rate == 0.01

    def test_event_validation_multi_column(self):
        # loss-only and delay-only events are valid ...
        TraceReplay(events=[{"t": 1.0, "link": "*", "loss": 0.1}])
        TraceReplay(events=[{"t": 1.0, "link": "*", "delay": 0.1}])
        # ... an event with no condition column is not ...
        with pytest.raises(ValueError, match="at least one"):
            TraceReplay(events=[{"t": 1.0, "link": "*"}])
        # ... and capacity+scale are still mutually exclusive.
        with pytest.raises(ValueError, match="both capacity and scale"):
            TraceReplay(
                events=[
                    {"t": 1.0, "link": "*", "capacity": 1.0, "scale": 0.5}
                ]
            )


class TestTraceRoundTripProperties:
    """Property test: ANY multi-column schedule written as a JSON trace
    file reads back identically."""

    _event = st.fixed_dictionaries(
        {
            "t": st.integers(min_value=0, max_value=60).map(
                lambda quarter: quarter / 4.0
            ),
            "link": st.sampled_from(["*", "0->1", "1->2", "3->0", "2->4"]),
        },
        optional={
            "capacity": st.floats(
                min_value=1e3, max_value=1e7, allow_nan=False
            ),
            "loss": st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            "delay": st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        },
    ).filter(lambda e: len(e) > 2)

    @given(events=st.lists(_event, min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_save_load_round_trip(self, events, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.json"
        path.write_text(json.dumps({"version": 1, "events": events}))
        assert read_trace(path) == events


class TestCsvTrace:
    def test_csv_with_header_drives_all_knobs(self, tmp_path):
        path = tmp_path / "lte.csv"
        path.write_text(
            "time,bandwidth,loss,delay\n"
            "0.0,250000,0.0,0.05\n"
            "5.0,50000,0.02,0.08\n"
        )
        events = read_trace(path)
        assert events == [
            {"t": 0.0, "link": "*", "capacity": 250000.0, "loss": 0.0,
             "delay": 0.05},
            {"t": 5.0, "link": "*", "capacity": 50000.0, "loss": 0.02,
             "delay": 0.08},
        ]
        ctx = _ctx(4)
        TraceReplay(events=events).install(ctx)
        ctx.sim.run(until=10.0)
        for _pair, link in sorted(ctx.topology.core.items()):
            assert link.capacity == 50000.0
            assert link.loss_rate == 0.02
            assert link.delay == 0.08

    def test_csv_without_header_is_positional(self, tmp_path):
        path = tmp_path / "bw.csv"
        path.write_text("0.0,100000\n2.5,75000\n# trailing comment\n")
        assert read_trace(path) == [
            {"t": 0.0, "link": "*", "capacity": 100000.0},
            {"t": 2.5, "link": "*", "capacity": 75000.0},
        ]

    def test_csv_partial_columns(self, tmp_path):
        path = tmp_path / "loss_only.csv"
        path.write_text("time,loss\n1.0,0.05\n")
        assert read_trace(path) == [{"t": 1.0, "link": "*", "loss": 0.05}]

    def test_csv_empty_fields_stay_positional(self, tmp_path):
        # Regression: a blank cell is a missing sample for ITS column —
        # it must not shift later columns left (a missing bandwidth
        # reading once turned the loss probability into a 0.05 B/s
        # capacity).
        path = tmp_path / "gaps.csv"
        path.write_text("time,bandwidth,loss\n1.0,,0.05\n2.0,80000,\n")
        assert read_trace(path) == [
            {"t": 1.0, "link": "*", "loss": 0.05},
            {"t": 2.0, "link": "*", "capacity": 80000.0},
        ]

    def test_csv_outage_samples_clamp_to_simulator_invariants(self, tmp_path):
        # Measured traces contain outages; zero bandwidth clamps to a
        # 1 B/s trickle and loss clamps below 1, instead of crashing
        # mid-run against the positive-capacity / loss<1 invariants.
        path = tmp_path / "outage.csv"
        path.write_text("time,bandwidth,loss\n1.0,0,1.0\n")
        events = read_trace(path)
        assert events == [
            {"t": 1.0, "link": "*", "capacity": 1.0, "loss": 0.999999}
        ]
        ctx = _ctx(4)
        TraceReplay(events=events).install(ctx)
        ctx.sim.run(until=5.0)  # applies without raising

    def test_csv_negative_values_fail_with_line_context(self, tmp_path):
        for column, row in (
            ("bandwidth", "1.0,-5,0.0"),
            ("loss", "1.0,100,-0.1"),
        ):
            path = tmp_path / f"neg_{column}.csv"
            path.write_text(f"time,bandwidth,loss\n{row}\n")
            with pytest.raises(ValueError, match=f"line 2.*negative {column}"):
                read_trace(path)

    @pytest.mark.parametrize("column", ["time", "bandwidth", "loss", "delay"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_csv_non_finite_values_fail_with_line_context(
        self, tmp_path, column, value
    ):
        fields = {"time": "1.0", "bandwidth": "100", "loss": "0.1", "delay": "0.02"}
        fields[column] = value
        path = tmp_path / f"{value}_{column}.csv"
        path.write_text(
            "time,bandwidth,loss,delay\n0.5,100,0.0,0.01\n"
            + ",".join(fields.values())
            + "\n"
        )
        with pytest.raises(ValueError, match=f"line 3.*non-finite {column}"):
            read_trace(path)

    def test_csv_too_many_fields_fail(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("time,bandwidth\n1.0,100,0.05\n")
        with pytest.raises(ValueError, match="fields"):
            read_trace(path)

    def test_csv_row_without_time_fails(self, tmp_path):
        path = tmp_path / "no_time.csv"
        path.write_text("time,bandwidth\n,100\n")
        with pytest.raises(ValueError, match="without a time"):
            read_trace(path)

    def test_csv_row_with_only_time_fails_with_line_context(self, tmp_path):
        # Regression: an all-blank sample row must fail here with the
        # file/line in the message, not later inside TraceReplay.
        path = tmp_path / "empty_row.csv"
        path.write_text("time,bandwidth,loss\n1.0,,\n")
        with pytest.raises(ValueError, match="line 2.*no.*condition"):
            read_trace(path)

    def test_csv_bad_header_and_rows_fail(self, tmp_path):
        bad_header = tmp_path / "bad1.csv"
        bad_header.write_text("epoch,bw\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(bad_header)
        bad_row = tmp_path / "bad2.csv"
        bad_row.write_text("1.0,100\nwat,200\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_trace(bad_row)

    def test_csv_replays_through_the_cli_scenario(self, tmp_path):
        # The registered trace_replay scenario accepts a CSV path.
        path = tmp_path / "t.csv"
        path.write_text("time,bandwidth\n1.0,100000\n")
        scenario = SCENARIOS.build("trace_replay", path=str(path))
        ctx = _ctx(4)
        scenario.install(ctx)
        ctx.sim.run(until=2.0)
        for _pair, link in sorted(ctx.topology.core.items()):
            assert link.capacity == 100000.0
