"""Tests for the harness: report rendering, workloads, figure registry."""

import random

import pytest

from repro.core.download import FileObject
from repro.harness.experiment import run_experiment
from repro.harness.figures import FIGURES, run_figure
from repro.harness.registry import FLOW_MODELS, SCENARIOS, SYSTEMS
from repro.harness.report import FigureData
from repro.harness.sweep import SweepSpec, execute_cell
from repro.harness.workloads import software_update_workload
from repro.overlay.tree import build_random_tree
from repro.sim.engine import Simulator
from repro.sim.tcp import FlowNetwork
from repro.sim.topology import mesh_topology, planetlab_like_topology
from repro.sim.trace import TraceCollector
from repro.sim.transport import MESSAGE_HEADER_BYTES, Connection, Network


class TestFigureData:
    def _fig(self):
        fig = FigureData("figX", "a test figure", reference="fast")
        fig.add_series("fast", [1.0, 2.0, 3.0])
        fig.add_series("slow", [2.0, 4.0, 6.0])
        return fig

    def test_empty_series_rejected(self):
        fig = FigureData("figX", "t")
        with pytest.raises(ValueError):
            fig.add_series("x", [])

    def test_median_speedup(self):
        fig = self._fig()
        # fast median 2, slow median 4 -> slow is 50% slower.
        assert fig.median_speedup("slow") == pytest.approx(0.5)

    def test_worst_speedup(self):
        fig = self._fig()
        assert fig.worst_speedup("slow") == pytest.approx(0.5)

    def test_render_contains_everything(self):
        fig = self._fig()
        fig.add_scalar("a scalar", 4.25)
        fig.notes.append("a note")
        text = fig.render()
        assert "figX" in text
        assert "fast" in text and "slow" in text
        assert "a scalar: 4.25" in text
        assert "note: a note" in text
        assert "p50" in text

    def test_cdf_accessor(self):
        fig = self._fig()
        assert fig.cdf("fast").median == 2.0

    def test_degenerate_series_speedup_is_none_not_zero(self):
        # An all-zero comparison series has no meaningful ratio; 0.0
        # would read as "exactly as fast as the reference".
        fig = FigureData("figX", "t", reference="fast")
        fig.add_series("fast", [1.0, 2.0, 3.0])
        fig.add_series("stuck", [0.0, 0.0, 0.0])
        assert fig.median_speedup("stuck") is None
        assert fig.worst_speedup("stuck") is None

    def test_degenerate_speedup_renders_na(self):
        fig = FigureData("figX", "t", reference="fast")
        fig.add_series("fast", [1.0, 2.0, 3.0])
        fig.add_series("stuck", [0.0, 0.0, 0.0])
        text = fig.render()
        assert "n/a" in text
        assert "vs stuck" in text

    def test_against_accepts_falsy_labels(self):
        # `against=""` must route to the ""-labelled series, not fall
        # back to the reference.
        fig = FigureData("figX", "t", reference="fast")
        fig.add_series("fast", [1.0, 1.0, 1.0])
        fig.add_series("", [2.0, 2.0, 2.0])
        fig.add_series("slow", [4.0, 4.0, 4.0])
        # vs "": (4 - 2) / 4; vs reference would be (4 - 1) / 4.
        assert fig.median_speedup("slow", against="") == pytest.approx(0.5)
        assert fig.median_speedup("slow") == pytest.approx(0.75)


@pytest.fixture
def control_sends(monkeypatch):
    """The wire size of every non-block message a connection accepts,
    recorded at ``Connection.send`` itself."""
    sent = []
    send = Connection.send

    def counting_send(conn, message):
        accepted = send(conn, message)
        if accepted and not message.is_block:
            sent.append(message.size + MESSAGE_HEADER_BYTES)
        return accepted

    monkeypatch.setattr(Connection, "send", counting_send)
    return sent


class TestSummaryPolicy:
    def test_no_finisher_summary_metrics_are_none(self):
        # A run where no node completed (watchdog before first
        # delivery) reports None, not a sentinel float that would drag
        # downstream means toward zero.
        from repro.harness.experiment import ExperimentResult
        from repro.sim.engine import Simulator
        from repro.sim.trace import TraceCollector

        sim = Simulator()
        result = ExperimentResult(
            TraceCollector(sim, num_blocks=8), {}, sim, finished=False
        )
        summary = result.summary()
        assert summary["median"] is None
        assert summary["p90"] is None
        assert summary["worst"] is None
        assert summary["nodes"] == 0
        assert summary["finished"] is False

    @pytest.mark.parametrize("system", sorted(SYSTEMS.names()))
    def test_control_bytes_count_every_accepted_control_message(
        self, system, control_sends
    ):
        # The oracle totals, at the send call itself, every non-block
        # message a connection accepts; the summary must report exactly
        # that, crashes and closed connections included.
        (cell,) = SweepSpec(
            systems=(system,), scenarios=("chaos",), nodes=8, blocks=24, seeds=1
        ).expand()
        summary = execute_cell(cell).summary()
        assert control_sends
        assert summary["control_bytes"] == sum(control_sends)

    @pytest.mark.parametrize("scenario", SCENARIOS.names())
    @pytest.mark.parametrize("flow_model", FLOW_MODELS.names())
    @pytest.mark.parametrize("system", sorted(SYSTEMS.names()))
    def test_control_bytes_and_invariants_hold_in_every_cell(
        self, system, flow_model, scenario, control_sends
    ):
        # The chaos oracle above, over the whole system x flow model x
        # scenario cross at 8 x 24, with the invariant checker installed:
        # crashes, restarts and partitions close connections mid-run, and
        # the dynamic models move every flow's rate.
        result = run_experiment(
            mesh_topology(8, seed=1),
            SYSTEMS.get(system).builder(num_blocks=24, seed=1),
            24,
            scenario=SCENARIOS.build(scenario),
            max_time=120.0,
            seed=1,
            flow_model=flow_model,
            check_invariants=True,
        )
        invariants = result.network.invariants
        assert invariants.ok, invariants.violations
        assert control_sends
        assert result.summary()["control_bytes"] == sum(control_sends)


class TestWorkloads:
    def test_flash_crowd_file(self):
        fo = FileObject.synthetic(10_000, 512, seed=1)
        assert fo.num_blocks == 20

    def test_update_workload_fractions(self):
        old, new = software_update_workload(
            100_000, delta_fraction=0.0, seed=1
        )
        assert old == new
        old, new = software_update_workload(
            100_000, delta_fraction=1.0, seed=1
        )
        changed = sum(
            1
            for i in range(0, 100_000, 4096)
            if old[i : i + 4096] != new[i : i + 4096]
        )
        assert changed == len(range(0, 100_000, 4096))

    def test_validation(self):
        with pytest.raises(ValueError):
            software_update_workload(100, delta_fraction=1.5)

    def test_sizes_preserved(self):
        old, new = software_update_workload(50_000, seed=2)
        assert len(old) == len(new) == 50_000


class TestFigureRegistry:
    def test_all_twelve_registered(self):
        assert sorted(FIGURES) == [
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
        ]

    def test_unknown_rejected(self):
        with pytest.raises(KeyError, match="fig99"):
            run_figure("fig99")

    def test_run_figure_small(self):
        fig = run_figure("fig6", num_nodes=8, num_blocks=24, seed=1)
        assert set(fig.series) == {"rarest_random", "random", "first"}
        assert fig.render()


class TestSystemFactories:
    @pytest.mark.parametrize(
        "system, shared", [
            ("bullet_prime", "tree"),
            ("bullet", "tree"),
            ("bittorrent", "tracker"),
            ("splitstream", "forest"),
        ],
    )
    def test_rebuild_returns_a_fresh_node_on_the_same_shared_object(
        self, system, shared
    ):
        topology = mesh_topology(6, seed=1)
        sim = Simulator()
        network = Network(sim, topology, FlowNetwork(sim), random.Random(0))
        tree = build_random_tree(topology.nodes, root=0, fanout=4, seed=1)
        trace = TraceCollector(sim, 8)
        factory = SYSTEMS.get(system).builder(num_blocks=8, seed=1)
        nodes = factory(network, tree, 0, trace)
        assert sorted(nodes) == topology.nodes
        old = nodes[3]
        new = nodes.rebuild(3)
        assert new is nodes[3] and new is not old
        assert type(new) is type(old) and new.config is old.config
        everyone = {id(getattr(node, shared)) for node in nodes.values()}
        assert everyone == {id(getattr(old, shared))}
        if shared == "tree":
            assert new.tree is tree
        with pytest.raises(KeyError):
            nodes.rebuild(99)


def test_fig14_is_the_system_comparison_on_the_planetlab_topology():
    # What fig14 ran before it became a row of _system_comparison.
    fig = run_figure("fig14", num_nodes=8, num_blocks=16)
    assert list(fig.series) == list(SYSTEMS)
    assert fig.reference == "bullet_prime"
    for name, entry in SYSTEMS.items():
        result = run_experiment(
            planetlab_like_topology(8, seed=0),
            entry.builder(num_blocks=16, seed=0),
            16,
            max_time=9000.0,
            seed=0,
        )
        times = dict(result.trace.completion_times)
        times.pop(result.source_id, None)
        assert fig.series[name] == sorted(times.values())


def test_a_topology_serves_one_run():
    # A second run on a used topology would find its links bound to the
    # first run's allocator and left in the conditions it ended with.
    builds = []

    def factory(*args):
        builds.append(args)
        return SYSTEMS["bullet_prime"](num_blocks=8, seed=1)(*args)

    topology = mesh_topology(6, seed=1)
    first = run_experiment(topology, factory, 8, scenario="oscillate", seed=1)
    assert first.finished and len(builds) == 1
    with pytest.raises(ValueError, match="build a fresh topology"):
        run_experiment(topology, factory, 8, scenario="oscillate", seed=1)
    assert len(builds) == 1
    again = run_experiment(
        mesh_topology(6, seed=1), factory, 8, scenario="oscillate", seed=1
    )
    assert again.summary() == first.summary()
