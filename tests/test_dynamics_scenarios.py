"""Tests for the loss-rate and asymmetric dynamics scenarios."""

import pytest

from repro.harness.registry import SCENARIOS
from repro.scenarios import (
    AsymmetricSqueeze,
    GilbertElliott,
    Lossy,
    Oscillate,
    ScenarioContext,
    lossy,
)
from repro.sim.engine import Simulator
from repro.sim.topology import mesh_topology, star_topology


def _ctx(n, seed=3, source_id=0, topology=None):
    sim = Simulator()
    topo = topology if topology is not None else mesh_topology(n, seed=seed)
    return ScenarioContext(sim, topo, source_id=source_id, seed=seed)


def _losses(topology):
    return {pair: link.loss_rate for pair, link in topology.core.items()}


def _capacities(topology):
    return {pair: link.capacity for pair, link in topology.core.items()}


class TestGilbertElliott:
    def test_links_burst_into_and_out_of_bad_state(self):
        ctx = _ctx(6)
        baseline = _losses(ctx.topology)
        GilbertElliott(
            bad_loss=0.1, mean_good=5.0, mean_bad=5.0, seed=1
        ).install(ctx)
        ctx.sim.run(until=30.0)
        raised = [
            pair
            for pair, loss in _losses(ctx.topology).items()
            if loss > baseline[pair]
        ]
        assert raised, "some links must be in the bad state"
        assert len(raised) < len(baseline), "not every link at once"

    def test_bad_state_overlays_baseline_loss(self):
        ctx = _ctx(5)
        baseline = _losses(ctx.topology)
        model = GilbertElliott(bad_loss=0.2, mean_good=0.5, mean_bad=1e9, seed=2)
        model.install(ctx)
        # mean_good=0.5 at 1s sampling: every link flips bad on the
        # first tick (leave probability clamps to 1), and mean_bad=1e9
        # keeps it there.
        ctx.sim.run(until=2.0)
        for pair, loss in _losses(ctx.topology).items():
            expected = 1.0 - (1.0 - baseline[pair]) * 0.8
            assert loss == pytest.approx(expected)

    def test_seeded_schedule_is_reproducible(self):
        def schedule(seed):
            ctx = _ctx(6, seed=seed)
            GilbertElliott(bad_loss=0.1, seed=9).install(ctx)
            samples = []
            ctx.sim.schedule_periodic(
                5.0, lambda: samples.append(tuple(_losses(ctx.topology).values()))
            )
            ctx.sim.run(until=60.0)
            return samples

        assert schedule(4) == schedule(4)

    def test_composes_with_lossy_overlay(self):
        # Regression: GE state flips must not clobber a concurrent Lossy
        # overlay (or any other writer) — transitions swap GE's own
        # overlay on the link's *current* loss.
        ctx = _ctx(5)
        baseline = _losses(ctx.topology)
        inner = GilbertElliott(bad_loss=0.05, mean_good=2.0, mean_bad=2.0, seed=7)
        lossy(inner, loss=0.2).install(ctx)
        ctx.sim.run(until=30.0)
        # While the constant overlay is on, every link must carry at
        # least the overlay regardless of GE's state underneath.
        for pair, loss in _losses(ctx.topology).items():
            floor = 1.0 - (1.0 - baseline[pair]) * 0.8
            assert loss >= floor - 1e-9, (pair, loss, floor)

    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliott(bad_loss=1.0)
        with pytest.raises(ValueError):
            GilbertElliott(good_loss=0.5, bad_loss=0.1)
        with pytest.raises(ValueError):
            GilbertElliott(mean_good=0.0)
        with pytest.raises(ValueError):
            GilbertElliott(sample_period=0.0)

    def test_stop_window_returns_links_to_good(self):
        # Ending the process must not strand links in the bad state.
        ctx = _ctx(5)
        baseline = _losses(ctx.topology)
        GilbertElliott(bad_loss=0.2, mean_good=0.5, stop=10.0, seed=8).install(ctx)
        ctx.sim.run(until=5.0)
        assert _losses(ctx.topology) != baseline  # everyone flips bad fast
        ctx.sim.run(until=60.0)
        assert _losses(ctx.topology) == pytest.approx(baseline)

    def test_capacities_untouched(self):
        ctx = _ctx(5)
        before = _capacities(ctx.topology)
        GilbertElliott(bad_loss=0.1, mean_good=1.0, seed=5).install(ctx)
        ctx.sim.run(until=30.0)
        assert _capacities(ctx.topology) == before


class TestAsymmetricSqueeze:
    def test_uplinks_cut_downlinks_untouched(self):
        ctx = _ctx(6)
        up_before = {n: ctx.topology.access_up[n].capacity for n in ctx.receivers}
        down_before = {
            n: ctx.topology.access_down[n].capacity for n in ctx.topology.nodes
        }
        core_before = _capacities(ctx.topology)
        AsymmetricSqueeze(period=10.0, fraction=1.0, seed=1).install(ctx)
        ctx.sim.run(until=11.0)
        for node in ctx.receivers:
            assert ctx.topology.access_up[node].capacity == pytest.approx(
                up_before[node] * 0.5
            )
        for node in ctx.topology.nodes:
            assert ctx.topology.access_down[node].capacity == down_before[node]
        # With access links modeled, core links stay untouched too.
        assert _capacities(ctx.topology) == core_before

    def test_source_never_squeezed(self):
        ctx = _ctx(6)
        source_up = ctx.topology.access_up[0].capacity
        AsymmetricSqueeze(period=5.0, fraction=1.0, seed=2).install(ctx)
        ctx.sim.run(until=60.0)
        assert ctx.topology.access_up[0].capacity == source_up

    def test_floor_bounds_cumulative_cuts(self):
        ctx = _ctx(4)
        floor = 100_000.0
        AsymmetricSqueeze(
            period=2.0, fraction=1.0, floor=floor, seed=3
        ).install(ctx)
        ctx.sim.run(until=200.0)
        for node in ctx.receivers:
            assert ctx.topology.access_up[node].capacity >= floor * 0.5

    def test_hold_releases_the_cut(self):
        ctx = _ctx(4)
        before = {n: ctx.topology.access_up[n].capacity for n in ctx.receivers}
        AsymmetricSqueeze(
            period=100.0, fraction=1.0, hold=5.0, start=1.0, seed=4
        ).install(ctx)
        ctx.sim.run(until=3.0)
        squeezed = {n: ctx.topology.access_up[n].capacity for n in ctx.receivers}
        assert all(squeezed[n] < before[n] for n in ctx.receivers)
        ctx.sim.run(until=20.0)
        after = {n: ctx.topology.access_up[n].capacity for n in ctx.receivers}
        assert after == pytest.approx(before)

    def test_holds_release_every_overlapping_cut(self):
        # Cuts stack on each uplink while their holds overlap; every
        # release undoes exactly its own cut, so once the last hold has
        # run out each uplink is back where it started.
        ctx = _ctx(4)
        before = {n: ctx.topology.access_up[n].capacity for n in ctx.receivers}
        AsymmetricSqueeze(
            period=2.0, fraction=1.0, hold=50.0, stop=7.0, seed=6
        ).install(ctx)
        ctx.sim.run(until=7.0)  # several cuts applied, no release yet
        assert all(
            ctx.topology.access_up[n].capacity < before[n] / 2
            for n in ctx.receivers
        )
        ctx.sim.run(until=120.0)
        after = {n: ctx.topology.access_up[n].capacity for n in ctx.receivers}
        assert after == pytest.approx(before)

    def test_core_fallback_without_access_links(self):
        # star_topology models no access links: the uplink direction is
        # every core link out of the node — the reverse direction must
        # stay untouched (the asymmetry contract).
        topo = star_topology(4)
        ctx = _ctx(4, topology=topo)
        AsymmetricSqueeze(period=5.0, fraction=1.0, seed=5).install(ctx)
        ctx.sim.run(until=6.0)
        for node in ctx.receivers:
            for (src, _dst), link in topo.core.items():
                if src == node:
                    assert link.capacity == pytest.approx(625_000.0)  # halved
        # Links out of the source keep full capacity.
        for (src, _dst), link in topo.core.items():
            if src == 0:
                assert link.capacity == pytest.approx(1_250_000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AsymmetricSqueeze(period=0.0)
        with pytest.raises(ValueError):
            AsymmetricSqueeze(fraction=0.0)
        with pytest.raises(ValueError):
            AsymmetricSqueeze(factor=1.0)
        with pytest.raises(ValueError):
            AsymmetricSqueeze(hold=0.0)


class TestLossy:
    def test_constant_overlay_and_stop(self):
        ctx = _ctx(5)
        baseline = _losses(ctx.topology)
        Lossy(loss=0.1, start=2.0, stop=10.0).install(ctx)
        ctx.sim.run(until=1.0)
        assert _losses(ctx.topology) == baseline
        ctx.sim.run(until=5.0)
        for pair, loss in _losses(ctx.topology).items():
            assert loss == pytest.approx(1.0 - (1.0 - baseline[pair]) * 0.9)
        ctx.sim.run(until=15.0)
        assert _losses(ctx.topology) == pytest.approx(baseline)

    def test_square_wave_toggles(self):
        ctx = _ctx(4)
        baseline = _losses(ctx.topology)
        Lossy(loss=0.05, period=10.0, duty=0.5).install(ctx)
        pair = next(iter(baseline))
        ctx.sim.run(until=2.0)  # inside the first on-phase
        on_loss = ctx.topology.core[pair].loss_rate
        assert on_loss > baseline[pair]
        ctx.sim.run(until=7.0)  # off-phase
        assert ctx.topology.core[pair].loss_rate == pytest.approx(baseline[pair])
        ctx.sim.run(until=12.0)  # second on-phase
        assert ctx.topology.core[pair].loss_rate == pytest.approx(on_loss)

    def test_base_scenario_installs_by_name(self):
        ctx = _ctx(5)
        capacities = _capacities(ctx.topology)
        Lossy(base="oscillate", loss=0.02).install(ctx)
        ctx.sim.run(until=5.0)
        # The oscillation (capacity) and the overlay (loss) both run.
        assert _capacities(ctx.topology) != capacities
        assert any(loss > 0.0 for loss in _losses(ctx.topology).values())

    def test_base_scenario_instance_composes(self):
        ctx = _ctx(4)
        capacities = _capacities(ctx.topology)
        lossy(Oscillate(period=4.0, seed=1), loss=0.05).install(ctx)
        ctx.sim.run(until=6.0)
        assert _capacities(ctx.topology) != capacities
        assert all(loss > 0.0 for loss in _losses(ctx.topology).values())

    def test_stop_ends_overlay_even_at_full_duty(self):
        # Regression: duty=1.0 schedules no per-cycle off-edge, so the
        # stop window must turn the overlay off itself.
        ctx = _ctx(4)
        baseline = _losses(ctx.topology)
        Lossy(loss=0.1, period=10.0, duty=1.0, stop=30.0).install(ctx)
        ctx.sim.run(until=15.0)
        assert _losses(ctx.topology) != baseline
        ctx.sim.run(until=100.0)
        assert _losses(ctx.topology) == pytest.approx(baseline)

    def test_validation(self):
        with pytest.raises(ValueError):
            Lossy(loss=0.0)
        with pytest.raises(ValueError):
            Lossy(period=0.0)
        with pytest.raises(ValueError):
            Lossy(duty=0.0)
        with pytest.raises(ValueError):
            Lossy(start=-1.0)
        # An empty (or inverted) window is a config error, not an
        # overlay that silently never ends.
        with pytest.raises(ValueError, match="stop"):
            Lossy(start=10.0, stop=5.0)
        with pytest.raises(ValueError, match="stop"):
            Lossy(stop=-1.0)


class TestRegistration:
    @pytest.mark.parametrize("name", SCENARIOS.names())
    def test_registered_with_param_schemas(self, name):
        """A class's ``params`` tuple is the one declaration of its
        knobs: the registry schema, the constructor, and the defaults."""
        entry = SCENARIOS.get(name)
        builder = entry.builder
        assert entry.params is builder.params
        built = entry.build()
        for param in entry.params:
            assert getattr(built, param.name) == param.default, param.name
        with pytest.raises(TypeError, match="no_such_knob"):
            entry.build(no_such_knob=1)
        # A subclass extends its parent's tuple: each inherited knob is
        # the parent's own Param, or (with_defaults) differs from it
        # only in the default — never a second hand-written declaration.
        inherited = builder.__mro__[1].params
        for theirs, ours in zip(inherited, builder.params[: len(inherited)]):
            assert ours is theirs or (
                (ours.name, ours.kind, ours.description)
                == (theirs.name, theirs.kind, theirs.description)
            ), ours.name
        assert len(builder.params) >= len(inherited)

    def test_aliases_resolve(self):
        assert SCENARIOS.get("bursty_loss").name == "gilbert_elliott"
        assert SCENARIOS.get("uplink_squeeze").name == "asymmetric_squeeze"
        assert SCENARIOS.get("loss_overlay").name == "lossy"

    def test_lossy_builds_with_coerced_params(self):
        entry = SCENARIOS.get("lossy")
        params = entry.coerce_params({"base": "churn", "loss": "0.03"})
        scenario = entry.build(**params)
        assert scenario.base == "churn"
        assert scenario.loss == 0.03
