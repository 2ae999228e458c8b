"""Link scripts, checked on their rows: the driver and three scenario laws.

A link scenario is a generator of waits and link-write rows that
:func:`repro.scenarios.base.play` runs (see that module).  Everything
here runs on a bare ``Simulator`` and ``mesh_topology``, with no
``FlowNetwork`` and no nodes: the driver's clock and resume rules, then
the laws of ``oscillate``, ``correlated_decreases`` and
``gilbert_elliott`` read off the rows each one writes and the link
conditions right after.

All driver times are dyadic, so the clock's sums are exact and the
firing instants compare with ``==``.
"""

from math import pi, sin

import pytest

from repro.common.units import KBPS
from repro.scenarios import (
    CorrelatedDecreases,
    GilbertElliott,
    Oscillate,
    Scenario,
    ScenarioContext,
)
from repro.scenarios.base import every, later, play
from repro.sim.engine import Simulator
from repro.sim.topology import mesh_topology


def _ctx(nodes=5, seed=1):
    return ScenarioContext(Simulator(), mesh_topology(nodes, seed=seed), seed=seed)


def _firings(ctx, clock, until=100.0):
    """The instants at which a script waiting on ``clock`` fires."""
    times = []

    def script():
        for wait in clock:
            yield wait
            times.append(ctx.sim.now)

    play(ctx, script())
    ctx.sim.run(until=until)
    return times


def _logged(topology, after):
    """Route ``topology``'s writes through ``after(rows, inverse)``."""
    write = topology.apply

    def apply(rows):
        inverse = write(rows)
        after(rows, inverse)
        return inverse

    topology.apply = apply


# -- the driver --------------------------------------------------------------


def test_first_firing_is_one_period_out_without_a_start():
    ctx = _ctx()
    assert _firings(ctx, every(ctx.sim, 0.75, None, 3.0)) == [0.75, 1.5, 2.25, 3.0]


def test_a_stop_before_the_first_firing_gives_no_firing():
    ctx = _ctx()
    assert _firings(ctx, every(ctx.sim, 1.0, 2.5, 2.0)) == []
    assert ctx.sim.events_processed == 0


def test_a_firing_exactly_on_stop_happens():
    ctx = _ctx()
    assert _firings(ctx, every(ctx.sim, 0.5, 0.25, 1.25)) == [0.25, 0.75, 1.25]


def test_a_late_install_keeps_its_whole_window():
    ctx = _ctx()
    ctx.sim.run(until=6.5)
    times = _firings(ctx, every(ctx.sim, 0.5, 0.25, 1.25))
    assert [t - 6.5 for t in times] == [0.25, 0.75, 1.25]


def test_rows_resume_the_script_in_the_same_instant_with_their_inverse():
    ctx = _ctx()
    link = ctx.topology.core[(0, 1)]
    installed = link.capacity
    seen = []

    def script():
        yield 2.0
        events = ctx.sim.events_processed
        inverse = yield [{"link": link, "scale": 0.5}]
        seen.append((ctx.sim.now, ctx.sim.events_processed - events, link.capacity))
        assert inverse == [{"link": [link], "scale": [2.0]}]
        yield from later(1.0, inverse)

    play(ctx, script())
    ctx.sim.run(until=2.5)
    assert seen == [(2.0, 0, installed * 0.5)]
    ctx.sim.run()
    assert (ctx.sim.now, link.capacity) == (3.0, installed)


def test_a_scripts_first_segment_runs_inside_install():
    ctx = _ctx()
    link = ctx.topology.core[(1, 0)]
    installed = link.capacity

    class Halve(Scenario):
        def script(self, ctx):
            yield [{"link": link, "scale": 0.5}]
            yield 1.0
            yield [{"link": link, "scale": 0.5}]

    Halve().install(ctx)
    assert link.capacity == installed * 0.5
    assert ctx.sim.pending_events == 1
    ctx.sim.run()
    assert (ctx.sim.now, link.capacity) == (1.0, installed * 0.25)


# -- the laws ----------------------------------------------------------------


def _f(wave, turns):
    """The oscillation factor at ``turns = elapsed / period + phase``."""
    high, low = wave.high, wave.low
    if wave.wave == "square":
        return high if turns % 1.0 < 0.5 else low
    return (high + low) / 2.0 + (high - low) / 2.0 * sin(2.0 * pi * turns)


@pytest.mark.parametrize("wave", ["sine", "square"])
@pytest.mark.parametrize("observed", [False, True], ids=["deferred", "observed"])
def test_oscillate_ticks_telescope_to_the_waveform(wave, observed):
    ctx = _ctx(nodes=6, seed=3)
    sim, core = ctx.sim, sorted(ctx.topology.core.items())
    if observed:
        # Every other link eager: a callback makes a link observed.
        for _pair, link in core[::2]:
            link.on_capacity_change = lambda link: None
    installed = [link.capacity for _pair, link in core]
    oscillate = Oscillate(
        period=2.0, low=0.3, high=1.1, wave=wave, start=1.0, stop=40.0, seed=5
    )
    sim.run(until=3.0)
    origin = sim.now + oscillate.start
    rng = ctx.rng("oscillate", oscillate.seed)
    phases = [rng.random() for _ in core]
    ticks = []

    def after_tick(rows, inverse):
        turns = (sim.now - origin) / oscillate.period
        ticks.append(sim.now)
        for (_pair, link), capacity, phase in zip(core, installed, phases):
            expected = capacity * _f(oscillate, turns + phase)
            assert link.capacity == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert capacity * 0.3 * (1 - 1e-12) <= link.capacity
            assert link.capacity <= capacity * 1.1 * (1 + 1e-12)

    _logged(ctx.topology, after_tick)
    oscillate.install(ctx)
    sim.run(until=60.0)
    assert ticks == [4.0 + 0.25 * k for k in range(157)]


@pytest.mark.parametrize("victim_fraction", [0.1, 0.5])
def test_correlated_cuts_name_their_victims_and_keep_the_floor(victim_fraction):
    ctx = _ctx(nodes=8, seed=2)
    n = len(ctx.topology.nodes)
    victim_of = {id(link): dst for (_src, dst), link in ctx.topology.core.items()}
    floor = 300 * KBPS
    cuts = CorrelatedDecreases(
        period=1.0,
        victim_fraction=victim_fraction,
        source_fraction=0.5,
        factor=0.5,
        floor=floor,
        stop=40.0,
        seed=4,
    )
    firings, skipped = [], []

    def after_cut(rows, inverse):
        (row,) = rows
        firings.append(ctx.sim.now)
        victims = {victim_of[id(link)] for link in row["link"]}
        assert len(victims) == max(1, int(n * victim_fraction))
        assert all(link.capacity >= floor for link in row["link"])
        skipped.append(len(row["link"]) - len(inverse[0]["link"]))

    _logged(ctx.topology, after_cut)
    cuts.install(ctx)
    ctx.sim.run(until=60.0)
    assert firings == [1.0 * k for k in range(1, 41)]
    # Not vacuous: the floor refused some cuts.
    assert sum(skipped) > 0


def test_gilbert_elliott_spends_its_stationary_share_in_the_bad_state():
    ctx = _ctx(nodes=5, seed=6)
    links = [link for _pair, link in ctx.core_links()]
    baseline = [link.loss_rate for link in links]
    chain = GilbertElliott(
        bad_loss=0.05, mean_good=20.0, mean_bad=5.0, sample_period=1.0, seed=8
    )
    chain.install(ctx)
    ticks, bad = 2500, 0
    # Read each link between ticks (ticks land on whole seconds).
    for k in range(1, ticks + 1):
        ctx.sim.run(until=k + 0.5)
        bad += sum(link.loss_rate > base + 0.025 for link, base in zip(links, baseline))
    share = bad / (ticks * len(links))
    assert share == pytest.approx(5.0 / (20.0 + 5.0), abs=0.02)
