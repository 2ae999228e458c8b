"""Scenario scripts, checked on their rows and fault actions: the
driver, three link-scenario laws and the eight fault scenarios.

A scenario is a generator of waits, link-write rows, fault actions and
other scripts that :func:`repro.scenarios.base.play` runs (see that
module).  Everything here runs on a bare ``Simulator`` and
``mesh_topology``, with no ``FlowNetwork`` and no nodes: the driver's
clock and resume rules, yielded scripts, ``flash_crowd`` and
``compose``;
the laws of ``oscillate``, ``correlated_decreases`` and
``gilbert_elliott`` read off the rows each one writes and the link
conditions right after; and each fault scenario's timeline read off
the actions it hands a recording stand-in for the fault injector.

All driver times are dyadic, so the clock's sums are exact and the
firing instants compare with ``==``.
"""

from math import pi, sin

import pytest

from repro.common.units import KBPS
from repro.scenarios import (
    Adversarial,
    Chaos,
    CorrelatedDecreases,
    Crash,
    CrashRestart,
    FailSlow,
    Flaky,
    FlashCrowd,
    GilbertElliott,
    GrayChaos,
    Lossy,
    Oscillate,
    Partition,
    Scenario,
    ScenarioContext,
    compose,
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


def test_a_yielded_script_starts_at_once_and_its_parent_resumes_with_none():
    ctx = _ctx(nodes=8)
    sim, log = ctx.sim, []

    def child():
        log.append((sim.now, "child starts", sim.pending_events))
        yield 0.5
        log.append((sim.now, "child fires"))

    def parent():
        yield 1.0
        reply = yield child()
        log.append((sim.now, "parent resumes", reply, sim.pending_events))
        yield 0.5
        log.append((sim.now, "parent fires"))

    play(ctx, parent())
    sim.run()
    # The child's wait is armed before the parent's next one, so of the
    # two firings at 1.5 the child's comes first.
    assert log == [
        (1.0, "child starts", 0),
        (1.0, "parent resumes", None, 1),
        (1.5, "child fires"),
        (1.5, "parent fires"),
    ]


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


# -- the fault scenarios -----------------------------------------------------


class Recorder:
    """A stand-in for ``FaultInjector``: each action is logged as
    ``(sim.now, name, args)`` and returns a canned undo, and only the
    state that the fault scenarios read is kept.  Every second
    partition is refused, as the injector refuses a second split."""

    def __init__(self, sim, topology, source_id):
        self.sim, self.log = sim, []
        self.receivers = [n for n in topology.nodes if n != source_id]
        self.failed, self.pending_restarts = set(), set()
        self.partition_active, self.partitions = False, 0

    def _log(self, name, *args):
        self.log.append((self.sim.now, name, args))

    def live_receivers(self):
        return [n for n in self.receivers if n not in self.failed]

    def permanently_failed(self):
        return self.failed - self.pending_restarts

    def fail(self, node):
        self._log("fail", node)
        self.failed.add(node)
        return True

    def schedule_restart(self, node):
        self._log("schedule_restart", node)
        self.pending_restarts.add(node)
        return ("restart", node)

    def restart(self, node):
        self._log("restart", node)
        self.pending_restarts.discard(node)
        self.failed.discard(node)

    def partition(self, islands, squeeze):
        self._log("partition", islands, squeeze)
        self.partitions += 1
        if self.partitions % 2 == 0:
            return None
        self.partition_active = True
        return ("heal", self.partitions)

    def heal(self, undo):
        self._log("heal", undo)
        self.partition_active = False

    def degrade_node(self, node, factor, stretch):
        self._log("degrade_node", node, factor, stretch)
        return ("restore_node", node)

    def restore_node(self, node):
        self._log("restore_node", node)

    def flake_node(self, node, loss, direction):
        self._log("flake_node", node, loss, direction)
        # Inverse rows that write no link, tagged to pair the close.
        return [{"link": [], "remove": loss, "node": node}]

    def arm_adversity(self, rng, *rates):
        self._log("arm_adversity", rng.random(), *rates)

    def disarm_adversity(self):
        self._log("disarm_adversity")


def _played(scenario, until=400.0, at=0.0):
    """``scenario``'s action log on a bare 8-node mesh (source 0),
    installed at ``at``, with each applied row logged as ``(sim.now,
    "rows", node)``."""
    sim, topology = Simulator(), mesh_topology(8, seed=1)
    faults = Recorder(sim, topology, 0)
    ctx = ScenarioContext(sim, topology, source_id=0, seed=1, faults=faults)
    _logged(topology, lambda rows, _: faults._log("rows", rows[0]["node"]))
    sim.run(until=at)
    scenario.install(ctx)
    sim.run(until=until)
    return faults.log


def _named(log, name):
    return [(t, args) for t, logged, args in log if logged == name]


def test_crash_victims_fire_one_stagger_apart_and_never_hit_the_source():
    log = _played(Crash(count=3, start=10.0, stagger=2.5))
    times = [(t, name) for t, name, _ in log]
    assert times == [(10.0, "fail"), (12.5, "fail"), (15.0, "fail")]
    victims = [node for _t, _name, (node,) in log]
    assert len(set(victims)) == 3 and 0 not in victims


@pytest.mark.parametrize("fault", [Crash, FailSlow])
def test_a_fault_scenario_installed_late_acts_start_seconds_after_install(fault):
    log = _played(fault(count=1, start=10.0), at=6.0)
    assert [t for t, name, _ in log if name != "rows"][:1] == [16.0]


def test_a_crash_schedule_is_install_relative():
    log = _played(Crash(schedule=[(1.5, 3), (4.0, 5)]), at=6.0)
    assert log == [(7.5, "fail", (3,)), (10.0, "fail", (5,))]


def test_a_yielded_scripts_rows_and_actions_reach_apply_and_the_injector():
    sim, topology = Simulator(), mesh_topology(8, seed=1)
    faults = Recorder(sim, topology, 0)
    ctx = ScenarioContext(sim, topology, source_id=0, seed=1, faults=faults)
    link = topology.core[(1, 2)]
    installed, written = link.capacity, []
    _logged(topology, lambda rows, inverse: written.append((sim.now, rows)))
    halve = [{"link": link, "scale": 0.5}]

    def child():
        yield 2.0
        inverse = yield halve
        restore = yield ("degrade_node", 3, 0.5, 2.0)
        yield 1.0
        yield inverse
        yield restore

    def parent():
        yield child()

    play(ctx, parent())
    sim.run(until=2.5)
    assert link.capacity == installed * 0.5
    sim.run()
    assert written == [(2.0, halve), (3.0, [{"link": [link], "scale": [2.0]}])]
    assert faults.log == [
        (2.0, "degrade_node", (3, 0.5, 2.0)),
        (3.0, "restore_node", (3,)),
    ]
    assert link.capacity == installed


def test_flash_crowd_fills_start_delays_inside_install():
    ctx = ScenarioContext(Simulator(), mesh_topology(8, seed=1), source_id=0)
    FlashCrowd(ramp=10.0, start=2.0).install(ctx)
    assert sorted(ctx.start_delays) == list(range(1, 8))
    assert all(2.0 <= delay <= 12.0 for delay in ctx.start_delays.values())
    assert ctx.sim.pending_events == 0


def _armed(install):
    """Every timer that ``install`` and the run after it arm, as
    ``(sim.now, delay)``; the action log; the start delays; and every
    core link's capacity at the end."""
    sim, topology = Simulator(), mesh_topology(8, seed=1)
    faults = Recorder(sim, topology, 0)
    ctx = ScenarioContext(sim, topology, source_id=0, seed=1, faults=faults)
    armed, schedule = [], sim.schedule

    def arm(delay, callback):
        armed.append((sim.now, delay))
        return schedule(delay, callback)

    sim.schedule = arm
    install(ctx)
    sim.run(until=60.0)
    core = [link.capacity for _pair, link in sorted(topology.core.items())]
    return armed, faults.log, ctx.start_delays, core


@pytest.mark.parametrize(
    "parts",
    [
        (Crash(count=2, start=3.0), CorrelatedDecreases(period=2.0, stop=10.0)),
        (FlashCrowd(), Chaos(rate=0.5, duration=30.0)),
        (Lossy(base="oscillate", period=4.0, stop=20.0), GrayChaos(rate=0.3)),
    ],
    ids=["crash+cuts", "flash+chaos", "lossy+gray"],
)
def test_compose_arms_what_installing_each_part_in_turn_arms(parts):
    def each(ctx):
        for part in parts:
            part.install(ctx)

    composed = _armed(compose(*parts).install)
    assert composed == _armed(each)
    assert composed[0] and composed[1]


def test_crash_restart_restarts_down_time_after_the_fail():
    log = _played(CrashRestart(count=2, start=4.0, stagger=1.0, down_time=7.5))
    fails = _named(log, "fail")
    assert _named(log, "schedule_restart") == fails
    assert _named(log, "restart") == [(t + 7.5, args) for t, args in fails]
    assert [t for t, _ in fails] == [4.0, 5.0]


def test_partition_heals_at_start_plus_duration():
    log = _played(Partition(start=8.0, duration=15.5, islands=3))
    ((t, (islands, squeeze)),) = _named(log, "partition")
    assert (t, squeeze, len(islands)) == (8.0, 1e-3, 3)
    assert 0 in islands[0] and sorted(sum(islands, [])) == list(range(8))
    assert _named(log, "heal") == [(23.5, (1,))]


def test_each_flaky_window_opens_inside_the_period_and_closes_after_window():
    flaky = Flaky(count=3, window=1.5, gap=2.0, start=5.0, duration=30.0)
    log = _played(flaky)
    opens, closes = _named(log, "flake_node"), _named(log, "rows")
    assert len(opens) > 3 and len(closes) == len(opens)
    for node in {args[0] for _t, args in opens}:
        opened = [t for t, args in opens if args[0] == node]
        assert all(5.0 < t < 35.0 for t in opened)
        closed = [t for t, args in closes if args == (node,)]
        assert closed == [t + 1.5 for t in opened]


@pytest.mark.parametrize("duration", [12.0, None])
def test_fail_slow_restores_after_duration_and_never_without_one(duration):
    log = _played(FailSlow(count=2, start=3.0, stagger=1.0, duration=duration))
    degrades = _named(log, "degrade_node")
    assert [t for t, _ in degrades] == [3.0, 4.0]
    expected = [(t + duration, args[:1]) for t, args in degrades] if duration else []
    assert _named(log, "restore_node") == expected


def test_adversarial_arms_at_start_and_disarms_at_stop():
    log = _played(Adversarial(start=5.0, stop=20.0, duplicate=0.5))
    assert [(t, name) for t, name, _ in log] == [
        (5.0, "arm_adversity"),
        (20.0, "disarm_adversity"),
    ]
    assert log[0][2][1:] == (0.5, 0.05, 0.5, 0.01)


@pytest.mark.parametrize("chaos", [Chaos, GrayChaos])
def test_chaos_plays_one_log_per_seed_and_a_refused_split_never_heals(chaos):
    scenario = chaos(rate=0.5, partition_weight=4.0, duration=80.0)
    log = _played(scenario)
    assert log == _played(scenario)
    splits = _named(log, "partition")
    assert len(splits) >= 4
    hold = scenario.partition_duration
    accepted = [(t + hold, (n,)) for n, (t, _) in enumerate(splits, start=1) if n % 2]
    assert _named(log, "heal") == accepted
    for t, name, (node, *_) in log:
        if name in ("fail", "degrade_node", "flake_node"):
            assert node != 0
