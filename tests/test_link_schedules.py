"""Link-schedule fingerprints: what every link-writing path writes, when.

The golden store barely sees these writers (its 8-node runs mostly end
before a scenario's first firing), so each case here runs one writer
on a bare ``Simulator`` + ``mesh_topology(8, seed=1)`` with knobs that
make every path fire, and records the ``float.hex`` of each link's
``(capacity, loss_rate, delay)`` after every instant that changed it.
``tests/data/link_schedules.json`` pins those schedules bit for bit.
The ``_stop_first`` cases, whose ``stop`` falls before the first
firing, were recorded firing once; they now write nothing.

The replay oracle logs the rows each case hands ``topology.apply`` and
replays them as a trace on a fresh topology: the trace vocabulary
expresses every writer's schedule exactly.

Re-record only on purpose::

    PYTHONPATH=src python tests/test_link_schedules.py
"""

import json
import pathlib
import random

import pytest

from repro.harness.faults import FaultInjector
from repro.harness.systems import bullet_prime_factory
from repro.overlay.tree import build_random_tree
from repro.scenarios import (
    AsymmetricSqueeze,
    CascadingCuts,
    Churn,
    CorrelatedDecreases,
    GilbertElliott,
    Lossy,
    Oscillate,
    ScenarioContext,
    TraceReplay,
    compose,
)
from repro.scenarios.base import later, play
from repro.sim.engine import Simulator
from repro.sim.links import Link
from repro.sim.tcp import FlowNetwork
from repro.sim.topology import Topology, mesh_topology
from repro.sim.trace import TraceCollector
from repro.sim.transport import Network

DATA = pathlib.Path(__file__).parent / "data" / "link_schedules.json"

#: A trace using all four columns, ``"*"``, named links and an unknown one.
TRACE = [
    {"t": 0.0, "link": "*", "loss": 0.01, "delay": 0.02},
    {"t": 1.0, "link": "1->2", "capacity": 50_000.0},
    {"t": 1.0, "link": "*", "scale": 0.5},
    {"t": 2.5, "link": "3->4", "capacity": 80_000.0, "loss": 0.05, "delay": 0.1},
    {"t": 3.0, "link": "9->1", "capacity": 1.0},
    {"t": 4.0, "link": "*", "scale": 2.0, "loss": 0.0, "delay": 0.05},
]

#: case -> (scenario, seconds to run).  Cases ending ``_stop_first`` set
#: a ``stop`` that falls before the first firing.
SCENARIO_CASES = {
    "correlated_decreases": (
        lambda: CorrelatedDecreases(period=1.0, floor=20_000.0),
        20.5,
    ),
    "correlated_decreases_stop_first": (lambda: CorrelatedDecreases(stop=5.0), 30.0),
    "cascading_cuts": (lambda: CascadingCuts(period=1.0), 10.0),
    "oscillate_sine": (
        lambda: Oscillate(period=2.0, sample_period=0.5, stop=2.0),
        4.0,
    ),
    "oscillate_square": (
        lambda: Oscillate(wave="square", period=2.0, low=0.5, sample_period=0.25),
        2.0,
    ),
    "oscillate_stop_first": (lambda: Oscillate(start=20.0, stop=5.0), 25.0),
    "churn": (
        lambda: Churn(period=2.0, down_time=5.0, fraction=0.3, stop=9.0),
        20.0,
    ),
    "churn_stop_first": (lambda: Churn(start=20.0, stop=5.0), 35.0),
    "gilbert_elliott": (
        lambda: GilbertElliott(
            bad_loss=0.2,
            good_loss=0.01,
            mean_good=2.0,
            mean_bad=1.0,
            sample_period=0.5,
            stop=6.0,
        ),
        10.0,
    ),
    "asymmetric_squeeze": (
        lambda: AsymmetricSqueeze(
            period=1.0, fraction=0.5, hold=2.5, floor=100_000.0, stop=8.0
        ),
        15.0,
    ),
    "asymmetric_squeeze_stop_first": (
        lambda: AsymmetricSqueeze(stop=5.0, floor=0.0),
        25.0,
    ),
    "lossy_square": (
        lambda: Lossy(loss=0.1, period=2.0, duty=0.5, start=1.0, stop=5.0),
        7.0,
    ),
    "lossy_constant": (lambda: Lossy(loss=0.05, start=1.0, stop=4.0), 6.0),
    "lossy_over_gilbert_elliott": (
        lambda: Lossy(
            base=GilbertElliott(
                bad_loss=0.3,
                good_loss=0.02,
                mean_good=1.0,
                mean_bad=1.0,
                sample_period=0.5,
                stop=3.0,
            ),
            loss=0.1,
            period=1.5,
            duty=0.6,
            stop=4.0,
        ),
        5.0,
    ),
    "oscillate_and_churn": (
        lambda: compose(
            Oscillate(period=2.0, sample_period=1.0, stop=4.0),
            Churn(period=1.5, down_time=2.0, fraction=0.3, stop=4.5),
        ),
        7.0,
    ),
    "trace_replay": (lambda: TraceReplay(events=TRACE), 5.0),
}


def _partition(ctx):
    heal = yield ("partition", [[0, 1, 2, 3], [4, 5, 6, 7]])
    play(ctx, later(3.0, heal))
    assert (yield ("partition", [[0], [1]])) is None  # refused: one at a time
    yield 5.0
    heal = yield ("partition", [[0], [1, 2, 3, 4, 5, 6, 7]])
    yield from later(2.0, heal)


def _degrade(ctx):
    restore = yield ("degrade_node", 2, 0.25)
    play(ctx, later(3.0, restore))
    yield ("degrade_node", 3, 0.5)
    yield from later(4.0, ("restore_node", 3))


def _window(wait, node, loss, direction, hold):
    yield wait
    rows = yield ("flake_node", node, loss, direction)
    yield from later(hold, rows)


def _flake(ctx):
    rows = yield ("flake_node", 2, 0.5, "both")
    play(ctx, later(3.0, rows))
    play(ctx, _window(1.0, 2, 0.3, "up", 1.0))
    rows = yield ("flake_node", 4, 0.9, "down")
    yield from later(2.0, rows)


#: case -> (fault script played with a fault injector, seconds to run).
FAULT_CASES = {
    "partition": (_partition, 10.0),
    "degrade_node": (_degrade, 6.0),
    "flake_node": (_flake, 6.0),
}


def _links(topology):
    links = [*topology.access_up.values(), *topology.access_down.values()]
    return links + [link for _pair, link in sorted(topology.core.items())]


def _conditions(link):
    return [link.capacity.hex(), link.loss_rate.hex(), link.delay.hex()]


def _watch(sim, topology):
    """Log each link's conditions after every change, per instant."""
    schedule = {}

    def changed(link):
        schedule.setdefault(sim.now.hex(), {})[link.name] = _conditions(link)

    for link in _links(topology):
        link.on_capacity_change = changed
        link.on_condition_change = changed
    return schedule


def _install(case, sim, topology):
    """Install ``case``'s writer on a fresh mesh; return its run time."""
    if case in SCENARIO_CASES:
        build, until = SCENARIO_CASES[case]
        build().install(ScenarioContext(sim, topology, source_id=0, seed=1))
        return until
    script, until = FAULT_CASES[case]
    network = Network(sim, topology, FlowNetwork(sim), random.Random(0))
    tree = build_random_tree(topology.nodes, root=0, fanout=4, seed=1)
    trace = TraceCollector(sim, num_blocks=4)
    nodes = bullet_prime_factory(num_blocks=4, seed=1)(network, tree, 0, trace)
    faults = FaultInjector(sim, network, topology, nodes, trace, 0)
    ctx = ScenarioContext(sim, topology, source_id=0, seed=1, faults=faults)
    play(ctx, script(ctx))
    return until


def schedule_of(case):
    """The recorded form of ``case``'s link schedule."""
    sim = Simulator()
    topology = mesh_topology(8, seed=1)
    schedule = _watch(sim, topology)
    sim.run(until=_install(case, sim, topology))
    return schedule


CASES = sorted([*SCENARIO_CASES, *FAULT_CASES])
WRITING_CASES = [case for case in CASES if not case.endswith("_stop_first")]


@pytest.mark.parametrize("case", CASES)
def test_link_schedule_matches_the_record(case):
    recorded = json.loads(DATA.read_text())[case]
    assert schedule_of(case) == recorded


def test_every_case_is_recorded_and_writes():
    recorded = json.loads(DATA.read_text())
    assert sorted(recorded) == CASES
    assert all(recorded[case] for case in WRITING_CASES)


@pytest.mark.parametrize(
    "scenario",
    [
        CorrelatedDecreases(stop=5.0),
        Oscillate(start=20.0, stop=5.0),
        Churn(start=20.0, stop=5.0),
        AsymmetricSqueeze(stop=5.0, floor=0.0),
        GilbertElliott(start=20.0, stop=5.0, mean_good=1.0),
    ],
    ids=repr,
)
def test_a_window_closed_before_its_first_firing_never_fires(scenario):
    sim = Simulator()
    topology = mesh_topology(8, seed=1)
    schedule = _watch(sim, topology)
    scenario.install(ScenarioContext(sim, topology, source_id=0, seed=1))
    sim.run(until=60.0)
    assert schedule == {}


@pytest.mark.parametrize("case", WRITING_CASES)
def test_rows_written_replay_as_a_trace(case, monkeypatch):
    sim = Simulator()
    topology = mesh_topology(8, seed=1)
    written = []
    apply = Topology.apply

    def logged(target, rows):
        rows = list(rows)
        written.extend((sim.now, dict(row)) for row in rows)
        return apply(target, rows)

    monkeypatch.setattr(Topology, "apply", logged)
    until = _install(case, sim, topology)
    sim.run(until=until)
    monkeypatch.undo()
    assert written

    fresh = mesh_topology(8, seed=1)
    by_name = {link.name: link for link in _links(fresh)}

    def rebind(target):
        if isinstance(target, str):
            return target
        if isinstance(target, Link):
            return by_name[target.name]
        return [by_name[link.name] for link in target]

    events = [{**row, "t": t, "link": rebind(row["link"])} for t, row in written]
    replay_sim = Simulator()
    replayed = _watch(replay_sim, fresh)
    TraceReplay(events=events).install(ScenarioContext(replay_sim, fresh))
    replay_sim.run(until=until)
    assert replayed == schedule_of(case)
    assert [_conditions(link) for link in _links(fresh)] == [
        _conditions(link) for link in _links(topology)
    ]


if __name__ == "__main__":
    DATA.write_text(
        json.dumps(
            {case: schedule_of(case) for case in CASES},
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )
