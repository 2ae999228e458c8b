"""Deferred scale rows: an oscillation tick reaches unobserved links late
but bit for bit.

``topology.apply`` writes a :class:`~repro.sim.links.ScaleColumn` row at
once only to observed links (those with a capacity callback) and logs
it for the rest, which replay the log when something observes or reads
them (see :mod:`repro.sim.links`).  Each case runs one waveform on a
bare ``mesh_topology(8, seed=1)`` twice — every link observed from
t=0, and no link observed — and the two must end with the same
conditions to the last bit; a link observed mid-run must hold, at that
instant, the capacity the all-observed run has.  The partners make
other rows interleave with the waveform's: churn's absolute writes,
correlated cuts with a floor, and a second waveform with its own
phases and ticks.
"""

import pytest

from repro.scenarios import (
    Churn,
    CorrelatedDecreases,
    Oscillate,
    ScenarioContext,
    compose,
)
from repro.sim.engine import Simulator
from repro.sim.links import ScaleColumn
from repro.sim.topology import mesh_topology

UNTIL = 12.0
#: Observation instants of the mid-run checks (between ticks).
OBSERVE_AT = (0.61, 3.37, 7.93)

WAVES = {
    "sine": lambda: Oscillate(period=2.0, sample_period=0.25),
    "square": lambda: Oscillate(wave="square", period=1.5, low=0.5, sample_period=0.2),
}

PARTNERS = {
    "alone": None,
    "churn": lambda: Churn(period=1.5, down_time=2.0, fraction=0.3),
    "correlated_decreases": lambda: CorrelatedDecreases(period=1.0, floor=20_000.0),
    "oscillate": lambda: Oscillate(period=3.0, low=0.4, sample_period=0.3, seed=7),
}

CASES = [(wave, partner) for wave in WAVES for partner in PARTNERS]


def _links(topology):
    return [link for _pair, link in sorted(topology.core.items())]


def _conditions(link):
    return [link.capacity.hex(), link.loss_rate.hex(), link.delay.hex()]


def _run(wave, partner, observed=(), watch=None):
    """Run one case; ``observed`` links get a callback from t=0 and
    ``watch(sim, topology)`` may schedule more before the run."""
    sim = Simulator()
    topology = mesh_topology(8, seed=1)
    for link in observed(topology) if callable(observed) else observed:
        link.on_capacity_change = lambda _link: None
    scenario = WAVES[wave]()
    if PARTNERS[partner] is not None:
        scenario = compose(scenario, PARTNERS[partner]())
    scenario.install(ScenarioContext(sim, topology, source_id=0, seed=1))
    if watch is not None:
        watch(sim, topology)
    sim.run(until=UNTIL)
    return topology


@pytest.mark.parametrize("wave,partner", CASES)
def test_unobserved_links_end_where_observed_ones_do(wave, partner):
    eager = _run(wave, partner, observed=_links)
    deferred = _run(wave, partner)
    log = deferred.scale_log
    # Rows really were deferred: links still have some pending.
    assert any(link._cursor < len(log.rows) for link in _links(deferred))
    assert [_conditions(link) for link in _links(deferred)] == [
        _conditions(link) for link in _links(eager)
    ]


@pytest.mark.parametrize("wave,partner", CASES)
def test_a_link_observed_mid_run_holds_the_eager_capacity(wave, partner):
    picks = [(0, 1), (3, 5), (7, 2)]

    def sample(read):
        def watch(sim, topology):
            for at, pair in zip(OBSERVE_AT, picks):
                sim.schedule_at(at, read, seen, at, topology.core[pair])

        seen = {}
        return seen, watch

    def observe(seen, at, link):
        # Observing replays the link's pending rows: read the slot the
        # allocator reads, not the catching-up property.
        link.on_capacity_change = lambda _link: None
        seen[at] = link._capacity.hex()

    def read(seen, at, link):
        seen[at] = link.capacity.hex()

    deferred, watch = sample(observe)
    _run(wave, partner, watch=watch)
    eager, watch = sample(read)
    _run(wave, partner, observed=_links, watch=watch)
    assert deferred == eager and len(eager) == len(OBSERVE_AT)


def test_the_log_holds_one_row_per_tick_and_no_per_link_list():
    topology = _run("sine", "alone")
    log = topology.scale_log
    rows = log.rows
    assert len(rows) == 1 + int(UNTIL / 0.25)
    # One index of the core links in key order (the topology's own core
    # map, each link at its key position), rows that are columns, and no
    # per-link list in a row but the last tick's f values, which the
    # next tick would reuse.
    assert log.core is topology.core
    assert [link._pos for link in _links(topology)] == list(range(56))
    assert all(isinstance(column, ScaleColumn) for column in rows)
    for column in rows[:-1]:
        held = [getattr(column, slot) for slot in column.__slots__]
        assert not any(isinstance(value, (list, tuple, dict)) for value in held)


class _Ramp(ScaleColumn):
    """Link i's factor is ``0.5 + i / 64``."""

    __slots__ = ()

    def __getitem__(self, i):
        return 0.5 + i / 64


def test_a_column_row_and_its_inverse_defer_like_any_row():
    def run(observe):
        topology = mesh_topology(4, seed=1)
        for link in _links(topology)[:observe]:
            link.on_capacity_change = lambda _link: None
        column = _Ramp()
        undo = topology.apply([{"link": "*", "scale": column}])
        topology.apply([{"link": "*", "scale": column}] + undo)
        return topology, undo

    eager, _undo = run(observe=12)
    deferred, undo = run(observe=3)
    assert undo[0]["link"] == "*"
    assert [undo[0]["scale"][i] for i in range(12)] == [
        1.0 / (0.5 + i / 64) for i in range(12)
    ]
    assert len(deferred.scale_log.rows) == 3
    assert [_conditions(link) for link in _links(deferred)] == [
        _conditions(link) for link in _links(eager)
    ]


def test_a_column_row_naming_a_tuple_is_written_at_once():
    topology = mesh_topology(4, seed=1)
    links = tuple(_links(topology))
    before = [link._capacity for link in links]
    undo = topology.apply([{"link": links, "scale": _Ramp()}])
    assert topology.scale_log.rows == []
    assert all(link._cursor is None for link in links)
    assert [link._capacity for link in links] == [
        capacity * (0.5 + i / 64) for i, capacity in enumerate(before)
    ]
    assert undo == [
        {"link": list(links), "scale": [1.0 / (0.5 + i / 64) for i in range(12)]}
    ]
