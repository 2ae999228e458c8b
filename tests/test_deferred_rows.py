"""Column rows and unbuilt links: an oscillation tick reaches a core link
built late, bit for bit.

``topology.apply`` writes a ``"*"`` :class:`~repro.sim.links.ScaleColumn`
row at once to every built core link and, while some core link is
unbuilt, keeps the column in ``core.pending``; a link built later starts
from the product of every pending column (see :mod:`repro.sim.links`).
Each case runs one waveform on a bare ``mesh_topology(8, seed=1)`` twice
— every core link built at t=0 with a capacity callback, as a flow's
link has, and no link built until something asks — and the two must
end with the same conditions to the last bit, read from the slots the
allocator reads; a link first asked for mid-run must hold, at that
instant, the capacity the all-built run has.  The partners make other
rows interleave with the waveform's: churn's absolute writes (which
build every link at its first firing), correlated cuts with a floor,
and a second waveform with its own phases and ticks.
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
#: Instants of the mid-run checks (between ticks).
BUILD_AT = (0.61, 3.37, 7.93)

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
    """Every core link in key order (building the unbuilt ones)."""
    return [link for _pair, link in sorted(topology.core.items())]


def _first(topology, count):
    """The first ``count`` core links in key order (building only those)."""
    core = topology.core
    return [core[pair] for pair in list(core)[:count]]


def _conditions(link):
    # The slots, not the properties: a built link's slot must be current.
    return [link._capacity.hex(), link._loss_rate.hex(), link._delay.hex()]


def _run(wave, partner, build_all=False, watch=None):
    """Run one case; with ``build_all`` every core link is built at t=0
    and has a capacity callback, and ``watch(sim, topology)`` may
    schedule more before the run."""
    sim = Simulator()
    topology = mesh_topology(8, seed=1)
    if build_all:
        for link in _links(topology):
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
def test_links_built_late_end_where_links_built_first_do(wave, partner):
    eager = _run(wave, partner, build_all=True)
    lazy = _run(wave, partner)
    assert eager.core.pending == []
    # Columns really were kept: some link was unbuilt at some tick.
    assert lazy.core.pending
    built = lazy.core.built[:]
    assert [_conditions(lazy.core.links[i]) for i in built] == [
        _conditions(eager.core.links[i]) for i in built
    ]
    assert [_conditions(link) for link in _links(lazy)] == [
        _conditions(link) for link in _links(eager)
    ]


@pytest.mark.parametrize("wave,partner", CASES)
def test_a_link_built_mid_run_holds_the_eager_capacity(wave, partner):
    picks = [(0, 1), (3, 5), (7, 2)]

    def sample():
        def watch(sim, topology):
            for at, pair in zip(BUILD_AT, picks):
                sim.schedule_at(at, read, at, topology.core, pair)

        def read(at, core, pair):
            # Asking for the link builds it if nothing has yet.
            seen[at] = core[pair]._capacity.hex()

        seen = {}
        return seen, watch

    lazy, watch = sample()
    _run(wave, partner, watch=watch)
    eager, watch = sample()
    _run(wave, partner, build_all=True, watch=watch)
    assert lazy == eager and len(eager) == len(BUILD_AT)


def test_pending_holds_one_column_per_tick_while_a_link_is_unbuilt():
    topology = _run("sine", "alone")
    core = topology.core
    pending = core.pending
    # A bare oscillation asks for no link: every tick is kept.
    assert core.built == []
    assert len(pending) == 1 + int(UNTIL / 0.25)
    # Columns, with no per-link list in a column but the last tick's f
    # values, which the next tick would reuse.
    assert all(isinstance(column, ScaleColumn) for column in pending)
    for column in pending[:-1]:
        held = [getattr(column, slot) for slot in column.__slots__]
        assert not any(isinstance(value, (list, tuple, dict)) for value in held)
    # Once every link is built, a column row is written and not kept.
    links = _links(topology)
    assert core.built == list(range(56)) and core.links == links
    topology.apply([{"link": "*", "scale": pending[-1]}])
    assert len(pending) == 1 + int(UNTIL / 0.25)


class _Ramp(ScaleColumn):
    """Link i's factor is ``0.5 + i / 64``."""

    __slots__ = ()

    def __getitem__(self, i):
        return 0.5 + i / 64


def test_a_column_row_and_its_inverse_reach_a_late_link_like_any_row():
    def run(build):
        topology = mesh_topology(4, seed=1)
        _first(topology, build)
        column = _Ramp()
        undo = topology.apply([{"link": "*", "scale": column}])
        topology.apply([{"link": "*", "scale": column}] + undo)
        return topology, undo

    eager, _undo = run(build=12)
    lazy, undo = run(build=3)
    assert undo[0]["link"] == "*"
    assert [undo[0]["scale"][i] for i in range(12)] == [
        1.0 / (0.5 + i / 64) for i in range(12)
    ]
    assert eager.core.pending == [] and len(lazy.core.pending) == 3
    assert [_conditions(link) for link in _links(lazy)] == [
        _conditions(link) for link in _links(eager)
    ]


def test_a_column_row_naming_a_tuple_is_written_at_once():
    topology = mesh_topology(4, seed=1)
    links = tuple(_first(topology, 5))
    before = [link._capacity for link in links]
    undo = topology.apply([{"link": links, "scale": _Ramp()}])
    # Seven links are unbuilt, yet nothing is kept for them.
    assert topology.core.pending == []
    assert [link._capacity for link in links] == [
        capacity * (0.5 + i / 64) for i, capacity in enumerate(before)
    ]
    assert undo == [
        {"link": list(links), "scale": [1.0 / (0.5 + i / 64) for i in range(5)]}
    ]
