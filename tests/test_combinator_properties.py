"""Property tests for scenario composition.

Two contracts, exercised under randomized schedules:

1. **Determinism and event ordering** — any randomly generated
   ``compose`` tree (over probe leaves or real catalogue scenarios, each
   placed in time by its own ``start`` knob) installed twice from the
   same seed produces the identical, time-ordered event sequence.
2. **The window is install-relative** — a catalogue scenario with
   ``start=s + t, stop=e + t`` installed at time 0 acts on the links
   exactly like the same scenario with ``start=s, stop=e`` installed
   ``t`` seconds into the run.  The window knobs are how a scenario is
   placed later in time.

All randomly drawn times are dyadic rationals (multiples of 1/256), so
every sum the scheduler computes is exact in binary floating point and
the comparisons below are bit-level, not approximate.
"""

import random

import pytest

from repro.scenarios import (
    AsymmetricSqueeze,
    Churn,
    CorrelatedDecreases,
    GilbertElliott,
    Lossy,
    Oscillate,
    Scenario,
    ScenarioContext,
    compose,
)
from repro.sim.engine import Simulator
from repro.sim.topology import mesh_topology

from test_link_schedules import _watch


class Probe(Scenario):
    """A one-shot scenario that logs ``(time, tag, i)`` events: one
    ``start`` seconds after install, one per extra delay after that.
    The log is shared across installs, so firing order is directly
    observable."""

    name = "probe"

    def __init__(self, tag, log, start=0.0, delays=()):
        self.tag = tag
        self.log = log
        self.start = start
        self.delays = tuple(delays)

    def install(self, ctx):
        for i, offset in enumerate((0.0, *self.delays)):
            ctx.sim.schedule(
                self.start + offset,
                lambda i=i: self.log.append((ctx.sim.now, self.tag, i)),
            )


def _dyadic(rng, low, high, denominator=256):
    """A uniform dyadic rational in [low, high) — exact float sums."""
    return rng.randrange(int(low * denominator), int(high * denominator)) / denominator


def _random_tree(rng, log, depth=0):
    """A random compose tree over Probe leaves with random starts."""
    if depth >= 3 or rng.random() < 0.35:
        tag = f"p{rng.randrange(1000)}"
        start = _dyadic(rng, 0.0, 8.0)
        delays = [_dyadic(rng, 0.0, 4.0) for _ in range(rng.randrange(3))]
        return Probe(tag, log, start, delays)
    return compose(
        *[_random_tree(rng, log, depth + 1) for _ in range(rng.randrange(2, 4))]
    )


def _run_tree(seed, horizon=40.0):
    """Build the seed's tree in a fresh world; return the event log."""
    log = []
    rng = random.Random(seed)
    tree = _random_tree(rng, log)
    sim = Simulator()
    topo = mesh_topology(4, seed=seed)
    tree.install(ScenarioContext(sim, topo, seed=seed))
    sim.run(until=horizon)
    return log


@pytest.mark.parametrize("seed", range(12))
def test_random_combinator_trees_are_deterministic(seed):
    first = _run_tree(seed)
    second = _run_tree(seed)
    assert first, "degenerate draw: tree produced no events"
    assert first == second
    # Events are logged in nondecreasing simulated time: composition
    # never reorders the schedule.
    times = [t for t, _tag, _i in first]
    assert times == sorted(times)


@pytest.mark.parametrize("seed", range(6))
def test_composed_catalogue_scenarios_replay_identically(seed):
    """Real catalogue scenarios composed with random periods and
    starts: the full link-condition schedule (every write, logged per
    instant) is identical across two installations."""

    def build():
        # Rebuild fresh instances each run from the same draws.
        draws = random.Random(seed * 101 + 3)
        parts = [
            Oscillate(
                period=_dyadic(draws, 1.0, 4.0),
                wave=draws.choice(["sine", "square"]),
                start=_dyadic(draws, 0.0, 5.0),
            ),
            CorrelatedDecreases(
                period=_dyadic(draws, 4.0, 9.0), start=_dyadic(draws, 0.0, 5.0)
            ),
            Churn(
                period=_dyadic(draws, 3.0, 6.0),
                down_time=_dyadic(draws, 1.0, 2.0),
                start=_dyadic(draws, 0.0, 5.0),
                stop=_dyadic(draws, 10.0, 15.0),
            ),
        ]
        draws.shuffle(parts)
        return compose(*parts)

    traces = []
    for _ in range(2):
        sim = Simulator()
        topo = mesh_topology(5, seed=seed)
        schedule = _watch(sim, topo)
        build().install(ScenarioContext(sim, topo, seed=seed))
        sim.run(until=30.0)
        traces.append(schedule)
    assert traces[0] == traces[1]
    assert len(traces[0]) > 1


def _drawn_scenario(seed, start, shift):
    """The seed's catalogue scenario, its window moved by ``shift``."""
    draws = random.Random(seed * 53 + 11)
    stop = draws.choice([None, _dyadic(draws, 10.0, 25.0)])
    start += shift
    stop = None if stop is None else stop + shift
    kind = ["oscillate", "correlated", "churn", "ge", "lossy", "squeeze"][seed % 6]
    if kind == "oscillate":
        return Oscillate(
            period=_dyadic(draws, 1.0, 4.0),
            wave=draws.choice(["sine", "square"]),
            start=start,
            stop=stop,
            seed=seed,
        )
    if kind == "correlated":
        return CorrelatedDecreases(
            period=_dyadic(draws, 2.0, 6.0), start=start, stop=stop, seed=seed
        )
    if kind == "churn":
        return Churn(
            period=_dyadic(draws, 2.0, 5.0),
            down_time=_dyadic(draws, 1.0, 4.0),
            fraction=0.5,
            start=start,
            stop=stop,
            seed=seed,
        )
    if kind == "ge":
        return GilbertElliott(
            bad_loss=0.2,
            mean_good=_dyadic(draws, 1.0, 4.0),
            mean_bad=_dyadic(draws, 1.0, 4.0),
            start=start,
            stop=stop,
            seed=seed,
        )
    if kind == "lossy":
        return Lossy(
            loss=0.1,
            period=_dyadic(draws, 2.0, 6.0),
            duty=draws.choice([0.25, 0.5, 1.0]),
            start=start,
            stop=stop,
        )
    return AsymmetricSqueeze(
        period=_dyadic(draws, 2.0, 5.0),
        fraction=1.0,
        hold=_dyadic(draws, 1.0, 6.0),
        start=start,
        stop=stop,
        seed=seed,
    )


def _link_schedule(seed, start, shift, installed_at, horizon=40.0):
    """Snapshots of every link's capacity and loss, sampled off the
    dyadic grid (so no sample ties with a scenario event), while the
    seed's scenario runs, installed at ``installed_at``."""
    sim = Simulator()
    topo = mesh_topology(5, seed=seed)
    links = [
        link
        for table in (topo.core, topo.access_up, topo.access_down)
        for _key, link in sorted(table.items())
    ]
    snapshots = []

    def sample():
        snapshots.append((sim.now, [(link.capacity, link.loss_rate) for link in links]))

    def begin():
        sample()
        sim.schedule_periodic(0.25, sample)

    sim.schedule(1.0 / 512, begin)
    sim.run(until=installed_at)
    ctx = ScenarioContext(sim, topo, source_id=0, seed=seed)
    _drawn_scenario(seed, start, shift).install(ctx)
    sim.run(until=horizon)
    return snapshots


@pytest.mark.parametrize("seed", range(12))
def test_shifted_window_matches_installing_later(seed):
    rng = random.Random(seed * 31 + 7)
    start = _dyadic(rng, 0.0, 4.0)
    later = _dyadic(rng, 1.0, 8.0)
    shifted = _link_schedule(seed, start, later, installed_at=0.0)
    installed_later = _link_schedule(seed, start, 0.0, installed_at=later)
    assert shifted == installed_later
    # Non-degenerate: the scenario did change some link in the window.
    assert any(snapshot != shifted[0][1] for _t, snapshot in shifted)
