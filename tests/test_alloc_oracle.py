"""Oracles for the allocation kernel that share no code with it.

``repro.sim.alloc.fill`` is progressive filling with a lazy share heap;
nothing here fills progressively with a heap.  Max-min fairness is
checked by its textbook *certificate* (every flow has a bottleneck), by
an exact rising-water-level computation over ``fractions.Fraction``, and
by lexicographic max-min through iterated linear programs; component
discovery is checked against ``networkx``.  No ``Simulator`` is built:
the kernel runs on bare ``Link`` / ``Flow`` objects.
"""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import alloc
from repro.sim.links import Link
from repro.sim.tcp import Flow, TcpModel

MODEL = TcpModel()
#: Agreement demanded between the kernel's floats and exact arithmetic.
REL = 1e-9


def _naive_share(path, capacities, paths):
    return min(capacities[i] / sum(i in other for other in paths) for i in path)


@st.composite
def worlds(draw):
    """≤ 6 links and ≤ 6 flows: integer capacities (so exact ties between
    link shares are common), paths of 1–3 links in drawn order, and caps
    that are infinite, below / at / above the flow's naive share, or
    equal to an earlier flow's cap."""
    n_links = draw(st.integers(1, 6))
    n_flows = draw(st.integers(1, 6))
    capacities = draw(st.lists(st.integers(1, 60), min_size=n_links, max_size=n_links))
    path = st.lists(st.integers(0, n_links - 1), min_size=1, max_size=3, unique=True)
    paths = draw(st.lists(path, min_size=n_flows, max_size=n_flows))
    caps = []
    for flow_path in paths:
        kind = draw(st.sampled_from(["inf", "below", "at", "above", "equal"]))
        if kind == "inf" or (kind == "equal" and not caps):
            caps.append(inf)
        elif kind == "equal":
            caps.append(draw(st.sampled_from(caps)))
        else:
            factor = {"below": [0.25, 0.5, 0.9], "at": [1.0], "above": [1.5, 3.0]}
            share = _naive_share(flow_path, capacities, paths)
            caps.append(share * draw(st.sampled_from(factor[kind])))
    return capacities, paths, caps


def _build(world):
    """Bare kernel inputs: every flow sits on its links' seq-sorted
    ``flows`` lists with ``_cap`` set, as ``FlowNetwork`` leaves them."""
    capacities, paths, caps = world
    links = [Link(f"l{i}", capacity=c) for i, c in enumerate(capacities)]
    flows = []
    for seq, (path, cap) in enumerate(zip(paths, caps)):
        flow = Flow(f"f{seq}", [links[i] for i in path], MODEL, started_at=0.0)
        flow.seq = seq
        flow._cap = cap
        for link in flow.links:
            link.flows.append(flow)
        flows.append(flow)
    return links, flows


def _kernel_rates(flows, first_epoch=1):
    """Every component filled once: ``{seq: rate}`` plus the raw triples."""
    rates = {}
    triples = []
    epoch = first_epoch
    for component in alloc.components(flows, epoch):
        epoch += 1
        frozen, frozen_rates, rounds = alloc.fill(component, epoch)
        triples.append((component, frozen, frozen_rates, rounds))
        rates.update((f.seq, r) for f, r in zip(frozen, frozen_rates))
    return rates, triples


def _exact_max_min(world):
    """Max-min fair rates by a rising water level, in exact arithmetic.

    All unfrozen flows rise together.  The next thing to happen is either
    the lowest unfrozen cap being reached (those flows stop there) or the
    tightest link filling up (every unfrozen flow on it stops at the
    level).  Repeat until every flow has stopped.
    """
    capacities, paths, caps = world
    remaining = [Fraction(c) for c in capacities]
    rate = {}
    rising = set(range(len(paths)))
    while rising:
        level = {
            i: remaining[i] / sum(i in paths[f] for f in rising)
            for i in range(len(capacities))
            if any(i in paths[f] for f in rising)
        }
        water = min(level.values())
        lowest_cap = min(caps[f] for f in rising)
        if lowest_cap <= water:
            stopped = {f for f in rising if caps[f] == lowest_cap}
            stop_at = Fraction(lowest_cap)
        else:
            full = {i for i, share in level.items() if share == water}
            stopped = {f for f in rising if full.intersection(paths[f])}
            stop_at = water
        for f in stopped:
            rate[f] = stop_at
            for i in paths[f]:
                remaining[i] -= stop_at
        rising -= stopped
    return rate


@settings(derandomize=True, deadline=None, max_examples=150)
@given(worlds())
def test_every_flow_has_a_bottleneck(world):
    """(a) The certificate: the allocation is feasible, and each flow
    either sits at its cap or crosses a saturated link on which no flow
    is faster.  An allocation is max-min fair iff this holds."""
    links, flows = _build(world)
    rates, _ = _kernel_rates(flows)
    assert set(rates) == {f.seq for f in flows}
    load = {link: sum(rates[f.seq] for f in link.flows) for link in links}
    for link in links:
        assert load[link] <= link.capacity * (1 + REL)
    for flow in flows:
        rate = rates[flow.seq]
        assert 0.0 <= rate <= flow._cap
        at_cap = rate >= flow._cap * (1 - REL)
        bottlenecked = any(
            load[link] >= link.capacity * (1 - REL)
            and rate >= max(rates[g.seq] for g in link.flows) * (1 - REL)
            for link in flow.links
        )
        assert at_cap or bottlenecked, f"{flow.name} could be raised: {rates}"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(worlds())
def test_agrees_with_exact_arithmetic(world):
    """(b) Flow by flow, the kernel's floats are the exact rates."""
    _, flows = _build(world)
    rates, _ = _kernel_rates(flows)
    exact = _exact_max_min(world)
    for flow in flows:
        want = float(exact[flow.seq])
        assert rates[flow.seq] == pytest.approx(want, rel=REL, abs=0.0), (
            f"{flow.name}: kernel {rates[flow.seq]!r} exact {exact[flow.seq]}"
        )


@settings(derandomize=True, deadline=None, max_examples=20)
@given(worlds())
def test_agrees_with_iterated_linprog(world):
    """(c) Lexicographic max-min as a sequence of LPs: raise the common
    floor of the unfixed flows as far as it goes, fix every flow that
    cannot rise above it, repeat.  Agreement is to the LP solver's own
    tolerance, which is coarser than (b)'s."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    capacities, paths, caps = world
    n = len(paths)
    on_link = [[float(i in path) for path in paths] for i in range(len(capacities))]
    fixed = {}

    def solve(objective_flow, floor):
        # Variables: x_0..x_{n-1}, t.  Maximise x_f (or t when f is None)
        # subject to link capacities, x_g >= t for unfixed g, t >= floor.
        cost = [0.0] * (n + 1)
        cost[n if objective_flow is None else objective_flow] = -1.0
        a_ub = [row + [0.0] for row in on_link]
        b_ub = [float(c) for c in capacities]
        for g in range(n):
            if g not in fixed:
                a_ub.append([-float(h == g) for h in range(n)] + [1.0])
                b_ub.append(0.0)
        upper = [None if cap == inf else cap for cap in caps]
        bounds = [
            (fixed[g], fixed[g]) if g in fixed else (0.0, upper[g]) for g in range(n)
        ] + [(floor, None)]
        result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert result.status == 0, result.message
        return -result.fun, result.x

    while len(fixed) < n:
        floor, at_floor = solve(None, 0.0)
        slack = floor * 1e-7 + 1e-9
        # A flow already above the floor in that solution can rise; only
        # the others need their own LP to find out.
        stuck = [
            g
            for g in range(n)
            if g not in fixed
            and at_floor[g] <= floor + slack
            and solve(g, floor)[0] <= floor + slack
        ]
        assert stuck, "the floor is tight for nobody"
        fixed.update((g, floor) for g in stuck)

    _, flows = _build(world)
    rates, _ = _kernel_rates(flows)
    for flow in flows:
        assert rates[flow.seq] == pytest.approx(fixed[flow.seq], rel=1e-6)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(worlds(), st.data())
def test_components_match_networkx(world, data):
    """(d) Discovery from any seed multiset returns exactly the connected
    components of the flow/shared-link graph that hold a seed: seq order
    inside each, oldest-flow order across them, and the visit stamp on
    those flows only."""
    networkx = pytest.importorskip("networkx")
    _, flows = _build(world)
    seeds = data.draw(st.lists(st.sampled_from(flows), max_size=8))
    graph = networkx.Graph()
    graph.add_nodes_from(f.seq for f in flows)
    for flow in flows:
        for link in flow.links:
            graph.add_edges_from((flow.seq, other.seq) for other in link.flows)
    seeded = {f.seq for f in seeds}
    want = sorted(
        sorted(c) for c in networkx.connected_components(graph) if c & seeded
    )
    got = alloc.components(seeds, 7)
    assert [[f.seq for f in component] for component in got] == want
    reached = {seq for component in want for seq in component}
    assert {f.seq for f in flows if f._visit_epoch == 7} == reached


@settings(derandomize=True, deadline=None, max_examples=150)
@given(worlds())
def test_fill_returns_a_permutation_and_is_repeatable(world):
    """(e) ``frozen`` is the input reordered, never longer or shorter,
    and a second fill of the same inputs returns the same triple."""
    _, flows = _build(world)
    _, first = _kernel_rates(flows, first_epoch=1)
    _, second = _kernel_rates(flows, first_epoch=100)
    for component, frozen, rates, rounds in first:
        assert sorted(frozen, key=lambda f: f.seq) == component
        assert len(rates) == len(frozen)
        assert rounds >= (len(component) > 1)
    assert first == second
