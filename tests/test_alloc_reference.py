"""The single-flow list against the heap-only kernel it replaced.

``repro.sim.alloc.fill`` keeps links that carry one flow out of its
share heap, in a capacity-sorted list swept by a cursor.  That is an
optimisation, not a new algorithm: on every component it must return
the same freeze order, bit-identical rates and the same number of
rounds as the kernel that kept every link in the heap.  That kernel's
code is kept here verbatim as :func:`heap_fill`, and hypothesis draws the
components where the two could differ — most links carrying one flow,
many of them tied at exactly one capacity, and single-flow capacities
a hair above or below a shared link's share, inside and just outside
the ``1e-12`` freeze band.
"""

from heapq import heapify, heappop, heappush, heapreplace
from math import inf
from operator import attrgetter, itemgetter

from hypothesis import given, settings, strategies as st

from repro.sim import alloc
from repro.sim.links import Link
from repro.sim.tcp import Flow, TcpModel

# -- oracle: the heap-only fill the single-flow list replaced ---------------------

_flow_seq = attrgetter("seq")
_flow_cap = attrgetter("_cap")
_entry_index = itemgetter(1)


def heap_fill(flows, epoch):
    """Progressive filling with every link in one lazy share heap."""
    flow_count = len(flows)
    if flow_count == 1:
        flow = flows[0]
        rate = flow._cap
        for link in flow.links:
            if link._capacity < rate:
                rate = link._capacity
        return flows, [rate], 0

    min_cap = inf
    entries = []
    n_links = 0
    for flow in flows:
        if flow._cap < min_cap:
            min_cap = flow._cap
        flow._frozen = False
        for link in flow.links:
            if link._alloc_epoch != epoch:
                link._alloc_epoch = epoch
                remaining = link._capacity
                count = len(link.flows)
                link._alloc_remaining = remaining
                link._alloc_unfrozen = count
                entries.append((remaining / count, n_links, link))
                n_links += 1
    heapify(entries)

    by_cap = None
    cap_cursor = 0

    frozen = []
    rates = []
    frozen_append = frozen.append
    rates_append = rates.append
    rounds = 0

    while len(frozen) < flow_count:
        rounds += 1
        bottleneck_share = inf
        while entries:
            share, index, link = entries[0]
            count = link._alloc_unfrozen
            if count == 0:
                heappop(entries)
                continue
            live = link._alloc_remaining / count
            if live != share:
                heapreplace(entries, (live, index, link))
                continue
            bottleneck_share = share
            break
        if bottleneck_share is inf:
            for flow in flows:
                if not flow._frozen:
                    flow._frozen = True
                    frozen_append(flow)
                    rates_append(flow._cap)
            break
        threshold = bottleneck_share * (1 + 1e-12)

        cap_limited = None
        if min_cap <= bottleneck_share:
            if by_cap is None:
                by_cap = sorted(flows, key=_flow_cap)
            while cap_cursor < flow_count:
                flow = by_cap[cap_cursor]
                if flow._cap > bottleneck_share:
                    break
                cap_cursor += 1
                if not flow._frozen:
                    if cap_limited is None:
                        cap_limited = [flow]
                    else:
                        cap_limited.append(flow)
        if cap_limited is not None:
            if len(cap_limited) > 1:
                cap_limited.sort(key=_flow_seq)
            for flow in cap_limited:
                rate = flow._cap
                flow._frozen = True
                for link in flow.links:
                    link._alloc_remaining -= rate
                    link._alloc_unfrozen -= 1
                frozen_append(flow)
                rates_append(rate)
            continue

        candidates = [heappop(entries)]
        while entries and entries[0][0] <= threshold:
            candidates.append(heappop(entries))
        if len(candidates) > 1:
            candidates.sort(key=_entry_index)
        rate = bottleneck_share if bottleneck_share > 0.0 else 0.0
        frozen_before = len(frozen)
        for _seen_share, index, link in candidates:
            count = link._alloc_unfrozen
            if count == 0:
                continue
            if link._alloc_remaining / count <= threshold:
                for flow in link.flows:
                    if flow._frozen:
                        continue
                    flow._frozen = True
                    for flow_link in flow.links:
                        flow_link._alloc_remaining -= bottleneck_share
                        flow_link._alloc_unfrozen -= 1
                    frozen_append(flow)
                    rates_append(rate)
            count = link._alloc_unfrozen
            if count:
                heappush(entries, (link._alloc_remaining / count, index, link))
        if len(frozen) == frozen_before:
            for flow in flows:
                if not flow._frozen:
                    flow._frozen = True
                    frozen_append(flow)
                    rates_append(flow._cap if flow._cap < rate else rate)
            break
    return frozen, rates, rounds


# -- worlds where most links carry one flow -----------------------------------------

MODEL = TcpModel()
#: The one capacity most single-flow links share (a mesh's core links
#: all have the same bandwidth), so exact ties between them are common.
TIE = 250_000.0
#: Relative offsets of a near-tie from a shared link's share: inside the
#: ``1e-12`` band on either side, on it, and just outside it.
NEAR = [-7e-13, -1e-13, 0.0, 1e-13, 5e-13, 9e-13, 2e-12, 5e-12]


@st.composite
def single_heavy_worlds(draw):
    """2–12 flows.  Each crosses 1–3 private (single-flow) links and 0–2
    of up to 4 shared links, in drawn order.  Private capacities are
    mostly :data:`TIE`; some are a shared link's initial share nudged
    by a :data:`NEAR` offset.  Shared capacities are whole multiples of
    :data:`TIE` (so shares tie with the private links exactly) or
    arbitrary; caps are mostly infinite, sometimes at :data:`TIE`."""
    n_flows = draw(st.integers(2, 12))
    n_shared = draw(st.integers(1, 4))
    shared_paths = [
        draw(st.lists(st.integers(0, n_shared - 1), max_size=2, unique=True))
        for _ in range(n_flows)
    ]
    users = [sum(i in path for path in shared_paths) for i in range(n_shared)]
    shared_caps = [
        draw(
            st.one_of(
                st.just(TIE * max(n, 1)),
                st.integers(1, 8).map(lambda k: TIE * k),
                st.floats(1e4, 2e6),
            )
        )
        for n in users
    ]
    shares = [c / max(n, 1) for c, n in zip(shared_caps, users)]
    flows = []
    for path in shared_paths:
        private = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["tie", "tie", "tie", "near", "free"]))
            if kind == "tie":
                private.append(TIE)
            elif kind == "near":
                share = draw(st.sampled_from(shares))
                private.append(share * (1 + draw(st.sampled_from(NEAR))))
            else:
                private.append(draw(st.floats(1e4, 2e6)))
        slots = [("p", i) for i in range(len(private))] + [("s", i) for i in path]
        order = draw(st.permutations(slots))
        cap = draw(st.sampled_from([inf, inf, inf, TIE, TIE * 0.5, TIE * 3]))
        flows.append((private, order, cap))
    return shared_caps, flows


def _build(world):
    shared_caps, specs = world
    shared = [Link(f"s{i}", capacity=c) for i, c in enumerate(shared_caps)]
    flows = []
    for seq, (private_caps, order, cap) in enumerate(specs):
        private = [Link(f"p{seq}.{i}", capacity=c) for i, c in enumerate(private_caps)]
        path = [private[i] if kind == "p" else shared[i] for kind, i in order]
        flow = Flow(f"f{seq}", path, MODEL, started_at=0.0)
        flow.seq = seq
        flow._cap = cap
        for link in path:
            link.flows.append(flow)
        flows.append(flow)
    return flows


def _signature(frozen, rates, rounds):
    # ``float.hex`` makes rate equality bitwise.
    return [f.seq for f in frozen], [r.hex() for r in rates], rounds


@settings(derandomize=True, deadline=None, max_examples=300)
@given(single_heavy_worlds())
def test_single_flow_list_matches_the_heap_only_kernel(world):
    flows = _build(world)
    epoch = 1
    for component in alloc.components(flows, epoch):
        new = _signature(*alloc.fill(component, epoch + 1))
        old = _signature(*heap_fill(component, epoch + 2))
        assert new == old
        epoch += 2


def test_hundreds_of_tied_single_flow_links():
    """A mesh-like component: 300 flows, each with two private links at
    one capacity and two of three shared links whose shares tie with it
    exactly or sit inside the band.  A band holds hundreds of
    single-flow links, merged with heap links by index."""
    shared_caps = [TIE * 200, TIE * 200 * (1 + 5e-13), TIE * 200 * (1 - 5e-13)]
    specs = []
    for seq in range(300):
        near = ("s", seq % 3)
        far = ("s", (seq + 1) % 3)
        if seq % 2:
            order = [("p", 0), near, ("p", 1), far]
        else:
            order = [near, far, ("p", 0), ("p", 1)]
        specs.append(([TIE, TIE * (1 + (seq % 5) * 1e-13)], order, inf))
    flows = _build((shared_caps, specs))
    [component] = alloc.components(flows, 1)
    assert len(component) == 300
    new = _signature(*alloc.fill(component, 2))
    old = _signature(*heap_fill(component, 3))
    assert new == old
