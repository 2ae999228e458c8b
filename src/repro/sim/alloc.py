"""The max-min fair allocation kernel: component discovery and
progressive filling as two plain functions.

This module owns the *algorithm* and nothing else.  It imports nothing
from the package, reads no clock and fires no callback, so it can be
called on hand-built flows and links with no event loop running (the
oracle in ``tests/test_alloc_oracle.py`` does exactly that).  The
caller owns everything around it: which flows are dirty, what each
flow's cap is right now, and what happens to a flow once its rate is
known.

A *flow* has ``links`` (the non-empty tuple it traverses), ``seq`` (a
unique creation number: every ordering below is by ``seq``, never by
object identity) and ``_cap`` (its rate bound for this fill, set by the
caller beforehand).  A *link* has ``_capacity`` and ``flows``, the
seq-sorted list of every flow currently crossing it.  The kernel writes
only scratch slots: ``flow._frozen`` / ``flow._visit_epoch`` and
``link._alloc_epoch`` / ``_alloc_remaining`` / ``_alloc_unfrozen``, on
every link of a fill alike, share-heap and single-flow-list links.
``epoch`` is a caller-supplied stamp, distinct on every call, that
dedups flows and links without building a set or a dict.

Max-min fair shares factor over the connected components of the graph
whose vertices are flows and whose edges are shared links: a flow's
rate depends only on the flows it (transitively) shares a link with.
:func:`components` expands seed flows into whole components;
:func:`fill` allocates one.  Allocating only the components that hold a
changed flow or link gives the same rates as allocating all of them:
which components a pass refills is decided by the seeds the caller
passes, not by the kernel.

:func:`fill` hands back the flows *in the order they froze*: seq order
within a freeze batch, batches by rising bottleneck share.  The caller
notifies flows of their new rates in that order, so it decides the
order of every downstream event at equal timestamps — it is part of
the kernel's contract, not an implementation detail.
"""

from bisect import bisect_right
from heapq import heapify, heappop, heappush, heapreplace
from math import inf
from operator import attrgetter, itemgetter

__all__ = ["components", "fill"]

#: C-level sort keys — these orderings run on every allocation pass.
_flow_seq = attrgetter("seq")
_flow_cap = attrgetter("_cap")
_entry_share = itemgetter(0)
_entry_index = itemgetter(1)


def _oldest_seq(component):
    return component[0].seq


def components(seeds, epoch):
    """Connected components of the flow/shared-link graph reachable
    from ``seeds``, as flow lists sorted by creation sequence; the
    component list itself is ordered by each component's oldest flow,
    so the result is independent of seed order and of duplicates.

    Every seed must be on its own links' ``flows`` lists.  Visited
    marking uses the ``epoch`` stamp on the flows themselves — no
    per-pass set, no hashing on the hot path; afterwards exactly the
    returned flows carry ``_visit_epoch == epoch``.
    """
    found = []
    for seed in seeds:
        if seed._visit_epoch == epoch:
            continue
        seed._visit_epoch = epoch
        stack = [seed]
        stack_pop = stack.pop
        stack_append = stack.append
        component = []
        component_append = component.append
        while stack:
            flow = stack_pop()
            component_append(flow)
            for link in flow.links:
                # Expand each link once per pass: every flow on it
                # lands on the stack the first time, so revisiting
                # from a sibling flow would only rescan the list.
                if link._alloc_epoch != epoch:
                    link._alloc_epoch = epoch
                    for other in link.flows:
                        if other._visit_epoch != epoch:
                            other._visit_epoch = epoch
                            stack_append(other)
        component.sort(key=_flow_seq)
        found.append(component)
    found.sort(key=_oldest_seq)
    return found


def fill(flows, epoch):
    """Progressive filling (water-filling) over one connected component.

    ``flows`` is the component sorted by creation sequence, each with
    its ``_cap`` set.  Flows bounded below their fair share by their cap
    freeze at the cap; remaining capacity is repeatedly divided among
    unfrozen flows at the tightest link.  Returns ``(frozen, rates,
    rounds)``: the flows in freeze order, the rate each froze at, and
    the number of freeze rounds (each surfaces one bottleneck level).

    The bottleneck scan is a **lazy share heap** instead of an all-links
    rescan per round.  Correctness rests on the water-filling invariant
    that a link's fair share only *rises* as flows freeze: a heap entry
    recorded before a freeze touched its link is a lower bound on the
    live share, so resolving staleness at the top (recompute, re-push)
    still surfaces the true minimum, and popping every entry within the
    freeze tolerance of that minimum yields a superset of the links the
    freeze step must examine.  Candidates are re-tested against their
    *live* share in first-appearance order, so freeze sets, their order
    and the floating-point trajectory are those of a full rescan at
    O(changed links * log L) per round.  The cap-limited batch likewise
    comes from a cap-sorted prefix (monotone cursor, built lazily).

    Links carrying exactly one flow — most of a mesh's core links —
    never enter the heap.  Such a link's share is its capacity until
    its flow freezes, and the link is dead after that, so its entry can
    never go stale: the one-flow links wait in a list sorted by
    ``(capacity, first-appearance index)``, swept by a cursor.  The
    bottleneck is the smaller of the heap's fresh top and the cursor's
    head, the band is the heap band plus the list prefix at or below
    the threshold, and the first-appearance sort merges the two.
    """
    flow_count = len(flows)
    if flow_count == 1:
        # A lone flow owns all its links: the fill degenerates to
        # min(capacity) vs the flow's cap.  Same arithmetic, none of the
        # scaffolding.
        flow = flows[0]
        rate = flow._cap
        for link in flow.links:
            if link._capacity < rate:
                rate = link._capacity
        return flows, [rate], 0

    # Entries are ``(share, first-appearance index, link)``, in the heap
    # and the single-flow list alike; the index breaks float ties (links
    # are never compared) and restores a link scan's candidate order.
    min_cap = inf
    entries = []
    singles = []
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
                if count == 1:
                    singles.append((remaining, n_links, link))
                else:
                    entries.append((remaining / count, n_links, link))
                n_links += 1
    heapify(entries)
    # Built in index order and sorted stably: (capacity, index) order.
    singles.sort(key=_entry_share)
    n_singles = len(singles)
    single_cursor = 0

    # Flows in ascending cap order; ``cap_cursor`` sweeps forward as the
    # bottleneck share rises (shares are non-decreasing across rounds,
    # so a flow skipped once never needs re-checking until its cap is
    # reached).  ``flows`` is seq-sorted and the sort is stable, so
    # equal caps stay in creation order.  Built lazily: while
    # ``min_cap`` exceeds the fair share no cap can bind and the
    # ordering is never consulted.
    by_cap = None
    cap_cursor = 0

    frozen = []
    rates = []
    frozen_append = frozen.append
    rates_append = rates.append
    rounds = 0

    while len(frozen) < flow_count:
        rounds += 1
        # Surface the true minimum live share: pop dead links, and
        # re-push entries whose link was touched by a freeze since they
        # were recorded (their live share has risen).  The top is fresh
        # when its recorded share equals the live value.
        bottleneck_share = inf
        while entries:
            share, index, link = entries[0]
            count = link._alloc_unfrozen
            if count == 0:
                heappop(entries)  # dead: every flow on it froze
                continue
            live = link._alloc_remaining / count
            if live != share:
                # One sift instead of a pop + push: the stale top is
                # replaced by its own live share.
                heapreplace(entries, (live, index, link))
                continue
            bottleneck_share = share
            break
        # The single-flow list's head is fresh unless dead: skip those.
        while single_cursor < n_singles:
            share, index, link = singles[single_cursor]
            if link._alloc_unfrozen:
                if share < bottleneck_share:
                    bottleneck_share = share
                break
            single_cursor += 1
        if bottleneck_share is inf:
            # All remaining flows traverse only frozen links (cannot
            # happen with positive capacities, but guard anyway).
            for flow in flows:
                if not flow._frozen:
                    flow._frozen = True
                    frozen_append(flow)
                    rates_append(flow._cap)
            break
        threshold = bottleneck_share * (1 + 1e-12)

        # Freeze cap-limited flows first: any unfrozen flow whose cap is
        # at or below the current fair share gets exactly its cap.  The
        # heap is left untouched — entries for links these freezes
        # invalidate become stale lower bounds, resolved at the top of
        # the next round.
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
            # Freeze in creation order so per-link subtraction order —
            # and with it the exact floating-point trajectory — does
            # not depend on the cap values.
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

        # Otherwise freeze every flow on the bottleneck link(s): pop the
        # tolerance band (recorded shares are lower bounds, so every
        # link whose live share is within the band is in it), add the
        # single-flow prefix inside it, restore first-appearance order,
        # and re-test each candidate against its live share — identical
        # outcome to a full rescan, since shares only rise as flows
        # freeze.  Every flow frozen here has cap > share (cap-limited
        # ones froze above).  Shares are positive, so the fresh heap
        # top, when it is the bottleneck, is inside its own band.
        candidates = []
        while entries and entries[0][0] <= threshold:
            candidates.append(heappop(entries))
        # Each single-flow link in the band freezes its flow (or is dead).
        band_end = bisect_right(singles, threshold, single_cursor, key=_entry_share)
        candidates += singles[single_cursor:band_end]
        single_cursor = band_end
        if len(candidates) > 1:
            candidates.sort(key=_entry_index)
        rate = bottleneck_share if bottleneck_share > 0.0 else 0.0
        frozen_before = len(frozen)
        for _seen_share, index, link in candidates:
            count = link._alloc_unfrozen
            if count == 0:
                continue  # died inside this band: drop its entry
            if link._alloc_remaining / count <= threshold:
                # link.flows is maintained in seq order, which is the
                # freeze order within a batch.
                for flow in link.flows:
                    if flow._frozen:
                        continue
                    flow._frozen = True
                    for flow_link in flow.links:
                        flow_link._alloc_remaining -= bottleneck_share
                        flow_link._alloc_unfrozen -= 1
                    frozen_append(flow)
                    rates_append(rate)
            # Re-admit the candidate with its live share (it left the
            # heap when the band was popped); dead links stay out.
            count = link._alloc_unfrozen
            if count:
                heappush(entries, (link._alloc_remaining / count, index, link))
        if len(frozen) == frozen_before:  # numerical corner: freeze everything
            for flow in flows:
                if not flow._frozen:
                    flow._frozen = True
                    frozen_append(flow)
                    rates_append(flow._cap if flow._cap < rate else rate)
            break
    return frozen, rates, rounds
