"""Flow-level underlay rate-control models and the flow network.

Real Bullet' rides on per-peer TCP connections.  Their steady-state
throughput is governed by (a) fair sharing of bottleneck links with
competing flows and (b) a per-flow rate bound imposed by the underlay's
congestion controller.  This module owns (b) and the event glue around
(a); the max-min arithmetic itself lives in :mod:`repro.sim.alloc`.

Flow models
-----------

Which controller bounds a flow is a pluggable axis: the abstract
:class:`FlowModel` interface covers the path invariants (RTT, loss,
RTO), the steady-state cap, and the post-connect ramp cap, and
:class:`TcpModel` — registered as ``reno`` in
:data:`repro.harness.registry.FLOW_MODELS` and the default everywhere —
implements the loss-based Reno-shaped cap captured by the Mathis
model::

    rate <= MSS / (RTT * sqrt(2*p/3))

Model-based controllers (``bbr``, ``autorate`` — see
:mod:`repro.sim.flow_models`) instead derive a *time-varying* cap from
the allocator's own delivery-rate history and the path's delay
evolution; they declare ``dynamic = True`` and receive the
:meth:`FlowModel.path_refreshed` callback per flow and the batched
:meth:`FlowModel.dynamic_caps` / :meth:`FlowModel.observe_rates` calls
once per filled component.  Every dynamic hook is gated on that flag,
so the default Reno model pays one falsy test per call site.

The flow network: bookkeeping, kernel, settle
---------------------------------------------

:class:`FlowNetwork` tracks which flows are active and what changed
since the last pass.  Every activation, deactivation, capacity change
and loss/delay change records the touched flows/links in a dirty set;
changes within ``reallocation_interval`` are coalesced into one pass to
keep large experiments linear in the number of block transfers.  A pass
(:meth:`FlowNetwork.reallocate`) then

1. gathers seeds — dirty flows, the flows on dirty links, and flows
   whose slow-start cap is still *binding* (their cap grows with time; a
   ramp already above the flow's share cannot change the allocation and
   only has its ``ramp_done`` latch swept);
2. asks :func:`repro.sim.alloc.components` for the connected components
   those seeds reach, and for each one prices every flow's cap (one
   ``dynamic_caps`` call under a dynamic model), calls
   :func:`repro.sim.alloc.fill`, and
3. settles the flows in the freeze order ``fill`` returned: one
   ``observe_rates`` feed, then the one settle loop (ramp latch, dead
   band, ``flow.rate``, ``on_rate_change``).  Untouched components keep
   their rates with zero work and no callbacks.

Work per pass is proportional to the dirty components only.  The
kernel orders everything by creation sequence, so seed order cannot
influence results: passing every active flow as seeds would run the
identical arithmetic in the identical order and produce bit-identical
rates and event sequences (the tests build that every-flow twin and
assert it with a randomized property test and the scenario-matrix
golden tests).
Neither the model feed nor the callbacks fired from the settle loop
(transport reschedules) touch allocator state, which is what lets
settling wait until a component's fill has finished.

Link-condition dynamics
-----------------------

The link-condition engine lets scenarios drive ``loss_rate`` and
``delay`` as well as capacity (see :mod:`repro.sim.links`).  A
loss/delay mutation bumps the network's *condition epoch* and stamps
the link: active flows crossing it get their path invariants (Mathis
cap, RTT, loss, RTO) refreshed at once and their components re-filled;
idle flows refresh lazily at their next activation by comparing stamps.
With no such scenario the epoch never moves, and the mechanism costs
one always-equal integer compare per activation.
"""

import math
from bisect import insort
from operator import attrgetter

from repro.common.stats import ordered_sum
from repro.sim.alloc import components, fill

__all__ = ["FlowModel", "TcpModel", "Flow", "FlowNetwork"]

#: TCP maximum segment size used by the rate-model caps, in bytes.
MSS = 1460
#: Lower bound on the RTO estimate (seconds).
MIN_RTO = 0.2
#: Slow-start initial window (segments).
RAMP_INITIAL_SEGMENTS = 4


class FlowModel:
    """Abstract underlay rate-control model.

    A flow model answers four questions about any flow, given the links
    its path traverses:

    - the *path invariants* — RTT (:meth:`path_rtt`), aggregate loss
      probability (:meth:`path_loss`), and the retransmission timeout
      used to penalize control traffic (:meth:`retransmission_timeout`);
    - the *steady-state cap* (:meth:`steady_state_cap`) — the rate bound
      the controller converges to on this path (Reno: the Mathis cap;
      model-based controllers: ``inf``, their live bound is dynamic);
    - the *ramp cap* (:meth:`slow_start_cap_at`) — the bound while the
      window grows after connection establishment.

    Models whose live bound varies with time or history set
    ``dynamic = True`` and implement the dynamic hooks: the allocator
    then calls :meth:`flow_started` once per flow (attach per-flow state
    to ``flow.model_state``), :meth:`path_refreshed` when a traversed
    link's loss or delay moved, and, once per filled component,
    :meth:`dynamic_caps` before the fill and :meth:`observe_rates` (the
    delivery-rate feed) after it.  All hooks are gated on ``dynamic`` at
    the call sites, so a static model (Reno) pays nothing.

    Subclasses share the Reno-shaped RTO and exponential ramp by
    default (the dynamic models inline the ramp in their
    :meth:`dynamic_caps` loop).  A model has no knobs: its constants
    (:data:`MSS`, :data:`MIN_RTO`, :data:`RAMP_INITIAL_SEGMENTS` and
    each model's own) are module constants, and a run names a model
    and nothing more.
    """

    #: Canonical registry name (display metadata; the registry is the
    #: source of truth for lookup).
    name = "abstract"
    #: True when the steady-state cap varies with time/history.  Dynamic
    #: flows never latch ``ramp_done`` — they re-enter every allocation
    #: pass so the model's control loop ticks on the allocator cadence.
    dynamic = False

    def path_loss(self, links):
        """Aggregate loss probability across ``links`` (independent drops)."""
        keep = 1.0
        for link in links:
            keep *= 1.0 - link.loss_rate
        return 1.0 - keep

    def path_rtt(self, links):
        """Round-trip time: twice the one-way propagation delay."""
        return 2.0 * ordered_sum(link.delay for link in links)

    def steady_state_cap(self, links):
        """Steady-state rate bound in bytes/second (``inf`` = unbounded)."""
        raise NotImplementedError

    def retransmission_timeout(self, links):
        """RTO estimate used to penalize control messages on lossy paths."""
        return max(MIN_RTO, 2.0 * self.path_rtt(links))

    def slow_start_cap_at(self, rtt, age):
        """Slow-start rate bound from a precomputed path RTT.

        The window starts at :data:`RAMP_INITIAL_SEGMENTS` segments and
        doubles every RTT, so the achievable rate at connection age
        ``age`` is ``initial * 2^(age/RTT) * MSS / RTT``.
        """
        rtt = max(rtt, 1e-4)
        doublings = age / rtt
        if doublings > 40:  # beyond any practical window growth
            return math.inf
        window_segments = RAMP_INITIAL_SEGMENTS * (2.0 ** doublings)
        return window_segments * MSS / rtt

    # -- dynamic-model hooks (called only when ``dynamic``) -----------------

    def flow_started(self, flow, now):
        """Attach per-flow controller state (``flow.model_state``)."""

    def path_refreshed(self, flow, now):
        """The flow's path invariants were just recomputed (loss/delay
        moved); dynamic models resample their delay baselines here."""

    def dynamic_caps(self, flows, now):
        """Set ``flow._cap`` for one component's flows (seq order) before
        its fill: the slow-start ramp or the model's live bound,
        whichever is lower."""
        raise NotImplementedError

    def observe_rates(self, flows, rates, now):
        """One settled component, in freeze order: the model's
        delivery-rate feed."""


class TcpModel(FlowModel):
    """Reno-shaped loss-based throughput bounds (the ``reno`` model).

    The steady-state cap is the Mathis model's loss/RTT bound — the
    underlay the paper evaluated against.  This model is static
    (``dynamic`` stays False): its cap is a pure function of the path,
    so the allocator's fast paths skip every dynamic hook.
    """

    name = "reno"

    def mathis_cap(self, links):
        """Loss-bounded steady-state throughput in bytes/second.

        Returns ``inf`` on loss-free paths (the fair-share allocation is
        then the only bound, as for a long TCP flow with ample windows).
        """
        p = self.path_loss(links)
        if p <= 0.0:
            return math.inf
        rtt = max(self.path_rtt(links), 1e-4)
        return MSS / (rtt * math.sqrt(2.0 * p / 3.0))

    steady_state_cap = mathis_cap


class Flow:
    """One direction of a TCP connection, as seen by the allocator.

    ``seq`` is the creation sequence number assigned by the network; the
    allocator orders flows by it so that allocation (and therefore rate-
    change callback order, event sequencing, and ultimately experiment
    results) never depends on object identity — iterating a ``set`` of
    flows follows ``id()``, i.e. memory addresses, which vary with
    process allocation history.
    """

    __slots__ = (
        "name", "seq", "links", "mathis_cap", "rtt", "loss", "rto", "started_at",
        "rate", "ramp_done", "ramp_binding", "on_rate_change", "on_path_change",
        "model_state", "_active", "_cap", "_frozen", "_visit_epoch", "_path_epoch",
    )

    def __init__(self, name, links, model, started_at):
        self.name = name
        self.seq = -1
        self.links = tuple(links)
        #: Steady-state cap from the flow model.  The attribute keeps
        #: its historical name (the Mathis cap is what the default Reno
        #: model computes here); dynamic models set it to ``inf`` and
        #: impose their live bound through ``FlowModel.dynamic_caps``.
        self.mathis_cap = model.steady_state_cap(links)
        self.rtt = model.path_rtt(links)
        self.loss = model.path_loss(links)
        self.rto = model.retransmission_timeout(links)
        self.started_at = started_at
        self.rate = 0.0
        #: Latched True once the slow-start window has grown past the
        #: Mathis cap; the cap is then time-invariant and the allocator
        #: stops recomputing the exponential ramp for this flow.
        self.ramp_done = False
        #: While ramping: did the slow-start cap determine the rate at
        #: the last fill?  A non-binding ramp (rate strictly below the
        #: cap) cannot change its component's allocation as the cap
        #: grows, so such flows do not force component refills.
        self.ramp_binding = True
        #: Callback ``on_rate_change(flow, old_rate)`` fired when the
        #: allocation changes the flow's rate; the transport credits
        #: progress at ``old_rate`` and reschedules transmissions.
        self.on_rate_change = None
        #: Callback ``on_path_change(flow)`` fired after the path
        #: invariants above (Mathis cap, RTT, loss, RTO) were refreshed
        #: because a traversed link's loss rate or delay changed; the
        #: transport re-reads its cached per-connection copies.
        self.on_path_change = None
        #: Per-flow controller scratch owned by dynamic flow models
        #: (``FlowModel.flow_started`` fills it in); None under the
        #: static Reno model.
        self.model_state = None
        self._active = False
        #: Allocation scratch: instantaneous cap (``flow_cap`` or
        #: ``FlowModel.dynamic_caps``) / frozen marker for the pass in
        #: progress, plus the BFS visit stamp of component discovery.
        self._cap = 0.0
        self._frozen = False
        self._visit_epoch = -1
        #: Condition epoch (see FlowNetwork) at which the path invariants
        #: were last computed; lets idle flows refresh lazily.
        self._path_epoch = 0

    def __repr__(self):
        return f"Flow({self.name!r}, rate={self.rate:.0f}B/s, active={self._active})"


#: C-level sort key: ``link.flows`` is kept in creation order.
_flow_seq = attrgetter("seq")


class FlowNetwork:
    """Max-min fair rate allocation over a set of links.

    The transport activates a flow when its send queue becomes non-empty
    and deactivates it when the queue drains.  Each activation change or
    link-capacity change marks the allocation dirty; a reallocation event
    runs at most once per ``reallocation_interval`` of simulated time
    (changes within one interval are coalesced, trading a bounded amount
    of short-term accuracy for linear running time).

    A pass refills only the components holding a dirty flow, a dirty
    link, or a binding ramp (see the module docstring).
    """

    def __init__(self, sim, model=None, reallocation_interval=0.01):
        self.sim = sim
        self.model = model if model is not None else TcpModel()
        #: Hoisted dynamic-model gate, checked at every hook call site.
        self._dynamic = bool(self.model.dynamic)
        self.reallocation_interval = reallocation_interval
        self._active_flows = set()
        self._flow_seq = 0
        self._dirty = False
        self._realloc_scheduled = False
        self._last_realloc = -math.inf
        #: Flows activated or path-refreshed since the last pass (all
        #: active: ``deactivate`` discards); seeds for the next one.
        self._dirty_flows = set()
        #: Links whose capacity changed or whose flow set shrank.
        self._dirty_links = set()
        #: Active flows still inside slow-start: their cap grows with
        #: time, so their components must be revisited every pass.
        self._ramping_flows = set()
        #: Last stamp handed to the kernel; each ``components`` / ``fill``
        #: call gets a fresh one (dedup without sets or dictionaries).
        self._alloc_epoch = 0
        #: Monotone count of loss/delay mutations (the *condition
        #: epoch*); flows stamp the epoch their path invariants were
        #: computed at, which is ``activate``'s staleness test.
        self._cond_epoch = 0
        #: Allocation passes; components / flows actually re-filled.
        self.reallocations = 0
        self.components_allocated = 0
        self.flows_allocated = 0
        self.max_component_size = 0
        #: Progressive-filling freeze rounds across all fills (each round
        #: surfaces one bottleneck level).
        self.fill_rounds = 0
        #: Per-flow path-invariant recomputations forced by loss/delay
        #: condition changes (zero in capacity-only runs).
        self.path_refreshes = 0

    def new_flow(self, name, links):
        if not links:
            raise ValueError(f"flow {name!r} has an empty path")
        flow = Flow(name, links, self.model, started_at=self.sim.now)
        flow.seq = self._flow_seq
        self._flow_seq += 1
        flow._path_epoch = self._cond_epoch
        if self._dynamic:
            self.model.flow_started(flow, self.sim.now)
        for link in links:
            if link.on_capacity_change is None:
                link.on_capacity_change = self._capacity_changed
            if link.on_condition_change is None:
                link.on_condition_change = self._condition_changed
        return flow

    def activate(self, flow):
        """Mark ``flow`` as having data to send."""
        if flow._active:
            return
        if flow._path_epoch != self._cond_epoch:
            # Some link somewhere changed loss/delay since this flow's
            # invariants were computed; recompute only if one of *its*
            # links did (idle flows are refreshed here, lazily — active
            # flows eagerly in _condition_changed).
            stamp = flow._path_epoch
            for link in flow.links:
                if link._cond_stamp > stamp:
                    self._refresh_flow_path(flow)
                    break
            else:
                flow._path_epoch = self._cond_epoch
        flow._active = True
        self._active_flows.add(flow)
        for link in flow.links:
            insort(link.flows, flow, key=_flow_seq)
        self._dirty_flows.add(flow)
        if not flow.ramp_done:
            flow.ramp_binding = True
            self._ramping_flows.add(flow)
        # _mark_dirty inlined (hot: every queue busy/idle transition).
        self._dirty = True
        if not self._realloc_scheduled:
            self._schedule_realloc()

    def deactivate(self, flow):
        """Mark ``flow`` idle; its share is redistributed."""
        if not flow._active:
            return
        flow._active = False
        self._active_flows.discard(flow)
        for link in flow.links:
            link.flows.remove(flow)
        flow.rate = 0.0
        self._dirty_flows.discard(flow)
        self._ramping_flows.discard(flow)
        # The freed share goes to whoever else crosses these links.
        self._dirty_links.update(flow.links)
        self._dirty = True
        if not self._realloc_scheduled:
            self._schedule_realloc()

    def _capacity_changed(self, link):
        self._dirty_links.add(link)
        # _mark_dirty inlined (every observed link, every oscillation tick).
        self._dirty = True
        if not self._realloc_scheduled:
            self._schedule_realloc()

    def _condition_changed(self, link):
        """A link's loss rate or delay moved (the link-condition engine).

        Active flows crossing the link get their path invariants
        refreshed immediately and seed the next allocation pass (their
        Mathis cap — and with it their component's max-min allocation —
        may have moved).  Idle flows refresh lazily at activation via
        the epoch stamps, so a burst of loss events on a quiet link
        costs nothing per existing flow.
        """
        self._cond_epoch += 1
        link._cond_stamp = self._cond_epoch
        if link.flows:
            for flow in link.flows:
                self._refresh_flow_path(flow)
            self._dirty_flows.update(link.flows)
            self._mark_dirty()

    def _refresh_flow_path(self, flow):
        """Recompute one flow's path invariants from its links' current
        conditions, then notify the transport (``on_path_change``).

        The slow-start latch is reset rather than recomputed: the next
        ``flow_cap`` call re-evaluates the (age-driven, monotone) window
        against the new Mathis cap and re-latches ``ramp_done`` exactly
        where a from-scratch flow of the same age would.
        """
        self.path_refreshes += 1
        model = self.model
        links = flow.links
        flow.mathis_cap = model.steady_state_cap(links)
        flow.rtt = model.path_rtt(links)
        flow.loss = model.path_loss(links)
        flow.rto = model.retransmission_timeout(links)
        flow.ramp_done = False
        flow.ramp_binding = True
        flow._path_epoch = self._cond_epoch
        if flow._active:
            self._ramping_flows.add(flow)
        if self._dynamic:
            # Dynamic models resample their delay baselines here — this
            # is the only place a path's RTT can move mid-run, so it is
            # the autorate controller's congestion signal.
            model.path_refreshed(flow, self.sim.now)
        if flow.on_path_change is not None:
            flow.on_path_change(flow)

    def _mark_dirty(self):
        self._dirty = True
        if not self._realloc_scheduled:
            self._schedule_realloc()

    def _schedule_realloc(self):
        elapsed = self.sim.now - self._last_realloc
        delay = self.reallocation_interval - elapsed
        self._realloc_scheduled = True
        self.sim.schedule(delay if delay > 0.0 else 0.0, self._run_reallocation)

    def _run_reallocation(self):
        self._realloc_scheduled = False
        if not self._dirty:
            return
        self._dirty = False
        self._last_realloc = self.sim.now
        self.reallocate()

    def flow_cap(self, flow):
        """Instantaneous rate bound under a static model (Reno).

        The slow-start window only grows, so once it crosses the Mathis
        cap the result is ``mathis_cap`` forever; ``ramp_done`` latches
        that and skips the exponential recompute from then on.  Dynamic
        models price flows in ``FlowModel.dynamic_caps`` and never latch:
        their flows stay in the ramping set, which keeps the revisit loop
        (the controller's tick) alive while they are active.
        """
        if flow.ramp_done:
            return flow.mathis_cap
        ramp = self.model.slow_start_cap_at(flow.rtt, self.sim.now - flow.started_at)
        if ramp < flow.mathis_cap:
            return ramp
        flow.ramp_done = True
        self._ramping_flows.discard(flow)
        return flow.mathis_cap

    # -- the allocation pass ---------------------------------------------------

    def reallocate(self):
        """Run one allocation pass over every dirty component.

        The kernel (:mod:`repro.sim.alloc`) finds the components and
        fills them; this method chooses the seeds, prices each flow's
        cap before its component is filled, and settles the flows in
        the freeze order the kernel hands back.
        """
        self.reallocations += 1
        if not self._active_flows:
            self._dirty_flows.clear()
            self._dirty_links.clear()
            return
        seeds = list(self._dirty_flows)
        for link in self._dirty_links:
            seeds.extend(link.flows)
        if self._dynamic:
            # Dynamic-model caps can *shrink* (backoff), so a cap that
            # was non-binding last pass may bind now: every live flow
            # must be revisited, binding or not.
            seeds.extend(self._ramping_flows)
        else:
            # Ramping flows force a refill only while their slow-start
            # cap is *binding*: a cap already above the flow's share
            # cannot change the component's allocation by growing.
            seeds.extend(f for f in self._ramping_flows if f.ramp_binding)
        self._dirty_flows.clear()
        self._dirty_links.clear()

        # One stamp for discovery (flows carrying it were refilled this
        # pass), then a fresh one per fill.
        epoch = bfs_epoch = self._alloc_epoch + 1
        flow_cap = self.flow_cap
        now = self.sim.now
        # A dynamic model prices each component in one call and samples
        # every settled rate in one more (even an unchanged rate: a
        # windowed filter such as BBR's needs fresh samples so old maxima
        # can expire); ``None`` keeps the static path branch-only.
        model = self.model if self._dynamic else None
        for component in components(seeds, bfs_epoch):
            size = len(component)
            self.components_allocated += 1
            self.flows_allocated += size
            if size > self.max_component_size:
                self.max_component_size = size
            if model is not None:
                model.dynamic_caps(component, now)
            else:
                for flow in component:
                    # Past slow-start: the precomputed Mathis cap, no call.
                    flow._cap = flow.mathis_cap if flow.ramp_done else flow_cap(flow)
            epoch += 1
            frozen, rates, rounds = fill(component, epoch)
            self.fill_rounds += rounds
            # The one settle site.  Freeze order is callback order.
            if model is not None:
                model.observe_rates(frozen, rates, now)
            for flow, rate in zip(frozen, rates):
                if not flow.ramp_done:
                    # The ramp cap bound this fill iff it set the rate:
                    # only a cap-limited freeze assigns the cap itself,
                    # so ``>=`` identifies it exactly.
                    flow.ramp_binding = rate >= flow._cap
                # Dead band: a rate that moved by less than 1e-9 B/s is
                # the same rate, and reschedules nothing.
                diff = rate - flow.rate
                if diff > 1e-9 or diff < -1e-9:
                    old_rate = flow.rate
                    flow.rate = rate
                    if flow.on_rate_change is not None:
                        # The old rate is passed so byte-progress accrued
                        # since the last event is credited at the rate
                        # that actually applied (crediting at the new
                        # rate would let an oversubscribed link deliver
                        # more than its capacity).
                        flow.on_rate_change(flow, old_rate)
        self._alloc_epoch = epoch

        if self._ramping_flows and model is None:
            # Ramping flows whose component was not refilled still track
            # the window growth: latch ramp_done exactly when a full
            # recomputation (one that refills every component) would, so
            # the revisit schedule, and with it the event timeline, is
            # the same as under that recomputation.  A dynamic model
            # seeds every ramping flow, so none is left unvisited there.
            for flow in list(self._ramping_flows):
                if flow._visit_epoch != bfs_epoch:
                    flow_cap(flow)

        if self._ramping_flows and not self._realloc_scheduled:
            # Some flow is still inside its slow-start ramp: its cap grows
            # with time, so revisit the allocation shortly.  The revisit
            # delay has a positive floor so a zero reallocation interval
            # cannot spin at one timestamp.
            self._dirty = True
            self._realloc_scheduled = True
            delay = max(self.reallocation_interval, 0.005)
            self.sim.schedule(delay, self._run_reallocation)

    def perf_stats(self):
        """Allocator work counters (all deterministic for a fixed seed)."""
        filled = self.components_allocated
        return {
            "reallocations": self.reallocations,
            "components_allocated": filled,
            "flows_allocated": self.flows_allocated,
            "fill_rounds": self.fill_rounds,
            "path_refreshes": self.path_refreshes,
            "max_component_size": self.max_component_size,
            "mean_component_size": (
                round(self.flows_allocated / filled, 3) if filled else 0.0
            ),
        }
