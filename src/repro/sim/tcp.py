"""Flow-level underlay rate-control models and the max-min allocator.

Real Bullet' rides on per-peer TCP connections.  Their steady-state
throughput is governed by (a) fair sharing of bottleneck links with
competing flows and (b) a per-flow rate bound imposed by the underlay's
congestion controller.  Which controller is a pluggable axis: the
abstract :class:`FlowModel` interface covers the path invariants (RTT,
loss, RTO), the steady-state cap, and the post-connect ramp cap, and
:class:`TcpModel` — registered as ``reno`` in
:data:`repro.harness.registry.FLOW_MODELS` and the default everywhere —
implements the loss-based Reno-shaped cap captured by the Mathis
model::

    rate <= MSS / (RTT * sqrt(2*p/3))

Model-based controllers (``bbr``, ``autorate`` — see
:mod:`repro.sim.flow_models`) instead derive a *time-varying* cap from
the allocator's own delivery-rate history and the path's delay
evolution; they declare ``dynamic = True`` and receive the
:meth:`FlowModel.observe_rate` / :meth:`FlowModel.path_refreshed` /
:meth:`FlowModel.dynamic_cap` callbacks below.  Every dynamic hook is
gated on that flag, so a :class:`FlowNetwork` running the default Reno
model executes the exact pre-redesign instruction stream — the golden
matrices pin this bit for bit.

:class:`FlowNetwork` implements progressive filling (water-filling)
max-min fair allocation over the links each flow traverses, with each
flow additionally bounded by its model cap and a slow-start ramp after
connection establishment.  Allocation is recomputed when the set of
active flows changes or a link capacity changes; recomputations within
``reallocation_interval`` are coalesced to keep large experiments linear
in the number of block transfers.

Incremental, component-scoped allocation
----------------------------------------

Max-min fair shares factor over the *connected components* of the graph
whose vertices are active flows and whose edges are shared links: a
flow's rate depends only on the flows it (transitively) shares a link
with.  The allocator exploits this.  Every activation, deactivation, and
capacity change records the touched flows/links in a dirty set; a
reallocation pass then

1. expands the dirty seeds into full components by breadth-first search
   over the ``link.flows`` adjacency (flows whose slow-start cap is
   still *binding* are seeds too — their cap grows with time; a ramp
   already above the flow's share cannot change the allocation and only
   has its ``ramp_done`` latch swept),
2. re-runs progressive filling over those components only, and
3. leaves every untouched component's rates exactly as they are —
   zero work, no callbacks.

Complexity per pass is ``O(F_d + L_d + I_d * L_d)`` where ``F_d``/``L_d``
are the flows/links in dirty components and ``I_d`` the filling
iterations there, instead of the same expression over the whole network.
With ``incremental=False`` every component is recomputed on every pass;
because both modes run the identical per-component arithmetic in the
identical order, they produce bit-identical rates and event sequences —
the equivalence is asserted by a randomized property test and by the
scenario-matrix golden tests.

One scoping note: per-component processing settles each component in
creation order, whereas the legacy *global* fill interleaved freezes
across components by bottleneck-share rounds.  Rates are identical
either way (max-min allocation factors over components), but when two
events in *different* components land on exactly the same timestamp,
their tie-break order can differ from the legacy trajectory — an
equally valid schedule.  The recorded golden matrix pins the realized
behavior; the incremental ≡ full guarantee is unaffected (both modes
settle per component).

Link-condition dynamics
-----------------------

Capacity is not the only runtime-mutable link knob: the link-condition
engine lets scenarios drive ``loss_rate`` and ``delay`` too (see
:mod:`repro.sim.links`).  A loss/delay mutation bumps the network's
*condition epoch* and stamps the link; active flows crossing the link
get their path invariants (Mathis cap, RTT, loss, RTO) refreshed
immediately and their components re-filled, while idle flows refresh
lazily at their next activation by comparing stamps.  When no scenario
touches loss or delay the epoch never moves and the whole mechanism
reduces to one always-equal integer compare per activation — which is
why capacity-only runs are bit-identical to the pre-engine code.

Per-flow invariants (Mathis cap, RTT, loss, RTO) are computed once at
flow creation (and refreshed on condition changes as above), and a
``ramp_done`` latch stops flows past slow-start
from paying the exponential window recompute or scheduling further ramp
revisits.  Per-link allocation scratch (``remaining`` capacity and
unfrozen-flow counts) lives in slots on the :class:`~repro.sim.links.Link`
itself, updated in place, so a pass allocates no per-link dictionaries.
"""

import heapq
import math
from bisect import insort
from operator import attrgetter
from operator import itemgetter

from repro.common.params import Configurable, Param

__all__ = ["FlowModel", "TcpModel", "Flow", "FlowNetwork"]

#: TCP maximum segment size used by the rate-model caps, in bytes.
MSS = 1460


class FlowModel(Configurable):
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
    to ``flow.model_state``), :meth:`observe_rate` whenever a fill
    settles the flow's rate (the delivery-rate feed),
    :meth:`path_refreshed` when a traversed link's loss or delay moved,
    and :meth:`dynamic_cap` for the instantaneous cap on every fill.
    All hooks are gated on ``dynamic`` at the call sites, so a static
    model (Reno) pays nothing — its instruction stream is bit-identical
    to the pre-interface allocator.

    Subclasses share the Reno-shaped RTO and exponential ramp by
    default; both are overridable.  Knobs are declared as ``params``
    (see :class:`~repro.common.params.Configurable`); a subclass extends
    this tuple with the knobs it adds.
    """

    #: Canonical registry name (display metadata; the registry is the
    #: source of truth for lookup).
    name = "abstract"
    #: True when the steady-state cap varies with time/history.  Dynamic
    #: flows never latch ``ramp_done`` — they re-enter every allocation
    #: pass so the model's control loop ticks on the allocator cadence.
    dynamic = False

    params = (
        Param("mss", "int", MSS, "TCP maximum segment size (bytes)", "[1, inf)"),
        Param(
            "min_rto",
            "float",
            0.2,
            "lower bound on the RTO estimate (seconds)",
            "[0, inf)",
        ),
        Param(
            "ramp_initial_segments",
            "int",
            4,
            "slow-start initial window (segments)",
            "[1, inf)",
        ),
    )

    def path_loss(self, links):
        """Aggregate loss probability across ``links`` (independent drops)."""
        keep = 1.0
        for link in links:
            keep *= 1.0 - link.loss_rate
        return 1.0 - keep

    def path_rtt(self, links):
        """Round-trip time: twice the one-way propagation delay."""
        return 2.0 * sum(link.delay for link in links)

    def steady_state_cap(self, links):
        """Steady-state rate bound in bytes/second (``inf`` = unbounded)."""
        raise NotImplementedError

    def retransmission_timeout(self, links):
        """RTO estimate used to penalize control messages on lossy paths."""
        return max(self.min_rto, 2.0 * self.path_rtt(links))

    def slow_start_cap_at(self, rtt, age):
        """Slow-start rate bound from a precomputed path RTT.

        The window starts at ``ramp_initial_segments`` segments and
        doubles every RTT, so the achievable rate at connection age
        ``age`` is ``initial * 2^(age/RTT) * MSS / RTT``.
        """
        rtt = max(rtt, 1e-4)
        doublings = age / rtt
        if doublings > 40:  # beyond any practical window growth
            return math.inf
        window_segments = self.ramp_initial_segments * (2.0 ** doublings)
        return window_segments * self.mss / rtt

    def slow_start_cap(self, links, age):
        """Rate bound while the congestion window ramps up.

        Approximates slow start: the window starts at
        ``ramp_initial_segments`` segments and doubles every RTT, so the
        achievable rate at connection age ``age`` is
        ``initial * 2^(age/RTT) * MSS / RTT``.
        """
        return self.slow_start_cap_at(self.path_rtt(links), age)

    # -- dynamic-model hooks (no-ops for static models) --------------------

    def flow_started(self, flow, now):
        """Attach per-flow controller state (``flow.model_state``)."""

    def observe_rate(self, flow, rate, now):
        """One settled allocation: the model's delivery-rate feed."""

    def path_refreshed(self, flow, now):
        """The flow's path invariants were just recomputed (loss/delay
        moved); dynamic models resample their delay baselines here."""

    def dynamic_cap(self, flow, now):
        """Instantaneous steady-state bound for a dynamic model."""
        return flow.mathis_cap


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
        return self.mss / (rtt * math.sqrt(2.0 * p / 3.0))

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
        "name",
        "seq",
        "links",
        "mathis_cap",
        "rtt",
        "loss",
        "rto",
        "started_at",
        "rate",
        "ramp_done",
        "ramp_binding",
        "on_rate_change",
        "on_path_change",
        "model_state",
        "_active",
        "_network",
        "_cap",
        "_frozen",
        "_visit_epoch",
        "_path_epoch",
    )

    def __init__(self, name, links, model, started_at):
        self.name = name
        self.seq = -1
        self.links = tuple(links)
        #: Steady-state cap from the flow model.  The attribute keeps
        #: its historical name (the Mathis cap is what the default Reno
        #: model computes here); dynamic models set it to ``inf`` and
        #: impose their live bound through ``FlowModel.dynamic_cap``.
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
        #: transport re-reads its cached per-channel copies.
        self.on_path_change = None
        #: Per-flow controller scratch owned by dynamic flow models
        #: (``FlowModel.flow_started`` fills it in); None under the
        #: static Reno model.
        self.model_state = None
        self._active = False
        self._network = None
        #: Allocation scratch: instantaneous cap / frozen marker for the
        #: pass currently in progress (valid only inside reallocate()),
        #: plus the BFS visit stamp used by component discovery.
        self._cap = 0.0
        self._frozen = False
        self._visit_epoch = -1
        #: Condition epoch (see FlowNetwork) at which the path invariants
        #: were last computed; lets idle flows refresh lazily.
        self._path_epoch = 0

    @property
    def active(self):
        return self._active

    def __repr__(self):
        return f"Flow({self.name!r}, rate={self.rate:.0f}B/s, active={self._active})"


#: C-level sort keys — these orderings run on every allocation pass.
_flow_seq = attrgetter("seq")
_flow_cap = attrgetter("_cap")
_entry_index = itemgetter(1)


class FlowNetwork:
    """Max-min fair rate allocation over a set of links.

    The transport activates a flow when its send queue becomes non-empty
    and deactivates it when the queue drains.  Each activation change or
    link-capacity change marks the allocation dirty; a reallocation event
    runs at most once per ``reallocation_interval`` of simulated time
    (changes within one interval are coalesced, trading a bounded amount
    of short-term accuracy for linear running time).

    With ``incremental=True`` (the default) a reallocation pass only
    recomputes the connected components of the active-flow/shared-link
    graph that contain a dirty flow, a dirty link, or a flow still in
    its slow-start ramp; untouched components keep their rates with zero
    work.  ``incremental=False`` recomputes every component each pass
    using the same per-component arithmetic — by construction the two
    modes produce bit-identical rates (see the module docstring).
    """

    def __init__(self, sim, model=None, reallocation_interval=0.01,
                 incremental=True):
        self.sim = sim
        self.model = model if model is not None else TcpModel()
        #: Hoisted dynamic-model gate: checked on the hot fill paths, so
        #: static models (Reno, the default) execute the pre-interface
        #: instruction stream with one extra falsy attribute read.
        self._dynamic = bool(self.model.dynamic)
        self.reallocation_interval = reallocation_interval
        self.incremental = incremental
        self._active_flows = set()
        self._flow_seq = 0
        self._dirty = False
        self._realloc_scheduled = False
        self._last_realloc = -math.inf
        #: Flows activated since the last pass (seeds for the BFS).
        self._dirty_flows = set()
        #: Links whose capacity changed or whose flow set shrank.
        self._dirty_links = set()
        #: Active flows still inside slow-start: their cap grows with
        #: time, so their components must be revisited every pass.
        self._ramping_flows = set()
        #: Monotone pass id for link-list dedup without dictionaries.
        self._alloc_epoch = 0
        #: Monotone count of loss/delay mutations anywhere in the
        #: network (the *condition epoch*).  Flows stamp the epoch their
        #: path invariants were computed at; while no scenario touches
        #: loss or delay this never moves, the staleness test in
        #: ``activate`` is a single always-equal int compare, and the
        #: capacity-only trajectory is bit-identical to the pre-engine
        #: code by construction.
        self._cond_epoch = 0
        #: Epoch used by the latest component discovery (flows stamped
        #: with it were refilled this pass).
        self._last_bfs_epoch = -1
        #: Number of allocation passes performed.
        self.reallocations = 0
        #: Components / flows actually re-filled (allocator work done).
        self.components_allocated = 0
        self.flows_allocated = 0
        self.max_component_size = 0
        #: Progressive-filling freeze rounds across all fills (each round
        #: surfaces one bottleneck level from the share heap).
        self.fill_rounds = 0
        #: Per-flow path-invariant recomputations forced by loss/delay
        #: condition changes (zero in capacity-only runs).
        self.path_refreshes = 0

    def new_flow(self, name, links):
        flow = Flow(name, links, self.model, started_at=self.sim.now)
        flow.seq = self._flow_seq
        self._flow_seq += 1
        flow._network = self
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
        self._mark_dirty()

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
        """Instantaneous per-flow rate bound (steady cap + slow-start).

        Static models (Reno): the slow-start window only grows, so once
        it crosses the Mathis cap the result is ``mathis_cap`` forever;
        ``ramp_done`` latches that and skips the exponential recompute
        from then on.  Dynamic models: the steady bound itself moves
        (and can *shrink*), so the latch never engages — the model's
        ``dynamic_cap`` is consulted on every fill and the flow stays in
        the ramping set, which keeps the periodic revisit loop (the
        controller's tick) alive while the flow is active.
        """
        if flow.ramp_done:
            return flow.mathis_cap
        age = self.sim.now - flow.started_at
        ramp = self.model.slow_start_cap_at(flow.rtt, age)
        if self._dynamic:
            steady = self.model.dynamic_cap(flow, self.sim.now)
            return ramp if ramp < steady else steady
        if ramp < flow.mathis_cap:
            return ramp
        flow.ramp_done = True
        self._ramping_flows.discard(flow)
        return flow.mathis_cap

    # -- component discovery ---------------------------------------------------

    def _components(self, seeds):
        """Connected components of the active-flow graph reachable from
        ``seeds``, as flow lists sorted by creation sequence; the
        component list itself is ordered by each component's oldest flow
        so downstream callback order is independent of seed order.

        Visited marking uses an epoch stamp on the flows themselves —
        no per-pass set, no hashing on the hot path.
        """
        self._alloc_epoch += 1
        epoch = self._alloc_epoch
        self._last_bfs_epoch = epoch
        components = []
        for seed in seeds:
            if seed._visit_epoch == epoch or not seed._active:
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
                    # from a sibling flow would only rescan the set.
                    if link._alloc_epoch != epoch:
                        link._alloc_epoch = epoch
                        for other in link.flows:
                            if other._visit_epoch != epoch:
                                other._visit_epoch = epoch
                                stack_append(other)
            component.sort(key=_flow_seq)
            components.append(component)
        components.sort(key=lambda component: component[0].seq)
        return components

    def reallocate(self):
        """Run one allocation pass over every dirty component.

        Progressive filling: flows bounded below their fair share by
        their cap are frozen at the cap; remaining capacity is repeatedly
        divided among unfrozen flows at the tightest link.
        """
        self.reallocations += 1
        if not self._active_flows:
            self._dirty_flows.clear()
            self._dirty_links.clear()
            return
        if self.incremental:
            seeds = [f for f in self._dirty_flows if f._active]
            for link in self._dirty_links:
                seeds.extend(link.flows)
            if self._dynamic:
                # Dynamic-model caps can *shrink* (backoff), so a cap
                # that was non-binding last pass may bind now: every
                # live flow must be revisited, binding or not.
                seeds.extend(self._ramping_flows)
            else:
                # Ramping flows force a refill only while their
                # slow-start cap is *binding*: a cap already above the
                # flow's share cannot change the component's allocation
                # by growing.
                seeds.extend(f for f in self._ramping_flows if f.ramp_binding)
            # Seed order (and duplicates) cannot influence results:
            # discovery dedups via visit stamps, component membership is
            # order-free, and both the flows within a component and the
            # component list itself are sorted before filling.
        else:
            seeds = self._active_flows
        self._dirty_flows.clear()
        self._dirty_links.clear()

        for component in self._components(seeds):
            self._fill_component(component)

        if self._ramping_flows:
            # Ramping flows whose component was not refilled still track
            # the window growth: latch ramp_done exactly when a full
            # recomputation would, so the revisit schedule (and with it
            # the event timeline) is identical in both allocator modes.
            bfs_epoch = self._last_bfs_epoch
            flow_cap = self.flow_cap
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

    def _fill_component(self, flows):
        """Progressive filling over one connected component.

        ``flows`` is the component's active flows sorted by creation
        sequence.  All allocation state lives in slots on the flows and
        links themselves (no per-pass dictionaries); each flow's
        rate-change callback fires the moment it freezes — freeze order
        IS the classic fill's end-of-pass sweep order, and the callbacks
        (transport reschedules) never touch allocator state, so the
        event sequence is unchanged.

        The loop structure mirrors the classic global fill exactly —
        same freeze batches in the same order, so rates are bit-for-bit
        what the global algorithm computes on this component — but the
        bottleneck scan is a **lazy share heap** instead of an all-links
        rescan per round.  Correctness rests on the water-filling
        invariant that a link's fair share only *rises* as flows freeze:
        a heap entry recorded before a freeze touched its link is a
        lower bound on the live share, so resolving staleness at the top
        (recompute, re-push) still surfaces the true minimum, and
        popping every entry within the freeze tolerance of that minimum
        yields a superset of the links the freeze step must examine —
        the same superset property the old scan's candidate collection
        had.  Candidates are re-tested against their *live* share in
        first-appearance order, exactly as before, so the freeze sets,
        their order, and the floating-point trajectory are unchanged.
        The cap-limited batch likewise comes from a cap-sorted prefix
        (monotone cursor, built lazily).

        The previous implementation rescanned every component link every
        round — measured at ~4.3M link visits for one 50-node cell;
        the heap replaces that with O(changed links * log L) per round.
        """
        flow_count = len(flows)
        self.components_allocated += 1
        self.flows_allocated += flow_count
        if flow_count > self.max_component_size:
            self.max_component_size = flow_count

        if flow_count == 1:
            # A lone flow owns all its links: the fill degenerates to
            # min(capacity) vs the flow's cap.  Same arithmetic, same
            # callback, none of the scaffolding.
            flow = flows[0]
            cap = flow.mathis_cap if flow.ramp_done else self.flow_cap(flow)
            share = flow.links[0]._capacity
            for link in flow.links:
                if link._capacity < share:
                    share = link._capacity
            rate = cap if cap <= share else share
            if not flow.ramp_done:
                flow.ramp_binding = rate >= cap
            if self._dynamic:
                # Feed the model even when the rate is unchanged: a
                # windowed filter (BBR) must see fresh samples so old
                # maxima can expire out of the window.
                self.model.observe_rate(flow, rate, self.sim.now)
            diff = rate - flow.rate
            if diff > 1e-9 or diff < -1e-9:
                old_rate = flow.rate
                flow.rate = rate
                if flow.on_rate_change is not None:
                    flow.on_rate_change(flow, old_rate)
            return

        # Heap entries are ``(share, first-appearance index, link)``;
        # the index both breaks float ties deterministically (links are
        # never compared) and restores the classic scan's candidate
        # order.  The epoch stamp dedups without building a dict.
        self._alloc_epoch += 1
        epoch = self._alloc_epoch
        inf = math.inf
        flow_cap = self.flow_cap
        # Dynamic models sample the settled rate at every freeze (even
        # an unchanged one — windowed filters need fresh samples so old
        # maxima can expire); ``None`` keeps the static path branch-only.
        observe = self.model.observe_rate if self._dynamic else None
        now = self.sim.now
        min_cap = inf
        entries = []
        n_links = 0
        for flow in flows:
            # Fast path: past slow-start the cap is the (precomputed)
            # Mathis cap — no call, no exponential.
            cap = flow.mathis_cap if flow.ramp_done else flow_cap(flow)
            flow._cap = cap
            if cap < min_cap:
                min_cap = cap
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
        heapq.heapify(entries)
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        # Flows in ascending cap order; ``cap_cursor`` sweeps forward as
        # the bottleneck share rises (shares are non-decreasing across
        # rounds, so a flow skipped once never needs re-checking until
        # its cap is reached).  ``flows`` is seq-sorted and the sort is
        # stable, so equal caps stay in creation order.  Built lazily:
        # while ``min_cap`` exceeds the fair share no cap can bind and
        # the ordering is never consulted.
        by_cap = None
        cap_cursor = 0

        unfrozen_count = flow_count

        while unfrozen_count:
            self.fill_rounds += 1
            # Surface the true minimum live share: pop dead links, and
            # re-push entries whose link was touched by a freeze since
            # they were recorded (their live share has risen).  The top
            # is fresh when its recorded share equals the live value.
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
            if bottleneck_share is inf:
                # All remaining flows traverse only frozen links (cannot
                # happen with positive capacities, but guard anyway).
                for flow in flows:
                    if not flow._frozen:
                        flow._frozen = True
                        self._settle(flow, flow._cap)
                break
            threshold = bottleneck_share * (1 + 1e-12)

            # Freeze cap-limited flows first: any unfrozen flow whose cap
            # is at or below the current fair share gets exactly its cap.
            # The heap is left untouched — entries for links these
            # freezes invalidate become stale lower bounds, resolved at
            # the top of the next round.
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
                # Freeze in creation order (the classic scan's order) so
                # per-link subtraction order — and with it the exact
                # floating-point trajectory — is unchanged.
                if len(cap_limited) > 1:
                    cap_limited.sort(key=_flow_seq)
                for flow in cap_limited:
                    rate = flow._cap
                    flow._frozen = True
                    unfrozen_count -= 1
                    for link in flow.links:
                        link._alloc_remaining -= rate
                        link._alloc_unfrozen -= 1
                    # Inline settle (hot site): rate == cap, so a still-
                    # ramping flow is binding by definition; caps are
                    # positive, so no clamp needed.
                    if not flow.ramp_done:
                        flow.ramp_binding = True
                    if observe is not None:
                        observe(flow, rate, now)
                    diff = rate - flow.rate
                    if diff > 1e-9 or diff < -1e-9:
                        old_rate = flow.rate
                        flow.rate = rate
                        if flow.on_rate_change is not None:
                            flow.on_rate_change(flow, old_rate)
                continue

            # Otherwise freeze every flow on the bottleneck link(s): pop
            # the tolerance band (recorded shares are lower bounds, so
            # every link whose live share is within the band is in it),
            # restore first-appearance order, and re-test each candidate
            # against its live share — identical outcome to the old
            # full rescan, since shares only rise as flows freeze.
            candidates = [heappop(entries)]
            while entries and entries[0][0] <= threshold:
                candidates.append(heappop(entries))
            if len(candidates) > 1:
                candidates.sort(key=_entry_index)
            frozen_any = False
            for seen_share, index, link in candidates:
                count = link._alloc_unfrozen
                if count == 0:
                    continue  # died inside this band: drop its entry
                if link._alloc_remaining / count <= threshold:
                    # link.flows is maintained in seq order, which is
                    # exactly the classic scan's freeze order; callbacks
                    # never touch membership, so iterating it directly
                    # (no copy, no sort) is safe.
                    for flow in link.flows:
                        if flow._frozen:
                            continue
                        flow._frozen = True
                        frozen_any = True
                        unfrozen_count -= 1
                        for flow_link in flow.links:
                            flow_link._alloc_remaining -= bottleneck_share
                            flow_link._alloc_unfrozen -= 1
                        # Inline settle (hot site): every unfrozen flow
                        # here has cap > share (cap-limited ones froze
                        # above), so a still-ramping flow is non-binding.
                        if not flow.ramp_done:
                            flow.ramp_binding = False
                        rate = bottleneck_share if bottleneck_share > 0.0 else 0.0
                        if observe is not None:
                            observe(flow, rate, now)
                        diff = rate - flow.rate
                        if diff > 1e-9 or diff < -1e-9:
                            old_rate = flow.rate
                            flow.rate = rate
                            if flow.on_rate_change is not None:
                                flow.on_rate_change(flow, old_rate)
                # Re-admit the candidate with its live share (it left the
                # heap when the band was popped); dead links stay out.
                count = link._alloc_unfrozen
                if count:
                    heappush(
                        entries, (link._alloc_remaining / count, index, link)
                    )
            if not frozen_any:  # numerical corner: freeze everything
                for flow in flows:
                    if not flow._frozen:
                        flow._frozen = True
                        rate = flow._cap
                        if bottleneck_share < rate:
                            rate = bottleneck_share
                        unfrozen_count -= 1
                        self._settle(flow, rate)
                break

    def _settle(self, flow, rate):
        """Apply one frozen flow's rate and fire its callback.

        Called at freeze time: freeze order is exactly the order the
        classic fill's end-of-pass sweep would visit, and callbacks (the
        transport's reschedules) never touch allocator state, so firing
        early leaves the event sequence bit-identical.
        """
        if not flow.ramp_done:
            # The ramp cap bound this fill iff it set the rate; the
            # cap-limited branch is the only one assigning the cap
            # itself, so equality identifies it exactly.
            flow.ramp_binding = rate >= flow._cap
        if rate < 0.0:
            rate = 0.0
        if self._dynamic:
            self.model.observe_rate(flow, rate, self.sim.now)
        diff = rate - flow.rate
        if diff > 1e-9 or diff < -1e-9:
            old_rate = flow.rate
            flow.rate = rate
            if flow.on_rate_change is not None:
                # The old rate is passed so byte-progress accrued since
                # the last event is credited at the rate that actually
                # applied (crediting at the new rate would let an
                # oversubscribed link deliver more than its capacity).
                flow.on_rate_change(flow, old_rate)

    def perf_stats(self):
        """Allocator work counters (all deterministic for a fixed seed)."""
        components = self.components_allocated
        return {
            "reallocations": self.reallocations,
            "components_allocated": components,
            "flows_allocated": self.flows_allocated,
            "fill_rounds": self.fill_rounds,
            "path_refreshes": self.path_refreshes,
            "max_component_size": self.max_component_size,
            "mean_component_size": (
                round(self.flows_allocated / components, 3) if components else 0.0
            ),
        }
