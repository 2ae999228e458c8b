"""Model-based underlay rate controllers: ``bbr`` and ``autorate``.

:mod:`repro.sim.tcp` defines the :class:`~repro.sim.tcp.FlowModel`
interface and the default loss-based ``reno`` model (the Mathis cap the
paper's evaluation assumed).  This module ships its two *model-based*
competitors — a delivery-rate estimator and a delay-driven shaper —
registered, together with ``reno``, in
:data:`repro.harness.registry.FLOW_MODELS`:

``bbr``
    A deterministic approximation of BBR's bandwidth estimator: the
    bottleneck bandwidth is the **windowed maximum** of the delivery
    rates the allocator actually settled for the flow (the same
    max-filter structure cellular BBR analyses use), the pacing cap
    cycles through a probe/drain gain schedule, and inflight is bounded
    by ``CWND_GAIN * btlbw * min_rtt / rtt`` so a path whose delay
    inflates sees its cap shrink.  Loss never enters the cap — under
    ``gilbert_elliott`` this is the controller that does *not* collapse
    like ``1/sqrt(p)``.

``autorate``
    A CAKE-autorate/wanctl-style shaper: each flow's path is classified
    GREEN / YELLOW / RED from the RTT delta against the lowest RTT ever
    observed on the path (with a loss-level secondary trigger, since
    the condition engine's bursty-loss scenarios leave delay untouched),
    and the cap follows the wanctl asymmetry — **fast backoff** (one RED
    control tick halves the cap, straight down to a floor fraction of
    the best rate seen) and **slow recovery** (several consecutive GREEN
    ticks buy one additive step back up).

Both models are ``dynamic = True``: the allocator notifies them when a
path's invariants move (:meth:`~repro.sim.tcp.FlowModel.path_refreshed`)
and, once per filled component, asks for every flow's cap
(:meth:`~repro.sim.tcp.FlowModel.dynamic_caps`, seq order, before the
fill) and feeds them every settled rate
(:meth:`~repro.sim.tcp.FlowModel.observe_rates`, freeze order).  Each
model runs the per-flow loop itself, with the slow-start ramp of
:meth:`~repro.sim.tcp.FlowModel.slow_start_cap_at` inlined unchanged, so
a pass costs two calls per component instead of four per flow.  All
state is a pure function of (event times, settled rates), both of which
are deterministic per cell, so sweeps over these models are
bit-identical at any worker count — the same contract the golden matrix
pins for ``reno``.

A run names its flow model and nothing more, so neither model has
knobs: each law's constants are the module constants below.
"""

import math
from collections import deque

from repro.harness.registry import FLOW_MODELS
from repro.sim.tcp import MSS, RAMP_INITIAL_SEGMENTS, FlowModel, TcpModel

__all__ = ["BbrModel", "AutorateModel"]

# -- bbr: the max-filter window, the gain cycle, the inflight bound ----------------
#: Max-filter window over delivery samples (seconds).
WINDOW = 10.0
#: BBR's ProbeBW gain cycle, one entry per phase: the probe phase's
#: pacing gain, the drain phase's, then six cruise phases.
GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: Inflight bound as a multiple of estimated BDP.
CWND_GAIN = 2.0
#: Duration of one gain-cycle phase (seconds).
PHASE_TIME = 0.25

# -- autorate: wanctl's rule, one RED tick backs off, five GREEN buy a step --------
#: Seconds of simulated time per control tick.
CONTROL_INTERVAL = 0.05
#: RTT increase over baseline entering YELLOW (seconds).
YELLOW_DELTA = 0.01
#: RTT increase over baseline entering RED (seconds).
RED_DELTA = 0.03
#: Path loss probability entering YELLOW.
YELLOW_LOSS = 0.01
#: Path loss probability entering RED.
RED_LOSS = 0.04
#: Multiplicative cap factor per RED tick.
BACKOFF = 0.5
#: Cap floor as a fraction of the best rate seen.
FLOOR_FRAC = 0.2
#: Recovery step as a fraction of the best rate seen.
STEP_FRAC = 0.05
#: Consecutive GREEN ticks per recovery step.
RECOVERY_TICKS = 5


class _BbrState:
    """Per-flow BBR scratch (``flow.model_state``)."""

    __slots__ = ("wedge", "min_rtt", "cycle_start")

    def __init__(self, rtt, now):
        #: Monotonic-max wedge of ``(time, rate)`` delivery samples:
        #: rates decrease front-to-back, so the front is the windowed
        #: maximum and both insert and expiry are amortized O(1).
        self.wedge = deque()
        self.min_rtt = rtt
        self.cycle_start = now


class BbrModel(FlowModel):
    """Windowed-max delivery-rate estimation with a probe/drain cycle.

    The steady-state cap is ``inf`` — the live bound comes from
    :meth:`dynamic_caps`: ``gain * btlbw`` with ``btlbw`` the windowed
    max of settled rates over :data:`WINDOW` and ``gain`` cycling
    through :data:`GAINS` (phase advances every :data:`PHASE_TIME`
    seconds, deterministically from simulated time), all bounded by the
    BDP-derived inflight limit ``CWND_GAIN * btlbw * min_rtt / rtt``.
    """

    name = "bbr"
    dynamic = True

    def steady_state_cap(self, links):
        # Loss-insensitive: no static bound, the windowed estimator is
        # the only cap.
        return math.inf

    def flow_started(self, flow, now):
        flow.model_state = _BbrState(flow.rtt, now)

    def path_refreshed(self, flow, now):
        st = flow.model_state
        # Track the lowest RTT the path ever showed; a delay increase
        # then shrinks the inflight bound (min_rtt/rtt < 1) exactly as
        # BBR's BDP limit would under bufferbloat.
        if flow.rtt < st.min_rtt:
            st.min_rtt = flow.rtt

    def observe_rates(self, flows, rates, now):
        # Expiry is left to ``dynamic_caps``, the wedge's only reader:
        # it drops the expired prefix before reading the front, and the
        # back pops below remove the same samples with or without it.
        for flow, rate in zip(flows, rates):
            wedge = flow.model_state.wedge
            while wedge and wedge[-1][1] <= rate:
                wedge.pop()
            wedge.append((now, rate))

    def dynamic_caps(self, flows, now):
        horizon = now - WINDOW
        inf = math.inf
        for flow in flows:
            rtt = flow.rtt
            if rtt < 1e-4:
                rtt = 1e-4
            # The slow-start ramp: ``FlowModel.slow_start_cap_at``, inlined.
            doublings = (now - flow.started_at) / rtt
            ramp = (
                inf
                if doublings > 40
                else RAMP_INITIAL_SEGMENTS * 2.0**doublings * MSS / rtt
            )
            st = flow.model_state
            wedge = st.wedge
            while wedge:
                sample = wedge[0]
                if sample[0] >= horizon:
                    break
                wedge.popleft()
            if not wedge:
                # No delivery samples inside the window (fresh or
                # long-idle flow): unbounded, the ramp and the fair
                # share govern.
                cap = inf
            else:
                btlbw = sample[1]
                cap = MSS / rtt  # never below one segment per RTT
                if btlbw > 0.0:
                    phase = int((now - st.cycle_start) / PHASE_TIME) % 8
                    bound = btlbw * GAINS[phase]
                    inflight_bound = CWND_GAIN * btlbw * st.min_rtt / rtt
                    if inflight_bound < bound:
                        bound = inflight_bound
                    if bound > cap:
                        cap = bound
            flow._cap = ramp if ramp < cap else cap


class _AutorateState:
    """Per-flow autorate scratch (``flow.model_state``)."""

    __slots__ = ("base_rtt", "cap", "max_rate", "green_streak", "last_tick")

    def __init__(self, rtt, now):
        self.base_rtt = rtt
        #: Shaped ceiling; ``inf`` = unshaped (never backed off, or
        #: fully recovered).
        self.cap = math.inf
        #: Best delivery rate ever settled — the reference the floors
        #: and recovery steps are fractions of.
        self.max_rate = 0.0
        self.green_streak = 0
        self.last_tick = now


class AutorateModel(FlowModel):
    """Delay-delta GREEN/YELLOW/RED shaper with wanctl's asymmetry.

    Every :data:`CONTROL_INTERVAL` of simulated time is one control tick
    (ticks between allocator visits are caught up in closed form, so the
    trajectory is independent of visit cadence).  The path is classified
    from its current invariants: RED when the RTT exceeds the lowest
    observed RTT by ``RED_DELTA`` (or path loss reaches ``RED_LOSS`` —
    the secondary trigger for scenarios that burst loss without touching
    delay), YELLOW at the ``YELLOW_*`` thresholds, GREEN otherwise.

    RED ticks back off multiplicatively (:data:`BACKOFF` per tick — one
    sample is enough, there is no averaging delay) down to
    ``FLOOR_FRAC * max_rate``; YELLOW holds; only :data:`RECOVERY_TICKS`
    *consecutive* GREEN ticks buy one ``STEP_FRAC * max_rate`` additive
    step back up, and a cap recovered past ``max_rate`` returns to
    unshaped.  Fast down, slow up — the wanctl asymmetry.
    """

    name = "autorate"
    dynamic = True

    def steady_state_cap(self, links):
        # The shaper, not loss arithmetic, is the bound.
        return math.inf

    def flow_started(self, flow, now):
        flow.model_state = _AutorateState(flow.rtt, now)

    def path_refreshed(self, flow, now):
        st = flow.model_state
        if flow.rtt < st.base_rtt:
            st.base_rtt = flow.rtt

    def observe_rates(self, flows, rates, now):
        for flow, rate in zip(flows, rates):
            st = flow.model_state
            if rate > st.max_rate:
                st.max_rate = rate

    def dynamic_caps(self, flows, now):
        inf = math.inf
        for flow in flows:
            rtt = flow.rtt
            if rtt < 1e-4:
                rtt = 1e-4
            # The slow-start ramp: ``FlowModel.slow_start_cap_at``, inlined.
            doublings = (now - flow.started_at) / rtt
            ramp = (
                inf
                if doublings > 40
                else RAMP_INITIAL_SEGMENTS * 2.0**doublings * MSS / rtt
            )
            st = flow.model_state
            ticks = int((now - st.last_tick) / CONTROL_INTERVAL)
            if ticks > 0:
                st.last_tick += ticks * CONTROL_INTERVAL
                self._tick(flow, st, ticks, rtt)
            cap = st.cap
            flow._cap = ramp if ramp < cap else cap

    def _tick(self, flow, st, ticks, rtt):
        """Run ``ticks`` pending control ticks, all under the path's
        *current* GREEN / YELLOW / RED class (path invariants only move
        at discrete condition events, and those seed an allocation pass,
        so the window between visits is homogeneous to within one
        coalescing interval)."""
        delta = flow.rtt - st.base_rtt
        if delta >= RED_DELTA or flow.loss >= RED_LOSS:
            st.green_streak = 0
            cap = st.cap
            if cap == math.inf:
                # First backoff: start shaping from the best rate
                # actually seen (nothing to shape before that).
                cap = st.max_rate
            if cap > 0.0:
                floor = FLOOR_FRAC * st.max_rate
                segment_floor = MSS / rtt
                if floor < segment_floor:
                    floor = segment_floor
                cap *= BACKOFF**ticks
                if cap < floor:
                    cap = floor
                st.cap = cap
        elif delta >= YELLOW_DELTA or flow.loss >= YELLOW_LOSS:
            st.green_streak = 0
        else:
            if st.cap != math.inf and st.max_rate > 0.0:
                streak = st.green_streak
                steps = (streak + ticks) // RECOVERY_TICKS - streak // RECOVERY_TICKS
                if steps:
                    st.cap += steps * STEP_FRAC * st.max_rate
                    if st.cap >= st.max_rate:
                        st.cap = math.inf
            st.green_streak += ticks


FLOW_MODELS.register(
    TcpModel.name,
    TcpModel,
    description=(
        "loss-based Reno-shaped cap (Mathis model) — the paper's "
        "underlay and the default"
    ),
    aliases=("tcp", "mathis"),
)
FLOW_MODELS.register(
    BbrModel.name,
    BbrModel,
    description=(
        "windowed-max delivery-rate estimator with probe/drain "
        "gain cycle; loss-insensitive, delay-bounded inflight"
    ),
    aliases=("bbr_style",),
)
FLOW_MODELS.register(
    AutorateModel.name,
    AutorateModel,
    description=(
        "CAKE-autorate-style GREEN/YELLOW/RED shaper: fast "
        "multiplicative backoff to a rate floor, slow additive "
        "recovery"
    ),
    aliases=("cake_autorate", "wanctl"),
)
