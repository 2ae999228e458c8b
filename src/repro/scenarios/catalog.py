"""The scenario catalogue: concrete dynamic-network models.

Paper scenarios (section 4.1 / Figure 12) re-expressed on the
:class:`~repro.scenarios.base.Scenario` base, plus the scenario classes
the paper motivates but never scripts:

- :class:`Static` — no dynamics (the control case).
- :class:`CorrelatedDecreases` — the paper's periodic correlated
  bandwidth-decrease process.
- :class:`CascadingCuts` — Figure 12's one-more-sender-throttled-per-
  period collapse of a single node's inbound links.
- :class:`Oscillate` — periodic high-frequency capacity swings, the
  cellular/5G regime where measured bandwidth oscillates on two-second
  timescales.
- :class:`FlashCrowd` — staggered receiver joins over a ramp interval.
- :class:`Churn` — nodes drop to near-zero connectivity and come back.

All but :class:`FlashCrowd` are link scripts (see :mod:`repro.scenarios.base`).
``trace_replay`` lives in :mod:`repro.scenarios.tracefile`; ``compose``
in :mod:`repro.scenarios.combinators`.
"""

from array import array
from math import pi, sin
from operator import attrgetter, truediv

from repro.common.params import Param, with_defaults
from repro.common.units import KBPS
from repro.scenarios.base import WINDOW_PARAMS, Scenario, every
from repro.sim.links import ScaleColumn

TWO_PI = 2.0 * pi

__all__ = [
    "Static",
    "CorrelatedDecreases",
    "CascadingCuts",
    "Oscillate",
    "FlashCrowd",
    "Churn",
]


class Static(Scenario):
    """No dynamic conditions: the network stays exactly as built."""

    name = "none"


class CorrelatedDecreases(Scenario):
    """The paper's section-4.1 periodic correlated bandwidth decreases.

    Every ``period`` seconds, pick ``victim_fraction`` of the nodes; for
    each victim, pick ``source_fraction`` of the other nodes and multiply
    the capacity of the core links from those nodes toward the victim by
    ``factor``.  Cuts are cumulative and one-directional; ``floor``
    bounds how far a link can degrade (a 2 Mbps core link reaches it
    after six halvings), which keeps long runs tractable exactly as a
    real emulator's resolution would.

    ``start``/``stop`` (like every catalogue scenario's) are measured
    from installation, so a scenario installed late keeps its window.
    """

    name = "correlated_decreases"
    params = (
        Param(
            "period", "float", 20.0, "seconds between correlated cut rounds", "(0, inf)"
        ),
        Param(
            "victim_fraction",
            "float",
            0.5,
            "fraction of nodes whose inbound links are cut",
            "[0, 1]",
        ),
        Param(
            "source_fraction",
            "float",
            0.5,
            "fraction of senders cut toward each victim",
            "[0, 1]",
        ),
        Param("factor", "float", 0.5, "multiplier applied to each cut link", "(0, 1)"),
        Param(
            "floor",
            "float",
            32 * KBPS,
            "links never degrade below this (bytes/sec)",
            "[0, inf)",
        ),
        *WINDOW_PARAMS,
    )

    def script(self, ctx):
        core = ctx.topology.core
        rng = ctx.rng("correlated", self.seed)
        nodes = list(ctx.topology.nodes)
        for wait in every(ctx.sim, self.period, self.start, self.stop):
            yield wait
            victims = rng.sample(nodes, max(1, int(len(nodes) * self.victim_fraction)))
            cut = []
            for victim in victims:
                others = [n for n in nodes if n != victim]
                sources = rng.sample(
                    others, max(1, int(len(others) * self.source_fraction))
                )
                cut += [core[(s, victim)] for s in sources if (s, victim) in core]
            yield [{"link": cut, "scale": self.factor, "floor": self.floor}]


class CascadingCuts(Scenario):
    """Figure 12's cascading slowdowns of one node's inbound links.

    Every ``period`` seconds the next sender's core link toward
    ``target`` is set to ``throttled_bw``; after ``len(senders)``
    periods the target is fully throttled.  ``target``/``senders``
    default to the highest-numbered receiver and everyone else (minus
    the source), so the scenario is runnable on any topology.
    """

    name = "cascading_cuts"
    params = (
        Param(
            "period",
            "float",
            25.0,
            "seconds between successive sender throttles",
            "(0, inf)",
        ),
        Param(
            "throttled_bw",
            "float",
            100 * KBPS,
            "capacity each throttled link drops to (bytes/sec)",
            "(0, inf)",
        ),
        Param(
            "start",
            "float",
            None,
            "first throttle, seconds after installation",
            "[0, inf)",
        ),
    )

    def __init__(self, target=None, senders=None, **knobs):
        # target/senders are node ids — programmatic only, not knobs.
        super().__init__(**knobs)
        self.target = target
        self.senders = None if senders is None else list(senders)

    def script(self, ctx):
        core, nodes = ctx.topology.core, ctx.topology.nodes
        target = max(ctx.receivers or nodes) if self.target is None else self.target
        senders = self.senders
        if senders is None:
            senders = [n for n in nodes if n != target and n != ctx.source_id]
        clock = every(ctx.sim, self.period, self.start, None)
        # With no sender the first firing still comes, and writes nothing.
        for wait, sender in zip(clock, senders or [None]):
            yield wait
            link = core.get((sender, target))
            if link is not None and link.capacity > self.throttled_bw:
                yield [{"link": link, "capacity": self.throttled_bw}]


class Oscillate(Scenario):
    """Periodic high-frequency bandwidth swings on every core link.

    Models the cellular/5G regime where available bandwidth oscillates
    on second timescales: each core link's capacity tracks a factor
    ``f(t)`` swinging between ``low`` and ``high`` (fractions of the
    capacity at installation) with the given ``period``.  ``wave`` is
    ``"sine"`` (smooth) or ``"square"`` (hard up/down switches).  With
    ``phase_jitter`` each link gets a random phase so the whole network
    does not breathe in lockstep.

    The swing is applied *relatively* — each tick multiplies the
    current capacity by ``f(t) / f(t_prev)`` — so capacity changes made
    by composed scenarios (churn taking a node dark, correlated cuts,
    a replayed trace) persist underneath the oscillation instead of
    being overwritten.  Each tick is one ``"*"`` row whose ``scale`` is
    an immutable :class:`~repro.sim.links.ScaleColumn` computing those
    factors on demand (link i of the core links in key order gets phase
    i), so ``apply`` writes it at once only to the core links built so
    far, and a link built later starts from every tick it missed; a
    tick costs the links in use, not the whole mesh.
    """

    name = "oscillate"
    params = (
        Param("period", "float", 2.0, "seconds per full capacity swing", "(0, inf)"),
        Param(
            "low",
            "float",
            0.25,
            "trough, as a fraction of installed capacity",
            "(0, inf)",
        ),
        Param(
            "high",
            "float",
            1.0,
            "crest, as a fraction of installed capacity",
            "(0, inf)",
        ),
        Param(
            "wave",
            "str",
            "sine",
            "'sine' (smooth) or 'square' (hard switches)",
            ("sine", "square"),
        ),
        Param(
            "sample_period",
            "float",
            None,
            "tick interval (default: period / 8)",
            "(0, inf)",
        ),
        Param(
            "phase_jitter", "bool", True, "random per-link phase so links don't sync"
        ),
        *with_defaults(WINDOW_PARAMS, start=0.0),
    )

    def validate(self):
        if self.low > self.high:
            raise ValueError(f"need low <= high, got low={self.low} high={self.high}")

    def script(self, ctx):
        sim = ctx.sim
        rng = ctx.rng("oscillate", self.seed)
        # One phase per core link, in key order: the order "*" names them.
        jitter, count = self.phase_jitter, len(ctx.topology.core)
        phases = array("d", (rng.random() if jitter else 0.0 for _ in range(count)))
        wave = _Wave(self, phases)
        sample = self.sample_period or self.period / 8.0
        origin = sim.now + self.start
        #: The last tick's column (None before the first: f = 1.0).
        prior = None
        for wait in every(sim, sample, self.start, self.stop):
            yield wait
            prior = _Swing(wave, (sim.now - origin) / self.period, prior)
            yield [{"link": "*", "scale": prior}]


class _Wave:
    """An oscillation's waveform: the factor ``f`` of a link at ``cycles
    = elapsed / period + phase`` is ``high`` / ``low`` switching at the
    half-cycle (square) or ``mid + amp * sin(2 pi cycles)`` (sine)."""

    __slots__ = ("phases", "period", "square", "high", "low", "mid", "amp")

    def __init__(self, oscillate, phases):
        self.phases = phases
        self.period = oscillate.period
        self.square = oscillate.wave == "square"
        self.high, self.low = oscillate.high, oscillate.low
        self.mid = (self.high + self.low) / 2.0
        self.amp = (self.high - self.low) / 2.0

    def at(self, turns, indices):
        """``f`` of the links at ``indices`` at one ``elapsed / period``."""
        phases = self.phases
        if self.square:
            high, low = self.high, self.low
            return [high if (turns + phases[i]) % 1.0 < 0.5 else low for i in indices]
        mid, amp = self.mid, self.amp
        return [mid + amp * sin(TWO_PI * (turns + phases[i])) for i in indices]

    def over(self, turns, i):
        """``f`` of link ``i`` at several ``elapsed / period``."""
        phase = self.phases[i]
        if self.square:
            high, low = self.high, self.low
            return [high if (t + phase) % 1.0 < 0.5 else low for t in turns]
        mid, amp = self.mid, self.amp
        return [mid + amp * sin(TWO_PI * (t + phase)) for t in turns]


_PRIOR = attrgetter("prior")
_TURNS = attrgetter("turns")


class _Swing(ScaleColumn):
    """One oscillation tick: link i's factor is ``f`` now over ``f`` at
    the prior tick (``f`` is 1.0 before the first tick, whose prior is
    None, and ``x / 1.0`` is ``x``).  ``turns`` is the tick's ``elapsed
    / period``; ``known`` keeps the last ``take``'s indices and ``f``
    values until the next tick's ``take`` reuses them as divisors."""

    __slots__ = ("wave", "turns", "prior", "known")

    def __init__(self, wave, turns, prior):
        self.wave = wave
        self.turns = turns
        self.prior = prior
        self.known = None

    def __getitem__(self, i):
        return self.take((i,))[0]

    def take(self, indices):
        wave, prior = self.wave, self.prior
        factors = wave.at(self.turns, indices)
        self.known = (list(indices), factors)
        if prior is None:
            return list(factors)
        known, prior.known = prior.known, None
        if known is not None and known[0] == indices:
            before = known[1]
        else:
            before = wave.at(prior.turns, indices)
        return list(map(truediv, factors, before))

    def replay(self, capacity, i, columns):
        # Consecutive ticks of one waveform on one link: f once per
        # tick (each tick's f is the next one's divisor), then the same
        # quotients and products in the same order.
        try:
            consecutive = list(map(_PRIOR, columns[1:])) == columns[:-1]
        except AttributeError:  # a column of another kind
            consecutive = False
        if not consecutive:
            return super().replay(capacity, i, columns)
        wave, prior = self.wave, self.prior
        before = 1.0 if prior is None else wave.over((prior.turns,), i)[0]
        for factor in wave.over(list(map(_TURNS, columns)), i):
            capacity *= factor / before
            before = factor
        return capacity


class FlashCrowd(Scenario):
    """Staggered receiver joins: the crowd arrives over a ramp interval.

    Each receiver's start is delayed by ``start`` plus a uniform draw in
    ``[0, ramp]`` seconds.  Membership shaping is published through
    ``ctx.start_delays`` in the script's one segment, inside ``install``,
    and the harness honors it; installed against a bare ``(sim,
    topology)`` pair the scenario has no effect (no nodes to delay).
    """

    name = "flash_crowd"
    params = (
        Param(
            "ramp",
            "float",
            30.0,
            "receivers join uniformly over this many seconds",
            "[0, inf)",
        ),
        Param("start", "float", 0.0, "delay before the first join", "[0, inf)"),
        Param("seed", "int", None, "override the experiment seed for join times"),
    )

    def script(self, ctx):
        rng = ctx.rng("flash_crowd", self.seed)
        for node in ctx.receivers:
            ctx.start_delays[node] = self.start + rng.uniform(0.0, self.ramp)
        yield from ()


class Churn(Scenario):
    """Connectivity churn: nodes go dark and come back.

    Every ``period`` seconds, ``fraction`` of the receivers (at least
    one) that are currently online go *offline*: every core link into or
    out of them collapses to ``offline_capacity`` (a trickle — capacity
    must stay positive).  ``down_time`` seconds later their links get
    the inverse rows that write returned — a multiplicative restore, so
    capacity changes applied by composed scenarios (an oscillation tick,
    a correlated cut) while the node was dark persist instead of being
    overwritten.  The source is never churned.

    This is network-level churn — the node's process keeps running but
    its connectivity is gone — which stresses exactly the mesh-repair
    behavior the paper's section-1 reliability argument is about.
    """

    name = "churn"
    params = (
        Param("period", "float", 20.0, "seconds between churn rounds", "(0, inf)"),
        Param(
            "down_time", "float", 10.0, "seconds a churned node stays dark", "(0, inf)"
        ),
        Param(
            "fraction",
            "float",
            0.1,
            "fraction of receivers churned per round",
            "(0, 1]",
        ),
        Param(
            "offline_capacity",
            "float",
            16.0,
            "trickle capacity while dark (bytes/sec)",
            "(0, inf)",
        ),
        *WINDOW_PARAMS,
    )

    def script(self, ctx):
        rng = ctx.rng("churn", self.seed)
        candidates = list(ctx.receivers)
        offline = set()
        #: (src, dst) -> the inverse rows that restore a dark link.  Two
        #: simultaneously-offline nodes share their connecting link, so
        #: it only recovers when *both* endpoints are back.
        dark = {}

        def restore(node):
            yield self.down_time
            offline.remove(node)
            for pair in [p for p in dark if node in p and offline.isdisjoint(p)]:
                yield dark.pop(pair)

        for wait in every(ctx.sim, self.period, self.start, self.stop):
            yield wait
            online = [n for n in candidates if n not in offline]
            count = max(1, int(len(candidates) * self.fraction))
            for node in rng.sample(online, min(count, len(online))):
                offline.add(node)
                for pair, link in ctx.core_links():
                    if node in pair and pair not in dark:
                        row = {"link": link, "capacity": self.offline_capacity}
                        dark[pair] = yield [row]
                yield restore(node)
