"""Loss-rate and asymmetric link-condition scenarios.

The catalogue in :mod:`repro.scenarios.catalog` manipulates *capacity*,
the knob the paper's own dynamic experiments turn.  Real dynamic
networks — cellular links, congested access networks — also vary **loss
rate** and are **asymmetric**, and loss is exactly where TCP variants
diverge (the Mathis cap makes throughput collapse like ``1/sqrt(p)``).
These scenarios drive the other two axes of the link-condition engine:

- :class:`GilbertElliott` — the classic two-state bursty-loss model:
  every link flips between a *good* and a *bad* loss state with
  exponential-ish sojourn times, seeded and deterministic.
- :class:`AsymmetricSqueeze` — periodic capacity cuts applied to the
  **uplink direction only**, modeling congested access uplinks while
  downstream capacity stays intact.
- :class:`Lossy` — a combinator overlaying a loss schedule (constant or
  square-wave) on any other scenario, so every capacity scenario in the
  catalogue composes with loss dynamics by name.

All three are link scripts (see :mod:`repro.scenarios.base`) that draw
any randomness from seeded per-scenario streams and yield rows: loss as
``overlay`` rows, applied *multiplicatively on the keep probability* —
``1 - loss`` — so they compose with each other (and with lossy baseline
topologies) without clobbering anyone's writes.  A temporary change ends
by yielding the inverse rows its write returned.  Multiplicative
removal is the composition price: the end of a stop window restores
baselines up to float round-off, not bit-exactly — an absolute-snapshot
restore would be bit-exact but would erase concurrent writers' changes.
"""

from repro.common.params import Param, with_defaults
from repro.common.units import KBPS
from repro.scenarios.base import WINDOW_PARAMS, Scenario, every, later

__all__ = [
    "AsymmetricSqueeze",
    "GilbertElliott",
    "Lossy",
    "lossy",
]


class GilbertElliott(Scenario):
    """Two-state (Gilbert-Elliott) bursty loss on every core link.

    Each link carries an independent two-state Markov chain sampled
    every ``sample_period`` seconds: in the *good* state the link keeps
    its baseline loss rate (plus ``good_loss``, if any); in the *bad*
    state an additional ``bad_loss`` process is overlaid.  Mean sojourn
    times are ``mean_good`` / ``mean_bad`` seconds, so the loss bursts
    have the heavy-tailed on/off texture measured on cellular and
    congested paths rather than a flat average.

    Every tick draws exactly one uniform variate per link (whether or
    not the state flips), so the schedule is a pure function of the
    seed — runs are bit-reproducible at any worker count.  State
    transitions swap the *overlay* (multiplicatively on the keep
    probability), never writing absolute values, so loss changes made
    by composed scenarios (a :class:`Lossy` schedule, a replayed trace)
    persist underneath; the end of a ``stop`` window returns links in
    the bad state to good the same way.
    """

    name = "gilbert_elliott"
    params = (
        Param(
            "bad_loss",
            "float",
            0.05,
            "loss overlaid while a link is in the bad state",
            "[0, 1)",
        ),
        Param(
            "good_loss", "float", 0.0, "loss overlaid while in the good state", "[0, 1)"
        ),
        Param(
            "mean_good",
            "float",
            20.0,
            "mean seconds a link stays in the good state",
            "(0, inf)",
        ),
        Param(
            "mean_bad",
            "float",
            5.0,
            "mean seconds a link stays in the bad state",
            "(0, inf)",
        ),
        Param(
            "sample_period",
            "float",
            1.0,
            "Markov-chain tick interval in seconds",
            "(0, inf)",
        ),
        *with_defaults(WINDOW_PARAMS, start=0.0),
    )

    def validate(self):
        if self.good_loss > self.bad_loss:
            raise ValueError(
                f"need good_loss <= bad_loss, got good_loss={self.good_loss} "
                f"bad_loss={self.bad_loss}"
            )

    def script(self, ctx):
        sim = ctx.sim
        rng = ctx.rng("gilbert_elliott", self.seed)
        links = [link for _pair, link in ctx.core_links()]
        yield [{"link": links, "overlay": self.good_loss}]
        #: Per link: the inverse row of its swap into the bad state, or
        #: None while it is good.
        bad = [None] * len(links)
        # Geometric sojourn approximation of the exponential: leave a
        # state with probability sample/mean per tick.
        p_leave_good = min(1.0, self.sample_period / self.mean_good)
        p_leave_bad = min(1.0, self.sample_period / self.mean_bad)
        # One write swaps the good overlay for the bad one.
        swap = {"remove": self.good_loss, "overlay": self.bad_loss}
        origin = sim.now

        def ticks():
            start = self.start + self.sample_period
            for wait in every(sim, self.sample_period, start, self.stop):
                yield wait
                if self.stop is not None and sim.now - origin >= self.stop:
                    continue  # a firing on stop: the restore below settles
                for i, link in enumerate(links):
                    roll = rng.random()
                    if bad[i] is not None:
                        if roll < p_leave_bad:
                            yield [bad[i]]
                            bad[i] = None
                    elif roll < p_leave_good:
                        bad[i] = (yield [{"link": link, **swap}])[0]

        yield ticks()
        if self.stop is not None:
            # The stop window ends the *process*: links caught in the
            # bad state return to good.  Its event comes after the first
            # tick's, so a tick on stop runs first, and is a no-op.
            yield self.stop
            yield [r for r in bad if r is not None]


class AsymmetricSqueeze(Scenario):
    """Periodic capacity cuts on receiver *uplinks* only.

    Every ``period`` seconds, ``fraction`` of the receivers (at least
    one) have their uplink-direction capacity multiplied by ``factor``
    (cumulative, never below ``floor``) — the congested-access-uplink
    regime where a node can still download at full speed but serves
    peers through a strangled upstream.  Downlink-direction capacity is
    never touched, and neither is the source (it is the data).

    The uplink direction is the access uplink where the topology models
    one, else every core link out of the node (see
    ``Topology.uplinks``).  With ``hold`` set, each cut is
    released (multiplicatively, so composed scenarios' changes persist)
    ``hold`` seconds later, turning the cumulative squeeze into
    squeeze-and-recover cycles.
    """

    name = "asymmetric_squeeze"
    params = (
        Param("period", "float", 20.0, "seconds between squeeze rounds", "(0, inf)"),
        Param(
            "fraction",
            "float",
            0.5,
            "fraction of receivers squeezed per round",
            "(0, 1]",
        ),
        Param("factor", "float", 0.5, "multiplier applied to each uplink", "(0, 1)"),
        Param(
            "floor",
            "float",
            32 * KBPS,
            "uplinks never degrade below this (bytes/sec)",
            "[0, inf)",
        ),
        Param(
            "hold",
            "float",
            None,
            "release each cut after this many seconds (None: cuts are cumulative)",
            "(0, inf)",
        ),
        *WINDOW_PARAMS,
    )

    def script(self, ctx):
        rng = ctx.rng("asymmetric_squeeze", self.seed)
        receivers = list(ctx.receivers)
        for wait in every(ctx.sim, self.period, self.start, self.stop):
            yield wait
            count = max(1, int(len(receivers) * self.fraction))
            uplinks = []
            for node in rng.sample(receivers, min(count, len(receivers))):
                uplinks += ctx.topology.uplinks(node)
            row = {"link": uplinks, "scale": self.factor, "floor": self.floor}
            undo = yield [row]
            if self.hold is not None and undo[0]["link"]:
                yield later(self.hold, undo)


class Lossy(Scenario):
    """Overlay a loss schedule on any other scenario.

    ``base`` is a :class:`Scenario` instance or a registered scenario
    name (checked at construction, built afresh at install time, so the
    instance stays pure configuration); the overlay adds a ``loss``
    process to every core link.  With ``period=None`` the overlay
    switches on ``start`` seconds after installation and off at ``stop``;
    with a ``period`` it follows a square wave — on for
    ``duty`` of each cycle — modeling recurring loss episodes
    (cross-traffic bursts, interface roaming) riding on top of whatever
    capacity dynamics ``base`` provides.

    The overlay multiplies the keep probability, so the base scenario
    (or a composed :class:`GilbertElliott`) can keep mutating loss
    underneath without either side clobbering the other.
    """

    name = "lossy"
    params = (
        Param("base", "str", "none", "scenario to overlay (any registered name)"),
        Param(
            "loss",
            "float",
            0.02,
            "loss probability overlaid while the schedule is on",
            "(0, 1)",
        ),
        Param(
            "period",
            "float",
            None,
            "square-wave cycle length (None: constant overlay)",
            "(0, inf)",
        ),
        Param(
            "duty", "float", 0.5, "fraction of each cycle the overlay is on", "(0, 1]"
        ),
        Param(
            "start",
            "float",
            0.0,
            "overlay (or first cycle) starts after this delay",
            "[0, inf)",
        ),
        Param(
            "stop",
            "float",
            None,
            "stop after this many seconds (None: run forever)",
            "(0, inf)",
        ),
    )

    def validate(self):
        if self.stop is not None and self.stop <= self.start:
            raise ValueError(
                f"stop must be > start (install-relative window), got "
                f"start={self.start} stop={self.stop}"
            )
        # A base name that does not resolve (or a base that does not
        # build) is refused here, not at install.
        self._resolve_base()

    def _resolve_base(self):
        if isinstance(self.base, str):
            from repro.harness.registry import SCENARIOS

            return SCENARIOS.build(self.base)
        return self.base

    def script(self, ctx):
        sim = ctx.sim
        yield self._resolve_base().script(ctx)
        #: The overlay's inverse rows while it is on.
        undo = []
        origin = sim.now

        def overlay_on():
            if not undo:
                undo.extend((yield [{"link": "*", "overlay": self.loss}]))

        def overlay_off(delay):
            yield delay
            yield undo
            undo.clear()

        def cycles():
            if self.period is None:
                yield self.start
                yield from overlay_on()
                return
            on_time = self.period * self.duty
            for wait in every(sim, self.period, self.start, self.stop):
                yield wait
                if self.stop is not None and sim.now - origin >= self.stop:
                    continue  # a firing on stop: the window is over
                yield from overlay_on()
                if on_time < self.period:
                    yield overlay_off(on_time)

        yield cycles()
        if self.stop is not None:
            # stop is install-relative, like every catalogue window, and
            # ends the overlay even when the last cycle's on-phase
            # crosses it (or duty == 1.0 never schedules off-edges).
            yield from overlay_off(self.stop)

    def __repr__(self):
        return (
            f"Lossy({self.base!r}, loss={self.loss}, period={self.period}, "
            f"duty={self.duty})"
        )


def lossy(base, **knobs):
    """Overlay a loss schedule on ``base`` (see :class:`Lossy`)."""
    return Lossy(base=base, **knobs)
