"""Node-failure scenarios: crashes, crash/restart cycles, partitions,
the composite ``chaos`` stressor, and the *gray*-failure axis —
``fail_slow`` (stragglers), ``flaky`` (intermittent heavy-loss links),
``adversarial`` (message duplication/reordering/corruption), and the
``gray_chaos`` composite.

These promote node failure to the same first-class dynamic-condition
axis the link scenarios occupy: declaratively configured, registered
with full ``Param`` schemas, grid-able by sweeps, and installed through
the standard :class:`~repro.scenarios.base.ScenarioContext` — whose
``faults`` is the run's fault injector.  Failures are *silent* (see
:mod:`repro.harness.faults`): peers learn of a death only through their
own failure detectors, which the injector arms at the first fault.

Each fault event is a script that waits for its instant, yields a
fault action such as ``("fail", node)`` and takes the undo it returns
when the fault ends.  All randomness derives from ``ctx.rng`` streams,
and every event is armed at install time from those draws, so a given
(scenario config, seed) pair produces one fixed fault timeline
regardless of worker count or protocol behavior — the property the
sweep engine's bit-identity contract needs.
"""

from repro.common.params import Param, with_defaults
from repro.scenarios.base import Scenario, later, play

__all__ = [
    "Crash",
    "CrashRestart",
    "Partition",
    "Chaos",
    "FailSlow",
    "Flaky",
    "Adversarial",
    "GrayChaos",
]


def _pick_victims(ctx, rng, fraction, count):
    """Seeded victim choice, never the source, never the last receiver."""
    receivers = ctx.receivers
    cap = len(receivers) - 1
    if cap < 1:
        return []
    if not count:
        count = max(1, round(fraction * len(receivers)))
    return rng.sample(receivers, max(1, min(count, cap)))


def _checked_schedule(schedule):
    """``schedule`` as a tuple of ``(float time, node_id)`` pairs, or a
    clear :class:`ValueError` — never misbehavior mid-run."""
    entries = []
    seen = set()
    for entry in schedule:
        try:
            at, node = entry
        except (TypeError, ValueError):
            raise ValueError(
                "crash schedule entries must be (time, node_id) pairs, "
                f"got {entry!r}"
            ) from None
        at = float(at)
        if at != at:
            raise ValueError("crash schedule contains a NaN time")
        if at < 0:
            raise ValueError(f"crash schedule time must be >= 0, got {at}")
        if node in seen:
            raise ValueError(f"crash schedule lists node {node!r} more than once")
        seen.add(node)
        entries.append((at, node))
    return tuple(entries)


class Crash(Scenario):
    """Seeded permanent node kills (the paper's section-1 failure case).

    ``count`` nodes (or ``fraction`` of the receivers when ``count`` is
    0) are chosen with the scenario RNG and crashed one ``stagger``
    apart starting at ``start``.  An explicit ``schedule`` of
    ``(time, node_id)`` pairs overrides the random choice entirely; it
    is validated up front — malformed pairs, NaN or negative times and
    duplicate nodes at construction, unknown nodes and the source (it
    is the data) at install, where the topology is known.
    """

    name = "crash"
    params = (
        Param("fraction", "float", 0.2, "fraction of receivers crashed", "(0, 1]"),
        Param("count", "int", 0, "exact victim count (0: use fraction)", "[0, inf)"),
        Param(
            "start",
            "float",
            10.0,
            "first crash, seconds after installation",
            "[0, inf)",
        ),
        Param(
            "stagger", "float", 2.0, "seconds between successive crashes", "[0, inf)"
        ),
        Param("seed", "int", None, "override the experiment seed for victim choice"),
    )

    def __init__(self, schedule=None, **knobs):
        # schedule names node ids — programmatic only, not a knob.
        super().__init__(**knobs)
        self.schedule = None if schedule is None else _checked_schedule(schedule)

    def _kill_plan(self, ctx):
        if self.schedule is not None:
            for _at, node in self.schedule:
                if node == ctx.source_id:
                    raise ValueError("the source cannot be failed (it is the data)")
                if node not in ctx.topology.nodes:
                    raise ValueError(f"crash schedule names unknown node {node!r}")
            return list(self.schedule)
        rng = ctx.rng(self.name, self.seed)
        victims = _pick_victims(ctx, rng, self.fraction, self.count)
        return [
            (self.start + index * self.stagger, node)
            for index, node in enumerate(victims)
        ]

    def _strike(self, wait, node):
        yield wait
        yield ("fail", node)

    def install(self, ctx):
        for at, node in self._kill_plan(ctx):
            play(ctx, self._strike(max(at - ctx.sim.now, 0.0), node))


class CrashRestart(Crash):
    """Crash nodes, then bring them back ``down_time`` seconds later.

    Restarted nodes come back with *all protocol state lost* — a fresh
    instance re-joins the tree, re-peers through RanSub, and restarts
    its download from zero blocks — while the harness keeps the run
    alive until every restart has happened and completed.
    """

    name = "crash_restart"
    params = Crash.params + (
        Param(
            "down_time",
            "float",
            15.0,
            "seconds a crashed node stays down before rejoining",
            "(0, inf)",
        ),
    )

    def _strike(self, wait, node):
        yield from super()._strike(wait, node)
        restart = yield ("schedule_restart", node)
        yield from later(self.down_time, restart)


class Partition(Scenario):
    """Split the topology into islands for a window, then heal.

    At ``start`` the receivers are shuffled into ``islands`` groups (the
    source always lands in island 0 — it *is* the data); cross-island
    core links collapse to a ``squeeze`` fraction of their capacity for
    ``duration`` seconds.  Propagation delay is untouched, so this
    models a capacity partition (congested trans-oceanic segment), not a
    clean cut: handshakes crawl through, bulk data effectively stops.
    """

    name = "partition"
    params = (
        Param(
            "islands",
            "int",
            2,
            "number of islands the nodes are split into",
            "[2, inf)",
        ),
        Param(
            "start",
            "float",
            8.0,
            "partition onset, seconds after installation",
            "[0, inf)",
        ),
        Param(
            "duration",
            "float",
            15.0,
            "seconds the partition holds before healing",
            "(0, inf)",
        ),
        Param(
            "squeeze",
            "float",
            1e-3,
            "cross-island capacity multiplier while split",
            "(0, 1)",
        ),
        Param("seed", "int", None, "override the experiment seed for island choice"),
    )

    def script(self, ctx):
        yield self.start
        rng = ctx.rng(self.name, self.seed)
        pool = list(ctx.receivers)
        if len(pool) < 2:
            return
        rng.shuffle(pool)
        groups = [[] for _ in range(int(self.islands))]
        for index, node in enumerate(pool):
            groups[index % len(groups)].append(node)
        if ctx.source_id is not None:
            groups[0].append(ctx.source_id)
        heal = yield ("partition", [g for g in groups if g], self.squeeze)
        yield from later(self.duration, heal)


class Chaos(Scenario):
    """Seeded composite fault stream — the standing smoke test.

    Fault events arrive as a Poisson process of ``rate`` events/second
    over ``[start, start + duration)``; each event is a weighted draw
    among a permanent crash, a crash-with-restart (down ``down_time``
    seconds), and a two-island partition (``partition_duration``
    seconds, at most one active at a time).  Permanent deaths are capped
    at ``max_dead_fraction`` of the receivers — excess crashes demote to
    restarts — and the source is never touched, so a healthy protocol
    always retains a path to completion.

    ``rate=0`` installs nothing at all: no RNG stream is created and no
    event is scheduled, making the run bit-identical to the ``none``
    scenario by construction.
    """

    name = "chaos"
    params = (
        Param(
            "rate",
            "float",
            0.1,
            "fault events per second (0: no faults at all)",
            "[0, inf)",
        ),
        Param(
            "start", "float", 5.0, "fault window opens this many seconds in", "[0, inf)"
        ),
        Param(
            "duration",
            "float",
            120.0,
            "length of the fault window in seconds",
            "[0, inf)",
        ),
        Param(
            "down_time",
            "float",
            15.0,
            "downtime of crash-with-restart events",
            "[0, inf)",
        ),
        Param(
            "partition_duration",
            "float",
            15.0,
            "seconds each partition event holds",
            "(0, inf)",
        ),
        Param(
            "crash_weight",
            "float",
            1.0,
            "relative weight of permanent-crash events",
            "[0, inf)",
        ),
        Param(
            "restart_weight",
            "float",
            2.0,
            "relative weight of crash-with-restart events",
            "[0, inf)",
        ),
        Param(
            "partition_weight",
            "float",
            0.5,
            "relative weight of partition events",
            "[0, inf)",
        ),
        Param(
            "max_dead_fraction",
            "float",
            0.25,
            "cap on permanently dead receivers",
            "[0, 1]",
        ),
        Param(
            "squeeze",
            "float",
            1e-3,
            "cross-island capacity multiplier while split",
            "(0, 1)",
        ),
        Param("seed", "int", None, "override the experiment seed for the fault stream"),
    )

    def _kind_menu(self):
        """The weighted event menu; subclasses extend it."""
        return (
            ("crash", self.crash_weight),
            ("restart", self.restart_weight),
            ("partition", self.partition_weight),
        )

    def install(self, ctx):
        if self.rate <= 0:
            return
        kinds = []
        weights = []
        for kind, weight in self._kind_menu():
            if weight > 0:
                kinds.append(kind)
                weights.append(weight)
        if not kinds:
            return
        rng = ctx.rng(self.name, self.seed)
        # The whole fault timeline is drawn up front; only victim choice
        # waits for fire time (it depends on who is still alive).
        at = self.start + rng.expovariate(self.rate)
        end = self.start + self.duration
        while at < end:
            kind = rng.choices(kinds, weights)[0]
            play(ctx, self._event(ctx, rng, at, kind))
            at += rng.expovariate(self.rate)

    def _event(self, ctx, rng, at, kind):
        yield at
        faults = ctx.faults
        live = faults.live_receivers()
        if kind == "partition":
            if faults.partition_active or len(live) < 2:
                return
            pool = list(live)
            rng.shuffle(pool)
            half = len(pool) // 2
            near = pool[half:]
            if ctx.source_id is not None:
                near = near + [ctx.source_id]
            heal = yield ("partition", [near, pool[:half]], self.squeeze)
            yield from later(self.partition_duration, heal)
        elif len(live) >= 2:  # never take out (or gray) the last live receiver
            yield from self._hit(ctx, kind, rng.choice(live), rng)

    def _hit(self, ctx, kind, victim, rng):
        """Strike ``victim`` with a ``kind`` event (not a partition)."""
        faults = ctx.faults
        if kind == "crash":
            dead_after = len(faults.permanently_failed()) + 1
            if dead_after > self.max_dead_fraction * len(ctx.receivers):
                kind = "restart"  # cap reached: demote to a transient
        yield ("fail", victim)
        if kind == "restart":
            restart = yield ("schedule_restart", victim)
            yield from later(self.down_time, restart)


class FailSlow(Scenario):
    """Seeded fail-slow stragglers: alive, responsive, and useless.

    ``count`` nodes (or ``fraction`` of the receivers when ``count`` is
    0) are degraded one ``stagger`` apart starting at ``start``: each
    victim's uplink capacity is multiplicatively squeezed to ``factor``
    and its one-shot protocol timers stretched by ``stretch`` — the host
    still answers every message, it just crawls.  With ``duration`` set
    the degradation heals (the victim recovers and peers may adopt it as
    a sender again); ``duration=None`` makes it permanent.

    ``fraction=0`` with ``count=0`` installs nothing at all: no RNG
    stream is created and no event is scheduled, making the run
    bit-identical to the ``none`` scenario by construction.
    """

    name = "fail_slow"
    params = (
        Param(
            "fraction",
            "float",
            0.25,
            "fraction of receivers degraded (0: none)",
            "[0, 1]",
        ),
        Param("count", "int", 0, "exact victim count (0: use fraction)", "[0, inf)"),
        Param(
            "factor",
            "float",
            0.2,
            "uplink capacity multiplier while degraded",
            "(0, 1]",
        ),
        Param(
            "stretch", "float", 2.0, "one-shot protocol timer multiplier", "[1, inf)"
        ),
        Param(
            "start",
            "float",
            10.0,
            "first degradation, seconds after installation",
            "[0, inf)",
        ),
        Param(
            "stagger",
            "float",
            2.0,
            "seconds between successive degradations",
            "[0, inf)",
        ),
        Param(
            "duration",
            "float",
            45.0,
            "seconds before a victim heals (None: permanent)",
            "(0, inf)",
            True,
        ),
        Param("seed", "int", None, "override the experiment seed for victim choice"),
    )

    def _degrade(self, at, node):
        yield at
        restore = yield ("degrade_node", node, self.factor, self.stretch)
        if self.duration is not None:
            yield from later(self.duration, restore)

    def install(self, ctx):
        if self.fraction <= 0 and not self.count:
            return
        rng = ctx.rng(self.name, self.seed)
        victims = _pick_victims(ctx, rng, self.fraction, self.count)
        for index, node in enumerate(victims):
            play(ctx, self._degrade(self.start + index * self.stagger, node))


class Flaky(Scenario):
    """Seeded intermittent heavy-loss (gray-link) windows per victim.

    Each victim gets an independent renewal process of loss windows over
    ``[start, start + duration)``: a window overlays a ``loss``
    probability on the victim's access links for ``window`` seconds,
    then the link heals for an exponential gap of mean ``gap`` seconds.
    Window direction is drawn per window when ``direction='random'``
    (uplink, downlink, or both — gray links are asymmetric in practice)
    or fixed otherwise.  The whole timeline is drawn at install, so a
    given (config, seed) produces one fixed schedule.

    ``loss=0`` (or ``fraction=0`` with ``count=0``) installs nothing:
    no RNG, no events — bit-identical to ``none``.
    """

    name = "flaky"
    params = (
        Param(
            "fraction",
            "float",
            0.25,
            "fraction of receivers made flaky (0: none)",
            "[0, 1]",
        ),
        Param("count", "int", 0, "exact victim count (0: use fraction)", "[0, inf)"),
        Param(
            "loss", "float", 0.9, "loss overlaid during a window (0: none)", "[0, 1)"
        ),
        Param("window", "float", 4.0, "seconds each loss window holds", "(0, inf)"),
        Param(
            "gap",
            "float",
            8.0,
            "mean clean seconds between windows (exponential)",
            "(0, inf)",
        ),
        Param(
            "start", "float", 5.0, "flaky period opens this many seconds in", "[0, inf)"
        ),
        Param(
            "duration",
            "float",
            60.0,
            "length of the flaky period in seconds",
            "[0, inf)",
        ),
        Param(
            "direction",
            "str",
            "random",
            "link direction hit by each window ('random': drawn per window)",
            ("up", "down", "both", "random"),
        ),
        Param("seed", "int", None, "override the experiment seed for the schedule"),
    )

    def _window(self, at, node, direction):
        yield at
        rows = yield ("flake_node", node, self.loss, direction)
        yield from later(self.window, rows)

    def install(self, ctx):
        if self.loss <= 0 or (self.fraction <= 0 and not self.count):
            return
        rng = ctx.rng(self.name, self.seed)
        victims = _pick_victims(ctx, rng, self.fraction, self.count)
        end = self.start + self.duration
        for node in victims:
            at = self.start + rng.expovariate(1.0 / self.gap)
            while at < end:
                direction = (
                    rng.choice(("up", "down", "both"))
                    if self.direction == "random"
                    else self.direction
                )
                play(ctx, self._window(at, node, direction))
                at += self.window + rng.expovariate(1.0 / self.gap)


#: The message-adversity rates ``adversarial`` and ``gray_chaos`` share.
_ADVERSITY_PARAMS = (
    Param("duplicate", "float", 0.01, "per-message duplication probability", "[0, 1)"),
    Param("reorder", "float", 0.05, "control-message reorder probability", "[0, 1)"),
    Param(
        "reorder_window",
        "float",
        0.5,
        "max extra delay for a reordered message (seconds)",
        "(0, inf)",
    ),
    Param(
        "corrupt", "float", 0.01, "per-block payload corruption probability", "[0, 1)"
    ),
)


def _adversity(scenario, rng):
    """The ``arm_adversity`` action of ``scenario``'s rates."""
    rates = (scenario.duplicate, scenario.reorder, scenario.reorder_window)
    return ("arm_adversity", rng, *rates, scenario.corrupt)


class Adversarial(Scenario):
    """Constant message-level adversity over a window.

    From ``start`` (until ``stop``, or forever), every delivered message
    is subject to seeded duplication (absorbed by the receiver's
    reliable transport, but counted), bounded reordering of control
    messages (extra delay up to ``reorder_window`` seconds), and payload
    corruption of blocks (probability ``corrupt``) — checksum-verifying
    protocols detect and re-request, checksum-less ones are silently
    poisoned.

    All rates 0 installs nothing: no RNG, no events — bit-identical to
    ``none``.
    """

    name = "adversarial"
    params = (
        *_ADVERSITY_PARAMS,
        Param("start", "float", 5.0, "adversity arms this many seconds in", "[0, inf)"),
        Param(
            "stop", "float", None, "disarm at this time (None: run forever)", "(0, inf)"
        ),
        Param("seed", "int", None, "override the experiment seed for the mischief"),
    )

    def validate(self):
        if self.stop is not None and self.stop <= self.start:
            raise ValueError(f"stop must be > start, got {self.stop}")

    def install(self, ctx):
        if self.duplicate <= 0 and self.reorder <= 0 and self.corrupt <= 0:
            return
        rng = ctx.rng(self.name, self.seed)
        play(ctx, later(self.start, _adversity(self, rng)))
        if self.stop is not None:
            play(ctx, later(self.stop, ("disarm_adversity",)))


class GrayChaos(Chaos):
    """``chaos`` plus the gray axis — the full-spectrum stressor.

    Extends the Poisson fault stream with two new weighted event kinds:
    a fail-slow *degrade* (uplink squeeze + timer stretch, healing after
    ``degrade_duration``) and a gray-link *flake* (a ``flake_window``
    heavy-loss window in a random direction).  On top, constant
    message-level adversity (duplication / reordering / corruption) is
    armed when the fault window opens.  Crash, restart, and partition
    events keep their ``chaos`` semantics, caps, and weights.

    ``rate=0`` installs nothing at all — no RNG, no adversity, no
    events — bit-identical to ``none``.
    """

    name = "gray_chaos"
    params = (
        *with_defaults(
            Chaos.params,
            crash_weight=0.5,
            restart_weight=1.0,
            partition_weight=0.25,
        ),
        Param(
            "degrade_weight",
            "float",
            2.0,
            "relative weight of fail-slow degrade events",
            "[0, inf)",
        ),
        Param(
            "flake_weight",
            "float",
            1.5,
            "relative weight of gray-link flake events",
            "[0, inf)",
        ),
        Param(
            "degrade_factor",
            "float",
            0.2,
            "uplink multiplier of degrade events",
            "(0, 1]",
        ),
        Param(
            "stretch", "float", 2.0, "timer multiplier of degrade events", "[1, inf)"
        ),
        Param(
            "degrade_duration",
            "float",
            40.0,
            "seconds a degrade event holds before healing",
            "(0, inf)",
        ),
        Param(
            "flake_loss", "float", 0.9, "loss overlaid during a flake window", "(0, 1)"
        ),
        Param(
            "flake_window", "float", 4.0, "seconds each flake window holds", "(0, inf)"
        ),
        *with_defaults(_ADVERSITY_PARAMS, corrupt=0.02),
    )

    def _kind_menu(self):
        return super()._kind_menu() + (
            ("degrade", self.degrade_weight),
            ("flake", self.flake_weight),
        )

    def install(self, ctx):
        super().install(ctx)
        if self.rate > 0 and (
            self.duplicate > 0 or self.reorder > 0 or self.corrupt > 0
        ):
            # A dedicated stream: the adversity draws per delivered
            # message and must not perturb the fault timeline's draws.
            rng = ctx.rng(f"{self.name}.adversity", self.seed)
            play(ctx, later(self.start, _adversity(self, rng)))

    def _hit(self, ctx, kind, victim, rng):
        if kind == "degrade":
            restore = yield ("degrade_node", victim, self.degrade_factor, self.stretch)
            yield from later(self.degrade_duration, restore)
        elif kind == "flake":
            direction = rng.choice(("up", "down", "both"))
            rows = yield ("flake_node", victim, self.flake_loss, direction)
            yield from later(self.flake_window, rows)
        else:
            yield from super()._hit(ctx, kind, victim, rng)
