"""Scenario combinators: build compound conditions from simple ones.

- :func:`compose` — install several scenarios together (e.g. oscillating
  cellular links *plus* churn, or any scenario plus a
  :class:`~repro.scenarios.tracefile.TraceRecorder`).
- :func:`delay` — start a scenario ``offset`` seconds late.
- :func:`repeat` — re-install a (one-shot) scenario every ``every``
  seconds, optionally a bounded number of ``times``.

Combinators are scenarios themselves, so they nest:
``repeat(delay(compose(a, b), 5.0), every=60.0)``.
"""

from repro.scenarios.base import CompositeHandle, Scenario, ScenarioHandle

__all__ = ["Compose", "Delay", "Repeat", "compose", "delay", "repeat"]


class Compose(Scenario):
    """Install every child scenario into the same context."""

    name = "compose"

    def __init__(self, *scenarios):
        if not scenarios:
            raise ValueError("compose needs at least one scenario")
        self.scenarios = scenarios

    def install(self, ctx):
        handle = CompositeHandle()
        for scenario in self.scenarios:
            handle.add(scenario.install(ctx))
        return handle

    def __repr__(self):
        inner = ", ".join(repr(s) for s in self.scenarios)
        return f"Compose({inner})"


class Delay(Scenario):
    """Install the inner scenario ``offset`` simulated seconds from now.

    Membership-shaping scenarios (``flash_crowd``) publish start delays
    at install time, which the harness reads before the run begins —
    give those a ``start=`` offset instead of wrapping them in Delay.
    """

    name = "delay"

    def __init__(self, scenario, offset):
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self.scenario = scenario
        self.offset = offset

    def install(self, ctx):
        handle = CompositeHandle()
        outer = ScenarioHandle()
        handle.add(outer)

        def arm():
            if not handle.cancelled:
                handle.add(self.scenario.install(ctx))

        outer.add_timer(ctx.sim.schedule(self.offset, arm))
        return handle

    def __repr__(self):
        return f"Delay({self.scenario!r}, offset={self.offset})"


class Repeat(Scenario):
    """Re-install the inner scenario every ``every`` seconds.

    The first installation happens immediately; each re-installation
    first cancels the previous one (so a still-running inner scenario is
    restarted, not stacked).  ``times=None`` repeats until the run ends
    or the handle is cancelled.
    """

    name = "repeat"

    def __init__(self, scenario, every, times=None):
        if every <= 0:
            raise ValueError(f"every must be > 0, got {every}")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self.scenario = scenario
        self.every = every
        self.times = times

    def install(self, ctx):
        handle = ScenarioHandle()
        state = {"inner": None, "count": 0, "timer": None}

        def arm():
            if handle.cancelled:
                return
            if state["inner"] is not None:
                state["inner"].cancel()
            state["inner"] = self.scenario.install(ctx)
            state["count"] += 1
            if self.times is None or state["count"] < self.times:
                state["timer"] = ctx.sim.schedule(self.every, arm)

        arm()

        def teardown():
            if state["timer"] is not None:
                state["timer"].cancel()
            if state["inner"] is not None:
                state["inner"].cancel()

        handle.on_cancel(teardown)
        return handle

    def __repr__(self):
        return (
            f"Repeat({self.scenario!r}, every={self.every}, "
            f"times={self.times})"
        )


def compose(*scenarios):
    """Run several scenarios simultaneously (see :class:`Compose`)."""
    return Compose(*scenarios)


def delay(scenario, offset):
    """Start ``scenario`` ``offset`` seconds late (see :class:`Delay`)."""
    return Delay(scenario, offset)


def repeat(scenario, every, times=None):
    """Re-install ``scenario`` periodically (see :class:`Repeat`)."""
    return Repeat(scenario, every, times=times)
