"""Scenario combinators: build compound conditions from simple ones.

:func:`compose` installs several scenarios together (e.g. oscillating
cellular links *plus* churn, or a trace replay plus a crash).  A
composition is a scenario itself, so compositions nest; each child's
own ``start`` / ``stop`` knobs place it in time.
"""

from repro.scenarios.base import Scenario

__all__ = ["Compose", "compose"]


class Compose(Scenario):
    """Install every child scenario into the same context."""

    name = "compose"

    def __init__(self, *scenarios):
        if not scenarios:
            raise ValueError("compose needs at least one scenario")
        self.scenarios = scenarios

    def install(self, ctx):
        for scenario in self.scenarios:
            scenario.install(ctx)

    def __repr__(self):
        inner = ", ".join(repr(s) for s in self.scenarios)
        return f"Compose({inner})"


def compose(*scenarios):
    """Run several scenarios simultaneously (see :class:`Compose`)."""
    return Compose(*scenarios)
