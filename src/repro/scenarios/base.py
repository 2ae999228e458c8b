"""Scenario base classes and the one driver of scenario scripts.

A :class:`Scenario` is a declarative description of a dynamic-network
condition — *what* happens to the emulated network over time — decoupled
from any particular experiment.  Instances hold configuration only; all
per-run state lives inside :meth:`Scenario.install`, so one instance can
be installed into many simulations without cross-talk.  An installed
scenario runs for the rest of the simulation; ``install`` returns
nothing, and a scenario's own ``stop`` knob is how its effect ends.

A scenario is a *script*, a generator of waits, link-write rows and
fault actions that :func:`play` runs (the default
:meth:`Scenario.install`): ``play`` is the one place a scenario's
events are scheduled, so its rows and actions can be checked on a bare
simulator and topology.

``install`` receives a :class:`ScenarioContext` bundling everything a
scenario may act on: the simulator, the topology, and — when installed
by :func:`repro.harness.experiment.run_experiment` — the protocol nodes,
the source id, and the experiment seed.  Scenarios that only mutate
links work in any context; scenarios that shape *membership* (e.g.
``flash_crowd`` staggering node joins) publish their intent through
``ctx.start_delays`` and the harness honors it.
"""

from repro.common.params import Configurable, Param
from repro.common.rng import split_rng

__all__ = [
    "Scenario",
    "ScenarioContext",
    "WINDOW_PARAMS",
    "every",
    "later",
    "play",
]

#: The install-relative firing window + RNG override that periodic
#: catalogue scenarios share (append to a class's own ``params``).
WINDOW_PARAMS = (
    Param(
        "start", "float", None, "first firing, seconds after installation", "[0, inf)"
    ),
    Param(
        "stop",
        "float",
        None,
        "stop after this many seconds (None: run forever)",
        "[0, inf)",
    ),
    Param("seed", "int", None, "override the experiment seed for this scenario's RNG"),
)


class ScenarioContext:
    """Everything a scenario may read or act on for one installation.

    Parameters
    ----------
    sim:
        The :class:`repro.sim.engine.Simulator` driving the run.
    topology:
        The :class:`repro.sim.topology.Topology` whose links the
        scenario mutates.
    nodes:
        Optional ``{node_id: protocol}`` mapping (present when installed
        by the experiment harness, absent for bare link-level use).
    source_id:
        The data source's node id, or None when unknown.  Scenarios must
        never degrade the source into uselessness (it *is* the data).
    seed:
        The experiment seed; :meth:`rng` derives per-scenario streams
        from it so scenarios never perturb each other's draws.
    """

    def __init__(
        self, sim, topology, *, nodes=None, source_id=None, seed=0, faults=None
    ):
        self.sim = sim
        self.topology = topology
        self.nodes = nodes
        self.source_id = source_id
        self.seed = seed
        #: node_id -> start delay in seconds; the harness starts those
        #: nodes late (membership-shaping scenarios write this).
        self.start_delays = {}
        self._faults = faults

    @property
    def faults(self):
        """The run's :class:`repro.harness.faults.FaultInjector`, which
        :func:`play` hands a script's fault actions (a scenario never
        touches protocol nodes directly).  Only the experiment harness
        supplies one; a bare link-level context refuses."""
        if self._faults is None:
            raise RuntimeError(
                "this scenario injects node failures and needs the "
                "experiment harness's fault injector; install it via "
                "run_experiment, not as a bare link-level scenario"
            )
        return self._faults

    def rng(self, label, seed=None):
        """An independent RNG stream for ``label`` (see ``split_rng``).

        ``seed`` overrides the context seed (scenarios with an explicit
        ``seed=`` config pass it here).
        """
        effective = self.seed if seed is None else seed
        return split_rng(effective, f"scenario.{label}")

    @property
    def receivers(self):
        """Node ids excluding the source (all nodes if no source known)."""
        return [n for n in self.topology.nodes if n != self.source_id]

    def core_links(self):
        """``[((src, dst), link), ...]`` in key order: builds every link."""
        return list(self.topology.core.items())


def every(sim, period, start, stop):
    """Yield the waits of a clock that fires ``start`` seconds after the
    first draw (None: one ``period``) and then every ``period``, up to
    and including ``stop`` seconds after the first draw (None: forever).
    A script draws first inside ``install``: its window is install-relative."""
    origin = sim.now
    wait = period if start is None else start
    if stop is None or wait <= stop:
        yield wait
        while stop is None or sim.now + period - origin <= stop:
            yield period


def later(delay, step):
    """A script that takes ``step``, rows or a fault action, ``delay``
    seconds from now: the undo that ends a temporary change, say.  A
    refused action's undo is None, and None is never taken."""
    if step is not None:
        yield delay
        yield step


def play(ctx, script):
    """Run ``script`` on ``ctx``: its first segment now, each later one at
    the firing it waits for.  A script yields a wait in seconds (one
    event); a list of rows that ``topology.apply`` writes at once; or a
    fault action ``(name, *args)`` that calls ``ctx.faults.name(*args)``.
    Rows and actions resume the script in the same instant with what
    they return: the inverse rows, or the action's undo."""
    apply, schedule = ctx.topology.apply, ctx.sim.schedule

    def act(name, *args):
        return getattr(ctx.faults, name)(*args)

    def resume():
        reply = None
        try:
            while type(step := script.send(reply)) in (list, tuple):
                reply = apply(step) if type(step) is list else act(*step)
        except StopIteration:
            return
        schedule(step, resume)

    resume()


class Scenario(Configurable):
    """Base class for all dynamic-network scenarios.

    Subclasses declare their knobs as ``params`` — each ``Param`` row
    states the knob's domain, the only range check it gets (bound and
    checked by :class:`~repro.common.params.Configurable`; ``validate``
    is for cross-knob constraints only) — set :attr:`name`, and
    write :meth:`script` (or, for a scenario that is not a link
    script, override :meth:`install`); instances must be pure
    configuration so they can be installed more than once.  The base
    script writes nothing: the static network.
    """

    #: Registry/display name; subclasses override.
    name = "scenario"

    def install(self, ctx):
        """Install this scenario into ``ctx``: :func:`play` its script."""
        play(ctx, self.script(ctx))

    def script(self, ctx):
        """This installation's waits, rows and actions, for :func:`play`."""
        yield from ()

    def __repr__(self):
        return f"{type(self).__name__}()"
