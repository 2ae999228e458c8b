"""Outside-in span tracer for the benchmark's traced run.

:func:`install` replaces public entry points of ``repro`` with wrappers
that time each call, in this process only and without touching ``src/``.
A span has a name, a layer (the ``repro`` module that owns the code), a
start, an end and a parent (the span that was open when it began).  The
program is single-threaded, so spans nest strictly and a span's *self
time* is its duration minus the time its child spans cover.

Spans are aggregated in memory by ``(name, parent)`` into count / total /
self; raw spans are kept only until the simulation passes
``RAW_SIM_SECONDS``.  Nothing is written until the run has ended.

Known bias: the wrapper's own cost (two clock reads and a dict update,
about a microsecond) is paid outside the child's measured interval, so
it lands in the *parent's* self time — layers that make many tiny
traced calls read high.  Private callbacks the tracer cannot reach from
outside (``Channel._rate_changed`` under ``FlowNetwork.reallocate``,
``FlowNetwork._capacity_changed`` under a link setter) are charged to
the public span that invoked them.
"""

import functools
from time import perf_counter

#: Raw spans are kept while simulated time is at or below this.
RAW_SIM_SECONDS = 2.0
#: Hard ceiling on raw spans, whatever the first simulated seconds hold.
RAW_SPAN_LIMIT = 200_000

#: ``repro`` module prefix -> layer; first match wins.
LAYER_PREFIXES = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.tcp", "sim.tcp"),
    ("repro.sim.flow_models", "sim.flow_models"),
    ("repro.sim.links", "sim.links"),
    ("repro.sim.transport", "sim.transport"),
    ("repro.scenarios", "scenarios"),
    ("repro.core", "core"),
    ("repro.overlay", "overlay"),
    ("repro.baselines", "baselines"),
    ("repro.harness.faults", "harness.faults"),
)
#: Everything else (``repro.harness.experiment``'s completion check, the
#: benchmark's own root span) belongs to the harness.
HARNESS_LAYER = "harness.experiment"

FLOW_MODEL_HOOKS = ("flow_started", "observe_rate", "path_refreshed", "dynamic_cap")
FAULT_ACTUATORS = (
    "fail",
    "schedule_restart",
    "restart",
    "partition",
    "degrade_node",
    "restore_node",
    "flake_node",
    "arm_adversity",
    "disarm_adversity",
)


def layer_of(module):
    for prefix, layer in LAYER_PREFIXES:
        if module.startswith(prefix):
            return layer
    return HARNESS_LAYER


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """Span stack, aggregates and counters of one traced process."""

    def __init__(self):
        #: ``(name, parent name) -> [count, total_s, self_s]``
        self.spans = {}
        #: ``span name -> layer``
        self.layers = {}
        #: ``(name, parent name, start, end)`` on the ``perf_counter`` clock.
        self.raw = []
        #: Wire bytes of the control messages ``Connection.send`` accepted.
        self.control_bytes = 0
        self._stack = [["", 0.0]]
        self._raw_on = True
        self._sim = None
        #: ``code object -> span name`` for scheduled callbacks; closures
        #: are re-created per call but share their code object.
        self._callback_names = {}

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            duration = end - start
            stack.pop()
            parent = stack[-1]
            parent[1] += duration
            key = (name, parent[0])
            record = self.spans.get(key)
            if record is None:
                self.spans[key] = [1, duration, duration - frame[1]]
            else:
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
            if self._raw_on:
                self.raw.append((name, parent[0], start, end))

    def span(self, name, layer, fn, *args, **kwargs):
        """:meth:`call` for a span the benchmark opens around its own call."""
        self.layers[name] = layer
        return self.call(name, fn, *args, **kwargs)

    def run_callback(self, callback, *args):
        """Run one scheduled callback as a span of the layer owning it."""
        if self._raw_on and (
            self._sim.now > RAW_SIM_SECONDS or len(self.raw) > RAW_SPAN_LIMIT
        ):
            self._raw_on = False
        fn = getattr(callback, "__func__", callback)
        code = getattr(fn, "__code__", None)
        name = self._callback_names.get(code)
        if name is None:
            if hasattr(fn, "__wrapped__"):
                # One of our own wrappers scheduled directly (they all
                # share one code object): it opens its own span.
                return callback(*args)
            qualname = getattr(fn, "__qualname__", type(fn).__name__)
            name = "cb:" + qualname.replace(".<locals>", "")
            self.layers[name] = layer_of(getattr(fn, "__module__", None) or "")
            if code is not None:
                self._callback_names[code] = name
        return self.call(name, callback, *args)

    def wrap(self, owner, attr, layer=None):
        """Replace ``owner.attr`` with a wrapper that opens a span."""
        inner = owner.__dict__[attr]
        name = f"{owner.__name__}.{attr}"
        self.layers[name] = layer or layer_of(inner.__module__)
        call = self.call

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            return call(name, inner, *args, **kwargs)

        setattr(owner, attr, traced)

    def export(self):
        """Plain-data aggregates: one row per ``(name, parent)``."""
        return [
            {
                "name": name,
                "layer": self.layers[name],
                "parent": parent,
                "count": count,
                "total_s": total,
                "self_s": self_s,
            }
            for (name, parent), (count, total, self_s) in sorted(self.spans.items())
        ]


def install(on_result):
    """Wrap the public entry points; returns the :class:`Tracer`.

    ``on_result(result)`` is called with every
    :class:`~repro.harness.experiment.ExperimentResult` just before its
    ``summary()`` — the one place a sweep cell's result object is
    reachable from outside ``run_cell``.

    Call after ``repro`` and its registries are imported (scenario and
    flow-model subclasses are found by walking the class tree) and before
    the experiment's objects are built.  There is no uninstall: the traced
    run owns its process.
    """
    from repro.harness.experiment import ExperimentResult
    from repro.harness.faults import FaultInjector
    from repro.overlay.node import OverlayProtocol
    from repro.scenarios.base import Scenario
    from repro.sim.engine import Simulator
    from repro.sim.links import Link
    from repro.sim.tcp import FlowModel, FlowNetwork
    from repro.sim.transport import MESSAGE_HEADER_BYTES, Connection

    tracer = Tracer()
    call = tracer.call
    run_callback = tracer.run_callback

    # -- sim.engine: the dispatch root, and every scheduled callback ----------
    engine_run = Simulator.run
    tracer.layers["Simulator.run"] = "sim.engine"

    def run(sim, until=None):
        tracer._sim = sim
        return call("Simulator.run", engine_run, sim, until)

    Simulator.run = run

    engine_schedule = Simulator.schedule
    engine_schedule_at = Simulator.schedule_at
    engine_schedule_periodic = Simulator.schedule_periodic

    def schedule(sim, delay, callback, *args):
        return engine_schedule(sim, delay, run_callback, callback, *args)

    def schedule_at(sim, time, callback, *args):
        return engine_schedule_at(sim, time, run_callback, callback, *args)

    def schedule_periodic(sim, period, callback, jitter_rng=None):
        return engine_schedule_periodic(
            sim, period, functools.partial(run_callback, callback), jitter_rng
        )

    Simulator.schedule = schedule
    Simulator.schedule_at = schedule_at
    Simulator.schedule_periodic = schedule_periodic

    # -- sim.tcp, sim.flow_models, sim.links ------------------------------------
    for attr in ("reallocate", "activate", "deactivate", "new_flow"):
        tracer.wrap(FlowNetwork, attr)
    for cls in _subclasses(FlowModel):
        for hook in FLOW_MODEL_HOOKS:
            if hook in cls.__dict__:
                tracer.wrap(cls, hook, layer="sim.flow_models")
    # Every write ends in one of the three setters (``scale_capacity`` and
    # ``set_conditions`` go through them), so those alone are wrapped.
    for attr in ("capacity", "delay", "loss_rate"):
        prop = Link.__dict__[attr]
        name = f"Link.set_{attr}"
        tracer.layers[name] = "sim.links"

        def traced_set(link, value, _name=name, _set=prop.fset):
            call(_name, _set, link, value)

        setattr(Link, attr, property(prop.fget, traced_set))

    # -- sim.transport -----------------------------------------------------------
    connection_send = Connection.send
    tracer.layers["Connection.send"] = "sim.transport"

    def send(conn, message):
        sent = call("Connection.send", connection_send, conn, message)
        if sent and not message.is_block:
            tracer.control_bytes += message.size + MESSAGE_HEADER_BYTES
        return sent

    Connection.send = send

    # -- core / overlay / baselines: handlers and protocol timers ---------------
    protocol_init = OverlayProtocol.__init__
    protocol_handler = OverlayProtocol.handler
    protocol_schedule = OverlayProtocol.schedule
    protocol_periodic = OverlayProtocol.periodic
    handler_kinds = {}

    def handler(node, kind, fn):
        name = f"on_{kind}"
        owner = getattr(fn, "__func__", fn)
        tracer.layers[name] = layer_of(owner.__module__)
        protocol_handler(node, kind, functools.partial(call, name, fn))

    def init(node, *args, **kwargs):
        protocol_init(node, *args, **kwargs)
        cls = type(node)
        kinds = handler_kinds.get(cls)
        if kinds is None:
            kinds = handler_kinds[cls] = [
                attr[3:] for attr in dir(cls) if attr.startswith("on_")
            ]
        # ``_dispatch`` would memoize the bare method on first use;
        # registering it up front routes it through ``handler`` above.
        for kind in kinds:
            node.handler(kind, getattr(node, f"on_{kind}"))

    def protocol_timer(node, delay, fn):
        return protocol_schedule(node, delay, functools.partial(run_callback, fn))

    def protocol_period(node, period, fn, jitter_rng=None):
        return protocol_periodic(
            node, period, functools.partial(run_callback, fn), jitter_rng
        )

    OverlayProtocol.__init__ = init
    OverlayProtocol.handler = handler
    OverlayProtocol.schedule = protocol_timer
    OverlayProtocol.periodic = protocol_period

    # -- scenarios, harness.faults, harness.experiment --------------------------
    for cls in _subclasses(Scenario):
        if "install" in cls.__dict__:
            tracer.wrap(cls, "install", layer="scenarios")
    for attr in FAULT_ACTUATORS:
        tracer.wrap(FaultInjector, attr)
    result_summary = ExperimentResult.summary
    tracer.layers["ExperimentResult.summary"] = HARNESS_LAYER

    def summary(result):
        on_result(result)
        return call("ExperimentResult.summary", result_summary, result)

    ExperimentResult.summary = summary
    return tracer
