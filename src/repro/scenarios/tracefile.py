"""Record and replay per-link condition traces.

A *trace* is a time-ordered list of condition events::

    {"t": 12.5, "link": "3->7", "capacity": 125000.0}
    {"t": 15.0, "link": "*",    "scale": 0.5}
    {"t": 18.0, "link": "*",    "loss": 0.02, "delay": 0.08}

Each event is a row of :func:`repro.sim.links.apply`, the one link
write path, plus its time ``t``; so any scenario's writes replay as a
trace.  ``link`` names a core link as ``"src->dst"`` (node ids) or
``"*"`` for every core link.  An event carries any subset of the
link-condition columns: an absolute ``capacity`` in bytes/second *or* a
multiplicative ``scale`` on the current capacity, plus optional ``loss``
(probability) and ``delay`` (one-way seconds) — the multi-column form
that lets one measured LTE/5G trace drive all three knobs of the
link-condition engine at once.

- :class:`TraceRecorder` — a scenario that samples every core link at a
  fixed period and appends an event whenever a recorded column changed
  (plus the full baseline at install time).  By default only capacity
  is recorded — the original ``(time, bandwidth)`` contract —
  ``record_loss`` / ``record_delay`` add the other columns.  ``save()``
  writes the JSON trace file; any run can thus be recorded and replayed
  later.
- :class:`TraceReplay` — a scenario that drives link conditions from a
  trace (in-memory events, a JSON trace file, or a ``.csv`` of
  ``time, bandwidth[, loss[, delay]]`` rows), so measured conditions —
  a 5G drive trace, a recorded experiment — can be imposed on any
  system.

Round-tripping is exact: replaying a recorded trace while recording
again yields the identical event list (see the trace round-trip tests),
including the loss and delay columns.
"""

import json
import math

from repro.common.params import Param
from repro.scenarios.base import Scenario, periodic

__all__ = [
    "TraceRecorder",
    "TraceReplay",
    "read_csv_trace",
    "read_trace",
    "write_trace",
]

TRACE_VERSION = 1

#: Columns that write a condition; an event needs at least one.
_WRITE_COLUMNS = ("capacity", "scale", "loss", "delay", "remove", "overlay")


def _link_key(pair):
    src, dst = pair
    return f"{src}->{dst}"


def write_trace(path, events, sample_period=None):
    """Write ``events`` as a JSON trace file."""
    doc = {"version": TRACE_VERSION, "events": list(events)}
    if sample_period is not None:
        doc["sample_period"] = sample_period
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_csv_trace(path):
    """Read a ``time, bandwidth[, loss[, delay]]`` CSV as trace events.

    The measured-trace interchange format: one row per sample, applied
    to every core link (``link: "*"``).  Bandwidth is in bytes/second,
    loss a probability, delay one-way seconds.  A header row naming the
    columns (any subset of ``time, bandwidth, loss, delay``, in any
    order) is honored; without one, columns are taken positionally.

    Measured traces contain outage samples; rather than exploding
    mid-run against the simulator's invariants (capacity strictly
    positive, loss strictly below 1), zero-bandwidth samples clamp to a
    1 B/s trickle — the same convention the churn scenario uses for
    dark nodes — and loss clamps just below 1.  Negative and non-finite
    (``nan``, ``inf``) values are rejected with the offending line
    number.
    """
    columns = ["time", "bandwidth", "loss", "delay"]
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            # An empty field is a missing sample for its column — kept
            # positional (NOT dropped, which would shift later columns
            # onto the wrong knobs).
            values = []
            numeric = True
            for field in fields:
                if not field:
                    values.append(None)
                    continue
                try:
                    values.append(float(field))
                except ValueError:
                    numeric = False
                    break
            if not numeric:
                if events:
                    raise ValueError(
                        f"{path}: line {line_no}: non-numeric row {line!r}"
                    )
                # Header row: take it as the column order.
                columns = [f.lower() for f in fields if f]
                unknown = set(columns) - {"time", "bandwidth", "loss", "delay"}
                if unknown or "time" not in columns:
                    raise ValueError(
                        f"{path}: header must name time, bandwidth, loss, "
                        f"delay (got {fields!r})"
                    )
                continue
            if len(fields) > len(columns):
                raise ValueError(
                    f"{path}: line {line_no}: {len(fields)} fields but only "
                    f"{len(columns)} columns ({columns})"
                )
            row = {
                column: value
                for column, value in zip(columns, values)
                if value is not None
            }
            if "time" not in row:
                raise ValueError(f"{path}: line {line_no}: row without a time")
            if len(row) == 1:
                raise ValueError(
                    f"{path}: line {line_no}: row has a time but no "
                    f"condition columns"
                )
            for column, value in row.items():
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: line {line_no}: non-finite {column} {value}"
                    )
            for column in ("bandwidth", "loss", "delay"):
                if row.get(column, 0.0) < 0:
                    raise ValueError(
                        f"{path}: line {line_no}: negative {column} {row[column]}"
                    )
            event = {"t": row["time"], "link": "*"}
            if "bandwidth" in row:
                bandwidth = row["bandwidth"]
                event["capacity"] = bandwidth if bandwidth >= 1.0 else 1.0
            if "loss" in row:
                event["loss"] = row["loss"] if row["loss"] < 1.0 else 0.999999
            if "delay" in row:
                event["delay"] = row["delay"]
            events.append(event)
    return events


def read_trace(path):
    """Read a trace file: :func:`write_trace` JSON, or ``.csv`` rows
    (see :func:`read_csv_trace`); returns the event list."""
    if str(path).endswith(".csv"):
        return read_csv_trace(path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("version")
    if version != TRACE_VERSION:
        raise ValueError(f"unsupported trace version {version!r} in {path}")
    return doc["events"]


class TraceRecorder(Scenario):
    """Record every core link's condition schedule while a run executes.

    At install time the full baseline is captured as events at the
    current simulated time; afterwards the links are sampled every
    ``sample_period`` seconds (offset by ``start``) and any change in a
    recorded column is appended as an event carrying exactly the
    changed columns.  Changes faster than the sample period collapse to
    the sampled schedule — the recorded trace *is* the contract a
    replay reproduces.

    ``record_loss`` / ``record_delay`` extend recording beyond capacity
    to the other link-condition axes; the default records capacity only,
    byte-identical to the original ``(time, bandwidth)`` recorder.

    One recorder instance accumulates across installs into ``events``;
    call :meth:`reset` (or use a fresh instance) per recording.
    """

    name = "trace_record"

    def __init__(
        self, sample_period=1.0, start=0.0, record_loss=False, record_delay=False
    ):
        if sample_period <= 0:
            raise ValueError(
                f"sample_period must be > 0, got {sample_period}"
            )
        self.sample_period = sample_period
        self.start = start
        self.record_loss = record_loss
        self.record_delay = record_delay
        self.events = []

    def reset(self):
        self.events = []

    def save(self, path):
        write_trace(path, self.events, sample_period=self.sample_period)
        return path

    def _snapshot(self, link):
        """The recorded columns' current values, in column order."""
        values = {"capacity": link.capacity}
        if self.record_loss:
            values["loss"] = link.loss_rate
        if self.record_delay:
            values["delay"] = link.delay
        return values

    def install(self, ctx):
        sim = ctx.sim
        links = ctx.core_links()
        last = {}
        for pair, link in links:
            values = self._snapshot(link)
            last[pair] = values
            self.events.append({"t": sim.now, "link": _link_key(pair), **values})

        def tick():
            for pair, link in links:
                values = self._snapshot(link)
                previous = last[pair]
                if values != previous:
                    changed = {
                        column: value
                        for column, value in values.items()
                        if value != previous[column]
                    }
                    last[pair] = values
                    self.events.append(
                        {"t": sim.now, "link": _link_key(pair), **changed}
                    )

        periodic(
            sim,
            tick,
            start=self.start + self.sample_period,
            period=self.sample_period,
        )


#: Default demo schedule used when ``TraceReplay`` is built with no
#: trace: halve every core link mid-run, then restore — a minimal
#: network-wide capacity dip expressible on any topology.
DEMO_EVENTS = (
    {"t": 15.0, "link": "*", "scale": 0.5},
    {"t": 45.0, "link": "*", "scale": 2.0},
)


class TraceReplay(Scenario):
    """Drive per-link conditions from a recorded multi-column trace.

    ``events`` is a list of event dicts (see the module docstring);
    ``path`` loads one from a trace file instead — JSON, or a
    ``time, bandwidth[, loss[, delay]]`` ``.csv`` of measured samples.
    With neither, a small built-in demo schedule (a network-wide
    dip-and-recover) is used so the scenario is runnable out of the
    box.  Events whose time is already past at install are applied
    immediately; unknown links are ignored (a trace recorded on one
    topology replays its intersection onto another).
    """

    name = "trace_replay"
    params = (
        Param(
            "path",
            "str",
            None,
            "trace file (.json or .csv) to replay (default: built-in demo dip)",
        ),
        Param(
            "time_scale",
            "float",
            1.0,
            "stretch (>1) or compress (<1) the trace clock",
            "(0, inf)",
        ),
    )

    def __init__(self, events=None, **knobs):
        # events is an in-memory trace — programmatic only, not a knob.
        super().__init__(**knobs)
        if events is not None and self.path is not None:
            raise ValueError("pass events or path, not both")
        if self.path is not None:
            events = read_trace(self.path)
        elif events is None:
            events = DEMO_EVENTS
        self.events = [dict(e) for e in events]
        for event in self.events:
            if "t" not in event or "link" not in event:
                raise ValueError(f"trace event missing t/link: {event!r}")
            if "capacity" in event and "scale" in event:
                raise ValueError(
                    f"trace event cannot carry both capacity and scale: "
                    f"{event!r}"
                )
            if not any(column in event for column in _WRITE_COLUMNS):
                raise ValueError(
                    f"trace event needs at least one of "
                    f"{'/'.join(_WRITE_COLUMNS)}: {event!r}"
                )

    def install(self, ctx):
        sim = ctx.sim
        apply = ctx.topology.apply
        origin = sim.now
        for event in sorted(self.events, key=lambda e: e["t"]):
            at = origin + event["t"] * self.time_scale
            if at <= sim.now:
                apply([event])
            else:
                sim.schedule_at(at, apply, [event])
