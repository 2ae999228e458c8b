"""Replay per-link condition traces.

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

:class:`TraceReplay` is a scenario that drives link conditions from a
trace (in-memory events, a JSON trace file, or a ``.csv`` of
``time, bandwidth[, loss[, delay]]`` rows), so measured conditions —
a 5G drive trace, a recorded experiment — can be imposed on any
system.  A JSON trace file is ``{"version": 1, "events": [...]}``.
"""

import json
import math

from repro.common.params import Param
from repro.scenarios.base import Scenario, later, play
from repro.sim.links import ScaleColumn

__all__ = ["TraceReplay", "read_csv_trace", "read_trace"]

TRACE_VERSION = 1

#: Columns that write a condition; an event needs at least one.
_WRITE_COLUMNS = ("capacity", "scale", "loss", "delay", "remove", "overlay")
#: Each number column's domain: a value, or each element of a per-link
#: list, must lie in it (an infinity or a NaN lies in none).
_DOMAINS = {"t": "(-inf, inf)", "capacity": "(0, inf)", "scale": "(0, inf)"}
_DOMAINS |= dict.fromkeys(("loss", "remove", "overlay"), "[0, 1)")
_DOMAINS |= dict.fromkeys(("delay", "floor"), "[0, inf)")
_NUMBERS = [Param(name, "float", 0.5, "", domain) for name, domain in _DOMAINS.items()]


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
    """Read a trace file: JSON (see the module docstring), or ``.csv``
    rows (see :func:`read_csv_trace`); returns the event list."""
    if str(path).endswith(".csv"):
        return read_csv_trace(path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("version")
    if version != TRACE_VERSION:
        raise ValueError(f"unsupported trace version {version!r} in {path}")
    return doc["events"]


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
            if event.get("t") is None or "link" not in event:
                raise ValueError(f"trace event missing t/link: {event!r}")
            if "capacity" in event and "scale" in event:
                raise ValueError(f"trace event has both capacity and scale: {event!r}")
            if not any(column in event for column in _WRITE_COLUMNS):
                raise ValueError(
                    f"trace event needs at least one of "
                    f"{'/'.join(_WRITE_COLUMNS)}: {event!r}"
                )
            link = event["link"]
            if isinstance(link, str) and link != "*" and "->" not in link:
                raise ValueError(f"trace event link {link!r} is not '*' or src->dst")
            for param in _NUMBERS:
                value = event.get(param.name)
                if value is None or isinstance(value, ScaleColumn):
                    continue
                try:
                    for element in value if type(value) is list else [value]:
                        param.check(element)
                except ValueError as exc:
                    raise ValueError(f"trace event {event!r}: {exc}") from None

    def script(self, ctx):
        origin = ctx.sim.now
        for event in sorted(self.events, key=lambda e: e["t"]):
            wait = event["t"] * self.time_scale
            if origin + wait <= origin:  # too small to move the clock: now
                yield [event]
            else:
                play(ctx, later(wait, [event]))
