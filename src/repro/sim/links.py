"""Network links and the one function that writes their conditions.

A :class:`Link` is a unidirectional capacity-constrained pipe with a
propagation delay and a random-loss probability.  Links are shared by the
TCP flows routed over them; the :mod:`repro.sim.tcp` allocator divides
``capacity`` among those flows max-min fairly.

All three knobs are runtime-mutable — together they form the link's
*conditions* — and :func:`apply` is the one place that writes them: every
scenario and fault overlay states its change as *rows* (the trace-file
vocabulary of :mod:`repro.scenarios.tracefile`) and hands them to
``topology.apply``.  ``apply`` returns the inverse rows of what it wrote,
so a temporary change — a churned node, a healed partition, the end of a
loss window — is undone by applying those rows later; no writer keeps
its own removal rule.  Because every link is unidirectional, the two
directions of a node pair are independent links — per-direction
(asymmetric) dynamics need no extra machinery.

Change propagation is callback-based and split by consumer:
``on_capacity_change`` feeds the allocator's dirty-link path, while
``on_condition_change`` fires for loss/delay mutations and lets the flow
network refresh the per-flow path invariants (Mathis cap, RTT, RTO) that
were computed from these values.

**Deferred rows.**  A link is *observed* once it has an
``on_capacity_change`` callback (the flow network sets one on every link
of a flow it creates).  A row that names ``"*"`` and whose only write is
a :class:`ScaleColumn` ``scale`` — an immutable per-link column such as
one oscillation tick — is written at once only to the observed links,
with the usual product, equality skip and callback.  For the other
links its column is appended to the topology's :class:`ScaleLog`; each
keeps a cursor into it (a link built late starts at 0).  A deferred link
replays the columns logged since its cursor — the same multiplications
in the same order, firing no callback, as none would have fired — the
first time its capacity is read through ``Link.capacity``, another row
writes its capacity, or it becomes observed.  The allocator reads
``_capacity`` directly, which is safe: it reads only links that carry a
flow, and those are observed.
"""

from bisect import insort

__all__ = ["Link", "ScaleColumn", "ScaleLog", "apply"]


def _clamp_loss(value):
    return 0.0 if value < 0.0 else 0.999999 if value >= 1.0 else value


def _targets(topology, target):
    if type(target) is Link:
        return (target,)
    if target == "*":
        return list(topology.core.values())
    if isinstance(target, str):
        src, arrow, dst = target.partition("->")
        if not arrow:
            raise ValueError(f"malformed link key {target!r}")
        pair = tuple(int(n) if n.lstrip("-").isdigit() else n for n in (src, dst))
        link = topology.core.get(pair)
        return () if link is None else (link,)
    return target


class ScaleColumn:
    """An immutable ``scale`` column, one factor per target link.

    A ``"*"`` row carrying one is deferred on unobserved links (see the
    module docstring), so its factors must not change once applied.
    ``column[i]`` is the i-th factor, ``take(indices)`` a list of
    several, and ``replay`` multiplies one link's capacity by a run of
    columns; the inverse column's i-th factor is ``1.0 / column[i]``.
    """

    __slots__ = ()

    def take(self, indices):
        return [self[i] for i in indices]

    def replay(self, capacity, i, columns):
        """``capacity`` times the i-th factor of each of ``columns`` (a
        run of logged columns that starts with this one), in order."""
        for column in columns:
            capacity *= column[i]
        return capacity


class _Inverse(ScaleColumn):
    __slots__ = ("column",)

    def __init__(self, column):
        self.column = column

    def __getitem__(self, i):
        return 1.0 / self.column[i]

    def take(self, indices):
        return [1.0 / f for f in self.column.take(indices)]


class ScaleLog:
    """A topology's deferred :class:`ScaleColumn` rows.

    ``rows`` holds the column of each deferred row, in apply order.  At
    the first one, ``index_core`` takes ``topology.core`` and enrolls its
    built links; ``observed`` holds the sorted key positions (``_pos``)
    of the observed ones, so a row walks only those.
    """

    __slots__ = ("rows", "core", "observed")

    def __init__(self):
        self.rows = []
        self.core = None
        self.observed = []

    def index_core(self, core):
        """Index the core links (``topology.core``); the log is empty."""
        self.core = core
        for link in core.built():
            self.enroll(link)

    def enroll(self, link):
        """Follow ``link`` from cursor 0 (built late, it missed every row)."""
        link._log = self
        if link._on_capacity_change is None:
            link._cursor = 0
        else:
            insort(self.observed, link._pos)

    def observe(self, link):
        """``link`` gained a capacity callback: replay what it missed."""
        _catch_up(link)
        link._cursor = None
        insort(self.observed, link._pos)


def _catch_up(link):
    """Replay the columns logged since ``link``'s cursor (no callback)."""
    rows = link._log.rows
    if link._cursor == len(rows):
        return
    columns = rows[link._cursor :]
    capacity = columns[0].replay(link._capacity, link._pos, columns)
    if not capacity > 0:
        raise ValueError(f"link {link.name}: capacity must be > 0, got {capacity}")
    link._capacity = capacity
    link._cursor = len(rows)


def apply(topology, rows):
    """Write ``rows`` to ``topology``'s links; return the inverse rows.

    A row's ``link`` is a :class:`Link`, a list or tuple of links,
    ``"src->dst"`` (an unknown core link is skipped) or ``"*"`` (every
    core link).  Per link it writes ``capacity`` or ``scale`` (skipping
    the link if the result is below ``floor``), then ``loss`` with
    ``remove`` / ``overlay`` (an independent loss process divided out
    of, then added to, the keep probability — one write), then
    ``delay``.  ``scale``, ``loss`` and ``delay`` hold one number, or a
    list with one per link; ``scale`` may also be a
    :class:`ScaleColumn`, and a ``"*"`` row of only such a column is
    deferred on the unobserved links (see the module docstring); a
    column on any other target is written at once, like a list.
    Each row's inverse names the links it wrote: scale ``f`` is undone
    by ``1.0 / f`` (a deferred column by its inverse), capacity ``c -> x``
    by scale ``c / x``, an overlay by its removal, an absolute loss or
    delay by the old value.
    """
    inverse = []
    for row in rows:
        get = row.get
        capacity, scale, floor = get("capacity"), get("scale"), get("floor")
        loss, remove, overlay = get("loss"), get("remove"), get("overlay")
        delay = get("delay")
        sets_capacity = capacity is not None or scale is not None
        sets_loss = loss is not None or remove or overlay
        target = row["link"]
        if (
            target == "*"
            and isinstance(scale, ScaleColumn)
            and capacity is None
            and floor is None
            and not sets_loss
            and delay is None
        ):
            log = topology.scale_log
            if log.core is None:
                log.index_core(topology.core)
            links, observed = log.core.links, log.observed
            for i, factor in zip(observed, scale.take(observed)):
                link = links[i]
                link.capacity = link._capacity * factor
            if len(observed) < len(links):
                log.rows.append(scale)
            inverse.append({"link": "*", "scale": _Inverse(scale)})
            continue
        targets = _targets(topology, target)
        per_scale = isinstance(scale, (list, ScaleColumn))
        per_loss, per_delay = type(loss) is list, type(delay) is list
        written, scales, losses, delays = [], [], [], []
        for i, link in enumerate(targets):
            if sets_capacity:
                old = link.capacity
                factor = scale[i] if per_scale else scale
                to_capacity = old * factor if capacity is None else capacity
                if floor is not None and to_capacity < floor:
                    continue
                link.capacity = to_capacity
                scales.append(1.0 / factor if capacity is None else old / to_capacity)
            if sets_loss:
                value = link._loss_rate
                if loss is not None:
                    losses.append(value)
                    value = loss[i] if per_loss else loss
                if remove:
                    value = _clamp_loss(1.0 - (1.0 - value) / (1.0 - remove))
                if overlay:
                    value = _clamp_loss(1.0 - (1.0 - value) * (1.0 - overlay))
                link.loss_rate = value
            if delay is not None:
                delays.append(link._delay)
                link.delay = delay[i] if per_delay else delay
            written.append(link)
        undo = {"link": written}
        if sets_capacity:
            undo["scale"] = scales
        if loss is not None:
            undo["loss"] = losses
        elif sets_loss:
            undo["remove"], undo["overlay"] = overlay, remove
        if delay is not None:
            undo["delay"] = delays
        inverse.append(undo)
    return inverse


class Link:
    """One unidirectional link.

    Parameters
    ----------
    name:
        Human-readable identifier (used in traces and repr).
    capacity:
        Bandwidth in bytes/second.
    delay:
        One-way propagation delay in seconds.
    loss_rate:
        Probability that any given packet is dropped.  This feeds the
        Mathis throughput cap of TCP flows crossing the link and the
        retransmission-delay model for control messages; the simulator
        never actually drops application bytes (TCP is reliable).
    """

    __slots__ = (
        "name",
        "_capacity",
        "_delay",
        "_loss_rate",
        "flows",
        "_on_capacity_change",
        "on_condition_change",
        "_cond_stamp",
        "_alloc_epoch",
        "_alloc_remaining",
        "_alloc_unfrozen",
        "_log",
        "_cursor",
        "_pos",
    )

    def __init__(self, name, capacity, delay=0.0, loss_rate=0.0):
        # Written as "not >" so that NaN fails too, in one comparison.
        if not capacity > 0:
            raise ValueError(f"link {name}: capacity must be > 0, got {capacity}")
        if not delay >= 0:
            raise ValueError(f"link {name}: delay must be >= 0, got {delay}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(
                f"link {name}: loss_rate must be in [0, 1), got {loss_rate}"
            )
        self.name = name
        self._capacity = capacity
        self._delay = delay
        self._loss_rate = loss_rate
        #: Active flows currently routed over this link, kept sorted by
        #: creation sequence (managed by :class:`repro.sim.tcp.FlowNetwork`
        #: via bisect insertion).  A sorted list instead of a set: the
        #: allocator's freeze sweep consumes flows in seq order on every
        #: bottleneck round, so maintaining the order at the (much rarer)
        #: activation/deactivation sites deletes a sort from the hottest
        #: allocator loop; flow counts per link are small, so the O(n)
        #: insert/remove is a short C-level memmove.
        self.flows = []
        #: See the ``on_capacity_change`` property.
        self._on_capacity_change = None
        #: Optional callback invoked as ``on_condition_change(link)``
        #: when loss_rate or delay is mutated; the flow network hooks
        #: this to refresh the path invariants (Mathis cap, RTT, RTO) of
        #: flows crossing this link.  Kept separate from the capacity
        #: callback so the capacity path — and with it every recorded
        #: capacity-only golden — is untouched.
        self.on_condition_change = None
        #: Monotone stamp of the last loss/delay mutation, written by the
        #: flow network; lets idle flows refresh their invariants lazily
        #: at activation instead of eagerly on every change.
        self._cond_stamp = 0
        #: Allocator scratch (see :mod:`repro.sim.alloc`):
        #: the epoch stamp marks which allocation pass the remaining/
        #: unfrozen values belong to, so passes need no per-link dicts.
        self._alloc_epoch = -1
        self._alloc_remaining = 0.0
        self._alloc_unfrozen = 0
        #: The topology's :class:`ScaleLog` once it has enrolled this
        #: link, the index of the first logged column not yet applied to
        #: it (None while observed, or before the first deferred row:
        #: nothing is pending then), and its key position in the core.
        self._log = None
        self._cursor = None
        self._pos = None

    @property
    def capacity(self):
        if self._cursor is not None:
            _catch_up(self)
        return self._capacity

    @capacity.setter
    def capacity(self, value):
        if not value > 0:
            raise ValueError(f"link {self.name}: capacity must be > 0, got {value}")
        if self._cursor is not None:
            # This write overwrites the rows still pending.
            self._cursor = len(self._log.rows)
        if value == self._capacity:
            return
        self._capacity = value
        if self._on_capacity_change is not None:
            self._on_capacity_change(self)

    @property
    def on_capacity_change(self):
        """Optional callback invoked as ``on_capacity_change(link)`` when
        capacity is mutated; the flow network hooks this to trigger a
        rate reallocation.  Setting one makes the link observed, which
        first replays its deferred rows."""
        return self._on_capacity_change

    @on_capacity_change.setter
    def on_capacity_change(self, callback):
        # A link stays observed once observed: without a callback the
        # eager writes fire none, which is all a deferred link would do.
        if self._cursor is not None and callback is not None:
            self._log.observe(self)
        self._on_capacity_change = callback

    @property
    def delay(self):
        return self._delay

    @delay.setter
    def delay(self, value):
        if not value >= 0:
            raise ValueError(f"link {self.name}: delay must be >= 0, got {value}")
        if value == self._delay:
            return
        self._delay = value
        if self.on_condition_change is not None:
            self.on_condition_change(self)

    @property
    def loss_rate(self):
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, value):
        if not 0.0 <= value < 1.0:
            raise ValueError(
                f"link {self.name}: loss_rate must be in [0, 1), got {value}"
            )
        if value == self._loss_rate:
            return
        self._loss_rate = value
        if self.on_condition_change is not None:
            self.on_condition_change(self)

    def __repr__(self):
        return (
            f"Link({self.name!r}, cap={self.capacity:.0f}B/s, "
            f"delay={self._delay * 1e3:.1f}ms, loss={self._loss_rate:.3f})"
        )
