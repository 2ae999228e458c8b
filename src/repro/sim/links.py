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
"""

__all__ = ["Link", "apply"]


def _clamp_loss(value):
    return 0.0 if value < 0.0 else 0.999999 if value >= 1.0 else value


def _targets(topology, target):
    if type(target) is Link:
        return (target,)
    if target == "*":
        return [link for _pair, link in sorted(topology.core.items())]
    if isinstance(target, str):
        src, arrow, dst = target.partition("->")
        if not arrow:
            raise ValueError(f"malformed link key {target!r}")
        pair = tuple(int(n) if n.lstrip("-").isdigit() else n for n in (src, dst))
        link = topology.core.get(pair)
        return () if link is None else (link,)
    return target


def apply(topology, rows):
    """Write ``rows`` to ``topology``'s links; return the inverse rows.

    A row's ``link`` is a :class:`Link`, a list of links, ``"src->dst"``
    (an unknown core link is skipped) or ``"*"`` (every core link).  Per
    link it writes ``capacity`` or ``scale`` (skipping the link if the
    result is below ``floor``), then ``loss`` with ``remove`` /
    ``overlay`` (an independent loss process divided out of, then added
    to, the keep probability — one write), then ``delay``.  ``scale``,
    ``loss`` and ``delay`` hold one number, or a list with one per link.
    Each row's inverse names the links it wrote: scale ``f`` is undone
    by ``1.0 / f``, capacity ``c -> x`` by scale ``c / x``, an overlay by
    its removal, an absolute loss or delay by the old value.
    """
    inverse = []
    for row in rows:
        get = row.get
        capacity, scale, floor = get("capacity"), get("scale"), get("floor")
        loss, remove, overlay = get("loss"), get("remove"), get("overlay")
        delay = get("delay")
        sets_capacity = capacity is not None or scale is not None
        sets_loss = loss is not None or remove or overlay
        targets = _targets(topology, row["link"])
        if type(scale) is list and floor is None and not sets_loss and delay is None:
            # A per-link scale column alone (an oscillation tick): tight loop.
            for link, factor in zip(targets, scale):
                link.capacity = link._capacity * factor
            inverse.append({"link": list(targets), "scale": [1.0 / f for f in scale]})
            continue
        per_scale, per_loss = type(scale) is list, type(loss) is list
        per_delay = type(delay) is list
        written, scales, losses, delays = [], [], [], []
        for i, link in enumerate(targets):
            if sets_capacity:
                old = link._capacity
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
        "on_capacity_change",
        "on_condition_change",
        "_cond_stamp",
        "_alloc_epoch",
        "_alloc_remaining",
        "_alloc_unfrozen",
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
        #: Optional callback invoked as ``on_capacity_change(link)`` when
        #: capacity is mutated; the flow network hooks this to trigger a
        #: rate reallocation.
        self.on_capacity_change = None
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

    @property
    def capacity(self):
        return self._capacity

    @capacity.setter
    def capacity(self, value):
        if not value > 0:
            raise ValueError(f"link {self.name}: capacity must be > 0, got {value}")
        if value == self._capacity:
            return
        self._capacity = value
        if self.on_capacity_change is not None:
            self.on_capacity_change(self)

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
            f"Link({self.name!r}, cap={self._capacity:.0f}B/s, "
            f"delay={self._delay * 1e3:.1f}ms, loss={self._loss_rate:.3f})"
        )
