"""Network links.

A :class:`Link` is a unidirectional capacity-constrained pipe with a
propagation delay and a random-loss probability.  Links are shared by the
TCP flows routed over them; the :mod:`repro.sim.tcp` allocator divides
``capacity`` among those flows max-min fairly.

All three knobs are runtime-mutable — together they form the link's
*conditions*, exposed as the :class:`LinkConditions` value view.  This is
how dynamic-network scenarios are realized: the paper's section-4.1 /
Figure-12 bandwidth processes mutate ``capacity``, while the loss-rate
and asymmetric scenarios (`gilbert_elliott`, `lossy`,
`asymmetric_squeeze`, multi-column trace replay) additionally drive
``loss_rate`` and ``delay``.  Because every link is unidirectional, the
two directions of a node pair are independent links — per-direction
(asymmetric) dynamics need no extra machinery.

Change propagation is callback-based and split by consumer:
``on_capacity_change`` feeds the allocator's dirty-link path exactly as
it always has (so capacity-only scenarios are bit-identical to the
pre-engine behavior), while ``on_condition_change`` fires for loss/delay
mutations and lets the flow network refresh the per-flow path invariants
(Mathis cap, RTT, RTO) that were computed from these values.
"""

from collections import namedtuple

__all__ = ["Link", "LinkConditions"]


#: Immutable value view of one link's mutable knobs: ``capacity`` in
#: bytes/second, ``loss_rate`` as a probability in [0, 1), ``delay`` in
#: seconds (one-way propagation).
LinkConditions = namedtuple("LinkConditions", ("capacity", "loss_rate", "delay"))


def _overlay_loss(current, extra):
    """Add an independent loss process on top of ``current`` (the one
    composition rule scenarios and the fault injector share)."""
    value = 1.0 - (1.0 - current) * (1.0 - extra)
    if value < 0.0:
        return 0.0
    if value >= 1.0:
        return 0.999999
    return value


def _remove_loss(current, extra):
    """Inverse of :func:`_overlay_loss` (same clamping)."""
    value = 1.0 - (1.0 - current) / (1.0 - extra)
    if value < 0.0:
        return 0.0
    if value >= 1.0:
        return 0.999999
    return value


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
        if capacity <= 0:
            raise ValueError(f"link {name}: capacity must be > 0, got {capacity}")
        if delay < 0:
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
        if value <= 0:
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
        if value < 0:
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

    @property
    def conditions(self):
        """The current :class:`LinkConditions` value view."""
        return LinkConditions(self._capacity, self._loss_rate, self._delay)

    def set_conditions(self, capacity=None, loss_rate=None, delay=None):
        """Set any subset of the link's conditions in one call.

        Each provided knob goes through its property setter, so change
        callbacks fire per mutated field (and not at all for no-op
        writes).  Scenario code — trace replay in particular — uses this
        as the single actuation point for multi-knob events.
        """
        if capacity is not None:
            self.capacity = capacity
        if loss_rate is not None:
            self.loss_rate = loss_rate
        if delay is not None:
            self.delay = delay

    def scale_capacity(self, factor):
        """Multiply capacity by ``factor`` (used by dynamic scenarios)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        self.capacity = self._capacity * factor

    def __repr__(self):
        return (
            f"Link({self.name!r}, cap={self._capacity:.0f}B/s, "
            f"delay={self._delay * 1e3:.1f}ms, loss={self._loss_rate:.3f})"
        )
