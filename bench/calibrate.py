"""Machine-speed calibration: a fixed pure-Python kernel timed around each run.

The sizing box is a shared VM on which identical work runs up to 40% slower
for seconds to minutes at a time (CPU time slows with wall time, so it is
the host, not scheduling).  No statistic of raw wall time is steady through
that, so every measurement times this kernel right before and right after
its timed region and every host time is reported at *reference speed*:
``raw * REFERENCE_S / measured``.  On a quiet sizing box the factor
is 1 and the numbers are plain host seconds.

The kernel shares no code with ``repro`` (a change to the simulator cannot
move it) but does the same kind of work: a heap of timestamped entries,
method calls on slotted objects, float arithmetic and dict writes.
"""

import heapq
import statistics
from time import perf_counter

#: Seconds one burst takes on the sizing box (2 shared cores, Python
#: 3.11.7) when it is quiet: the lower decile of 400 bursts.
REFERENCE_S = 0.0445
BURST_EVENTS = 75_000


class _Flow:
    __slots__ = ("rate", "left")

    def __init__(self):
        self.rate = 1.0
        self.left = 10.0

    def advance(self, now):
        self.left -= self.rate * 0.01
        if self.left < 0:
            self.left = 10.0
        return now + 0.01 + self.rate * 1e-3


def burst():
    """Seconds the fixed kernel takes now."""
    flows = [_Flow() for _ in range(200)]
    heap = [(index * 1e-3, index, flow) for index, flow in enumerate(flows)]
    heapq.heapify(heap)
    sequence = len(heap)
    latest = {}
    started = perf_counter()
    for _ in range(BURST_EVENTS):
        now, _order, flow = heapq.heappop(heap)
        due = flow.advance(now)
        latest[sequence % 512] = due
        heapq.heappush(heap, (due, sequence, flow))
        sequence += 1
    return perf_counter() - started


def bursts(count):
    return [burst() for _ in range(count)]


def speed_factor(burst_seconds):
    """Multiplier that converts a raw host time to reference speed; the
    median burst shrugs off the sub-second spikes a single burst can hit."""
    return REFERENCE_S / statistics.median(burst_seconds)
