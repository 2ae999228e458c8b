"""Experiment metrics.

The collector records, per node: completion time, every block arrival
(for the Figure 13 inter-arrival analysis) and duplicate block
receipts; per run: the failure counters of :data:`RUN_COUNTERS`.  It is
deliberately passive — nodes report through
:class:`~repro.overlay.node.OverlayProtocol`, each counter has one
writer, and the harness reads the results.  The run's control bytes are
the transport's count (``Network.control_bytes``), not the collector's.
"""

from repro.common.stats import Cdf, ordered_sum

__all__ = ["RUN_COUNTERS", "TraceCollector"]

#: ``TraceCollector.counters``: the run's failure counters under their
#: ``summary()["perf"]`` names, in that order, each with one writer.
RUN_COUNTERS = (
    "fd_retries", "fd_suspects", "fd_rerequests", "fd_rejoins",  # Bullet' nodes
    "gray_quarantines", "gray_reprobes", "gray_corrupt_detected",  # Bullet' nodes
    "gray_dup_dropped", "gray_reordered",  # MessageAdversity
    "watchdog_fired",  # run_experiment's stop rule, on a stall
)


class TraceCollector:
    """Passive metric sink shared by all nodes of one experiment run."""

    def __init__(self, sim, num_blocks):
        self.sim = sim
        self.num_blocks = num_blocks
        self.completion_times = {}
        self.block_arrivals = {}
        self.duplicate_blocks = {}
        #: Run-wide: a count outlives the node or adversity that made it.
        self.counters = dict.fromkeys(RUN_COUNTERS, 0)
        self.start_time = sim.now

    def node_started(self, node_id):
        self.block_arrivals.setdefault(node_id, [])
        self.duplicate_blocks.setdefault(node_id, 0)

    def block_received(self, node_id, block, duplicate=False):
        if duplicate:
            self.duplicate_blocks[node_id] = (
                self.duplicate_blocks.get(node_id, 0) + 1
            )
            return
        arrivals = self.block_arrivals.get(node_id)
        if arrivals is None:
            arrivals = self.block_arrivals[node_id] = []
        arrivals.append((self.sim.now, block))

    def completed(self, node_id):
        if node_id not in self.completion_times:
            self.completion_times[node_id] = self.sim.now - self.start_time

    # -- results ---------------------------------------------------------------

    def completion_cdf(self):
        """CDF of download times across nodes that finished."""
        if not self.completion_times:
            raise RuntimeError("no node completed; cannot build a CDF")
        return Cdf(self.completion_times.values())

    def interarrival_series(self, node_id):
        """Inter-arrival gaps for one node, in arrival order."""
        arrivals = [t for t, _ in self.block_arrivals.get(node_id, [])]
        return [b - a for a, b in zip(arrivals, arrivals[1:])]

    def mean_interarrival_by_index(self):
        """Figure 13's series: for each arrival index i, the average (over
        nodes) gap between the i-th and (i+1)-th received block."""
        series = {}
        counts = {}
        for node_id in self.block_arrivals:
            gaps = self.interarrival_series(node_id)
            for i, gap in enumerate(gaps):
                series[i] = series.get(i, 0.0) + gap
                counts[i] = counts.get(i, 0) + 1
        return [series[i] / counts[i] for i in sorted(series)]

    def last_block_overage(self, tail=20):
        """Cumulative overage of the last ``tail`` inter-arrival gaps above
        the overall mean gap (paper section 4.6)."""
        gaps_all = self.mean_interarrival_by_index()
        if len(gaps_all) <= tail:
            return 0.0
        mean_gap = ordered_sum(gaps_all) / len(gaps_all)
        return ordered_sum(max(0.0, g - mean_gap) for g in gaps_all[-tail:])

    def total_duplicates(self):
        return sum(self.duplicate_blocks.values())
