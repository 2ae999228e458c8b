"""Shotgun orchestration and the parallel-rsync baseline (Figure 15).

``shotgun_sync`` at the server: run rsync in batch mode between the old
and new software images, archive the resulting delta logs with version
numbers (:class:`UpdateBundle`), hand the archive to the Bullet' source
for dissemination.  Each client's ``shotgund`` downloads the bundle and
applies the delta locally if the bundle's version is newer than its own.

:class:`ShotgunSession` drives a full synchronization over the simulated
overlay and reports, per node, the download time and the (disk-bound)
local apply time — the paper observes that replaying rsync logs locally
costs about twice the download on PlanetLab nodes.

:class:`ParallelRsyncModel` is the baseline: the server runs ``k``
simultaneous rsync processes in a staggered sweep over all targets, each
transfer competing for the server's access link (and paying the server-
side disk/CPU contention the paper measured).
"""

from dataclasses import dataclass

from repro.shotgun.rsync import apply_delta, compute_delta, compute_signature

__all__ = ["UpdateBundle", "ShotgunSession", "ParallelRsyncModel"]


@dataclass
class UpdateBundle:
    """The archive ``shotgun_sync`` disseminates."""

    old_version: int
    new_version: int
    delta: object
    wire_size: int

    @classmethod
    def build(cls, old_image, new_image, old_version, new_version, block_len=2048):
        """Server side: batch-mode rsync between the two images."""
        signature = compute_signature(old_image, block_len)
        delta = compute_delta(signature, new_image)
        # The tar of rsync batch logs: delta stream plus version header.
        return cls(
            old_version=old_version,
            new_version=new_version,
            delta=delta,
            wire_size=delta.wire_size() + 64,
        )

    @classmethod
    def synthetic(cls, delta_bytes, image_bytes, block_len=2048):
        """An analytic bundle for size-only experiments (Figure 15).

        Carries the delta/image geometry without materializing hundreds
        of megabytes of image content; :meth:`apply` is unavailable.
        """
        copies = max(0, (image_bytes - delta_bytes) // block_len)
        delta = _AnalyticDelta(block_len, delta_bytes, copies)
        return cls(old_version=0, new_version=1, delta=delta,
                   wire_size=delta.wire_size() + 64)

    def apply(self, old_image, current_version):
        """Client side: apply if the bundle is newer; returns
        ``(new_image, new_version)``."""
        if current_version >= self.new_version:
            return old_image, current_version  # already up to date
        if current_version != self.old_version:
            raise ValueError(
                f"client at version {current_version} cannot apply delta "
                f"{self.old_version}->{self.new_version}"
            )
        return apply_delta(old_image, self.delta), self.new_version


class _AnalyticDelta:
    """Size-only stand-in for a :class:`~repro.shotgun.rsync.Delta`."""

    def __init__(self, block_len, literal, copies):
        self.block_len = block_len
        self._literal = literal
        self._copies = copies

    def wire_size(self):
        return 8 + 9 * self._copies + 5 + self._literal

    def literal_bytes(self):
        return self._literal

    def copy_count(self):
        return self._copies


class ShotgunSession:
    """One Shotgun synchronization over a simulated Bullet' overlay.

    The bundle is chopped into overlay blocks and disseminated with the
    regular machinery; each node's completion time is its download time,
    and the apply time is charged from a disk-throughput model (the
    paper: local log replay is disk-bound and took ~2x the download on
    PlanetLab).
    """

    def __init__(self, bundle, block_size=16 * 1024, apply_throughput=4e6):
        self.bundle = bundle
        self.block_size = block_size
        #: Local delta-replay throughput in bytes/second (disk-bound).
        self.apply_throughput = apply_throughput

    @property
    def num_blocks(self):
        return max(1, -(-self.bundle.wire_size // self.block_size))

    def apply_time(self, new_image_size):
        """Seconds of local disk work to replay the delta."""
        return new_image_size / self.apply_throughput

    def run(self, nodes, seed=0, max_time=4000.0, apply_bytes=None):
        """Disseminate the bundle to ``nodes`` PlanetLab-like nodes; returns
        per-node download and download+apply completion times.

        ``apply_bytes`` overrides the volume of disk work the local
        delta replay does (defaults to the reconstructed file size).
        """
        from repro.harness.sweep import SweepCell, execute_cell

        cell = SweepCell("bullet_prime", "none", {}, "planetlab", nodes,
                         self.num_blocks, seed, max_time,
                         system_params={"block_size": self.block_size})
        result = execute_cell(cell)
        if apply_bytes is None:
            apply_bytes = (
                self.bundle.delta.literal_bytes()
                + self.bundle.delta.copy_count() * self.bundle.delta.block_len
            )
        apply_cost = self.apply_time(apply_bytes)
        downloads = dict(result.trace.completion_times)
        downloads.pop(result.source_id, None)
        return {
            "download": downloads,
            "download_and_update": {
                node: t + apply_cost for node, t in downloads.items()
            },
            "result": result,
        }


class ParallelRsyncModel:
    """The staggered parallel-rsync baseline.

    The server syncs ``num_clients`` targets, ``parallelism`` at a time.
    Every rsync process pays three costs the paper identifies:

    - a per-process ssh/rsync startup;
    - a **per-client image scan** — rsync checksums the whole software
      image for every target, so the server's disk/CPU does
      ``num_clients x image`` work regardless of how small the delta is;
    - moving the delta bytes over the server's access link.

    Scan throughput and the access link are shared among concurrent
    processes with a contention penalty — which is why the paper had to
    find the optimal parallelism experimentally, and why no setting
    comes close to disseminating the delta once through the overlay.
    """

    def __init__(
        self,
        server_bandwidth=10e6 / 8,
        client_bandwidth=6e6 / 8,
        scan_throughput=4e6,
        disk_contention=0.15,
        rsync_startup=1.0,
    ):
        self.server_bandwidth = server_bandwidth
        self.client_bandwidth = client_bandwidth
        #: Server-side image checksum/scan rate in bytes/second
        #: (PlanetLab-class contended disk).
        self.scan_throughput = scan_throughput
        #: Fractional server slowdown per extra concurrent rsync process.
        self.disk_contention = disk_contention
        #: Per-process ssh/rsync startup cost in seconds.
        self.rsync_startup = rsync_startup

    def _contention(self, active):
        return 1.0 + self.disk_contention * max(0, active - 1)

    def transfer_rate(self, active):
        """Per-transfer network rate with ``active`` concurrent processes."""
        share = self.server_bandwidth / (active * self._contention(active))
        return min(share, self.client_bandwidth)

    def scan_time(self, active, image_bytes):
        """Per-client image-scan time with ``active`` concurrent scans."""
        if image_bytes <= 0:
            return 0.0
        rate = self.scan_throughput / (active * self._contention(active))
        return image_bytes / rate

    def completion_times(self, num_clients, parallelism, delta_bytes, image_bytes=0):
        """Completion time per client (sorted) under a staggered sweep."""
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        finished = []
        clock = 0.0
        remaining = num_clients
        while remaining > 0:
            batch = min(parallelism, remaining)
            transfer = delta_bytes / self.transfer_rate(batch)
            scan = self.scan_time(batch, image_bytes)
            duration = self.rsync_startup + scan + transfer
            clock += duration
            finished.extend([clock] * batch)
            remaining -= batch
        return finished
