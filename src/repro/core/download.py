"""The generic download application (paper section 3.2.1).

Two layers:

- :class:`DownloadState` — what the simulator tracks: which block ids a
  node holds and when the download is complete.  In *unencoded* mode the
  file is ``num_blocks`` concrete blocks and completion means holding all
  of them.  In *encoded* mode the source emits an unbounded stream of
  distinct encoded block ids and completion means holding
  ``ceil((1 + overhead) * num_blocks)`` of them — the digital-fountain
  abstraction the paper grants Bullet and SplitStream (section 4.2).

- :class:`FileObject` — real bytes <-> blocks, used by Shotgun, the
  codec round-trip tests and the examples to demonstrate end-to-end
  reconstruction.
"""

import hashlib
import math
from functools import lru_cache

from repro.common.bitmap import BlockBitmap
from repro.common.units import KiB

__all__ = [
    "DownloadState",
    "FileObject",
    "BLOCK_SIZE",
    "ENCODING_OVERHEAD",
    "block_checksum",
]

#: The paper's block size (16 KB): fixed for the baselines, the default
#: of Bullet prime's ``block_size`` knob.
BLOCK_SIZE = 16 * KiB

#: Reception overhead the paper charges rateless codes (sections 2.2, 4.2).
ENCODING_OVERHEAD = 0.04


@lru_cache(maxsize=8192)
def block_checksum(block):
    """Deterministic integrity tag for a block.

    The simulator never carries real block bytes, so the checksum is
    derived from the block id — a stand-in for the per-block content hash
    a deployment would compute.  Senders attach it to block messages
    (``payload["csum"]``) and checksum-verifying receivers recompute it
    on arrival; :class:`~repro.sim.transport.MessageAdversity` models
    in-flight corruption by perturbing the attached value.  Cached: block
    ids repeat on every serve.
    """
    digest = hashlib.blake2b(repr(block).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class DownloadState:
    """Block bookkeeping for one downloading node.

    Held blocks are a :class:`~repro.common.bitmap.BlockBitmap` in both
    modes: unencoded ids are checked against ``[0, num_blocks)``; encoded
    ids are a source's counter, so the bitmap grows to the largest one.
    """

    def __init__(self, num_blocks, encoded=False, overhead=ENCODING_OVERHEAD):
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be > 0, got {num_blocks}")
        self.num_blocks = num_blocks
        self.encoded = encoded
        self.overhead = overhead
        self._held = BlockBitmap(num_blocks)
        if encoded:
            self.required = math.ceil((1.0 + overhead) * num_blocks)
            self._id_limit = math.inf
        else:
            self.required = num_blocks
            self._id_limit = num_blocks
        #: Completion latch: blocks are never removed, so once the count
        #: reaches ``required`` it stays there — protocols poll
        #: ``complete`` on every block decision, so it must be one load.
        self._complete = self.required == 0

    def add(self, block):
        """Record a received block; returns False for duplicates."""
        if not 0 <= block < self._id_limit:
            raise IndexError(f"block {block} out of range [0, {self._id_limit})")
        held = self._held
        flags = held.flags
        if block < len(flags) and flags[block]:
            return False
        held.add(block)
        if not self._complete and len(held) >= self.required:
            self._complete = True
        return True

    def __contains__(self, block):
        flags = self._held.flags
        return 0 <= block < len(flags) and flags[block] == 1

    def __len__(self):
        return len(self._held)

    @property
    def complete(self):
        return self._complete

    def blocks(self):
        return list(self._held)

    def wants(self, block):
        """Would receiving ``block`` make progress?"""
        if self._complete:
            return False
        flags = self._held.flags
        return not (0 <= block < len(flags) and flags[block])


class FileObject:
    """A concrete file split into fixed-size blocks."""

    def __init__(self, data, block_size):
        if block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {block_size}")
        if not data:
            raise ValueError("cannot distribute an empty file")
        self.data = bytes(data)
        self.block_size = block_size
        self.num_blocks = math.ceil(len(self.data) / block_size)

    @classmethod
    def synthetic(cls, size, block_size, seed=0):
        """Deterministic pseudo-random file contents of ``size`` bytes."""
        chunks = []
        remaining = size
        counter = 0
        while remaining > 0:
            chunk = hashlib.sha256(f"{seed}:{counter}".encode()).digest()
            chunks.append(chunk[: min(32, remaining)])
            remaining -= len(chunks[-1])
            counter += 1
        return cls(b"".join(chunks), block_size)

    def block(self, index):
        if not 0 <= index < self.num_blocks:
            raise IndexError(f"block {index} out of range")
        start = index * self.block_size
        return self.data[start : start + self.block_size]

    def block_length(self, index):
        return len(self.block(index))

    def reassemble(self, blocks):
        """Rebuild the file from ``{index: bytes}``; verifies integrity."""
        if set(blocks) != set(range(self.num_blocks)):
            missing = sorted(set(range(self.num_blocks)) - set(blocks))
            raise ValueError(f"cannot reassemble; missing blocks {missing[:10]}")
        data = b"".join(blocks[i] for i in range(self.num_blocks))
        if data != self.data:
            raise ValueError("reassembled file does not match original")
        return data

    def digest(self):
        return hashlib.sha256(self.data).hexdigest()
