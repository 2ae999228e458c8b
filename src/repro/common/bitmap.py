"""Block sets.

Bullet' nodes describe which file blocks they hold with a bitmap, and
exchange *incremental* diffs so a peer hears about any given block at most
once (paper section 3.3.4).  :class:`BlockBitmap` is the one block-set
type behind every per-block record of the protocol: held blocks
(:class:`~repro.core.download.DownloadState`), blocks a receiver was told
about (:class:`~repro.core.diffs.DiffTracker`) and the blocks a receiver
holds or has requested (:class:`~repro.core.request.AvailabilityView`).
Block ids are dense (``range(num_blocks)``, or an encoded stream's
counter), so one byte per id costs a few percent of a ``set`` slot.
"""

from itertools import compress

__all__ = ["BlockBitmap"]


class BlockBitmap:
    """A set of non-negative block ids, one ``bytearray`` flag per id.

    The array starts at ``size`` flags and grows geometrically when an
    added id reaches past it, so an encoded stream's ids fit without a
    declared universe.  Hot callers read :attr:`flags` directly:
    ``0 <= block < len(flags) and flags[block]`` is the membership test.
    """

    __slots__ = ("flags", "_count")

    def __init__(self, size=0, blocks=()):
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        #: ``flags[block]`` is 1 for a member, 0 otherwise.
        self.flags = bytearray(size)
        #: Cached population count; protocols poll ``len()`` on every
        #: block decision, so it must not be a count per call.
        self._count = 0
        self.update(blocks)

    def grow(self, size):
        """Make room for ids below ``size`` (at least doubling)."""
        flags = self.flags
        if size > len(flags):
            flags.extend(bytes(max(size, 2 * len(flags)) - len(flags)))

    def add(self, block):
        """Mark ``block`` as present."""
        if block < 0:
            raise IndexError(f"block ids are non-negative, got {block}")
        flags = self.flags
        if block >= len(flags):
            self.grow(block + 1)
        if not flags[block]:
            flags[block] = 1
            self._count += 1

    def update(self, blocks):
        """Mark every id of ``blocks`` as present."""
        flags = self.flags
        for block in blocks:
            if not 0 <= block < len(flags):
                self.add(block)  # refuses a negative id, grows for the rest
            elif not flags[block]:
                flags[block] = 1
                self._count += 1

    def discard(self, block):
        """Mark ``block`` as absent (a no-op if it is)."""
        flags = self.flags
        if 0 <= block < len(flags) and flags[block]:
            flags[block] = 0
            self._count -= 1

    def __contains__(self, block):
        flags = self.flags
        return 0 <= block < len(flags) and flags[block] == 1

    def __len__(self):
        return self._count

    def __iter__(self):
        """Members in ascending order."""
        return compress(range(len(self.flags)), self.flags)

    def __repr__(self):
        return f"BlockBitmap(size={len(self.flags)}, n={self._count})"
