"""Block availability bitmaps.

Bullet' nodes describe which file blocks they hold with a bitmap, and
exchange *incremental* diffs so a peer hears about any given block at most
once (paper section 3.3.4).  :class:`BlockBitmap` is the held-block set
behind :class:`~repro.core.download.DownloadState`: a fixed-universe,
add-only set of block indices with a cached count.
"""

__all__ = ["BlockBitmap"]


class BlockBitmap:
    """A set of block indices drawn from ``range(num_blocks)``.

    Backed by a Python ``int`` used as a bit vector, so a membership test
    is one shift and mask — important because one runs in every request
    decision of a simulation with hundreds of thousands of arrivals.
    """

    __slots__ = ("num_blocks", "_bits", "_count")

    def __init__(self, num_blocks, blocks=()):
        if num_blocks < 0:
            raise ValueError(f"num_blocks must be >= 0, got {num_blocks}")
        self.num_blocks = num_blocks
        #: Plain int used as the bit vector.  NOTE: DownloadState's hot
        #: membership predicates (``__contains__``/``wants``) inline
        #: ``(self._bits >> block) & 1`` to skip a call layer — keep
        #: this representation (or update those two sites) if it ever
        #: changes.
        self._bits = 0
        #: Cached population count; protocols poll ``len()`` on every
        #: block decision, so it must not be a popcount per call.
        self._count = 0
        for block in blocks:
            self.add(block)

    def _check(self, block):
        if not 0 <= block < self.num_blocks:
            raise IndexError(
                f"block {block} out of range [0, {self.num_blocks})"
            )

    def add(self, block):
        """Mark ``block`` as present."""
        self._check(block)
        mask = 1 << block
        if not self._bits & mask:
            self._bits |= mask
            self._count += 1

    def __contains__(self, block):
        return 0 <= block < self.num_blocks and (self._bits >> block) & 1

    def __len__(self):
        return self._count

    def __iter__(self):
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __repr__(self):
        return f"BlockBitmap({self.num_blocks}, n={len(self)})"
