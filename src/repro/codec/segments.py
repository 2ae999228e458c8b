"""Segmented encoding (paper section 2.2).

Decoding rateless codes needs random access to *all* reconstructed
blocks, so files larger than physical memory must be transmitted as a
series of independently encoded segments sized to fit memory.  The
paper walks through the systems consequences: the source must decide
when to move to the next segment, and receivers must locate senders for
each segment they still need.  These classes make the mechanism (and
its overhead) concrete and testable.
"""

import math

from repro.codec.lt import LtDecoder, LtEncoder

__all__ = ["SegmentedEncoder", "SegmentedDecoder"]


def _split_segments(data, block_len, blocks_per_segment):
    segment_bytes = block_len * blocks_per_segment
    return [
        data[offset : offset + segment_bytes]
        for offset in range(0, len(data), segment_bytes)
    ]


def _pad_blocks(segment, block_len):
    blocks = []
    for offset in range(0, len(segment), block_len):
        block = segment[offset : offset + block_len]
        if len(block) < block_len:
            block = block + b"\x00" * (block_len - len(block))
        blocks.append(block)
    return blocks


class SegmentedEncoder:
    """Encode a file as consecutive memory-sized segments."""

    def __init__(self, data, block_len, blocks_per_segment, seed=0):
        if blocks_per_segment < 1:
            raise ValueError("blocks_per_segment must be >= 1")
        self.data = bytes(data)
        self.block_len = block_len
        self.blocks_per_segment = blocks_per_segment
        segments = _split_segments(self.data, block_len, blocks_per_segment)
        self.encoders = []
        for index, segment in enumerate(segments):
            blocks = _pad_blocks(segment, block_len)
            self.encoders.append(
                LtEncoder(blocks, seed=seed * 1000 + index)
            )
        self.segment_sizes = [len(s) for s in segments]

    @property
    def num_segments(self):
        return len(self.encoders)

    def encode(self, segment):
        """Produce the next encoded block of ``segment``."""
        return self.encoders[segment].encode()


class SegmentedDecoder:
    """Decode a segmented stream; tracks per-segment completion."""

    def __init__(self, total_size, block_len, blocks_per_segment):
        self.total_size = total_size
        self.block_len = block_len
        self.blocks_per_segment = blocks_per_segment
        total_blocks = math.ceil(total_size / block_len)
        self.decoders = []
        remaining = total_blocks
        while remaining > 0:
            k = min(blocks_per_segment, remaining)
            self.decoders.append(LtDecoder(k, block_len))
            remaining -= k

    @property
    def num_segments(self):
        return len(self.decoders)

    @property
    def complete(self):
        return all(d.complete for d in self.decoders)

    def incomplete_segments(self):
        """Segments still needing blocks — what a receiver must locate
        senders for (paper: 'receivers need to simultaneously locate and
        retrieve data belonging to multiple segments')."""
        return [i for i, d in enumerate(self.decoders) if not d.complete]

    def add(self, segment, encoded):
        """Feed one encoded block of ``segment``."""
        return self.decoders[segment].add(encoded)

    def overhead(self):
        """Aggregate reception overhead across segments."""
        fed = sum(d.blocks_fed for d in self.decoders)
        k = sum(d.k for d in self.decoders)
        return max(0.0, fed / k - 1.0)

    def reconstruct(self):
        data = b"".join(d.reconstruct() for d in self.decoders)
        return data[: self.total_size]
