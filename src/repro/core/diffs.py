"""Incremental availability diffs (paper section 3.3.4).

A sender keeps, per receiver, the set of blocks the receiver has already
been told about (a :class:`~repro.common.bitmap.BlockBitmap`); a diff
carries only blocks never mentioned before, so a receiver hears about
each block from a given peer at most once and diff size is decoupled
from file size.

Diff transmission is *self-clocked* — there is no diff timer.  A diff is
sent in exactly two situations:

1. the receiver has nothing requested of us (its request pipeline to us
   is idle, so new availability is the only thing that can restart it);
2. the receiver explicitly asked for a diff because it is about to run
   out of known-available blocks.
"""

from repro.common.bitmap import BlockBitmap

__all__ = ["DiffTracker", "diff_wire_size"]


def diff_wire_size(count):
    """Bytes on the wire for a diff naming ``count`` new blocks.

    The implementation ships a compact bitmap/run-length hybrid; we
    account four bytes per named block plus a fixed header.
    """
    return 16 + 4 * count


class DiffTracker:
    """Sender-side record of what one receiver has been told."""

    __slots__ = ("told", "pending_request")

    def __init__(self, num_blocks=0):
        #: Block ids this receiver already heard about from us (told in a
        #: diff, sent as data, or reported by the receiver itself).
        self.told = BlockBitmap(num_blocks)
        #: True when the receiver asked for a diff and we have not yet
        #: answered (coalesces repeated asks).
        self.pending_request = False

    def observe_receiver_has(self, blocks):
        """The receiver told us it holds ``blocks`` (e.g. its hello
        bitmap): never diff those back to it."""
        self.told.update(blocks)

    def mark(self, block):
        """``block`` reached the receiver another way (it requested it):
        never diff it."""
        self.told.add(block)

    def next_diff(self, have_blocks):
        """Blocks of ``have_blocks`` the receiver has not heard about.

        Marks them told; returns a sorted list (possibly empty).
        """
        told = self.told
        flags = told.flags
        size = len(flags)
        fresh = [b for b in have_blocks if not (0 <= b < size and flags[b])]
        if fresh:
            told.update(fresh)
            fresh.sort()
        return fresh
