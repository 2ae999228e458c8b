"""The source's sending strategy (paper section 3.3.5).

The source iterates over the file's blocks **exactly once** before
repeating anything: sending a block twice before the whole file has
entered the system risks hoarding the last block and stalling fast
nodes.  Each block is offered to the control-tree children in round-robin
order; a child whose pipe is full is skipped and the next is tried, so
the source never wastes bandwidth forcing a block on a node that is not
ready to accept it.  Once every block has been pushed, the source
advertises itself through RanSub and serves pull requests like any other
(complete) peer.

In encoded mode there is no "once through the file": the source emits a
stream of continually increasing encoded block numbers.
"""

from repro.core.download import block_checksum
from repro.sim.transport import Message

__all__ = ["SourcePusher"]


class SourcePusher:
    """Round-robin, never-duplicate block push to the tree children."""

    def __init__(
        self,
        block_size,
        block_ids=None,
        encoded=False,
        window=2,
        on_block_pushed=None,
        on_pass_complete=None,
    ):
        if encoded == (block_ids is not None):
            raise ValueError("provide block_ids exactly when not encoded")
        self.block_size = block_size
        self.encoded = encoded
        self._pending = None if encoded else list(block_ids)
        self._next_index = 0
        self._counter = 0  # encoded-mode block id generator
        self.window = window
        self.on_block_pushed = on_block_pushed
        self.on_pass_complete = on_pass_complete
        self.pass_complete = False
        self.children = []
        self._rr = 0

    def add_child(self, conn):
        """Register a tree-child connection and start feeding it.

        Feeding is event-driven: rather than re-running :meth:`pump` on
        every transmitted message (most of which are control traffic that
        cannot open push room), the connection's low-watermark callback
        wakes the pusher exactly when a child's block queue drops below
        the push window — the only moment a poll could make progress.
        """
        self.children.append(conn)
        conn.watch_send_queue_low(self.window, self._child_has_room)
        self.pump()

    def _child_has_room(self, _conn):
        self.pump()

    def remove_child(self, conn):
        if conn in self.children:
            self.children.remove(conn)
            if self._rr >= len(self.children):
                self._rr = 0

    def _next_block(self):
        if self.encoded:
            block = self._counter
            self._counter += 1
            return block
        if self._next_index < len(self._pending):
            return self._pending[self._next_index]
        return None

    def _consume_block(self):
        # Encoded mode: the counter already advanced in _next_block.
        if not self.encoded:
            self._next_index += 1
            if self._next_index >= len(self._pending) and not self.pass_complete:
                self.pass_complete = True
                if self.on_pass_complete is not None:
                    self.on_pass_complete()

    def pump(self):
        """Push as many blocks as children currently have room for."""
        if not self.children:
            return
        while True:
            block = self._next_block()
            if block is None:
                return
            placed = False
            for offset in range(len(self.children)):
                index = (self._rr + offset) % len(self.children)
                conn = self.children[index]
                if conn.closed:
                    continue
                if conn.send_queue_blocks >= self.window:
                    continue
                conn.send(
                    Message(
                        "bp_block",
                        payload={
                            "block": block,
                            "pushed": True,
                            "csum": block_checksum(block),
                        },
                        size=self.block_size,
                        is_block=True,
                    )
                )
                self._rr = (index + 1) % len(self.children)
                placed = True
                if self.on_block_pushed is not None:
                    self.on_block_pushed(block)
                break
            if placed:
                self._consume_block()
            else:
                if self.encoded:
                    self._counter -= 1  # un-generate; retry on next drain
                return  # every pipe full: resume when one drains
