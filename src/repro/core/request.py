"""Request strategies (paper section 3.3.2).

A receiver keeps, per sender, the set of blocks it knows that sender can
provide.  When it has request budget for a sender, the configured
strategy picks which of the *useful* blocks (known-available, not held,
not already requested anywhere) to ask for next:

- ``first`` — first-encountered: request in discovery order.  Baseline;
  produces lockstep progress and poor diversity.
- ``random`` — uniform over useful blocks.
- ``rarest`` — fewest advertising senders first, deterministic
  tie-break (earliest discovered).
- ``rarest_random`` — fewest advertising senders, ties broken uniformly
  at random.  Bullet's default.

:class:`AvailabilityView` owns the bookkeeping: a global rarity census
across senders, the set of blocks that are *unavailable* (held, or
requested from some sender), and per-sender candidates.

**Notification API.**  The view never asks whether a block is useful;
its owner tells it when that changes: :meth:`~AvailabilityView.taken`
when a request is issued, :meth:`~AvailabilityView.released` when a
request is given up while the block is still wanted, and
:meth:`~AvailabilityView.ingested` when a block is held for good.

**The index.**  Each sender's *live* candidates (advertised, wanted,
requested nowhere) are filed in rarity buckets — ``census count ->
sorted list of discovery positions`` — so counting candidates is a sum
of bucket lengths.  A census change (``learn``, ``remove_sender``)
re-files a block only in the senders where it is live, and not at all
when it is unavailable (then it is live nowhere).  ``taken`` unfiles a
block from every sender; ``released`` files it, at its current census
count, in every sender that ever advertised it, so a block whose request
was given up is requestable again from each of them.

**The four picks** each take the chosen block out of its bucket:

- ``rarest``: the head of the lowest bucket;
- ``rarest_random``: entry ``rng.randrange(len(bucket))`` of the lowest
  bucket;
- ``first``: the smallest discovery position among the bucket heads;
- ``random``: entry ``rng.randrange(live count)`` of the live
  candidates in (census, discovery position) order.
"""

from bisect import bisect_left, insort

from repro.common.bitmap import BlockBitmap

__all__ = ["AvailabilityView", "REQUEST_STRATEGIES"]


class _RarityIndex:
    """One sender's candidates."""

    __slots__ = ("known", "order", "buckets")

    def __init__(self, size):
        #: block -> discovery position, -1 if never advertised.
        self.known = [-1] * size
        #: Discovery position -> block (append-only).
        self.order = []
        #: Census count -> sorted discovery positions of the live
        #: candidates advertised by that many senders; no empty buckets.
        self.buckets = {}

    def grow(self, size):
        self.known.extend([-1] * (size - len(self.known)))

    def file(self, block, rarity):
        bucket = self.buckets.get(rarity)
        if bucket is None:
            self.buckets[rarity] = [self.known[block]]
        else:
            insort(bucket, self.known[block])

    def unfile(self, block, rarity):
        """Remove a ``known`` block from its bucket; False if not live."""
        bucket = self.buckets.get(rarity)
        if bucket is None:
            return False
        position = self.known[block]
        index = bisect_left(bucket, position)
        if index == len(bucket) or bucket[index] != position:
            return False
        if len(bucket) == 1:
            del self.buckets[rarity]
        else:
            del bucket[index]
        return True


class AvailabilityView:
    """A receiver's knowledge of which peers can supply which blocks.

    Every per-block record is block-indexed and sized ``num_blocks``
    up front: the census and each sender's ``known`` are lists, the
    unavailable blocks a :class:`~repro.common.bitmap.BlockBitmap`.  An
    id past that size (an encoded stream) grows all of them together,
    so ``0 <= block < len(self.rarity)`` bounds every index.
    """

    def __init__(self, strategy, rng, num_blocks=0):
        if strategy not in REQUEST_STRATEGIES:
            raise ValueError(
                f"unknown request strategy {strategy!r}; "
                f"choose from {sorted(REQUEST_STRATEGIES)}"
            )
        self.strategy = strategy
        self.rng = rng
        self._senders = {}
        #: block id -> number of senders advertising it (rarity census).
        self.rarity = [0] * num_blocks
        #: Blocks held or requested from some sender.  Invariant: an
        #: unavailable block is live in no sender's index.
        self._unavailable = BlockBitmap(num_blocks)

    # -- bookkeeping -------------------------------------------------------------

    def _grow(self, block):
        """Make room for ``block`` in every per-block record."""
        if block < 0:
            raise IndexError(f"block ids are non-negative, got {block}")
        rarity = self.rarity
        size = max(block + 1, 2 * len(rarity))
        rarity.extend([0] * (size - len(rarity)))
        self._unavailable.grow(size)
        for index in self._senders.values():
            index.grow(size)

    def add_sender(self, sender_key):
        if sender_key in self._senders:
            raise KeyError(f"sender {sender_key!r} already tracked")
        self._senders[sender_key] = _RarityIndex(len(self.rarity))

    def remove_sender(self, sender_key):
        removed = self._senders.pop(sender_key)
        rarity = self.rarity
        unavailable = self._unavailable.flags
        for block in removed.order:
            count = rarity[block] - 1
            rarity[block] = count
            if count and not unavailable[block]:
                self._refile(block, count + 1, count)

    def _refile(self, block, old, new):
        """An available block's census count changed: move it to the
        right bucket in every sender where it is live."""
        for index in self._senders.values():
            if index.known[block] >= 0 and index.unfile(block, old):
                index.file(block, new)

    def learn(self, sender_key, blocks):
        """Record a diff: ``sender_key`` now also has ``blocks``."""
        learner = self._senders[sender_key]
        known = learner.known
        order = learner.order
        buckets = learner.buckets
        rarity = self.rarity
        size = len(rarity)
        unavailable = self._unavailable.flags
        for block in blocks:
            if not 0 <= block < size:
                self._grow(block)
                size = len(rarity)
            elif known[block] >= 0:
                continue
            count = rarity[block] + 1
            rarity[block] = count
            position = len(order)
            if not unavailable[block]:
                if count > 1:
                    self._refile(block, count - 1, count)
                # The newest position sorts after everything already filed.
                bucket = buckets.get(count)
                if bucket is None:
                    buckets[count] = [position]
                else:
                    bucket.append(position)
            known[block] = position
            order.append(block)

    # -- usefulness notifications ---------------------------------------------------

    def taken(self, block):
        """``block`` was requested from some sender."""
        unavailable = self._unavailable
        if not 0 <= block < len(self.rarity):
            self._grow(block)
        elif unavailable.flags[block]:
            return  # already live nowhere
        unavailable.add(block)
        rarity = self.rarity[block]
        for index in self._senders.values():
            if index.known[block] >= 0:
                index.unfile(block, rarity)

    def released(self, block):
        """A request for ``block`` was given up.

        Only for blocks the receiver still wants (never one it holds).
        """
        if block not in self._unavailable:
            return
        self._unavailable.discard(block)
        rarity = self.rarity[block]
        for index in self._senders.values():
            if index.known[block] >= 0:
                index.file(block, rarity)

    def ingested(self, block):
        """The receiver now holds ``block``.

        To the view this is a request that is never released.
        """
        self.taken(block)

    # -- counting and selection -----------------------------------------------------

    def candidate_count(self, sender_key):
        """Number of useful blocks available from this sender."""
        return sum(map(len, self._senders[sender_key].buckets.values()))

    def pick(self, sender_key):
        """Choose the next block to request from ``sender_key``.

        Returns a block id, or ``None`` when the sender has nothing
        useful.  The block stops being a candidate of this sender until
        it is :meth:`released`; the caller reports the request with
        :meth:`taken`.
        """
        candidates = self._senders[sender_key]
        buckets = candidates.buckets
        if not buckets:
            return None
        strategy = self.strategy
        index = 0
        if strategy == "first":
            rarity = min(buckets, key=lambda count: buckets[count][0])
        elif strategy == "random":
            index = self.rng.randrange(self.candidate_count(sender_key))
            for rarity in sorted(buckets):
                if index < len(buckets[rarity]):
                    break
                index -= len(buckets[rarity])
        else:
            rarity = min(buckets)
            if strategy == "rarest_random":
                index = self.rng.randrange(len(buckets[rarity]))
        bucket = buckets[rarity]
        position = bucket.pop(index)
        if not bucket:
            del buckets[rarity]
        return candidates.order[position]


#: The strategies a Bullet' node can be configured with.
REQUEST_STRATEGIES = ("first", "random", "rarest", "rarest_random")
