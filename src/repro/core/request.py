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

**The rarest index.**  For ``rarest`` / ``rarest_random`` each sender's
*live* candidates (advertised, wanted, requested nowhere) are filed in
rarity buckets — ``census count -> sorted list of discovery positions``
— so a pick is "smallest non-empty bucket, first or
``rng.randrange(len(bucket))``-th entry" and counting candidates is a
sum of bucket lengths.  A census change (``learn``, ``remove_sender``)
re-files a block only in the senders where it is live, and not at all
when it is unavailable (then it is live nowhere).  ``first`` / ``random``
keep a plain candidate list and drop unavailable entries as they meet
them.

**Compaction and the ``stale`` set.**  The scan this index replaced
dropped every candidate that was not useful at the moment a sender's
list was scanned, for good; one that became useful again *before* the
next scan (its request was released) survived.  The index reproduces
that bit for bit: a live candidate requested elsewhere moves to the
sender's ``stale`` set, a release moves it back to its old position,
and ``stale`` is emptied wherever the scan compacted (``pick`` and
``candidate_count``, not ``prefetch_needed``).  A block released after
that is therefore requestable only from a sender that learns it anew:
the orphaned-released-block defect, kept until a fix that moves every
Bullet' golden cell lands as a change of its own.
"""

from bisect import bisect_left, insort

from repro.common.bitmap import BlockBitmap

__all__ = ["AvailabilityView", "REQUEST_STRATEGIES"]


class _CandidateList:
    """One sender's candidates for ``first`` / ``random``."""

    __slots__ = ("known", "order")

    def __init__(self, size):
        #: Everything this sender ever advertised (for rarity accounting
        #: and duplicate-diff suppression).
        self.known = BlockBitmap(size)
        #: Candidates in discovery order; unavailable entries are dropped
        #: lazily during selection.
        self.order = []

    def grow(self, size):
        self.known.grow(size)


class _RarityIndex:
    """One sender's candidates for ``rarest`` / ``rarest_random``."""

    __slots__ = ("known", "order", "buckets", "stale")

    def __init__(self, size):
        #: block -> discovery position, -1 if never advertised.
        self.known = [-1] * size
        #: Discovery position -> block (append-only).
        self.order = []
        #: Census count -> sorted discovery positions of the live
        #: candidates advertised by that many senders; no empty buckets.
        self.buckets = {}
        #: Candidates that became unavailable since this sender was last
        #: compacted; a release revives them.
        self.stale = set()

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

    def live_count(self):
        return sum(map(len, self.buckets.values()))


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
        self._indexed = strategy in ("rarest", "rarest_random")
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
        size = len(self.rarity)
        self._senders[sender_key] = (
            _RarityIndex(size) if self._indexed else _CandidateList(size)
        )

    def remove_sender(self, sender_key):
        removed = self._senders.pop(sender_key)
        rarity = self.rarity
        unavailable = self._unavailable.flags
        # Discovery order for the index (``order`` is append-only there);
        # a candidate list's order is compacted, so walk its bitmap.
        for block in removed.order if self._indexed else removed.known:
            count = rarity[block] - 1
            rarity[block] = count
            if count and self._indexed and not unavailable[block]:
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
        rarity = self.rarity
        size = len(rarity)
        if not self._indexed:
            flags = known.flags
            for block in blocks:
                if not 0 <= block < size:
                    self._grow(block)
                    size = len(rarity)
                elif flags[block]:
                    continue
                known.add(block)
                order.append(block)
                rarity[block] += 1
            return
        unavailable = self._unavailable.flags
        buckets = learner.buckets
        for block in blocks:
            if not 0 <= block < size:
                self._grow(block)
                size = len(rarity)
            elif known[block] >= 0:
                continue
            count = rarity[block] + 1
            rarity[block] = count
            position = len(order)
            if unavailable[block]:
                learner.stale.add(block)
            else:
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
        if self._indexed:
            rarity = self.rarity[block]
            for index in self._senders.values():
                if index.known[block] >= 0 and index.unfile(block, rarity):
                    index.stale.add(block)

    def released(self, block):
        """A request for ``block`` was given up.

        Only for blocks the receiver still wants (never one it holds).
        """
        if block not in self._unavailable:
            return
        self._unavailable.discard(block)
        if self._indexed:
            rarity = self.rarity[block]
            for index in self._senders.values():
                if block in index.stale:
                    index.stale.discard(block)
                    index.file(block, rarity)

    def ingested(self, block):
        """The receiver now holds ``block``.

        To the view this is a request that is never released.
        """
        self.taken(block)

    # -- counting -------------------------------------------------------------------

    def candidate_count(self, sender_key):
        """Number of useful blocks available from this sender.

        Compacts the sender's candidates as a side effect.
        """
        candidates = self._senders[sender_key]
        if self._indexed:
            candidates.stale.clear()
            return candidates.live_count()
        unavailable = self._unavailable.flags
        candidates.order = [b for b in candidates.order if not unavailable[b]]
        return len(candidates.order)

    def prefetch_needed(self, sender_key, limit):
        """True when at most ``limit`` useful candidates remain.

        The rarest strategies answer without compacting (their selection
        never depends on how many stale entries a sender carries);
        ``random`` / ``first`` draw on the raw list, so they keep the
        exact compact-and-count semantics.
        """
        if self._indexed:
            return self._senders[sender_key].live_count() <= limit
        return self.candidate_count(sender_key) <= limit

    # -- selection ----------------------------------------------------------------

    def pick(self, sender_key):
        """Choose the next block to request from ``sender_key``.

        Returns a block id, or ``None`` when the sender has nothing
        useful.  The block stops being a candidate of this sender; the
        caller reports the request with :meth:`taken`.
        """
        candidates = self._senders[sender_key]
        if not self._indexed:
            if self.strategy == "first":
                return self._pick_first(candidates.order)
            return self._pick_random(candidates.order)
        candidates.stale.clear()
        buckets = candidates.buckets
        if not buckets:
            return None
        rarity = min(buckets)
        bucket = buckets[rarity]
        if self.strategy == "rarest_random":
            position = bucket.pop(self.rng.randrange(len(bucket)))
        else:
            position = bucket.pop(0)
        if not bucket:
            del buckets[rarity]
        return candidates.order[position]

    def _pick_first(self, order):
        unavailable = self._unavailable.flags
        while order:
            block = order.pop(0)
            if not unavailable[block]:
                return block
        return None

    def _pick_random(self, order):
        unavailable = self._unavailable.flags
        while order:
            index = self.rng.randrange(len(order))
            block = order[index]
            # Swap-pop: O(1) removal, order no longer matters for this
            # strategy.
            order[index] = order[-1]
            order.pop()
            if not unavailable[block]:
                return block
        return None


#: The strategies a Bullet' node can be configured with.
REQUEST_STRATEGIES = ("first", "random", "rarest", "rarest_random")
