"""Tests for the request strategies (paper section 3.3.2)."""

import collections
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.rng import split_rng
from repro.core.request import REQUEST_STRATEGIES, AvailabilityView


def _view(strategy, seed=0):
    return AvailabilityView(strategy, split_rng(seed, "test"))


class TestBookkeeping:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            _view("fastest")

    def test_duplicate_sender_rejected(self):
        view = _view("random")
        view.add_sender("s1")
        with pytest.raises(KeyError):
            view.add_sender("s1")

    def test_learn_updates_rarity(self):
        view = _view("random")
        view.add_sender("s1")
        view.add_sender("s2")
        view.learn("s1", [1, 2])
        view.learn("s2", [2, 3])
        assert view.rarity == {1: 1, 2: 2, 3: 1}

    def test_learn_is_idempotent_per_sender(self):
        view = _view("random")
        view.add_sender("s1")
        view.learn("s1", [1])
        view.learn("s1", [1])
        assert view.rarity[1] == 1

    def test_remove_sender_decrements_rarity(self):
        view = _view("random")
        view.add_sender("s1")
        view.add_sender("s2")
        view.learn("s1", [1, 2])
        view.learn("s2", [2])
        view.remove_sender("s1")
        assert view.rarity == {2: 1}

    def test_candidate_count(self):
        view = _view("random")
        view.add_sender("s1")
        view.learn("s1", [1, 2, 3])
        view.ingested(2)
        assert view.candidate_count("s1") == 2


class TestPickSemantics:
    @pytest.mark.parametrize("strategy", REQUEST_STRATEGIES)
    def test_pick_exhausts_and_returns_none(self, strategy):
        view = _view(strategy)
        view.add_sender("s1")
        view.learn("s1", [1, 2, 3])
        picked = set()
        for _ in range(3):
            block = view.pick("s1")
            assert block is not None
            picked.add(block)
        assert picked == {1, 2, 3}
        assert view.pick("s1") is None

    @pytest.mark.parametrize("strategy", REQUEST_STRATEGIES)
    def test_pick_respects_useful(self, strategy):
        view = _view(strategy)
        view.add_sender("s1")
        view.learn("s1", list(range(10)))
        for block in range(10):
            if block < 4:
                view.ingested(block)
            elif block != 7:
                view.taken(block)
        assert view.pick("s1") == 7

    @pytest.mark.parametrize("strategy", REQUEST_STRATEGIES)
    def test_nothing_useful_returns_none(self, strategy):
        view = _view(strategy)
        view.add_sender("s1")
        view.learn("s1", [1, 2])
        view.taken(1)
        view.ingested(2)
        assert view.pick("s1") is None

    @pytest.mark.parametrize("strategy", REQUEST_STRATEGIES)
    def test_release_before_next_scan_revives(self, strategy):
        view = _view(strategy)
        view.add_sender("s1")
        view.add_sender("s2")
        view.learn("s1", [1])
        view.learn("s2", [1])
        assert view.pick("s1") == 1
        view.taken(1)
        # s2 is not scanned while the request is in flight, so it still
        # lists the block when the request is given up.
        view.remove_sender("s1")
        view.released(1)
        assert view.pick("s2") == 1

    @pytest.mark.parametrize("strategy", ("rarest", "rarest_random"))
    @pytest.mark.parametrize(
        "scan, compacts",
        [
            (lambda view: view.pick("s2"), True),
            (lambda view: view.candidate_count("s2"), True),
            (lambda view: view.prefetch_needed("s2", 0), False),
        ],
        ids=["pick", "candidate_count", "prefetch_needed"],
    )
    def test_which_scans_compact(self, strategy, scan, compacts):
        """A candidate requested elsewhere is dropped for good by the
        sender's next ``pick`` or ``candidate_count``, not by
        ``prefetch_needed`` (the rarest strategies)."""
        view = _view(strategy)
        view.add_sender("s1")
        view.add_sender("s2")
        view.learn("s1", [1])
        view.learn("s2", [1])
        view.taken(view.pick("s1"))
        scan(view)
        view.released(1)
        assert view.candidate_count("s2") == (0 if compacts else 1)

    @pytest.mark.xfail(
        strict=True,
        reason="compaction orphans released blocks: a sender scanned while "
        "the block was in flight never offers it again; the fix moves every "
        "Bullet' golden cell, so it is its own PR",
    )
    @pytest.mark.parametrize("strategy", REQUEST_STRATEGIES)
    def test_released_block_requestable_from_any_advertiser(self, strategy):
        """Intended: a released block can be requested from every
        remaining sender that advertised it.  Today a sender scanned
        while the request was in flight has dropped the block for good,
        and ``learn`` ignores blocks it already knows."""
        view = _view(strategy)
        view.add_sender("s1")
        view.add_sender("s2")
        view.learn("s1", [1])
        view.learn("s2", [1])
        assert view.pick("s1") == 1
        view.taken(1)
        assert view.pick("s2") is None  # scanned while block 1 is in flight
        view.remove_sender("s1")
        view.released(1)
        assert view.pick("s2") == 1


class TestStrategyBehaviour:
    def test_first_preserves_discovery_order(self):
        view = _view("first")
        view.add_sender("s1")
        view.learn("s1", [5, 3, 8])
        view.learn("s1", [1])
        order = [view.pick("s1") for _ in range(4)]
        assert order == [5, 3, 8, 1]

    def test_rarest_prefers_low_census(self):
        view = _view("rarest")
        for s in ("s1", "s2", "s3"):
            view.add_sender(s)
        view.learn("s1", [10, 20])
        view.learn("s2", [10])
        view.learn("s3", [10])
        # Block 20 is advertised by one sender; block 10 by three.
        assert view.pick("s1") == 20

    def test_rarest_follows_census_changes(self):
        view = _view("rarest")
        for s in ("s1", "s2", "s3"):
            view.add_sender(s)
        view.learn("s1", [10, 20])
        view.learn("s2", [10, 20])
        view.learn("s3", [10, 20])
        view.remove_sender("s2")
        view.remove_sender("s3")
        view.add_sender("s4")
        view.learn("s4", [10])
        # Both were on three senders; now 20 is on one and 10 on two.
        assert view.pick("s1") == 20

    def test_rarest_deterministic_tie_break(self):
        view = _view("rarest")
        view.add_sender("s1")
        view.learn("s1", [4, 2, 9])
        assert view.pick("s1") == 4  # first-discovered tie

    def test_rarest_random_breaks_ties_randomly(self):
        choices = collections.Counter()
        for seed in range(60):
            view = _view("rarest_random", seed=seed)
            view.add_sender("s1")
            view.learn("s1", [1, 2, 3])
            choices[view.pick("s1")] += 1
        assert len(choices) == 3  # every tie candidate gets chosen sometimes

    def test_random_spreads_choices(self):
        choices = collections.Counter()
        for seed in range(60):
            view = _view("random", seed=seed)
            view.add_sender("s1")
            view.learn("s1", list(range(6)))
            choices[view.pick("s1")] += 1
        assert len(choices) >= 4


class TestDiversityProperty:
    def test_rarest_random_spreads_better_than_first(self):
        """The motivating property: across many receivers choosing from
        the same availability, rarest-random yields more distinct early
        picks than first-encountered (block diversity, section 3.3.2)."""

        def early_picks(strategy):
            picks = []
            for seed in range(40):
                view = _view(strategy, seed=seed)
                view.add_sender("s")
                view.learn("s", list(range(50)))
                picks.append(view.pick("s"))
            return len(set(picks))

        assert early_picks("rarest_random") > early_picks("first")


@given(
    blocks=st.lists(
        st.integers(min_value=0, max_value=200), min_size=1, max_size=50, unique=True
    ),
    strategy=st.sampled_from(REQUEST_STRATEGIES),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_every_pick_is_valid_and_unique(blocks, strategy, seed):
    view = _view(strategy, seed=seed)
    view.add_sender("s")
    view.learn("s", blocks)
    picked = []
    while True:
        block = view.pick("s")
        if block is None:
            break
        picked.append(block)
    assert sorted(picked) == sorted(blocks)


# -- oracle: the linear scan the index replaced -----------------------------------


class ScanView:
    """Reference implementation sharing nothing with the index.

    The candidate scan ``AvailabilityView`` used before it kept an
    index: every sender has a discovery-ordered list, every pick
    re-filters it through a ``useful`` predicate and re-ranks what is
    left.  Usefulness lives here as two plain sets the notifications
    edit, exactly what ``BulletPrimeNode`` used to keep.
    """

    def __init__(self, strategy, rng):
        self.strategy = strategy
        self.rng = rng
        self.order = {}
        self.known = {}
        self.rarity = {}
        self.held = set()
        self.requested = set()

    def useful(self, block):
        return block not in self.held and block not in self.requested

    def taken(self, block):
        self.requested.add(block)

    def released(self, block):
        self.requested.discard(block)

    def ingested(self, block):
        self.held.add(block)

    def add_sender(self, key):
        self.order[key] = []
        self.known[key] = set()

    def remove_sender(self, key):
        del self.order[key]
        for block in self.known.pop(key):
            count = self.rarity.get(block, 0) - 1
            if count <= 0:
                self.rarity.pop(block, None)
            else:
                self.rarity[block] = count

    def learn(self, key, blocks):
        for block in blocks:
            if block in self.known[key]:
                continue
            self.known[key].add(block)
            self.order[key].append(block)
            self.rarity[block] = self.rarity.get(block, 0) + 1

    def candidate_count(self, key):
        self.order[key] = [b for b in self.order[key] if self.useful(b)]
        return len(self.order[key])

    def prefetch_needed(self, key, limit):
        if self.strategy not in ("rarest", "rarest_random"):
            return self.candidate_count(key) <= limit
        seen = 0
        for block in self.order[key]:
            if self.useful(block):
                seen += 1
                if seen > limit:
                    return False
        return True

    def pick(self, key):
        order = self.order[key]
        if self.strategy == "first":
            while order:
                block = order.pop(0)
                if self.useful(block):
                    return block
            return None
        if self.strategy == "random":
            while order:
                index = self.rng.randrange(len(order))
                block = order[index]
                order[index] = order[-1]
                order.pop()
                if self.useful(block):
                    return block
            return None
        valid = []
        best_rarity = float("inf")
        ties = []
        for block in order:
            if not self.useful(block):
                continue
            valid.append(block)
            rarity = self.rarity.get(block, 0)
            if rarity < best_rarity:
                best_rarity = rarity
                ties = [block]
            elif rarity == best_rarity:
                ties.append(block)
        if not ties:
            order.clear()
            return None
        if self.strategy == "rarest_random":
            chosen = ties[self.rng.randrange(len(ties))]
        else:
            chosen = ties[0]
        valid.remove(chosen)
        order[:] = valid
        return chosen


SENDERS = ("s0", "s1", "s2", "s3")
#: A small universe, so senders overlap and blocks change state often.
_block = st.integers(min_value=0, max_value=5)
#: Senders and outstanding requests are named by an index into whatever
#: is tracked at that point, so nearly every operation does something.
_index = st.integers(min_value=0, max_value=11)
_pick = st.tuples(st.just("pick"), _index, st.booleans())
_learn = st.tuples(st.just("learn"), _index, st.lists(_block, max_size=4))
_release = st.tuples(st.just("release"), _index)
_operation = st.one_of(
    _pick,
    _pick,
    _learn,
    _learn,
    _release,
    _release,
    st.tuples(st.just("take"), _block),
    st.tuples(st.just("ingest"), _block),
    st.tuples(st.just("add_sender"), st.sampled_from(SENDERS)),
    st.tuples(st.just("remove_sender"), _index),
    st.tuples(st.just("candidate_count"), _index),
    st.tuples(st.just("prefetch_needed"), _index, st.integers(0, 4)),
)


@settings(max_examples=500, deadline=None)
@given(
    strategy=st.sampled_from(REQUEST_STRATEGIES),
    seed=st.integers(min_value=0, max_value=1000),
    advertised=st.lists(st.lists(_block, max_size=6), min_size=3, max_size=3),
    operations=st.lists(_operation, max_size=60),
)
def test_index_matches_scan_oracle(strategy, seed, advertised, operations):
    """Random notification sequences: the index and the scan return the
    same values, draw the same random numbers, and keep the same
    candidates — through release-before-next-scan revival, compaction,
    census changes and learning blocks that are already held."""
    view = _view(strategy, seed=seed)
    oracle = ScanView(strategy, split_rng(seed, "test"))
    both = (view, oracle)

    def on_both(method, *args):
        results = [getattr(target, method)(*args) for target in both]
        assert results[0] == results[1], (method, args, results)
        assert view.rng.getstate() == oracle.rng.getstate()
        return results[0]

    def nth(items, index):
        items = sorted(items)
        return items[index % len(items)] if items else None

    for key, blocks in zip(SENDERS, advertised):
        on_both("add_sender", key)
        on_both("learn", key, blocks)
    for name, target, *extra in operations:
        if name == "take":
            if oracle.useful(target):
                on_both("taken", target)
        elif name == "release":
            # Only requests for blocks still wanted are released.
            block = nth(oracle.requested - oracle.held, target)
            if block is not None:
                on_both("released", block)
        elif name == "ingest":
            on_both("ingested", target)
        elif name == "add_sender":
            if target not in oracle.order:
                on_both("add_sender", target)
        elif (key := nth(oracle.order, target)) is None:
            continue  # no sender tracked
        elif name == "pick":
            block = on_both("pick", key)
            if block is not None and extra[0]:
                on_both("taken", block)
        else:
            on_both(name, key, *extra)
        assert view.rarity == oracle.rarity

    # Surviving candidates: give every request up, then drain each sender.
    for block in sorted(oracle.requested - oracle.held):
        on_both("released", block)
    for key in list(oracle.order):
        assert on_both("candidate_count", key) == len(oracle.order[key])
        while on_both("pick", key) is not None:
            pass


def _drain_seconds(num_blocks):
    view = AvailabilityView("rarest_random", split_rng(0, "bench.request"))
    view.add_sender("s")
    view.learn("s", range(num_blocks))
    started = time.perf_counter()
    while True:
        block = view.pick("s")
        if block is None:
            break
        view.taken(block)
    return time.perf_counter() - started


def test_pick_cost_does_not_grow_with_candidates():
    """Request-index scaling guard: a pick must not cost O(candidates).

    One sender advertises N blocks and a receiver drains them through
    ``AvailabilityView.pick`` with ``rarest_random`` (Bullet's default),
    the way ``BulletPrimeNode._pump_sender`` does.  The candidate scan
    the index replaced re-filtered and re-ranked the whole list on every
    pick, so its per-pick cost at the paper's file size (100 MB / 16 KB
    = 6,400 blocks) was about 10x the cost at this repo's default 640.
    With the index the only term that grows is a C-level ``list.pop``
    inside one bucket; the check fails if the ratio reaches 3x.  Each
    size's cost is the best of 5 drains: a 640-block drain is short
    enough for one scheduler hiccup to double it.
    """
    small, large = (
        min(_drain_seconds(size) for _ in range(5)) / size for size in (640, 6400)
    )
    assert large / small < 3.0, f"per-pick cost ratio {large / small:.2f}"
