"""Tests for incremental diffs and the download application."""

import gc
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.common.rng import split_rng
from repro.core.diffs import DiffTracker, diff_wire_size
from repro.core.download import DownloadState, FileObject
from repro.core.request import AvailabilityView


class TestDiffTracker:
    def test_each_block_told_once(self):
        tracker = DiffTracker()
        assert tracker.next_diff([1, 2, 3]) == [1, 2, 3]
        assert tracker.next_diff([1, 2, 3, 4]) == [4]
        assert tracker.next_diff([1, 2, 3, 4]) == []

    def test_receiver_reported_blocks_not_diffed(self):
        tracker = DiffTracker()
        tracker.observe_receiver_has([2, 3])
        assert tracker.next_diff([1, 2, 3]) == [1]

    def test_output_sorted(self):
        tracker = DiffTracker()
        assert tracker.next_diff([5, 1, 3]) == [1, 3, 5]

    def test_wire_size_scales_with_count(self):
        assert diff_wire_size(0) == 16
        assert diff_wire_size(10) == 56

    @given(st.lists(st.integers(0, 500), max_size=200))
    def test_no_block_announced_twice(self, stream):
        tracker = DiffTracker()
        announced = []
        have = []
        for block in stream:
            have.append(block)
            announced.extend(tracker.next_diff(have))
        assert len(announced) == len(set(announced))
        assert set(announced) == set(stream)


class TestDownloadStateUnencoded:
    def test_completion(self):
        state = DownloadState(3)
        assert not state.complete
        for b in range(3):
            assert state.add(b)
        assert state.complete

    def test_duplicate_rejected(self):
        state = DownloadState(3)
        state.add(1)
        assert not state.add(1)

    def test_wants(self):
        state = DownloadState(2)
        state.add(0)
        assert not state.wants(0)
        assert state.wants(1)
        state.add(1)
        assert not state.wants(1)  # complete: wants nothing

    def test_validation(self):
        with pytest.raises(ValueError):
            DownloadState(0)

    def test_out_of_range_rejected(self):
        state = DownloadState(4)
        with pytest.raises(IndexError):
            state.add(4)
        with pytest.raises(IndexError):
            state.add(-1)
        assert len(state) == 0
        assert 4 not in state
        assert -1 not in state


class TestDownloadStateEncoded:
    def test_requires_overhead_blocks(self):
        state = DownloadState(100, encoded=True, overhead=0.04)
        assert state.required == 104
        for b in range(103):
            state.add(b)
        assert not state.complete
        state.add(1000)  # any distinct block counts
        assert state.complete

    def test_ids_past_num_blocks_complete_at_required(self):
        state = DownloadState(10, encoded=True)
        ids = range(1000, 1000 + state.required)
        for block in ids:
            assert not state.complete
            assert state.wants(block)
            assert state.add(block)
            assert block in state
        assert state.complete
        assert not state.add(1000)
        assert state.blocks() == list(ids)
        with pytest.raises(IndexError):
            state.add(-1)


def _retained_kib(build):
    """KiB that ``build()``'s result keeps alive, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / 1024


class TestPerBlockMemory:
    """Per-block records are block-indexed: a byte or a list slot per
    block, not a ``set`` or ``dict`` entry."""

    def test_diff_trackers(self):
        def build():
            trackers = [DiffTracker() for _ in range(10)]
            for tracker in trackers:
                tracker.next_diff(range(1000))
            return trackers

        # One ``set`` per tracker retained 555 KiB; bitmaps retain 12 KiB.
        assert _retained_kib(build) <= 64

    def test_availability_view(self):
        def build():
            view = AvailabilityView("rarest_random", split_rng(0, "test"))
            for sender in range(10):
                view.add_sender(sender)
                view.learn(sender, range(1000))
            return view

        # A census dict and per-sender dicts retained 1,015 KiB; lists
        # and bitmaps retain 708 KiB (most of it the discovery-order
        # lists, their position ints and the rarity buckets, whose
        # layout did not change).
        assert _retained_kib(build) <= 850


class TestFileObject:
    def test_block_split_and_reassemble(self):
        fo = FileObject.synthetic(100_000, 4096, seed=1)
        blocks = {i: fo.block(i) for i in range(fo.num_blocks)}
        assert fo.reassemble(blocks) == fo.data

    def test_last_block_short(self):
        fo = FileObject(b"x" * 10, block_size=4)
        assert fo.num_blocks == 3
        assert fo.block_length(2) == 2

    def test_missing_block_detected(self):
        fo = FileObject(b"x" * 10, block_size=4)
        with pytest.raises(ValueError, match="missing"):
            fo.reassemble({0: fo.block(0)})

    def test_corruption_detected(self):
        fo = FileObject(b"x" * 8, block_size=4)
        blocks = {0: b"yyyy", 1: fo.block(1)}
        with pytest.raises(ValueError, match="match"):
            fo.reassemble(blocks)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FileObject(b"", 4)

    def test_synthetic_deterministic(self):
        a = FileObject.synthetic(1000, 100, seed=5)
        b = FileObject.synthetic(1000, 100, seed=5)
        assert a.digest() == b.digest()
        c = FileObject.synthetic(1000, 100, seed=6)
        assert a.digest() != c.digest()

    def test_block_bounds(self):
        fo = FileObject(b"x" * 8, block_size=4)
        with pytest.raises(IndexError):
            fo.block(2)
