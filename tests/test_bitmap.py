"""Unit and property tests for BlockBitmap."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bitmap import BlockBitmap


class TestBasics:
    def test_starts_empty(self):
        bitmap = BlockBitmap(16)
        assert len(bitmap) == 0
        assert list(bitmap) == []

    def test_add_and_contains(self):
        bitmap = BlockBitmap(16)
        bitmap.add(3)
        assert 3 in bitmap
        assert 4 not in bitmap
        assert len(bitmap) == 1

    def test_add_idempotent(self):
        bitmap = BlockBitmap(8)
        bitmap.add(5)
        bitmap.add(5)
        assert len(bitmap) == 1

    def test_constructor_with_blocks(self):
        bitmap = BlockBitmap(10, [0, 9, 4])
        assert sorted(bitmap) == [0, 4, 9]

    def test_out_of_range_rejected(self):
        bitmap = BlockBitmap(4)
        with pytest.raises(IndexError):
            bitmap.add(4)
        with pytest.raises(IndexError):
            bitmap.add(-1)

    def test_negative_universe_rejected(self):
        with pytest.raises(ValueError):
            BlockBitmap(-1)

    def test_contains_out_of_range_is_false(self):
        bitmap = BlockBitmap(4, [0])
        assert 10 not in bitmap
        assert -1 not in bitmap

    def test_iteration_order_ascending(self):
        bitmap = BlockBitmap(64, [40, 3, 17])
        assert list(bitmap) == [3, 17, 40]


@given(st.sets(st.integers(min_value=0, max_value=127)))
def test_set_semantics_match_python_sets(xs):
    a = BlockBitmap(128, xs)
    assert set(a) == xs
    assert list(a) == sorted(xs)
    assert len(a) == len(xs)
    assert all((block in a) == (block in xs) for block in range(-1, 130))
