"""Unit and property tests for BlockBitmap, the one block-set type."""

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


#: Operations on ids that reach well past the initial size (growth).
_ops = st.lists(
    st.tuples(st.sampled_from(["add", "discard"]), st.integers(0, 300)),
    max_size=200,
)


@given(st.integers(0, 64), _ops, st.integers(-300, -1))
def test_matches_python_set(size, ops, negative):
    bitmap = BlockBitmap(size)
    model = set()
    for op, block in ops:
        getattr(bitmap, op)(block)
        getattr(model, op)(block)
        assert len(bitmap) == len(model)
    assert list(bitmap) == sorted(model)
    assert all((block in bitmap) == (block in model) for block in range(-2, 310))
    assert negative not in bitmap
    with pytest.raises(IndexError):
        bitmap.add(negative)
    bitmap.discard(negative)
    assert len(bitmap) == len(model)


@given(st.sets(st.integers(0, 500)))
def test_constructor_blocks_past_size(blocks):
    bitmap = BlockBitmap(16, blocks)
    assert list(bitmap) == sorted(blocks)
    assert len(bitmap) == len(blocks)


def test_growth_is_geometric():
    bitmap = BlockBitmap(4)
    bitmap.add(4)
    assert len(bitmap.flags) == 8
    bitmap.add(100)
    assert len(bitmap.flags) == 101
