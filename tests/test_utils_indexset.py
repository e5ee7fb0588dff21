"""Tests for the dynamic index sampler, including a hypothesis model check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.indexset import IndexSampler


class TestBasics:
    def test_empty_on_creation(self):
        sampler = IndexSampler(10)
        assert len(sampler) == 0
        assert 3 not in sampler

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            IndexSampler(0)

    def test_add_and_contains(self):
        sampler = IndexSampler(10)
        sampler.add(4)
        assert 4 in sampler
        assert len(sampler) == 1

    def test_add_idempotent(self):
        sampler = IndexSampler(10)
        sampler.add(4)
        sampler.add(4)
        assert len(sampler) == 1

    def test_remove(self):
        sampler = IndexSampler(10)
        sampler.add(4)
        sampler.remove(4)
        assert 4 not in sampler
        assert len(sampler) == 0

    def test_remove_missing_is_noop(self):
        sampler = IndexSampler(10)
        sampler.remove(4)
        assert len(sampler) == 0

    def test_out_of_range_rejected(self):
        sampler = IndexSampler(10)
        with pytest.raises(IndexError):
            sampler.add(10)
        with pytest.raises(IndexError):
            sampler.remove(-1)

    def test_update_membership(self):
        sampler = IndexSampler(5)
        sampler.update_membership(2, True)
        assert 2 in sampler
        sampler.update_membership(2, False)
        assert 2 not in sampler

    def test_clear(self):
        sampler = IndexSampler(8)
        for i in range(8):
            sampler.add(i)
        sampler.clear()
        assert len(sampler) == 0
        assert 3 not in sampler

    def test_to_array_sorted(self):
        sampler = IndexSampler(10)
        for i in (7, 1, 5):
            sampler.add(i)
        assert sampler.to_array().tolist() == [1, 5, 7]


class TestSampling:
    def test_sample_from_empty_raises(self, rng):
        with pytest.raises(IndexError):
            IndexSampler(5).sample(rng)

    def test_sample_returns_member(self, rng):
        sampler = IndexSampler(100)
        members = {3, 17, 42, 99}
        for member in members:
            sampler.add(member)
        for _ in range(50):
            assert sampler.sample(rng) in members

    def test_sample_is_roughly_uniform(self, rng):
        sampler = IndexSampler(4)
        for i in range(4):
            sampler.add(i)
        counts = np.zeros(4)
        n_draws = 4000
        for _ in range(n_draws):
            counts[sampler.sample(rng)] += 1
        # Each index should get roughly a quarter of the draws.
        assert np.all(counts > n_draws / 4 * 0.7)
        assert np.all(counts < n_draws / 4 * 1.3)


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=19)),
        max_size=200,
    )
)
def test_matches_reference_set(operations):
    """The sampler behaves exactly like a Python set under add/remove."""
    sampler = IndexSampler(20)
    reference: set[int] = set()
    for add, index in operations:
        if add:
            sampler.add(index)
            reference.add(index)
        else:
            sampler.remove(index)
            reference.discard(index)
        assert len(sampler) == len(reference)
    assert sampler.to_array().tolist() == sorted(reference)
    for index in range(20):
        assert (index in sampler) == (index in reference)


class TestBatchedIndexSetBasics:
    def test_validation(self):
        from repro.utils.indexset import BatchedIndexSet

        with pytest.raises(ValueError):
            BatchedIndexSet(0, 5)
        with pytest.raises(ValueError):
            BatchedIndexSet(3, 0)
        with pytest.raises(ValueError):
            BatchedIndexSet(2, 5).fill_from_masks(np.zeros((3, 5), dtype=bool))

    def test_capacity_is_bounded_by_int32_storage(self):
        from repro.utils.indexset import BatchedIndexSet

        # Members and positions are int32: checked before anything is
        # allocated, so the oversized request costs nothing.
        with pytest.raises(ValueError, match="int32"):
            BatchedIndexSet(1, 2**31 + 1)
        batched = BatchedIndexSet(1, 4)
        assert batched.storage()[0].dtype == np.int32
        assert batched.storage()[1].dtype == np.int32

    def test_fill_from_masks_builds_sorted_rows(self):
        from repro.utils.indexset import BatchedIndexSet

        masks = np.array(
            [[True, False, True, True], [False, False, False, True]]
        )
        batched = BatchedIndexSet(2, 4)
        batched.fill_from_masks(masks)
        assert batched.counts.tolist() == [3, 1]
        assert batched.packed_members(0).tolist() == [0, 2, 3]
        assert batched.packed_members(1).tolist() == [3]
        # The position table points back into the packed rows (-1: absent).
        positions = batched.storage()[1].reshape(2, 4)
        assert positions.tolist() == [[0, -1, 1, 2], [-1, -1, -1, 0]]

    def test_views_expose_live_buffers(self):
        from repro.utils.indexset import BatchedIndexSet

        batched = BatchedIndexSet(1, 4)
        batched.fill_from_masks(np.array([[False, False, False, True]]))
        assert batched.counts_view()[0] == 1
        assert batched.members_view()[0] == 3


def _reference_sets(n_sets, capacity):
    """One scalar :class:`IndexSampler` per row: the layout oracle."""
    return [IndexSampler(capacity) for _ in range(n_sets)]


def _assert_layouts_equal(batched, references):
    """Packed layout (not just membership) must match the scalar reference."""
    for row, reference in enumerate(references):
        assert batched.counts[row] == len(reference)
        assert (
            batched.packed_members(row).tolist()
            == reference._members[: len(reference)].tolist()
        )


@settings(max_examples=50, deadline=None)
@given(
    initial=st.lists(
        st.lists(st.booleans(), min_size=12, max_size=12), min_size=3, max_size=3
    ),
    operations=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # row
            st.integers(min_value=0, max_value=11),  # index
            st.booleans(),  # desired membership
        ),
        max_size=120,
    ),
)
def test_batched_matches_replica_reference_under_ordered_ops(initial, operations):
    """BatchedIndexSet == IndexSampler layout-for-layout: the bulk build plus
    any ordered membership stream (driven through ``apply_coded_ops`` on bit
    0 only) leave identical packed members, which is exactly the property
    the ensemble's RNG-draw equivalence needs."""
    from repro.utils.indexset import BatchedIndexSet

    masks = np.array(initial, dtype=bool)
    batched = BatchedIndexSet(3, 12)
    batched.fill_from_masks(masks)
    references = _reference_sets(3, 12)
    for row in range(3):
        for index in np.flatnonzero(masks[row]):
            references[row].add(int(index))
    _assert_layouts_equal(batched, references)

    batched.apply_coded_ops(
        [row for row, _, _ in operations],
        [index for _, index, _ in operations],
        [1] * len(operations),
        [int(member) for _, _, member in operations],
        0,
    )
    for row, index, member in operations:
        references[row].update_membership(index, member)
    _assert_layouts_equal(batched, references)


@settings(max_examples=50, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),  # base row
            st.integers(min_value=0, max_value=9),  # index
            st.integers(min_value=1, max_value=3),  # toggled bits
            st.integers(min_value=0, max_value=3),  # member bits
        ),
        max_size=100,
    )
)
def test_apply_coded_ops_matches_pairwise_reference(operations):
    """The coded-op fast path equals the scalar pair of update_membership
    calls per site (bit 0 row first, then bit 1 row), in stream order."""
    from repro.utils.indexset import BatchedIndexSet

    n_base, capacity = 2, 10
    batched = BatchedIndexSet(2 * n_base, capacity)
    references = _reference_sets(2 * n_base, capacity)
    batched.apply_coded_ops(
        [row for row, _, _, _ in operations],
        [index for _, index, _, _ in operations],
        [toggled for _, _, toggled, _ in operations],
        [member for _, _, _, member in operations],
        n_base,
    )
    for row, index, toggled, member in operations:
        if toggled & 1:
            references[row].update_membership(index, bool(member & 1))
        if toggled & 2:
            references[row + n_base].update_membership(index, bool(member & 2))
    _assert_layouts_equal(batched, references)
