"""Hypothesis tests of the backends' ``apply_coded_ops`` ports.

Every flip-loop backend carries its own implementation of
:meth:`~repro.utils.indexset.BatchedIndexSet.apply_coded_ops` — numpy's
delegates to the reference, ``cffi``'s is C — and each must mutate the
three storage arrays *identically* to the reference method: same packed
member order, same position back-pointers, same counts.  The suite drives
the reference and a backend port over identical families and asserts the
full storage state matches element for element, across random op streams
and the three edge regimes the engine actually produces: an empty op
stream (a round with no flips), an all-sites-unhappy round (every site
inserted into both families), and a set-emptying round (every member
removed).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends.registry import available_backends, create_backend
from repro.utils.indexset import BatchedIndexSet

COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every backend this host can run: numpy, plus cffi where it builds.
BACKENDS = available_backends()

#: Rows per family half (the engine's replica count analogue).
N_ROWS = 3
#: Members per row (the engine's site count analogue).
CAPACITY = 11


def _family(masks: np.ndarray) -> BatchedIndexSet:
    """A ``(2 * N_ROWS, CAPACITY)`` family initialised from ``masks``."""
    sets = BatchedIndexSet(2 * N_ROWS, CAPACITY)
    sets.fill_from_masks(masks)
    return sets


def _storage_state(sets: BatchedIndexSet):
    """Copies of the three backing arrays, for exact comparison."""
    members, positions, counts = sets.storage()
    return members.copy(), positions.copy(), counts.copy()


def _assert_same_storage(reference: BatchedIndexSet, actual: BatchedIndexSet):
    """The two families' backing arrays must agree bit for bit.

    Comparing the raw storage (not just sorted memberships) pins the packed
    layout itself — the thing every subsequent RNG draw depends on.
    """
    ref_members, ref_positions, ref_counts = _storage_state(reference)
    act_members, act_positions, act_counts = _storage_state(actual)
    np.testing.assert_array_equal(ref_counts, act_counts)
    np.testing.assert_array_equal(ref_positions, act_positions)
    # Members past the packed count are stale storage; compare the live
    # prefixes only (the reference leaves different garbage than a port may).
    for row in range(2 * N_ROWS):
        count = int(ref_counts[row])
        np.testing.assert_array_equal(
            ref_members[row * CAPACITY : row * CAPACITY + count],
            act_members[row * CAPACITY : row * CAPACITY + count],
        )


def _apply_reference(sets: BatchedIndexSet, ops) -> None:
    rows, indices, toggled, members = ops
    sets.apply_coded_ops(
        list(rows), list(indices), list(toggled), list(members), N_ROWS
    )


def _apply_backend(name: str, sets: BatchedIndexSet, ops) -> None:
    rows, indices, toggled, members = ops
    create_backend(name).apply_coded_ops(
        sets, rows, indices, toggled, members, N_ROWS
    )


masks_strategy = st.integers(min_value=0, max_value=2**31 - 1).map(
    lambda seed: np.random.default_rng(seed).random((2 * N_ROWS, CAPACITY))
    < 0.5
)

ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_ROWS - 1),
        st.integers(min_value=0, max_value=CAPACITY - 1),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=0,
    max_size=40,
)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestCodedOpsBackends:
    @COMMON_SETTINGS
    @given(masks=masks_strategy, ops=ops_strategy)
    def test_random_op_streams_match_reference(self, backend_name, masks, ops):
        """Arbitrary coded-op streams leave identical storage everywhere."""
        columns = (
            tuple(op[0] for op in ops),
            tuple(op[1] for op in ops),
            tuple(op[2] for op in ops),
            tuple(op[3] for op in ops),
        )
        reference = _family(masks)
        actual = _family(masks)
        _apply_reference(reference, columns)
        _apply_backend(backend_name, actual, columns)
        _assert_same_storage(reference, actual)

    @COMMON_SETTINGS
    @given(masks=masks_strategy)
    def test_empty_op_stream_is_a_noop(self, backend_name, masks):
        """A flip-less round streams zero ops and must change nothing."""
        before = _family(masks)
        actual = _family(masks)
        _apply_backend(backend_name, actual, ((), (), (), ()))
        _assert_same_storage(before, actual)

    def test_all_sites_unhappy_round(self, backend_name):
        """Inserting every site into both family halves fills every row."""
        empty = np.zeros((2 * N_ROWS, CAPACITY), dtype=bool)
        ops = (
            tuple(
                row for row in range(N_ROWS) for _ in range(CAPACITY)
            ),
            tuple(
                index for _ in range(N_ROWS) for index in range(CAPACITY)
            ),
            (3,) * (N_ROWS * CAPACITY),
            (3,) * (N_ROWS * CAPACITY),
        )
        reference = _family(empty)
        actual = _family(empty)
        _apply_reference(reference, ops)
        _apply_backend(backend_name, actual, ops)
        _assert_same_storage(reference, actual)
        assert (actual.storage()[2] == CAPACITY).all()

    def test_set_emptying_round(self, backend_name):
        """Removing every member empties every row, layouts agreeing."""
        full = np.ones((2 * N_ROWS, CAPACITY), dtype=bool)
        ops = (
            tuple(
                row for row in range(N_ROWS) for _ in range(CAPACITY)
            ),
            tuple(
                index for _ in range(N_ROWS) for index in range(CAPACITY)
            ),
            (3,) * (N_ROWS * CAPACITY),
            (0,) * (N_ROWS * CAPACITY),
        )
        reference = _family(full)
        actual = _family(full)
        _apply_reference(reference, ops)
        _apply_backend(backend_name, actual, ops)
        _assert_same_storage(reference, actual)
        assert (actual.storage()[2] == 0).all()

    def test_redundant_ops_are_tolerated(self, backend_name):
        """Adding a present member / removing an absent one is a no-op."""
        masks = np.zeros((2 * N_ROWS, CAPACITY), dtype=bool)
        masks[0, 2] = True
        ops = (
            (0, 0, 0),
            (2, 2, 5),
            (3, 1, 1),
            (3, 0, 0),  # re-add present, then remove it; remove absent 5
        )
        reference = _family(masks)
        actual = _family(masks)
        _apply_reference(reference, ops)
        _apply_backend(backend_name, actual, ops)
        _assert_same_storage(reference, actual)
