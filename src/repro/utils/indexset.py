"""A dynamic set of integer indices supporting O(1) add/remove/sample.

The Glauber dynamics engine must repeatedly pick a uniformly random element
from the set of currently flippable (or unhappy) agents, and that set changes
by only a handful of elements per flip.  Rebuilding ``np.flatnonzero`` of a
boolean mask on every step would dominate the run time on large grids, so the
engine keeps an :class:`IndexSampler` instead: a compact array of members plus
a position table, which is the classic "randomised set" data structure.
"""

from __future__ import annotations

import numpy as np


class IndexSampler:
    """Set of integers in ``[0, capacity)`` with O(1) add, remove and sample."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        # _members[:size] holds the current elements in arbitrary order.
        self._members = np.empty(self._capacity, dtype=np.int64)
        # _positions[i] is the index of element i inside _members, or -1.
        self._positions = np.full(self._capacity, -1, dtype=np.int64)
        self._size = 0

    @property
    def capacity(self) -> int:
        """Maximum element value plus one."""
        return self._capacity

    def __len__(self) -> int:
        return self._size

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self._capacity and self._positions[index] >= 0

    def add(self, index: int) -> None:
        """Insert ``index``; inserting an existing element is a no-op."""
        self._check(index)
        if self._positions[index] >= 0:
            return
        self._members[self._size] = index
        self._positions[index] = self._size
        self._size += 1

    def remove(self, index: int) -> None:
        """Remove ``index``; removing a missing element is a no-op."""
        self._check(index)
        pos = self._positions[index]
        if pos < 0:
            return
        last = self._members[self._size - 1]
        self._members[pos] = last
        self._positions[last] = pos
        self._positions[index] = -1
        self._size -= 1

    def update_membership(self, index: int, member: bool) -> None:
        """Add or remove ``index`` according to the boolean ``member``."""
        if member:
            self.add(index)
        else:
            self.remove(index)

    def sample(self, rng: np.random.Generator) -> int:
        """Return a uniformly random element; raises ``IndexError`` if empty."""
        if self._size == 0:
            raise IndexError("cannot sample from an empty IndexSampler")
        pos = int(rng.integers(0, self._size))
        return int(self._members[pos])

    def to_array(self) -> np.ndarray:
        """Return the current members as a sorted array (copy)."""
        return np.sort(self._members[: self._size].copy())

    def clear(self) -> None:
        """Remove every element."""
        self._positions[self._members[: self._size]] = -1
        self._size = 0

    def _check(self, index: int) -> None:
        if not 0 <= index < self._capacity:
            raise IndexError(
                f"index {index} out of range for capacity {self._capacity}"
            )


class BatchedIndexSet:
    """A family of randomised index sets backed by three shared arrays.

    One row per set: a packed ``(n_sets, capacity)`` int32 member array, a
    ``(n_sets, capacity)`` int32 position table (so ``capacity`` is at most
    ``2**31``) and an ``(n_sets,)`` int64 count vector —
    the array-backed analogue of ``n_sets`` independent :class:`IndexSampler`
    objects, laid out for the ensemble engine.  The swap-remove
    algorithm (and therefore the member ordering every RNG draw depends on) is
    exactly :class:`IndexSampler`'s, so a row evolved through the same
    operation sequence holds the same packed layout bit for bit — the
    equivalence the hypothesis suite in ``tests/test_utils_indexset.py`` pins
    with :class:`IndexSampler` as the oracle.

    Two access regimes coexist:

    * **bulk build** (:meth:`fill_from_masks`) — the whole family initialised
      from boolean membership masks in a handful of array ops, replacing
      per-index insertion loops;
    * **ordered updates** (:meth:`apply_coded_ops`) — the per-flip
      membership deltas.  These are inherently sequential *within* a row
      (every operation reads the count and the packed tail its predecessors
      wrote), so they run as one tight scalar loop over memoryviews of the
      backing arrays, which matches Python-list speed while keeping the
      storage arrays shared with the backends' round loops (see
      :meth:`storage`, :meth:`counts_view` and :meth:`members_view`).
    """

    __slots__ = (
        "_n_sets",
        "_capacity",
        "_members",
        "_positions",
        "_counts",
        "_members_mv",
        "_positions_mv",
        "_counts_mv",
    )

    def __init__(self, n_sets: int, capacity: int) -> None:
        if n_sets <= 0:
            raise ValueError(f"n_sets must be positive, got {n_sets}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if capacity > 2**31:
            raise ValueError(
                f"capacity {capacity} exceeds 2**31: members and positions "
                "are int32"
            )
        self._n_sets = int(n_sets)
        self._capacity = int(capacity)
        self._members = np.zeros((n_sets, capacity), dtype=np.int32)
        self._positions = np.full((n_sets, capacity), -1, dtype=np.int32)
        self._counts = np.zeros(n_sets, dtype=np.int64)
        # Flat scalar views for the sequential update loop; ~60% cheaper per
        # element access than ndarray scalar indexing.
        self._members_mv = memoryview(self._members.reshape(-1))
        self._positions_mv = memoryview(self._positions.reshape(-1))
        self._counts_mv = memoryview(self._counts)

    # -------------------------------------------------------------- inspection

    @property
    def n_sets(self) -> int:
        """Number of rows (independent sets) in the family."""
        return self._n_sets

    @property
    def capacity(self) -> int:
        """Maximum element value plus one, shared by every row."""
        return self._capacity

    @property
    def counts(self) -> np.ndarray:
        """Per-row element counts — the live array, not a copy.

        Callers treat it as read-only; the engine reads it every round for
        termination checks and sampler sizes, so handing out the live array
        avoids a per-round allocation.
        """
        return self._counts

    def counts_view(self) -> memoryview:
        """Memoryview over the per-row counts (scalar fast-path contract).

        The numpy backend's round loop reads counts and members
        element-wise; these views expose the live buffers at list speed.
        Callers must treat them as read-only.
        """
        return self._counts_mv

    def members_view(self) -> memoryview:
        """Flat memoryview over the packed members, ``row * capacity + k``.

        Read-only companion of :meth:`counts_view`; entry ``row * capacity +
        position`` is the member a uniform draw of ``position`` selects.
        """
        return self._members_mv

    def storage(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live backing arrays ``(members, positions, counts)``, flattened.

        The flip-loop backends (see :mod:`repro.core.backends`) run the
        coded-op membership loop directly over these buffers — members and
        positions as flat ``row * capacity + k`` views of the packed 2-D
        arrays, counts as the per-row vector.  Mutating them outside the
        class's own invariants (packed prefixes, position back-pointers,
        ``-1`` for absent) corrupts the family; backends replicate
        :meth:`apply_coded_ops` exactly, which preserves them.
        """
        return (
            self._members.reshape(-1),
            self._positions.reshape(-1),
            self._counts,
        )

    def packed_members(self, row: int) -> np.ndarray:
        """Copy of ``row``'s packed member array in internal order.

        The order is a function of the operation history (exactly
        :class:`IndexSampler`'s), which is what the layout-equivalence tests
        compare; use :meth:`to_array` for a canonical sorted view.
        """
        return self._members[row, : self._counts_mv[row]].copy()

    def to_array(self, row: int) -> np.ndarray:
        """Sorted copy of ``row``'s members."""
        return np.sort(self.packed_members(row))

    # -------------------------------------------------------------- bulk build

    def fill_from_masks(self, masks: np.ndarray) -> None:
        """Rebuild every row from an ``(n_sets, capacity)`` boolean mask.

        Equivalent to clearing and adding each row's true indices in
        increasing order (the insertion order of the scalar engines'
        ``recompute_all``), but fully vectorized: one ``nonzero`` plus a few
        scatters for the whole family, with no Python-per-index work.
        """
        masks = np.asarray(masks, dtype=bool)
        if masks.shape != (self._n_sets, self._capacity):
            raise ValueError(
                f"masks shape {masks.shape} does not match "
                f"({self._n_sets}, {self._capacity})"
            )
        rows, indices = np.nonzero(masks)
        counts = np.count_nonzero(masks, axis=1)
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        offsets = np.arange(rows.size, dtype=np.int64) - starts[rows]
        self._positions.fill(-1)
        self._members[rows, offsets] = indices
        self._positions[rows, indices] = offsets
        self._counts[:] = counts

    # ------------------------------------------------------------ ordered ops

    def apply_coded_ops(
        self,
        rows: list,
        indices: list,
        toggled: list,
        members: list,
        row_offset: int,
    ) -> None:
        """Paired membership updates driven by two-bit change/state codes.

        The fused flip kernel's hot path: for each position ``k``, bit ``b``
        of ``toggled[k]`` says whether the membership of ``indices[k]`` in
        row ``rows[k] + b * row_offset`` must be set to bit ``b`` of
        ``members[k]``.  Updates are applied in ``k`` order with bit 0 before
        bit 1 — the same interleaving as a pair of
        :meth:`IndexSampler.update_membership` calls per site — but one loop
        iteration handles both rows of a site, which halves the per-operation
        dispatch cost.
        """
        members_mv = self._members_mv
        positions_mv = self._positions_mv
        counts_mv = self._counts_mv
        capacity = self._capacity
        offset_base = row_offset * capacity
        for row, index, toggle, member in zip(rows, indices, toggled, members):
            base = row * capacity
            if toggle & 1:
                target = base + index
                position = positions_mv[target]
                if member & 1:
                    if position < 0:
                        count = counts_mv[row]
                        members_mv[base + count] = index
                        positions_mv[target] = count
                        counts_mv[row] = count + 1
                elif position >= 0:
                    count = counts_mv[row] - 1
                    counts_mv[row] = count
                    last = members_mv[base + count]
                    members_mv[base + position] = last
                    positions_mv[base + last] = position
                    positions_mv[target] = -1
            if toggle & 2:
                pair_row = row + row_offset
                pair_base = base + offset_base
                target = pair_base + index
                position = positions_mv[target]
                if member & 2:
                    if position < 0:
                        count = counts_mv[pair_row]
                        members_mv[pair_base + count] = index
                        positions_mv[target] = count
                        counts_mv[pair_row] = count + 1
                elif position >= 0:
                    count = counts_mv[pair_row] - 1
                    counts_mv[pair_row] = count
                    last = members_mv[pair_base + count]
                    members_mv[pair_base + position] = last
                    positions_mv[pair_base + last] = position
                    positions_mv[target] = -1
