"""Random number generator plumbing.

Every stochastic component of the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh entropy).  The helpers
here normalise those inputs and derive independent child generators for
replicate experiments so that replicates never share streams.

The second half of the module holds the word buffer of the compiled flip
loop: :class:`BlockedReplicaStreams` keeps each replica's PCG64 raw-word
stream in pre-drawn blocks that the C kernel reads and refills, running
numpy's own sampler on those words so that every draw is bitwise the
replica's ``Generator`` draw.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

#: Anything accepted as a source of randomness by the public API.
SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``Generator`` instances are passed through unchanged so that callers can
    share a stream deliberately; integers and ``SeedSequence`` objects create
    a fresh PCG64 generator; ``None`` draws fresh OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    The derivation uses :meth:`numpy.random.SeedSequence.spawn`, which
    guarantees non-overlapping streams.  When ``seed`` is already a
    ``Generator`` the child sequences are drawn from it instead, which keeps
    the call reproducible for a fixed parent state.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        child_seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    if isinstance(seed, np.random.SeedSequence):
        sequence = seed
    else:
        sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def replicate_seeds(seed: SeedLike, count: int) -> list[int]:
    """Return ``count`` reproducible integer seeds derived from ``seed``.

    Useful when replicate descriptions need to be serialisable (e.g. stored in
    a result table) rather than carrying generator objects around.
    """
    rngs = spawn_rngs(seed, count)
    return [int(rng.integers(0, 2**31 - 1)) for rng in rngs]


def ensure_distinct(seeds: Sequence[int]) -> None:
    """Raise ``ValueError`` if ``seeds`` contains duplicates.

    Experiment specs call this to guard against accidentally launching
    replicates that would produce identical trajectories.
    """
    if len(set(seeds)) != len(seeds):
        raise ValueError("replicate seeds must be distinct")


def choice_without_replacement(
    rng: np.random.Generator, population: Iterable[int], size: int
) -> np.ndarray:
    """Sample ``size`` distinct elements from ``population``.

    Thin wrapper that materialises the population once and validates the
    request, used by the Kawasaki swapper and the planted-configuration
    generators.
    """
    items = np.asarray(list(population))
    if size > items.size:
        raise ValueError(
            f"cannot sample {size} distinct items from a population of {items.size}"
        )
    return rng.choice(items, size=size, replace=False)


# --------------------------------------------------------------------------
# Blocked replica streams
#
# numpy's scalar draws are thin wrappers over a PCG64 64-bit word stream:
# ``Generator.exponential(scale)`` is ``scale * standard_exponential()``
# (Marsaglia-Tsang ziggurat sampling over 64-bit words), and
# ``Generator.integers(0, n)`` for ``n <= 2**32`` is Lemire's bounded sampler
# over a *32-bit* sub-stream, which PCG64 serves by splitting each word into
# a low half (served first) and a buffered high half.  The compiled flip loop
# reproduces both on a pre-drawn block of the replica's words.
# --------------------------------------------------------------------------

#: The 128-bit LCG multiplier of numpy's PCG64 bit generator.
PCG64_MULTIPLIER = 47026247687942121848144207491837523525
_U64_MASK = (1 << 64) - 1


def _pcg64_pair(value: int) -> tuple[int, int]:
    """A 128-bit PCG64 quantity as its ``(low, high)`` 64-bit words."""
    return value & _U64_MASK, value >> 64


def _pcg64_value(pair: np.ndarray) -> int:
    """The 128-bit PCG64 quantity stored as a ``(low, high)`` uint64 pair."""
    return int(pair[0]) | (int(pair[1]) << 64)


class BlockedReplicaStreams:
    """Per-replica PCG64 word blocks, the compiled flip loop's RNG buffer.

    Starts from the state of one :class:`numpy.random.Generator` per replica
    and keeps its stream as a block of pre-drawn raw 64-bit words plus a
    read position, in arrays the C kernel (``core/backends/cffi_backend.py``)
    points into:

    * ``_words`` — the ``(n_streams, block_words)`` current blocks;
    * ``_pos`` — the next unread word; ``block_words`` means the block is
      used up, which is where every stream starts;
    * ``_has32`` / ``_buf32`` — PCG64's half-word buffer for 32-bit draws,
      which survives interleaved 64-bit draws;
    * ``_state``, ``_inc`` and ``_base`` — ``(n_streams, 2)`` uint64 arrays
      of ``(low, high)`` words: the LCG state after the block's last word,
      the stream increment, and the state the block started from.

    Only C reads and refills them.  Its ``next_word`` is the one word
    reader; at a block end it steps PCG64 itself to draw the next block,
    and it runs numpy's own ``random_standard_exponential`` on those words,
    so every value is bitwise the replica's scalar ``Generator`` draw.  A
    stream position reaches its block end but never passes it.

    The generators handed in are read once, at construction, and never
    advanced here.  The numpy backend leaves these arrays alone and draws
    through the generators themselves; an engine's backend is fixed when it
    is built, so a replica's stream position lives in exactly one place:
    the generator on a numpy engine, these arrays on a cffi engine.

    ``block_words`` tunes the refill granularity; correctness does not
    depend on it (the C sampler tests run it down to one word per block).
    """

    def __init__(
        self, rngs: Sequence[np.random.Generator], block_words: int = 4096
    ) -> None:
        if block_words <= 0:
            raise ValueError(f"block_words must be positive, got {block_words}")
        n_streams = len(rngs)
        if n_streams == 0:
            raise ValueError("BlockedReplicaStreams needs at least one generator")
        self._block_words = int(block_words)
        self._words = np.zeros((n_streams, self._block_words), dtype=np.uint64)
        self._pos = np.full(n_streams, self._block_words, dtype=np.int64)
        self._state = np.zeros((n_streams, 2), dtype=np.uint64)
        self._inc = np.zeros((n_streams, 2), dtype=np.uint64)
        self._has32 = np.zeros(n_streams, dtype=bool)
        self._buf32 = np.zeros(n_streams, dtype=np.uint64)
        for index, rng in enumerate(rngs):
            state = rng.bit_generator.state
            if state.get("bit_generator") != "PCG64":
                raise ValueError(
                    "BlockedReplicaStreams requires PCG64 generators, got "
                    f"{state.get('bit_generator')!r}"
                )
            self._state[index] = _pcg64_pair(state["state"]["state"])
            self._inc[index] = _pcg64_pair(state["state"]["inc"])
            self._has32[index] = bool(state["has_uint32"])
            self._buf32[index] = state["uinteger"]
        self._base = self._state.copy()

    @property
    def n_streams(self) -> int:
        """Number of wrapped per-replica streams."""
        return self._pos.size

    @property
    def block_words(self) -> int:
        """Words pre-drawn per refill."""
        return self._block_words
