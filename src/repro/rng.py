"""Random number generator plumbing.

Every stochastic component of the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh entropy).  The helpers
here normalise those inputs and derive independent child generators for
replicate experiments so that replicates never share streams.

A replica's dynamics ``Generator`` is its whole stream: both flip-loop
backends draw through it, the compiled one through its bit generator's C
interface, so no draw is buffered anywhere else.
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
