"""Tests for the random number generator plumbing."""

import numpy as np
import pytest

from oracles import pcg64_state_after
from repro.rng import (
    choice_without_replacement,
    ensure_distinct,
    make_rng,
    replicate_seeds,
    spawn_rngs,
)


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = make_rng(7).integers(0, 1000, size=5)
        b = make_rng(7).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(42)
        rng = make_rng(sequence)
        assert isinstance(rng, np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(0, 2)
        a = children[0].integers(0, 10**9, size=8)
        b = children[1].integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        a = [rng.integers(0, 10**9) for rng in spawn_rngs(3, 4)]
        b = [rng.integers(0, 10**9) for rng in spawn_rngs(3, 4)]
        assert a == b

    def test_spawn_from_generator(self):
        parent = np.random.default_rng(1)
        children = spawn_rngs(parent, 3)
        assert len(children) == 3


class TestReplicateSeeds:
    def test_distinct_and_deterministic(self):
        seeds = replicate_seeds(11, 10)
        assert len(seeds) == 10
        assert len(set(seeds)) == 10
        assert seeds == replicate_seeds(11, 10)

    def test_ensure_distinct_passes(self):
        ensure_distinct([1, 2, 3])

    def test_ensure_distinct_raises(self):
        with pytest.raises(ValueError):
            ensure_distinct([1, 2, 2])


class TestChoiceWithoutReplacement:
    def test_distinct_sample(self, rng):
        sample = choice_without_replacement(rng, range(100), 20)
        assert len(sample) == 20
        assert len(set(sample.tolist())) == 20

    def test_too_large_request_rejected(self, rng):
        with pytest.raises(ValueError):
            choice_without_replacement(rng, range(5), 6)


class TestPcg64StateAfter:
    """The stream-position oracle in ``tests/oracles.py`` is ``PCG64.advance``."""

    def test_matches_bit_generator_advance(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        expected = np.random.Generator(np.random.PCG64())
        expected.bit_generator.state = state
        expected.bit_generator.advance(123)
        advanced = pcg64_state_after(
            state["state"]["state"], state["state"]["inc"], 123
        )
        assert advanced == expected.bit_generator.state["state"]["state"]


class TestBlockedReplicaStreams:
    """The compiled loop's word buffer accepts only what it can serve."""

    def test_rejects_non_pcg64_generators(self):
        from repro.rng import BlockedReplicaStreams

        bad = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError):
            BlockedReplicaStreams([bad])

    def test_rejects_bad_block_words(self):
        from repro.rng import BlockedReplicaStreams

        with pytest.raises(ValueError):
            BlockedReplicaStreams([np.random.default_rng(0)], block_words=0)
        with pytest.raises(ValueError):
            BlockedReplicaStreams([np.random.default_rng(0)], block_words=0.5)
        with pytest.raises(ValueError):
            BlockedReplicaStreams([])
