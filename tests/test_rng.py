"""Tests for the random number generator plumbing."""

import numpy as np
import pytest

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


class TestZigguratTables:
    def test_tables_verify_against_live_draws(self):
        from repro.rng import _verify_ziggurat_tables, ziggurat_exponential_tables

        tables = ziggurat_exponential_tables()
        assert tables[0].shape == (256,)
        assert tables[1].shape == (256,)
        assert _verify_ziggurat_tables(tables)

    def test_corrupted_tables_fail_verification(self):
        from repro.rng import _verify_ziggurat_tables, ziggurat_exponential_tables

        we, ke = ziggurat_exponential_tables()
        corrupted = (we.copy(), ke.copy())
        corrupted[1][:] = 0  # force everything onto the (wrong) slow path
        assert not _verify_ziggurat_tables(corrupted)


class TestPcg64StateAfter:
    def test_matches_bit_generator_advance(self):
        from repro.rng import pcg64_state_after

        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        expected = np.random.Generator(np.random.PCG64())
        expected.bit_generator.state = state
        expected.bit_generator.advance(123)
        advanced = pcg64_state_after(
            state["state"]["state"], state["state"]["inc"], 123
        )
        assert advanced == expected.bit_generator.state["state"]["state"]


def _interleaved_reference(seeds, script):
    """Replay a draw script through per-replica scalar Generator calls."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    out = []
    for kind, replica, high in script:
        if kind == "exp":
            out.append(rngs[replica].standard_exponential())
        else:
            out.append(int(rngs[replica].integers(0, high)))
    return out, [rng.bit_generator.state for rng in rngs]


class TestBlockedReplicaStreams:
    """The blocked streams must replicate scalar Generator draws bitwise."""

    SEEDS = [101, 202, 303]

    def _script(self, n_steps=400, seed=0):
        rng = np.random.default_rng(seed)
        script = []
        for _ in range(n_steps):
            replica = int(rng.integers(0, len(self.SEEDS)))
            if rng.random() < 0.6:
                script.append(("exp", replica, 0))
            script.append(("int", replica, int(rng.integers(1, 50_000))))
        return script

    @pytest.mark.parametrize("block_words", [1, 2, 3, 64, 4096])
    def test_bitwise_equal_to_scalar_draws(self, block_words):
        """Boundary block sizes: one-word blocks force a refill per draw,
        larger ones exercise exact exhaustion and mid-block hand-offs."""
        from repro.rng import BlockedReplicaStreams

        streams = BlockedReplicaStreams(
            [np.random.default_rng(seed) for seed in self.SEEDS],
            block_words=block_words,
        )
        script = self._script()
        expected, _ = _interleaved_reference(self.SEEDS, script)
        for step, (kind, replica, high) in enumerate(script):
            if kind == "exp":
                got = streams.standard_exponential(replica)
            else:
                got = streams.bounded_integer(replica, high)
            assert got == expected[step], (block_words, step, kind)

    def test_exact_exhaustion_boundary(self):
        """A block consumed exactly to its end refills with zero overrun."""
        from repro.rng import BlockedReplicaStreams, _pcg64_value, pcg64_state_after

        streams = BlockedReplicaStreams(
            [np.random.default_rng(1)], block_words=4
        )
        reference = np.random.default_rng(1)
        bases = set()

        def draw():
            got = streams.bounded_integer(0, 2**31)
            assert got == int(reference.integers(0, 2**31))
            bases.add(_pcg64_value(streams._base[0]))

        # high=2**32 would leave the 32-bit path; large highs below it
        # consume exactly one 32-bit half-word per draw -> 8 draws per block.
        for _ in range(16):
            draw()
        # 8 words: exactly two 4-word blocks, the second used to its last
        # word, no half-word left over, and the stream where the scalar
        # generator's is.
        expected = reference.bit_generator.state
        assert streams._pos[0] == 4
        assert not streams._has32[0]
        assert not expected["has_uint32"]
        assert len(bases) == 2
        assert _pcg64_value(streams._state[0]) == expected["state"]["state"]
        # One more draw opens a third block and takes its first word.
        draw()
        assert streams._pos[0] == 1
        assert len(bases) == 3
        assert _pcg64_value(streams._base[0]) == expected["state"]["state"]
        logical = pcg64_state_after(
            _pcg64_value(streams._base[0]),
            _pcg64_value(streams._inc[0]),
            int(streams._pos[0]),
        )
        assert logical == reference.bit_generator.state["state"]["state"]

    def test_high_of_one_consumes_nothing(self):
        from repro.rng import BlockedReplicaStreams

        streams = BlockedReplicaStreams([np.random.default_rng(3)])
        reference = np.random.default_rng(3)
        assert streams.bounded_integer(0, 1) == 0
        # The next draw still matches the scalar stream: integers(0, 1)
        # consumed no words there either.
        assert int(reference.integers(0, 1)) == 0
        assert streams.bounded_integer(0, 1000) == int(reference.integers(0, 1000))

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
            BlockedReplicaStreams([])
