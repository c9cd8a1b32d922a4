"""Batched control keys against numpy's own SeedSequence.

child_keys re-implements SeedSequence's mixing on uint32 arrays, so a
numpy release that changed SeedSequence would fail here first, by name.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varnpf.seeding import (
    CONTROL,
    child_keys,
    child_sequence,
    key_generator,
    stream_generator,
    stream_sequence,
)

entropies = st.integers(min_value=0, max_value=2**128)
# spawn-key entries of one to three uint32 words
spawn_keys = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2**32, max_value=2**96),
    ),
    min_size=0, max_size=8,
)


def reference_key(seq, j):
    return child_sequence(seq, j).generate_state(2, np.uint64)


class TestChildKeys:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(entropies, spawn_keys), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=6),
    )
    def test_equal_to_seed_sequence(self, rows, count):
        # rows of different entropies and spawn-key word counts in one call
        seqs = [np.random.SeedSequence(entropy=e, spawn_key=tuple(k))
                for e, k in rows]
        got = child_keys(seqs, count)
        assert got.shape == (len(seqs), count, 2)
        assert got.dtype == np.uint64
        for i, seq in enumerate(seqs):
            for j in range(count):
                assert np.array_equal(got[i, j], reference_key(seq, j))

    def test_edge_words(self):
        # zero entropy, entropy of exactly four and five words, an empty
        # spawn key and a zero in it, each word at its largest
        seqs = [
            np.random.SeedSequence(entropy=e, spawn_key=k)
            for e in (0, 2**128 - 1, 2**128)
            for k in ((), (0,), (2**32 - 1, 2**32, 0))
        ]
        got = child_keys(seqs, 3)
        for i, seq in enumerate(seqs):
            for j in range(3):
                assert np.array_equal(got[i, j], reference_key(seq, j))

    def test_no_sequences_or_children(self):
        seq = stream_sequence(0, CONTROL, 1)
        assert child_keys([], 4).shape == (0, 4, 2)
        assert child_keys([seq], 0).shape == (1, 0, 2)


class TestKeyGenerator:
    def test_draws_as_the_sequence_generator(self):
        seqs = [stream_sequence(5, CONTROL, 1, 0, 2, 3, i) for i in range(4)]
        keys = child_keys(seqs, 5)
        for i, j in [(0, 0), (3, 4), (2, 1)]:
            got = key_generator(keys[i, j]).normal(size=1000)
            want = stream_generator(child_sequence(seqs[i], j)).normal(
                size=1000
            )
            assert got.tobytes() == want.tobytes()

    def test_state_rewind_replays_the_draws(self):
        # the control solves rewind a generator to a saved state
        rng = key_generator(child_keys([stream_sequence(9, CONTROL)], 1)[0, 0])
        rng.normal(size=7)
        mark = rng.bit_generator.state
        first = rng.normal(size=(2, 5, 3))
        rng.normal(size=11)
        rng.bit_generator.state = mark
        assert rng.normal(size=(2, 5, 3)).tobytes() == first.tobytes()

    def test_cannot_spawn(self):
        rng = key_generator(child_keys([stream_sequence(9, CONTROL)], 1)[0, 0])
        with pytest.raises(TypeError):
            rng.spawn(1)
