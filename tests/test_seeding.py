"""Batched stream keys against numpy's own SeedSequence.

child_keys re-implements SeedSequence's mixing on uint32 arrays, so a
numpy release that changed SeedSequence would fail here first, by name.
A run draws each particle's propagation increments once, over the whole
run, so a stream's one long draw must equal its draws cycle by cycle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varnpf.sde import sample_brownian_path
from varnpf.seeding import (
    CONTROL,
    PROPAGATION,
    StreamKey,
    child_keys,
    child_sequence,
    key_generator,
    stream_generator,
    stream_key,
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
        # the unbuilt keys, alone and mixed with the sequences
        keys = [StreamKey(e, tuple(k)) for e, k in rows]
        assert child_keys(keys, count).tobytes() == got.tobytes()
        mixed = [keys[i] if i % 2 else seqs[i] for i in range(len(seqs))]
        assert child_keys(mixed, count).tobytes() == got.tobytes()
        for key, seq in zip(keys, seqs):
            assert np.array_equal(
                child_sequence(key, count).generate_state(4),
                child_sequence(seq, count).generate_state(4),
            )

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

    def test_stream_key_is_the_sequence_key(self):
        key = stream_key(7, CONTROL, 2, 0, 1, 5, 3)
        seq = stream_sequence(7, CONTROL, 2, 0, 1, 5, 3)
        assert (key.entropy, key.spawn_key) == (seq.entropy, seq.spawn_key)
        assert child_keys([key], 4).tobytes() == child_keys(
            [seq], 4
        ).tobytes()

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


class TestWholeRunDraws:
    """One whole-run draw per particle equals its per-cycle draws."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64),
        st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                 max_size=6),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.01, 0.001, 0.25]),
    )
    def test_one_draw_is_the_cycles_draws(self, seed, spans, dim, dt):
        prefix = stream_key(seed, PROPAGATION, 3, 1)
        keys = child_keys([prefix], 3)[0]
        for i, key in enumerate(keys):
            whole = sample_brownian_path(key_generator(key), sum(spans), dim,
                                         dt)
            rng = stream_generator(stream_sequence(seed, PROPAGATION, 3, 1, i))
            cycles = np.concatenate([
                sample_brownian_path(rng, span, dim, dt) for span in spans
            ])
            assert whole.tobytes() == cycles.tobytes()
