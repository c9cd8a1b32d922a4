"""Deterministic, collision-free random stream derivation.

Every consumer of randomness in a run gets its own counter-based stream,
keyed by a structured tuple (stream kind, particle index, cycle, ...), so
adding realizations in one place never shifts the noise anywhere else.
The truth stream carries no filter code: paired comparisons across filters
rely on identical truths and observations.

A run needs a stream per particle (its propagation noise) and the
control solves one per particle and subinterval, so their Philox keys are
derived in a batch: child_keys runs numpy's SeedSequence mixing on uint32
arrays, for every sequence and child index at once, and key_generator
seeds a Philox with one of those keys directly.  The sequences it reads
need not be built: a StreamKey (stream_key) carries the entropy and spawn
key of one without mixing its pool.  The streams are the ones
child_sequence and stream_generator give, bit for bit; those two stay the
reference.  A key_generator generator holds no SeedSequence, so it cannot
``spawn``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# stream kinds
TRUTH = 0
INIT = 1
PROPAGATION = 2
RESAMPLE = 3
CONTROL = 4

FILTER_CODES = {"pf": 0, "npf": 1, "var_npf": 2}

# numpy's SeedSequence constants: a pool of four uint32 words, the hash
# for mixing words into it (INIT_A, MULT_A) and for reading state out of
# it (INIT_B, MULT_B), and the mixing function's multipliers
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# the readout hash of the pool's four words, INIT_B * MULT_B**i mod 2**32
_READOUT = np.array(
    [INIT_B * MULT_B**i & 0xFFFFFFFF for i in range(POOL_SIZE + 1)],
    dtype=np.uint32,
)


def stream_sequence(base_seed: int, *key: int) -> np.random.SeedSequence:
    """Child sequence for a structured key; stateless and order-free."""
    return np.random.SeedSequence(
        entropy=int(base_seed), spawn_key=tuple(int(k) for k in key)
    )


class StreamKey(NamedTuple):
    """The entropy and spawn key of a SeedSequence, unbuilt: all that
    child_keys and child_sequence read of one."""

    entropy: int
    spawn_key: tuple[int, ...]


# what child_keys and child_sequence take
KeySource = StreamKey | np.random.SeedSequence


def stream_key(base_seed: int, *key: int) -> StreamKey:
    """The key of ``stream_sequence(base_seed, *key)``, for child_keys."""
    return StreamKey(int(base_seed), tuple(int(k) for k in key))


def child_sequence(seq: KeySource, *key: int) -> np.random.SeedSequence:
    """Extend a sequence's key without mutating spawn state."""
    return np.random.SeedSequence(
        entropy=seq.entropy,
        spawn_key=tuple(seq.spawn_key) + tuple(int(k) for k in key),
    )


def stream_generator(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=seq))


def _words(value: int) -> list[int]:
    """A non-negative integer's little-endian uint32 words; 0 gives [0]."""
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


@lru_cache(maxsize=64)
def _hash_constants(n: int) -> np.ndarray:
    """h_0 .. h_n of the mixing hash, h_k = INIT_A * MULT_A**k mod 2**32;
    the k-th hash of a word xors h_k in and multiplies by h_(k+1)."""
    h = [INIT_A]
    for _ in range(n):
        h.append(h[-1] * MULT_A & 0xFFFFFFFF)
    out = np.array(h, dtype=np.uint32)
    out.flags.writeable = False
    return out


def _hashmix(v: np.ndarray, h_in: np.ndarray, h_out: np.ndarray) -> np.ndarray:
    v = (v ^ h_in) * h_out
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = MIX_L * x - MIX_R * y
    return r ^ (r >> 16)


def _absorb(pool: np.ndarray, words: np.ndarray, k: int):
    """Mix words (..., n) in turn into every entry of pool (..., 4), each
    word hashed once per entry, from the k-th hash on; returns the pool and
    the next hash index."""
    n = words.shape[-1]
    h = _hash_constants(k + POOL_SIZE * n)
    hashed = _hashmix(
        words[..., None],
        h[k : k + POOL_SIZE * n].reshape(n, POOL_SIZE),
        h[k + 1 : k + POOL_SIZE * n + 1].reshape(n, POOL_SIZE),
    )
    for t in range(n):
        pool = _mix(pool, hashed[..., t, :])
    return pool, k + POOL_SIZE * n


@lru_cache(maxsize=64)
def _entropy_pool(entropy: int):
    """The (1, 4) pool of a sequence with this entropy and some spawn key,
    before the spawn key's words, and the next hash index; read-only."""
    words = _words(entropy)
    words += [0] * (POOL_SIZE - len(words))  # padded, as a spawn key follows
    h = _hash_constants(POOL_SIZE * POOL_SIZE)
    pool = _hashmix(
        np.array(words[:POOL_SIZE], dtype=np.uint32)[None],
        h[:POOL_SIZE], h[1 : POOL_SIZE + 1],
    )
    k = POOL_SIZE
    for s in range(POOL_SIZE):
        # entry s is read, not written, while it mixes into the others
        others = [i for i in range(POOL_SIZE) if i != s]
        m = len(others)
        pool[:, others] = _mix(
            pool[:, others],
            _hashmix(pool[:, s : s + 1], h[k : k + m], h[k + 1 : k + m + 1]),
        )
        k += m
    pool, k = _absorb(
        pool, np.array(words[POOL_SIZE:], dtype=np.uint32)[None], k
    )
    pool.flags.writeable = False
    return pool, k


def child_keys(seqs: Sequence[KeySource], count: int) -> np.ndarray:
    """Philox keys of children 0 .. count - 1 of each sequence.

    Entry [i, j] of the (len(seqs), count, 2) uint64 result equals
    ``child_sequence(seqs[i], j).generate_state(2, np.uint64)``, the key
    stream_generator seeds Philox with.  The entropy (an int, as
    stream_sequence and stream_key give) is mixed once per distinct value
    and kept, each spawn key across the sequences that share its word
    count, and the child index across all children at once.
    """
    keys = np.empty((len(seqs), count, 2), dtype=np.uint64)
    groups: dict = {}
    for i, seq in enumerate(seqs):
        spawn = [w for k in seq.spawn_key for w in _words(k)]
        rows, words = groups.setdefault((seq.entropy, len(spawn)), ([], []))
        rows.append(i)
        words.append(spawn)
    children = np.arange(count, dtype=np.uint32)[:, None]
    for (entropy, n_words), (rows, words) in groups.items():
        pool, k = _entropy_pool(entropy)
        words = np.array(words, dtype=np.uint32).reshape(len(rows), n_words)
        pool, k = _absorb(pool, words, k)
        pool, _ = _absorb(pool[:, None, :], children, k)
        state = _hashmix(pool, _READOUT[:-1], _READOUT[1:]).astype(np.uint64)
        keys[rows] = state[..., 0::2] | (state[..., 1::2] << np.uint64(32))
    return keys


class _Key(ISeedSequence):
    """A Philox key already derived, posing as the seed sequence that
    would derive it.  It gives only that key, so a generator seeded with
    it cannot spawn."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a _Key holds one Philox key, two uint64 words")
        return self.key


def key_generator(key: np.ndarray) -> np.random.Generator:
    """The generator of one child_keys entry: the same stream as
    ``stream_generator`` of the sequence that derives ``key``."""
    return np.random.Generator(np.random.Philox(seed=_Key(key)))
