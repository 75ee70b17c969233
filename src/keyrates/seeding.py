"""The streams of ``SeedSequence(seed).spawn(n)``, seeded in one array pass.

Spawning ``n`` children and seeding a PCG64 from each hashes ``n``
``SeedSequence`` objects one by one in Python. The children differ only
in their spawn key, so their PCG64 seeds are computed here for all of
them at once in ``uint32`` array arithmetic that reproduces NumPy's
``SeedSequence`` hashing, and NumPy then seeds each PCG64 from those
words. The streams are exactly NumPy's.

This module imports ``numpy.random``, so callers import it when they
first sample, not when ``keyrates`` is imported.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def child_seeds(seed: int, n: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each of ``SeedSequence(seed).spawn(n)``.

    A child's entropy is the parent's run entropy, zero-padded to the
    pool size, followed by its spawn key, one word for ``n <= 2**32``.
    NumPy mixes that word in last, so every child starts from the
    parent's pool and from the hash constant left after the run entropy,
    and only the last mixing round and ``generate_state`` depend on the
    child. Returns an ``(n, 4)`` array of ``uint64`` words.
    """
    root = np.random.SeedSequence(seed)
    pool_size = root.pool_size
    run_words = max(-(-operator.index(seed).bit_length() // 32), pool_size)
    # mix_entropy's hashmix calls before the spawn word: one per pool
    # word, one per ordered pair of pool words, then one per pool word
    # for each run-entropy word beyond the pool.
    calls = pool_size * pool_size + pool_size * (run_words - pool_size)
    hash_a = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
    spawn_key = np.arange(n, dtype=np.uint32)
    pool = np.empty((pool_size, n), dtype=np.uint32)
    for word, parent in zip(pool, root.pool.tolist()):
        # hashmix(spawn_key), then mix(parent, that).
        mixed = spawn_key ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        mixed *= np.uint32(hash_a)
        mixed ^= mixed >> np.uint32(16)
        word[:] = np.uint32(_MIX_MULT_L * parent & _MASK32) - np.uint32(_MIX_MULT_R) * mixed
        word ^= word >> np.uint32(16)
    # generate_state: 8 uint32 words cycling over the pool, read as 4
    # little-endian uint64 words.
    state = np.empty((n, 8), dtype=np.uint32)
    hash_b = _INIT_B
    for i in range(8):
        word = pool[i % pool_size] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        word *= np.uint32(hash_b)
        word ^= word >> np.uint32(16)
        state[:, i] = word
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _ChildSeed(ISeedSequence):
    """Hands PCG64 the precomputed ``generate_state(4, np.uint64)`` of one child."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def spawned_generators(seed: int, n: int):
    """A ``Generator`` on the stream of each of ``SeedSequence(seed).spawn(n)``,
    in order; ``n`` must be at most ``2**32``."""
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    for words in child_seeds(seed, n):
        yield Generator(PCG64(_ChildSeed(words)))
