"""Named random streams derived from one master seed.

Every randomized entry point in the package draws from a stream named
after its role ("flag.layout", "breakdown.trials", ...). Streams with
different names are statistically independent, and the same master seed
always reproduces the same draws in every stream, regardless of the
order in which streams are consumed.

A stream is the SeedSequence with the master seed as entropy and the
stream name's sha256, as four little-endian 64-bit words, as spawn key.
It is built from the one uint32 entropy array that SeedSequence would
assemble from those two, which gives the same state at about three quarters
of the cost.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads one: its little-endian
    uint32 words, with [0] for 0."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError("seed must be integer")
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _spawn_key(stream: str) -> tuple[int, ...]:
    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    # Four 8-byte words; SeedSequence accepts arbitrary-length spawn keys.
    return tuple(int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8))


def _entropy(master_seed: int, spawn_key: tuple[int, ...]) -> np.ndarray:
    """The uint32 array SeedSequence(entropy=master_seed, spawn_key=spawn_key)
    assembles: the master seed's words, zero-padded to the pool size of 4,
    then each key int's words."""
    entropy = _words(master_seed)
    entropy += [0] * (4 - len(entropy))
    for key in spawn_key:
        entropy += _words(key)
    return np.array(entropy, dtype=np.uint32)


def _sequence(master_seed: int, stream: str) -> np.random.SeedSequence:
    return np.random.SeedSequence(_entropy(master_seed, _spawn_key(stream)))


def stream_rng(master_seed: int, stream: str) -> np.random.Generator:
    """Generator for the named stream under the given master seed."""
    return np.random.default_rng(_sequence(master_seed, stream))


def stream_seed(master_seed: int, stream: str) -> int:
    """A derived 63-bit integer seed for APIs that take a plain seed."""
    return int(_sequence(master_seed, stream).generate_state(1, np.uint64)[0] >> np.uint64(1))
