import hashlib

import numpy as np
import pytest

from regionvote.seeding import _entropy, stream_rng, stream_seed


def test_streams_are_stable_and_distinct():
    a1 = stream_rng(7, "alpha").integers(0, 2**32, 8).tolist()
    a2 = stream_rng(7, "alpha").integers(0, 2**32, 8).tolist()
    b = stream_rng(7, "beta").integers(0, 2**32, 8).tolist()
    assert a1 == a2
    assert a1 != b


def test_streams_differ_by_master_seed():
    x = stream_rng(1, "alpha").integers(0, 2**32, 8).tolist()
    y = stream_rng(2, "alpha").integers(0, 2**32, 8).tolist()
    assert x != y


def test_stream_seed_fits_in_63_bits():
    for name in ("a", "b", "c"):
        s = stream_seed(123, name)
        assert 0 <= s < 2**63
    assert stream_seed(123, "a") == stream_seed(123, "a")
    assert stream_seed(123, "a") != stream_seed(123, "b")


def test_adding_streams_never_perturbs_others():
    before = stream_rng(5, "experiment.trials").integers(0, 1000, 4).tolist()
    stream_rng(5, "experiment.new_module").integers(0, 1000, 4)
    after = stream_rng(5, "experiment.trials").integers(0, 1000, 4).tolist()
    assert before == after


# Master seeds of one to five uint32 words; the last exceeds 2**128.
SEEDS = (0, 1, 2**32, 2**63 - 1, 2**130 + 12345)


def spawn_key_sequence(master_seed, stream):
    """A stream's SeedSequence as numpy assembles it from entropy and spawn key."""
    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    key = tuple(int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8))
    return np.random.SeedSequence(entropy=master_seed, spawn_key=key)


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_match_the_spawn_key_construction(seed):
    for name in ("alpha", "flag.layout.0", "flag.noise.4095", ""):
        seq = spawn_key_sequence(seed, name)
        expected = np.random.default_rng(seq).integers(0, 2**63, 8).tolist()
        assert stream_rng(seed, name).integers(0, 2**63, 8).tolist() == expected
        assert stream_seed(seed, name) == int(seq.generate_state(1, np.uint64)[0] >> np.uint64(1))


@pytest.mark.parametrize(
    "key",
    [(5, 2**40), (0, 0, 0, 0), (2**32, 7, 2**64 - 1, 2**32 - 1), (1 << 63, 0, 3, 1 << 32)],
)
def test_entropy_matches_seed_sequence_for_keys_with_zero_high_words(key):
    for seed in SEEDS:
        ours = np.random.SeedSequence(_entropy(seed, key))
        numpy_seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
        assert ours.pool.tolist() == numpy_seq.pool.tolist()
        assert ours.generate_state(8).tolist() == numpy_seq.generate_state(8).tolist()
    # A word below 2**32 is one uint32, not two; 0 is one zero word.
    assert _entropy(0, (5, 2**40)).tolist() == [0, 0, 0, 0, 5, 0, 256]


def test_negative_master_seed_is_refused():
    with pytest.raises(ValueError):
        stream_rng(-1, "alpha")
    with pytest.raises(ValueError):
        stream_seed(-1, "alpha")
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=-1)  # as the spawn-key construction did
