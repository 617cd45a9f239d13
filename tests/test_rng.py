import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detsched.rng import _pcg64_states, block_uniforms, substream

# word boundaries of the entropy (one to five 32-bit words; five leave no
# zero padding) and of the spawn key (one to three words)
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**62 - 1, 2**64 - 1, 2**64, 2**96 - 1, 2**96,
              2**128 - 1, 2**128, 2**160 + 2**31, np.uint64(2**64 - 1)]
EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5]


def _reference(seed, key):
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def _random_int(rng, max_bits):
    """Random integer of a random bit length up to max_bits (at most 256)."""
    return int.from_bytes(rng.bytes(32), "little") >> (256 - int(rng.integers(0, max_bits + 1)))


def test_block_seeding_matches_seed_sequence_bit_for_bit():
    # 50 seeds x 2000 keys: the full PCG64 state and the first draws of
    # every (seed, key) pair equal numpy's own derivation; a seed's keys
    # mix word counts within one call
    rng = np.random.default_rng(2024)
    seeds = EDGE_SEEDS + [_random_int(rng, 200) for _ in range(50 - len(EDGE_SEEDS))]
    width = 4
    pairs = 0
    for s, seed in enumerate(seeds):
        base = [0, 2**32 - 900, 2**64 - 900][s % 3]
        keys = (EDGE_KEYS + list(range(base, base + 1800))
                + [_random_int(rng, 100) for _ in range(200 - len(EDGE_KEYS))])
        refs = [_reference(seed, key) for key in keys]
        (s_hi, s_lo), (i_hi, i_lo) = _pcg64_states(seed, keys)
        states = [{"bit_generator": "PCG64",
                   "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
                   "has_uint32": 0, "uinteger": 0}
                  for sh, sl, ih, il in zip(*(a.tolist() for a in (s_hi, s_lo, i_hi, i_lo)))]
        assert states == [ref.state for ref in refs]
        draws = np.array([np.random.Generator(ref).random(width) for ref in refs])
        assert np.array_equal(block_uniforms(seed, keys, width), draws)
        pairs += len(keys)
    assert pairs >= 100_000


def test_block_uniforms_rows_are_substreams():
    # full rows at coverage widths, numpy integer keys, empty and
    # one-row blocks
    for seed in (7, 2**64 + 3):
        for width in (3, 24, 1020):
            keys = np.arange(2**32 - 3, 2**32 + 3, dtype=np.uint64)
            got = block_uniforms(seed, keys, width)
            assert got.shape == (len(keys), width)
            for row, key in zip(got, keys):
                assert np.array_equal(row, substream(seed, key).random(width))
    assert np.array_equal(block_uniforms(5, [9], 6)[0], substream(5, 9).random(6))
    assert block_uniforms(5, range(0), 6).shape == (0, 6)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**200 - 1),
       keys=st.lists(st.integers(0, 2**100 - 1), min_size=1, max_size=6),
       width=st.integers(1, 1100))
def test_block_uniforms_stream_contract(seed, keys, width):
    # every row is its substream's leading uniforms, whatever the word
    # counts of seed and key and however the width cuts into chunks
    got = block_uniforms(seed, keys, width)
    assert got.shape == (len(keys), width)
    for row, key in zip(got, keys):
        assert np.array_equal(row, substream(seed, key).random(width))


def test_one_row_width_one_blocks_at_word_edges():
    # single uint64 elements run through the 128-bit arithmetic, with keys
    # up to 2**64 - 1; RuntimeWarnings are errors here, so a uint64 scalar
    # overflow would fail the test
    for seed in EDGE_SEEDS:
        for key in EDGE_KEYS + [np.uint64(2**64 - 1)]:
            got = block_uniforms(seed, [key], 1)
            assert got.shape == (1, 1)
            assert got[0, 0] == substream(seed, key).random()


@pytest.mark.parametrize("seed, keys", [(-1, [0]), (1, [3, -2])])
def test_block_uniforms_rejects_negative_entropy(seed, keys):
    with pytest.raises(ValueError):
        block_uniforms(seed, keys, 2)
