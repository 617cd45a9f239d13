import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detsched.rng import (_advance, _fill, _jumps, _key_words, _pcg64_states, _starts,
                          block_uniforms, substream)

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
    # wide fills: at width 999, 31 later chunks of 32; at width 6000, 76
    # later chunks of 78
    for rows, width in ((17, 999), (3, 6000)):
        got = block_uniforms(11, range(rows), width)
        for key, row in enumerate(got):
            assert np.array_equal(row, substream(11, key).random(width))


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


def _state_dicts(state, inc):
    """PCG64 ``bit_generator.state`` dicts of (high, low) word arrays."""
    return [{"bit_generator": "PCG64",
             "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
             "has_uint32": 0, "uinteger": 0}
            for sh, sl, ih, il in zip(*(a.tolist() for a in (*state, *inc)))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**160 - 1),
       keys=st.lists(st.tuples(st.integers(0, 2**160 - 1), st.integers(0, 40),
                               st.integers(-1, 1), st.booleans()),
                     min_size=1, max_size=4),
       width=st.integers(1, 1100))
def test_advance_and_fill_stream_contract(seed, keys, width):
    # seeds and keys of one to five words; each state jumps by its own
    # count c, often a multiple of the width's chunk length b (or one off
    # it), sometimes 0: the advanced state is the substream's after c
    # doubles, and _fill from it gives that generator's next doubles
    b = _jumps(width)[0]
    steps = np.array([max(0, m * b + off) if jump else 0 for _, m, off, jump in keys])
    keys = [key for key, *_ in keys]
    state, inc = _pcg64_states(seed, keys)
    seeded = _state_dicts(state, inc)
    moved = _advance(state, inc, steps)
    assert _state_dicts(state, inc) == seeded
    gens = [substream(seed, key) for key in keys]
    for g, c in zip(gens, steps.tolist()):
        g.random(c)
    advanced = _state_dicts(moved, inc)
    assert advanced == [g.bit_generator.state for g in gens]
    got = _fill(moved, inc, width)
    assert _state_dicts(moved, inc) == advanced
    assert got.shape == (len(keys), width)
    for row, g in zip(got, gens):
        assert np.array_equal(row, g.random(width))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**160 - 1),
       keys=st.lists(st.tuples(st.integers(0, 2**100 - 1), st.integers(0, 1100)),
                     min_size=1, max_size=4),
       stride=st.integers(1, 1100))
def test_advance_by_strides_matches_pcg64_advance(seed, keys, stride):
    # a fill of width ``stride`` at row offsets c gives each stream's
    # doubles after c strides, a million draws and more on, its first chunk
    # one jump from the seeded state from a table of one chunk's jumps per
    # row; the seeded states do not move.  The table is cleared after each
    # example, which would otherwise keep one per stride
    rows = np.array([c for _, c in keys])
    keys = [key for key, _ in keys]
    state, inc = _pcg64_states(seed, keys)
    seeded = _state_dicts(state, inc)
    got = _fill(state, inc, stride, rows)
    assert _state_dicts(state, inc) == seeded
    assert got.shape == (len(keys), stride)
    for row, key, c in zip(got, keys, rows.tolist()):
        ref = _reference(seed, key)
        ref.advance(c * stride)
        assert np.array_equal(row, np.random.Generator(ref).random(stride))
    _starts.cache_clear()


def test_range_keys_take_the_uint64_path():
    # ranges within [0, 2^63) are split into words as uint64 arrays, others
    # as Python ints; both seed the same states as the keys in a list
    cases = [(range(0), np.uint64), (range(5, 5), np.uint64), (range(7), np.uint64),
             (range(2**32 - 3, 2**32 + 3), np.uint64), (range(2**32 + 9, 2**32 - 9, -4), np.uint64),
             (range(2**63 - 4, 2**63 - 1), np.uint64), (range(2**63 - 4, 2**63 + 2), object),
             (range(2**63, 2**63 + 3), object), (range(2**64 - 2, 2**64 + 2), object),
             (range(2**70, 2**70), np.uint64)]
    for keys, dtype in cases:
        assert _key_words(keys).dtype == dtype
        for seed in (3, 2**130 + 1):
            got = _state_dicts(*_pcg64_states(seed, keys))
            assert got == _state_dicts(*_pcg64_states(seed, list(keys)))
            assert got == [_reference(seed, k).state for k in keys]


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
