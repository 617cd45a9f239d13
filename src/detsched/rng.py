"""Deterministic random-stream derivation.

All simulation randomness flows through numpy Generators built here.  A run
is keyed by one integer seed; independent work items (replications, sample
draws) each get their own substream derived from (seed, index) alone, so
results never depend on execution order or worker count.

Stream contract, which cross-language reimplementations must match:

* substream(seed, k) is ``Generator(PCG64(SeedSequence(entropy=seed,
  spawn_key=(k,))))``.
* One scheduling draw consumes ``n`` uniforms for the eigenvector coin
  flips (in eigenvalue order as returned by the decomposition) and then
  one uniform per selected point.
* A coverage replication consumes its scheduling draw first, then an
  n-by-n block of uniforms, row major, mapped to fading through
  ``fading = -mean * log1p(-u)``.  It may draw further uniforms past that
  block; they are never read.

``substream`` is the definition.  ``block_uniforms`` fills many substreams'
leading uniforms at once by repeating numpy's SeedSequence hash in
arithmetic: the seed's share of the hash once, the keys' share as uint32
array operations over the whole block, and the PCG64 seeding step in
Python ints written into one reused generator.  Tests pin it to
``substream`` bit for bit, generator states included.
"""

import itertools

import numpy as np

_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# numpy's SeedSequence hash constants (pool of 4 words) and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for work item ``index`` of the run seeded with ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def _hashmix(value, h, mult=_MULT_A):
    """SeedSequence's hash step on ints or broadcast uint32 arrays; returns
    the hashed value and the next hash constant."""
    value = value ^ h
    h = (h * mult) & _MASK32
    value = (value * h) & _MASK32
    return value ^ (value >> 16), h


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _constants(h, mult, k):
    """Column of the k consecutive hash constants h, h*mult, h*mult^2, ..."""
    return np.array([h * pow(mult, t, 1 << 32) & _MASK32 for t in range(k)],
                    dtype=np.uint32)[:, None]


def _pcg64_states(seed: int, keys) -> list:
    """``substream(seed, key).bit_generator.state["state"]`` for each key."""
    seed = int(seed)
    rest = np.array([int(k) for k in keys], dtype=object)
    if seed < 0 or (len(rest) and rest.min() < 0):
        raise ValueError("seed and keys must be nonnegative")
    # the seed's words, zero-padded to the pool size, fill the pool, which
    # is then mixed with itself; its words past the fourth are mixed in
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool, h = [], _INIT_A
    for w in words[:4]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src, dst in itertools.permutations(range(4), 2):
        v, h = _hashmix(pool[src], h)
        pool[dst] = _mix(pool[dst], v)
    for w, dst in itertools.product(words[4:], range(4)):
        v, h = _hashmix(w, h)
        pool[dst] = _mix(pool[dst], v)
    # so are the key's words, as (pool word, key) arrays: the pool words mix
    # in the word hashed with 4 consecutive constants, which depend on the
    # word position alone; keys with fewer words stop early
    pool = np.array(pool, dtype=np.uint32)[:, None].repeat(len(rest), axis=1)
    hs = _constants(h, _MULT_A, 4)
    present = np.ones(len(rest), dtype=bool)
    while present.any():
        v, _ = _hashmix((rest & _MASK32).astype(np.uint32), hs)
        pool = np.where(present, _mix(pool, v), pool)
        hs = hs * np.uint32(pow(_MULT_A, 4, 1 << 32))
        rest = rest >> 32
        present = rest > 0
    # generate_state(4, uint64) hashes the pool twice over into 4 uint64s,
    # little-endian word pairs; PCG64 joins them high first into s and q
    # and seeds with inc = 2q + 1, state = (inc + s) * M + inc
    half, _ = _hashmix(pool[[0, 1, 2, 3] * 2], _constants(_INIT_B, _MULT_B, 8), _MULT_B)
    half = half.astype(np.uint64)
    states = []
    for a, b, c, d in zip(*(half[0::2] | half[1::2] << np.uint64(32)).tolist()):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append({"state": ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128,
                       "inc": inc})
    return states


def block_uniforms(seed: int, keys, width: int) -> np.ndarray:
    """(len(keys), width) array whose row r is bit for bit
    ``substream(seed, keys[r]).random(width)``."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    out = np.empty((len(keys), width))
    for row, pcg in zip(out, _pcg64_states(seed, keys)):
        state["state"] = pcg
        bitgen.state = state
        gen.random(out=row)
    return out


def exponential_fading(rng: np.random.Generator, mean: float, size) -> np.ndarray:
    """Exponential fading draws via inverse transform.

    Uses -mean*log1p(-u) with u uniform in [0, 1), which stays finite
    (at most about 36.7 * mean in double precision) without ever taking
    log of zero.
    """
    u = rng.random(size)
    return -mean * np.log1p(-u)
