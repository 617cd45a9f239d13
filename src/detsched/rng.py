"""Deterministic random-stream derivation.

All simulation randomness comes from the streams defined here.  A run is
keyed by one integer seed; independent work items (replications, sample
draws) each get their own substream derived from (seed, index) alone, so
results never depend on execution order or worker count.  Delay
replications read ``substream`` generators; coverage blocks and ``sample``
build none, and read the same streams arithmetically (``_pcg64_states``,
``_fill`` and ``_advance``, below).

Stream contract, which cross-language reimplementations must match:

* substream(seed, k) is ``Generator(PCG64(SeedSequence(entropy=seed,
  spawn_key=(k,))))``.
* One scheduling draw consumes ``n`` uniforms for the eigenvector coin
  flips, coin i heads when u < mu_i for the marginal kernel's eigenvalues
  mu in ``eigh`` order (an L-ensemble's lambda / (1 + lambda)), and then
  one uniform per selected point.
* A coverage replication consumes its scheduling draw first, then an
  n-by-n block of uniforms, row major, mapped to fading through
  ``fading = -mean * log1p(-u)``.  It may draw further uniforms past that
  block; they are never read.

``substream`` is the definition.  ``block_uniforms`` fills many substreams'
leading uniforms at once, with no generator object: ``_pcg64_states``
takes the seed's share of the hash from numpy's own ``SeedSequence(seed)``
and repeats only the keys' share, as uint32 array operations over the whole
block, then ``_fill`` runs PCG64 itself on 128-bit states held as (high,
low) pairs of uint64 arrays.  PCG64 seeds with inc = 2q + 1 and state = (inc + s) * M +
inc, steps a state x to M * x + inc, and outputs each new state as the
double (rotr64(high ^ low, high >> 58) >> 11) * 2^-53.  j steps make the
affine map x -> A_j * x + C_j * inc, with A_j = M^j and C_j = M^(j-1) +
... + 1 (F. Brown, "Random number generation with arbitrary strides",
1994), so the state before any draw is a multiply-add away from the seeded
state: ``_advance`` jumps each state by its own count of draws, and
``_fill`` starts from any states, or whole rows of its width past them, so
a caller can read a stream's uniforms from any position without generating
the ones before it.  Tests pin
``block_uniforms``, ``_advance`` and ``_fill`` to ``substream`` bit for
bit, seeded states included.
"""

import functools
import math

import numpy as np

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy's SeedSequence hash constants (pool of 4 words) and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# 0-d arrays, which numpy's ufuncs take faster than uint64 scalars
_LOW, _1, _11, _32, _58, _63 = (np.array(v, dtype=np.uint64) for v in (_MASK32, 1, 11, 32, 58, 63))
_MULT_A4 = np.uint32(pow(_MULT_A, 4, 1 << 32))


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for work item ``index`` of the run seeded with ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def _hashmix(value, hm):
    """SeedSequence's hash step on broadcast uint32 arrays (which wrap mod
    2^32), whose hash constant h and multiplier h * mult are ``hm``."""
    h, m = hm
    value = (value ^ h) * m
    return value ^ (value >> 16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


@functools.lru_cache(maxsize=None)
def _constants(h, mult, k):
    """The k consecutive hash constants h, h*mult, h*mult^2, ... over their
    products with mult, shaped (2, k, 1) (cached: h after a seed depends
    only on the seed's word count)."""
    hs = [h * pow(mult, t, 1 << 32) & _MASK32 for t in range(k)]
    return np.array([hs, [x * mult & _MASK32 for x in hs]], dtype=np.uint32)[..., None]


def _table(jumps, shape):
    """(A, C) pairs of 128-bit Python ints as a (4, 2, *shape) uint64 array:
    each one's high word, low word, and the low word's two 32-bit halves."""
    return np.array([[[v >> s & m for v in col] for col in zip(*jumps)] for s, m in
                     ((64, _MASK64), (0, _MASK64), (0, _MASK32), (32, _MASK32))],
                    dtype=np.uint64).reshape(4, 2, *shape)


# PCG64's multiplier as the (4, 1) words ``_mul`` takes
_M = _table([(_PCG_MULT, 0)], (1,))[:, 0]


def _mul(x, k):
    """x * k mod 2^128 for a (high, low) pair of uint64 arrays x and the
    four words of a ``_table`` entry k, broadcasting; the high word of the
    low words' product is summed from 32-bit halves."""
    (xh, xl), (kh, kl, k0, k1) = x, k
    x0, x1 = xl & _LOW, xl >> _32
    t = x1 * k0
    p = x0 * k0
    p >>= _32
    t += p
    w = t & _LOW
    w += np.multiply(x0, k1, out=p)
    high = x1 * k1
    t >>= _32
    high += t
    w >>= _32
    high += w
    high += np.multiply(xl, kh, out=p)
    high += np.multiply(xh, kl, out=p)
    return high, np.multiply(xl, kl, out=t)


def _add(x, y):
    """x + y mod 2^128, written into x, to whose shape y broadcasts."""
    (xh, xl), (yh, yl) = x, y
    xl += yl
    xh += yh
    xh += xl < yl
    return x


def _affine(state, inc, jump):
    """A * state + C * inc for a ``_table`` jump (A, C), as one product of
    (state, inc) stacked on the table's A/C axis."""
    pad = (slice(None),) + (None,) * (jump.ndim - 3)
    high, low = _mul([np.array(w)[pad] for w in zip(state, inc)], jump)
    return _add((high[0], low[0]), (high[1], low[1]))


def _doubles(x, out):
    """PCG64's doubles for states x, written to ``out``: the top 53 bits of
    rotr64(high ^ low, high >> 58), times 2^-53.  Overwrites x."""
    v, low = x
    turn = v >> _58
    v ^= low
    right = np.right_shift(v, turn, out=low)
    np.negative(turn, out=turn)
    turn &= _63
    v <<= turn
    v |= right
    v >>= _11
    np.multiply(v, 2.0 ** -53, out=out)


def _strides(count: int, a: int = _PCG_MULT, c: int = 1) -> list:
    """(A, C) of the jumps 0, j, 2j, ..., (count - 1)j as Python ints, where
    (a, c) is the (A_j, C_j) of one jump j (by default one draw)."""
    table, x, y = [], 1, 0
    for _ in range(count):
        table.append((x, y))
        x, y = x * a & _MASK128, (y * a + c) & _MASK128
    return table


@functools.lru_cache(maxsize=None)
def _jumps(width: int):
    """``_fill``'s chunk length b (about sqrt(width)) and chunk count at this
    width, and the ``_table`` of its later chunks' jumps j = b, 2b, ...
    below the width, shaped (4, 2, chunks - 1, 1, 1)."""
    b = math.isqrt(max(width, 1) - 1) + 1
    tail = _strides(-(-width // b), *_strides(b + 1)[-1])
    return b, len(tail), _table(tail, (-1, 1, 1))[:, :, 1:]


@functools.lru_cache(maxsize=None)
def _starts(width: int, size: int):
    """The ``_table`` of the jumps s * width + j for s below ``size`` and
    j = 1..b, shaped (4, 2, b, size): the first chunk of ``_fill``'s row s,
    the row's jump (A_s, C_s) composed with the chunk's (A_j, C_j) as
    (A_j A_s, A_j C_s + C_j), in array arithmetic."""
    (a_hi, c_hi), (a_lo, c_lo) = _table(_strides(size, *_strides(width + 1)[-1]), (size,))[:2]
    head = _table(_strides(_jumps(width)[0] + 1)[1:], (-1, 1))
    (ah, al), (ch, cl) = _mul((a_hi, a_lo), head[:, 0]), _add(_mul((c_hi, c_lo), head[:, 0]), head[:2, 1])
    return np.array([[ah, ch], [al, cl], [al & _LOW, cl & _LOW], [al >> _32, cl >> _32]])


@functools.lru_cache(maxsize=None)
def _count_table(size: int):
    """The ``_table`` of the jumps of 0 to ``size`` - 1 draws, shaped (4, 2,
    size)."""
    return _table(_strides(size), (size,))


def _advance(state, inc, steps):
    """The states ``steps`` draws on, each by its own count (an int array
    shaped like the states): A_c * state + C_c * inc, from a table of one
    entry per count up to the next power of two above the largest."""
    table = _count_table(1 << int(np.max(steps, initial=0)).bit_length())
    return _affine(state, inc, table.take(steps, axis=-1))


def _key_words(keys):
    """Keys as an array to split into 32-bit words: uint64 for a range
    within [0, 2^63), else an object array of Python ints."""
    if isinstance(keys, range) and all(0 <= k < 1 << 63 for k in (*keys[:1], *keys[-1:])):
        words = np.arange(len(keys), dtype=np.uint64)
        words *= np.uint64(keys.step % (1 << 64))
        words += np.uint64(keys.start % (1 << 64))
        return words
    return np.array(keys, dtype=object)


def _pcg64_states(seed: int, keys):
    """Seeded PCG64 ``(state, inc)`` of ``substream(seed, key)`` for every
    key, each a (high, low) pair of uint64 arrays over the keys."""
    seed = int(seed)
    rest = _key_words(keys)
    if seed < 0 or (len(rest) and rest.min() < 0):
        raise ValueError("seed and keys must be nonnegative")
    # numpy's SeedSequence(seed) holds the pool after the seed's words: they
    # fill it (zero-padded to 4), it is mixed with itself, and its words past
    # the fourth are mixed in, 16 + 4 * (words - 4) hash steps in all, each of
    # which multiplied the hash constant by _MULT_A
    words = -(-max(seed.bit_length(), 1) // 32)
    h = _INIT_A * pow(_MULT_A, 16 + 4 * max(words - 4, 0), 1 << 32) & _MASK32
    # then each key's words are mixed in, as (pool word, key) arrays: the
    # pool words mix in the word hashed with 4 consecutive constants, which
    # depend on the word position alone; keys with fewer words stop early
    pool = np.random.SeedSequence(seed).pool[:, None].repeat(len(rest), axis=1)
    hm = _constants(h, _MULT_A, 4)
    present = np.ones(len(rest), dtype=bool)
    while present.any():
        v = _hashmix((rest & _MASK32).astype(np.uint32), hm)
        pool = np.where(present, _mix(pool, v), pool)
        hm = hm * _MULT_A4
        rest = rest >> 32
        present = rest > 0
    # generate_state(4, uint64) hashes the pool twice over into 4 uint64s,
    # little-endian word pairs; PCG64 joins them high first into s and q
    # and seeds with inc = 2q + 1, state = (inc + s) * M + inc
    half = _hashmix(pool[[0, 1, 2, 3] * 2], _constants(_INIT_B, _MULT_B, 8))
    half = half.astype(np.uint64)
    s_hi, s_lo, q_hi, q_lo = half[0::2] | half[1::2] << _32
    inc = (q_hi << _1 | q_lo >> _63, q_lo << _1 | _1)
    state = _add(_mul(_add((s_hi, s_lo), inc), _M), inc)
    return state, inc


def _fill(state, inc, width: int, rows=None) -> np.ndarray:
    """(states, width) array whose row r is the ``width`` doubles PCG64
    draws next from state ``(state[r], inc[r])``, or, given ``rows``, the
    ``width`` doubles that follow the first ``rows[r] * width`` of them; the
    states are left as they were.

    Columns come in chunks of b, about sqrt(width): the first chunk's
    states are one jump each from the given states (``_starts``: b entries
    per row, O(n sqrt n) for up to n rows of n), every later chunk's one
    jump from the first chunk's.  States are laid out (chunk, column, row),
    so numpy's inner loops run over rows or whole chunks.  The later chunks
    are generated in one pass, whose temporaries hold a few times the
    output's size; callers bound the fill (coverage fills stay near 1 MB).
    """
    b, chunks, tail = _jumps(width)
    jump = _starts(width, 1 if rows is None else 1 << int(np.max(rows, initial=0)).bit_length())
    first = _affine(state, inc, jump if rows is None else jump.take(rows, axis=-1))
    count = len(inc[0])
    out = np.empty((count, chunks * b))
    grid = out.reshape(count, chunks, b).transpose(1, 2, 0)
    if chunks > 1:
        _doubles(_add(_mul(first, tail[:, 0]), _mul(inc, tail[:, 1])), grid[1:])
    _doubles(first, grid[0])
    return out[:, :width]


def block_uniforms(seed: int, keys, width: int) -> np.ndarray:
    """(len(keys), width) array whose row r is bit for bit
    ``substream(seed, keys[r]).random(width)``."""
    return _fill(*_pcg64_states(seed, keys), width)


def exponential_fading(rng: np.random.Generator, mean: float, size) -> np.ndarray:
    """Exponential fading draws via inverse transform.

    Uses -mean*log1p(-u) with u uniform in [0, 1), which stays finite
    (at most about 36.7 * mean in double precision) without ever taking
    log of zero.
    """
    u = rng.random(size)
    return -mean * np.log1p(-u)
