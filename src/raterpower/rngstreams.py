"""Deterministic RNG stream derivation.

Every random quantity in the package is drawn from a generator derived from
(seed, *path) where the path is a fixed tuple of small integers naming the
consumer (experiment arm, chunk index, trial index, ...).  Results are then
identical for a given seed no matter how work is scheduled across threads.

``derive_rng`` builds one stream. ``stream_states`` gives the starting
PCG64 states of ``derive_rng(seed, *path, i)`` for a whole run of indices i
in one vectorised pass; a consumer of many short streams re-states one
generator from them instead of building a generator per stream, and draws
the same values.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidParam

# Stream tags. Never renumber: encoded into every derived seed.
BASE = 0
ALT = 1
NULL = 2
TRIAL = 3
FIT = 4
SCORE = 5


# NumPy's SeedSequence hash constants (pool of 4 words) and PCG64's 128-bit
# LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _check_seed(seed) -> int:
    """``seed`` as an int; anything but an integer >= 0 (a bool is not one) raises ``InvalidParam``."""
    try:
        value = None if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        value = None
    if value is None or value < 0:
        raise InvalidParam("seed", f"seed must be a nonnegative integer, got {seed!r}")
    return value


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([_check_seed(seed), *[int(p) for p in path]]))


def _words(n: int) -> list[int]:
    """SeedSequence's coercion of an int ≥ 0: its 32-bit words, low word first."""
    out = [n & _M32]
    while n > _M32:
        n >>= 32
        out.append(n & _M32)
    return out


def stream_states(seed: int, *path: int, count: int) -> list[dict]:
    """``derive_rng(seed, *path, i).bit_generator.state`` for each i < ``count``.

    One vectorised pass of NumPy's ``SeedSequence`` over every stream's
    entropy words (each int as 32-bit words, low first; an index below 2^32
    is one word): ``hashmix`` of the first four words into the pool (zeros
    if fewer), mixing of every pool word into the others, mixing of any
    further words, then ``generate_state(4, uint64)``. PCG64 then seeds from
    those words (s, inc) as PCG's ``srandom`` does (O'Neill 2014):
    inc = 2·inc + 1, state = (inc + s)·M + inc mod 2^128. Setting a
    ``PCG64``'s ``state`` to entry i makes it draw exactly what
    ``derive_rng(seed, *path, i)`` draws.
    """
    seed = _check_seed(seed)
    if any(int(p) < 0 for p in path):
        raise ValueError("stream path entries must be nonnegative")
    if not 0 <= count <= 1 << 32:
        raise ValueError("count must be in [0, 2^32]")
    prefix = [w for v in (seed, *path) for w in _words(int(v))]
    # One row per entropy word, zero rows padding a short pool (SeedSequence
    # hashes a zero into each missing pool word).
    entropy = np.zeros((max(len(prefix) + 1, _POOL), count), np.uint32)
    entropy[:len(prefix)] = np.array(prefix, np.uint32)[:, None]
    entropy[len(prefix)] = np.arange(count)
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * _MULT_A & _M32
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    out = np.empty((count, 2 * _POOL), "<u4")
    for j in range(2 * _POOL):
        v = pool[j % _POOL] ^ np.uint32(h)
        h = h * _MULT_B & _M32
        v = v * np.uint32(h)
        out[:, j] = v ^ (v >> np.uint32(16))
    states = []
    for s_hi, s_lo, i_hi, i_lo in out.view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def signs(rng: np.random.Generator, shape) -> np.ndarray:
    """``rng.integers(0, 2, shape, dtype=np.int32) * 2 - 1``, leaving rng in the same state.

    NumPy draws each value below a bound of 2 from one 32-bit word by
    Lemire's method, whose rejection threshold (2^32 - 2) mod 2 is 0: the
    value is the word's bit 31. PCG64 cuts each 64-bit output into its low
    word, then its high word, which it buffers (``has_uint32``/``uinteger``)
    for the next 32-bit draw. So for PCG64 the signs come from
    ``random_raw``: a buffered word first, then bit 31 of each low and high
    word, and the buffer is left as NumPy leaves it (after an odd count the
    unused high word; after an even one the spent last high word, flagged
    as used). Other bit generators draw through ``integers``.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        out = rng.integers(0, 2, shape, dtype=np.int32)
        out *= 2
        out -= 1
        return out
    out = np.empty(shape, np.int32)
    flat = out.reshape(-1)
    bits = flat.view(np.uint32)
    state = bg.state
    lead = min(flat.size, state["has_uint32"])
    if lead:
        bits[0] = state["uinteger"] >> 31
        state["has_uint32"] = 0
    rest = flat.size - lead
    if rest:
        words = bg.random_raw((rest + 1) // 2).astype("<u8", copy=False).view("<u4")
        np.right_shift(words[:rest], 31, out=bits[lead:])
        state = bg.state
        state["has_uint32"] = rest % 2
        state["uinteger"] = int(words[-1])
    bg.state = state
    flat *= 2
    flat -= 1
    return out


def row_groups(rng, lo: int, hi: int) -> list[tuple[np.random.Generator, int, int]]:
    """The row groups (generator, a, b), lo <= a < b <= hi in row order, that draw rows lo..hi of a draw.

    ``rng`` is one generator for every row, whose rows lo..hi are one
    group, or a sequence of generators, one per row: row j alone is drawn
    by rng[j]. A draw site makes one call per group and array, so each
    generator draws its rows in stream order, as a draw of those rows alone
    would. Nothing else tells the two kinds of ``rng`` apart.
    """
    if isinstance(rng, np.random.Generator):
        return [(rng, lo, hi)]
    return [(r, j, j + 1) for j, r in enumerate(rng[lo:hi], lo)]


def chunk_ranges(total: int, chunk: int) -> list[tuple[int, int]]:
    """Fixed partition of range(total) into contiguous chunks.

    The partition depends only on (total, chunk), never on thread count, so
    chunked consumers stay deterministic under parallel execution.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
