"""Deterministic RNG stream derivation.

Every random quantity in the package is drawn from a generator derived from
(seed, *path) where the path is a fixed tuple of small integers naming the
consumer (experiment arm, chunk index, trial index, ...).  Results are then
identical for a given seed no matter how work is scheduled across threads.
"""

from __future__ import annotations

import numpy as np

# Stream tags. Never renumber: encoded into every derived seed.
BASE = 0
ALT = 1
NULL = 2
TRIAL = 3
FIT = 4
SCORE = 5


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    if int(seed) < 0:
        from .errors import InvalidParam

        raise InvalidParam("seed", "seed must be a nonnegative integer")
    return np.random.SeedSequence([int(seed), *[int(p) for p in path]])


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, *path))


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


def chunk_ranges(total: int, chunk: int) -> list[tuple[int, int]]:
    """Fixed partition of range(total) into contiguous chunks.

    The partition depends only on (total, chunk), never on thread count, so
    chunked consumers stay deterministic under parallel execution.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
