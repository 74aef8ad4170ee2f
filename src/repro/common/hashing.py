"""Content hashing: vectorised 64-bit mixing.

Procedural images are addressed as streams of grain identifiers, and a
block's identity is a mix of the grain IDs it covers (:func:`mix64`,
:func:`fold_grain_signatures`). This lets dedup sweeps over tens of
millions of grains run as a handful of numpy passes instead of hashing
terabytes of materialised bytes; the ZFS substrate keys its dedup table on
these signatures. :func:`derive_seed` folds heterogeneous parts into one
reproducible RNG seed with the same arithmetic.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

__all__ = [
    "mix64",
    "mix64_pair",
    "fold_grain_signatures",
    "derive_seed",
]

#: splitmix64 constants (Steele et al.); the standard avalanche finaliser.
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
#: multiplier folding the left operand of :func:`mix64_pair`
_PAIR = 0xC2B2AE3D27D4EB4F
_MASK = 0xFFFFFFFFFFFFFFFF
_SPLITMIX_GAMMA = np.uint64(_GAMMA)
_MIX_1 = np.uint64(_M1)
_MIX_2 = np.uint64(_M2)


def mix64(values: np.ndarray | int) -> np.ndarray | np.uint64:
    """Apply the splitmix64 avalanche finaliser elementwise.

    Accepts a scalar or an array; always computes in uint64 with wrapping
    arithmetic. This is the workhorse that turns structured grain IDs into
    uniformly distributed 64-bit signatures.
    """
    state = np.asarray(values, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = (state + _SPLITMIX_GAMMA) & np.uint64(_MASK)
        state ^= state >> np.uint64(30)
        state *= _MIX_1
        state ^= state >> np.uint64(27)
        state *= _MIX_2
        state ^= state >> np.uint64(31)
    if state.ndim == 0:
        return np.uint64(state)
    return state


def mix64_pair(lhs: np.ndarray | int, rhs: np.ndarray | int) -> np.ndarray | np.uint64:
    """Mix two 64-bit values/arrays into one (order-sensitive)."""
    left = np.asarray(lhs, dtype=np.uint64)
    right = np.asarray(rhs, dtype=np.uint64)
    with np.errstate(over="ignore"):
        combined = left * np.uint64(_PAIR) + mix64(right)
    return mix64(combined)


def fold_grain_signatures(grain_ids: np.ndarray, grains_per_block: int) -> np.ndarray:
    """Fold a 1-D stream of grain IDs into per-block signatures.

    ``grain_ids`` is the grain-ID sequence of one file; consecutive runs of
    ``grains_per_block`` IDs form one block. The trailing partial block (if
    any) is padded with the sentinel ``0`` grain so that equal short tails
    still deduplicate. The fold is order-sensitive (a permuted block must not
    collide with the original), implemented as a position-salted mix + sum,
    vectorised over the whole stream.

    Returns a uint64 array with one signature per block.
    """
    if grains_per_block <= 0:
        raise ValueError(f"grains_per_block must be positive, got {grains_per_block}")
    stream = np.ascontiguousarray(grain_ids, dtype=np.uint64)
    n_blocks = -(-stream.size // grains_per_block)
    padded_len = n_blocks * grains_per_block
    if padded_len != stream.size:
        padded = np.zeros(padded_len, dtype=np.uint64)
        padded[: stream.size] = stream
        stream = padded
    matrix = stream.reshape(n_blocks, grains_per_block)
    position_salt = mix64(np.arange(grains_per_block, dtype=np.uint64))
    with np.errstate(over="ignore"):
        salted = mix64(matrix ^ position_salt[np.newaxis, :])
        folded = salted.sum(axis=1, dtype=np.uint64)
    return np.asarray(mix64(folded), dtype=np.uint64)


def _mix64_int(value: int) -> int:
    """:func:`mix64` of one value in [0, 2**64), in Python ints."""
    value = (value + _GAMMA) & _MASK
    value ^= value >> 30
    value = (value * _M1) & _MASK
    value ^= value >> 27
    value = (value * _M2) & _MASK
    return value ^ (value >> 31)


def derive_seed(*parts: int | str) -> int:
    """Derive a deterministic 64-bit seed from heterogeneous parts.

    Strings are hashed stably (not with Python's randomised ``hash``); any
    other part is an integral (a Python or numpy int, or a bool), taken
    modulo 2**64. Parts are folded in order with :func:`mix64_pair`'s
    arithmetic, computed on plain ints: a seed is one scalar, and numpy
    scalars cost several times more per operation. Used to give every
    image/distro/experiment its own independent, reproducible RNG stream.
    """
    state = 0x5851F42D4C957F2D
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
            value = int.from_bytes(digest, "little")
        else:
            value = operator.index(part) & _MASK
        state = _mix64_int((state * _PAIR + _mix64_int(value)) & _MASK)
    return state
