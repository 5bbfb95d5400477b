"""Deterministic randomness utilities.

All simulation code draws from ``numpy.random.Generator`` streams derived
here.  Streams are keyed explicitly (master seed plus integer path), so the
order in which parallel workers execute can never change a result.

The 64-bit mixing function used by the hashing oracle is SplitMix64, chosen
because it is bit-exact reproducible from its published constants in any
language.  ``hash_match_blocks`` evaluates it for every (report, candidate)
pair and hands the matches on one row block at a time, in cache-sized
row chunks (``CHUNK_ELEMENTS``, every (n, k) kernel's row budget).
Streamed kernels finish one block's draws before the next block's, so they
take any ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E37_79B9_7F4A_7C15
_MIX1 = 0xBF58_476D_1CE4_E5B9
_MIX2 = 0x94D0_49BB_1331_11EB


# Row chunks of the per-report (n, k) kernels hold about this many elements,
# so their float64 / uint64 temporaries (256 KiB each) stay in cache.
CHUNK_ELEMENTS = 1 << 15


def chunk_rows(k: int) -> int:
    """Rows per chunk of an (n, k) kernel."""
    return max(1, CHUNK_ELEMENTS // k)


def block_rows(k: int) -> int:
    """Rows per block that a streamed (n, k) kernel hands on: 8 chunks.

    A consumer's fixed cost per block (the attacker's pick makes about ten
    numpy calls on each) is then paid once per 8 chunks, not per chunk.
    """
    return 8 * chunk_rows(k)


def _splitmix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of the uint64 array ``z``, in place; ``tmp`` is scratch."""
    z += np.uint64(_GAMMA)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def splitmix64(x) -> np.ndarray:
    """SplitMix64 finalizer of ``x`` as a uint64 array of its shape (0-d for a scalar)."""
    z = np.array(x, dtype=np.uint64, ndmin=1)
    return _splitmix64_inplace(z, np.empty_like(z)).reshape(np.shape(x))


def _bucket_inplace(z: np.ndarray, tmp: np.ndarray, g: int) -> np.ndarray:
    """Outer SplitMix64 of the uint64 array ``z`` (a value hash xor a seed), then ``% g``,
    in place; ``tmp`` is scratch.  ``% g`` is ``z - (z // g) * g``: numpy's uint64
    floor-divide by a scalar is several times faster than its remainder, and the result
    is exact with no overflow, as ``(z // g) * g <= z``."""
    _splitmix64_inplace(z, tmp)
    g = np.uint64(g)
    np.floor_divide(z, g, out=tmp)
    tmp *= g
    z -= tmp
    return z


def hash_bucket(seed: np.ndarray, value: np.ndarray, g: int) -> np.ndarray:
    """Map (seed, value) into a bucket in [0, g) via SplitMix64 mixing.

    ``g`` must be at most 2^63 so that buckets fit int64 (OLH's
    g = round(e^eps) + 1 reaches that near eps = 43.7, which
    ``protocol_params`` rejects).  The modulo bias, at most g / 2^64 in
    relative terms, is accepted: about 5e-7 at eps = 30 (g ~ 1e13).  Buckets
    take ``value``'s shape, in place in its uint64 copy, as ``hash_match_blocks``.
    """
    z = splitmix64(value)
    z ^= np.asarray(seed, dtype=np.uint64)
    return _bucket_inplace(z, np.empty_like(z), g).view(np.int64)


def hash_match_blocks(seeds: np.ndarray, buckets: np.ndarray, k: int, g: int):
    """Yield ``(lo, hi, matches)`` over row blocks of ``block_rows(k)`` rows.

    ``matches`` is the (hi - lo, k) uint8 0/1 matrix of
    ``hash_bucket(seeds[i], v, g) == buckets[i]`` for rows i in [lo, hi).
    It is one buffer, overwritten by the next block: copy it to keep it.
    The candidate hashes ``splitmix64(v)`` are computed once; the outer
    SplitMix64, the ``% g`` (``_bucket_inplace``) and the compare run in place
    on two reused uint64 buffers of ``chunk_rows(k)`` rows.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    buckets = np.asarray(buckets)
    n = len(seeds)
    cand = splitmix64(np.arange(k, dtype=np.uint64))
    rows, block = chunk_rows(k), block_rows(k)
    z = np.empty((min(rows, n), k), dtype=np.uint64)
    tmp = np.empty_like(z)
    out = np.empty((min(block, n), k), dtype=np.uint8)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        for s in range(lo, hi, rows):
            e = min(s + rows, hi)
            zc, tc = z[: e - s], tmp[: e - s]
            np.bitwise_xor(seeds[s:e, None], cand, out=zc)
            _bucket_inplace(zc, tc, g)
            np.equal(zc, buckets[s:e, None].astype(np.uint64),
                     out=out[s - lo : e - lo].view(bool))
        yield lo, hi, out[: hi - lo]


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (master seed, integer path) pair.

    Two calls with the same arguments return generators that produce
    identical draws; distinct paths are statistically independent.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))
