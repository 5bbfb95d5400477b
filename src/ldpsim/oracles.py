"""Single-attribute LDP frequency oracles.

Implements five randomizers over a categorical domain of size ``k`` --
generalized randomized response (GRR), local hashing with the optimal bucket
count (OLH), subset selection (SS), symmetric unary encoding (SUE, the basic
one-time RAPPOR parameterization) and optimized unary encoding (OUE) --
together with the shared unbiased frequency estimator

    f_hat(v) = (C(v) - n * q_eff) / (n * (p_eff - q_eff)),

where ``C(v)`` counts the sanitized reports that support value ``v``.

The batch kernels whose work is (n, k) -- SS keys, UE bits, OLH support
hashing -- run over row chunks of ``rng.chunk_rows(k)`` rows, so their
temporaries stay O(rows * k) and cache-sized; support counts and the
attacker's pick read OLH and UE supports from ``support_blocks``.  A
chunked ``rng.random((rows, k))`` draw yields the values of one (n, k)
draw, so chunking changes no random stream.  The only (n, k) array made
is a batch's UE bits, from ``unary_bit_blocks``, which stream instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .rng import CHUNK_ELEMENTS, block_rows, chunk_rows, hash_bucket, hash_match_blocks

PROTOCOLS = ("grr", "olh", "ss", "sue", "oue")


@dataclass(frozen=True)
class ProtocolParams:
    """Calibrated randomization probabilities for one protocol at (epsilon, k).

    ``p`` and ``q`` are the estimation-side pair used in the shared
    estimator.  For OLH that means ``p`` is the in-bucket keep probability
    p' and ``q`` collapses to 1/g; the bucket count g (or the subset size
    omega for SS) is carried in ``aux``.
    """

    protocol: str
    epsilon: float
    k: int
    p: float
    q: float
    aux: int | None = None

    def __post_init__(self):
        if not (0.0 < self.q < self.p <= 1.0):
            raise ParameterError(
                f"invalid probability pair p={self.p}, q={self.q} for {self.protocol}"
            )


def check_domain_size(k) -> int:
    """``k`` as an int, else DomainError: randomization needs an integer k >= 2."""
    try:
        k = operator.index(k)
    except TypeError:
        raise DomainError(f"domain size k={k!r} is not an integer") from None
    if k < 2:
        raise DomainError(f"domain size k={k} is degenerate; randomization needs k >= 2")
    return k


def protocol_params(protocol: str, epsilon: float, k: int) -> ProtocolParams:
    """Calibrate (p, q, aux) for one protocol at privacy budget epsilon.

    GRR:  p = e^eps / (e^eps + k - 1),      q = 1 / (e^eps + k - 1)
    OLH:  g = max(2, round(e^eps) + 1),     p = e^eps / (e^eps + g - 1),  q = 1/g
    SS:   omega = clip(round(k / (e^eps + 1)), 1, k - 1),
          p = omega e^eps / (omega e^eps + k - omega),
          q = (omega e^eps (omega-1) + (k-omega) omega)
              / ((k-1)(omega e^eps + k - omega))
    SUE:  p = e^(eps/2) / (e^(eps/2) + 1),  q = 1 / (e^(eps/2) + 1)
    OUE:  p = 1/2,                          q = 1 / (e^eps + 1)
    """
    protocol = protocol.lower()
    if protocol not in PROTOCOLS:
        raise ParameterError(f"unknown protocol {protocol!r}")
    if not 0 < epsilon < math.inf:
        raise ParameterError(f"epsilon must be finite and > 0, got {epsilon!r}")
    check_domain_size(k)
    try:
        ee = math.exp(epsilon)
    except OverflowError:
        raise ParameterError(f"epsilon={epsilon!r} is too large: e^epsilon overflows") from None
    if protocol == "grr":
        return ProtocolParams("grr", epsilon, k, ee / (ee + k - 1), 1.0 / (ee + k - 1))
    if protocol == "olh":
        g = max(2, round(ee) + 1)
        if g > 1 << 63:  # buckets are int64
            raise ParameterError(f"epsilon={epsilon!r} is too large for olh: g={g} > 2^63")
        return ProtocolParams("olh", epsilon, k, ee / (ee + g - 1), 1.0 / g, aux=g)
    if protocol == "ss":
        omega = min(max(1, round(k / (ee + 1.0))), k - 1)
        p = omega * ee / (omega * ee + k - omega)
        q = (omega * ee * (omega - 1) + (k - omega) * omega) / (
            (k - 1) * (omega * ee + k - omega)
        )
        return ProtocolParams("ss", epsilon, k, p, q, aux=omega)
    if protocol == "sue":
        eh = math.exp(epsilon / 2.0)
        return ProtocolParams("sue", epsilon, k, eh / (eh + 1.0), 1.0 / (eh + 1.0))
    # oue
    return ProtocolParams("oue", epsilon, k, 0.5, 1.0 / (ee + 1.0))


# ---------------------------------------------------------------------------
# Batch randomization
# ---------------------------------------------------------------------------

class ReportBatch:
    """Column-oriented container of n sanitized reports for one protocol.

    ``data`` layout by protocol:
      grr      -> (n,) array of any signed or unsigned integer dtype
                  (``randomize_batch`` gives int64; a fake-data collection's
                  is a narrow column view of its report matrix)
      olh      -> (uint64 seeds (n,), int buckets (n,))
      ss       -> (n, omega) array of ``np.min_scalar_type(k - 1)`` (uint8
                  up to k = 256, uint16 beyond), rows sorted
      sue/oue  -> uint8 array (n, k), any layout (a fake-data collection's
                  is a column slice of its report matrix)
    """

    def __init__(self, params: ProtocolParams, data):
        self.params = params
        self.data = data

    def __len__(self) -> int:
        if self.params.protocol == "olh":
            return len(self.data[0])
        return len(self.data)


def _grr_perturb(values: np.ndarray, p: float, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(values)
    out = values.astype(np.int64)  # a narrow input dtype may not hold every value of [0, k)
    flip = rng.random(n) >= p
    other = rng.integers(0, k - 1, size=n)
    other += other >= values
    np.copyto(out, other, where=flip)
    return out


def randomize_batch(
    values: Sequence[int] | np.ndarray, params: ProtocolParams, rng: np.random.Generator
) -> ReportBatch:
    """Sanitize a vector of value indices under ``params``."""
    k = params.k
    values = as_indices(values, k)
    n = len(values)
    proto = params.protocol

    if proto == "grr":
        return ReportBatch(params, _grr_perturb(values, params.p, k, rng))

    if proto == "olh":
        g = params.aux
        seeds = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        buckets = _grr_perturb(hash_bucket(seeds, values, g), params.p, g, rng)
        return ReportBatch(params, (seeds, buckets))

    if proto == "ss":
        # row chunks of iid uniform keys; the true value's key is +inf, so it
        # is never drawn as an "other"; omega = 1 needs only the argmin.  Rows
        # are sorted, so only the set of the omega smallest keys matters: an
        # argpartition gives it, with the omega-th smallest at slot omega - 1,
        # which included rows replace by their true value.  Reports take the
        # narrowest dtype that holds k - 1; each chunk sorts its int64 indices
        # before narrowing, as numpy's row sort is slower on uint8
        omega = params.aux
        include = rng.random(n) < params.p
        out = np.empty((n, omega), dtype=np.min_scalar_type(k - 1))
        rows = chunk_rows(k)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            keys = rng.random((hi - lo, k))
            keys[np.arange(hi - lo), values[lo:hi]] = np.inf
            inc, o = include[lo:hi], out[lo:hi]
            if omega == 1:
                o[:, 0] = np.where(inc, values[lo:hi], keys.argmin(axis=1))
            else:
                picked = np.argpartition(keys, omega - 1, axis=1)[:, :omega]
                picked[inc, omega - 1] = values[lo:hi][inc]
                picked.sort(axis=1)
                o[:] = picked
        return ReportBatch(params, out)

    return ReportBatch(params, unary_bits(n, k, params.q, rng, values, params.p))


def unary_bit_blocks(n: int, k: int, q: float, rng: np.random.Generator,
                     values: np.ndarray | None = None, p: float | None = None, out=None):
    """Yield ``(lo, hi, bits)``: rows [lo, hi) of (n, k) uint8 unary-encoding bits, ``block_rows(k)``
    at a time, bit v of row i set w.p. q, or p at v = values[i] (``values=None``: the ue_z fakes).
    Row chunks draw ``rng.random((rows, k))``, the stream of one (n, k) draw, into ``u < q``, then
    reset each true column to ``u < p``.  Blocks are slices of ``out``, else of one reused buffer."""
    block, rows = block_rows(k), chunk_rows(k)
    buf = np.empty((min(block, n), k), dtype=np.uint8) if out is None else None
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        bits = buf[: hi - lo] if out is None else out[lo:hi]
        for s in range(0, hi - lo, rows):
            o = bits[s : s + rows]
            u = rng.random(o.shape)
            np.less(u, q, out=o.view(bool))
            if values is not None:
                i, v = np.arange(len(o)), values[lo + s : lo + s + len(o)]
                o[i, v] = u[i, v] < p
        yield lo, hi, bits


def unary_bits(n: int, k: int, q: float, rng: np.random.Generator,
               values: np.ndarray | None = None, p: float | None = None) -> np.ndarray:
    """(n, k) uint8 unary-encoding bits: ``unary_bit_blocks`` written into one array."""
    out = np.empty((n, k), dtype=np.uint8)
    for _ in unary_bit_blocks(n, k, q, rng, values, p, out):
        pass
    return out


# ---------------------------------------------------------------------------
# Support semantics and the shared estimator
# ---------------------------------------------------------------------------

def support_blocks(batch: ReportBatch):
    """Yield ``(lo, hi, rows)`` over the OLH or UE reports lo..hi-1 of ``batch``.

    ``rows`` is the (hi - lo, k) uint8 0/1 matrix of the values each report
    supports, at most ``block_rows(k)`` rows: the hash matches of
    ``hash_match_blocks`` for OLH, row slices of the bits for UE.  It may be
    a reused buffer, overwritten by the next block: copy it to keep it.
    """
    params = batch.params
    if params.protocol == "olh":
        yield from hash_match_blocks(*batch.data, params.k, params.aux)
    else:
        n, rows = len(batch), block_rows(params.k)
        for lo in range(0, n, rows):
            yield lo, min(lo + rows, n), batch.data[lo : lo + rows]


# Rows of 0/1 supports summed in uint16 at a time: their column sums stay below 2^16.
_U16_SUM_ROWS = 1 << 15


def support_counts(batch: ReportBatch) -> np.ndarray:
    """C(v) for every domain value: how many reports support each value."""
    k = batch.params.k
    proto = batch.params.protocol
    if proto == "grr":
        return np.bincount(batch.data, minlength=k).astype(np.int64)
    if proto == "ss":
        # bincount casts its input to intp: count the narrow reports in chunks
        flat = batch.data.ravel()
        counts = np.zeros(k, dtype=np.int64)
        for lo in range(0, len(flat), CHUNK_ELEMENTS):
            counts += np.bincount(flat[lo : lo + CHUNK_ELEMENTS], minlength=k)
        return counts
    counts = np.zeros(k, dtype=np.int64)
    for _, _, rows in support_blocks(batch):
        for lo in range(0, len(rows), _U16_SUM_ROWS):
            counts += rows[lo : lo + _U16_SUM_ROWS].sum(axis=0, dtype=np.uint16)
    return counts


def as_indices(values, size, what: str = "value index") -> np.ndarray:
    """``values`` as an array of indices in [0, size), else DomainError.

    ``size`` is one bound of a 1-D ``values`` or one per column of a 2-D one.
    An integer array is returned as it is, in its own dtype, so a narrow
    matrix is never widened; other input must hold finite whole numbers and
    comes back as int64.  Another shape, or a fractional, non-finite or
    out-of-range value, is refused before that cast, so none is truncated
    or wrapped, and before the caller's first draw.
    """
    arr = np.asarray(values)
    if arr.ndim != np.ndim(size) + 1:
        raise DomainError(f"{what} array must be {np.ndim(size) + 1}-D, got shape {arr.shape}")
    integer = arr.dtype.kind in "iu"
    if not integer:
        arr = arr.astype(np.float64)
        odd = arr[~np.isfinite(arr) | (arr != np.floor(arr))]
        if odd.size:
            raise DomainError(f"{what} {odd[0]} is not a whole number")
    if arr.size and (arr.min() < 0 or (arr >= size).any()):
        at = tuple(int(i) for i in np.argwhere((arr < 0) | (arr >= size))[0])
        bound = np.broadcast_to(size, arr.shape)[at]
        raise DomainError(f"{what} {arr[at]} at {at} outside [0, {bound})")
    return arr if integer else arr.astype(np.int64)


def estimate_from_counts(counts: np.ndarray, n: int, params: ProtocolParams) -> np.ndarray:
    """Debias raw support counts into frequency estimates (may leave [0, 1])."""
    if n <= 0:
        raise ParameterError("n must be positive")
    return (np.asarray(counts, dtype=np.float64) - n * params.q) / (n * (params.p - params.q))


def estimate_frequencies(batch: ReportBatch) -> np.ndarray:
    """Unbiased frequency estimates from a batch, debiased under ``batch.params``.

    The raw estimates can be negative or exceed 1, and attack code consumes
    them as they are; :func:`clip_normalize` projects a vector onto the
    probability simplex.
    """
    return estimate_from_counts(support_counts(batch), len(batch), batch.params)


def clip_normalize(est: np.ndarray) -> np.ndarray:
    """Clip negatives to 0 and renormalize to sum 1."""
    out = np.clip(np.asarray(est, dtype=np.float64), 0.0, None)
    total = out.sum()
    if total <= 0:
        raise ParameterError("all estimates clipped to zero; cannot normalize")
    return out / total


def pure_estimator_variance(f: float, params: ProtocolParams, n: int) -> float:
    """Sampling variance of the shared estimator for a value of frequency f."""
    if n < 1:
        raise ParameterError(f"sample size n must be >= 1, got {n!r}")
    gamma = params.q + f * (params.p - params.q)
    return gamma * (1.0 - gamma) / (n * (params.p - params.q) ** 2)
