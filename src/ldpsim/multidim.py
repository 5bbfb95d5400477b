"""Multidimensional collection: budget splitting, sampling, and fake data.

Four families of solutions for collecting d categorical attributes per user:

* ``spl``    -- split the budget: every attribute randomized at epsilon/d
                (``spl_sanitize_batch``).
* ``smp``    -- sample one attribute (``smp_sample``), spend the whole budget
                on it, and tell the server which one; a repeated attribute
                re-sends the user's memoized report.
* ``rs_fd``  -- sample one attribute secretly, randomize it at the amplified
                budget eps' = ln(d(e^eps - 1) + 1), and emit uniform fake
                data for every other attribute.
* ``rs_rfd`` -- same, but fake data is drawn from per-attribute prior
                distributions, which both hides the sampled slot better and
                lets the estimator reclaim the fake mass.

rs_fd and rs_rfd differ only in where the fakes come from, so one engine
runs both.  A :class:`CollectionConfig` describes a collection and resolves
its fake distribution; ``rs_sanitize_batch``, ``rs_estimate`` /
``rs_estimate_from_counts`` and ``rs_variance`` take it for every solution
and variant.

Every collection is a batch over n users: the sanitizers take an (n, d)
matrix of value indices, check all of it before any draw, and return one
``ReportBatch`` per attribute: at epsilon/d under spl, else under ``cfg.params(a)``.
``rs_sanitize_batch`` writes every attribute's reports into one C-contiguous
report matrix, the classifier's features, and each batch's data is a column
view of it: grr values in an (n, d) matrix of ``value_dtype(ks)``, unary bits
in an (n, sum(ks)) uint8 matrix.

A variant is named by one tag, its oracle then its fakes: ``grr`` (plain
values), ``sue_z`` / ``oue_z`` (unary encoding on all-zero fake vectors,
rs_fd only) and ``sue_r`` / ``oue_r`` (unary encoding on one-hot fakes).

Estimators are raw and unbiased: they invert the fake mass, and their
variance has the closed form  d^2 gamma (1-gamma) / (n (p-q)^2)  with gamma
the per-report support probability read off the sampling probability tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .oracles import (
    PROTOCOLS,
    ProtocolParams,
    ReportBatch,
    as_indices,
    check_domain_size,
    estimate_from_counts,
    protocol_params,
    randomize_batch,
    support_counts,
    unary_bits,
)

FAKE_DATA_VARIANTS = {"rs_fd": ("grr", "sue_z", "oue_z", "sue_r", "oue_r"),
                      "rs_rfd": ("grr", "sue_r", "oue_r")}
SAMPLING_MODES = ("without_replacement", "with_replacement")


def amplified_epsilon(epsilon: float, d: int) -> float:
    """Budget amplification from sampling 1 of d attributes: ln(d(e^eps - 1) + 1)."""
    if epsilon <= 0:
        raise ParameterError("epsilon must be > 0")
    if d < 1:
        raise ParameterError("d must be >= 1")
    return math.log(d * (math.exp(epsilon) - 1.0) + 1.0)


def validate_priors(priors: Sequence[np.ndarray], ks: Sequence[int]) -> list[np.ndarray]:
    """Check one non-negative unit-sum vector per attribute, of length ks[a]."""
    if len(priors) != len(ks):
        raise ParameterError(f"expected {len(ks)} prior vectors, got {len(priors)}")
    out = []
    for a, (k, vec) in enumerate(zip(ks, priors)):
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (k,):
            raise ParameterError(f"prior for attribute {a} has shape {vec.shape}, expected ({k},)")
        if (vec < 0).any() or abs(vec.sum() - 1.0) > 1e-9:
            raise ParameterError(f"prior for attribute {a} is not a distribution")
        out.append(vec)
    return out


def uniform_priors(ks: Sequence[int]) -> list[np.ndarray]:
    return [np.full(k, 1.0 / k) for k in ks]


def value_dtype(ks: Sequence[int]) -> np.dtype:
    """Narrowest dtype that holds a value of every attribute: uint8 up to k = 256."""
    return np.min_scalar_type(max(ks) - 1)


def _check_rows(rows, ks: Sequence[int]) -> np.ndarray:
    """``rows`` as an (n, d) matrix with column a in [0, ks[a]), else DomainError.

    The sanitizers check their whole input here before any draw, so bad input
    fails whichever attribute a user would sample; :func:`oracles.as_indices`
    refuses a fractional, non-finite or out-of-range value, and keeps an
    integer matrix in its own dtype.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != len(ks):
        raise DomainError(f"rows must be an (n, {len(ks)}) matrix, got shape {rows.shape}")
    return as_indices(rows, ks, "attribute value")


# Largest domain _categorical draws by counting: uint8 holds its 255 thresholds.
_COUNT_MAX_K = 256


def _categorical(pvec: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of categorical draws from one probability vector.

    The law: one uniform u = rng.random() per draw, and the draw is the number
    of cumulative masses c_0..c_{k-2} with c <= u, the searchsorted 'right'
    index of u in the cumulative sums with the last one set to 1.0.  A
    zero-mass value repeats a threshold, so u never lands on it, and u < 1
    keeps the index below k.  Up to ``_COUNT_MAX_K`` values the count is one
    uint8 compare-and-add pass per threshold, which beats the binary search's
    scattered loads.  The pass count grows with k, so the gain shrinks: at
    100k draws about 0.5 against 2.8 ms at k = 4 but 6.4 against 8.3 ms at
    k = 256, where uint8 runs out; those draws stay uint8.  Larger domains keep
    ``searchsorted`` and int64."""
    cum = np.cumsum(pvec)
    cum[-1] = 1.0  # guard float round-off at the top edge
    u = rng.random(size)
    if len(cum) > _COUNT_MAX_K:
        return np.searchsorted(cum, u, side="right").astype(np.int64)
    idx = np.zeros(size, dtype=np.uint8)
    for c in cum[:-1]:
        idx += u >= c
    return idx


# ---------------------------------------------------------------------------
# SPL and SMP
# ---------------------------------------------------------------------------

def spl_sanitize_batch(rows: np.ndarray, ks: Sequence[int], protocol: str, epsilon: float,
                       rng: np.random.Generator) -> list[ReportBatch]:
    """SPL for n users: attribute a's column randomized at epsilon / d, one batch each."""
    rows = _check_rows(rows, ks)
    params = [protocol_params(protocol, epsilon / len(ks), k) for k in ks]
    return [randomize_batch(rows[:, a], p, rng) for a, p in enumerate(params)]


def smp_sample(reported: np.ndarray, attrs: Sequence[int], sampling_mode: str,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The SMP sampling law: one attribute of the pool ``attrs`` per user.

    ``reported`` is the (n, d) bool matrix of attributes each user has
    reported so far; it is updated in place.  ``without_replacement`` draws
    uniformly over the user's unreported pool attributes, and over the whole
    pool once none are left; ``with_replacement`` draws uniformly over the
    pool.  Both draw an (n, len(attrs)) matrix of uniform keys; dropping the
    draw where ``with_replacement`` ignores it would move its reident tables.

    Returns (js, fresh).  A user with ``fresh`` false drew an attribute
    reported before and re-sends its memoized report, in both modes.
    """
    if sampling_mode not in SAMPLING_MODES:
        raise ParameterError(f"unknown sampling_mode {sampling_mode!r}")
    attrs = np.asarray(attrs)
    n = len(reported)
    keys = rng.random((n, len(attrs)))
    if sampling_mode == "without_replacement":
        js = attrs[np.argmin(keys + reported[:, attrs], axis=1)]
    else:
        js = attrs[rng.integers(0, len(attrs), size=n)]
    fresh = ~reported[np.arange(n), js]
    reported[np.arange(n), js] = True
    return js, fresh


# ---------------------------------------------------------------------------
# Fake-data engine (RS+FD and RS+RFD): one collection description, batch core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollectionConfig:
    """How fake-data tuples are produced; everything the server and attacker know.

    ``ks`` holds the domain size of each attribute.  The constructor refuses
    an empty ``ks`` or a k that is not an integer >= 2, and a (solution,
    variant, priors) combination the engine does not run, before any draw.
    It stores ``ks`` as a tuple of ints and resolves ``fake``, the
    per-attribute fake distribution: uniform for rs_fd, the validated
    ``priors`` for rs_rfd (required there, ignored by rs_fd) and None for
    sue_z / oue_z, whose fakes are randomized all-zero vectors.
    """

    ks: tuple[int, ...]
    solution: str            # 'rs_fd' | 'rs_rfd'
    variant: str             # a tag of FAKE_DATA_VARIANTS[solution]
    epsilon: float
    priors: tuple | None = None
    fake: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.ks) < 1:
            raise DomainError("a collection needs at least one attribute")
        object.__setattr__(self, "ks", tuple(check_domain_size(k) for k in self.ks))
        if self.solution not in FAKE_DATA_VARIANTS:
            raise ParameterError(f"{self.solution!r} is not a fake-data solution (rs_fd, rs_rfd)")
        check_collection(self.solution, self.variant)
        if self.variant.endswith("_z"):
            fake = None
        elif self.solution == "rs_fd":
            fake = tuple(uniform_priors(self.ks))
        elif self.priors is None:
            raise ParameterError("rs_rfd needs one prior vector per attribute")
        else:
            fake = tuple(validate_priors(self.priors, self.ks))
        object.__setattr__(self, "fake", fake)

    def params(self, a: int) -> ProtocolParams:
        """Randomizer parameters for attribute a's sampled slot, at the amplified budget."""
        return protocol_params(variant_oracle(self.variant),
                               amplified_epsilon(self.epsilon, len(self.ks)), self.ks[a])


def variant_oracle(variant: str) -> str:
    """The frequency oracle a variant tag randomizes with: grr, sue or oue."""
    return variant.split("_")[0]


def check_collection(solution: str, protocol: str) -> None:
    """Reject a (solution, protocol) pair no collection runs: smp takes one of the five
    oracles, rs_fd and rs_rfd a variant tag of ``FAKE_DATA_VARIANTS``."""
    protocols = {"smp": PROTOCOLS, **FAKE_DATA_VARIANTS}.get(solution)
    if protocols is None:
        raise ParameterError(f"unknown solution {solution!r}; use smp, rs_fd or rs_rfd")
    if protocol not in protocols:
        raise ParameterError(f"{solution} protocol must be one of {protocols}, got {protocol!r}")


def rs_sanitize_batch(
    rows: np.ndarray, cfg: CollectionConfig, rng: np.random.Generator
) -> tuple[list[ReportBatch], np.ndarray]:
    """Client side for n users: (batches under ``cfg.params(a)``, simulator-only sampled indices).

    Every fake draw goes through ``cfg.fake``, so rs_fd (uniform) and rs_rfd
    (priors) consume the random stream identically at equal seeds.  The
    reports go straight into one C-contiguous report matrix: (n, d) of
    ``value_dtype(cfg.ks)`` for grr, else (n, sum(ks)) uint8 bits.  Batch a's
    data is its column ``M[:, a]`` (grr) or its ks[a]-column slice, and
    ``attacks.encode_features`` hands the matrix on without a copy.
    """
    rows = _check_rows(rows, cfg.ks)
    n, d = rows.shape
    sampled = rng.integers(0, d, size=n)
    batches = []
    grr = cfg.variant == "grr"
    M = np.empty((n, d) if grr else (n, sum(cfg.ks)),
                 dtype=value_dtype(cfg.ks) if grr else np.uint8)
    ends = np.cumsum(cfg.ks)
    for a, k in enumerate(cfg.ks):
        params = cfg.params(a)
        # index arrays, not masks: one gather and two row scatters per attribute
        real, fake = np.flatnonzero(sampled == a), np.flatnonzero(sampled != a)
        col = M[:, a] if grr else M[:, ends[a] - k : ends[a]]
        col[real] = randomize_batch(rows[real, a], params, rng).data
        if cfg.fake is None:  # sue_z / oue_z: all-zero fakes
            col[fake] = unary_bits(len(fake), k, params.q, rng)
        else:  # a categorical fake draw, unary-encoded under sue_r / oue_r
            fakes = _categorical(cfg.fake[a], len(fake), rng)
            col[fake] = fakes if grr else randomize_batch(fakes, params, rng).data
        batches.append(ReportBatch(params, col))
    return batches, sampled


def _fake_support(cfg: CollectionConfig, a: int, params: ProtocolParams):
    """Probability s that a fake slot of attribute a supports each value: with t the fake
    distribution, t for grr, t (p-q) + q for sue_r / oue_r and q for sue_z / oue_z."""
    if cfg.fake is None:
        return params.q
    if cfg.variant == "grr":
        return cfg.fake[a]
    return cfg.fake[a] * (params.p - params.q) + params.q


def rs_estimate_from_counts(
    counts: Sequence[np.ndarray], cfg: CollectionConfig, n: int
) -> list[np.ndarray]:
    """Debias per-attribute support counts by removing the fake slots' support.

    d-1 of a user's d slots are fakes supporting a value with probability s
    (:func:`_fake_support`), so the oracle's own estimator inverts d c - n (d-1) s.
    """
    d = len(cfg.ks)
    out = []
    for a, c in enumerate(counts):
        params = cfg.params(a)
        fakes = n * (d - 1) * _fake_support(cfg, a, params)
        out.append(estimate_from_counts(d * np.asarray(c, dtype=np.float64) - fakes, n, params))
    return out


def rs_estimate(batches: Sequence[ReportBatch], cfg: CollectionConfig) -> list[np.ndarray]:
    """Raw unbiased per-attribute frequency estimates from one batch per attribute."""
    return rs_estimate_from_counts([support_counts(b) for b in batches], cfg, len(batches[0]))


def rs_variance(freqs: Sequence[np.ndarray], cfg: CollectionConfig, n: int) -> list[np.ndarray]:
    """Closed-form per-attribute variance of the fake-data estimator at true ``freqs``.

    gamma is the probability that one report supports a value, read off the
    sampling probability tree:

      gamma = (q + f (p-q) + (d-1) s) / d

    with s the support probability of a fake slot (:func:`_fake_support`).
    """
    d = len(cfg.ks)
    out = []
    for a in range(d):
        params = cfg.params(a)
        p, q = params.p, params.q
        s = _fake_support(cfg, a, params)
        gamma = (q + np.asarray(freqs[a], dtype=np.float64) * (p - q) + (d - 1) * s) / d
        if not ((0.0 <= gamma) & (gamma <= 1.0)).all():
            raise ParameterError(f"inconsistent parameters: gamma={gamma} outside [0, 1]")
        out.append(d * d * gamma * (1.0 - gamma) / (n * (p - q) ** 2))
    return out
