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
matrix of value indices and check all of it before any draw.

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
    AttributeDomain,
    ProtocolParams,
    ReportBatch,
    as_indices,
    estimate_from_counts,
    protocol_params,
    randomize_batch,
    support_counts,
    unary_bits,
)

FAKE_DATA_VARIANTS = {"rs_fd": ("grr", "sue_z", "oue_z", "sue_r", "oue_r"),
                      "rs_rfd": ("grr", "sue_r", "oue_r")}
SAMPLING_MODES = ("without_replacement", "with_replacement")


@dataclass(frozen=True)
class MultiDomain:
    """An ordered collection of categorical attribute domains."""

    domains: tuple[AttributeDomain, ...]

    def __post_init__(self):
        if len(self.domains) < 1:
            raise DomainError("MultiDomain needs at least one attribute")

    @property
    def d(self) -> int:
        return len(self.domains)

    @property
    def ks(self) -> tuple[int, ...]:
        return tuple(dom.k for dom in self.domains)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(dom.name for dom in self.domains)

    @classmethod
    def from_ks(cls, ks: Sequence[int]) -> "MultiDomain":
        return cls(tuple(AttributeDomain(f"a{i}", tuple(f"a{i}_v{v}" for v in range(k)))
                         for i, k in enumerate(ks)))


def amplified_epsilon(epsilon: float, d: int) -> float:
    """Budget amplification from sampling 1 of d attributes: ln(d(e^eps - 1) + 1)."""
    if epsilon <= 0:
        raise ParameterError("epsilon must be > 0")
    if d < 1:
        raise ParameterError("d must be >= 1")
    return math.log(d * (math.exp(epsilon) - 1.0) + 1.0)


def validate_priors(priors: Sequence[np.ndarray], md: MultiDomain) -> list[np.ndarray]:
    """Check one non-negative unit-sum vector per attribute."""
    if len(priors) != md.d:
        raise ParameterError(f"expected {md.d} prior vectors, got {len(priors)}")
    out = []
    for dom, vec in zip(md.domains, priors):
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (dom.k,):
            raise ParameterError(f"prior for {dom.name!r} has shape {vec.shape}, expected ({dom.k},)")
        if (vec < 0).any() or abs(vec.sum() - 1.0) > 1e-9:
            raise ParameterError(f"prior for {dom.name!r} is not a distribution")
        out.append(vec)
    return out


def uniform_priors(md: MultiDomain) -> list[np.ndarray]:
    return [np.full(k, 1.0 / k) for k in md.ks]


def _check_rows(rows, md: MultiDomain) -> np.ndarray:
    """``rows`` as an (n, d) int64 matrix with column a in [0, k_a), else DomainError.

    The sanitizers check their whole input here before any draw, so bad input
    fails whichever attribute a user would sample; :func:`oracles.as_indices`
    refuses a fractional, non-finite or out-of-range value.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != md.d:
        raise DomainError(f"rows must be an (n, {md.d}) matrix, got shape {rows.shape}")
    return as_indices(rows, md.ks, "attribute value")


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
    k = 256, where uint8 runs out.  Larger domains keep ``searchsorted``.
    """
    cum = np.cumsum(pvec)
    cum[-1] = 1.0  # guard float round-off at the top edge
    u = rng.random(size)
    if len(cum) > _COUNT_MAX_K:
        return np.searchsorted(cum, u, side="right").astype(np.int64)
    idx = np.zeros(size, dtype=np.uint8)
    for c in cum[:-1]:
        idx += u >= c
    return idx.astype(np.int64)


# ---------------------------------------------------------------------------
# SPL and SMP
# ---------------------------------------------------------------------------

def spl_sanitize_batch(rows: np.ndarray, md: MultiDomain, protocol: str, epsilon: float,
                       rng: np.random.Generator) -> list[ReportBatch]:
    """SPL for n users: attribute a's column randomized at epsilon / d, one batch each."""
    rows = _check_rows(rows, md)
    params = [protocol_params(protocol, epsilon / md.d, k) for k in md.ks]
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

    The constructor rejects a (solution, variant, priors) combination the
    engine does not run and resolves ``fake``, the per-attribute fake
    distribution: uniform for rs_fd, the validated ``priors`` for rs_rfd
    (required there, ignored by rs_fd) and None for sue_z / oue_z, whose
    fakes are randomized all-zero vectors.
    """

    md: MultiDomain
    solution: str            # 'rs_fd' | 'rs_rfd'
    variant: str             # a tag of FAKE_DATA_VARIANTS[solution]
    epsilon: float
    priors: tuple | None = None
    fake: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_collection(self.solution, self.variant)
        if self.variant.endswith("_z"):
            fake = None
        elif self.solution == "rs_fd":
            fake = tuple(uniform_priors(self.md))
        elif self.priors is None:
            raise ParameterError("rs_rfd needs one prior vector per attribute")
        else:
            fake = tuple(validate_priors(self.priors, self.md))
        object.__setattr__(self, "fake", fake)

    def params(self, a: int) -> ProtocolParams:
        """Randomizer parameters for attribute a's sampled slot, at the amplified budget."""
        return protocol_params(variant_oracle(self.variant),
                               amplified_epsilon(self.epsilon, self.md.d), self.md.domains[a].k)


def variant_oracle(variant: str) -> str:
    """The frequency oracle a variant tag randomizes with: grr, sue or oue."""
    return variant.split("_")[0]


def check_collection(solution: str, variant: str) -> None:
    """Reject a (solution, variant) pair the fake-data engine does not run."""
    variants = FAKE_DATA_VARIANTS.get(solution)
    if variants is None:
        raise ParameterError(
            f"unknown fake-data solution {solution!r}; use one of {tuple(FAKE_DATA_VARIANTS)}"
        )
    if variant not in variants:
        raise ParameterError(f"{solution} variant must be one of {variants}, got {variant!r}")


@dataclass
class TupleBatch:
    """Column-oriented batch of full-vector survey tuples.

    ``columns[a]`` holds attribute a's reports for all n users in the
    layout of its oracle's ``ReportBatch``: an int vector for grr, a
    (n, k_a) uint8 matrix for the unary-encoding variants.  The sampled
    attribute indices are intentionally NOT stored here; the simulator
    keeps them separately when it needs ground truth.
    """

    cfg: CollectionConfig
    columns: list

    def __len__(self) -> int:
        return len(self.columns[0])

    def column(self, a: int) -> ReportBatch:
        """Attribute a's reports as a batch of its sampled-slot oracle."""
        return ReportBatch(self.cfg.params(a), self.columns[a])


def rs_sanitize_batch(
    rows: np.ndarray, cfg: CollectionConfig, rng: np.random.Generator
) -> tuple[TupleBatch, np.ndarray]:
    """Client side for n users; returns (batch, simulator-only sampled indices).

    Every fake draw goes through ``cfg.fake``, so rs_fd (uniform) and rs_rfd
    (priors) consume the random stream identically at equal seeds.
    """
    md = cfg.md
    rows = _check_rows(rows, md)
    n, d = rows.shape
    sampled = rng.integers(0, d, size=n)
    columns = []
    grr = cfg.variant == "grr"
    for a, k in enumerate(md.ks):
        params = cfg.params(a)
        # index arrays, not masks: one gather and two row scatters per attribute
        real, fake = np.flatnonzero(sampled == a), np.flatnonzero(sampled != a)
        col = np.empty(n if grr else (n, k), dtype=np.int64 if grr else np.uint8)
        col[real] = randomize_batch(rows[real, a], params, rng).data
        if cfg.fake is None:  # sue_z / oue_z: all-zero fakes
            col[fake] = unary_bits(len(fake), k, params.q, rng)
        else:  # a categorical fake draw, unary-encoded under sue_r / oue_r
            fakes = _categorical(cfg.fake[a], len(fake), rng)
            col[fake] = fakes if grr else randomize_batch(fakes, params, rng).data
        columns.append(col)
    return TupleBatch(cfg, columns), sampled


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
    d = cfg.md.d
    out = []
    for a, c in enumerate(counts):
        params = cfg.params(a)
        fakes = n * (d - 1) * _fake_support(cfg, a, params)
        out.append(estimate_from_counts(d * np.asarray(c, dtype=np.float64) - fakes, n, params))
    return out


def rs_estimate(batch: TupleBatch) -> list[np.ndarray]:
    """Raw unbiased per-attribute frequency estimates for a tuple batch."""
    counts = [support_counts(batch.column(a)) for a in range(batch.cfg.md.d)]
    return rs_estimate_from_counts(counts, batch.cfg, len(batch))


def rs_variance(freqs: Sequence[np.ndarray], cfg: CollectionConfig, n: int) -> list[np.ndarray]:
    """Closed-form per-attribute variance of the fake-data estimator at true ``freqs``.

    gamma is the probability that one report supports a value, read off the
    sampling probability tree:

      gamma = (q + f (p-q) + (d-1) s) / d

    with s the support probability of a fake slot (:func:`_fake_support`).
    """
    d = cfg.md.d
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
