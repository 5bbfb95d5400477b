"""Multidimensional collection: budget splitting, sampling, and fake data.

Four families of solutions for collecting d categorical attributes per user:

* ``spl``    -- split the budget: every attribute randomized at epsilon/d.
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
its fake distribution; ``rs_sanitize_batch`` / ``rs_sanitize``,
``rs_estimate`` / ``rs_estimate_from_counts`` and ``rs_variance`` take it
for every solution and variant.

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
    SanitizedReport,
    protocol_params,
    randomize,
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
    def from_ks(cls, ks: Sequence[int], names: Sequence[str] | None = None) -> "MultiDomain":
        if names is None:
            names = [f"a{i}" for i in range(len(ks))]
        return cls(
            tuple(
                AttributeDomain(name, tuple(f"{name}_v{v}" for v in range(k)))
                for name, k in zip(names, ks)
            )
        )


@dataclass(frozen=True)
class SmpReport:
    """Sampling-solution output: the sampled attribute index is disclosed."""

    sampled_index: int
    report: SanitizedReport


@dataclass(frozen=True)
class FullVector:
    """Full d-length output of spl / rs_fd / rs_rfd; never discloses the sampled slot.

    ``protocol`` is the oracle under spl and the variant tag under rs_*.
    """

    solution: str
    reports: tuple
    protocol: str


SurveyTuple = SmpReport | FullVector


@dataclass
class SmpUserState:
    """Per-user sampling state carried across surveys.

    ``memo`` maps each attribute the user has reported to the report sent;
    a repeat of that attribute re-sends it unchanged.
    """

    memo: dict = field(default_factory=dict)


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


def _categorical(pvec: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of categorical draws from one probability vector."""
    cum = np.cumsum(pvec)
    cum[-1] = 1.0  # guard float round-off at the top edge
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return np.minimum(idx, len(pvec) - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# SPL and SMP
# ---------------------------------------------------------------------------

def spl_sanitize(
    values: Sequence[int],
    md: MultiDomain,
    protocol: str,
    epsilon: float,
    rng: np.random.Generator,
) -> FullVector:
    """Randomize every attribute at epsilon / d."""
    if len(values) != md.d:
        raise DomainError(f"expected {md.d} values, got {len(values)}")
    eps_split = epsilon / md.d
    reports = tuple(
        randomize(int(values[a]), protocol_params(protocol, eps_split, dom.k), rng)
        for a, dom in enumerate(md.domains)
    )
    return FullVector(solution="spl", reports=reports, protocol=protocol)


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


def smp_sanitize(
    values: Sequence[int],
    md: MultiDomain,
    protocol: str,
    epsilon: float,
    rng: np.random.Generator,
    sampling_mode: str,
    state: SmpUserState,
    attrs: Sequence[int] | None = None,
) -> SmpReport:
    """Sample one attribute and spend the full budget on it.

    One user's draw through :func:`smp_sample`; ``state.memo`` holds the
    reports sent so far, so a repeated attribute (with replacement, or once
    the pool is exhausted without) re-sends its report unchanged.  ``attrs``
    restricts the draw to a survey's attribute subset (default: all
    attributes).
    """
    if len(values) != md.d:
        raise DomainError(f"expected {md.d} values, got {len(values)}")
    pool = np.arange(md.d) if attrs is None else np.sort(np.asarray(attrs, dtype=np.int64))
    reported = np.isin(np.arange(md.d), list(state.memo))[None]
    js, fresh = smp_sample(reported, pool, sampling_mode, rng)
    j = int(js[0])
    if fresh[0]:
        params = protocol_params(protocol, epsilon, md.domains[j].k)
        state.memo[j] = randomize(int(values[j]), params, rng)
    return SmpReport(j, state.memo[j])


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
    rows = np.asarray(rows, dtype=np.int64)
    md = cfg.md
    n, d = rows.shape
    if d != md.d:
        raise DomainError(f"rows have {d} columns, domain has {md.d}")
    sampled = rng.integers(0, d, size=n)
    columns = []
    grr = cfg.variant == "grr"
    for a, k in enumerate(md.ks):
        params = cfg.params(a)
        mask = sampled == a
        m = int(mask.sum())
        col = np.empty(n if grr else (n, k), dtype=np.int64 if grr else np.uint8)
        col[mask] = randomize_batch(rows[mask, a], params, rng).data
        if cfg.fake is None:  # sue_z / oue_z: all-zero fakes
            col[~mask] = unary_bits(n - m, k, params.q, rng)
        else:  # a categorical fake draw, unary-encoded under sue_r / oue_r
            fakes = _categorical(cfg.fake[a], n - m, rng)
            col[~mask] = fakes if grr else randomize_batch(fakes, params, rng).data
        columns.append(col)
    return TupleBatch(cfg, columns), sampled


def rs_sanitize(
    values: Sequence[int], cfg: CollectionConfig, rng: np.random.Generator
) -> tuple[FullVector, int]:
    """Single-user wrapper; returns the tuple and (simulator-only) sampled index."""
    batch, sampled = rs_sanitize_batch(np.asarray([values], dtype=np.int64), cfg, rng)
    reports = tuple(batch.column(a).reports()[0] for a in range(cfg.md.d))
    tup = FullVector(solution=cfg.solution, reports=reports, protocol=cfg.variant)
    return tup, int(sampled[0])


def rs_estimate_from_counts(
    counts: Sequence[np.ndarray], cfg: CollectionConfig, n: int
) -> list[np.ndarray]:
    """Debias per-attribute support counts by inverting the fake mass t.

    t is the fake distribution (1/k for rs_fd, the prior for rs_rfd) and 0
    for sue_z / oue_z:

      grr:  f = (d c - n (q + (d-1) t)) / (n (p-q))
      UE :  f = (d c - n (q + (p-q)(d-1) t + q (d-1))) / (n (p-q))
    """
    d = cfg.md.d
    out = []
    for a in range(d):
        params = cfg.params(a)
        p, q = params.p, params.q
        c = np.asarray(counts[a], dtype=np.float64)
        t = 0.0 if cfg.fake is None else cfg.fake[a]
        if cfg.variant == "grr":
            est = (d * c - n * (q + (d - 1) * t)) / (n * (p - q))
        else:
            est = (d * c - n * (q + (p - q) * (d - 1) * t + q * (d - 1))) / (n * (p - q))
        out.append(est)
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

    with s the support probability of a fake slot: the fake mass t for grr,
    t (p-q) + q for sue_r / oue_r, and q for sue_z / oue_z.
    """
    d = cfg.md.d
    out = []
    for a in range(d):
        params = cfg.params(a)
        p, q = params.p, params.q
        if cfg.fake is None:
            fake_support = q
        elif cfg.variant == "grr":
            fake_support = cfg.fake[a]
        else:
            fake_support = cfg.fake[a] * (p - q) + q
        gamma = (q + np.asarray(freqs[a], dtype=np.float64) * (p - q) + (d - 1) * fake_support) / d
        if not ((0.0 <= gamma) & (gamma <= 1.0)).all():
            raise ParameterError(f"inconsistent parameters: gamma={gamma} outside [0, 1]")
        out.append(d * d * gamma * (1.0 - gamma) / (n * (p - q) ** 2))
    return out
