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
(or its parts) for every solution and variant.

The variants are ``grr`` (plain values), ``ue_z`` (unary encoding on
all-zero fake vectors, rs_fd only) and ``ue_r`` (unary encoding on one-hot
fakes).  UE variants take a ``flavor`` of ``sue`` or ``oue``.

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
    SanitizedReport,
    ValueReport,
    BitsReport,
    protocol_params,
    randomize,
    randomize_batch,
    unary_bits,
)

RS_FD_VARIANTS = ("grr", "ue_z", "ue_r")
RS_RFD_VARIANTS = ("grr", "ue_r")
FAKE_DATA_VARIANTS = {"rs_fd": RS_FD_VARIANTS, "rs_rfd": RS_RFD_VARIANTS}
UE_FLAVORS = ("sue", "oue")
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
    """Full d-length output of spl / rs_fd / rs_rfd; never discloses the sampled slot."""

    solution: str
    reports: tuple
    variant: str | None = None
    flavor: str | None = None


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


def rs_params(variant: str, flavor: str | None, epsilon: float, d: int, k: int) -> ProtocolParams:
    """Randomizer parameters for the sampled slot of rs_fd / rs_rfd."""
    eps_amp = amplified_epsilon(epsilon, d)
    if variant == "grr":
        return protocol_params("grr", eps_amp, k)
    if variant in ("ue_z", "ue_r"):
        if flavor not in UE_FLAVORS:
            raise ParameterError(f"UE variant needs flavor in {UE_FLAVORS}, got {flavor!r}")
        return protocol_params(flavor, eps_amp, k)
    raise ParameterError(f"unknown variant {variant!r}")


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
    return FullVector(solution="spl", reports=reports, flavor=protocol)


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

    The constructor rejects a (solution, variant, flavor, priors) combination
    the engine does not run and resolves ``fake``, the per-attribute fake
    distribution: uniform for rs_fd, the validated ``priors`` for rs_rfd
    (required there, ignored by rs_fd) and None for ue_z, whose fakes are
    randomized all-zero vectors.
    """

    md: MultiDomain
    solution: str            # 'rs_fd' | 'rs_rfd'
    variant: str
    flavor: str | None
    epsilon: float
    priors: tuple | None = None
    fake: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_collection(self.solution, self.variant, self.flavor)
        if self.variant == "ue_z":
            fake = None
        elif self.solution == "rs_fd":
            fake = tuple(uniform_priors(self.md))
        elif self.priors is None:
            raise ParameterError("rs_rfd needs one prior vector per attribute")
        else:
            fake = tuple(validate_priors(self.priors, self.md))
        object.__setattr__(self, "fake", fake)

    def params(self, a: int) -> ProtocolParams:
        """Randomizer parameters for attribute a's sampled slot."""
        return rs_params(self.variant, self.flavor, self.epsilon, self.md.d,
                         self.md.domains[a].k)


def check_collection(solution: str, variant: str, flavor: str | None) -> None:
    """Reject a (solution, variant, flavor) triple the fake-data engine does not run."""
    variants = FAKE_DATA_VARIANTS.get(solution)
    if variants is None:
        raise ParameterError(
            f"unknown fake-data solution {solution!r}; use one of {tuple(FAKE_DATA_VARIANTS)}"
        )
    if variant not in variants:
        raise ParameterError(f"{solution} variant must be one of {variants}, got {variant!r}")
    if variant != "grr" and flavor not in UE_FLAVORS:
        raise ParameterError(f"UE variant needs flavor in {UE_FLAVORS}, got {flavor!r}")


@dataclass
class TupleBatch:
    """Column-oriented batch of full-vector survey tuples.

    ``columns[a]`` holds attribute a's reports for all n users: an int
    vector for the grr variant, a (n, k_a) uint8 matrix for ue variants.
    The sampled attribute indices are intentionally NOT stored here; the
    simulator keeps them separately when it needs ground truth.
    """

    cfg: CollectionConfig
    columns: list

    def __len__(self) -> int:
        first = self.columns[0]
        return len(first)


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
    for a, dom in enumerate(md.domains):
        k = dom.k
        params = cfg.params(a)
        mask = sampled == a
        m = int(mask.sum())
        if cfg.variant == "grr":
            col = np.empty(n, dtype=np.int64)
            col[mask] = randomize_batch(rows[mask, a], params, rng).data
            col[~mask] = _categorical(cfg.fake[a], n - m, rng)
        else:
            col = np.empty((n, k), dtype=np.uint8)
            col[mask] = randomize_batch(rows[mask, a], params, rng).data
            if cfg.variant == "ue_z":
                col[~mask] = unary_bits(n - m, k, params.q, rng)
            else:  # ue_r: unary-encode a categorical fake draw
                fake_vals = _categorical(cfg.fake[a], n - m, rng)
                col[~mask] = randomize_batch(fake_vals, params, rng).data
        columns.append(col)
    return TupleBatch(cfg, columns), sampled


def rs_sanitize(
    values: Sequence[int], cfg: CollectionConfig, rng: np.random.Generator
) -> tuple[FullVector, int]:
    """Single-user wrapper; returns the tuple and (simulator-only) sampled index."""
    batch, sampled = rs_sanitize_batch(np.asarray([values], dtype=np.int64), cfg, rng)
    reports = []
    for col in batch.columns:
        if cfg.variant == "grr":
            reports.append(ValueReport(int(col[0])))
        else:
            reports.append(BitsReport(tuple(int(b) for b in col[0])))
    tup = FullVector(solution=cfg.solution, reports=tuple(reports),
                     variant=cfg.variant, flavor=cfg.flavor)
    return tup, int(sampled[0])


def _batch_counts(batch: TupleBatch) -> list[np.ndarray]:
    counts = []
    for a, dom in enumerate(batch.cfg.md.domains):
        col = batch.columns[a]
        if batch.cfg.variant == "grr":
            counts.append(np.bincount(col, minlength=dom.k).astype(np.int64))
        else:
            counts.append(col.sum(axis=0, dtype=np.int64))
    return counts


def rs_estimate_from_counts(
    counts: Sequence[np.ndarray], cfg: CollectionConfig, n: int
) -> list[np.ndarray]:
    """Debias per-attribute support counts by inverting the fake mass t.

    t is the fake distribution (1/k for rs_fd, the prior for rs_rfd) and 0
    for ue_z:

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
    return rs_estimate_from_counts(_batch_counts(batch), batch.cfg, len(batch))


def rs_variance(
    f_v: float,
    fake_v: float,
    p: float,
    q: float,
    d: int,
    n: int,
    variant: str = "grr",
) -> float:
    """Closed-form variance of the fake-data estimator for one value.

    ``fake_v`` is the fake distribution's mass on the value (1/k for rs_fd,
    the prior for rs_rfd; ue_z ignores it).  gamma is the probability that
    one report supports the value, read off the sampling probability tree:

      gamma = (q + f (p-q) + (d-1) s) / d

    with s the support probability of a fake slot: f_tilde for grr,
    f_tilde (p-q) + q for ue_r, and q for ue_z.
    """
    if variant == "grr":
        fake_support = fake_v
    elif variant == "ue_r":
        fake_support = fake_v * (p - q) + q
    elif variant == "ue_z":
        fake_support = q
    else:
        raise ParameterError(f"variance defined for {RS_FD_VARIANTS}, got {variant!r}")
    gamma = (q + f_v * (p - q) + (d - 1) * fake_support) / d
    if not (0.0 <= gamma <= 1.0):
        raise ParameterError(f"inconsistent parameters: gamma={gamma} outside [0, 1]")
    return d * d * gamma * (1.0 - gamma) / (n * (p - q) ** 2)
