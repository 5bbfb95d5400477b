"""Adversary procedures against sanitized reports.

Three attack families:

* **Report-level value prediction** -- the per-protocol "most likely value"
  rules, their exact expected accuracies, and the multi-collection products
  for uniform / non-uniform sampling regimes.
* **Re-identification** -- Hamming matching of an inferred profile against a
  background-knowledge table, scored as top-k membership (RID-ACC).
* **Sampled-attribute inference** -- training a classifier to uncover which
  slot of a fake-data tuple carries the real report (AIF-ACC), under the
  no-knowledge (synthetic training data), partial-knowledge (compromised
  users) and hybrid regimes.

Accuracy conventions: all *ACC values are percentages in [0, 100].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

from .budget import alpha_from_bayes_error, bayes_alpha_clamped, epsilon_from_alpha
from .errors import ParameterError
from .classifier import NaiveBayes
from .datasets import synthesize_profiles
from .multidim import (
    FAKE_DATA_VARIANTS,
    CollectionConfig,
    MultiDomain,
    TupleBatch,
    rs_estimate,
    rs_sanitize_batch,
)
from .oracles import (
    ProtocolParams,
    ReportBatch,
    SanitizedReport,
    clip_normalize,
    protocol_params,
    randomize_batch,
)
from .rng import hash_bucket, stream

# epsilon assigned when an alpha budget of 0 admits no randomizer; at this
# scale every protocol is indistinguishable from its epsilon -> 0 limit
EPSILON_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# Per-report value prediction
# ---------------------------------------------------------------------------

def _pick_from_rows(matrix: np.ndarray, counts: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Uniform pick of a set column per row of a 0/1 matrix.

    Rows with no set column fall back to a uniform draw over [0, k).
    """
    n = len(matrix)
    r = rng.integers(0, np.maximum(counts, 1))
    cs = np.cumsum(matrix, axis=1)
    pred = np.argmax(cs > r[:, None], axis=1)
    empty = counts == 0
    if empty.any():
        pred[empty] = rng.integers(0, k, int(empty.sum()))
    return pred


def predict_batch(batch: ReportBatch, rng: np.random.Generator) -> np.ndarray:
    """Attacker's most-likely-value guess for every report in the batch."""
    params = batch.params
    k = params.k
    proto = params.protocol
    if proto == "grr":
        return batch.data.copy()
    if proto == "olh":
        seeds, buckets = batch.data
        cand = np.arange(k, dtype=np.uint64)
        matches = (hash_bucket(seeds[:, None], cand[None, :], params.aux)
                   == buckets[:, None]).astype(np.uint8)
        return _pick_from_rows(matches, matches.sum(axis=1), k, rng)
    if proto == "ss":
        n, omega = batch.data.shape
        pick = rng.integers(0, omega, n)
        return batch.data[np.arange(n), pick]
    bits = batch.data
    return _pick_from_rows(bits, bits.sum(axis=1), k, rng)


def predict_value(report: SanitizedReport, params: ProtocolParams,
                  rng: np.random.Generator) -> int:
    """Single-report prediction; see :func:`predict_batch` for the rules.

    GRR reports are taken at face value; OLH picks uniformly among the
    candidates hashing to the reported bucket; SS picks uniformly inside
    the subset; UE picks the single set bit, a uniform set bit, or a
    uniform domain value when no bit is set.
    """
    from .oracles import as_batch

    return int(predict_batch(as_batch([report], params), rng)[0])


def analytic_acc(protocol: str, epsilon: float, k: int) -> float:
    """Exact expected attack accuracy (percent) against one report.

    GRR, SUE and OUE use their closed forms directly.  OLH and SS evaluate
    the exact expectation under the integerized bucket count / subset size
    the randomizer actually uses; each reduces to the familiar
    (e^eps + 1) / (2 k)-style expression when the real-valued optimum is an
    integer (see tests for the equivalence checks).
    """
    params = protocol_params(protocol, epsilon, k)
    p, q = params.p, params.q
    if protocol == "grr":
        return 100.0 * p
    if protocol == "olh":
        g = params.aux
        hit = p * (1.0 - (1.0 - 1.0 / g) ** k) * g / k
        empty = (1.0 - p) * (1.0 - 1.0 / g) ** (k - 1) / k
        return 100.0 * (hit + empty)
    if protocol == "ss":
        return 100.0 * p / params.aux
    # sue / oue: true-bit branch picks among 1 + Bin(k-1, q) set bits,
    # all-zero branch guesses uniformly over the domain
    m = np.arange(k)
    s = float(np.sum(stats.binom.pmf(m, k - 1, q) / (m + 1)))
    return 100.0 * (p * s + (1.0 - p) * (1.0 - q) ** (k - 1) / k)


def multi_collection_acc(protocol: str, epsilon: float, ks: Sequence[int],
                         mode: str = "uniform") -> float:
    """Expected accuracy (percent) of recovering a full profile of len(ks) reports.

    ``uniform`` multiplies the per-collection accuracies (every user reports
    each attribute exactly once).  ``non_uniform`` additionally pays the
    (d + 1 - j)/d completion factors -- the probability that with-replacement
    sampling covers all d attributes, totalling d!/d^d.
    """
    if mode not in ("uniform", "non_uniform"):
        raise ParameterError(f"unknown mode {mode!r}")
    d = len(ks)
    acc = 1.0
    for j, k in enumerate(ks, start=1):
        acc *= analytic_acc(protocol, epsilon, k) / 100.0
        if mode == "non_uniform":
            acc *= (d + 1 - j) / d
    return 100.0 * acc


def empirical_attack_acc(protocol: str, epsilon: float, k: int, n: int,
                         rng: np.random.Generator) -> float:
    """Monte-Carlo attack accuracy (percent) over n fresh reports.

    The prediction rules are value-symmetric, so the accuracy does not
    depend on the underlying distribution; values are drawn uniformly.
    """
    params = protocol_params(protocol, epsilon, k)
    values = rng.integers(0, k, size=n)
    preds = predict_batch(randomize_batch(values, params, rng), rng)
    return 100.0 * float(np.mean(preds == values))


def smp_attack_acc_mc(protocol: str, epsilon: float, ks: Sequence[int],
                      mode: str, n: int, rng: np.random.Generator) -> float:
    """Monte-Carlo full-profile attack accuracy for the sampling solution.

    Simulates d surveys over d attributes.  Uniform mode samples without
    replacement (a fresh attribute each survey); non-uniform samples with
    replacement and only complete, all-distinct profiles can score.
    """
    d = len(ks)
    params = [protocol_params(protocol, epsilon, k) for k in ks]
    values = np.column_stack([rng.integers(0, k, size=n) for k in ks])
    if mode == "uniform":
        choice = np.argsort(rng.random((n, d)), axis=1)  # per-user permutation
    elif mode == "non_uniform":
        choice = rng.integers(0, d, size=(n, d))
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    correct = np.ones(n, dtype=bool)
    seen = np.zeros((n, d), dtype=bool)
    for s in range(d):
        js = choice[:, s]
        first = ~seen[np.arange(n), js]
        seen[np.arange(n), js] = True
        for a in range(d):
            m = (js == a) & first  # memoized repeats keep their old prediction
            cnt = int(m.sum())
            if cnt == 0:
                continue
            batch = randomize_batch(values[m, a], params[a], rng)
            preds = predict_batch(batch, rng)
            ok = preds == values[m, a]
            idx = np.flatnonzero(m)
            correct[idx[~ok]] = False
    complete = seen.all(axis=1)
    return 100.0 * float(np.mean(correct & complete))


# ---------------------------------------------------------------------------
# Re-identification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackerProfile:
    """Predicted attribute values accumulated for one user across surveys."""

    user_id: int
    predictions: dict  # attribute index -> predicted value index


@dataclass
class BackgroundKnowledge:
    """Identified records the attacker can match profiles against."""

    ids: np.ndarray
    rows: np.ndarray
    mode: str = "fk"
    columns: np.ndarray | None = None  # attribute subset visible under pk

    def __post_init__(self):
        self.ids = np.asarray(self.ids)
        self.rows = np.asarray(self.rows, dtype=np.int64)
        d = self.rows.shape[1]
        if self.mode == "fk":
            self.columns = np.arange(d)
        elif self.mode == "pk":
            if self.columns is None:
                raise ParameterError("pk background needs a column subset")
            self.columns = np.asarray(sorted(int(c) for c in self.columns))
            if len(self.columns) < math.ceil(d / 2):
                raise ParameterError("pk column subset must cover at least d/2 attributes")
        else:
            raise ParameterError(f"unknown background mode {self.mode!r}")


def reident_match(profile: AttackerProfile, background: BackgroundKnowledge,
                  top_k: int, rng: np.random.Generator) -> np.ndarray:
    """Top-k identities by Hamming distance over the predicted attributes.

    Unknown attributes are skipped; ties are broken by a seeded uniform
    shuffle so top-k membership is well defined and reproducible.
    """
    cols = [a for a in background.columns if a in profile.predictions]
    if not cols:
        raise ParameterError("profile has no predictions over the background columns")
    preds = np.asarray([profile.predictions[a] for a in cols])
    dist = (background.rows[:, cols] != preds[None, :]).sum(axis=1)
    tie = rng.random(len(dist))
    order = np.lexsort((tie, dist))
    return background.ids[order[:top_k]]


def _rank_of_true(profiles: np.ndarray, bk_rows: np.ndarray, bk_cols: np.ndarray,
                  rng: np.random.Generator, null_attack: bool = False,
                  chunk: int = 256) -> np.ndarray:
    """Rank (0-based) of each user's own record in the attacker's ordering.

    Equivalent to sorting records by (distance, seeded tie) and locating the
    true record; computed by counting strictly-better records instead of
    sorting.  ``profiles`` uses -1 for unknown.  With ``null_attack`` all
    distances are zero, so ranks are uniform -- the random-guess baseline.
    """
    n = len(profiles)
    n_bk = len(bk_rows)
    ranks = np.empty(n, dtype=np.int64)
    bk_sub = bk_rows[:, bk_cols]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        P = profiles[lo:hi][:, bk_cols]
        known = P >= 0
        if null_attack:
            dist = np.zeros((hi - lo, n_bk), dtype=np.int64)
        else:
            diff = (P[:, None, :] != bk_sub[None, :, :]) & known[:, None, :]
            dist = diff.sum(axis=2)
        tie = rng.random((hi - lo, n_bk))
        rows_idx = np.arange(hi - lo)
        true_idx = np.arange(lo, hi)  # user i's record is background row i
        dt = dist[rows_idx, true_idx]
        tt = tie[rows_idx, true_idx]
        ranks[lo:hi] = (dist < dt[:, None]).sum(axis=1) + (
            (dist == dt[:, None]) & (tie < tt[:, None])
        ).sum(axis=1)
    return ranks


@dataclass(frozen=True)
class SurveysConfig:
    """How the server structures repeated collections."""

    count: int = 5
    min_frac: float = 0.5       # each survey draws at least ceil(d * min_frac) attrs
    all_attributes: bool = False


@dataclass(frozen=True)
class AttackResult:
    """One metric value with its run metadata."""

    metric: str
    value: float
    protocol: str | None = None
    solution: str | None = None
    epsilon: float | None = None
    beta: float | None = None
    model: str | None = None
    top_k: int | None = None
    surveys: int | None = None
    run: int = 0
    seed: int = 0
    flags: str = ""


def _per_attribute_privacy(privacy: tuple, md: MultiDomain, n: int):
    """Resolve the privacy spec into per-attribute (epsilon, pass_through) lists."""
    kind, value = privacy
    flags = []
    if kind == "epsilon":
        return [float(value)] * md.d, [False] * md.d, float(value), None, flags
    if kind != "beta":
        raise ParameterError(f"privacy spec kind must be epsilon or beta, got {kind!r}")
    beta = float(value)
    alpha = alpha_from_bayes_error(beta, n)
    if bayes_alpha_clamped(beta, n):
        flags.append("alpha_clamped")
    eps_list, passthrough = [], []
    for k in md.ks:
        dec = epsilon_from_alpha(alpha, n, k)
        passthrough.append(dec.pass_through)
        if dec.pass_through:
            eps_list.append(math.inf)
        elif dec.epsilon <= 0.0:
            eps_list.append(EPSILON_FLOOR)
            if "epsilon_floor" not in flags:
                flags.append("epsilon_floor")
        else:
            eps_list.append(dec.epsilon)
    return eps_list, passthrough, None, beta, flags


def run_reident_experiment(
    dataset,
    protocol: str = "grr",
    solution: str = "smp",
    privacy: tuple = ("epsilon", 1.0),
    surveys: SurveysConfig = SurveysConfig(),
    attack_mode: str = "fk",
    top_ks: Sequence[int] = (1, 5, 10),
    sampling_mode: str = "without_replacement",
    runs: int = 1,
    seed: int = 0,
    variant: str = "grr",
    flavor: str | None = None,
    rfd_priors: Sequence[np.ndarray] | None = None,
    nk_s_mult: float = 1.0,
) -> list[AttackResult]:
    """Simulate repeated collections and score top-k re-identification.

    Per survey, each user reports through ``solution``; the attacker turns
    reports into value predictions (for the fake-data solutions, by first
    inferring the sampled attribute with a no-knowledge classifier), keeps
    the most recent prediction per attribute, and after every survey >= 2
    matches profiles against the background knowledge.  RID-ACC is the
    percentage of users whose true identity lands in the attacker's top-k.

    ``attack_mode``: 'fk' matches over all columns, 'pk' over a random
    subset of >= d/2 columns, 'null' ranks records uniformly at random (the
    baseline with expected RID-ACC = 100 * top_k / n).
    """
    if attack_mode not in ("fk", "pk", "null"):
        raise ParameterError(f"unknown attack_mode {attack_mode!r}")
    if solution not in ("smp", *FAKE_DATA_VARIANTS):
        raise ParameterError(f"unknown solution {solution!r}")
    md, rows = dataset.multidomain, dataset.rows
    n, d = rows.shape
    results: list[AttackResult] = []

    for run in range(runs):
        struct = stream(seed, 101, run)
        subsets = []
        for _ in range(surveys.count):
            if surveys.all_attributes:
                attrs = np.arange(d)
            else:
                lo = math.ceil(d * surveys.min_frac)
                dsv = int(struct.integers(lo, d + 1))
                attrs = np.sort(struct.choice(d, size=dsv, replace=False))
            subsets.append(attrs)
        if attack_mode == "pk":
            dpk = int(struct.integers(math.ceil(d / 2), d + 1))
            bk_cols = np.sort(struct.choice(d, size=dpk, replace=False))
        else:
            bk_cols = np.arange(d)

        eps_list, passthrough, eps_out, beta_out, flags = _per_attribute_privacy(
            privacy, md, n
        )
        rng_rep = stream(seed, 202, run)
        rng_match = stream(seed, 303, run)

        profile = np.full((n, d), -1, dtype=np.int64)
        used = np.zeros((n, d), dtype=bool)
        memo_pred = np.full((n, d), -1, dtype=np.int64)

        for s_idx, attrs in enumerate(subsets):
            if solution == "smp":
                _smp_survey_step(
                    rows, md, protocol, eps_list, passthrough, attrs, sampling_mode,
                    used, memo_pred, profile, rng_rep, flags,
                )
            else:
                _rs_survey_step(
                    rows, md, solution, variant, flavor, eps_list, attrs,
                    rfd_priors, nk_s_mult, profile, rng_rep,
                )
            if s_idx == 0:
                continue
            ranks = _rank_of_true(
                profile, rows, bk_cols, rng_match, null_attack=(attack_mode == "null")
            )
            for top_k in top_ks:
                results.append(
                    AttackResult(
                        metric="rid_acc",
                        value=100.0 * float(np.mean(ranks < top_k)),
                        protocol=protocol if solution == "smp"
                        else variant_label(variant, flavor),
                        solution=solution,
                        epsilon=eps_out,
                        beta=beta_out,
                        model=attack_mode,
                        top_k=int(top_k),
                        surveys=s_idx + 1,
                        run=run,
                        seed=seed,
                        flags=";".join(flags),
                    )
                )
    return results


def _smp_survey_step(rows, md, protocol, eps_list, passthrough, attrs, sampling_mode,
                     used, memo_pred, profile, rng, flags):
    n, d = rows.shape
    attrs = np.asarray(attrs)
    keys = rng.random((n, len(attrs)))
    if sampling_mode == "without_replacement":
        # prefer unused attributes; a fully-used row falls back to reuse
        penalty = used[:, attrs].astype(np.float64)
        js = attrs[np.argmin(keys + penalty, axis=1)]
        if used[np.arange(n), js].any() and "smp_pool_reused" not in flags:
            flags.append("smp_pool_reused")
    elif sampling_mode == "with_replacement":
        js = attrs[rng.integers(0, len(attrs), size=n)]
    else:
        raise ParameterError(f"unknown sampling_mode {sampling_mode!r}")

    for a in attrs:
        m = js == a
        cnt = int(m.sum())
        if cnt == 0:
            continue
        if passthrough[a]:
            profile[m, a] = rows[m, a]
            used[m, a] = True
            memo_pred[m, a] = rows[m, a]
            continue
        if sampling_mode == "with_replacement":
            # a repeated attribute re-sends the memoized report, so the
            # attacker's prediction for it is carried over unchanged
            fresh = m & (memo_pred[:, a] < 0)
        else:
            fresh = m
        reuse = m & ~fresh
        if fresh.any():
            params = protocol_params(protocol, eps_list[a], md.domains[a].k)
            batch = randomize_batch(rows[fresh, a], params, rng)
            preds = predict_batch(batch, rng)
            profile[fresh, a] = preds
            memo_pred[fresh, a] = preds
        if reuse.any():
            profile[reuse, a] = memo_pred[reuse, a]
        used[m, a] = True


def variant_label(variant: str, flavor: str | None) -> str:
    """Readable protocol tag for a fake-data variant, e.g. sue_z, oue_r, grr."""
    if variant == "grr":
        return "grr"
    return f"{flavor}_{variant[-1]}"


def _rs_survey_step(rows, md, solution, variant, flavor, eps_list, attrs,
                    rfd_priors, nk_s_mult, profile, rng):
    attrs = np.asarray(attrs)
    sub_md = MultiDomain(tuple(md.domains[a] for a in attrs))
    sub_rows = rows[:, attrs]
    n = len(rows)
    finite = [eps_list[a] for a in attrs if not math.isinf(eps_list[a])]
    # under a beta budget the whole tuple shares one epsilon: the tightest
    # non-pass-through attribute's; an all-pass-through subset degenerates
    # to a near-noiseless budget
    eps = min(finite) if finite else 50.0
    priors = None if rfd_priors is None else tuple(rfd_priors[a] for a in attrs)
    cfg = CollectionConfig(sub_md, solution, variant, flavor, eps, priors)
    batch, _ = rs_sanitize_batch(sub_rows, cfg, rng)
    est = rs_estimate(batch)
    learn = build_learning_set("nk", estimated_freqs=est, s=int(round(nk_s_mult * n)),
                               cfg=cfg, rng=rng)
    clf = classifier_train(learn, cfg)
    jhat = clf.predict(encode_features(batch))
    for ai, a in enumerate(attrs):
        m = jhat == ai
        if not m.any():
            continue
        rb = ReportBatch(cfg.params(ai), batch.columns[ai][m])
        profile[m, a] = predict_batch(rb, rng)


# ---------------------------------------------------------------------------
# Sampled-attribute inference (NK / PK / HM)
# ---------------------------------------------------------------------------

@dataclass
class LearningSet:
    features: np.ndarray
    labels: np.ndarray
    provenance: str


def encode_features(batch: TupleBatch) -> np.ndarray:
    """Tuple batch -> classifier features: value indices or concatenated bits."""
    if batch.cfg.variant == "grr":
        return np.column_stack(batch.columns)
    return np.hstack(batch.columns)


def build_learning_set(
    model: str,
    estimated_freqs: Sequence[np.ndarray] | None = None,
    compromised: tuple[np.ndarray, np.ndarray] | None = None,
    s: int = 0,
    n_pk: int = 0,
    cfg: CollectionConfig | None = None,
    rng: np.random.Generator | None = None,
) -> LearningSet:
    """Assemble the attacker's training set for one of the nk / pk / hm models.

    nk draws ``s`` synthetic profiles from the clipped-normalized estimated
    frequencies and pushes them through the same collection pipeline,
    labelling each with the sampled attribute it drew.  pk uses ``n_pk``
    compromised (features, label) rows.  hm is their union.
    """
    if model not in ("nk", "pk", "hm"):
        raise ParameterError(f"unknown attack model {model!r}")
    parts = []
    if model in ("nk", "hm"):
        if estimated_freqs is None or cfg is None or rng is None:
            raise ParameterError("nk needs estimated frequencies, a config and an rng")
        if s <= 0:
            raise ParameterError("nk needs s > 0 synthetic profiles")
        clipped = [clip_normalize(f) for f in estimated_freqs]
        synth_rows = synthesize_profiles(clipped, s, rng, cfg.md).rows
        batch, labels = rs_sanitize_batch(synth_rows, cfg, rng)
        parts.append((encode_features(batch), labels))
    if model in ("pk", "hm"):
        if compromised is None or n_pk <= 0:
            raise ParameterError("pk needs n_pk > 0 compromised rows")
        feats, labels = compromised
        if len(feats) < n_pk:
            raise ParameterError(f"only {len(feats)} compromised rows, need {n_pk}")
        parts.append((np.asarray(feats)[:n_pk], np.asarray(labels)[:n_pk]))
    features = np.concatenate([p[0] for p in parts], axis=0)
    labels = np.concatenate([p[1] for p in parts], axis=0)
    provenance = {"nk": "synthetic", "pk": "compromised", "hm": "mixed"}[model]
    return LearningSet(features, labels, provenance)


def classifier_train(learning_set: LearningSet, cfg: CollectionConfig) -> NaiveBayes:
    """Fit the built-in naive Bayes to a learning set."""
    if cfg.variant == "grr":
        clf = NaiveBayes(mode="categorical")
        clf.fit(learning_set.features, learning_set.labels,
                n_classes=cfg.md.d, categories=list(cfg.md.ks))
    else:
        clf = NaiveBayes(mode="bernoulli")
        clf.fit(learning_set.features, learning_set.labels, n_classes=cfg.md.d)
    return clf


def infer_sampled_attribute(model: NaiveBayes, features: np.ndarray,
                            true_labels: np.ndarray) -> tuple[float, np.ndarray]:
    """AIF-ACC (percent) plus the per-user predicted sampled attribute."""
    preds = model.predict(np.asarray(features))
    acc = 100.0 * float(np.mean(preds == np.asarray(true_labels)))
    return acc, preds


def run_attr_infer_experiment(
    rows: np.ndarray,
    cfg: CollectionConfig,
    attack_models: Sequence[str] = ("nk", "pk", "hm"),
    s_mult: float = 1.0,
    npk_frac: float = 0.1,
    run: int = 0,
    seed: int = 0,
) -> list[AttackResult]:
    """One collection under ``cfg`` + the three inference attacks against it."""
    n = len(rows)
    rng = stream(seed, 404, run)
    batch, labels = rs_sanitize_batch(rows, cfg, rng)
    features = encode_features(batch)
    est = rs_estimate(batch)

    results = []
    proto_name = variant_label(cfg.variant, cfg.flavor)
    n_pk = int(round(npk_frac * n))
    s = int(round(s_mult * n))
    for model in attack_models:
        rng_m = stream(seed, 505, run, {"nk": 0, "pk": 1, "hm": 2}[model])
        if model == "nk":
            learn = build_learning_set("nk", estimated_freqs=est, s=s, cfg=cfg, rng=rng_m)
            test_feats, test_labels = features, labels
        else:
            perm = rng_m.permutation(n)
            comp, rest = perm[:n_pk], perm[n_pk:]
            learn = build_learning_set(
                model,
                estimated_freqs=est if model == "hm" else None,
                compromised=(features[comp], labels[comp]),
                s=s if model == "hm" else 0,
                n_pk=n_pk, cfg=cfg, rng=rng_m,
            )
            test_feats, test_labels = features[rest], labels[rest]
        clf = classifier_train(learn, cfg)
        acc, _ = infer_sampled_attribute(clf, test_feats, test_labels)
        extra = ["classifier=naive_bayes"]
        if clf.single_class_warning:
            extra.append("single_class")
        results.append(
            AttackResult(
                metric="aif_acc", value=acc, protocol=proto_name, solution=cfg.solution,
                epsilon=cfg.epsilon, model=model, run=run, seed=seed,
                flags=";".join(extra),
            )
        )
    return results
