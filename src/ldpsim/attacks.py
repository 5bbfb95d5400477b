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

from .errors import ParameterError
from .classifier import NaiveBayes
from .datasets import clip_or_uniform, synthesize_profiles
from .multidim import (
    CollectionConfig,
    check_collection,
    rs_estimate,
    rs_sanitize_batch,
    smp_sample,
)
from .oracles import (ProtocolParams, ReportBatch, as_indices, protocol_params,
                      randomize_batch, support_blocks, unary_bit_blocks)
from .rng import ahead, block_rows, chunk_rows, stream

# sampled-attribute inference models, in the order of their random streams
ATTACK_MODELS = ("nk", "pk", "hm")

# epsilon of an rs_* survey whose every attribute passes through (inf): the
# fake-data tuple still needs one finite epsilon; this one is all but noiseless
PASS_THROUGH_EPSILON = 50.0


# ---------------------------------------------------------------------------
# Per-report value prediction
# ---------------------------------------------------------------------------

def _pick_from_rows(blocks, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform pick of a set column per row of an (n, k) 0/1 matrix.

    ``blocks`` yields ``(lo, hi, rows)`` in row order, ``rows`` being the
    matrix's rows [lo, hi) as uint8 (any layout), at most ``block_rows(k)``
    of them.  Rows with no set column fall back to a uniform draw over
    [0, k).  Each block's running counts
    are kept column-major in one (k, width) buffer of
    ``np.min_scalar_type(k)`` (uint8 up to k = 255, uint16 beyond), filled
    per ``chunk_rows(k)`` sub-step by a cumsum down axis 0, so every step is
    a contiguous vector add; its last row gives the counts.  The buffer's
    width is an odd number of 64-element lines: a power-of-two row stride
    would map each column onto one cache set.  The pick is the first j with
    ``cs[j] > r``, which, as ``cs`` never decreases, is the number of j with
    ``cs[j] <= r``: one compare into a bool buffer of the same shape, summed
    down axis 0 in ``np.min_scalar_type(k + 1)``.  Each block draws its
    own ``r`` in one ``rng.integers`` call, which yields the values, and
    leaves the generator in the state, of one call over all n rows; the
    empty-row values follow all blocks in one more call.
    """
    dt = np.min_scalar_type(k)
    sub = chunk_rows(k)
    width = ((min(n, block_rows(k)) + 63) // 64 | 1) * 64
    cs = np.empty((k, width), dtype=dt)
    at_most = np.empty((k, width), dtype=bool)
    picks = np.empty(width, dtype=np.min_scalar_type(k + 1))
    pred = np.empty(n, dtype=np.int64)
    empty = [np.empty(0, dtype=np.intp)]
    for lo, hi, rows in blocks:
        m = hi - lo
        c, le = cs[:, :m], at_most[:, :m]
        for s in range(0, m, sub):
            np.cumsum(rows[s : s + sub].T, axis=0, dtype=dt, out=c[:, s : s + sub])
        counts = c[-1]
        r = rng.integers(0, np.maximum(counts, 1)).astype(dt)
        empty.append(lo + np.flatnonzero(counts == 0))
        np.less_equal(c, r, out=le)
        pred[lo:hi] = np.add.reduce(le.view(np.uint8), axis=0, out=picks[:m])
    empty = np.concatenate(empty)
    if len(empty):
        pred[empty] = rng.integers(0, k, len(empty))
    return pred


def predict_batch(batch: ReportBatch, rng: np.random.Generator) -> np.ndarray:
    """Attacker's most-likely-value guess (int64) for every report in the batch.

    GRR reports are taken at face value; SS picks uniformly inside the
    subset; OLH and UE pick uniformly inside the report's support (the
    candidates hashing to the reported bucket, the set bits), or a uniform
    domain value when it is empty.  Their supports stream from
    ``oracles.support_blocks`` straight into the pick.
    """
    params = batch.params
    n = len(batch)
    if params.protocol == "grr":
        return batch.data.astype(np.int64)
    if params.protocol == "ss":
        pick = rng.integers(0, params.aux, n)
        return np.take_along_axis(batch.data, pick[:, None], axis=1)[:, 0].astype(np.int64)
    return _pick_from_rows(support_blocks(batch), n, params.k, rng)


def randomize_predict(values, params: ProtocolParams, rng: np.random.Generator) -> np.ndarray:
    """``predict_batch(randomize_batch(values, params, rng), rng)``, with the same draws.  SUE
    and OUE stream ``unary_bit_blocks`` into a pick that draws past their n * k doubles, from
    ``rng.ahead(rng, n * k)`` (PCG64 only), whose state ``rng`` then takes: no (n, k) array."""
    if params.protocol not in ("sue", "oue"):
        return predict_batch(randomize_batch(values, params, rng), rng)
    values = as_indices(values, params.k)
    n, k = len(values), params.k
    pick = ahead(rng, n * k)
    pred = _pick_from_rows(unary_bit_blocks(n, k, params.q, rng, values, params.p), n, k, pick)
    rng.bit_generator.state = pick.bit_generator.state
    return pred


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
    # sue / oue: true-bit branch picks among 1 + X set bits, X ~ Bin(k-1, q), and
    # E[1/(1+X)] = (1 - (1-q)^k) / (k q); all-zero branch guesses uniformly
    s = -math.expm1(k * math.log1p(-q)) / (k * q)
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
    if n < 1:
        raise ParameterError(f"sample size n must be >= 1, got {n!r}")
    params = protocol_params(protocol, epsilon, k)
    values = rng.integers(0, k, size=n)
    preds = randomize_predict(values, params, rng)
    return 100.0 * float(np.mean(preds == values))


# ---------------------------------------------------------------------------
# Re-identification
# ---------------------------------------------------------------------------

# Largest record bitset _rank_of_true holds at once, in bytes.
_BITSET_BYTES = 1 << 25


def _rank_of_true(profiles: np.ndarray, bk_rows: np.ndarray, bk_cols: np.ndarray,
                  rng: np.random.Generator, chunk: int = 256) -> np.ndarray:
    """Rank (0-based) of each user's own record (background row i for user i).

    Records are ordered by Hamming distance over the user's known entries
    (-1 in ``profiles`` is unknown), ties uniformly at random.  With
    ``closer`` records strictly nearer and ``tied`` at the true record's
    distance (itself included), its rank is closer + Uniform{0..tied-1}:
    one draw per user, in user order, the law of sorting by (distance, iid
    uniform key).

    The records are bit-sliced in equal blocks of W words, as few blocks as
    keep each one's bitsets within ``_BITSET_BYTES`` (or W = 1): for each
    column j and value v, one row of W uint64 words has bit r set when
    record r of the block holds v in column j (a value no record holds gets
    an all-zero row).  A user with m known columns and ``own`` of them
    matching its own record takes its m rows; a record's match count is the
    number of those rows with its bit set.  Users are grouped by m and by
    whether own = m, and ranked in blocks of at most ``chunk`` users:

    * m = 0: every record ties;
    * own = m: no record is nearer, and the tied records are the AND of the
      m rows;
    * otherwise the m rows are ripple-added into ceil(log2(m + 1)) bit planes
      of the match count, which are compared with own from the top bit down
      into a "greater" and an "equal" mask.  The padding bits past the last
      record count 0 matches, so they are taken off ``tied`` when own = 0.

    closer / tied are popcounts of those masks, summed over the record
    blocks, which reuse one set of buffers.  Memory is O(min(sum(k) * n_bk,
    8 * _BITSET_BYTES) / 8 + chunk * W * 8 * planes) bytes beyond the (n, c)
    narrow copies of the table.
    """
    n = len(profiles)
    n_bk, c = len(bk_rows), len(bk_cols)
    dt = np.min_scalar_type(-max(profiles.max(initial=0), bk_rows.max(initial=0)) - 1)
    P = profiles[:, bk_cols].astype(dt)
    B = bk_rows[:, bk_cols].astype(dt)
    ks = np.maximum(P.max(axis=0, initial=-1), B.max(axis=0, initial=-1)).astype(np.int64) + 1
    base = (np.cumsum(ks) - ks).astype(np.min_scalar_type(-ks.sum()))
    n_rows, words = int(ks.sum()), -(-n_bk // 64)
    blocks = -(-words // max(1, _BITSET_BYTES // (8 * n_rows)))
    W = -(-words // blocks)

    m = np.count_nonzero(P >= 0, axis=1)
    own = np.count_nonzero(P == B[:n], axis=1)
    rid = np.where(P >= 0, P + base, -1)  # row of each known entry in bits, -1 if unknown
    key = 2 * m + (own < m)  # 2m: own = m, 2m + 1: a record can be nearer
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key, minlength=2 * c + 2)
    ends = np.cumsum(sizes)
    planes = int(m.max(initial=0)).bit_length()
    closer = np.zeros(n, dtype=np.int64)
    tied = np.where(m == 0, n_bk, 0)  # the blocks add up the others' ties
    del P, m, key  # free before the block buffers
    rows = min(chunk, int(sizes[2:].max(initial=0)))
    bits8 = np.empty((n_rows, 8 * W), dtype=np.uint8)
    bits = bits8.view(np.uint64)
    buf = np.empty((planes + 2, rows, W), dtype=np.uint64)
    counts = np.empty((rows, W), dtype=np.uint8)

    def popcount(mask):
        return np.bitwise_count(mask, out=counts[:len(mask)]).sum(axis=1, dtype=np.int64)

    for r0 in range(0, n_bk, 64 * W):
        rec = np.arange(min(64 * W, n_bk - r0))
        pad = 64 * W - len(rec)
        # bit r of row base[j] + v is bit r % 8 of byte r // 8: bit r of the little-endian words
        bits8[...] = 0
        np.bitwise_or.at(bits8, (base + B[r0:r0 + len(rec)], rec[:, None] // 8),
                         (1 << rec % 8).astype(np.uint8)[:, None])
        for g in range(2, 2 * c + 2):
            mg, slow = divmod(g, 2)
            for lo in range(ends[g - 1], ends[g], chunk):
                users = order[lo:min(lo + chunk, ends[g])]
                b = len(users)
                block = rid[users]
                idx = block[block >= 0].reshape(b, mg).T.copy()  # one row of bits per known column
                lv = mg.bit_length() if slow else 1
                plane = [buf[i, :b] for i in range(lv)]
                x, t = buf[lv, :b], buf[lv + 1, :b]
                # mode="clip" (the rows are in range) lets take write straight into out
                np.take(bits, idx[0], axis=0, out=plane[0], mode="clip")
                buf[1:lv, :b] = 0
                for j in range(1, mg):
                    np.take(bits, idx[j], axis=0, out=x, mode="clip")
                    if not slow:
                        plane[0] &= x
                        continue
                    # ripple-add row j; the count j + 1 fits in planes 0..top
                    top = (j + 1).bit_length() - 1
                    for i in range(top):
                        np.bitwise_and(plane[i], x, out=t)
                        plane[i] ^= x
                        x, t = t, x
                    plane[top] |= x
                if not slow:
                    tied[users] += popcount(plane[0])
                    continue
                o = own[users]
                gt, eq = t, x
                gt[...] = 0
                eq[...] = ~np.uint64(0)
                for i in reversed(range(lv)):
                    # all ones where own's bit i is clear: a set count bit there is nearer
                    clear = np.where((o >> i) & 1, 0, ~np.uint64(0))[:, None]
                    p = plane[i]
                    p ^= clear  # count bit i equals own's
                    p &= eq     # equal on bits i and up
                    eq ^= p     # equal above i, different at i
                    eq &= clear
                    gt |= eq
                    eq = p
                closer[users] += popcount(gt)
                tied[users] += popcount(eq) - pad * (o == 0)
    return closer + rng.integers(0, tied)


@dataclass(frozen=True)
class SurveysConfig:
    """How the server structures repeated collections."""

    count: int = 5
    all_attributes: bool = False  # else each survey draws _half_or_more of the attributes

    def __post_init__(self):
        # RID is scored from survey 2 on
        if self.count < 2:
            raise ParameterError(f"survey count must be >= 2, got {self.count!r}")


def _half_or_more(d: int, rng: np.random.Generator) -> np.ndarray:
    """A sorted uniform draw of ceil(d/2) to d of the d columns, its size uniform first."""
    return np.sort(rng.choice(d, size=int(rng.integers(math.ceil(d / 2), d + 1)), replace=False))


def run_reident_experiment(
    dataset,
    protocol: str = "grr",
    solution: str = "smp",
    epsilons: float | Sequence[float] = 1.0,
    surveys: SurveysConfig = SurveysConfig(),
    attack_mode: str = "fk",
    top_ks: Sequence[int] = (1, 5, 10),
    sampling_mode: str = "without_replacement",
    runs: int = 1,
    seed: int = 0,
    rfd_priors: Sequence[np.ndarray] | None = None,
    nk_s_mult: float = 1.0,
) -> tuple[np.ndarray, list[list[list[str]]]]:
    """Simulate repeated collections and score top-k re-identification.

    ``epsilons`` is one budget for every attribute or one per attribute,
    where ``inf`` passes the raw value through.  ``protocol`` is the oracle
    under smp and the variant tag (grr, sue_z, ...) under rs_fd / rs_rfd.
    Per survey, each user reports through ``solution``; the attacker turns
    reports into value predictions (for the fake-data solutions, by first
    inferring the sampled attribute with a no-knowledge classifier), keeps
    the most recent prediction per attribute, and after every survey >= 2
    matches profiles against the background knowledge.  RID-ACC is the
    percentage of users whose true identity lands in the attacker's top-k.
    Ties in distance are broken by one uniform draw per user and survey
    (:func:`_rank_of_true`).  Matching compares each user on the columns it
    has reported only, against per-(column, value) record bitsets, built in
    record blocks of at most ``_BITSET_BYTES`` (sum(k) * n / 8 bytes in all),
    and holds 256 * block / 8 bytes for each bit plane of the match counts
    and two scratch rows.

    ``attack_mode``: 'fk' matches over all columns, 'pk' over a random
    subset of >= d/2 columns, 'null' ranks records uniformly at random (the
    baseline with expected RID-ACC = 100 * top_k / n).

    Returns ``(acc, flags)``: ``acc[run, s, t]`` is RID-ACC after survey
    s + 2 at ``top_ks[t]``, and ``flags[run][s]`` the list of attack flags
    raised up to that survey.
    """
    if attack_mode not in ("fk", "pk", "null"):
        raise ParameterError(f"unknown attack_mode {attack_mode!r}")
    if runs < 1:
        raise ParameterError(f"runs must be >= 1, got {runs!r}")
    check_collection(solution, protocol)
    rows, ks = dataset.rows, dataset.ks
    n, d = rows.shape
    eps_list = ([float(epsilons)] * d if np.ndim(epsilons) == 0
                else [float(e) for e in epsilons])
    if len(eps_list) != d:
        raise ParameterError(f"epsilons must be one value or one per attribute ({d}), "
                             f"got {len(eps_list)}")
    acc = np.empty((runs, surveys.count - 1, len(top_ks)))
    snapshots: list[list[list[str]]] = []

    for run in range(runs):
        struct = stream(seed, 101, run)
        subsets = [np.arange(d) if surveys.all_attributes else _half_or_more(d, struct)
                   for _ in range(surveys.count)]
        bk_cols = _half_or_more(d, struct) if attack_mode == "pk" else np.arange(d)

        flags: list[str] = []
        rng_rep = stream(seed, 202, run)
        rng_match = stream(seed, 303, run)

        profile = np.full((n, d), -1, dtype=np.int64)
        snapshots.append([])

        for s_idx, attrs in enumerate(subsets):
            if solution == "smp":
                _smp_survey_step(rows, ks, protocol, eps_list, attrs, sampling_mode,
                                 profile, rng_rep, flags)
            else:
                _rs_survey_step(rows, ks, solution, protocol, eps_list, attrs,
                                rfd_priors, nk_s_mult, profile, rng_rep, flags)
            if s_idx == 0:
                continue
            ranks = (rng_match.integers(0, n, size=n) if attack_mode == "null"
                     else _rank_of_true(profile, rows, bk_cols, rng_match))
            acc[run, s_idx - 1] = [100.0 * float(np.mean(ranks < k)) for k in top_ks]
            snapshots[run].append(list(flags))
    return acc, snapshots


def _smp_survey_step(rows, ks, protocol, eps_list, attrs, sampling_mode,
                     profile, rng, flags):
    # profile >= 0 marks an attribute the user has reported before: under smp
    # its entry is the prediction from that user's memoized report, which a
    # repeat re-sends, so only fresh draws are randomized and predicted
    js, fresh = smp_sample(profile >= 0, attrs, sampling_mode, rng)
    reused = sampling_mode == "without_replacement" and not fresh.all()
    if reused and "smp_pool_reused" not in flags:
        flags.append("smp_pool_reused")
    for a in attrs:
        m = (js == a) & fresh
        if math.isinf(eps_list[a]):  # pass-through under a beta budget
            profile[m, a] = rows[m, a]
        elif m.any():
            params = protocol_params(protocol, eps_list[a], ks[a])
            profile[m, a] = randomize_predict(rows[m, a], params, rng)


def _rs_survey_step(rows, ks, solution, variant, eps_list, attrs,
                    rfd_priors, nk_s_mult, profile, rng, flags):
    finite = [eps_list[a] for a in attrs if not math.isinf(eps_list[a])]
    # the whole tuple shares one epsilon: the tightest non-pass-through attribute's
    eps = min(finite) if finite else PASS_THROUGH_EPSILON
    priors = None if rfd_priors is None else tuple(rfd_priors[a] for a in attrs)
    cfg = CollectionConfig([ks[a] for a in attrs], solution, variant, eps, priors)
    batches, _ = rs_sanitize_batch(rows[:, attrs], cfg, rng)
    learn = build_learning_set(rs_estimate(batches, cfg), synthetic_count(nk_s_mult, len(rows)),
                               cfg, rng)
    clf, attack_flags = train_attacker([learn], cfg)
    flags.extend(f for f in attack_flags if f not in flags)
    jhat = clf.predict(encode_features(batches))
    for ai, (a, b) in enumerate(zip(attrs, batches)):
        m = jhat == ai
        if m.any():
            profile[m, a] = predict_batch(ReportBatch(b.params, b.data[m]), rng)


# ---------------------------------------------------------------------------
# Sampled-attribute inference (NK / PK / HM)
# ---------------------------------------------------------------------------

@dataclass
class LearningSet:
    """One part of the attacker's training data: features and sampled-attribute labels."""

    features: np.ndarray
    labels: np.ndarray
    estimate_fallback: bool = False  # some attribute's synthetic values came out uniform


def encode_features(batches: Sequence[ReportBatch]) -> np.ndarray:
    """The classifier's features: the report matrix that ``rs_sanitize_batch`` wrote
    the batches into (values or bit rows), without a copy.

    Raises ParameterError unless the batches are, in attribute order, the column
    views of one C-contiguous matrix: the next column for 1-D data, else the
    next data.shape[1] columns, up to the last.
    """
    M = getattr(batches[0].data, "base", None) if len(batches) else None
    ok = isinstance(M, np.ndarray) and M.ndim == 2 and M.flags.c_contiguous
    lo = 0
    for b in batches:
        x = b.data
        if not (ok and isinstance(x, np.ndarray) and x.base is M and x.ndim in (1, 2)):
            ok = False
            break
        hi = lo + (x.shape[1] if x.ndim == 2 else 1)
        # the same start, shape, strides and dtype as the expected view
        ok = hi <= M.shape[1] and (x.__array_interface__ == (
            M[:, lo:hi] if x.ndim == 2 else M[:, lo]).__array_interface__)
        lo = hi
    if not (ok and lo == M.shape[1]):
        raise ParameterError("fake-data features need the column views of one report "
                             "matrix, as rs_sanitize_batch returns them")
    return M


def build_learning_set(estimated_freqs: Sequence[np.ndarray], s: int,
                       cfg: CollectionConfig, rng: np.random.Generator) -> LearningSet:
    """``s`` synthetic profiles pushed through the collection pipeline, each labelled
    with the sampled attribute it drew.

    The profiles are drawn from the clipped-normalized estimated frequencies; an
    attribute whose estimates are all <= 0 is drawn uniformly instead, with the
    same draws, and sets ``estimate_fallback``.
    """
    dists, fell_back = clip_or_uniform(estimated_freqs)
    synth_rows = synthesize_profiles(dists, s, rng, cfg.ks)
    batches, labels = rs_sanitize_batch(synth_rows, cfg, rng)
    return LearningSet(encode_features(batches), labels, any(fell_back))


def train_attacker(parts: Sequence[LearningSet],
                   cfg: CollectionConfig) -> tuple[NaiveBayes, list]:
    """Naive Bayes fitted to the learning sets as row blocks of one set (categorical on
    grr values, else bernoulli on bits), with no concatenated copy, and the
    attacker's flags: ``single_class``, then ``estimate_fallback`` if any part
    carries it."""
    clf = NaiveBayes(mode="categorical" if cfg.variant == "grr" else "bernoulli")
    clf.fit([p.features for p in parts], [p.labels for p in parts],
            n_classes=len(cfg.ks), categories=list(cfg.ks))
    flags = [flag for flag, hit in (("single_class", clf.constant_class is not None),
                                    ("estimate_fallback",
                                     any(p.estimate_fallback for p in parts)))
             if hit]
    return clf, flags


def compromised_count(npk_frac: float, n: int) -> int:
    """Users pk and hm train on, round(npk_frac * n); 1 to n - 1, so some are left to test."""
    n_pk = int(round(npk_frac * n))
    if not 1 <= n_pk <= n - 1:
        raise ParameterError(f"npk_frac = {npk_frac!r} makes {n_pk} of {n} users "
                             "compromised; pk and hm need 1 to n - 1")
    return n_pk


def synthetic_count(mult: float, n: int) -> int:
    """Synthetic profiles nk and hm train on, round(mult * n); at least 1."""
    s = int(round(mult * n))
    if s < 1:
        raise ParameterError(f"s_mult or nk_s_mult = {mult!r} makes {s} synthetic profiles "
                             f"for {n} users; nk and hm need at least 1")
    return s


def run_attr_infer_experiment(
    rows: np.ndarray,
    cfg: CollectionConfig,
    attack_models: Sequence[str] = ("nk", "pk", "hm"),
    s_mult: float = 1.0,
    npk_frac: float = 0.1,
    run: int = 0,
    seed: int = 0,
) -> dict[str, tuple[float, list[str]]]:
    """One collection under ``cfg`` + the inference attacks against it.

    Returns ``{model: (AIF-ACC, flags)}`` in ``attack_models`` order, the
    flags being :func:`train_attacker`'s.
    """
    for model in attack_models:
        if model not in ATTACK_MODELS:
            raise ParameterError(f"unknown attack model {model!r}; use one of {ATTACK_MODELS}")
    n = len(rows)
    n_pk = compromised_count(npk_frac, n) if {"pk", "hm"} & set(attack_models) else 0
    s = synthetic_count(s_mult, n) if {"nk", "hm"} & set(attack_models) else 0
    rng = stream(seed, 404, run)
    batches, labels = rs_sanitize_batch(rows, cfg, rng)
    features = encode_features(batches)
    est = rs_estimate(batches, cfg)

    results = {}
    for model in attack_models:
        rng_m = stream(seed, 505, run, ATTACK_MODELS.index(model))
        # pk trains on n_pk compromised users and tests on the rest; nk trains on s
        # synthetic profiles and tests on all; hm trains on both, synthetic first
        parts, rest = [], slice(None)
        if model != "nk":
            perm = rng_m.permutation(n)
            comp, rest = perm[:n_pk], perm[n_pk:]
            parts.append(LearningSet(features[comp], labels[comp]))
        if model != "pk":
            parts.insert(0, build_learning_set(est, s, cfg, rng_m))
        clf, flags = train_attacker(parts, cfg)
        del parts  # free the learning sets before the test rows are gathered
        acc = 100.0 * float(np.mean(clf.predict(features[rest]) == labels[rest]))
        results[model] = (acc, flags)
    return results
