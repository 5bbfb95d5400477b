import itertools
import math

import numpy as np
import pytest
from scipy import stats

from ldpsim import attacks as atk
from ldpsim import multidim as mdm
from ldpsim import oracles as oc
from ldpsim.budget import beta_epsilons
from ldpsim.classifier import PREDICT_ROWS, NaiveBayes
from ldpsim.datasets import Dataset, clip_or_uniform, synthesize_profiles
from ldpsim.errors import ParameterError
from ldpsim.rng import stream
from montecarlo import smp_attack_acc_mc


# ---------------------------------------------------------------------------
# Per-report prediction and analytic accuracies
# ---------------------------------------------------------------------------

def _predict(params, data, rng):
    return atk.predict_batch(oc.ReportBatch(params, data), rng).tolist()


def test_predict_grr_identity():
    params = oc.protocol_params("grr", 1.0, 9)
    assert _predict(params, np.array([5]), stream(0, 0)) == [5]


def test_predict_ue_all_zero_uniform():
    params = oc.protocol_params("oue", 1.0, 4)
    assert _predict(params, np.zeros((1, 4), np.uint8), stream(1, 9))[0] in range(4)
    n = 40_000
    batch = oc.ReportBatch(params, np.zeros((n, 4), dtype=np.uint8))
    preds = atk.predict_batch(batch, stream(1, 0))
    counts = np.bincount(preds, minlength=4)
    sig = 3 * math.sqrt(0.25 * 0.75 / n)
    assert (np.abs(counts / n - 0.25) < sig).all()


def test_predict_ue_single_and_multi_bit():
    params = oc.protocol_params("sue", 1.0, 4)
    rng = stream(2, 0)
    assert _predict(params, np.array([[0, 0, 1, 0]], np.uint8), rng) == [2]
    picks = set(_predict(params, np.tile(np.array([1, 0, 1, 0], np.uint8), (200, 1)), rng))
    assert picks == {0, 2}


def test_predict_ss_uniform_in_subset():
    params = oc.protocol_params("ss", 1e-3, 6)
    rng = stream(3, 0)
    picks = _predict(params, np.tile([1, 3, 4], (600, 1)), rng)
    assert set(picks) == {1, 3, 4}


def test_predict_olh_uniform_over_matching_candidates():
    from ldpsim.rng import hash_bucket

    params = oc.protocol_params("olh", math.log(3), 8)
    seed = 1234567
    buckets = np.array([hash_bucket(seed, v, params.aux) for v in range(8)])
    target = int(buckets[0])
    matching = set(np.flatnonzero(buckets == target).tolist())
    rng = stream(4, 0)
    data = (np.full(400, seed, dtype=np.uint64), np.full(400, target))
    picks = set(_predict(params, data, rng))
    assert picks == matching


def test_analytic_acc_spot_values():
    assert atk.analytic_acc("grr", 10.0, 2) == pytest.approx(99.9954, abs=1e-3)
    assert atk.analytic_acc("grr", 1.0, 74) == pytest.approx(100 * math.e / (math.e + 73))
    # subset selection at epsilon -> 0 degenerates to a random guess of 1/k
    for k in (4, 10, 50):
        assert atk.analytic_acc("ss", 1e-9, k) == pytest.approx(100.0 / k, rel=1e-3)


def test_analytic_acc_matches_large_domain_closed_forms():
    # where the real-valued aux parameter is integral the printed forms are exact
    eps, k = math.log(3), 8
    assert atk.analytic_acc("ss", eps, k) == pytest.approx(
        100 * (math.exp(eps) + 1) / (2 * k), abs=1e-9
    )
    # the bucket-count form is a large-k approximation: close but not exact
    approx = 100 / (2 * max(74 / (math.e + 1), 1))
    assert atk.analytic_acc("olh", 1.0, 74) == pytest.approx(approx, rel=0.05)


def _brute_force_ue_acc(protocol, eps, k):
    params = oc.protocol_params(protocol, eps, k)
    p, q = params.p, params.q
    acc = 0.0
    v = 0
    for bits in itertools.product([0, 1], repeat=k):
        pr = 1.0
        for i, b in enumerate(bits):
            pi = p if i == v else q
            pr *= pi if b else 1 - pi
        ones = sum(bits)
        if ones == 0:
            acc += pr / k
        elif bits[v] == 1:
            acc += pr / ones
    return 100 * acc


@pytest.mark.parametrize("protocol", ["sue", "oue"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("eps", [0.5, 2.0])
def test_ue_closed_form_equals_enumeration(protocol, k, eps):
    assert atk.analytic_acc(protocol, eps, k) == pytest.approx(
        _brute_force_ue_acc(protocol, eps, k), abs=1e-9
    )


def test_oue_eps1_k4_enumeration():
    assert atk.analytic_acc("oue", 1.0, 4) == pytest.approx(
        _brute_force_ue_acc("oue", 1.0, 4), abs=1e-9
    )


def _binomial_sum_ue_acc(protocol, eps, k):
    # E[1/(1+X)], X ~ Bin(k-1, q), summed term by term
    params = oc.protocol_params(protocol, eps, k)
    p, q = params.p, params.q
    m = np.arange(k)
    s = float(np.sum(stats.binom.pmf(m, k - 1, q) / (m + 1)))
    return 100.0 * (p * s + (1.0 - p) * (1.0 - q) ** (k - 1) / k)


@pytest.mark.parametrize("protocol", ["sue", "oue"])
@pytest.mark.parametrize("eps", [0.01, 1.0, 4.0, 20.0, 43.0])
def test_ue_closed_form_equals_binomial_sum(protocol, eps):
    for k in (2, 3, 16, 74, 1000):
        ref = _binomial_sum_ue_acc(protocol, eps, k)
        assert abs(atk.analytic_acc(protocol, eps, k) - ref) <= 1e-12 * ref, k


@pytest.mark.parametrize("protocol", oc.PROTOCOLS)
def test_empirical_attack_matches_analytic(protocol):
    for eps, k in [(1.0, 7), (4.0, 74)]:
        ana = atk.analytic_acc(protocol, eps, k)
        emp = atk.empirical_attack_acc(protocol, eps, k, 100_000, stream(50, int(eps), k))
        sig = 100 * math.sqrt(max(ana / 100 * (1 - ana / 100), 1e-12) / 100_000)
        assert abs(emp - ana) < 3 * sig, (protocol, eps, k)


@pytest.mark.parametrize("n", [0, -1])
def test_monte_carlo_accuracy_needs_a_sample(n):
    rng = stream(0, 0)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="sample size"):
        atk.empirical_attack_acc("grr", 1.0, 4, n, rng)
    with pytest.raises(ParameterError, match="sample size"):
        smp_attack_acc_mc("grr", 1.0, [4, 4], "uniform", n, rng)
    assert rng.bit_generator.state == state


def test_multi_collection_identities():
    assert atk.multi_collection_acc("grr", 2.0, [9]) == pytest.approx(
        atk.analytic_acc("grr", 2.0, 9)
    )
    u = atk.multi_collection_acc("sue", 2.0, [74, 7, 16], "uniform")
    nu = atk.multi_collection_acc("sue", 2.0, [74, 7, 16], "non_uniform")
    assert nu / u == pytest.approx(math.factorial(3) / 27)
    with pytest.raises(ParameterError):
        atk.multi_collection_acc("grr", 1.0, [4, 4], "diagonal")


@pytest.mark.parametrize("protocol", oc.PROTOCOLS)
def test_multi_collection_monotone_in_epsilon(protocol):
    ks = [74, 7, 16]
    values = [atk.multi_collection_acc(protocol, e, ks, "uniform") for e in range(1, 11)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_smp_attack_mc_matches_eq_products():
    ks = [8, 5, 12]
    for mi, mode in enumerate(("uniform", "non_uniform")):
        ana = atk.multi_collection_acc("grr", 3.0, ks, mode)
        mc = smp_attack_acc_mc("grr", 3.0, ks, mode, 100_000, stream(6, mi))
        sig = 100 * math.sqrt(ana / 100 * (1 - ana / 100) / 100_000)
        assert abs(mc - ana) < 3 * sig, mode


# ---------------------------------------------------------------------------
# Re-identification
# ---------------------------------------------------------------------------

def test_reident_unique_zero_distance():
    rows = np.array([[0, 1, 2], [1, 1, 2], [0, 2, 2], [2, 0, 0]])
    profiles = np.full_like(rows, -1)
    profiles[3] = [2, 0, 0]
    closer, tied = atk._closer_tied(profiles, rows, np.arange(3))
    assert (closer[3], tied[3]) == (0, 1)


def test_reident_skips_unknown_attributes():
    rows = np.array([[0, 9, 2], [1, 9, 9], [0, 9, 9]])
    profiles = np.full_like(rows, -1)
    profiles[0] = [0, -1, 2]
    closer, tied = atk._closer_tied(profiles, rows, np.arange(3))
    assert (closer[0], tied[0]) == (0, 1)


def test_reident_tie_probability():
    # profile matches m = 4 records at distance zero; each lands in top-2 w.p. 1/2
    rows = np.array([[5, 5]] * 4 + [[1, 2], [3, 4]])
    profiles = np.full_like(rows, -1)
    profiles[0] = [5, 5]
    closer, tied = atk._closer_tied(profiles, rows, np.arange(2))
    assert (closer[0], tied[0]) == (0, 4)
    rng = stream(8, 0)
    trials = 4000
    # each trial ranks every user, as run_reident_experiment does
    hits = sum((closer + rng.integers(0, tied))[0] < 2 for _ in range(trials))
    target, sig = 0.5, 3 * math.sqrt(0.25 / trials)
    assert abs(hits / trials - target) < sig


def test_pk_background_needs_half_columns(monkeypatch):
    # pk matches over a sorted draw of at least ceil(d/2) of the d columns
    seen = []
    closer_tied = atk._closer_tied

    def spy(profiles, bk_rows, bk_cols):
        seen.append(bk_cols)
        return closer_tied(profiles, bk_rows, bk_cols)

    monkeypatch.setattr(atk, "_closer_tied", spy)
    d = 5
    ds = Dataset.from_ks([3] * d, stream(17, 0).integers(0, 3, size=(60, d)))
    for seed in range(8):
        atk.run_reident_experiment(ds, "grr", "smp", 2.0,
                                   atk.SurveysConfig(count=2, all_attributes=True), "pk", (1,),
                                   runs=2, seed=seed)
    assert len(seen) == 16
    for cols in seen:
        assert math.ceil(d / 2) <= len(cols) <= d
        assert (np.diff(cols) > 0).all() and 0 <= cols[0] and cols[-1] < d
    assert len({len(cols) for cols in seen}) > 1


def test_half_or_more_draws_sorted_columns_of_every_size():
    # the survey pools and the pk background columns: ceil(d/2) to d distinct columns
    rng = stream(18, 0)
    for d in range(1, 13):
        sizes = set()
        for _ in range(200):
            cols = atk._half_or_more(d, rng)
            assert (np.diff(cols) > 0).all() and 0 <= cols[0] and cols[-1] < d
            sizes.add(len(cols))
        assert sizes == set(range(math.ceil(d / 2), d + 1)), d


@pytest.mark.parametrize("all_attributes", [True, False])
def test_survey_pools_are_every_attribute_or_half_or_more(all_attributes, monkeypatch):
    seen = []
    step = atk._smp_survey_step

    def spy(rows, ks, protocol, eps_list, attrs, *args):
        seen.append(attrs)
        return step(rows, ks, protocol, eps_list, attrs, *args)

    monkeypatch.setattr(atk, "_smp_survey_step", spy)
    d = 7
    ds = Dataset.from_ks([3] * d, stream(17, 1).integers(0, 3, size=(40, d)))
    for seed in range(4):
        atk.run_reident_experiment(ds, "grr", "smp", 2.0,
                                   atk.SurveysConfig(count=4, all_attributes=all_attributes),
                                   "fk", (1,), seed=seed)
    assert len(seen) == 16
    if all_attributes:
        assert all(np.array_equal(attrs, np.arange(d)) for attrs in seen)
    else:
        for attrs in seen:
            assert math.ceil(d / 2) <= len(attrs) <= d
            assert (np.diff(attrs) > 0).all() and 0 <= attrs[0] and attrs[-1] < d
        assert len({len(attrs) for attrs in seen}) > 1


def _unique_dataset(n=400):
    ks = [8, 9, 10]
    rows = np.array([(i % 8, (i // 8) % 9, (i // 72) % 10) for i in range(n)])
    return Dataset.from_ks(ks, rows)


@pytest.mark.parametrize("mode", mdm.SAMPLING_MODES)
def test_smp_survey_step_exhausted_pool_resends_memo(mode):
    # every pool attribute already reported: each user re-sends a memoized
    # report, so no prediction moves and no budget is spent again
    n = 2_000
    rows = np.zeros((n, 3), dtype=np.int64)
    profile = np.tile(np.array([1, -1, 2], dtype=np.int64), (n, 1))
    before = profile.copy()
    flags = []
    atk._smp_survey_step(rows, (4, 4, 4), "grr", [1.0] * 3, np.array([0, 2]), mode,
                         profile, stream(16, 0), flags)
    assert (profile == before).all()
    assert flags == (["smp_pool_reused"] if mode == "without_replacement" else [])


def test_reident_noiseless_unique_records():
    ds = _unique_dataset()
    acc, _ = atk.run_reident_experiment(
        ds, "grr", "smp", 50.0,
        atk.SurveysConfig(count=3, all_attributes=True), "fk", (1,), runs=1, seed=10,
    )
    assert acc[0, -1, 0] >= 99.0  # after survey 3


def test_reident_null_attacker_baseline():
    ds = _unique_dataset()
    n = ds.n
    runs = 6
    acc, _ = atk.run_reident_experiment(
        ds, "grr", "smp", 10.0,
        atk.SurveysConfig(count=2, all_attributes=True), "null", (1, 5, 10),
        runs=runs, seed=11,
    )
    for t, top_k in enumerate((1, 5, 10)):
        mean = float(np.mean(acc[..., t])) / 100
        target = top_k / n
        sig = 3 * math.sqrt(target * (1 - target) / (n * runs))
        assert abs(mean - target) < sig, top_k


def test_reident_trend_in_surveys():
    ds = _unique_dataset(300)
    acc, _ = atk.run_reident_experiment(
        ds, "grr", "smp", 10.0,
        atk.SurveysConfig(count=3, all_attributes=True), "fk", (1,), runs=2, seed=12,
    )
    means = list(acc[..., 0].mean(axis=0))  # per survey, over runs
    assert means == sorted(means)


def test_reident_beta_privacy_and_flags():
    # the budget is resolved by the caller; its flags lead the exported row's
    # (test_harness), and the attack adds none here
    ds = _unique_dataset(300)
    epsilons, budget_flags = beta_epsilons(0.95, ds.n, ds.ks)
    assert budget_flags == ["alpha_clamped", "epsilon_floor"]
    _, flags = atk.run_reident_experiment(
        ds, "grr", "smp", epsilons,
        atk.SurveysConfig(count=2, all_attributes=True), "fk", (1,), runs=1, seed=13,
    )
    assert flags == [[[]]]
    epsilons, budget_flags = beta_epsilons(0.5, ds.n, ds.ks)
    acc, flags = atk.run_reident_experiment(
        ds, "grr", "smp", epsilons,
        atk.SurveysConfig(count=2, all_attributes=True), "fk", (1,), runs=1, seed=13,
    )
    # beta=0.5 at n=300: alpha = 0.5 log2(300) - 1 ~ 3.1 -> k=8 passes through (log2 8 <= alpha)
    assert epsilons[0] == math.inf and budget_flags == []
    assert flags == [[[]]]
    assert acc[0, 0, 0] > 0


def test_reident_scalar_epsilon_is_one_per_attribute():
    ds = _unique_dataset(300)
    for solution in ("smp", "rs_fd"):
        args = ("grr", solution)
        kwargs = dict(surveys=atk.SurveysConfig(count=3), top_ks=(1, 5), runs=2, seed=17)
        acc, flags = atk.run_reident_experiment(ds, *args, 2.0, **kwargs)
        acc_d, flags_d = atk.run_reident_experiment(ds, *args, [2.0] * ds.d, **kwargs)
        assert acc.tolist() == acc_d.tolist() and flags == flags_d


def test_reident_epsilons_of_wrong_length_refused_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking epsilons")

    monkeypatch.setattr(atk, "stream", no_draw)
    ds = _unique_dataset(50)
    for epsilons in ([1.0], [1.0] * 4, []):
        with pytest.raises(ParameterError, match="epsilons"):
            atk.run_reident_experiment(ds, "grr", "smp", epsilons)


def test_reident_rs_fd_all_pass_through_uses_the_pass_through_epsilon(monkeypatch):
    # with every attribute's raw value passing through, the fake-data tuple is
    # still sanitized, at one finite epsilon
    seen = []

    def spy(sanitize):
        def sanitize_and_record(rows, cfg, *args):
            seen.append(cfg.epsilon)
            return sanitize(rows, cfg, *args)
        return sanitize_and_record

    # the users' tuples go through rs_sanitize_batch, the learning set's through
    # rs_sanitize_stream
    for name in ("rs_sanitize_batch", "rs_sanitize_stream"):
        monkeypatch.setattr(atk, name, spy(getattr(atk, name)))
    ds = _unique_dataset(300)
    atk.run_reident_experiment(ds, "grr", "rs_fd", [math.inf] * ds.d,
                               atk.SurveysConfig(count=3), "fk", (1,), runs=1, seed=18)
    # each survey sanitizes the users' tuples, then the learning set's
    assert seen == [atk.PASS_THROUGH_EPSILON] * 6


def test_reident_smp_all_pass_through_reports_raw_values():
    # without replacement, survey 3 has every user's three raw values: each
    # record of _unique_dataset is then its own unique nearest
    ds = _unique_dataset()
    acc, _ = atk.run_reident_experiment(
        ds, "grr", "smp", [math.inf] * ds.d,
        atk.SurveysConfig(count=3, all_attributes=True), "fk", (1,), runs=1, seed=19,
    )
    assert acc[0, -1, 0] == 100.0


def test_reident_rs_fd_solution_runs():
    ds = _unique_dataset(300)
    # the solution column of the exported row is checked in test_harness
    acc, _ = atk.run_reident_experiment(
        ds, "grr", "rs_fd", 5.0,
        atk.SurveysConfig(count=2, all_attributes=True), "fk", (1, 5), runs=1, seed=14,
    )
    assert acc.shape == (1, 1, 2)
    acc2, _ = atk.run_reident_experiment(
        ds, "grr", "rs_fd", 5.0,
        atk.SurveysConfig(count=2, all_attributes=True), "fk", (1, 5), runs=1, seed=14,
    )
    assert acc.tolist() == acc2.tolist()


def test_reident_rs_fd_single_class_flag():
    # s_mult = 1/300 gives the NK classifier one synthetic row, so one class
    ds = _unique_dataset(300)
    for s_mult, expected in ((1 / 300, ["single_class"]), (1.0, [])):
        _, flags = atk.run_reident_experiment(
            ds, "grr", "rs_fd", 5.0,
            atk.SurveysConfig(count=2, all_attributes=True), "fk", (1,), runs=1, seed=14,
            s_mult=s_mult,
        )
        assert flags == [[expected]]


def test_reident_with_replacement_memoizes():
    ds = _unique_dataset(300)
    acc, _ = atk.run_reident_experiment(
        ds, "grr", "smp", 10.0,
        atk.SurveysConfig(count=4, all_attributes=True), "fk", (1,), runs=1, seed=16,
        sampling_mode="with_replacement",
    )
    assert acc.shape == (1, 3, 1)  # surveys 2..4
    assert ((0.0 <= acc) & (acc <= 100.0)).all()
    acc2, _ = atk.run_reident_experiment(
        ds, "grr", "smp", 10.0,
        atk.SurveysConfig(count=4, all_attributes=True), "fk", (1,), runs=1, seed=16,
        sampling_mode="with_replacement",
    )
    assert acc.tolist() == acc2.tolist()


def test_reident_flags_snapshot_per_survey():
    # without replacement over 3 attributes the pool runs dry at survey 4, so
    # the flag list of surveys 2 and 3 stays empty
    ds = _unique_dataset(300)
    acc, flags = atk.run_reident_experiment(
        ds, "grr", "smp", 2.0,
        atk.SurveysConfig(count=5, all_attributes=True), "fk", (1, 5), runs=2, seed=1,
    )
    assert acc.shape == (2, 4, 2)
    assert flags == [[[], [], ["smp_pool_reused"], ["smp_pool_reused"]]] * 2


def test_surveys_config_needs_two_surveys():
    # RID is scored from survey 2 on: fewer surveys returned no result at all
    for count in (1, 0, -3):
        with pytest.raises(ParameterError, match="survey count"):
            atk.SurveysConfig(count=count)
    assert atk.SurveysConfig(count=2).count == 2


def test_reident_needs_a_run_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking runs")

    monkeypatch.setattr(atk, "stream", no_draw)
    ds = _unique_dataset(50)
    for runs in (0, -1):
        with pytest.raises(ParameterError, match="runs"):
            atk.run_reident_experiment(ds, "grr", "smp", 1.0, runs=runs)


def test_reident_pk_uses_column_subset():
    ds = _unique_dataset(300)
    acc, _ = atk.run_reident_experiment(
        ds, "grr", "smp", 50.0,
        atk.SurveysConfig(count=3, all_attributes=True), "pk", (1,), runs=1, seed=15,
    )
    assert 0.0 <= acc[0, -1, 0] <= 100.0


# ---------------------------------------------------------------------------
# Rank kernel
# ---------------------------------------------------------------------------

def _cube_closer_tied(profiles, bk_rows, bk_cols):
    """Reference: (n, n_bk, c) mismatch cube over the known entries, summed per record."""
    P = profiles[:, bk_cols]
    diff = (P[:, None, :] != bk_rows[:, bk_cols][None, :, :]) & (P >= 0)[:, None, :]
    dist = diff.sum(axis=2)
    own = dist[np.arange(len(P)), np.arange(len(P))][:, None]
    return (dist < own).sum(axis=1), (dist == own).sum(axis=1)


def _noisy_profiles(rows, rng, flip, unknown):
    """Each user's own record with a fraction of entries redrawn and some set to -1."""
    profiles = rows.copy()
    redraw = rng.random(rows.shape) < flip
    profiles[redraw] = rng.choice(np.unique(rows), int(redraw.sum()))
    profiles[rng.random(rows.shape) < unknown] = -1
    return profiles


@pytest.mark.parametrize("chunk", [7, 256])
@pytest.mark.parametrize("scale", [1, 128])
def test_rank_kernel_counts_match_cube_reference(chunk, scale, monkeypatch):
    # scale 128 puts 0 and 256 in one column: a compare in int8 would equate them
    monkeypatch.setattr(atk, "_USER_BLOCK", chunk)
    rng = stream(20, 0)
    rows = rng.integers(0, 3, size=(50, 6)) * scale
    profiles = _noisy_profiles(rows, rng, flip=0.4, unknown=0.3)
    for bk_cols in (np.arange(6), np.array([0, 2, 3, 5])):
        closer, tied = atk._closer_tied(profiles, rows, bk_cols)
        ref_closer, ref_tied = _cube_closer_tied(profiles, rows, bk_cols)
        assert (tied > 1).any() and (closer > 0).any()
        np.testing.assert_array_equal(closer, ref_closer)
        np.testing.assert_array_equal(tied, ref_tied)


def test_rank_kernel_tie_rank_uniform():
    # user 0 ([5, 5, ?]): rows 1-2 match both known entries, rows 3-7 one entry
    # like its own record, rows 8-9 none -> 2 closer, 6 tied, rank ~ U{2..7}
    rows = np.array([[5, 9, 1], [5, 5, 0], [5, 5, 1], [5, 0, 0], [5, 1, 1],
                     [1, 5, 0], [0, 5, 2], [5, 3, 3], [0, 0, 0], [1, 1, 1]])
    profiles = np.full_like(rows, -1)
    profiles[0] = [5, 5, -1]
    closer, tied = atk._closer_tied(profiles, rows, np.arange(3))
    assert (closer[0], tied[0]) == (2, 6)
    rng = stream(21, 0)
    trials = 6000
    ranks = np.array([(closer + rng.integers(0, tied))[0] for _ in range(trials)])
    counts = np.bincount(ranks, minlength=10)
    assert counts[:2].sum() == 0 and counts[8:].sum() == 0
    assert stats.chisquare(counts[2:8]).pvalue > 1e-3


def test_rank_kernel_null_model_uniform():
    # the null attacker's ranks, read back from its top-k rows at every k = 1..n:
    # 10 scored surveys x 25 runs x 40 users
    n = 40
    ds = Dataset.from_ks([4, 4, 4], stream(22, 0).integers(0, 4, size=(n, 3)))
    acc, _ = atk.run_reident_experiment(
        ds, "grr", "smp", 1.0, atk.SurveysConfig(count=11), "null",
        range(1, n + 1), runs=25, seed=22)
    below = np.rint(acc * n / 100).astype(np.int64).reshape(-1, n)  # users with rank < k
    assert (below[:, -1] == n).all()
    counts = np.diff(below, axis=1, prepend=0)  # users at each rank 0..n-1
    assert (counts >= 0).all()
    assert stats.chisquare(counts.sum(axis=0)).pvalue > 1e-3


@pytest.mark.parametrize("n", [1, 256, 257, 5000])
@pytest.mark.parametrize("half", [False, True], ids=["whole", "half"])
def test_null_ranks_are_one_all_tied_draw(n, half):
    # null ranks as every model does, closer + integers(0, tied), with closer 0 and
    # tied n: the values and the next state of the one-bound draw it replaced.  half:
    # a small-range draw first leaves a buffered 32-bit half in the stream
    rng, ref_rng = stream(24, n), stream(24, n)
    if half:
        assert rng.integers(0, 5) == ref_rng.integers(0, 5)
        assert rng.bit_generator.state["has_uint32"] == 1
    np.testing.assert_array_equal(0 + rng.integers(0, np.full(n, n)),
                                  ref_rng.integers(0, n, size=n))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    np.testing.assert_array_equal(rng.integers(0, 7, 3), ref_rng.integers(0, 7, 3))
    assert rng.random() == ref_rng.random()


def test_rank_kernel_more_than_255_columns_exact():
    # own-record match counts near 285 of 300 would wrap in a uint8 counter
    rng = stream(23, 0)
    rows = rng.integers(0, 2, size=(60, 300))
    profiles = _noisy_profiles(rows, rng, flip=0.05, unknown=0.03)
    ref_closer, ref_tied = _cube_closer_tied(profiles, rows, np.arange(300))
    assert (ref_tied == 1).all()
    closer, tied = atk._closer_tied(profiles, rows, np.arange(300))
    np.testing.assert_array_equal(closer, ref_closer)
    np.testing.assert_array_equal(tied, ref_tied)


# ---------------------------------------------------------------------------
# Sampled-attribute inference
# ---------------------------------------------------------------------------

def _collection(ks, n, seed, variant="grr", eps=1.0):
    rng = stream(seed, 0)
    rows = np.column_stack([rng.integers(0, k, n) for k in ks])
    cfg = mdm.CollectionConfig(ks, "rs_fd", variant, eps)
    M, labels = mdm.rs_sanitize_batch(rows, cfg, rng)
    return rows, cfg, M, labels


def test_build_learning_set_nk_uniform_labels():
    rows, cfg, M, labels = _collection([4, 5, 3], 30_000, 16)
    est = mdm.rs_estimate(M, cfg)
    learn = atk.build_learning_set(est, 30_000, cfg, stream(16, 1))
    counts = np.bincount(learn.labels, minlength=3)
    sig = 3 * math.sqrt((1 / 3) * (2 / 3) / 30_000)
    assert (np.abs(counts / 30_000 - 1 / 3) < sig).all()
    np.testing.assert_array_equal(learn.counts.classes, counts)
    # every row holds one category of each of the 3 features
    assert learn.counts.cells.shape == (3, 12)
    for s, k in zip(learn.counts.starts, cfg.ks):
        np.testing.assert_array_equal(learn.counts.cells[:, s : s + k].sum(axis=1), counts)


def _learning_rows(est, s, cfg, rng):
    """build_learning_set's synthetic report matrix and labels, made whole by
    rs_sanitize_batch at the same draws."""
    dists, _ = clip_or_uniform(est)
    return mdm.rs_sanitize_batch(synthesize_profiles(dists, s, rng, cfg.ks), cfg, rng)


@pytest.mark.parametrize("variant", ["grr", "oue_r", "sue_z"])
def test_build_learning_set_counts_the_sanitized_rows(variant):
    # the streamed learning set is the counts of the report matrix rs_sanitize_batch
    # makes at the same draws, and leaves the stream where that leaves it
    rows, cfg, M, _ = _collection([4, 5, 3], 3000, 23, variant)
    est = mdm.rs_estimate(M, cfg)
    rng, ref_rng = stream(23, 1), stream(23, 1)
    learn = atk.build_learning_set(est, 2500, cfg, rng)
    X, y = _learning_rows(est, 2500, cfg, ref_rng)
    ref = atk._attacker_counts(cfg).add(X, y)
    np.testing.assert_array_equal(learn.labels, y)
    np.testing.assert_array_equal(learn.counts.classes, ref.classes)
    np.testing.assert_array_equal(learn.counts.cells, ref.cells)
    assert rng.random() == ref_rng.random()


def test_train_attacker_fits_the_concatenated_parts(monkeypatch):
    # a list of learning sets is one fit on their concatenation (s + n_pk rows,
    # synthetic first), passed as count parts; estimate_fallback comes from any part
    rows, cfg, feats, labels = _collection([4, 5, 3], 500, 18)
    est = mdm.rs_estimate(feats, cfg)
    synthetic = atk.build_learning_set(est, 250, cfg, stream(18, 1))
    compromised = atk.compromised_set(feats, labels, np.arange(100), cfg)
    synth_X, synth_y = _learning_rows(est, 250, cfg, stream(18, 1))
    X = np.concatenate([synth_X, feats[:100]])
    y = np.concatenate([synth_y, labels[:100]])
    one = NaiveBayes(mode="categorical").fit(X, y, n_classes=3, categories=[4, 5, 3])
    fitted, fit = [], NaiveBayes.fit
    monkeypatch.setattr(NaiveBayes, "fit",
                        lambda self, X, y, **kw: fitted.append((X, y)) or fit(self, X, y, **kw))
    clf, flags = atk.train_attacker([synthetic, compromised], cfg)
    assert len(fitted) == 1
    parts, _ = fitted[0]
    assert parts == [synthetic.counts, compromised.counts]
    np.testing.assert_array_equal(compromised.labels, labels[:100])
    for got, want in zip(clf._tables, one._tables, strict=True):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(clf.predict(feats), one.predict(feats))
    assert flags == []
    fell_back = atk.LearningSet(compromised.counts, compromised.labels, True)
    for parts in ([synthetic, fell_back], [fell_back, compromised]):
        assert atk.train_attacker(parts, cfg)[1] == ["estimate_fallback"]


@pytest.mark.parametrize("variant", ["grr", "oue_r"])
def test_compromised_set_counts_its_rows_in_predict_blocks(variant):
    # the users' rows are gathered PREDICT_ROWS at a time; the counts are those of
    # the whole gathered rows, bit for bit, over 3 blocks
    rows, cfg, M, labels = _collection([4, 5, 3], 2 * PREDICT_ROWS + 50, 24, variant)
    users = stream(24, 1).permutation(len(M))[: 2 * PREDICT_ROWS + 10]
    got = atk.compromised_set(M, labels, users, cfg)
    ref = atk._attacker_counts(cfg).add(M[users], labels[users])
    np.testing.assert_array_equal(got.counts.classes, ref.classes)
    np.testing.assert_array_equal(got.counts.cells, ref.cells)
    np.testing.assert_array_equal(got.labels, labels[users])


def test_build_learning_set_degenerate_estimates_fall_back_to_uniform():
    # an attribute whose estimates all clip to zero is synthesized uniformly,
    # with the same draws as any other estimate vector
    cfg = mdm.CollectionConfig([3, 3], "rs_fd", "grr", 1.0)
    bad = [np.array([-0.1, -0.2, -0.3]), np.array([0.5, 0.3, 0.2])]
    learn = atk.build_learning_set(bad, 10, cfg, stream(19, 0))
    uniform = [np.full(3, 1 / 3), bad[1]]
    same = atk.build_learning_set(uniform, 10, cfg, stream(19, 0))
    assert learn.estimate_fallback and not same.estimate_fallback
    np.testing.assert_array_equal(learn.counts.classes, same.counts.classes)
    np.testing.assert_array_equal(learn.counts.cells, same.counts.cells)
    np.testing.assert_array_equal(learn.labels, same.labels)


def test_nk_synthetic_features_match_real_distribution():
    # synthetic profiles drawn from the true distribution produce sanitized
    # features indistinguishable from the real stream (chi-square at 1%)
    ks = [5, 4]
    rng = stream(20, 0)
    n = 60_000
    freqs = [stream(20, 9).dirichlet(np.ones(k)) for k in ks]
    rows = np.column_stack([rng.choice(k, n, p=f) for k, f in zip(ks, freqs)])
    cfg = mdm.CollectionConfig(ks, "rs_fd", "grr", 1.0)
    real, _ = mdm.rs_sanitize_batch(rows, cfg, rng)
    synth_rows = synthesize_profiles(freqs, n, rng, ks)
    synth, _ = mdm.rs_sanitize_batch(synth_rows, cfg, rng)
    for a, k in enumerate(ks):
        c_real = np.bincount(real[:, a], minlength=k)
        c_synth = np.bincount(synth[:, a], minlength=k)
        table = np.vstack([c_real, c_synth])
        assert stats.chi2_contingency(table).pvalue > 0.01


def test_classifier_pipeline_separable():
    # class label equals a deterministic feature -> perfect training accuracy
    cfg = mdm.CollectionConfig([3, 3, 3], "rs_fd", "grr", 1.0)
    labels = np.arange(300) % 3
    feats = np.column_stack([labels, np.zeros(300, dtype=int), np.zeros(300, dtype=int)])
    clf, flags = atk.train_attacker([atk.compromised_set(feats, labels, np.arange(300), cfg)],
                                    cfg)
    assert flags == []
    assert np.array_equal(clf.predict(feats), labels)
    # one learning row is one class; the flags keep their order
    one_row = atk.compromised_set(feats, labels, np.arange(1), cfg)
    _, flags = atk.train_attacker([atk.LearningSet(one_row.counts, one_row.labels, True)], cfg)
    assert flags == ["single_class", "estimate_fallback"]


def test_random_baseline_accuracy():
    rng = stream(21, 0)
    labels = rng.integers(0, 5, 50_000)
    guesses = rng.integers(0, 5, 50_000)
    acc = 100 * float(np.mean(guesses == labels))
    sig = 300 * math.sqrt(0.2 * 0.8 / 50_000)
    assert abs(acc - 20.0) < sig


def test_aif_uniform_data_at_baseline():
    rows, cfg, batch, labels = _collection([6, 5, 4, 3], 30_000, 22)
    res = atk.run_attr_infer_experiment(rows, cfg, attack_models=("nk", "pk", "hm"), seed=22)
    assert list(res) == ["nk", "pk", "hm"]
    sig = 300 * math.sqrt(0.25 * 0.75 / 27_000)
    for model, (acc, _) in res.items():
        assert abs(acc - 25.0) < sig, (model, acc)


def test_aif_sue_z_high_budget_near_perfect():
    rng = stream(23, 0)
    ks = [6, 5, 4]
    rows = np.column_stack([rng.integers(0, k, 5000) for k in ks])
    cfg = mdm.CollectionConfig(ks, "rs_fd", "sue_z", 10.0)
    res = atk.run_attr_infer_experiment(rows, cfg, attack_models=("nk",), seed=23)
    assert res["nk"][0] >= 95.0


def test_aif_near_zero_budget_matches_prior_rule():
    # with essentially no signal the classifier reduces to its prior argmax
    rows, cfg, batch, labels = _collection([6, 5, 4], 20_000, 24, eps=0.01)
    res = atk.run_attr_infer_experiment(rows, cfg, attack_models=("nk",), seed=24)
    baseline = 100 / 3
    sig = 300 * math.sqrt((1 / 3) * (2 / 3) / 20_000)
    assert abs(res["nk"][0] - baseline) < 3 + sig


def test_attr_infer_npk_frac_needs_train_and_test_users():
    # n_pk = round(npk_frac * n) must leave a compromised user and a test user
    rows, cfg, batch, labels = _collection([4, 4], 100, 26)
    for frac in (0.001, 0.999):
        with pytest.raises(ParameterError, match="npk_frac"):
            atk.run_attr_infer_experiment(rows, cfg, attack_models=("pk",), npk_frac=frac)
    # nk alone trains on no compromised user
    res = atk.run_attr_infer_experiment(rows, cfg, attack_models=("nk",), npk_frac=0.999)
    assert list(res) == ["nk"] and not math.isnan(res["nk"][0])
    assert atk.compromised_count(0.1, 100) == 10


def test_attr_infer_s_mult_needs_a_synthetic_profile():
    # s = round(s_mult * n) = 0 failed at the first nk learning set; now before any draw
    rows, cfg, batch, labels = _collection([4, 4], 100, 28)
    for models in (("nk",), ("hm",)):
        with pytest.raises(ParameterError, match="s_mult"):
            atk.run_attr_infer_experiment(rows, cfg, attack_models=models, s_mult=0.001)
    # pk alone trains on no synthetic profile
    assert list(atk.run_attr_infer_experiment(rows, cfg, attack_models=("pk",),
                                              s_mult=0.001)) == ["pk"]
    assert atk.synthetic_count(0.5, 100) == 50
    # an infinite s_mult * n: round(inf) raised OverflowError, a runtime error
    for mult in (1e308, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            atk.synthetic_count(mult, 100)


def test_attr_infer_unknown_model_rejected_before_any_draw():
    rows, cfg, batch, labels = _collection([4, 4], 100, 27)
    for models in (("xx",), ("nk", "xx")):
        with pytest.raises(ParameterError, match="nk"):
            atk.run_attr_infer_experiment(rows, cfg, attack_models=models)


def test_reident_protocol_checked_against_solution():
    ds = _unique_dataset(50)
    for protocol, solution in (("sue_z", "rs_rfd"), ("oue", "rs_fd"), ("oue_r", "smp")):
        with pytest.raises(ParameterError):
            atk.run_reident_experiment(ds, protocol, solution, 1.0)
