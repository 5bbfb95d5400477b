import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ldpsim import multidim as mdm
from ldpsim import oracles as oc
from ldpsim.errors import DomainError, ParameterError
from ldpsim.rng import stream


def md_of(ks):
    return mdm.MultiDomain.from_ks(ks)


def dirichlet_freqs(md, seed):
    rng = stream(seed, 0)
    return [rng.dirichlet(np.ones(k)) for k in md.ks]


def draw_rows(md, freqs, n, rng):
    return np.column_stack([rng.choice(k, size=n, p=f) for k, f in zip(md.ks, freqs)])


# ---------------------------------------------------------------------------
# amplification and SPL / SMP
# ---------------------------------------------------------------------------

def test_amplified_epsilon():
    assert mdm.amplified_epsilon(math.log(2), 2) == pytest.approx(math.log(3))
    assert mdm.amplified_epsilon(1.7, 1) == pytest.approx(1.7)
    assert mdm.amplified_epsilon(1.0, 10) == pytest.approx(math.log(10 * (math.e - 1) + 1))
    assert mdm.amplified_epsilon(1.0, 10) == pytest.approx(2.9005, abs=1e-4)
    assert mdm.amplified_epsilon(0.5, 7) >= 0.5


def test_spl_budget_split():
    md = md_of([4, 6])
    # each slot randomized at eps/d = 1: check via distribution over many draws
    n = 60_000
    params = oc.protocol_params("grr", 1.0, 4)
    cols = mdm.spl_sanitize_batch(np.tile([1, 3], (n, 1)), md, "grr", 2.0, stream(1, 0))
    assert [c.params for c in cols] == [params, oc.protocol_params("grr", 1.0, 6)]
    hits = np.count_nonzero(cols[0].data == 1)
    sig = 3 * math.sqrt(params.p * (1 - params.p) / n)
    assert abs(hits / n - params.p) < sig


def test_spl_single_attribute_matches_plain_randomize():
    md = md_of([5])
    (b1,) = mdm.spl_sanitize_batch([[2], [4], [0]], md, "grr", 1.3, stream(2, 7))
    b2 = oc.randomize_batch([2, 4, 0], oc.protocol_params("grr", 1.3, 5), stream(2, 7))
    assert b1.params == b2.params
    np.testing.assert_array_equal(b1.data, b2.data)


def test_spl_estimates_unbiased_at_split_budget():
    md = md_of([3, 4])
    freqs = dirichlet_freqs(md, 3)
    n, runs = 50_000, 20
    ests = []
    for r in range(runs):
        rng = stream(4, r)
        rows = draw_rows(md, freqs, n, rng)
        cols = [
            oc.randomize_batch(rows[:, a], oc.protocol_params("grr", 1.0, md.ks[a]), rng)
            for a in range(2)
        ]
        ests.append([oc.estimate_frequencies(c) for c in cols])
    for a in range(2):
        arr = np.array([e[a] for e in ests])
        se = arr.std(axis=0, ddof=1) / math.sqrt(runs)
        assert (np.abs(arr.mean(axis=0) - freqs[a]) < 4 * se).all()


def test_smp_without_replacement_is_permutation():
    reported = np.zeros((500, 3), dtype=bool)
    rng = stream(5, 0)
    draws = [mdm.smp_sample(reported, np.arange(3), "without_replacement", rng)
             for _ in range(3)]
    assert all(fresh.all() for _, fresh in draws)
    js = np.column_stack([j for j, _ in draws])
    assert (np.sort(js, axis=1) == np.arange(3)).all()
    # the exhausted pool draws a reported attribute: every user re-sends a memo
    _, fourth_fresh = mdm.smp_sample(reported, np.arange(3), "without_replacement", rng)
    assert not fourth_fresh.any()


def test_smp_memoization_byte_identical():
    # with replacement a user is fresh on an attribute exactly once, at its first draw;
    # every later draw of it re-sends the memoized report
    n = 200
    reported = np.zeros((n, 2), dtype=bool)
    rng = stream(6, 0)
    seen = np.zeros_like(reported)
    for _ in range(40):
        js, fresh = mdm.smp_sample(reported, np.arange(2), "with_replacement", rng)
        np.testing.assert_array_equal(fresh, ~seen[np.arange(n), js])
        seen[np.arange(n), js] = True
    assert seen.all()


def test_smp_all_distinct_fraction_with_replacement():
    # chance of covering all d attributes in d draws is d!/d^d = 6/27 at d=3
    n = 20_000
    rng = stream(7, 0)
    reported = np.zeros((n, 3), dtype=bool)
    for _ in range(3):
        mdm.smp_sample(reported, np.arange(3), "with_replacement", rng)
    distinct = np.count_nonzero(reported.all(axis=1))
    target = math.factorial(3) / 3**3
    sig = 3 * math.sqrt(target * (1 - target) / n)
    assert abs(distinct / n - target) < sig


def test_smp_attrs_subset_and_mode_validation():
    reported = np.zeros((50, 3), dtype=bool)
    js, fresh = mdm.smp_sample(reported, [2], "without_replacement", stream(8, 0))
    assert (js == 2).all() and fresh.all()
    assert (reported == [False, False, True]).all()
    with pytest.raises(ParameterError):
        mdm.smp_sample(reported, np.arange(3), "sideways", stream(8, 1))


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 6),
    n=st.integers(1, 30),
    mode=st.sampled_from(mdm.SAMPLING_MODES),
    data=st.data(),
)
def test_smp_sample_law_properties(d, n, mode, data):
    before = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                                         min_size=n, max_size=n)), dtype=bool)
    pool = np.array(sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1))))
    reported = before.copy()
    js, fresh = mdm.smp_sample(reported, pool, mode, stream(14, data.draw(st.integers(0, 99))))
    rows = np.arange(n)
    assert np.isin(js, pool).all()
    if mode == "without_replacement":
        open_left = ~before[:, pool].all(axis=1)
        assert not before[rows[open_left], js[open_left]].any()
    assert (fresh == ~before[rows, js]).all()
    onehot = np.zeros_like(before)
    onehot[rows, js] = True
    assert (reported == (before | onehot)).all()


def test_smp_sample_exhausted_rows_uniform_over_pool():
    pool = np.array([0, 2, 3, 5])
    reported = np.ones((40_000, 6), dtype=bool)
    js, fresh = mdm.smp_sample(reported, pool, "without_replacement", stream(15, 0))
    assert not fresh.any()
    counts = np.bincount(js, minlength=6)
    assert counts[[1, 4]].sum() == 0
    assert stats.chisquare(counts[pool]).pvalue > 0.01


# ---------------------------------------------------------------------------
# RS+FD sanitizers
# ---------------------------------------------------------------------------

def test_rsfd_single_attribute_degenerate():
    md = md_of([7])
    assert mdm.amplified_epsilon(1.0, 1) == 1.0
    batch, sampled = mdm.rs_sanitize_batch(
        np.arange(7).reshape(-1, 1), mdm.CollectionConfig(md, "rs_fd", "grr", 1.0),
        stream(9, 0),
    )
    assert (sampled == 0).all()  # no fake slots exist


def test_rsfd_uez_fake_bit_count():
    md = md_of([4, 9])
    n = 100_000
    rng = stream(10, 0)
    rows = np.zeros((n, 2), dtype=int)
    batch, sampled = mdm.rs_sanitize_batch(
        rows, mdm.CollectionConfig(md, "rs_fd", "oue_z", 1.0), rng)
    params = oc.protocol_params("oue", mdm.amplified_epsilon(1.0, 2), 9)
    fakes = batch.columns[1][sampled != 1]
    m = len(fakes)
    mean_ones = fakes.sum(axis=1).mean()
    sig = 3 * math.sqrt(9 * params.q * (1 - params.q) / m)
    assert abs(mean_ones - params.q * 9) < sig


def test_rsfd_grr_fake_slot_uniform():
    md = md_of([5, 6])
    n = 100_000
    rng = stream(11, 0)
    rows = np.zeros((n, 2), dtype=int)
    batch, sampled = mdm.rs_sanitize_batch(
        rows, mdm.CollectionConfig(md, "rs_fd", "grr", 1.0), rng)
    fakes = batch.columns[1][sampled != 1]
    counts = np.bincount(fakes, minlength=6)
    chi = stats.chisquare(counts)
    assert chi.pvalue > 0.01


def test_rsfd_tuple_object_hides_sampled_index():
    # the sampled indices go back to the simulator only; the tuples hold none
    md = md_of([3, 4])
    batch, sampled = mdm.rs_sanitize_batch(
        np.array([[1, 2]] * 5), mdm.CollectionConfig(md, "rs_fd", "grr", 1.0), stream(12, 0))
    assert [f.name for f in dataclasses.fields(batch)] == ["cfg", "columns"]
    assert ((0 <= sampled) & (sampled < 2)).all()


def test_rsfd_variant_validation():
    md = md_of([3, 4])
    rows = np.zeros((5, 2), dtype=int)
    with pytest.raises(ParameterError):
        mdm.rs_sanitize_batch(rows, mdm.CollectionConfig(md, "rs_fd", "ue_q", 1.0),
                              stream(13, 0))
    with pytest.raises(ParameterError):
        mdm.rs_sanitize_batch(
            rows, mdm.CollectionConfig(md, "rs_rfd", "oue_z", 1.0, mdm.uniform_priors(md)),
            stream(13, 1))
    with pytest.raises(DomainError):
        mdm.rs_sanitize_batch(np.zeros((5, 3), dtype=int),
                              mdm.CollectionConfig(md, "rs_fd", "grr", 1.0), stream(13, 2))


def test_sanitizers_check_every_value_before_any_draw():
    # each value is checked, not only the sampled attribute's, so no seed lets bad
    # input through and the generator is untouched when it is refused
    md = md_of([4, 4, 4])
    cfg = mdm.CollectionConfig(md, "rs_fd", "grr", 1.0)
    calls = {
        "batch row -1": lambda rng: mdm.rs_sanitize_batch(np.array([[0, -1, 0]]), cfg, rng),
        "spl row 99": lambda rng: mdm.spl_sanitize_batch([[0, 0, 0], [0, 99, 0]], md, "grr",
                                                         1.0, rng),
        "fractional row": lambda rng: mdm.rs_sanitize_batch(np.array([[0.5, 3.9, 0]]), cfg,
                                                            rng),
        "1-D rows": lambda rng: mdm.rs_sanitize_batch(np.array([0, 1, 2]), cfg, rng),
    }
    for name, call in calls.items():
        for seed in range(30):
            rng = stream(38, seed)
            with pytest.raises(DomainError):
                call(rng)
            assert rng.random() == stream(38, seed).random(), name


@pytest.mark.parametrize("bad", [0.5, 3.9, np.inf, -np.inf, np.nan, 1e300, -1e300])
def test_fractional_and_non_finite_indices_refused(bad):
    # refused before the int64 cast, so no value is truncated and no RuntimeWarning
    # is raised, and before any draw; whole-number floats pass as their integers
    md = md_of([4, 4])
    cfg = mdm.CollectionConfig(md, "rs_fd", "grr", 1.0)
    params = oc.protocol_params("grr", 1.0, 4)
    calls = {
        "rs": lambda rows, rng: mdm.rs_sanitize_batch(rows, cfg, rng)[0].columns,
        "spl": lambda rows, rng: [b.data for b in mdm.spl_sanitize_batch(rows, md, "grr",
                                                                         1.0, rng)],
        "oracle": lambda rows, rng: [oc.randomize_batch(rows.ravel(), params, rng).data],
    }
    for name, call in calls.items():
        rng = stream(39, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                call(np.array([[bad, 2.0]]), rng)
        assert rng.random() == stream(39, 0).random(), name
        whole = call(np.array([[1.0, 3.0]]), stream(39, 1))
        for got, want in zip(whole, call(np.array([[1, 3]]), stream(39, 1))):
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# Estimators: exact expectation identities, MC bias, degeneracies
# ---------------------------------------------------------------------------

def _tree_expected_counts(cfg, freqs, priors, n):
    """Literal path enumeration of the per-value report probability.

    Walks sampled-vs-fake branches and every (true value, outcome) pair,
    independently of the estimator algebra under test.
    """
    d, variant = cfg.md.d, cfg.variant
    out = []
    for a, k in enumerate(cfg.md.ks):
        params = cfg.params(a)
        p, q = params.p, params.q
        prob = np.zeros(k)
        for v in range(k):  # value whose support we count
            acc = 0.0
            for t in range(k):  # user's true value for this attribute
                w = freqs[a][t]
                acc += (1.0 / d) * w * (p if t == v else q)
            if variant == "grr":
                acc += (1.0 - 1.0 / d) * priors[a][v]
            elif variant in ("sue_z", "oue_z"):
                acc += (1.0 - 1.0 / d) * q
            else:  # sue_r / oue_r: fake one-hot then UE-randomized
                hot = priors[a][v]
                acc += (1.0 - 1.0 / d) * (hot * p + (1.0 - hot) * q)
            prob[v] = acc
        out.append(n * prob)
    return out


# the ids name each tag by its older (variant, flavor) pair, so the ids stay stable
@pytest.mark.parametrize("variant", ["grr", "sue_z", "oue_z", "sue_r", "oue_r"],
                         ids=["grr-None", "ue_z-sue", "ue_z-oue", "ue_r-sue", "ue_r-oue"])
def test_rsfd_estimator_exact_on_expected_counts(variant):
    md = md_of([4, 3, 5])
    freqs = dirichlet_freqs(md, 14)
    cfg = mdm.CollectionConfig(md, "rs_fd", variant, 1.0)
    counts = _tree_expected_counts(cfg, freqs, mdm.uniform_priors(md), 1000)
    est = mdm.rs_estimate_from_counts(counts, cfg, 1000)
    for a in range(3):
        assert est[a] == pytest.approx(freqs[a], abs=1e-12)


@pytest.mark.parametrize("solution,variant", [(s, v) for s, vs in mdm.FAKE_DATA_VARIANTS.items()
                                              for v in vs])
def test_rs_estimator_matches_two_branch_reference(solution, variant):
    # the per-oracle closed forms the fake-support estimator replaced; the
    # terms now add in another order, so equal to a few ulps
    md = md_of([4, 3, 5])
    cfg = mdm.CollectionConfig(md, solution, variant, 1.0, dirichlet_freqs(md, 17))
    n, d = 1000, md.d
    counts = [stream(17, a).integers(0, n, k) for a, k in enumerate(md.ks)]
    est = mdm.rs_estimate_from_counts(counts, cfg, n)
    for a in range(d):
        p, q = cfg.params(a).p, cfg.params(a).q
        t = 0.0 if cfg.fake is None else cfg.fake[a]
        c = counts[a].astype(float)
        if variant == "grr":
            ref = (d * c - n * (q + (d - 1) * t)) / (n * (p - q))
        else:
            ref = (d * c - n * (q + (p - q) * (d - 1) * t + q * (d - 1))) / (n * (p - q))
        np.testing.assert_allclose(est[a], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", ["grr", "sue_r", "oue_r"],
                         ids=["grr-None", "ue_r-sue", "ue_r-oue"])
def test_rsrfd_estimator_exact_on_expected_counts(variant):
    md = md_of([4, 3, 5])
    freqs = dirichlet_freqs(md, 15)
    priors = dirichlet_freqs(md, 16)
    cfg = mdm.CollectionConfig(md, "rs_rfd", variant, 1.0, priors)
    counts = _tree_expected_counts(cfg, freqs, priors, 1000)
    est = mdm.rs_estimate_from_counts(counts, cfg, 1000)
    for a in range(3):
        assert est[a] == pytest.approx(freqs[a], abs=1e-12)


def test_rsfd_estimate_monte_carlo_bias():
    md = md_of([4, 3, 5])
    freqs = dirichlet_freqs(md, 17)
    n, runs = 50_000, 20
    for variant in ("grr", "oue_z", "sue_r"):
        ests = []
        for r in range(runs):
            rng = stream(18, r)
            rows = draw_rows(md, freqs, n, rng)
            cfg = mdm.CollectionConfig(md, "rs_fd", variant, 1.0)
            batch, _ = mdm.rs_sanitize_batch(rows, cfg, rng)
            ests.append(mdm.rs_estimate(batch))
        for a in range(3):
            arr = np.array([e[a] for e in ests])
            se = arr.std(axis=0, ddof=1) / math.sqrt(runs)
            assert (np.abs(arr.mean(axis=0) - freqs[a]) < 4 * se).all()


def test_rsfd_uniform_data_estimates_uniform():
    md = md_of([4, 6])
    n, runs = 50_000, 20
    ests = []
    for r in range(runs):
        rng = stream(19, r)
        rows = np.column_stack([rng.integers(0, k, n) for k in md.ks])
        batch, _ = mdm.rs_sanitize_batch(
            rows, mdm.CollectionConfig(md, "rs_fd", "grr", 1.0), rng)
        ests.append(mdm.rs_estimate(batch))
    for a, k in enumerate(md.ks):
        arr = np.array([e[a] for e in ests])
        se = arr.std(axis=0, ddof=1) / math.sqrt(runs)
        assert (np.abs(arr.mean(axis=0) - 1.0 / k) < 4 * se).all()


def test_rsrfd_uniform_prior_degenerates_to_rsfd():
    md = md_of([4, 3, 5])
    freqs = dirichlet_freqs(md, 20)
    rows = draw_rows(md, freqs, 20_000, stream(21, 0))
    for variant in ("grr", "sue_r", "oue_r"):
        b1, s1 = mdm.rs_sanitize_batch(
            rows, mdm.CollectionConfig(md, "rs_fd", variant, 0.9), stream(22, 5))
        b2, s2 = mdm.rs_sanitize_batch(
            rows, mdm.CollectionConfig(md, "rs_rfd", variant, 0.9, mdm.uniform_priors(md)),
            stream(22, 5))
        assert np.array_equal(s1, s2)
        for c1, c2 in zip(b1.columns, b2.columns):
            assert np.array_equal(c1, c2)
        e1 = mdm.rs_estimate(b1)
        e2 = mdm.rs_estimate(b2)
        for a in range(3):
            assert np.abs(e1[a] - e2[a]).max() < 1e-9


def test_rsrfd_point_mass_prior_fake_slots_constant():
    md = md_of([4, 5])
    priors = [np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0, 0])]
    rows = np.column_stack([np.full(5000, 3), np.full(5000, 4)])
    batch, sampled = mdm.rs_sanitize_batch(
        rows, mdm.CollectionConfig(md, "rs_rfd", "grr", 1.0, priors), stream(23, 0))
    assert (batch.columns[0][sampled != 0] == 0).all()
    assert (batch.columns[1][sampled != 1] == 2).all()


def test_rsrfd_fake_slots_follow_prior():
    md = md_of([3, 6])
    priors = dirichlet_freqs(md, 24)
    rows = np.zeros((100_000, 2), dtype=int)
    batch, sampled = mdm.rs_sanitize_batch(
        rows, mdm.CollectionConfig(md, "rs_rfd", "grr", 1.0, priors), stream(25, 0))
    fakes = batch.columns[1][sampled != 1]
    counts = np.bincount(fakes, minlength=6)
    chi = stats.chisquare(counts, f_exp=len(fakes) * priors[1])
    assert chi.pvalue > 0.01


def test_rsrfd_monte_carlo_bias():
    md = md_of([4, 3, 5])
    freqs = dirichlet_freqs(md, 26)
    priors = dirichlet_freqs(md, 27)
    n, runs = 50_000, 20
    for variant in ("grr", "oue_r"):
        ests = []
        for r in range(runs):
            rng = stream(28, r)
            rows = draw_rows(md, freqs, n, rng)
            cfg = mdm.CollectionConfig(md, "rs_rfd", variant, 1.0, priors)
            batch, _ = mdm.rs_sanitize_batch(rows, cfg, rng)
            ests.append(mdm.rs_estimate(batch))
        for a in range(3):
            arr = np.array([e[a] for e in ests])
            se = arr.std(axis=0, ddof=1) / math.sqrt(runs)
            assert (np.abs(arr.mean(axis=0) - freqs[a]) < 4 * se).all()


def test_invalid_priors_rejected():
    md = md_of([3, 4])
    with pytest.raises(ParameterError):
        mdm.validate_priors([np.array([0.5, 0.5, 0.5]), np.full(4, 0.25)], md)
    with pytest.raises(ParameterError):
        mdm.validate_priors([np.array([0.7, 0.3])], md)
    with pytest.raises(ParameterError):
        mdm.validate_priors([np.array([-0.1, 0.6, 0.5]), np.full(4, 0.25)], md)


# ---------------------------------------------------------------------------
# Variance formulas
# ---------------------------------------------------------------------------

def test_variance_scales_inversely_with_n():
    md = md_of([4, 3])
    freqs = dirichlet_freqs(md, 36)
    for variant in mdm.FAKE_DATA_VARIANTS["rs_fd"]:
        cfg = mdm.CollectionConfig(md, "rs_fd", variant, 1.0)
        for v1, v2 in zip(mdm.rs_variance(freqs, cfg, 1000), mdm.rs_variance(freqs, cfg, 2000)):
            np.testing.assert_allclose(v1, 2 * v2, rtol=1e-12)


def test_variance_d1_reduces_to_pure_binomial():
    params = oc.protocol_params("grr", 1.0, 6)
    f = np.array([0.37, 0.13, 0.1, 0.2, 0.1, 0.1])
    expected = [oc.pure_estimator_variance(fv, params, 5000) for fv in f]
    cfg = mdm.CollectionConfig(md_of([6]), "rs_fd", "grr", 1.0)
    got = mdm.rs_variance([f], cfg, 5000)[0]
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_variance_gamma_out_of_range():
    md = md_of([3, 3, 3])
    cfg = mdm.CollectionConfig(md, "rs_fd", "grr", 1.0)
    with pytest.raises(ParameterError):
        mdm.rs_variance([np.full(3, 5.0)] * 3, cfg, 100)
    with pytest.raises(ParameterError):
        mdm.rs_variance([np.full(3, np.nan)] * 3, cfg, 100)
    with pytest.raises(ParameterError):
        mdm.CollectionConfig(md, "rs_fd", "ue_q", 1.0)


def test_variance_matches_monte_carlo():
    md = md_of([4, 3, 5])
    freqs = dirichlet_freqs(md, 29)
    priors = dirichlet_freqs(md, 30)
    n, runs = 50_000, 200
    for variant in ("grr", "oue_r"):
        cfg = mdm.CollectionConfig(md, "rs_rfd", variant, 1.0, priors)
        ests = []
        for r in range(runs):
            rng = stream(31, r)
            rows = draw_rows(md, freqs, n, rng)
            batch, _ = mdm.rs_sanitize_batch(rows, cfg, rng)
            ests.append(mdm.rs_estimate(batch)[0])
        arr = np.array(ests)
        theo = mdm.rs_variance(freqs, cfg, n)[0]
        emp = arr.var(axis=0, ddof=1)
        assert emp.sum() == pytest.approx(theo.sum(), rel=0.15)


def test_rsfd_variance_matches_monte_carlo():
    # rs_fd fakes are uniform (mass 1/k per value); sue_z fakes carry no mass
    md = md_of([4, 3, 5])
    freqs = dirichlet_freqs(md, 34)
    n, runs = 10_000, 400
    for variant in ("grr", "sue_z", "oue_r"):
        cfg = mdm.CollectionConfig(md, "rs_fd", variant, 1.0)
        ests = []
        for r in range(runs):
            rng = stream(35, r)
            rows = draw_rows(md, freqs, n, rng)
            batch, _ = mdm.rs_sanitize_batch(rows, cfg, rng)
            ests.append(mdm.rs_estimate(batch))
        for a, theo in enumerate(mdm.rs_variance(freqs, cfg, n)):
            emp = np.array([e[a] for e in ests]).var(axis=0, ddof=1)
            assert emp.sum() == pytest.approx(theo.sum(), rel=0.15), (variant, a)


# ---------------------------------------------------------------------------
# Amplified-budget ratio bound and convergence rate
# ---------------------------------------------------------------------------

def test_sampled_slot_satisfies_amplified_ratio():
    for d in (2, 3, 5):
        for eps in (0.5, 1.0, 2.0):
            eps_amp = mdm.amplified_epsilon(eps, d)
            params = mdm.CollectionConfig(md_of([4] * d), "rs_fd", "grr", eps).params(0)
            mat = np.full((4, 4), params.q)
            np.fill_diagonal(mat, params.p)
            worst = (mat.max(axis=0) / mat.min(axis=0)).max()
            assert worst <= math.exp(eps_amp) * (1 + 1e-12)
            assert worst == pytest.approx(math.exp(eps_amp), rel=1e-12)


def test_estimation_error_shrinks_as_sqrt_n():
    md = md_of([4, 3, 5])
    freqs = dirichlet_freqs(md, 32)
    ns = [10_000, 40_000, 160_000]
    mean_err = []
    for n in ns:
        errs = []
        for r in range(16):
            rng = stream(33, n, r)
            rows = draw_rows(md, freqs, n, rng)
            batch, _ = mdm.rs_sanitize_batch(
                rows, mdm.CollectionConfig(md, "rs_fd", "grr", 1.0), rng)
            est = mdm.rs_estimate(batch)
            errs.append(max(np.abs(est[a] - freqs[a]).max() for a in range(3)))
        mean_err.append(np.mean(errs))
    slope = np.polyfit(np.log(ns), np.log(mean_err), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)
