import csv
import math
from importlib import resources

import numpy as np
import pytest
from scipy import stats

from ldpsim import datasets as dst
from ldpsim import oracles as oc
from ldpsim.errors import DomainError, ParameterError
from ldpsim.rng import stream


def write_csv(tmp_path, name, header, rows):
    path = tmp_path / name
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def test_load_first_appearance_order(tmp_path):
    path = write_csv(tmp_path, "t.csv", ["id", "color", "size"],
                     [["u1", "red", "L"], ["u2", "blue", "S"], ["u3", "red", "M"]])
    ds = dst.load_dataset(path, columns=["color", "size"], id_column="id")
    assert ds.multidomain.domains[0].values == ("red", "blue")
    assert ds.multidomain.domains[1].values == ("L", "S", "M")
    assert ds.rows.tolist() == [[0, 0], [1, 1], [0, 2]]
    assert ds.ids.tolist() == ["u1", "u2", "u3"]


def test_load_determinism(tmp_path):
    rows = [[f"u{i}", f"v{i % 5}", f"w{i % 3}"] for i in range(50)]
    path = write_csv(tmp_path, "t.csv", ["id", "a", "b"], rows)
    d1 = dst.load_dataset(path, id_column="id")
    d2 = dst.load_dataset(path, id_column="id")
    assert d1.multidomain == d2.multidomain
    assert np.array_equal(d1.rows, d2.rows)


def test_load_unseen_label_grows_domain(tmp_path):
    base = [["x"], ["y"], ["x"]]
    p1 = write_csv(tmp_path, "a.csv", ["col"], base)
    p2 = write_csv(tmp_path, "b.csv", ["col"], base + [["z"]])
    assert dst.load_dataset(p1).ks == (2,)
    assert dst.load_dataset(p2).ks == (3,)


def test_load_single_column(tmp_path):
    path = write_csv(tmp_path, "t.csv", ["only"], [["a"], ["b"], ["a"]])
    ds = dst.load_dataset(path)
    assert ds.d == 1 and ds.n == 3


def test_load_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DomainError):
        dst.load_dataset(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DomainError):
        dst.load_dataset(empty)
    headeronly = tmp_path / "h.csv"
    headeronly.write_text("a,b\n")
    with pytest.raises(DomainError):
        dst.load_dataset(headeronly)
    path = write_csv(tmp_path, "t.csv", ["a"], [["x"]])
    with pytest.raises(DomainError):
        dst.load_dataset(path, columns=["missing"])


def test_fixture_shapes_match_census_layout():
    adult = dst.load_fixture("adult_style_5000")
    assert adult.n == 5000
    assert list(adult.ks) == [74, 7, 16, 7, 14, 6, 5, 2, 41, 2]
    acs = dst.load_fixture("acs_style_1000")
    assert acs.n == 1000
    assert list(acs.ks) == [92, 25, 5, 2, 2, 9, 4, 5, 5, 4, 2, 18, 2, 2, 3, 9, 3, 6]
    with pytest.raises(ParameterError):
        dst.load_fixture("nope")


def test_fixture_sex_column_hand_count():
    ds = dst.load_fixture("adult_style_100")
    j = ds.multidomain.names.index("sex")
    freq = dst.true_frequencies(ds)[j]
    # independent count straight off the CSV text
    ref = resources.files("ldpsim.data").joinpath("adult_style_100.csv")
    with ref.open() as fh:
        labels = [row["sex"] for row in csv.DictReader(fh)]
    for idx, value in enumerate(ds.multidomain.domains[j].values):
        assert freq[idx] == pytest.approx(labels.count(value) / len(labels))


def test_true_frequencies_trivial():
    md = dst.MultiDomain.from_ks([2])
    ds = dst.Dataset(md, np.array([[0], [1]]))
    assert dst.true_frequencies(ds)[0] == pytest.approx([0.5, 0.5])
    ds = dst.Dataset(md, np.zeros((7, 1), dtype=int))
    assert dst.true_frequencies(ds)[0] == pytest.approx([1.0, 0.0])


def test_laplace_prior_valid_distribution_every_seed():
    freqs = [np.array([0.9, 0.07, 0.03]), np.array([0.5, 0.5])]
    for s in range(200):
        priors, fallback = dst.laplace_prior(freqs, 0.1, 500, stream(40, s))
        for p in priors:
            assert (p >= 0).all()
            assert p.sum() == pytest.approx(1.0)


def test_laplace_prior_zero_noise_limit():
    freqs = [np.array([0.25, 0.75])]
    priors, fallback = dst.laplace_prior(freqs, 1e9, 10**6, stream(41, 0))
    assert priors[0] == pytest.approx(freqs[0], abs=1e-6)
    assert fallback == [False]


def test_laplace_prior_uniform_fallback():
    # enormous noise on a tiny population occasionally clips a vector to zero
    freqs = [np.array([1.0, 0.0, 0.0, 0.0])]
    hit = False
    for s in range(300):
        priors, fallback = dst.laplace_prior(freqs, 1e-4, 2, stream(42, s))
        if fallback[0]:
            hit = True
            assert priors[0] == pytest.approx(np.full(4, 0.25))
    assert hit


def test_clip_or_uniform():
    mixed = np.array([-0.2, 0.4, 0.8])
    dists, fell_back = dst.clip_or_uniform([mixed, np.array([-0.5, -0.1, 0.0, -2.0])])
    np.testing.assert_array_equal(dists[0], oc.clip_normalize(mixed))
    np.testing.assert_array_equal(dists[1], np.full(4, 0.25))
    assert fell_back == [False, True]


def test_laplace_noise_distribution_ks():
    scale = 0.05
    rng = stream(43, 0)
    draws = np.array([
        dst.perturb_frequencies(np.array([0.5]), scale, rng)[0] - 0.5
        for _ in range(10_000)
    ])
    res = stats.kstest(draws, stats.laplace(scale=scale).cdf)
    assert res.pvalue > 0.01


def test_synthesize_profiles():
    freqs = [np.array([0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
    md = dst.MultiDomain.from_ks([2, 3])
    ds = dst.synthesize_profiles(freqs, 50, stream(44, 0), md)
    assert ds.multidomain is md
    assert (ds.rows[:, 0] == 1).all() and (ds.rows[:, 1] == 0).all()
    empty = dst.synthesize_profiles(freqs, 0, stream(44, 1), md)
    assert empty.rows.shape == (0, 2) and empty.rows.dtype == np.int64
    with pytest.raises(ParameterError):
        dst.synthesize_profiles([np.array([0.5, 0.6])], 5, stream(44, 2),
                                dst.MultiDomain.from_ks([2]))


def test_synthesize_profiles_marginals_chi_square():
    freqs = [stream(45, 0).dirichlet(np.ones(6))]
    ds = dst.synthesize_profiles(freqs, 100_000, stream(45, 1), dst.MultiDomain.from_ks([6]))
    counts = np.bincount(ds.rows[:, 0], minlength=6)
    assert stats.chisquare(counts, f_exp=100_000 * freqs[0]).pvalue > 0.01


def test_mse_avg():
    t = [np.array([1.0, 0.0])]
    e = [np.array([0.0, 1.0])]
    assert dst.mse_avg(t, t) == 0.0
    assert dst.mse_avg(t, e) == pytest.approx(1.0)
    assert dst.mse_avg(t, e) == dst.mse_avg(e, t)
    assert dst.mse_avg([np.array([0.5, 0.5]), np.array([1.0])],
                       [np.array([0.5, 0.5]), np.array([0.5])]) == pytest.approx(0.125)
    with pytest.raises(ParameterError):
        dst.mse_avg(t, [np.array([1.0, 0.0, 0.0])])
    with pytest.raises(ParameterError):
        dst.mse_avg(t, [])


def test_zipf_and_uniform_generators():
    m = dst.zipf_marginal(5, 1.0)
    assert m.sum() == pytest.approx(1.0)
    assert (np.diff(m) < 0).all()
    ds = dst.zipf_dataset(2000, [6, 4], 1.2, stream(46, 0))
    assert ds.ks == (6, 4) and ds.n == 2000
    du = dst.uniform_dataset(50_000, [5], stream(46, 1))
    counts = np.bincount(du.rows[:, 0], minlength=5)
    assert stats.chisquare(counts).pvalue > 0.01


def test_subsample_and_select():
    ds = dst.load_fixture("adult_style_100")
    sub = ds.subsample(40, stream(47, 0))
    assert sub.n == 40 and sub.multidomain == ds.multidomain
    assert len(sub.ids) == 40
    proj = ds.select([0, 2, 4])
    assert proj.d == 3
    assert proj.multidomain.names == (ds.multidomain.names[0],
                                      ds.multidomain.names[2],
                                      ds.multidomain.names[4])
    with pytest.raises(ParameterError):
        ds.subsample(101, stream(47, 1))
