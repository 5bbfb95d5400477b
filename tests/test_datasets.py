import csv
import math
import runpy
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ldpsim import datasets as dst
from ldpsim import oracles as oc
from ldpsim.errors import DomainError, ParameterError
from ldpsim.multidim import _categorical
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
    assert ds.names == ("color", "size")
    assert ds.labels == (("red", "blue"), ("L", "S", "M"))
    assert ds.rows.tolist() == [[0, 0], [1, 1], [0, 2]]


def test_load_determinism(tmp_path):
    rows = [[f"u{i}", f"v{i % 5}", f"w{i % 3}"] for i in range(50)]
    path = write_csv(tmp_path, "t.csv", ["id", "a", "b"], rows)
    d1 = dst.load_dataset(path, id_column="id")
    d2 = dst.load_dataset(path, id_column="id")
    assert d1.names == ("a", "b")  # the id column is no attribute
    assert d1.labels == d2.labels
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
    # no attribute left once the id column is dropped: no dtype to encode into
    idonly = write_csv(tmp_path, "id.csv", ["id"], [["1"], ["2"]])
    with pytest.raises(DomainError, match="at least one attribute"):
        dst.load_dataset(idonly, id_column="id")


@pytest.mark.parametrize("text,line", [
    ("id,a\n1,x\n2,{wide}\n", 3),
    ("id,{wide}\n1,x\n", 1),
], ids=["row", "header"])
def test_load_malformed_csv_is_domain_error(tmp_path, text, line):
    # csv.Error (here a field past csv's size limit) escaped as a runtime error
    path = tmp_path / "wide.csv"
    path.write_text(text.format(wide="y" * (csv.field_size_limit() + 1)))
    with pytest.raises(DomainError, match=rf"wide\.csv:{line}: field larger than field limit"):
        dst.load_dataset(path, id_column="id")


def test_load_utf8_byte_order_mark(tmp_path):
    # the BOM used to stick to the first header name, so "id" was not in the header
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfid,a\n1,x\n2,y\n")
    ds = dst.load_dataset(path, id_column="id")
    assert ds.names == ("a",) and ds.rows.tolist() == [[0], [1]]


@pytest.mark.parametrize("text,line", [
    ("id,a,b\n1,x,p\n2,y\n", 3),
    ('id,a,b\n1,"x\ny",p\n2,y\n', 4),
], ids=["one-line-fields", "after-a-two-line-field"])
def test_ragged_row_names_its_physical_line(tmp_path, text, line):
    # rows were numbered by record, one line too early after a quoted line break
    path = tmp_path / "ragged.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=rf"ragged\.csv:{line}: ragged row \(2 fields\)"):
        dst.load_dataset(path, id_column="id")


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
    j = ds.names.index("sex")
    freq = dst.true_frequencies(ds)[j]
    # independent count straight off the CSV text
    ref = resources.files("ldpsim.data").joinpath("adult_style_100.csv")
    with ref.open() as fh:
        labels = [row["sex"] for row in csv.DictReader(fh)]
    for idx, value in enumerate(ds.labels[j]):
        assert freq[idx] == pytest.approx(labels.count(value) / len(labels))


def test_gen_fixtures_regenerates_bundled_bytes(tmp_path, capsys):
    tool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "gen_fixtures.py"))
    data = resources.files("ldpsim.data")
    out = tmp_path / "adult_style_100.csv"
    tool["make_adult_style"](100, seed=20240502, path=str(out), cover=False)  # a str path
    assert out.read_bytes() == data.joinpath("adult_style_100.csv").read_bytes()
    # "adult N OUT" writes adult_style_5000's generator at any n
    assert tool["main"](["adult", "5000", str(tmp_path / "a5000.csv")]) == 0
    assert (tmp_path / "a5000.csv").read_bytes() == data.joinpath("adult_style_5000.csv").read_bytes()
    assert tool["main"](["adult", "n", "x.csv"]) == 2
    assert "usage" in capsys.readouterr().err


def test_true_frequencies_trivial():
    ds = dst.Dataset.from_ks([2], np.array([[0], [1]]))
    assert dst.true_frequencies(ds)[0] == pytest.approx([0.5, 0.5])
    ds = dst.Dataset.from_ks([2], np.zeros((7, 1), dtype=int))
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


def test_laplace_prior_refuses_a_budget_with_no_finite_scale():
    # 5e-324 / 2 attributes is 0 (ZeroDivisionError); 1e-320 gives an infinite
    # scale, whose noise clip_normalize turned into nan priors
    freqs = [np.full(4, 0.25), np.full(3, 1 / 3)]
    for eps in (5e-324, 1e-320):
        with pytest.raises(ParameterError, match="finite Laplace scale"):
            dst.laplace_prior(freqs, eps, 100, stream(42, 0))


def test_clip_or_uniform():
    mixed = np.array([-0.2, 0.4, 0.8])
    dists, fell_back = dst.clip_or_uniform([mixed, np.array([-0.5, -0.1, 0.0, -2.0])])
    np.testing.assert_array_equal(dists[0], oc.clip_normalize(mixed))
    np.testing.assert_array_equal(dists[1], np.full(4, 0.25))
    assert fell_back == [False, True]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_or_uniform_refuses_non_finite_vectors(bad):
    # an all-nan vector has no positive entry either, and once came back uniform
    with pytest.raises(ParameterError, match="inf or nan"):
        dst.clip_or_uniform([np.full(3, bad)])
    with pytest.raises(ParameterError, match="inf or nan"):
        dst.clip_or_uniform([np.full(2, 0.5), np.array([0.2, bad, 0.3])])


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
    rows = dst.synthesize_profiles(freqs, 50, stream(44, 0), (2, 3))
    assert (rows[:, 0] == 1).all() and (rows[:, 1] == 0).all()
    # rows take the narrowest dtype that holds k - 1: uint8 up to k = 256
    assert rows.dtype == np.uint8 and rows.flags.c_contiguous
    empty = dst.synthesize_profiles(freqs, 0, stream(44, 1), (2, 3))
    assert empty.shape == (0, 2) and empty.dtype == np.uint8
    wide_freqs = [np.full(300, 1 / 300), np.array([0.25, 0.75])]
    wide = dst.synthesize_profiles(wide_freqs, 500, stream(44, 3), (300, 2))
    assert wide.dtype == np.uint16 and wide[:, 0].max() >= 256
    # the same draws, column by column, as an int64 column_stack of the columns
    rng = stream(44, 3)
    ref = np.column_stack([_categorical(f, 500, rng) for f in wide_freqs])
    np.testing.assert_array_equal(wide, ref)
    with pytest.raises(ParameterError):
        dst.synthesize_profiles([np.array([0.5, 0.6])], 5, stream(44, 2), (2,))


def test_synthesize_profiles_marginals_chi_square():
    freqs = [stream(45, 0).dirichlet(np.ones(6))]
    rows = dst.synthesize_profiles(freqs, 100_000, stream(45, 1), (6,))
    counts = np.bincount(rows[:, 0], minlength=6)
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


def test_zipf_generator():
    m = dst.zipf_marginal(5, 1.0)
    assert m.sum() == pytest.approx(1.0)
    assert (np.diff(m) < 0).all()
    ds = dst.zipf_dataset(2000, [6, 4], 1.2, stream(46, 0))
    assert ds.ks == (6, 4) and ds.n == 2000
    # a = -300: 1 / j^-300 is inf from j = 11 on, and the k = 16 marginal came out nan;
    # a = 1000: j^1000 overflows, so every weight past j = 2 is 0, with no RuntimeWarning
    for k in (16, 12):
        with pytest.raises(ParameterError, match="infinite weights"):
            dst.zipf_marginal(k, -300.0)
    m = dst.zipf_marginal(16, 1000.0)
    assert m[0] == 1.0 and m[1] == 2.0 ** -1000 and not m[2:].any()
    assert dst.zipf_marginal(5, -300.0)[-1] == pytest.approx(1.0)


def test_subsample_keeps_the_schema():
    ds = dst.load_fixture("adult_style_100")
    sub = ds.subsample(40, stream(47, 0))
    assert sub.n == 40 and sub.names == ds.names and sub.labels == ds.labels
    with pytest.raises(ParameterError):
        ds.subsample(101, stream(47, 1))


def test_dataset_schema_validation():
    ds = dst.Dataset(("color",), (("red", "green", "blue"),), np.zeros((2, 1), dtype=np.int64))
    assert ds.ks == (3,) and ds.d == 1 and ds.n == 2
    rows = np.zeros((1, 2), dtype=np.int64)
    for names, labels, match in [((), (), "at least one attribute"),
                                 (("a", "b"), (("x",),), "1 label tuples for 2"),
                                 (("a", "b"), (("x",), ()), "'b' has an empty domain"),
                                 (("a", "b"), (("x",), ("y", "y")), "'b' .* repeated")]:
        with pytest.raises(DomainError, match=match):
            dst.Dataset(names, labels, rows)


def test_dataset_rows_take_the_narrow_value_dtype(tmp_path):
    # every way to a Dataset stores value_dtype(ks): uint8 up to k = 256, uint16 beyond
    rng = stream(48, 1)
    drawn = np.column_stack([rng.integers(0, k, size=500) for k in (5, 3)])
    made = {"zipf": dst.zipf_dataset(500, [6, 4], 1.2, stream(48, 0)),
            "from_ks": dst.Dataset.from_ks((5, 3), drawn),
            "fixture": dst.load_fixture("adult_style_100"),
            "csv": dst.load_dataset(write_csv(tmp_path, "t.csv", ["a", "b"],
                                              [["x", "y"], ["z", "y"]]))}
    made["subsample"] = made["fixture"].subsample(40, stream(48, 2))
    for name, ds in made.items():
        assert ds.rows.dtype == np.uint8, name
        assert ds.rows.shape == (ds.n, ds.d)
    wide = dst.load_dataset(write_csv(tmp_path, "w.csv", ["many", "few"],
                                      [[f"v{i}", f"w{i % 2}"] for i in range(300)]))
    assert wide.ks == (300, 2) and wide.rows.dtype == np.uint16
    np.testing.assert_array_equal(wide.rows, np.column_stack([np.arange(300),
                                                              np.arange(300) % 2]))
    # the same values as the int64 draws they come from
    np.testing.assert_array_equal(made["from_ks"].rows, drawn)


@pytest.mark.parametrize("rows,match", [
    ([[0, 3]], r"attribute value 3 at \(0, 1\) outside \[0, 3\)"),
    ([[2, 0]], r"attribute value 2 at \(0, 0\) outside \[0, 2\)"),
    ([[0, -1]], "attribute value -1"),
    ([[0.5, 0]], "attribute value 0.5 is not a whole number"),
    ([[0, 1, 0]], r"rows must be an \(n, 2\) matrix, got shape \(1, 3\)"),
    ([0, 1], r"rows must be an \(n, 2\) matrix, got shape \(2,\)"),
])
def test_dataset_refuses_rows_outside_the_schema(rows, match):
    # checked before they are cast or stored: a uint8 cast would wrap -1 to 255
    with pytest.raises(DomainError, match=match):
        dst.Dataset.from_ks([2, 3], np.asarray(rows))


def test_dataset_from_ks_synthetic_schema():
    ds = dst.Dataset.from_ks([2, 3], np.zeros((4, 2), dtype=np.int64))
    assert ds.names == ("a0", "a1")
    assert ds.labels == (("a0_v0", "a0_v1"), ("a1_v0", "a1_v1", "a1_v2"))
    assert ds.ks == (2, 3)
