import math

import numpy as np
import pytest

from ldpsim.classifier import PREDICT_ROWS, Counts, NaiveBayes
from ldpsim.errors import ParameterError


def _law_tables(mode, X, y, C, ks=None):
    """The fitted tables by the documented law, from per-class loops over a float64 copy:
    categorical (k_j, C) log tables, the log prior added into the first; bernoulli
    W = (log theta - log(1 - theta))^T and b = log prior + row sums of log(1 - theta)."""
    Xf = np.asarray(X, dtype=np.float64)
    counts = np.array([np.count_nonzero(y == c) for c in range(C)], dtype=np.float64)
    log_prior = np.log((counts + 1.0) / (len(y) + C))
    if mode == "bernoulli":
        theta = (np.stack([Xf[y == c].sum(axis=0) for c in range(C)]) + 1.0) / (counts[:, None] + 2.0)
        return [(np.log(theta) - np.log1p(-theta)).T, log_prior + np.log1p(-theta).sum(axis=1)]
    tables = []
    for j, k in enumerate(ks):
        tab = np.stack([np.bincount(X[y == c, j], minlength=k) for c in range(C)]).astype(float)
        tables.append(np.log((tab + 1.0) / (tab.sum(axis=1, keepdims=True) + k)).T)
    tables[0] = tables[0] + log_prior
    return tables


def _assert_same_tables(got, want):
    for g, w in zip(got._tables, want if isinstance(want, list) else want._tables, strict=True):
        np.testing.assert_array_equal(g, w)


def test_categorical_matches_hand_computation():
    X = np.array([[0, 1], [0, 0], [1, 1], [2, 0]])
    y = np.array([0, 0, 1, 1])
    clf = NaiveBayes(mode="categorical").fit(X, y, n_classes=2, categories=[3, 2])
    scores = clf._scores(np.array([[0, 1]]))
    # Laplace-1 smoothed: priors (2+1)/(4+2); class 0: P(x0=0)=(2+1)/(2+3), P(x1=1)=(1+1)/(2+2)
    s0 = math.log(3 / 6) + math.log(3 / 5) + math.log(2 / 4)
    s1 = math.log(3 / 6) + math.log(1 / 5) + math.log(2 / 4)
    assert scores[0, 0] == pytest.approx(s0, abs=1e-12)
    assert scores[0, 1] == pytest.approx(s1, abs=1e-12)
    assert clf.predict(np.array([[0, 1]]))[0] == 0


def test_bernoulli_matches_hand_computation():
    X = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1]])
    y = np.array([0, 0, 1, 1])
    clf = NaiveBayes(mode="bernoulli").fit(X, y, n_classes=2)
    scores = clf._scores(np.array([[1, 0, 1]]))
    # theta[c, j] = (ones + 1) / (count_c + 2)
    t0 = [(2 + 1) / 4, (1 + 1) / 4, (0 + 1) / 4]
    s0 = math.log(0.5) + math.log(t0[0]) + math.log(1 - t0[1]) + math.log(t0[2])
    t1 = [(0 + 1) / 4, (1 + 1) / 4, (2 + 1) / 4]
    s1 = math.log(0.5) + math.log(t1[0]) + math.log(1 - t1[1]) + math.log(t1[2])
    assert scores[0, 0] == pytest.approx(s0, abs=1e-12)
    assert scores[0, 1] == pytest.approx(s1, abs=1e-12)


def test_separable_training_accuracy():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, 300)
    X = np.column_stack([y, rng.integers(0, 4, 300)])  # feature 0 determines the class
    clf = NaiveBayes(mode="categorical").fit(X, y, n_classes=3, categories=[3, 4])
    assert (clf.predict(X) == y).mean() == 1.0


def test_single_class_constant_predictor():
    X = np.array([[0, 1], [1, 1], [2, 0]])
    y = np.array([1, 1, 1])
    clf = NaiveBayes(mode="categorical").fit(X, y, n_classes=4, categories=[3, 2])
    assert clf.constant_class == 1
    assert (clf.predict(np.array([[0, 0], [2, 1]])) == 1).all()


def test_deterministic_and_tie_break():
    X = np.zeros((4, 2), dtype=int)
    y = np.array([0, 1, 0, 1])  # symmetric: every class identical
    clf = NaiveBayes(mode="categorical").fit(X, y, n_classes=2, categories=[1, 1])
    preds = clf.predict(np.zeros((5, 2), dtype=int))
    assert (preds == 0).all()  # argmax ties resolve to the lowest index
    clf2 = NaiveBayes(mode="categorical").fit(X, y, n_classes=2, categories=[1, 1])
    assert np.array_equal(clf._scores(X), clf2._scores(X))


def test_validation_errors():
    with pytest.raises(ParameterError):
        NaiveBayes(mode="categorical").fit(np.empty((0, 2)), np.empty(0, dtype=int), 2)
    with pytest.raises(ParameterError):
        NaiveBayes(mode="gauss").fit(np.zeros((2, 1), dtype=int), np.array([0, 1]), 2)
    with pytest.raises(ParameterError):
        NaiveBayes(mode="bernoulli").fit(np.zeros((3, 1), dtype=int), np.array([0, 1]), 2)
    with pytest.raises(ParameterError, match="category count"):
        NaiveBayes(mode="categorical").fit(np.zeros((2, 1), dtype=int), np.array([0, 1]), 2)


def test_out_of_range_labels_and_features_rejected():
    # the per-feature flat bincount would fold such values into another class
    X = np.array([[0, 1], [1, 0], [2, 1]])
    with pytest.raises(ParameterError, match="labels"):
        NaiveBayes(mode="categorical").fit(X, np.array([0, 1, 2]), n_classes=2,
                                           categories=[3, 2])
    with pytest.raises(ParameterError, match="labels"):
        NaiveBayes(mode="bernoulli").fit(X, np.array([0, -1, 1]), n_classes=2)
    with pytest.raises(ParameterError, match="feature 1"):
        NaiveBayes(mode="categorical").fit(X, np.array([0, 1, 1]), n_classes=2,
                                           categories=[3, 1])
    with pytest.raises(ParameterError, match="feature 0"):
        NaiveBayes(mode="categorical").fit(-X, np.array([0, 1, 1]), n_classes=2,
                                           categories=[3, 2])


def test_categorical_tables_match_per_class_loop():
    # reference: one bincount per (class, feature), as the fit once counted
    rng = np.random.default_rng(3)
    ks, C, n = [5, 2, 9], 4, 3000
    X = np.column_stack([rng.integers(0, k, n) for k in ks])
    y = rng.integers(0, C - 1, n)  # the last class has no rows
    clf = NaiveBayes(mode="categorical").fit(X, y, n_classes=C, categories=ks)
    _assert_same_tables(clf, _law_tables("categorical", X, y, C, ks))
    for tab in clf._tables:
        assert tab.flags.c_contiguous  # scoring gathers its rows


def test_bernoulli_tables_match_float_per_class_masks():
    # reference: per-class sums of a float64 copy of the bits, as the fit once summed
    rng = np.random.default_rng(4)
    C, n, m = 4, 3000, 23
    X = (rng.random((n, m)) < 0.3).astype(np.uint8)
    y = rng.integers(0, C - 1, n)  # the last class has no rows
    clf = NaiveBayes(mode="bernoulli").fit(X, y, n_classes=C)
    _assert_same_tables(clf, _law_tables("bernoulli", X, y, C))
    W, b = clf._tables
    assert W.shape == (m, C) and W.flags.c_contiguous and b.shape == (C,)
    for bad in (-1, C):
        with pytest.raises(ParameterError, match=r"labels must lie in \[0, 4\)"):
            NaiveBayes(mode="bernoulli").fit(X[:3], np.array([0, bad, 1]), n_classes=C)


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
def test_bernoulli_block_gemm_counts_match_per_class_masks(dtype):
    # the fit sums each block of PREDICT_ROWS rows as one float32 GEMM; per-class float64
    # sums are the reference, over 2 blocks and 3 rows, with an empty block, int8 labels,
    # a class with no rows and a first block whose class-0 count of bit 0 is 4,096
    rng = np.random.default_rng(7)
    C, n, m = 5, 2 * PREDICT_ROWS + 3, 46
    X = (rng.random((n, m)) < 0.3).astype(dtype)
    y = rng.integers(0, C - 1, n).astype(np.int8)  # the last class has no rows
    y[:PREDICT_ROWS], X[:PREDICT_ROWS, 0] = 0, 1
    law = _law_tables("bernoulli", X, y, C)
    cut = PREDICT_ROWS + 1
    for clf in (NaiveBayes(mode="bernoulli").fit(X, y, n_classes=C),
                NaiveBayes(mode="bernoulli").fit([X[:cut], X[cut:cut], X[cut:]],
                                                 [y[:cut], y[cut:cut], y[cut:]], n_classes=C)):
        _assert_same_tables(clf, law)


def test_predict_checks_categorical_features():
    # a -1 would index the last category's column and score silently
    X = np.array([[0, 1], [1, 0], [2, 1]])
    clf = NaiveBayes(mode="categorical").fit(X, np.array([0, 1, 1]), n_classes=2,
                                             categories=[3, 2])
    for bad in ([[-1, 0]], [[0, 2]], [[0, 1, 0]]):
        with pytest.raises(ParameterError):
            clf.predict(np.array(bad))
    with pytest.raises(ParameterError, match="feature 0"):
        clf.predict(np.array([[1, 0], [-1, 1]]))
    assert clf.predict(np.empty((0, 2), dtype=int)).shape == (0,)


def test_predict_checks_bernoulli_bits():
    X = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1]])
    clf = NaiveBayes(mode="bernoulli").fit(X, np.array([0, 0, 1, 1]), n_classes=2)
    with pytest.raises(ParameterError, match="feature 0"):
        clf.predict(np.array([[5, -3, 1]]))
    with pytest.raises(ParameterError, match="feature 1"):
        clf.predict(np.array([[1, -3, 1]]))
    # the single-class predictor checks too
    single = NaiveBayes(mode="bernoulli").fit(X, np.zeros(4, dtype=int), n_classes=2)
    with pytest.raises(ParameterError):
        single.predict(np.array([[2, 0, 0]]))


@pytest.mark.parametrize("mode", ["categorical", "bernoulli"])
def test_block_fit_equals_fit_on_the_concatenation(mode):
    # class and cell counts add up over row blocks, so the tables are bit-identical;
    # the blocks mix integer dtypes, and one is empty and one holds a single class
    rng = np.random.default_rng(6)
    ks, C, n = [5, 2, 9], 4, 2000
    X = (np.column_stack([rng.integers(0, k, n) for k in ks]) if mode == "categorical"
         else (rng.random((n, 23)) < 0.3).astype(np.int64))
    y = rng.integers(0, C, n)
    one_class = np.flatnonzero(y == 2)[:40]
    Xs = [X[:700].astype(np.uint8), X[700:700], X[700:1500].astype(np.int32),
          X[one_class].astype(np.uint16), X[1500:]]
    ys = [y[:700], y[700:700], y[700:1500].astype(np.int8), y[one_class], y[1500:]]
    blocks = NaiveBayes(mode=mode).fit(Xs, ys, n_classes=C, categories=ks)
    one = NaiveBayes(mode=mode).fit(np.concatenate(Xs), np.concatenate(ys), n_classes=C,
                                    categories=ks)
    assert blocks.constant_class is None
    _assert_same_tables(blocks, one)
    # one class over all blocks is the constant predictor
    single = NaiveBayes(mode=mode).fit([X[one_class[:20]], X[one_class[20:]]],
                                       [y[one_class[:20]], y[one_class[20:]]],
                                       n_classes=C, categories=ks)
    assert single.constant_class == 2


@pytest.mark.parametrize("mode", ["categorical", "bernoulli"])
def test_block_fit_checks_every_block(mode):
    X = np.array([[0, 1], [1, 0], [1, 1], [0, 0]])
    y = np.array([0, 1, 1, 0])
    fit = NaiveBayes(mode=mode).fit
    with pytest.raises(ParameterError, match="length mismatch"):
        fit([X[:2], X[2:]], [y[:2]], n_classes=2, categories=[2, 2])
    with pytest.raises(ParameterError, match="length mismatch"):
        fit([X[:2], X[2:]], y, n_classes=2, categories=[2, 2])
    with pytest.raises(ParameterError, match="empty learning set"):
        fit([X[:0], X[:0]], [y[:0], y[:0]], n_classes=2, categories=[2, 2])
    with pytest.raises(ParameterError, match=r"labels must lie in \[0, 2\), got 0..2"):
        fit([X[:2], X[2:]], [y[:2], y[2:] + 1], n_classes=2, categories=[2, 2])
    with pytest.raises(ParameterError, match="feature 1"):
        fit([X[:2], X[2:] * [1, 2]], [y[:2], y[2:]], n_classes=2, categories=[2, 2])


@pytest.mark.parametrize("mode", ["categorical", "bernoulli"])
def test_narrow_labels_fit_the_int64_tables(mode):
    # labels are kept in their own dtype; the categorical cell index c * k + x reaches
    # C * k - 1 = 899 > 255 at k = 300, so it must be taken in int64, not in uint8
    rng = np.random.default_rng(8)
    ks, C, n = [300, 4], 3, 5000
    X = (np.column_stack([rng.integers(0, k, n) for k in ks]).astype(np.uint16)
         if mode == "categorical" else (rng.random((n, 23)) < 0.3).astype(np.uint8))
    y = rng.integers(0, C, n)
    wide = NaiveBayes(mode=mode).fit(X, y, n_classes=C, categories=ks)
    narrow = NaiveBayes(mode=mode).fit([X[:2000], X[2000:]],
                                       [y[:2000].astype(np.uint8), y[2000:].astype(np.uint8)],
                                       n_classes=C, categories=ks)
    _assert_same_tables(narrow, wide)


@pytest.mark.parametrize("labels", [[0.0, 1.0, 1.0], [0.5, 1.0, 1.0], [False, True, True]])
def test_non_integer_labels_rejected(labels):
    # an int64 cast would truncate 0.5 to class 0 and fit silently
    X = np.array([[0, 1], [1, 0], [2, 1]])
    for mode in ("categorical", "bernoulli"):
        with pytest.raises(ParameterError, match="labels must be integers"):
            NaiveBayes(mode=mode).fit(X % 2, np.array(labels), n_classes=2, categories=[3, 2])


@pytest.mark.parametrize("mode", ["categorical", "bernoulli"])
def test_count_parts_fit_equals_the_row_block_fit(mode):
    # count parts built from rows, and from column blocks at their feature offsets
    # (classes counted with the block at feature 0), sum to the tables of one fit on
    # the row blocks, bit for bit; the order of the parts does not matter
    rng = np.random.default_rng(9)
    ks, C, n = [5, 2, 9], 4, 2 * PREDICT_ROWS + 7
    X = (np.column_stack([rng.integers(0, k, n) for k in ks]).astype(np.uint8)
         if mode == "categorical" else (rng.random((n, 23)) < 0.3).astype(np.uint8))
    y = rng.integers(0, C, n).astype(np.uint8)
    feature_ks = ks if mode == "categorical" else [2] * X.shape[1]
    rows = NaiveBayes(mode=mode).fit([X[:1000], X[1000:]], [y[:1000], y[1000:]],
                                     n_classes=C, categories=ks)
    whole = Counts(mode, C, feature_ks).add(X[:1000], y[:1000])
    columns = Counts(mode, C, feature_ks)
    for lo, hi in ((0, 1), (1, 3), (3, X.shape[1])):
        columns.add(X[1000:, lo:hi], y[1000:], at=lo)
    np.testing.assert_array_equal(whole.classes + columns.classes, np.bincount(y, minlength=C))
    for parts in ([whole, columns], [columns, whole]):
        counted = NaiveBayes(mode=mode).fit(parts, None, n_classes=C, categories=ks)
        assert counted.constant_class is None
        _assert_same_tables(counted, rows)
        np.testing.assert_array_equal(counted.predict(X), rows.predict(X))


def test_count_parts_are_checked():
    X = np.array([[0, 1], [1, 0], [1, 1], [0, 0]])
    y = np.array([0, 1, 1, 0])
    cat = Counts("categorical", 2, [2, 2]).add(X, y)
    with pytest.raises(ParameterError, match="count parts"):
        NaiveBayes(mode="bernoulli").fit([cat], None, n_classes=2)
    with pytest.raises(ParameterError, match="count parts"):
        NaiveBayes(mode="categorical").fit([cat], None, n_classes=3, categories=[2, 2])
    with pytest.raises(ParameterError, match="count parts"):
        NaiveBayes(mode="categorical").fit([cat], None, n_classes=2, categories=[2, 3])
    with pytest.raises(ParameterError, match="count parts"):
        NaiveBayes(mode="categorical").fit([cat, Counts("categorical", 2, [2, 3])], None,
                                           n_classes=2)
    with pytest.raises(ParameterError, match="empty learning set"):
        NaiveBayes(mode="categorical").fit([Counts("categorical", 2, [2, 2])], None,
                                           n_classes=2)
    single = NaiveBayes(mode="categorical").fit([Counts("categorical", 2, [2, 2]).add(X, y * 0)],
                                                None, n_classes=2)
    assert single.constant_class == 0
    # add checks its rows as fit does, naming the feature by its offset
    bits = Counts("bernoulli", 2, [2] * 4)
    with pytest.raises(ParameterError, match="feature 3"):
        bits.add(X * [1, 2], y, at=2)
    with pytest.raises(ParameterError, match=r"features must be an \(n, 1\) matrix"):
        bits.add(X, y, at=3)
    with pytest.raises(ParameterError, match=r"labels must lie in \[0, 2\), got 0..2"):
        bits.add(X, y * 2)
    with pytest.raises(ParameterError, match="length mismatch"):
        bits.add(X, y[:3])
    with pytest.raises(ParameterError, match="integers"):
        bits.add(X, y.astype(float))
    with pytest.raises(ParameterError, match="at least one feature"):
        Counts("bernoulli", 2, [])
    with pytest.raises(ParameterError, match="mode"):
        Counts("gauss", 2, [2])
    assert not bits.classes.any() and not bits.cells.any()


@pytest.mark.parametrize("mode", ["categorical", "bernoulli"])
def test_classes_with_identical_counts_score_alike_and_predict_the_lower(mode):
    # classes 1 and 2 are fitted on the same rows, class 0 on others: their scores are
    # equal bit for bit on every row, so predict never picks 2, and picks 1 wherever
    # those two lead
    rng = np.random.default_rng(10)
    ks, n = [3, 4], 300
    X = (np.column_stack([rng.integers(0, k, n) for k in ks]) if mode == "categorical"
         else (rng.random((n, 7)) < 0.4).astype(np.uint8))
    X[:, 0] = 0
    twin = X[: n // 3].copy()
    twin[:, 0] = 2 if mode == "categorical" else 1  # so the twins lead on some rows
    train = np.concatenate([X, twin, twin])
    X = np.concatenate([X, twin])
    y = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(len(twin), dtype=np.int64),
                        np.full(len(twin), 2)])
    clf = NaiveBayes(mode=mode).fit(train, y, n_classes=3, categories=ks)
    scores = clf._scores(X)
    np.testing.assert_array_equal(scores[:, 1], scores[:, 2])
    pred = clf.predict(X)
    assert not (pred == 2).any()
    np.testing.assert_array_equal(pred == 1, scores[:, 1] > scores[:, 0])
    assert (pred == 1).any() and (pred == 0).any()
