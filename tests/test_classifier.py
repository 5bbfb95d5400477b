import math

import numpy as np
import pytest

from ldpsim.classifier import NaiveBayes
from ldpsim.errors import ParameterError


def test_categorical_matches_hand_computation():
    X = np.array([[0, 1], [0, 0], [1, 1], [2, 0]])
    y = np.array([0, 0, 1, 1])
    clf = NaiveBayes(mode="categorical").fit(X, y, n_classes=2, categories=[3, 2])
    scores = clf.log_scores(np.array([[0, 1]]))
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
    scores = clf.log_scores(np.array([[1, 0, 1]]))
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
    assert np.array_equal(clf.log_scores(X), clf2.log_scores(X))


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
    for j, k in enumerate(ks):
        tab = np.zeros((C, k))
        for c in range(C):
            tab[c] = np.bincount(X[y == c, j], minlength=k)
        ref = np.log((tab + 1.0) / (tab.sum(axis=1, keepdims=True) + k))
        np.testing.assert_array_equal(clf._log_like[j], ref)


def test_bernoulli_tables_match_float_per_class_masks():
    # reference: per-class sums of a float64 copy of the bits, as the fit once summed
    rng = np.random.default_rng(4)
    C, n, m = 4, 3000, 23
    X = (rng.random((n, m)) < 0.3).astype(np.uint8)
    y = rng.integers(0, C - 1, n)  # the last class has no rows
    clf = NaiveBayes(mode="bernoulli").fit(X, y, n_classes=C)
    Xb = X.astype(np.float64)
    counts = np.bincount(y, minlength=C).astype(np.float64)
    ones = np.stack([Xb[y == c].sum(axis=0) for c in range(C)])
    theta = (ones + 1.0) / (counts[:, None] + 2.0)
    np.testing.assert_array_equal(clf._log_prior, np.log((counts + 1.0) / (n + C)))
    np.testing.assert_array_equal(clf._log_like[0], np.log(theta))
    np.testing.assert_array_equal(clf._log_like[1], np.log1p(-theta))
    for bad in (-1, C):
        with pytest.raises(ParameterError, match=r"labels must lie in \[0, 4\)"):
            NaiveBayes(mode="bernoulli").fit(X[:3], np.array([0, bad, 1]), n_classes=C)


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
