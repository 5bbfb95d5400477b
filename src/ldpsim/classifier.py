"""Built-in multiclass naive Bayes for the sampled-attribute inference attack.

Two likelihood models cover the two feature encodings the attack produces:
``categorical`` for plain value indices (one feature per attribute) and
``bernoulli`` for concatenated unary-encoded bits.  Laplace smoothing of 1
everywhere, log-space scoring, ties broken toward the lowest class index, so
training and prediction are fully deterministic.  The interface is small on
purpose (fit / predict) so an alternative model can be swapped in.

``predict`` scores fixed blocks of ``PREDICT_ROWS`` rows and keeps only each
block's argmax, so neither a float64 copy of the (n, m) features nor the
(n, C) score matrix is ever held.  The block is a constant, not a function of
m: the Bernoulli score is a GEMM, and OpenBLAS takes another kernel path for
small blocks, which changes the scores' last bits.  Categorical scoring
gathers contiguous rows of (k, C) log tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

SMOOTHING = 1.0  # Laplace pseudo-count of every class and likelihood cell
PREDICT_ROWS = 4096  # rows scored per block by predict


@dataclass
class NaiveBayes:
    mode: str = "categorical"
    n_classes: int | None = None
    constant_class: int | None = None  # set when the learning set holds a single class
    _log_prior: np.ndarray = field(default=None, repr=False)
    _log_like: list = field(default=None, repr=False)
    _ks: np.ndarray = field(default=None, repr=False)  # feature j lies in [0, _ks[j])

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int,
            categories: list[int] | None = None) -> "NaiveBayes":
        """Fit class priors and per-feature likelihood tables.

        Labels must lie in [0, n_classes) and feature j's values in
        [0, categories[j]); categorical mode needs ``categories``, bernoulli
        mode ignores it (its features are bits).
        """
        if self.mode not in ("categorical", "bernoulli"):
            raise ParameterError(f"unknown naive Bayes mode {self.mode!r}")
        X = np.asarray(X)
        y = np.asarray(y, dtype=np.int64)
        if len(X) == 0:
            raise ParameterError("empty learning set")
        if len(X) != len(y):
            raise ParameterError("feature/label length mismatch")
        self.n_classes = C = int(n_classes)
        lo, hi = int(y.min()), int(y.max())
        if lo < 0 or hi >= C:
            raise ParameterError(f"labels must lie in [0, {C}), got {lo}..{hi}")
        if self.mode == "categorical" and categories is None:
            raise ParameterError("categorical naive Bayes needs each feature's category count")
        self._ks = np.asarray(categories if self.mode == "categorical" else [2] * X.shape[1])
        self._check_features(X)
        if lo == hi:
            # degenerate learning set: predict the single observed class
            self.constant_class = lo
            return self
        self.constant_class = None

        a = SMOOTHING
        counts = np.bincount(y, minlength=C)
        self._log_prior = np.log((counts + a) / (counts.sum() + a * C))

        if self.mode == "bernoulli":
            # uint8 bits sum in numpy's 64-bit integer accumulator: exact, so theta
            # equals that of a float64 copy's sums, without the copy
            ones = np.stack([X[y == c].sum(axis=0) for c in range(C)])
            theta = (ones + a) / (counts[:, None] + 2 * a)
            self._log_like = [np.log(theta), np.log1p(-theta)]
        else:
            tables = []
            for j, kj in enumerate(self._ks):
                xj = X[:, j].astype(np.int64)
                # one count per (class, category) cell: class c's counts sit at c * kj + x
                tab = np.bincount(y * kj + xj, minlength=C * kj).reshape(C, kj).astype(np.float64)
                tab = (tab + a) / (tab.sum(axis=1, keepdims=True) + a * kj)
                # a (C, kj) view of a C-contiguous (kj, C) array: scoring gathers its rows
                tables.append(np.ascontiguousarray(np.log(tab).T).T)
            self._log_like = tables
        return self

    def _check_features(self, X: np.ndarray) -> None:
        """Feature j must lie in [0, _ks[j]); min and max, no (n, m) temporary.  Whole-array
        bounds settle bits at once: an axis-0 reduction of them is ~15x slower."""
        if X.ndim != 2 or X.shape[1] != len(self._ks):
            raise ParameterError(f"features must be an (n, {len(self._ks)}) matrix, got {X.shape}")
        if X.min(initial=0) >= 0 and X.max(initial=0) < self._ks.min():
            return
        for j, (col, k) in enumerate(zip(X.T, self._ks)):
            if col.min(initial=0) < 0 or col.max(initial=0) >= k:
                raise ParameterError(f"feature {j} must lie in [0, {k})")

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """(n, C) log posteriors up to a per-row constant: checked rows, no constant_class."""
        if self.mode == "bernoulli":
            log_t, log_1mt = self._log_like
            Xb = X.astype(np.float64)
            return self._log_prior[None, :] + Xb @ log_t.T + (1.0 - Xb) @ log_1mt.T
        scores = np.tile(self._log_prior, (len(X), 1))
        for j, tab in enumerate(self._log_like):
            scores += np.take(tab.T, X[:, j], axis=0)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most likely class per row; argmax ties go to the lowest index."""
        X = np.asarray(X)
        self._check_features(X)
        n = len(X)
        if self.constant_class is not None:
            return np.full(n, self.constant_class, dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        for lo in range(0, n, PREDICT_ROWS):
            hi = min(lo + PREDICT_ROWS, n)
            np.argmax(self._scores(X[lo:hi]), axis=1, out=out[lo:hi])
        return out
