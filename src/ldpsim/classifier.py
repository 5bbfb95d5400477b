"""Built-in multiclass naive Bayes for the sampled-attribute inference attack.

Two likelihood models cover the two feature encodings the attack produces:
``categorical`` for plain value indices (one feature per attribute) and
``bernoulli`` for concatenated unary-encoded bits.  Laplace smoothing of 1
everywhere, log-space scoring, ties broken toward the lowest class index, so
training and prediction are fully deterministic.  The interface is small on
purpose (fit / predict) so an alternative model can be swapped in.

``fit`` takes its learning set as one array pair or as lists of row blocks,
and adds up its integer class and cell counts block by block, so learning
sets are never concatenated and the tables equal those of one fit on the
concatenation, bit for bit.  Features and labels may be any integer dtype;
the attack passes its narrow ones as they are.  The Bernoulli cell counts are
a float32 GEMM of a (C, b) class one-hot by each block's (b, m) bits, b at
most ``PREDICT_ROWS``: no count exceeds 4,096 < 2^24, so float32 holds it
exactly, and the scratch is the size of a block, not of a class's rows.

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

    def fit(self, X, y, n_classes: int,
            categories: list[int] | None = None) -> "NaiveBayes":
        """Fit class priors and per-feature likelihood tables.

        ``X`` is an (n, m) feature array and ``y`` its labels, or ``X`` is a
        list of row blocks and ``y`` the list of their labels; the fit is
        that of the blocks' concatenation.  Labels must be integers in
        [0, n_classes) and feature j's values lie in [0, categories[j]);
        categorical mode needs ``categories``, bernoulli mode ignores it
        (its features are bits).  Bernoulli counts are summed over row blocks of
        at most ``PREDICT_ROWS`` rows, each one exact float32 GEMM of the class
        one-hot by the bits, so theta equals that of per-class float64 sums.
        """
        if self.mode not in ("categorical", "bernoulli"):
            raise ParameterError(f"unknown naive Bayes mode {self.mode!r}")
        blocks = isinstance(X, list)
        Xs = [np.asarray(b) for b in (X if blocks else [X])]
        ys = [np.asarray(b) for b in (y if blocks else [y])]
        if len(Xs) != len(ys) or any(yb.shape != Xb.shape[:1] for Xb, yb in zip(Xs, ys)):
            raise ParameterError("feature/label length mismatch")
        if any(yb.dtype.kind not in "iu" for yb in ys):
            raise ParameterError("labels must be integers, in any integer dtype")
        seen = [yb for yb in ys if len(yb)]
        if not seen:
            raise ParameterError("empty learning set")
        self.n_classes = C = int(n_classes)
        lo, hi = min(int(yb.min()) for yb in seen), max(int(yb.max()) for yb in seen)
        if lo < 0 or hi >= C:
            raise ParameterError(f"labels must lie in [0, {C}), got {lo}..{hi}")
        if self.mode == "categorical" and categories is None:
            raise ParameterError("categorical naive Bayes needs each feature's category count")
        m = Xs[0].shape[1] if Xs[0].ndim == 2 else 0
        self._ks = np.asarray(categories if self.mode == "categorical" else [2] * m)
        for Xb in Xs:
            self._check_features(Xb)
        if lo == hi:
            # degenerate learning set: predict the single observed class
            self.constant_class = lo
            return self
        self.constant_class = None

        a = SMOOTHING
        # in range, so intp holds every label (bincount refuses a uint64 one)
        counts = sum(np.bincount(yb.astype(np.intp, copy=False), minlength=C) for yb in ys)
        self._log_prior = np.log((counts + a) / (counts.sum() + a * C))

        if self.mode == "bernoulli":
            # per-class bit sums as one (C, b) one-hot by (b, m) bits GEMM per block of
            # b <= PREDICT_ROWS rows: every product sum is an integer <= 4,096 < 2^24,
            # which float32 holds exactly, so theta is that of a float64 copy's sums
            ones = np.zeros((C, len(self._ks)), dtype=np.int64)
            classes = np.arange(C)[:, None]
            for Xb, yb in zip(Xs, ys):
                for lo in range(0, len(yb), PREDICT_ROWS):
                    at = slice(lo, lo + PREDICT_ROWS)
                    onehot = (yb[at] == classes).astype(np.float32)
                    ones += (onehot @ Xb[at].astype(np.float32)).astype(np.int64)
            theta = (ones + a) / (counts[:, None] + 2 * a)
            self._log_like = [np.log(theta), np.log1p(-theta)]
        else:
            tables = []
            for j, kj in enumerate(self._ks):
                # one count per (class, category) cell: class c's counts sit at c * kj + x
                tab = sum(np.bincount(yb.astype(np.int64) * kj + Xb[:, j].astype(np.int64),
                                      minlength=C * kj)
                          for Xb, yb in zip(Xs, ys))
                tab = tab.reshape(C, kj).astype(np.float64)
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
