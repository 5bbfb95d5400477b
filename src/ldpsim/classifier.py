"""Built-in multiclass naive Bayes for the sampled-attribute inference attack.

Two likelihood models cover the two feature encodings the attack produces:
``categorical`` for plain value indices (one feature per attribute) and
``bernoulli`` for concatenated unary-encoded bits.  Laplace smoothing of 1
everywhere, log-space scoring, ties broken toward the lowest class index, so
training and prediction are fully deterministic.  The interface is small on
purpose (fit / predict) so an alternative model can be swapped in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

SMOOTHING = 1.0  # Laplace pseudo-count of every class and likelihood cell


@dataclass
class NaiveBayes:
    mode: str = "categorical"
    n_classes: int | None = None
    constant_class: int | None = None
    single_class_warning: bool = False
    _log_prior: np.ndarray = field(default=None, repr=False)
    _log_like: list = field(default=None, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None,
            categories: list[int] | None = None) -> "NaiveBayes":
        """Fit class priors and per-feature likelihood tables.

        ``categories`` gives each feature's category count in categorical
        mode (defaults to max observed + 1, which is fragile if a category
        is unseen, so callers normally pass the domain sizes).  Labels must
        lie in [0, n_classes) and feature j's values in [0, categories[j]).
        """
        if self.mode not in ("categorical", "bernoulli"):
            raise ParameterError(f"unknown naive Bayes mode {self.mode!r}")
        X = np.asarray(X)
        y = np.asarray(y, dtype=np.int64)
        if len(X) == 0:
            raise ParameterError("empty learning set")
        if len(X) != len(y):
            raise ParameterError("feature/label length mismatch")
        classes = np.unique(y)
        self.n_classes = C = int(n_classes) if n_classes is not None else int(classes.max()) + 1
        if classes[0] < 0 or classes[-1] >= C:
            raise ParameterError(f"labels must lie in [0, {C}), got {classes[0]}..{classes[-1]}")
        if classes.size == 1:
            # degenerate learning set: predict the single observed class
            self.constant_class = int(classes[0])
            self.single_class_warning = True
            return self
        self.constant_class = None
        self.single_class_warning = False

        a = SMOOTHING
        counts = np.bincount(y, minlength=C).astype(np.float64)
        self._log_prior = np.log((counts + a) / (counts.sum() + a * C))

        if self.mode == "bernoulli":
            Xb = X.astype(np.float64)
            ones = np.stack([Xb[y == c].sum(axis=0) for c in range(C)])
            theta = (ones + a) / (counts[:, None] + 2 * a)
            self._log_like = [np.log(theta), np.log1p(-theta)]
        else:
            if categories is None:
                categories = [int(X[:, j].max()) + 1 for j in range(X.shape[1])]
            tables = []
            for j, kj in enumerate(categories):
                xj = X[:, j].astype(np.int64)
                if xj.min() < 0 or xj.max() >= kj:
                    raise ParameterError(f"feature {j} must lie in [0, {kj})")
                # one count per (class, category) cell: class c's counts sit at c * kj + x
                tab = np.bincount(y * kj + xj, minlength=C * kj).reshape(C, kj).astype(np.float64)
                tab = (tab + a) / (tab.sum(axis=1, keepdims=True) + a * kj)
                tables.append(np.log(tab))
            self._log_like = tables
        return self

    def log_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if self.constant_class is not None:
            scores = np.full((len(X), self.n_classes), -np.inf)
            scores[:, self.constant_class] = 0.0
            return scores
        if self.mode == "bernoulli":
            log_t, log_1mt = self._log_like
            Xb = X.astype(np.float64)
            return self._log_prior[None, :] + Xb @ log_t.T + (1.0 - Xb) @ log_1mt.T
        scores = np.tile(self._log_prior, (len(X), 1))
        for j, tab in enumerate(self._log_like):
            scores += tab[:, X[:, j]].T
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most likely class per row; argmax ties go to the lowest index."""
        return np.argmax(self.log_scores(X), axis=1)
