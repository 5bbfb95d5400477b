"""Built-in multiclass naive Bayes for the sampled-attribute inference attack.

Two likelihood models cover the two feature encodings the attack produces:
``categorical`` for plain value indices (one feature per attribute) and
``bernoulli`` for concatenated unary-encoded bits.  Laplace smoothing of 1
everywhere, log-space scoring, ties broken toward the lowest class index, so
training and prediction are fully deterministic.  The interface is small on
purpose (fit / predict) so an alternative model can be swapped in.

The fit is a function of integer sufficient statistics, :class:`Counts`: the
rows of each class, and per class the rows that hold each category of each
feature (categorical) or that set each bit (bernoulli).  ``Counts.add``
counts some rows, or one block of their feature columns, so a learning set
can be counted while it is made, column block by column block, and is never
held whole.  ``fit`` takes a list of such count parts, or rows (one array
pair, or lists of row blocks), which it counts the same way.  Features and
labels may be any integer dtype.  The counts are integers, so the tables do
not depend on how the rows were split or in what order they came, bit for
bit.  Bernoulli cell counts are a float32 GEMM of a (C, b) class one-hot by
each block's (b, w) bits, b at most ``PREDICT_ROWS``: no count exceeds
4,096 < 2^24, so float32 holds it exactly, and the scratch is the size of a
block.  Categorical cell counts are one ``bincount`` per feature column.

With theta[c, j] = (ones[c, j] + 1) / (rows[c] + 2) the smoothed chance that
class c sets bit j, a Bernoulli row x scores ``x @ W + b`` per class: W =
(log theta - log(1 - theta))^T is a C-contiguous (m, C) array and b = log
prior + the row sums of log(1 - theta), both built by ``fit``, so scoring is
one GEMM.  Categorical scoring adds up gathered rows of C-contiguous (k_j, C)
log tables, the log prior folded into feature 0's.

``predict`` scores fixed blocks of ``PREDICT_ROWS`` rows and keeps only each
block's argmax, so neither a float64 copy of the (n, m) features nor the
(n, C) score matrix is ever held.  The block is a constant, not a function of
m: the Bernoulli score is a GEMM, and OpenBLAS takes another kernel path for
small blocks, which changes the scores' last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

SMOOTHING = 1.0  # Laplace pseudo-count of every class and likelihood cell
PREDICT_ROWS = 4096  # rows scored per block by predict, and counted per GEMM by the fit
MODES = ("categorical", "bernoulli")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ParameterError(f"unknown naive Bayes mode {mode!r}")


def _check_labels(y: np.ndarray, n_classes: int) -> None:
    if y.dtype.kind not in "iu":
        raise ParameterError("labels must be integers, in any integer dtype")
    if len(y):
        _check_label_range(int(y.min()), int(y.max()), n_classes)


def _check_label_range(lo: int, hi: int, n_classes: int) -> None:
    if lo < 0 or hi >= n_classes:
        raise ParameterError(f"labels must lie in [0, {n_classes}), got {lo}..{hi}")


def _check_shape(X: np.ndarray, m: int) -> None:
    if X.ndim != 2 or X.shape[1] != m:
        raise ParameterError(f"features must be an (n, {m}) matrix, got {X.shape}")


def _check_features(X: np.ndarray, ks: np.ndarray, at: int = 0) -> None:
    """Column j of X is feature at + j and must lie in [0, ks[j]); min and max, no (n, m)
    temporary.  Whole-array bounds settle bits at once: an axis-0 reduction of them is
    ~15x slower."""
    _check_shape(X, len(ks))
    if not X.size or ((X.dtype.kind in "bu" or X.min() >= 0) and X.max() < ks.min()):
        return
    for j, (col, k) in enumerate(zip(X.T, ks)):
        if col.min(initial=0) < 0 or col.max(initial=0) >= k:
            raise ParameterError(f"feature {at + j} must lie in [0, {k})")


class Counts:
    """A learning set's integer sufficient statistics, which ``NaiveBayes.fit`` turns into
    its tables.

    ``classes[c]`` counts the rows of class c.  For categorical features
    ``cells[c, s_j + v]`` counts those of class c whose feature j holds v, with
    s_j = ks[0] + ... + ks[j - 1]; for bernoulli ones ``cells[c, j]`` counts
    those that set bit j.  Feature j lies in [0, ks[j]), so a bit has ks[j] = 2.
    Parts of one mode, class count and ``ks`` add up.
    """

    def __init__(self, mode: str, n_classes: int, ks):
        _check_mode(mode)
        self.mode = mode
        self.ks = np.asarray(ks, dtype=np.int64)
        if self.ks.ndim != 1 or not len(self.ks):
            raise ParameterError("naive Bayes needs at least one feature")
        widths = self.ks if mode == "categorical" else np.ones_like(self.ks)
        self.starts = np.cumsum(widths) - widths
        self.classes = np.zeros(int(n_classes), dtype=np.int64)
        self.cells = np.zeros((int(n_classes), int(widths.sum())), dtype=np.int64)

    def add(self, X, y, at: int = 0) -> "Counts":
        """Count rows: column j of the (n, w) ``X`` is feature at + j, and ``y`` holds the
        rows' integer labels in [0, C).  The rows' classes are counted with their block
        at feature 0, so rows whose columns come in blocks are counted once.  Nothing
        is counted unless every label and feature is in range."""
        X, y = np.asarray(X), np.asarray(y)
        if y.shape != X.shape[:1]:
            raise ParameterError("feature/label length mismatch")
        C = len(self.classes)
        _check_labels(y, C)
        ks = self.ks[at : at + X.shape[1]] if X.ndim == 2 else self.ks
        _check_shape(X, len(ks))
        if self.mode == "bernoulli":
            self.cells[:, at : at + len(ks)] += self._bit_counts(X, y, ks, at)
        else:
            _check_features(X, ks, at)
            labels = y.astype(np.intp)
            for j, (k, s) in enumerate(zip(ks, self.starts[at : at + len(ks)])):
                # one count per (class, category) cell: class c's counts sit at c * k + x
                cell = labels * k
                cell += X[:, j].astype(np.intp, copy=False)
                self.cells[:, s : s + k] += np.bincount(cell, minlength=C * k).reshape(C, k)
        if at == 0:
            # in range, so intp holds every label (bincount refuses a uint64 one)
            self.classes += np.bincount(y.astype(np.intp, copy=False), minlength=C)
        return self

    def _bit_counts(self, X, y, ks, at) -> np.ndarray:
        """(C, w) per-class sums of the bits ``X``, as one (C, b) one-hot by (b, w) bits
        float32 GEMM per block of b <= PREDICT_ROWS rows: every product sum is an integer
        <= 4,096 < 2^24, which float32 holds exactly.  Each block is checked before
        it is cast, in its own dtype: unsigned bits need only their max."""
        C = len(self.classes)
        classes = np.arange(C)[:, None]
        ones = np.zeros((C, len(ks)), dtype=np.int64)
        for lo in range(0, len(y), PREDICT_ROWS):
            rows = slice(lo, lo + PREDICT_ROWS)
            block = X[rows]
            _check_features(block, ks, at)
            bits = block.astype(np.float32)
            ones += ((y[rows] == classes).astype(np.float32) @ bits).astype(np.int64)
        return ones


@dataclass
class NaiveBayes:
    mode: str = "categorical"
    n_classes: int | None = None
    constant_class: int | None = None  # set when the learning set holds a single class
    _ks: np.ndarray = field(default=None, repr=False)  # feature j lies in [0, _ks[j])
    # categorical: one (k_j, C) log table per feature, the log prior added into the
    # first; bernoulli: [W, b] of the module docstring
    _tables: list = field(default=None, repr=False)

    def fit(self, X, y, n_classes: int,
            categories: list[int] | None = None) -> "NaiveBayes":
        """Fit class priors and per-feature likelihood tables.

        ``X`` is a list of :class:`Counts` parts of this mode and ``n_classes``
        (``y`` is then ignored), and the fit is that of their sum.  Otherwise
        ``X`` is an (n, m) feature array and ``y`` its labels, or ``X`` is a list
        of row blocks and ``y`` the list of their labels, counted into one part.
        Labels must be integers in [0, n_classes) and feature j's values lie in
        [0, categories[j]); categorical rows need ``categories`` (count parts
        carry theirs, which must equal ``categories`` when it is given),
        bernoulli mode ignores it (its features are bits).
        """
        _check_mode(self.mode)
        C = int(n_classes)
        counted = isinstance(X, list) and len(X) > 0 and all(isinstance(p, Counts) for p in X)
        parts = X if counted else [self._count_rows(X, y, C, categories)]
        first = parts[0]
        for p in parts:
            if (p.mode != self.mode or len(p.classes) != C or not np.array_equal(p.ks, first.ks)
                    or (self.mode == "categorical" and categories is not None
                        and not np.array_equal(p.ks, categories))):
                raise ParameterError("count parts must share the fit's mode, class count "
                                     "and category counts")
        classes = sum(p.classes for p in parts)
        if not classes.any():
            raise ParameterError("empty learning set")
        self.n_classes, self._ks = C, first.ks
        seen = np.flatnonzero(classes)
        if len(seen) == 1:
            # degenerate learning set: predict the single observed class
            self.constant_class = int(seen[0])
            return self
        self.constant_class = None

        a = SMOOTHING
        cells = sum(p.cells for p in parts)
        log_prior = np.log((classes + a) / (classes.sum() + a * C))
        if self.mode == "bernoulli":
            theta = (cells + a) / (classes[:, None] + 2 * a)
            log_1mt = np.log1p(-theta)
            self._tables = [np.ascontiguousarray((np.log(theta) - log_1mt).T),
                            log_prior + log_1mt.sum(axis=1)]
            return self
        tables = []
        for s, k in zip(first.starts, first.ks):
            tab = cells[:, s : s + k].astype(np.float64)
            tab = (tab + a) / (tab.sum(axis=1, keepdims=True) + a * k)
            # C-contiguous (k, C): scoring gathers its rows
            tables.append(np.ascontiguousarray(np.log(tab).T))
        tables[0] += log_prior  # each score's first addition, as it always was
        self._tables = tables
        return self

    def _count_rows(self, X, y, C: int, categories) -> Counts:
        """The rows (an array pair, or lists of row blocks and their labels) as one count
        part; ``Counts.add`` checks each block, and a label range error names the range
        over all blocks."""
        blocks = isinstance(X, list)
        Xs = [np.asarray(b) for b in (X if blocks else [X])]
        ys = [np.asarray(b) for b in (y if blocks else [y])]
        if len(Xs) != len(ys):
            raise ParameterError("feature/label length mismatch")
        seen = [yb for yb in ys if len(yb)]
        if not seen:
            raise ParameterError("empty learning set")
        _check_label_range(min(int(yb.min()) for yb in seen),
                           max(int(yb.max()) for yb in seen), C)
        if self.mode == "categorical" and categories is None:
            raise ParameterError("categorical naive Bayes needs each feature's category count")
        m = Xs[0].shape[1] if Xs[0].ndim == 2 else 0
        counts = Counts(self.mode, C, categories if self.mode == "categorical" else [2] * m)
        for Xb, yb in zip(Xs, ys):
            counts.add(Xb, yb)
        return counts

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """(n, C) log posteriors up to a per-row constant: checked rows, no constant_class."""
        if self.mode == "bernoulli":
            W, b = self._tables
            scores = X.astype(np.float64) @ W
            scores += b
            return scores
        first, *rest = self._tables
        scores = np.take(first, X[:, 0], axis=0)
        for j, tab in enumerate(rest, start=1):
            scores += np.take(tab, X[:, j], axis=0)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most likely class per row; argmax ties go to the lowest index."""
        X = np.asarray(X)
        _check_features(X, self._ks)
        n = len(X)
        if self.constant_class is not None:
            return np.full(n, self.constant_class, dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        for lo in range(0, n, PREDICT_ROWS):
            hi = min(lo + PREDICT_ROWS, n)
            np.argmax(self._scores(X[lo:hi]), axis=1, out=out[lo:hi])
        return out
